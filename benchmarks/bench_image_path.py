"""Image data path: commit/load cost, delta images, parallel commit.

The suspend-image fast path must be a pure wall-clock/bytes
optimization: identical resumed output, identical virtual-clock costs,
regardless of delta chaining or commit parallelism. This benchmark
proves the equivalences on one large external-sort suspend (many
sublist blobs — the image shape the paper's dump strategy produces):

- **commit**: ``ImageStore.save`` + ``load`` wall clock and on-disk
  bytes; the image is resumed to completion in a fresh database and the
  output compared to the uninterrupted reference run.
- **delta**: suspend → save base → resume in place → suspend again →
  save both a full image and a delta against the base; the delta must
  write a small fraction of the full re-commit's bytes, and resuming
  from the delta chain must produce the same rows as resuming from the
  full image.
- **parallel**: ``save_many`` of several independent suspends, serial vs
  a 4-worker pool; manifests (minus wall-clock timestamps) must match
  byte for byte.

The CI image-perf-smoke job runs the reduced suite (``--quick`` /
``REPRO_BENCH_QUICK=1``) and fails on any of those gates. There is no
"faster and smaller than v1" gate any more: the v1 encoder is gone, so
there is nothing to race. ``BENCH_image.json`` keeps the numbers recorded
when both encoders existed (7.6x commit, 9.3x load, 8.5x smaller) as
history; this benchmark does not rewrite it.

Run directly (``python benchmarks/bench_image_path.py [--quick]``) or
via pytest (``pytest benchmarks/bench_image_path.py``).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
import tempfile
import time

from repro.core.lifecycle import QuerySession
from repro.durability import ImageStore, SaveRequest
from repro.engine.plan import FilterSpec, ScanSpec, SortSpec
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import UniformSelect
from repro.storage.database import Database

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
REPEATS = 3


def _sizes():
    if QUICK:
        return {"rows": 4_000, "buffer": 400, "suspend_at": 300}
    return {"rows": 40_000, "buffer": 2_000, "suspend_at": 2_000}


def build_db(seed: int = 7):
    sizes = _sizes()
    db = Database()
    db.create_table(
        "R", BASE_SCHEMA, generate_uniform_table(sizes["rows"], seed=seed)
    )
    db.catalog.set_predicate_selectivity("R", "uniform", 0.8)
    plan = SortSpec(
        FilterSpec(
            ScanSpec("R", label="scan_R"), UniformSelect(1, 0.8), label="f"
        ),
        key_columns=(0,),
        buffer_tuples=sizes["buffer"],
        label="sort",
    )
    return db, plan


def suspend_partway(seed: int = 7):
    db, plan = build_db(seed)
    session = QuerySession(db, plan, name=f"bench-{seed}")
    prefix = session.execute(max_rows=_sizes()["suspend_at"]).rows
    return db, plan, session, prefix


def reference_rows(seed: int = 7):
    db, plan = build_db(seed)
    return QuerySession(db, plan).execute().rows


def best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_commit(workdir: pathlib.Path, reference) -> dict:
    db, plan, session, prefix = suspend_partway()
    sq = session.suspend()
    root = workdir / "commit"

    def commit():
        shutil.rmtree(root, ignore_errors=True)
        ImageStore(str(root)).save(sq, db.state_store, image_id="img")

    clock_before = db.now
    commit_s = best_of(commit)
    store = ImageStore(str(root))
    info = store.info("img")
    load_s = best_of(lambda: store.load("img"))
    fresh_db, _ = build_db()
    resumed = QuerySession.resume(fresh_db, store.load("img"))
    rest = resumed.execute().rows
    return {
        "commit_seconds": round(commit_s, 4),
        "load_seconds": round(load_s, 4),
        "bytes": info.total_bytes,
        "num_blobs": info.num_blobs,
        "resume_cost": resumed.last_resume_cost,
        "rows_match_reference": prefix + rest == reference,
        "save_advanced_virtual_clock": db.now != clock_before,
    }


def bench_delta(workdir: pathlib.Path, reference) -> dict:
    db, plan, session, prefix = suspend_partway()
    sq1 = session.suspend()
    store = ImageStore(str(workdir / "delta"))
    base = store.save(sq1, db.state_store, image_id="base")

    resumed = QuerySession.resume(db, sq1)
    middle = resumed.execute(max_rows=_sizes()["suspend_at"] // 2).rows
    sq2 = resumed.suspend()
    full = store.save(sq2, db.state_store, image_id="full")
    delta = store.save(
        sq2, db.state_store, image_id="delta", base_image_id="base"
    )
    rests = {}
    for image_id in ("full", "delta"):
        fresh_db, _ = build_db()
        rests[image_id] = (
            QuerySession.resume(fresh_db, store.load(image_id)).execute().rows
        )
    return {
        "base_bytes": base.total_bytes,
        "full_recommit_bytes": full.total_bytes,
        "delta_bytes": delta.total_bytes,
        "delta_reused_bytes": delta.reused_bytes,
        "delta_ratio": round(
            delta.total_bytes / max(full.total_bytes, 1), 4
        ),
        "chain_length": delta.chain_length,
        "chain_resume_matches_full": rests["delta"] == rests["full"],
        "rows_match_reference": prefix + middle + rests["delta"] == reference,
    }


def bench_parallel(workdir: pathlib.Path) -> dict:
    suspends = []
    for seed in (11, 12, 13, 14):
        db, plan, session, _ = suspend_partway(seed)
        suspends.append((db, session.suspend()))

    def requests():
        return [
            SaveRequest(sq, db.state_store, image_id=f"img-{i}")
            for i, (db, sq) in enumerate(suspends)
        ]

    results = {}
    manifests = {}
    for label, workers in (("serial", 0), ("parallel", 4)):
        root = workdir / f"commit-{label}"

        def commit():
            shutil.rmtree(root, ignore_errors=True)
            store = ImageStore(str(root), commit_workers=workers)
            store.save_many(requests())

        results[f"{label}_seconds"] = round(best_of(commit), 4)
        store = ImageStore(str(root))
        manifests[label] = {}
        for i in range(len(suspends)):
            manifest = dict(store.manifest(f"img-{i}"))
            manifest.pop("created_ns")
            manifests[label][f"img-{i}"] = manifest
    results["images"] = len(suspends)
    results["speedup"] = round(
        results["serial_seconds"] / max(results["parallel_seconds"], 1e-9), 2
    )
    results["bytes_identical"] = manifests["serial"] == manifests["parallel"]
    return results


def measure() -> dict:
    reference = reference_rows()
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench-image-"))
    try:
        commit = bench_commit(workdir, reference)
        delta = bench_delta(workdir, reference)
        parallel = bench_parallel(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    equivalent = (
        commit["rows_match_reference"]
        and not commit["save_advanced_virtual_clock"]
        and delta["chain_resume_matches_full"]
        and delta["rows_match_reference"]
        and parallel["bytes_identical"]
    )
    return {
        "benchmark": "image_path",
        "workload": {
            "shape": "external sort suspend image (sublist blobs)",
            **_sizes(),
            "repeats": REPEATS,
            "timer": "best-of wall clock (s)",
        },
        "quick": QUICK,
        "commit": commit,
        "delta": delta,
        "parallel_commit": parallel,
        "equivalent": equivalent,
        "pass": equivalent and delta["delta_ratio"] < 1.0,
    }


def test_image_path_equivalent(benchmark):
    from benchmarks.conftest import once

    result = once(benchmark, measure)
    print(json.dumps(result, indent=2))
    assert result["equivalent"], "delta/parallel equivalence broken"
    assert result["pass"], (
        f"delta wrote {result['delta']['delta_ratio']} of a full re-commit"
    )


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        QUICK = True
    result = measure()
    print(json.dumps(result, indent=2))
    raise SystemExit(0 if result["pass"] else 1)
