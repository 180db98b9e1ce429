"""Continuation-token serving under load: latency, fairness, determinism.

Drives the deterministic load generator (:mod:`repro.serve.loadgen`)
against one :class:`~repro.serve.service.QueryService`: every simulated
client opens a query, then returns round-robin with its continuation
token until the query completes. The full run holds **>= 1000 sessions
concurrently suspended** — each an outstanding token backed by a
durable (delta) image — and reports:

- per-request latency (resume + quantum + suspend on the virtual
  clock): p50/p90/p99/max;
- fairness: the Jain index over per-session service time, overall and
  per catalog plan (identical plans must come out at 1.0);
- determinism: each session's concatenated output rows are digested
  against an uninterrupted solo run of the same plan — any divergence
  fails the benchmark;
- delta adoption: repeat suspends must commit delta images, and the
  delta hops of ``sorted-join`` (whose sort sublists never change once
  built) must reuse bytes from their base chain — a "delta" that
  rewrites everything fails the benchmark;
- durability cost: ``os.fsync`` calls per request, counted around the
  whole run. One packed file per image makes a token hop 1 (redeem) +
  2 (image) + 2 (pin) = 5 fsyncs whatever the image's blob count; more
  than ``FSYNC_BUDGET`` per request fails the benchmark.

The snapshot lands in ``BENCH_serve.json`` at the repo root; the CI
``serve-smoke`` job runs the reduced suite (``REPRO_BENCH_QUICK=1``)
and fails on any determinism divergence.

Run directly (``python benchmarks/bench_serve.py [--quick]``) or via
pytest (``pytest benchmarks/bench_serve.py``).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile
import time

from repro.serve import run_loadgen

QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))
SNAPSHOT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_serve.json"
#: The full run must hold at least this many concurrent sessions.
CONCURRENCY_TARGET = 1000
#: Mean ``os.fsync`` calls one request may cost (a steady-state hop is
#: 5; a chain rebase or the first ledger line adds one).
FSYNC_BUDGET = 6.0


def _params() -> dict:
    if QUICK:
        return {"sessions": 120, "scale": 16, "quantum_rows": 32}
    return {"sessions": 1050, "scale": 8, "quantum_rows": 32}


def measure() -> dict:
    params = _params()
    fsyncs = 0
    real_fsync = os.fsync

    def counting_fsync(fd):
        nonlocal fsyncs
        fsyncs += 1
        return real_fsync(fd)

    start = time.perf_counter()
    os.fsync = counting_fsync
    try:
        with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as root:
            report = run_loadgen(root, seed=1, **params)
    finally:
        os.fsync = real_fsync
    wall_seconds = time.perf_counter() - start
    concurrency_ok = QUICK or (
        report["concurrent_peak"] >= CONCURRENCY_TARGET
    )
    fsyncs_per_request = round(fsyncs / report["requests"], 3)
    sorted_join = report["images"]["delta_hops"]["sorted-join"]
    return {
        "benchmark": "continuation_token_serving",
        "quick": QUICK,
        "concurrency_target": None if QUICK else CONCURRENCY_TARGET,
        "wall_seconds": round(wall_seconds, 2),
        "requests_per_sec": round(report["requests"] / wall_seconds, 1),
        "fsyncs_per_request": fsyncs_per_request,
        "fsync_budget": FSYNC_BUDGET,
        **report,
        "pass": report["determinism"]["ok"]
        and concurrency_ok
        and fsyncs_per_request <= FSYNC_BUDGET
        and sorted_join["commits"] > 0
        and sorted_join["reused_bytes"] > 0,
    }


def run_and_snapshot() -> dict:
    result = measure()
    SNAPSHOT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    return result


def test_serve_load(benchmark):
    from benchmarks.conftest import once

    result = once(benchmark, run_and_snapshot)
    print(json.dumps(result, indent=2))
    assert result["determinism"]["ok"], (
        "token-resumed output diverged from uninterrupted execution: "
        f"{result['determinism']['divergent_sessions']}"
    )
    assert result["completed"] == result["sessions"]
    assert result["images"]["delta_commits"] > 0, (
        "repeat suspends never committed a delta image"
    )
    assert result["images"]["delta_hops"]["sorted-join"]["reused_bytes"] > 0, (
        "sorted-join's delta images reused nothing from their base chain"
    )
    assert result["fsyncs_per_request"] <= FSYNC_BUDGET
    if not QUICK:
        assert result["concurrent_peak"] >= CONCURRENCY_TARGET


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        QUICK = True
    snapshot = run_and_snapshot()
    print(json.dumps(snapshot, indent=2))
    print(
        f"fsyncs per request: {snapshot['fsyncs_per_request']} "
        f"(budget {FSYNC_BUDGET})"
    )
    for plan, hops in sorted(snapshot["images"]["delta_hops"].items()):
        print(
            f"delta commits of {plan}: {hops['commits']}, reused "
            f"{hops['reuse_ratio']:.1%} of "
            f"{hops['reused_bytes'] + hops['written_bytes']} bytes"
        )
    print(f"[saved to {SNAPSHOT_PATH}]")
    raise SystemExit(0 if snapshot["pass"] else 1)
