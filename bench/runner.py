"""Run workloads as rounds of child processes and fold them into metrics.

One *run* of a workload is several rounds (:mod:`bench.round`), each a
fresh process over a fresh database and image root; the run's time
budget is split evenly between them. Set-up time and peak memory are
medians over the rounds; latencies are pooled; rates are totals over
totals. When several workloads run in one invocation their rounds are
interleaved round-robin, so minute-scale drift of the machine lands on
all of them alike.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import uuid
from time import perf_counter_ns

from bench import spec

#: Rounds of an untraced run.
ROUNDS = 5

#: Image roots live here, on the checkout's own (real) filesystem, never
#: on tmpfs: ``os.fsync`` must be a real flush on both sides of any
#: comparison.
WORK_ROOT = spec.ROOT / ".bench_work"


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a measured failure)."""


def _child(cfg: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(spec.ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    cfg = dict(cfg, spawn_ns=perf_counter_ns())
    proc = subprocess.run(
        [sys.executable, "-m", "bench.round", json.dumps(cfg)],
        cwd=spec.ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"round {cfg.get('workload', 'drain')} exited "
            f"{proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def filesystem_type(path) -> str:
    """Filesystem type of ``path`` (recorded with every result)."""
    best, fstype = "", "unknown"
    real = os.path.realpath(path)
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _, mount, kind = line.split()[:3]
                if real.startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def round_plan(
    workload: str, traced: bool, smoke: bool = False
) -> list[tuple[str, bool]]:
    """The rounds of one run, in order: ``(round workload, wrap layers)``.

    A traced run alternates plain and wrapped rounds of the same
    workload — their ratio is the tracing overhead. ``engine_traced``
    also runs ``engine_batch`` rounds, for ``obs.overhead_ratio``.
    A smoke run keeps one round of each kind.
    """
    if not traced:
        return [(workload, False)] * (1 if smoke else ROUNDS)
    pair = [(workload, False), (workload, True)]
    if workload == "engine_traced":
        pair.insert(0, ("engine_batch", False))
    return pair * (1 if smoke else 2)


def run_workloads(
    workloads: list[str],
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool = False,
) -> dict:
    """Run every named workload; returns ``{workload: result}``.

    Each result has ``metrics`` (name -> value, end-to-end or per-layer
    according to ``traced``), ``samples``, ``attempted``, ``failed``,
    ``failures`` and, when traced, ``sequence`` (op-sequence digests).
    """
    run_dir = WORK_ROOT / uuid.uuid4().hex[:12]
    plans = {w: round_plan(w, traced, smoke) for w in workloads}
    rounds: dict[str, list[dict]] = {w: [] for w in workloads}
    extra: dict[str, dict] = {}
    try:
        for index in range(max(len(p) for p in plans.values())):
            for workload in workloads:
                plan = plans[workload]
                if index >= len(plan):
                    continue
                round_workload, wrap = plan[index]
                workdir = run_dir / f"{workload}-{index}"
                os.makedirs(workdir)
                final = index == len(plan) - 1
                result = _child(
                    {
                        "workload": round_workload,
                        "seed": seed,
                        "seconds": seconds / len(plan),
                        "traced": wrap,
                        "final": final,
                        "workdir": str(workdir),
                    }
                )
                rounds[workload].append(result)
                if result["handoff"] is not None:
                    # serve_hops durability check: a process that never
                    # saw the server finishes its outstanding queries.
                    extra[workload] = _child({"drain": result["handoff"]})
                if wrap:
                    traces = WORK_ROOT / "traces"
                    os.makedirs(traces, exist_ok=True)
                    os.replace(
                        workdir / "spans.jsonl",
                        traces / f"{workload}.spans.jsonl",
                    )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        w: fold(w, rounds[w], extra.get(w), traced) for w in workloads
    }


def _ms(values_ns: list[int], percentile: float) -> float:
    ordered = sorted(values_ns)
    rank = percentile * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    return value / 1e6


def fold(
    workload: str, rounds: list[dict], drain: dict | None, traced: bool
) -> dict:
    """Fold one run's rounds into the metrics ``BENCHMARK.json`` names."""
    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    failed = sum(r["failed"] for r in rounds)
    if drain is not None:
        attempted += drain["attempted"]
        failed += len(drain["problems"])
        failures.extend(drain["problems"])
    own = [r for r in rounds if r["workload"] == workload]
    plain = [r for r in own if not r["traced"]]
    wrapped = [r for r in own if r["traced"]]
    out = {
        "speed_factor": statistics.median(r["speed_factor"] for r in own),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if traced:
        # engine_traced also ran engine_batch rounds, for the obs ratio.
        batch = [r for r in rounds if r["workload"] != workload]
        out["metrics"] = _per_layer(own, plain, wrapped, batch)
        # Op-sequence digest of each wrapped round's count window.
        out["sequence"] = [r["window"]["sequence"] for r in wrapped]
        out["samples"] = sum(len(r["latencies_ns"]) for r in wrapped)
    else:
        out["metrics"] = _end_to_end(plain)
        out["samples"] = sum(len(r["latencies_ns"]) for r in plain)
    return out


def _end_to_end(rounds: list[dict]) -> dict:
    latencies = [ns for r in rounds for ns in r["latencies_ns"]]
    firsts = [ns for r in rounds for ns in r["firsts_ns"]]
    timed_s = sum(latencies) / 1e9
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        # Closed loop, no think time: the timed wall is the sum of the
        # op latencies (harness bookkeeping between ops is not counted).
        "ops_per_s": len(latencies) / timed_s,
        "rows_per_s": sum(r["rows"] for r in rounds) / timed_s,
        "op_ms_p50": _ms(latencies, 0.50),
        "op_ms_p90": _ms(latencies, 0.90),
        "first_ms_p50": _ms(firsts, 0.50),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def _per_layer(
    own: list[dict], plain: list[dict], wrapped: list[dict], batch: list[dict]
) -> dict:
    ops = sum(len(r["latencies_ns"]) for r in wrapped)
    op_wall_ns = sum(sum(r["latencies_ns"]) for r in wrapped)
    window_ops = sum(r["window"]["ops"] for r in wrapped)

    def self_ns(span: str) -> int:
        return sum(r["layers"].get(span, {}).get("self_ns", 0) for r in wrapped)

    def window_total(span: str, field: str) -> int:
        return sum(
            r["window"]["layers"].get(span, {}).get(field, 0) for r in wrapped
        )

    metrics = {}
    attributed_ns = 0
    for name, (spans, _) in spec.LAYER_MS.items():
        layer_ns = sum(self_ns(span) for span in spans)
        attributed_ns += layer_ns
        metrics[name] = layer_ns / ops / 1e6
    for name, (span, field, _) in spec.LAYER_COUNTS.items():
        metrics[name] = window_total(span, field) / window_ops
    for name, key in (
        ("storage.vclock_s", "vclock_s"),
        ("storage.pages_read", "pages_read"),
        ("storage.pages_written", "pages_written"),
        ("obs.tracer.records", "tracer_records"),
    ):
        metrics[name] = sum(r["window"][key] for r in wrapped) / window_ops

    def p50(some: list[dict]) -> float:
        return _ms([ns for r in some for ns in r["latencies_ns"]], 0.50)

    # 0 on the workloads that do not run the batch/row pair.
    metrics["obs.overhead_ratio"] = p50(plain) / p50(batch) if batch else 0.0
    metrics["process.cpu_ms_per_op"] = (
        sum(r["cpu_s"] for r in plain)
        / sum(len(r["latencies_ns"]) for r in plain)
        * 1e3
    )
    metrics["harness.reconcile_gap_ratio"] = (
        op_wall_ns - attributed_ns
    ) / op_wall_ns
    metrics["harness.trace_overhead_ratio"] = p50(wrapped) / p50(plain)
    metrics["harness.import_s"] = statistics.median(
        r["import_s"] for r in own
    )
    metrics["harness.speed_factor"] = statistics.median(
        r["speed_factor"] for r in own
    )
    return metrics
