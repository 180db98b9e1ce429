"""One round of one workload, in a process of its own.

``python3 -m bench.round '<json config>'`` — started by
:mod:`bench.runner`, never by hand. A round is a fresh process over a
fresh database and a fresh image root, so set-up time and peak memory
are cold samples every time. The result is one JSON document on the
last line of standard output.

Config keys: ``workload``, ``seed``, ``seconds`` (timed budget),
``traced`` (wrap the layers), ``final`` (run the end-of-run checks),
``workdir``, ``spawn_ns`` (the parent's ``perf_counter_ns`` at spawn —
the monotonic clock is system-wide, so set-up time includes interpreter
start), or ``drain`` (path of a serve_hops hand-off file).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
from time import perf_counter_ns

#: An operation slower than this counts as failed.
OP_LIMIT_NS = 2_000_000_000


def run_round(cfg: dict) -> dict:
    import_start = perf_counter_ns()
    from bench import calibrate, layers, workloads

    import_s = (perf_counter_ns() - import_start) / 1e9

    name = cfg["workload"]
    workload = workloads.make_workload(name, cfg["seed"], cfg["workdir"])
    workload.setup()
    recorder = None
    if cfg["traced"]:
        recorder = layers.Recorder()
        layers.install(recorder)

    calibrator = calibrate.Calibrator(name, cfg["workdir"])
    failures: list[str] = []

    def one_op(timed: bool):
        if recorder is not None and timed:
            recorder.begin_op(workload.op_span)
        start = perf_counter_ns()
        try:
            result = workload.op()
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            result = None
            failures.append(f"{type(exc).__name__}: {exc}")
        end = perf_counter_ns()
        if recorder is not None and timed:
            recorder.end_op(start, end)
        if result is not None:
            if end - start > OP_LIMIT_NS:
                failures.append(f"{result.kind}: op took over 2 s")
            elif result.check is not None and not result.check():
                failures.append(f"{result.kind}: output differs from solo run")
        return result, start, end

    for _ in range(workloads.WARMUP_OPS[name]):
        workload.prepare()
        one_op(timed=False)
    workload.tracer_records = 0
    gc.collect()

    # Count window: traced rounds only. It is a fixed number of
    # operations, run whatever the time budget, so that counts and the
    # op-sequence digest repeat exactly for a seed on any machine.
    window = workloads.COUNT_WINDOW[name] if recorder is not None else 0
    latencies: list[int] = []
    firsts: list[int] = []
    rows = 0
    sequence = hashlib.sha256()
    counts = {"vclock_s": 0.0, "pages_read": 0, "pages_written": 0}
    window_spans = window_records = 0
    # Peak memory is read at a fixed operation count, not at the end:
    # a faster round runs more operations and so holds more.
    rss_at = workloads.RSS_AT_OPS[name]
    min_ops = max(window, rss_at)
    cpu_start = time.process_time()
    timed_start = perf_counter_ns()
    setup_s = (timed_start - cfg["spawn_ns"]) / 1e9
    deadline = timed_start + int(cfg["seconds"] * 1e9)
    while True:
        workload.prepare()
        calibrator.maybe_slice()
        in_window = len(latencies) < window
        if in_window:
            disk = workload.db.disk
            before = (disk.now, disk.counters.snapshot())
        result, start, end = one_op(timed=True)
        latencies.append(end - start)
        if result is not None:
            rows += result.rows
            if result.first_ns:
                firsts.append(result.first_ns)
        if in_window:
            io = disk.counters.minus(before[1])
            counts["vclock_s"] += disk.now - before[0]
            counts["pages_read"] += io.pages_read
            counts["pages_written"] += io.pages_written
            kind = result.kind if result is not None else "failed"
            rows_out = result.rows if result is not None else 0
            sequence.update(f"{kind}:{rows_out};".encode())
            if len(latencies) == window:
                window_records = workload.tracer_records
                window_spans = len(recorder.spans)
        if len(latencies) == rss_at:
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        if end >= deadline and len(latencies) >= min_ops:
            break
    cpu_s = time.process_time() - cpu_start

    checks, problems = workload.finish(cfg["final"])
    failures.extend(problems)
    workload.close()

    # Every duration below is stated at reference speed (bench.calibrate).
    speed = calibrator.factor()
    out = {
        "workload": name,
        "traced": bool(cfg["traced"]),
        "speed_factor": speed,
        "setup_s": setup_s / speed,
        "import_s": import_s / speed,
        "latencies_ns": [ns / speed for ns in latencies],
        "firsts_ns": [ns / speed for ns in firsts],
        "rows": rows,
        "cpu_s": cpu_s / speed,
        "peak_rss_mb": peak_rss_mb,
        "attempted": workloads.WARMUP_OPS[name] + len(latencies) + checks,
        "failed": len(failures),
        "failures": failures[:20],
        "handoff": workload.handoff_path,
    }
    if recorder is not None:
        out["layers"] = recorder.totals()
        for entry in out["layers"].values():
            entry["self_ns"] /= speed
        out["window"] = {
            "ops": window,
            "sequence": sequence.hexdigest(),
            "tracer_records": window_records,
            "layers": recorder.totals(limit=window_spans),
            **counts,
        }
        recorder.write(os.path.join(cfg["workdir"], "spans.jsonl"))
    return out


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[0])
    if "drain" in cfg:
        from bench.workloads import drain_outstanding

        out = drain_outstanding(cfg["drain"])
    else:
        out = run_round(cfg)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
