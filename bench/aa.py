"""``python3 -m bench aa`` — does the same code agree with itself?

Two complete sets of runs of the same code, interleaved (A and B take
turns, workload by workload, so drift of the machine lands on both).
Each side makes ``--runs`` runs per workload, each with another seed,
exactly as the regression gate does. Printed per workload and metric:

- ``spread``: the interquartile range of a side's values over its
  median (needs ``--runs`` >= 2) — the gate wants it within the bound;
- ``diff``: how much worse side B's median is than side A's, as a share
  of A's — the gate wants it within the bound too.

Exit status is non-zero when any ``diff`` (or, with enough runs to have
one, any ``spread`` other than ``setup_s``'s) exceeds its bound. The
results are written to ``bench/results/aa.json``.

``aa --counts`` instead runs the traced benchmark twice with one seed
and requires every count metric and the op-sequence digest to repeat
exactly.
"""

from __future__ import annotations

import json
import os
import statistics

from bench import runner, spec

RESULTS = spec.ROOT / "bench" / "results"


def spread(values: list[float]) -> float:
    """Interquartile range over the median, as the gate computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def check_counts(args, bench: dict) -> int:
    seconds = args.seconds or 1.0
    workloads = [args.workload] if args.workload else list(spec.ALL)
    first, second = (
        runner.run_workloads(
            workloads, args.seed, seconds, traced=True, smoke=True
        )
        for _ in range(2)
    )
    bad = 0
    for workload in workloads:
        a, b = first[workload], second[workload]
        names = spec.EXACT_COUNTS
        differing = [
            n for n in names if a["metrics"][n] != b["metrics"][n]
        ]
        if a["sequence"] != b["sequence"]:
            differing.append("op-sequence digest")
        status = "repeat exactly" if not differing else "DIFFER"
        print(f"{workload}: {len(names)} counts + op sequence {status}")
        for name in differing:
            print(f"  {name}: {a['metrics'].get(name)} != {b['metrics'].get(name)}")
        bad += len(differing)
    return 1 if bad else 0


def main(args, bench: dict) -> int:
    if args.counts:
        return check_counts(args, bench)
    seconds = args.seconds or float(bench["run_seconds"])
    workloads = [args.workload] if args.workload else list(spec.ALL)
    sides = {"A": {w: [] for w in workloads}, "B": {w: [] for w in workloads}}
    speeds = {w: [] for w in workloads}
    failed = 0
    for run in range(args.runs):
        for workload in workloads:
            # Alternate which side goes first.
            for side in ("AB", "BA")[run % 2]:
                result = runner.run_workloads(
                    [workload], args.seed + run, seconds, traced=False
                )[workload]
                failed += result["failed"]
                sides[side][workload].append(result["metrics"])
                speeds[workload].append(result["speed_factor"])
                print(f"# run {run + 1}/{args.runs} {workload} side {side} done")

    report = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    exceeded = 0
    for workload in workloads:
        print(f"== {workload}")
        rows = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [m[name] for m in sides["A"][workload]]
            b = [m[name] for m in sides["B"][workload]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = worse_by(metric, med_a, med_b)
            spreads = [spread(v) for v in (a, b)] if args.runs >= 2 else []
            over = diff > bound or (
                name != "setup_s" and any(s > bound for s in spreads)
            )
            exceeded += over
            rows[name] = {
                "a": a,
                "b": b,
                "median_a": med_a,
                "median_b": med_b,
                "diff": diff,
                "spread": spreads,
                "bound": bound,
            }
            shown = " ".join(f"{s:6.3f}" for s in spreads) or "   -  "
            print(
                f"  {name:14s} A {med_a:12.4f}  B {med_b:12.4f}  "
                f"diff {diff:+7.3f}  spread {shown}  bound {bound}"
                + ("  EXCEEDED" if over else "")
            )
        rows["speed_factors"] = speeds[workload]
        print(
            "  machine speed factors, in run order: "
            + " ".join(f"{s:.3f}" for s in speeds[workload])
        )
        report["workloads"][workload] = rows
    os.makedirs(RESULTS, exist_ok=True)
    with open(RESULTS / "aa.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if failed:
        print(f"{failed} failed operations")
    return 1 if exceeded or failed else 0
