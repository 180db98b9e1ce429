"""Command line of the benchmark.

- ``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` —
  one run of one workload (what ``BENCHMARK.json``'s ``command`` runs);
  the last line of standard output is the result JSON.
- ``python3 -m bench`` — all four workloads, rounds interleaved.
- ``python3 -m bench --smoke`` — the same at about 1/20 size.
- ``python3 -m bench list`` — every metric with unit, bound and the
  workloads it is reported on; fails if the runner and
  ``BENCHMARK.json`` disagree.
- ``python3 -m bench aa [--counts]`` — same-code A/A check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from bench import runner, spec


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    parser.add_argument(
        "command", nargs="?", default="run", choices=("run", "aa", "list")
    )
    parser.add_argument("--workload", choices=spec.ALL)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, help="timed budget of one run of a workload"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--counts",
        action="store_true",
        help="aa: check that counts and the op sequence repeat exactly",
    )
    parser.add_argument(
        "--runs", type=int, default=1, help="aa: runs per side (medians)"
    )
    return parser


def print_table(workload: str, result: dict, bench: dict, traced: bool) -> None:
    section = bench["per_layer" if traced else "end_to_end"]
    print(
        f"== {workload}  ({'per-layer' if traced else 'end-to-end'}, "
        f"n={result['samples']} timed ops, attempted={result['attempted']}, "
        f"failed={result['failed']}, machine at "
        f"{result['speed_factor']:.3f}x reference slice time)"
    )
    for metric in section:
        name = metric["name"]
        value = result["metrics"][name]
        note = f"  bound {metric['bound']}" if "bound" in metric else ""
        if workload not in spec.reported_on(name):
            note += "  (not measured on this workload)"
        print(f"  {name:34s} {value:14.4f} {metric['unit']:6s}{note}")
    for failure in result["failures"][:5]:
        print(f"  FAILED: {failure}")


def contract_json(result: dict, bench: dict, traced: bool) -> dict:
    """The result object of the benchmark contract (exactly four keys)."""
    section = bench["per_layer" if traced else "end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {
                "value": result["metrics"][m["name"]],
                "unit": m["unit"],
            }
            for m in section
        },
    }


def cmd_run(args, bench: dict) -> int:
    traced = bool(args.trace)
    workloads = [args.workload] if args.workload else list(spec.ALL)
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(bench["run_seconds"])
    print(
        f"# seed {args.seed}, {seconds:g} s timed per workload, image roots "
        f"on {runner.filesystem_type(spec.ROOT)} under {runner.WORK_ROOT.name}/"
    )
    results = runner.run_workloads(
        workloads, args.seed, seconds, traced, smoke=args.smoke
    )
    for workload in workloads:
        print_table(workload, results[workload], bench, traced)
    documents = {
        w: contract_json(results[w], bench, traced) for w in workloads
    }
    print(json.dumps(documents[args.workload] if args.workload else documents))
    return 0 if all(d["correct"] for d in documents.values()) else 1


def cmd_list(bench: dict) -> int:
    for section in ("end_to_end", "per_layer"):
        print(f"== {section}")
        for metric in bench[section]:
            bound = metric.get("bound", "-")
            try:
                on = ",".join(spec.reported_on(metric["name"]))
            except KeyError:
                on = "?"
            print(
                f"  {metric['name']:34s} {metric['unit']:6s} "
                f"{metric['better']:6s} bound {bound!s:5s} {on}"
            )
    problems = spec.mismatches(bench)
    for problem in problems:
        print(f"MISMATCH {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (spec.ROOT / "src" / "repro").is_dir():
        print(
            "bench: no src/repro beside the benchmark — nothing to measure",
            file=sys.stderr,
        )
        return 2
    bench = spec.load()
    if args.command == "list":
        return cmd_list(bench)
    problems = spec.mismatches(bench)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    os.makedirs(runner.WORK_ROOT, exist_ok=True)
    if args.command == "aa":
        from bench import aa

        return aa.main(args, bench)
    return cmd_run(args, bench)
