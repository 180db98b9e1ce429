"""Command-line interface: the paper's experiments, workloads and images.

Usage::

    python -m repro.cli experiment fig8 [--scale 200]
    python -m repro.cli experiment table2
    python -m repro.cli workload --trace mixed --seed 1
    python -m repro.cli serve-http --images ./images --port 8351
    python -m repro.cli loadgen --sessions 200 --json
    python -m repro.cli suspend --recipe sort --images ./images --rows 100
    python -m repro.cli resume-image --images ./images --id <image_id>
    python -m repro.cli images --images ./images [--recover | --gc]
    python -m repro.cli trace summary out.jsonl
    python -m repro.cli trace convert out.jsonl -o out.chrome.json
    python -m repro.cli trace progress out.jsonl

Each experiment prints the same series its benchmark records
(``experiment -h`` lists them); ``workload`` replays a multi-query
arrival trace through the scheduler under each pressure policy and
prints per-query latencies plus the memory-pressure timeline. Every
leaf command binds its own handler (``set_defaults(run=...)``), which
takes the parsed namespace.

The image commands exercise the durable-image subsystem across real
process boundaries: ``suspend`` runs a named recipe partway and commits a
suspend image to disk (with ``--shards``, a globally consistent cut over
that many shard workers), ``resume-image`` rebuilds the recipe's database
in *this* process and finishes the query from the image or cut, and
``images`` lists, validates, recovers, or garbage-collects an image root.
All three take ``--json`` for machine-readable output.

The serving commands expose the continuation-token front end:
``serve-http`` binds the asyncio HTTP server over a query catalog
(each request runs one quantum and returns rows plus a resumable
token; see docs/SERVING.md), and ``loadgen`` runs the deterministic
load generator and prints its report.

Observability: every command that runs queries accepts ``--trace-out
PATH`` (JSONL trace) and ``--metrics PATH`` (text metrics snapshot);
``--trace`` only exists on ``workload``, where it names the arrival
trace. ``repro workload --policy suspend-resume --trace-out out.jsonl``
yields one trace with checkpoints, per-operator MIP decisions, and
scheduler quanta; ``repro trace convert`` turns any trace into Chrome
``trace_event`` JSON that opens in Perfetto (https://ui.perfetto.dev). A
sharded ``suspend`` or ``resume-image`` writes one trace too, whatever
its ``--worker-mode``: process workers send their records back with each
reply, so both worker kinds write the same file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Optional

from repro.harness import figures
from repro.harness.report import format_table


def _fig12_rows(scale):
    points = (4_000, 10_000, 16_000, 19_000, 23_000, 28_000)
    return figures.fig12_rows(
        tuple(p * 100 // scale for p in points), scale=scale
    )


def _fig13_rows(scale):
    results, names = figures.fig13_results(scale=scale)
    rows = [
        {
            "strategy": s,
            "total_overhead": round(r.total_overhead, 1),
            "suspend_time": round(r.suspend_cost, 1),
        }
        for s, r in results.items()
    ]
    return rows, (
        "\n\nFigure 11 - suspend plan chosen online:\n"
        + results["lp"].suspend_plan.describe(names)
    )


def _fig15_rows(scale):
    rows, choice = figures.fig15_rows()
    return rows, (
        f"\nchoice without suspends: {choice.without_suspend}; "
        f"expecting a suspend: {choice.with_suspend}"
    )


def _ex10_rows(scale):
    rows, crossover = figures.ex10_rows()
    return rows, f"\ncrossover suspend point: {crossover:.0f} tuples"


#: name -> (title, rows function of ``--scale``). A rows function returns
#: the table's rows, or ``(rows, footer)`` when text follows the table.
EXPERIMENTS = {
    "table2": (
        "Table 2 - optimizer time vs plan size",
        lambda scale: figures.table2_rows(),
    ),
    "fig8": (
        "Figure 8 - NLJ_S overhead vs filter selectivity",
        lambda scale: figures.fig8_rows(scale=scale),
    ),
    "fig9": (
        "Figure 9 - SMJ_S overhead vs suspend point",
        lambda scale: figures.fig9_rows(scale=scale),
    ),
    "fig10": (
        "Figure 10 - NLJ_S overhead surface (selectivity x point)",
        lambda scale: figures.fig10_rows(scale=max(scale, 200)),
    ),
    "fig12": (
        "Figure 12 - online vs static optimizer (skewed data)",
        _fig12_rows,
    ),
    "fig13": ("Figure 13 - complex 10-operator plan", _fig13_rows),
    "fig14": (
        "Figure 14 - overhead vs suspend budget",
        lambda scale: figures.fig14_rows(scale=scale),
    ),
    "fig15": ("Figure 15 / Example 9 - HHJ vs SMJ", _fig15_rows),
    "ex10": ("Example 10 - NLJ vs SMJ", _ex10_rows),
}


def run_experiment(args) -> str:
    """One paper table or figure, as a text table."""
    title, rows_of = EXPERIMENTS[args.name]
    rows, footer = rows_of(args.scale), ""
    if isinstance(rows, tuple):
        rows, footer = rows
    return format_table(rows, title=title) + footer


def run_workload(args) -> str:
    """Replay an arrival trace under one or all pressure policies."""
    from repro.harness.scheduling import (
        DEFAULT_POLICIES,
        compare_policies,
        policy_comparison_rows,
    )
    from repro.workloads.plans import TRACES

    workload = TRACES[args.trace](scale=args.scale, seed=args.seed)
    policies = DEFAULT_POLICIES if args.policy is None else (args.policy,)
    results = compare_policies(workload, policies=policies, fold=args.fold)

    budget = workload.memory_budget
    lines = [
        f"workload {workload.name!r}: {len(workload.trace)} queries, "
        f"memory budget "
        f"{'unlimited' if budget is None else f'{budget} bytes'}, "
        f"suspend budget {workload.suspend_budget:.1f} time units",
    ]
    for name, stats in results.items():
        lines.append("")
        lines.append(
            format_table(
                stats.query_rows(),
                title=f"policy {name} - per-query latency",
            )
        )
        if stats.fold is not None:
            f = stats.fold
            lines.append(
                f"fold: {f['grafted']}/{f['candidates']} queries grafted, "
                f"{f['splits']} splits, "
                f"{f['pages_absorbed']} pages absorbed vs "
                f"{f['pages_shared']} fetched "
                f"({f['refetches']} refetches, "
                f"{f['build_hits']} shared build tables)"
            )
        lines.append("")
        lines.append(
            format_table(
                stats.timeline_rows(),
                title=f"policy {name} - memory-pressure timeline",
            )
        )
    if len(results) > 1:
        lines.append("")
        lines.append(
            format_table(
                policy_comparison_rows(results),
                title="policy comparison (best combined turnaround first)",
            )
        )
    return "\n".join(lines)


def _completed_before_suspend(recipe: str, rows: int) -> str:
    return (
        f"recipe {recipe!r} completed ({rows} rows) before the suspend "
        f"point; lower --rows or raise --scale"
    )


def _recipe_meta(args) -> dict:
    return {"recipe": args.recipe, "scale": args.scale, "seed": args.seed}


def _budget(args) -> float:
    return float("inf") if args.budget is None else args.budget


def run_suspend(args) -> str:
    """Run a recipe partway, suspend, and commit a durable image (or,
    with ``--shards``, a consistent-cut shard set)."""
    if args.shards:
        if args.strategy != "lp":
            args.error("--strategy applies only without --shards")
        return _suspend_shards(args)
    if args.quantum is not None or args.worker_mode is not None:
        args.error("--quantum and --worker-mode apply only with --shards")
    from repro.core.lifecycle import QuerySession, QueryStatus, SuspendSpec
    from repro.durability import build_recipe

    db, plan = build_recipe(args.recipe, scale=args.scale, seed=args.seed)
    session = QuerySession(db, plan, name=args.recipe)
    result = session.execute(max_rows=args.rows)
    if result.status is QueryStatus.COMPLETED:
        raise SystemExit(
            _completed_before_suspend(args.recipe, len(result.rows))
        )
    session.suspend(SuspendSpec(
        strategy=args.strategy,
        budget=_budget(args),
        persist_to=args.images,
        image_id=args.id,
        image_meta={**_recipe_meta(args), "rows_emitted": len(result.rows)},
    ))
    info = session.last_image
    if args.json:
        return json.dumps(
            {
                "image_id": info.image_id,
                "recipe": args.recipe,
                "rows": [list(r) for r in result.rows],
                "suspend_cost": session.last_suspend_cost,
                "bytes": info.total_bytes,
                "blobs": info.num_blobs,
            }
        )
    return (
        f"recipe {args.recipe!r}: emitted {len(result.rows)} rows, then "
        f"suspended in {session.last_suspend_cost:.1f} time units\n"
        f"image {info.image_id} committed under {args.images}: "
        f"{info.total_bytes} bytes, {info.num_blobs} payload blobs"
    )


def _suspend_shards(args) -> str:
    """Run a recipe sharded, then commit a consistent-cut shard set."""
    from repro.durability import build_recipe
    from repro.shard import ShardCoordinator

    db, plan = build_recipe(args.recipe, scale=args.scale, seed=args.seed)
    coord = ShardCoordinator(
        db,
        plan,
        num_shards=args.shards,
        worker_mode=args.worker_mode or "inproc",
        quantum_rows=args.quantum or 64,
    )
    delivered = coord.run(max_rows=args.rows)
    if coord.done:
        raise SystemExit(_completed_before_suspend(args.recipe, len(delivered)))
    report = coord.suspend_global(
        args.images,
        budget=_budget(args),
        gid=args.id,
        meta={**_recipe_meta(args), "shards": args.shards},
    )
    if args.json:
        return json.dumps(
            {
                "gid": report.gid,
                "recipe": args.recipe,
                "shards": args.shards,
                "rows": [list(r) for r in delivered],
                "budgets": {str(k): v for k, v in report.budgets.items()},
                "suspend_costs": {
                    str(k): v for k, v in report.costs.items()
                },
                "suspend_latency": report.latency,
            }
        )
    budgets = ", ".join(
        f"s{k}={report.budgets[k]:.1f}" for k in sorted(report.budgets)
    )
    return (
        f"recipe {args.recipe!r} on {args.shards} shards: delivered "
        f"{len(delivered)} rows, then cut globally\n"
        f"shard set {report.gid} committed under {args.images}: "
        f"suspend latency {report.latency:.1f} (parallel), "
        f"budgets [{budgets}]"
    )


def run_resume_image(args) -> str:
    """Rebuild an image's (or a shard set's) recipe database and finish
    the query from it."""
    from repro.core.lifecycle import QuerySession
    from repro.durability import ImageStore, build_recipe
    from repro.shard.manifest import names_shard_set

    store = ImageStore(args.images)
    # A shard set counts even when its cut never committed (only its
    # members did): the shard path then says precisely why it cannot
    # resume instead of "no committed image".
    if names_shard_set(store, args.id):
        from repro.common.errors import InconsistentCutError

        try:
            return _resume_shards(args, store)
        except InconsistentCutError as exc:
            raise SystemExit(f"cannot resume shard set {args.id!r}: {exc}")
    meta = store.info(args.id).meta
    if "recipe" not in meta:
        raise SystemExit(
            f"image {args.id!r} carries no recipe metadata; "
            "resume it programmatically against the database it expects"
        )
    db, _ = build_recipe(
        meta["recipe"], scale=meta.get("scale", 1), seed=meta.get("seed", 0)
    )
    sq = store.load(args.id)
    session = QuerySession.resume(db, sq, name=meta["recipe"])
    result = session.execute()
    if args.json:
        return json.dumps(
            {
                "image_id": args.id,
                "recipe": meta["recipe"],
                "rows": [list(r) for r in result.rows],
                "resume_cost": session.last_resume_cost,
            }
        )
    return (
        f"image {args.id}: resumed recipe {meta['recipe']!r} in "
        f"{session.last_resume_cost:.1f} time units, emitted "
        f"{len(result.rows)} remaining rows"
    )


def _resume_shards(args, store) -> str:
    """Verify a shard set, rebuild its recipe, and finish the query."""
    from repro.durability import build_recipe
    from repro.shard import ShardCoordinator
    from repro.shard.manifest import load_cut

    gid = args.id
    load_cut(store, gid)
    meta = store.info(gid).meta
    if "recipe" not in meta:
        raise SystemExit(
            f"shard set {gid!r} carries no recipe metadata; resume it "
            "programmatically against the database it expects"
        )
    db, _ = build_recipe(
        meta["recipe"], scale=meta.get("scale", 1), seed=meta.get("seed", 0)
    )
    coord = ShardCoordinator.resume(
        db, args.images, gid, worker_mode=args.worker_mode
    )
    rows = coord.run()
    coord.close()
    if args.json:
        return json.dumps(
            {
                "gid": gid,
                "recipe": meta["recipe"],
                "shards": coord.num_shards,
                "rows": [list(r) for r in rows],
                "delivered_before": coord.delivered_before,
            }
        )
    return (
        f"shard set {gid}: resumed recipe {meta['recipe']!r} on "
        f"{coord.num_shards} shards, emitted {len(rows)} remaining rows "
        f"({coord.delivered_before} were delivered before the cut)"
    )


def run_images(args) -> str:
    """List, recover, or garbage-collect an image root."""
    from repro.durability import ImageStore
    from repro.shard import classify_shardsets

    store = ImageStore(args.images)
    if args.recover:
        report = store.recover().as_dict()
        # The scan judges each image on its own, cut images included;
        # whether a cut and its members agree spans images.
        cuts = classify_shardsets(store)
        if args.json:
            return json.dumps({**report, "shardset_cuts": cuts.as_dict()})
        lines = [
            f"{state}: {', '.join(names) if names else '-'}"
            for state, names in report.items()
        ]
        if cuts.committed or cuts.torn:
            lines.append(
                "shardset cuts committed: "
                + (", ".join(cuts.committed) or "-")
            )
            for gid, reason in sorted(cuts.torn.items()):
                stranded = cuts.stranded.get(gid, [])
                lines.append(
                    f"shardset cut TORN: {gid} ({reason})"
                    + (
                        f"; stranded members: {', '.join(stranded)}"
                        if stranded
                        else ""
                    )
                )
        return "\n".join(lines)
    if args.gc:
        deleted = store.gc()
        if args.json:
            return json.dumps({"deleted": deleted})
        return f"deleted {len(deleted)} image(s): {', '.join(deleted) or '-'}"
    infos = store.list_images()
    rows = []
    for info in infos:
        problems = store.validate(info.image_id)
        rows.append(
            {
                **info.as_dict(),
                "valid": not problems,
                "problems": problems,
            }
        )
    cuts = classify_shardsets(store)
    if args.json:
        return json.dumps({"images": rows, "shardset_cuts": cuts.as_dict()})
    if not rows and not cuts.committed and not cuts.torn:
        return f"no committed images under {args.images}"
    lines = []
    for row in rows:
        status = "ok" if row["valid"] else "INVALID: " + "; ".join(row["problems"])
        chain = (
            f", delta of {row['base_image_id']} (chain {row['chain_length']}"
            f", reuses {row['reused_bytes']} bytes)"
            if row.get("base_image_id")
            else ""
        )
        lines.append(
            f"{row['image_id']}: {row['total_bytes']} bytes, "
            f"{row['num_blobs']} blobs{chain}, "
            f"control {row['control_bytes']} bytes, sections "
            f"{row['local_blobs']} local ({row['local_bytes']} bytes) + "
            f"{row['num_blobs'] - row['local_blobs']} referenced "
            f"({row['reused_bytes']} bytes), meta={row['meta']} [{status}]"
        )
    for gid in cuts.committed:
        lines.append(f"shardset {gid}: committed consistent cut")
    for gid, reason in sorted(cuts.torn.items()):
        lines.append(f"shardset {gid}: TORN ({reason})")
    return "\n".join(lines)


def run_serve_http(args) -> None:
    """Serve the demo catalog over HTTP with continuation tokens."""
    import tempfile

    from repro.core.lifecycle import SuspendSpec
    from repro.serve import QueryService, ServeApp, ServeConfig, run_server
    from repro.workloads.plans import serve_catalog

    images = args.images
    if images is None:
        images = tempfile.mkdtemp(prefix="repro-serve-")
        print(f"no --images given; committing images under {images}")
    db_factory, catalog = serve_catalog(scale=args.scale, seed=args.seed)
    config = ServeConfig(
        quantum_rows=args.quantum_rows,
        suspend=SuspendSpec(persist_to=images),
        fold=args.fold,
    )
    service = QueryService(db_factory(), config)
    print(
        f"catalog: {', '.join(sorted(catalog))} "
        f"(quantum {args.quantum_rows} rows, images under {images})"
    )
    run_server(ServeApp(service, catalog), host=args.host, port=args.port)


def run_loadgen_cli(args) -> str:
    """Drive the load generator and report latency/fairness/determinism."""
    import tempfile

    from repro.common.errors import ReproError
    from repro.serve import run_loadgen

    root = (
        contextlib.nullcontext(args.images)
        if args.images is not None
        else tempfile.TemporaryDirectory(prefix="repro-loadgen-")
    )
    with root as images:
        try:
            report = run_loadgen(
                images,
                sessions=args.sessions,
                scale=args.scale,
                seed=args.seed,
                quantum_rows=args.quantum_rows,
            )
        except ReproError as exc:
            raise SystemExit(f"error: {exc}") from None
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote report to {args.output}", file=sys.stderr)
    if args.json:
        return json.dumps(report, sort_keys=True)
    latency = report["latency"]
    fairness = report["fairness"]
    determinism = report["determinism"]
    lines = [
        f"{report['sessions']} sessions ({', '.join(report['plans'])}), "
        f"{report['requests']} requests, quantum {report['quantum_rows']} "
        f"rows, concurrent peak {report['concurrent_peak']}",
        f"latency (virtual time units): p50 {latency['p50']}, "
        f"p90 {latency['p90']}, p99 {latency['p99']}, max {latency['max']}",
        f"fairness: Jain index {fairness['jain_service_time']} overall; "
        + ", ".join(
            f"{p} {v}" for p, v in sorted(fairness["per_plan"].items())
        ),
        f"images: {report['images']['delta_commits']} delta commits, "
        f"{report['images']['full_commits']} full commits; bytes the "
        "delta commits reused instead of rewriting: "
        + ", ".join(
            f"{p} {h['reuse_ratio']:.1%} of "
            f"{h['reused_bytes'] + h['written_bytes']}"
            for p, h in sorted(report["images"]["delta_hops"].items())
            if h["commits"]
        ),
        "determinism: "
        + (
            "ok - every resumed session matched its uninterrupted run"
            if determinism["ok"]
            else "DIVERGED: " + ", ".join(determinism["divergent_sessions"])
        ),
    ]
    return "\n".join(lines)


def _load_trace_or_die(path: str) -> list:
    """Load a JSONL trace, exiting cleanly on empty/torn/corrupt files."""
    from repro.common.errors import TraceFileError
    from repro.obs import load_trace

    try:
        return load_trace(path)
    except TraceFileError as exc:
        raise SystemExit(f"error: {exc}")


def run_trace_summary(args) -> str:
    """Per-type record counts and headline metrics for a JSONL trace."""
    from repro.obs import render_summary

    return render_summary(_load_trace_or_die(args.file))


def run_trace_convert(args) -> str:
    """Convert a JSONL trace to Chrome trace_event JSON (Perfetto)."""
    from repro.obs import write_chrome_trace

    records = _load_trace_or_die(args.file)
    out = args.output if args.output is not None else args.file + ".chrome.json"
    n = write_chrome_trace(records, out)
    return (
        f"wrote {n} Chrome trace events to {out}\n"
        f"open it at https://ui.perfetto.dev or chrome://tracing"
    )


def run_trace_progress(args) -> str:
    """Per-query progress timelines from ``query.progress`` records."""
    from repro.obs import render_progress

    return render_progress(_load_trace_or_die(args.file))


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_obs_flags(parser) -> None:
    """Attach the observability output flags to a subcommand parser."""
    parser.add_argument(
        "--trace-out",
        dest="trace_out",
        metavar="PATH",
        default=None,
        help="write a JSONL observability trace to PATH",
    )
    parser.add_argument(
        "--metrics",
        dest="metrics_out",
        metavar="PATH",
        default=None,
        help="write a plain-text metrics snapshot to PATH",
    )
    parser.add_argument(
        "--trace-sample",
        dest="trace_sample",
        type=_positive_int,
        metavar="N",
        default=None,
        help=(
            "also record operator next_batch() calls whose rows cross a "
            "multiple of N as op.next_batch spans, and per-operator "
            "op.stats (rows, pages, work) after every execute"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Query Suspend and Resume (SIGMOD 2007) reproduction: run the "
            "paper's experiments, workloads and durable images."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run one paper experiment")
    exp.add_argument("name", choices=sorted(EXPERIMENTS))
    exp.add_argument(
        "--scale",
        type=_positive_int,
        default=100,
        help="data scale divisor vs the paper's sizes (default 100)",
    )
    _add_obs_flags(exp)
    exp.set_defaults(run=run_experiment)

    from repro.workloads.plans import TRACES

    wl = sub.add_parser(
        "workload",
        help="replay a multi-query arrival trace through the scheduler",
    )
    wl.add_argument(
        "--trace",
        choices=sorted(TRACES),
        default="mixed",
        help="arrival trace to replay (default mixed)",
    )
    wl.add_argument("--seed", type=int, default=1)
    wl.add_argument(
        "--scale",
        type=_positive_int,
        default=4,
        help="data scale divisor vs the paper's sizes (default 4)",
    )
    wl.add_argument(
        "--policy",
        choices=("suspend-resume", "kill-restart", "wait"),
        default=None,
        help="run a single policy instead of comparing all three",
    )
    wl.add_argument(
        "--fold",
        action="store_true",
        help="fold shared work across concurrent queries: common "
        "scans drain once through shared producers, common hash-join "
        "build sides are built once (outputs, per-query clocks, and "
        "suspend images are unchanged; see docs/PROTOCOL.md #11)",
    )
    _add_obs_flags(wl)
    wl.set_defaults(run=run_workload)

    sh = sub.add_parser(
        "serve-http",
        help="serve the demo catalog over HTTP with continuation tokens",
    )
    sh.add_argument(
        "--images",
        default=None,
        help="durable image root (default: a fresh temp directory)",
    )
    sh.add_argument("--host", default="127.0.0.1")
    sh.add_argument("--port", type=int, default=8351)
    sh.add_argument(
        "--scale",
        type=_positive_int,
        default=8,
        help="data scale divisor for the catalog tables (default 8)",
    )
    sh.add_argument("--seed", type=int, default=1)
    sh.add_argument(
        "--quantum-rows",
        type=_positive_int,
        default=64,
        help="rows each request may emit before suspending (default 64)",
    )
    sh.add_argument(
        "--fold",
        action="store_true",
        help="fold shared work across concurrently served queries "
        "(shared scan page windows persist across token hops)",
    )
    _add_obs_flags(sh)
    sh.set_defaults(run=run_serve_http)

    lg = sub.add_parser(
        "loadgen",
        help="drive the token service with N simulated clients",
    )
    lg.add_argument(
        "--images",
        default=None,
        help="durable image root (default: a temp directory, cleaned up)",
    )
    lg.add_argument(
        "--sessions",
        type=_positive_int,
        default=200,
        help="concurrent client sessions to simulate (default 200)",
    )
    lg.add_argument("--scale", type=_positive_int, default=8)
    lg.add_argument("--seed", type=int, default=1)
    lg.add_argument(
        "--quantum-rows", type=_positive_int, default=32
    )
    lg.add_argument(
        "-o",
        "--output",
        default=None,
        help="also write the full JSON report to this path",
    )
    lg.add_argument("--json", action="store_true")
    _add_obs_flags(lg)
    lg.set_defaults(run=run_loadgen_cli)

    from repro.core.lifecycle import SuspendStrategy
    from repro.durability.recipes import RECIPES

    susp = sub.add_parser(
        "suspend",
        help="run a recipe partway and commit a durable suspend image",
    )
    susp.add_argument("--recipe", choices=sorted(RECIPES), required=True)
    susp.add_argument(
        "--images", required=True, help="image root directory"
    )
    susp.add_argument(
        "--rows",
        type=_positive_int,
        default=50,
        help="output rows to emit before suspending (default 50)",
    )
    susp.add_argument("--scale", type=_positive_int, default=1)
    susp.add_argument("--seed", type=int, default=0)
    susp.add_argument(
        "--id",
        default=None,
        help="explicit image id, or shard-set id with --shards "
        "(default: generated)",
    )
    susp.add_argument("--json", action="store_true")
    susp.add_argument(
        "--strategy",
        choices=[s.value for s in SuspendStrategy],
        default="lp",
        help="suspend-plan strategy (default lp; without --shards)",
    )
    susp.add_argument(
        "--budget",
        type=float,
        default=None,
        help="suspend-time budget in virtual time units (default: none)",
    )
    susp.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help="run the recipe on N shard workers and commit a globally "
        "consistent shard-set cut instead of a single image "
        "(hashjoin/hashagg recipes; --budget becomes the global budget)",
    )
    susp.add_argument(
        "--quantum",
        type=_positive_int,
        default=None,
        help="rows per shard per round-robin pass (with --shards; "
        "default 64)",
    )
    susp.add_argument(
        "--worker-mode",
        choices=("inproc", "process"),
        default=None,
        help="shard workers in-process or one child process per shard "
        "(with --shards; default inproc)",
    )
    _add_obs_flags(susp)
    susp.set_defaults(run=run_suspend, error=susp.error)

    res = sub.add_parser(
        "resume-image",
        help="resume a suspend image in this process and run to completion",
    )
    res.add_argument("--images", required=True, help="image root directory")
    res.add_argument("--id", required=True, help="image id to resume")
    res.add_argument("--json", action="store_true")
    res.add_argument(
        "--worker-mode",
        choices=("inproc", "process"),
        default="inproc",
        help="when resuming a shard set: rebuild shard workers in-process "
        "or one child process per shard",
    )
    _add_obs_flags(res)
    res.set_defaults(run=run_resume_image)

    img = sub.add_parser(
        "images", help="list/validate/recover/gc a durable-image root"
    )
    img.add_argument("--images", required=True, help="image root directory")
    group = img.add_mutually_exclusive_group()
    group.add_argument(
        "--recover",
        action="store_true",
        help="run the startup recovery scan (quarantines bad images)",
    )
    group.add_argument(
        "--gc", action="store_true", help="delete every committed image"
    )
    img.add_argument("--json", action="store_true")
    img.set_defaults(run=run_images)

    tr = sub.add_parser(
        "trace", help="inspect or convert a JSONL observability trace"
    )
    trsub = tr.add_subparsers(dest="trace_command", required=True)
    tsum = trsub.add_parser(
        "summary", help="print per-type record counts and headline metrics"
    )
    tsum.add_argument("file", help="JSONL trace file")
    tsum.set_defaults(run=run_trace_summary)
    tconv = trsub.add_parser(
        "convert",
        help="convert to Chrome trace_event JSON (opens in Perfetto)",
    )
    tconv.add_argument("file", help="JSONL trace file")
    tconv.add_argument(
        "-o",
        "--output",
        default=None,
        help="output path (default: <file>.chrome.json)",
    )
    tconv.set_defaults(run=run_trace_convert)
    tprog = trsub.add_parser(
        "progress",
        help="per-query progress timelines from query.progress records",
    )
    tprog.add_argument("file", help="JSONL trace file")
    tprog.set_defaults(run=run_trace_progress)
    return parser


def _install_tracer(args):
    """Make a Tracer the process default when obs flags were given."""
    if getattr(args, "trace_out", None) is None and (
        getattr(args, "metrics_out", None) is None
    ):
        return None
    from repro.obs import Tracer, set_current_tracer

    sample = getattr(args, "trace_sample", None)
    tracer = Tracer(next_sample_every=sample if sample else 0)
    set_current_tracer(tracer)
    return tracer


def _export_tracer(tracer, args) -> None:
    """Write the collected trace/metrics; notices go to stderr so
    ``--json`` stdout stays machine-readable."""
    if tracer is None:
        return
    from repro.obs import set_current_tracer, write_jsonl

    set_current_tracer(None)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        n = write_jsonl(tracer.records, trace_out)
        print(f"wrote {n} trace records to {trace_out}", file=sys.stderr)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        with open(metrics_out, "w", encoding="utf-8") as fh:
            # Wall-clock (volatile) metrics are fine here: determinism
            # checks compare trace files, never this snapshot.
            fh.write(tracer.metrics.render_text(include_volatile=True))
        print(f"wrote metrics snapshot to {metrics_out}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    tracer = _install_tracer(args)
    try:
        out = args.run(args)
        if out is not None:
            print(out)
    finally:
        _export_tracer(tracer, args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
