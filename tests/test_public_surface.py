"""Guard on the public surface: one suspend vocabulary, one image format,
one commit path, one clock mechanism, one trace per sharded run.

The deprecated suspend-API generations, codec v1 and the directory
layout (writers and readers), the parallel-commit pool and the
``ImageStore`` tunables, the CLI aliases, the execution-path switch,
the float-order charge variants and the shard-trace merge layer are
gone; these checks fail if any of them (or a new hidden spelling) comes
back, and if a name the repository benchmark wraps at run time
(``bench/layers.py``) stops resolving.
"""

import argparse
import ast
import dataclasses
import inspect
import os
import pathlib
import re
import subprocess
import sys

import repro
import repro.durability
import repro.durability.format
import repro.storage.disk
from repro import QuerySession, SchedulerConfig, SuspendSpec
from repro.cli import build_parser
from repro.durability import ImageInfo, ImageStore, SaveRequest, codec2
from repro.engine.config import EngineConfig
from repro.serve.service import ServeConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]

REMOVED_EXPORTS = {
    "SuspendOptions",
    "CODEC_V1",
    "FORMAT_VERSION",
    "CODEC_V2",
    "V2_FORMAT_VERSION",
}
#: The codec's own framing and stamps: a section is one zlib value
#: stream, checked by the image's manifest, stamped by ``layout_version``
#: alone. No line under ``src`` may name any of these again.
REMOVED_STREAM_NAMES = re.compile(
    r"STREAM_MAGIC|FRAME_|iter_frame_payloads|CODEC_V2|V2_FORMAT_VERSION"
    r"|codec_version|format_version"
)
#: Functions no module under ``src/repro`` may define again: a second
#: join-matching path beside the block NLJ's key index, per-operator
#: fold/group-key helpers beside ``compile_fold``/``compile_projection``,
#: and a second suspend-plan solver beside ``optimizer.optimal_plan`` (the
#: HiGHS program and brute force are test oracles, ``tests/oracles.py``).
REMOVED_DEFINITIONS = {
    "compile_join_matches",
    "_fold",
    "_group_key",
    "build_lp_plan",
    "build_dp_plan",
    "solve_binary_program",
    "enumerate_valid_plans",
    "exhaustive_best_plan",
    "drain_trace",
    "collect_shard_traces",
    "run_trace_merge",
    "_write_shard_sidecars",
    "run_demo",
    "run_workload_sharded",
    "_dispatch",
}
#: Strategies and modules of the solvers that no longer ship.
REMOVED_STRATEGIES = {"DP", "EXHAUSTIVE"}
REMOVED_MODULES = {"repro.core.mip", "repro.core.tree_optimizer"}
#: Names no module under ``repro.durability`` may bind again: the pins
#: document and the rewrite-whole commit it needed. Pins are ledger
#: records beside token redemptions, in the root's one metadata file.
REMOVED_DURABILITY_NAMES = {"PINS_NAME", "atomic_write", "load_json"}
#: The shard-trace merge layer: a process worker's records come back with
#: each reply, so a sharded run has one trace and nothing to merge.
REMOVED_TRACE_EXPORTS = {
    "COORDINATOR_LANE",
    "merge_shard_trace",
    "merge_traces",
    "shard_lane",
    "split_by_shard",
    "strip_lanes",
}
REMOVED_PARAMETERS = {
    "legacy",
    "codec",
    "codec_version",
    "suspend_strategy",
    "suspend_budget",
    "image_store",
    "image_codec",
    "delta_spill",
    "commit_workers",
    "max_chain",
    "compress",
    "chunk_bytes",
    "delta",
    "gid",
}


def parameters(callable_) -> set:
    return set(inspect.signature(callable_).parameters)


def field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def test_no_removed_name_is_exported():
    for module in (repro, repro.durability):
        assert not REMOVED_EXPORTS & set(module.__all__)
        assert not [name for name in REMOVED_EXPORTS if hasattr(module, name)]
        assert all(hasattr(module, name) for name in module.__all__)


def test_suspend_takes_one_spec_and_nothing_else():
    assert list(inspect.signature(QuerySession.suspend).parameters) == [
        "self",
        "spec",
    ]


def test_no_removed_parameter_or_field():
    for names in (
        parameters(ImageStore.__init__),
        parameters(ImageStore.save),
        field_names(SuspendSpec),
        field_names(SaveRequest),
        field_names(SchedulerConfig),
    ):
        assert not REMOVED_PARAMETERS & names
    # The listen address is ``run_server``'s; the serving config has none.
    assert ServeConfig is SchedulerConfig
    assert not {"host", "port"} & field_names(SchedulerConfig)


def test_image_store_has_no_tunables_and_one_format():
    """Neither old-format reader nor a store knob can creep back."""
    assert parameters(ImageStore.__init__) == {"self", "root", "injector"}
    assert field_names(SuspendSpec) == {
        "strategy",
        "budget",
        "plan",
        "persist_to",
        "image_id",
        "image_meta",
        "base_image_id",
    }
    assert not {"layout_version", "codec_version"} & field_names(ImageInfo)
    assert not hasattr(repro.durability.format, "is_layout1_file")
    # A section is one value stream: no frame, CRC or stamp of the
    # codec's own, and no codec knob.
    src = ROOT / "src"
    named = [
        f"{path.relative_to(src)}:{number}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if REMOVED_STREAM_NAMES.search(line)
    ]
    assert not named
    format_source = (src / "repro" / "durability" / "format.py").read_text()
    assert "repro.durability.codec2" not in {
        node.module
        for node in ast.walk(ast.parse(format_source))
        if isinstance(node, ast.ImportFrom)
    }
    assert parameters(codec2.encode_to_stream) == {"value", "sink"}
    assert parameters(codec2.encode_bytes) == {"value"}
    assert parameters(codec2.encode_suspended_query) == {"sq"}
    assert parameters(codec2._Encoder.__init__) == {"self", "sink"}


def test_engine_config_has_no_execution_path_switch():
    assert field_names(EngineConfig) == {
        "contract_migration",
        "proactive_checkpointing",
    }


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


def test_every_operator_has_one_production_hook():
    """One body per operator: a class defines the single-row hook or the
    batch hook, never both, and ``next``/``next_batch`` — the entries
    that poll, cap and trace — have one definition, on the base class.
    ``suspend_when`` is a trigger value, not a predicate."""
    import repro.engine.folded  # noqa: F401  (defines operator subclasses)
    from repro.engine.base import Operator

    operators = {
        cls
        for cls in all_subclasses(Operator)
        if cls.__module__.startswith("repro.")
    }
    assert len(operators) >= 18
    for cls in operators:
        assert not {"next", "next_batch"} & set(vars(cls)), cls
        hooks = [
            hook
            for hook in ("_next", "_next_batch")
            if getattr(cls, hook) is not getattr(Operator, hook)
        ]
        assert len(hooks) == 1, (cls, hooks)
    assert not hasattr(Operator, "_next_batch_rowloop")
    execute = inspect.signature(QuerySession.execute)
    assert list(execute.parameters) == [
        "self", "max_rows", "suspend_when", "collect"
    ]
    assert "Callable" not in str(execute.parameters["suspend_when"].annotation)


def test_an_operator_file_holds_only_what_is_its_own():
    """Shared knowledge is stated once: no helper under ``repro.engine``
    branches on which side called it, the post-resume full-state payload
    is known to ``engine/base.py`` alone, and one site constructs a
    ``Checkpoint``."""
    engine = ROOT / "src" / "repro" / "engine"
    sources = {path: path.read_text() for path in sorted(engine.glob("*.py"))}
    for path, text in sources.items():
        args = [
            arg.arg
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.Lambda))
            for arg in node.args.args + node.args.kwonlyargs
        ]
        assert not {"build_side", "left_side"} & set(args), path
    assert [p.name for p, text in sources.items() if "__full_state__" in text] == [
        "base.py"
    ]
    assert sum(text.count("Checkpoint(") for text in sources.values()) == 1


def test_one_matching_path_and_one_fold_table():
    defined = {
        node.name
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert not REMOVED_DEFINITIONS & defined


def test_one_suspend_plan_solver():
    import importlib.util

    from repro import SuspendStrategy

    assert not REMOVED_STRATEGIES & set(SuspendStrategy.__members__)
    values = {s.value for s in SuspendStrategy}
    assert values == {"lp", "all_dump", "all_goback", "static"}
    for parser in walk_parsers(build_parser()):
        for action in parser._actions:
            if "--strategy" in action.option_strings:
                assert set(action.choices) == values
    assert not [m for m in REMOVED_MODULES if importlib.util.find_spec(m)]


def test_the_image_root_has_one_metadata_file():
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(
        repro.durability.__path__, "repro.durability."
    ):
        module = importlib.import_module(info.name)
        assert not REMOVED_DURABILITY_NAMES & set(vars(module)), info.name


def test_a_process_worker_is_a_proxy_and_a_run_is_one_trace():
    import importlib.util

    import repro.obs
    import repro.shard
    from repro.shard import ProcessShardWorker

    assert not REMOVED_TRACE_EXPORTS & set(vars(repro.obs))
    assert importlib.util.find_spec("repro.obs.merge") is None
    assert "ShardWorker" not in vars(repro.shard)
    own = {
        name
        for name in vars(ProcessShardWorker)
        if not (name.startswith("__") and name.endswith("__"))
    }
    assert own == {"_call", "close", "kill"}
    assert "__getattr__" in vars(ProcessShardWorker)
    for parser in walk_parsers(build_parser()):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction) and (
                "summary" in action.choices
            ):
                assert set(action.choices) == {"summary", "convert", "progress"}


def test_clock_has_no_ordered_charge_variants():
    """Time is derived from integer counters, so there is nothing for an
    ``add_each``/``*_each`` replay of float additions to keep in step."""
    disk = repro.storage.disk
    assert not hasattr(disk, "add_each")
    for cls in (disk.SimulatedDisk, disk.VirtualClock, disk.QueryLane):
        assert not [name for name in dir(cls) if name.endswith("_each")]


def walk_parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from walk_parsers(sub)


def leaf_parsers(parser, path=()):
    """``(command words, parser)`` for every parser with no subcommands."""
    subs = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from leaf_parsers(sub, path + (name,))


def test_one_cli_endpoint_per_job():
    """One spelling per job: no alias, no listing or narrated demo, no
    experiment that is a workload or a pointer to a benchmark — and each
    leaf binds the handler that runs it."""
    leaves = dict(leaf_parsers(build_parser()))
    assert set(leaves) == {
        "experiment",
        "workload",
        "serve-http",
        "loadgen",
        "suspend",
        "resume-image",
        "images",
        "trace summary",
        "trace convert",
        "trace progress",
    }
    for name, parser in leaves.items():
        assert callable(parser.get_default("run")), name
    experiment = next(
        a for a in leaves["experiment"]._actions if a.dest == "name"
    )
    assert experiment.choices == [
        "ex10", "fig10", "fig12", "fig13", "fig14", "fig15", "fig8",
        "fig9", "table2",
    ]
    options = {
        option
        for action in leaves["workload"]._actions
        for option in action.option_strings
    }
    assert "--shards" not in options


def test_cli_has_no_hidden_options():
    for parser in walk_parsers(build_parser()):
        for action in parser._actions:
            assert action.help is not argparse.SUPPRESS, action.option_strings
            assert not {
                "--" + name.replace("_", "-") for name in REMOVED_PARAMETERS
            } & set(action.option_strings)


def test_every_name_the_benchmark_wraps_resolves():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from bench.layers import Recorder, install; install(Recorder())",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_the_runtime_needs_neither_numpy_nor_scipy(tmp_path):
    """numpy and scipy are test dependencies only: with both blocked, the
    package and its CLI import and ``repro suspend`` commits an image."""
    script = (
        "import sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "import repro, repro.cli\n"
        "sys.exit(repro.cli.main(['suspend', '--recipe', 'sort',"
        f" '--images', {str(tmp_path)!r}, '--id', 'img']))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "img.rimg").is_file()
    imports = re.compile(r"^\s*(import|from)\s+(numpy|scipy)\b", re.M)
    assert not [
        path.name
        for path in (ROOT / "src").rglob("*.py")
        if imports.search(path.read_text())
    ]
