"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.durability import ImageStore, build_recipe
from repro.obs import NULL_TRACER, current_tracer, read_jsonl
from repro.shard import ShardCoordinator


class TestParser:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestExperiments:
    def test_analytical_experiments_run_fast(self, capsys):
        assert main(["experiment", "fig15"]) == 0
        out = capsys.readouterr().out
        assert "HHJ" in out and "SMJ" in out

        assert main(["experiment", "ex10"]) == 0
        out = capsys.readouterr().out
        assert "16020" in out.replace(",", "")

    def test_fig8_at_reduced_scale(self, capsys):
        assert main(["experiment", "fig8", "--scale", "400"]) == 0
        out = capsys.readouterr().out
        assert "selectivity" in out
        assert "all_dump_overhead" in out

    def test_fig13_prints_hybrid_plan(self, capsys):
        assert main(["experiment", "fig13", "--scale", "400"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "GoBack" in out and "DumpState" in out


class TestObservabilityFlags:
    def test_experiment_serve_writes_trace_and_metrics(self, tmp_path):
        trace_path = tmp_path / "out.jsonl"
        metrics_path = tmp_path / "out.metrics"
        assert (
            main(
                [
                    "workload",
                    "--policy",
                    "suspend-resume",
                    "--trace-out",
                    str(trace_path),
                    "--metrics",
                    str(metrics_path),
                    "--trace-sample",
                    "64",
                ]
            )
            == 0
        )
        records = read_jsonl(str(trace_path))
        types = {r["type"] for r in records}
        # The acceptance criterion: checkpoints, per-operator MIP
        # decisions, and scheduler quanta in one trace file.
        assert {
            "checkpoint.taken",
            "mip.decision",
            "sched.quantum",
        } <= types
        assert records[0]["type"] == "trace.meta"
        # The workload's calibration runs are not part of the traced run:
        # every per-operator record belongs to a named query.
        stats = [r for r in records if r["type"] == "op.stats"]
        assert stats and all(r.get("query") for r in stats)
        assert "query_suspends_total" in metrics_path.read_text()
        # The process default tracer is cleared after the run.
        assert current_tracer() is NULL_TRACER

    def test_workload_keeps_arrival_trace_flag(self, tmp_path):
        trace_path = tmp_path / "wl.jsonl"
        assert (
            main(
                [
                    "workload",
                    "--trace",
                    "mixed",
                    "--policy",
                    "wait",
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        assert any(
            r["type"].startswith("sched.")
            for r in read_jsonl(str(trace_path))
        )

    def test_trace_summary_and_convert(self, tmp_path, capsys):
        trace_path = tmp_path / "out.jsonl"
        images = str(tmp_path / "images")
        argv = ["suspend", "--recipe", "sort", "--images", images]
        assert main(argv + ["--trace-out", str(trace_path)]) == 0
        capsys.readouterr()

        assert main(["trace", "summary", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "records" in out and "checkpoint.taken" in out

        chrome_path = tmp_path / "out.chrome.json"
        assert (
            main(
                [
                    "trace",
                    "convert",
                    str(trace_path),
                    "-o",
                    str(chrome_path),
                ]
            )
            == 0
        )
        doc = json.loads(chrome_path.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "i"} <= phases

    def test_untraced_run_installs_no_tracer(self, capsys):
        assert main(["experiment", "fig15"]) == 0
        assert current_tracer() is NULL_TRACER


class TestSuspendBeforeCompletion:
    @pytest.mark.parametrize(
        "extra", [[], ["--shards", "2"]], ids=["image", "shards"]
    )
    def test_recipe_that_finishes_first_is_a_one_line_error(
        self, extra, tmp_path
    ):
        """hashagg emits 16 rows, fewer than the default --rows 50: there
        is nothing left to suspend, and nothing may be committed."""
        images = tmp_path / "images"
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["suspend", "--recipe", "hashagg", "--images", str(images)]
                + extra
            )
        assert exit_info.value.code == (
            "recipe 'hashagg' completed (16 rows) before the suspend "
            "point; lower --rows or raise --scale"
        )
        assert not images.exists() or not any(images.iterdir())


def advertised_choices(command: str, option: str) -> list:
    parser = build_parser()
    sub = next(
        a for a in parser._actions if a.dest == "command"
    ).choices[command]
    return list(
        next(a for a in sub._actions if option in a.option_strings).choices
    )


class TestSuspendStrategies:
    @pytest.mark.parametrize(
        "strategy", advertised_choices("suspend", "--strategy")
    )
    def test_every_advertised_strategy_commits_an_image(
        self, strategy, tmp_path, capsys
    ):
        images = str(tmp_path / "images")
        argv = ["suspend", "--recipe", "sort", "--images", images]
        assert main(argv + ["--strategy", strategy, "--json"]) == 0
        image_id = json.loads(capsys.readouterr().out)["image_id"]
        assert ImageStore(images).validate(image_id) == []


class TestShardRoundTrip:
    """The sharded CLI path: cut, recover, resume in the same root."""

    def suspend(self, images, gid, shards=2):
        argv = ["suspend", "--recipe", "hashjoin", "--images", images]
        argv += ["--shards", str(shards), "--rows", "40", "--quantum", "16"]
        return main(argv + ["--id", gid, "--budget", "2000", "--json"])

    @pytest.mark.parametrize("shards", [2, 4])
    def test_suspend_recover_resume(self, shards, tmp_path, capsys):
        db, plan = build_recipe("hashjoin")
        full = ShardCoordinator(
            db, plan, num_shards=shards, quantum_rows=16
        ).run()
        images = str(tmp_path / "images")
        assert self.suspend(images, "smoke", shards) == 0
        before = json.loads(capsys.readouterr().out)["rows"]
        assert main(["images", "--images", images, "--recover"]) == 0
        recovered = capsys.readouterr().out
        assert "torn: -" in recovered and "orphaned: -" in recovered
        assert "shardset cuts committed: smoke" in recovered
        argv = ["resume-image", "--images", images, "--id", "smoke"]
        assert main(argv + ["--json"]) == 0
        after = json.loads(capsys.readouterr().out)["rows"]
        assert [tuple(r) for r in before + after] == full

    def test_torn_cut_is_a_one_line_error(self, tmp_path, capsys):
        images = str(tmp_path / "images")
        assert self.suspend(images, "torn") == 0
        ImageStore(images).delete("torn")  # the cut never committed
        with pytest.raises(SystemExit) as exit_info:
            main(["resume-image", "--images", images, "--id", "torn"])
        message = exit_info.value.code
        assert message.startswith("cannot resume shard set 'torn': ")
        assert "never reached its commit point" in message
        assert "\n" not in message


class TestSuspendFlags:
    """``suspend`` rejects a flag its mode would ignore, and ``--id`` names
    whatever it commits: the image, or the cut with ``--shards``."""

    def suspend(self, tmp_path, *extra):
        argv = ["suspend", "--recipe", "hashjoin"]
        return main(argv + ["--images", str(tmp_path / "images"), *extra])

    @pytest.mark.parametrize(
        "extra",
        [
            ["--shards", "2", "--strategy", "all_dump"],
            ["--quantum", "16"],
            ["--worker-mode", "process"],
        ],
        ids=["strategy-with-shards", "quantum-alone", "worker-mode-alone"],
    )
    def test_an_ignored_flag_is_a_usage_error(self, extra, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            self.suspend(tmp_path, *extra)
        assert exit_info.value.code == 2
        assert "usage: repro suspend" in capsys.readouterr().err
        assert not (tmp_path / "images").exists()

    def test_the_default_strategy_is_accepted_with_shards(self, tmp_path):
        assert self.suspend(tmp_path, "--shards", "2", "--strategy", "lp") == 0

    def test_id_names_the_cut(self, tmp_path, capsys):
        assert self.suspend(tmp_path, "--shards", "2", "--id", "cut1") == 0
        assert "shard set cut1 committed" in capsys.readouterr().out
        store = ImageStore(str(tmp_path / "images"))
        assert store.info("cut1").meta["shard_cut"] is True
