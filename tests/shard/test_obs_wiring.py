"""Distributed obs wiring: one trace per sharded run, whatever the
worker kind."""

import pytest

from repro.durability import build_recipe
from repro.obs import Tracer, trace_lines
from repro.shard import ShardCoordinator


def run_traced(
    recipe="hashjoin", shards=2, mode="inproc", scale=2, sample=0, root=None
):
    """One traced sharded run; with ``root``, suspend it after 16 rows
    and resume it from the cut into the same tracer."""
    tracer = Tracer(next_sample_every=sample)
    db, plan = build_recipe(recipe, scale=scale, seed=1)
    coord = ShardCoordinator(
        db,
        plan,
        num_shards=shards,
        worker_mode=mode,
        quantum_rows=16,
        tracer=tracer,
    )
    if root is not None:
        coord.run(max_rows=16)
        coord.suspend_global(root, gid="g1")
        db, _ = build_recipe(recipe, scale=scale, seed=1)
        coord = ShardCoordinator.resume(
            db, root, "g1", tracer=tracer, worker_mode=mode
        )
    coord.run()
    coord.close()
    return tracer, coord


class TestTraceIdentity:
    def test_trace_id_is_deterministic_and_bound_everywhere(self):
        tracer_a, coord_a = run_traced()
        tracer_b, coord_b = run_traced()
        assert coord_a.trace_id == coord_b.trace_id
        ids = {
            r.get("trace_id")
            for r in tracer_a.records
            if r["type"] != "trace.meta"
        }
        assert ids == {coord_a.trace_id}

    def test_trace_id_differs_per_plan_and_shard_count(self):
        _, join2 = run_traced("hashjoin", shards=2)
        _, join4 = run_traced("hashjoin", shards=4)
        _, agg2 = run_traced("hashagg", shards=2)
        assert len({join2.trace_id, join4.trace_id, agg2.trace_id}) == 3

    def test_trace_id_survives_suspend_resume(self, tmp_path):
        tracer = Tracer()
        db, plan = build_recipe("hashjoin", scale=2, seed=1)
        coord = ShardCoordinator(
            db, plan, num_shards=2, quantum_rows=16, tracer=tracer
        )
        coord.run(max_rows=16)
        coord.suspend_global(str(tmp_path), gid="g1")
        db2, _ = build_recipe("hashjoin", scale=2, seed=1)
        resumed = ShardCoordinator.resume(
            db2, str(tmp_path), "g1", tracer=Tracer()
        )
        assert resumed.trace_id == coord.trace_id
        resumed.run()
        resumed.close()


class TestDeterminism:
    @pytest.mark.parametrize("mode", ["inproc", "process"])
    def test_two_runs_are_byte_identical(self, mode):
        tracer_a, _ = run_traced(mode=mode)
        tracer_b, _ = run_traced(mode=mode)
        assert trace_lines(tracer_a.records) == trace_lines(
            tracer_b.records
        )


class TestCrossModeEquality:
    def test_process_merge_equals_inproc_merge_modulo_lanes(self, tmp_path):
        # (The id is older than the one-trace transport.) The two worker
        # kinds' traces are equal line for line, seq included, also
        # across a suspend/resume.
        for shards in (2, 4):
            for root in (None, tmp_path / str(shards)):
                lines = {
                    mode: trace_lines(
                        run_traced(
                            shards=shards,
                            mode=mode,
                            sample=64,
                            root=None if root is None else str(root / mode),
                        )[0].records
                    )
                    for mode in ("inproc", "process")
                }
                assert lines["process"] == lines["inproc"]
                assert any('"op.stats"' in line for line in lines["process"])

    def test_four_shard_merged_trace_covers_every_lane(self):
        # A 4-shard process-worker query: the coordinator's tracer holds
        # execute spans from all 4 children, all under one trace_id.
        tracer, coord = run_traced(shards=4, mode="process")
        assert [r["type"] for r in tracer.records].count("trace.meta") == 1
        spans = [r for r in tracer.records if r["type"] == "query.execute"]
        assert {r["shard"] for r in spans} == {0, 1, 2, 3}
        assert {r["trace_id"] for r in spans} == {coord.trace_id}
        seqs = [r["seq"] for r in tracer.records]
        assert seqs == list(range(len(seqs)))


class TestShardProgress:
    def test_coordinator_progress_is_monotone_per_pass(self):
        tracer = Tracer()
        db, plan = build_recipe("hashjoin", scale=2, seed=1)
        coord = ShardCoordinator(
            db, plan, num_shards=2, quantum_rows=16, tracer=tracer
        )
        coord.run()
        coord.close()
        records = [
            r for r in tracer.records if r["type"] == "query.progress"
        ]
        fractions = [r["fraction"] for r in records]
        assert len(fractions) > 2
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        assert all(0.0 <= f <= 1.0 for f in fractions)
        rows = [r["rows_total"] for r in records]
        assert rows == sorted(rows)

    def test_progress_monotone_across_suspend_resume(self, tmp_path):
        tracer = Tracer()
        db, plan = build_recipe("hashjoin", scale=2, seed=1)
        coord = ShardCoordinator(
            db, plan, num_shards=2, quantum_rows=16, tracer=tracer
        )
        coord.run(max_rows=16)
        before = [
            r["fraction"]
            for r in tracer.records
            if r["type"] == "query.progress"
        ]
        coord.suspend_global(str(tmp_path), gid="g1")
        db2, _ = build_recipe("hashjoin", scale=2, seed=1)
        tracer2 = Tracer()
        resumed = ShardCoordinator.resume(
            db2, str(tmp_path), "g1", tracer=tracer2
        )
        resumed.run()
        resumed.close()
        after = [
            r["fraction"]
            for r in tracer2.records
            if r["type"] == "query.progress"
        ]
        combined = before + after
        assert combined == sorted(combined)
        assert combined[-1] == 1.0

    def test_worker_progress_shape(self):
        db, plan = build_recipe("hashjoin", scale=2, seed=1)
        coord = ShardCoordinator(db, plan, num_shards=2, quantum_rows=16)
        coord.run_pass()
        for worker in coord.workers:
            snapshot = worker.progress()
            assert set(snapshot) >= {
                "shard",
                "fraction",
                "rows_total",
                "est_rows",
            }
            assert 0.0 <= snapshot["fraction"] <= 1.0
        coord.close()
