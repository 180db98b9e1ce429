"""Integration: the tracer hooks across engine, core, service, durability.

One traced suspend/resume cycle must surface every lifecycle phase the
paper describes — proactive checkpoints, contract signing, the MIP's
per-operator decisions, dump/goback suspend entries, redo work on resume
— and a traced scheduler run must add quanta, pressure decisions, and
durable-image commits, all cross-referenced by query and operator ids.
"""

import pytest

from repro.core.lifecycle import (
    QuerySession,
    SuspendSpec,
    SuspendStrategy,
)
from repro.engine.config import EngineConfig
from repro.obs import Tracer, use_tracer
from repro.service import QueryScheduler, SchedulerConfig
from repro.workloads.plans import build_nlj_s, mixed_priority_trace


def traced_cycle(tracer, max_rows=20):
    db, plan = build_nlj_s(0.5, scale=200)
    session = QuerySession(db, plan, name="nlj", tracer=tracer)
    first = session.execute(max_rows=max_rows)
    sq = session.suspend(SuspendSpec(strategy=SuspendStrategy.LP))
    resumed = QuerySession.resume(db, sq, name="nlj", tracer=tracer)
    rest = resumed.execute()
    return first.rows + rest.rows


@pytest.fixture(scope="module")
def cycle():
    tracer = Tracer()
    rows = traced_cycle(tracer)
    return tracer, rows


def types_of(tracer):
    return {r["type"] for r in tracer.records}


class TestSessionWiring:
    def test_every_lifecycle_phase_is_traced(self, cycle):
        tracer, _ = cycle
        assert {
            "trace.meta",
            "checkpoint.taken",
            "contract.signed",
            "suspend.plan",
            "mip.solve",
            "mip.decision",
            "op.suspend",
            "op.resume",
            "query.execute",
            "query.suspend",
            "query.resume",
        } <= types_of(tracer)

    def test_records_carry_query_and_operator_context(self, cycle):
        tracer, _ = cycle
        checkpoints = [
            r for r in tracer.records if r["type"] == "checkpoint.taken"
        ]
        assert checkpoints
        for r in checkpoints:
            assert r["query"] == "nlj"
            assert isinstance(r["op"], int) and r["op_name"]
            assert r["ckpt_seq"] >= 0

    def test_mip_decisions_cover_every_operator_with_cost_terms(self, cycle):
        tracer, _ = cycle
        decisions = [
            r for r in tracer.records if r["type"] == "mip.decision"
        ]
        (plan_record,) = [
            r for r in tracer.records if r["type"] == "suspend.plan"
        ]
        assert len(decisions) == plan_record["num_ops"]
        assert {d["op"] for d in decisions} == set(
            range(plan_record["num_ops"])
        )
        for d in decisions:
            assert d["strategy"] in ("dump", "goback")
            assert d["dump_suspend_cost"] >= 0.0
            assert d["dump_resume_cost"] >= 0.0
            if d["strategy"] == "goback":
                assert "goback_anchor" in d

    def test_mip_solve_reports_what_the_solver_did(self, cycle):
        tracer, _ = cycle
        (solve,) = [r for r in tracer.records if r["type"] == "mip.solve"]
        (plan,) = [r for r in tracer.records if r["type"] == "suspend.plan"]
        fields = set(solve) - {"type", "ts", "seq", "query"}
        assert fields == {
            "variables", "frontier_max", "objective", "feasible", "budget",
        }
        assert solve["feasible"] and solve["variables"] > 0
        assert solve["frontier_max"] >= 1
        assert solve["objective"] == pytest.approx(
            plan["est_suspend"] + plan["est_resume"], abs=1e-5
        )
        assert "mip_nodes_explored_total" not in tracer.metrics.render_text()

    def test_suspend_and_resume_metrics_recorded(self, cycle):
        tracer, _ = cycle
        metrics = tracer.metrics
        assert metrics.total("checkpoints_taken_total") == len(
            [r for r in tracer.records if r["type"] == "checkpoint.taken"]
        )
        assert metrics.total("contracts_signed_total") == len(
            [r for r in tracer.records if r["type"] == "contract.signed"]
        )
        assert metrics.total("suspend_decisions_total") == len(
            [r for r in tracer.records if r["type"] == "mip.decision"]
        )
        assert metrics.histogram("suspend_cost").count == 1
        assert metrics.histogram("resume_cost").count == 1
        assert metrics.gauge("contract_graph_theorem1_bound").value > 0

    def test_suspend_budget_vs_actual(self):
        tracer = Tracer()
        db, plan = build_nlj_s(0.5, scale=200)
        session = QuerySession(db, plan, name="nlj", tracer=tracer)
        session.execute(max_rows=20)
        session.suspend(
            SuspendSpec(strategy=SuspendStrategy.LP, budget=10_000.0)
        )
        (record,) = [
            r for r in tracer.records if r["type"] == "query.suspend"
        ]
        assert record["budget"] == 10_000.0
        assert record["actual_cost"] <= record["budget"]

    def test_tracing_does_not_change_results(self, cycle):
        _, traced_rows = cycle
        db, plan = build_nlj_s(0.5, scale=200)
        reference = QuerySession(db, plan).execute().rows
        assert traced_rows == reference

    def test_checkpoint_skips_traced_under_ablation(self):
        tracer = Tracer()
        db, plan = build_nlj_s(0.5, scale=200)
        config = EngineConfig(proactive_checkpointing=False)
        session = QuerySession(db, plan, config, name="nlj", tracer=tracer)
        session.execute()
        skips = [
            r for r in tracer.records if r["type"] == "checkpoint.skipped"
        ]
        assert skips
        assert all(
            r["reason"] == "proactive_checkpointing_disabled" for r in skips
        )
        # Only the initial checkpoints survive the ablation.
        taken = [
            r for r in tracer.records if r["type"] == "checkpoint.taken"
        ]
        assert len(taken) <= len(skips)


def batches_of(tracer):
    return [
        (r["op_name"], r["emitted"], r["produced"])
        for r in tracer.records
        if r["type"] == "op.next_batch"
    ]


class TestNextSampling:
    def test_sampled_next_spans(self):
        tracer = Tracer(next_sample_every=8)
        traced_cycle(tracer)
        spans = [r for r in tracer.records if r["type"] == "op.next_batch"]
        for r in spans:
            assert {"dur", "op", "emitted", "max_rows", "produced"} <= set(r)
            assert r["produced"] <= r["max_rows"]
        # The root and the heap child (the NLJ's filtered outer) are
        # pulled by batch, the stream child (the inner scan) one row per
        # call; the scan fused under the filter receives a call only
        # while the filter steps row by row (an open contract to migrate).
        assert {r["op_name"] for r in spans} >= {"nlj", "filter", "scan_T"}
        assert {r["max_rows"] for r in spans if r["op_name"] == "scan_T"} == {1}
        assert {r["max_rows"] for r in spans if r["op_name"] == "scan_R"} <= {1}

    def test_no_next_spans_by_default(self, cycle):
        tracer, _ = cycle
        assert not {"op.next_batch", "op.stats"} & types_of(tracer)

    def test_batches_recorded_when_rows_cross_a_multiple_of_n(self):
        # N = 1 records every batch that is an operator's first or
        # produced a row; any other N records the subset the rule picks.
        every = Tracer(next_sample_every=1)
        traced_cycle(every)
        assert len(batches_of(every)) > 10
        for n in (8, 300, 1_000_000):
            tracer = Tracer(next_sample_every=n)
            traced_cycle(tracer)
            assert batches_of(tracer) == [
                (name, emitted, produced)
                for name, emitted, produced in batches_of(every)
                if emitted == 0 or (emitted + produced) // n > emitted // n
            ]
        assert all(emitted == 0 for _, emitted, _ in batches_of(tracer))

    def test_op_stats_account_for_every_event(self):
        tracer = Tracer(next_sample_every=64)
        db, plan = build_nlj_s(0.5, scale=200)
        session = QuerySession(db, plan, name="nlj", tracer=tracer)
        for max_rows in (1, 700, 2000, None):
            session.execute(max_rows=max_rows)
        stats = [r for r in tracer.records if r["type"] == "op.stats"]
        fields = ("rows", "pages_read", "pages_written", "cpu_tuples", "work")
        totals = {}
        for r in stats:
            acc = totals.setdefault(r["op"], dict.fromkeys(fields, 0))
            for f in fields:
                acc[f] += r[f]
        # Per operator the per-execute deltas sum to its final counters ...
        ops = session.runtime.ops
        assert sorted(totals) == sorted(ops)
        for op_id, op in ops.items():
            got = totals[op_id]
            assert got["rows"] == op.tuples_emitted
            assert got["pages_read"] == op.tally.pages_read
            assert got["pages_written"] == op.tally.pages_written
            assert got["cpu_tuples"] == op.tally.cpu_tuples
            assert got["work"] == pytest.approx(op.work, abs=1e-5)
        # ... and across operators to what the query's lane counted.
        lane = session.runtime.lane.counters
        for f in ("pages_read", "pages_written", "cpu_tuples"):
            assert sum(t[f] for t in totals.values()) == getattr(lane, f)
        # Within one execute() the records come in op_id order.
        first = [r["op"] for r in stats if r["ts"] == stats[0]["ts"]]
        assert first == sorted(first)


class TestCurrentTracerPickup:
    def test_runtime_uses_process_default(self):
        tracer = Tracer()
        with use_tracer(tracer):
            db, plan = build_nlj_s(0.5, scale=200)
            session = QuerySession(db, plan, name="nlj")
            session.execute(max_rows=5)
        assert "checkpoint.taken" in types_of(tracer)


class TestSchedulerWiring:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        workload = mixed_priority_trace(scale=4, seed=1)
        tracer = Tracer()
        config = SchedulerConfig(
            policy="suspend-resume",
            memory_budget=workload.memory_budget,
            suspend=SuspendSpec(
                budget=workload.suspend_budget,
                persist_to=str(tmp_path_factory.mktemp("images")),
            ),
            tracer=tracer,
        )
        scheduler = QueryScheduler(workload.db_factory(), config)
        scheduler.submit_trace(workload.trace)
        stats = scheduler.run()
        return tracer, stats

    def test_scheduler_events_present(self, traced_run):
        tracer, _ = traced_run
        assert {
            "sched.admit",
            "sched.start",
            "sched.quantum",
            "sched.pressure",
            "sched.suspend",
            "sched.resume",
            "sched.complete",
            "image.commit",
            "image.commit_step",
        } <= types_of(tracer)

    def test_pressure_decision_names_victims(self, traced_run):
        tracer, _ = traced_run
        pressures = [
            r for r in tracer.records if r["type"] == "sched.pressure"
        ]
        assert pressures
        for r in pressures:
            assert r["action"] == "suspend"
            assert r["query"] == "q_hi"
            assert r["victims"] == ["q_lo"]
            assert r["excess"] > 0

    def test_quanta_cross_reference_queries(self, traced_run):
        tracer, stats = traced_run
        quanta = [r for r in tracer.records if r["type"] == "sched.quantum"]
        assert {r["query"] for r in quanta} == set(stats.per_query)
        total_rows = sum(r["rows"] for r in quanta)
        assert total_rows >= sum(
            q.rows_emitted for q in stats.per_query.values()
        )

    def test_stats_and_tracer_share_one_registry(self, traced_run):
        tracer, stats = traced_run
        assert stats.durable_spills == tracer.metrics.total(
            "query_durable_spills_total"
        )
        assert stats.suspends == tracer.metrics.total("query_suspends_total")
        assert stats.durable_spills == len(
            [r for r in tracer.records if r["type"] == "image.commit"]
        )
