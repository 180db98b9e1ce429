"""The paper's worked examples (Sections 1, 3) replayed on the engine.

Examples 1-8 walk the running R |x| S |x| T plan (Figure 1) through
checkpointing, contracting, suspending, and resuming. These tests build
that exact plan and assert the behaviours the paper narrates.
"""

import pytest

from repro import Database, QuerySession, SuspendSpec, SuspendTrigger
from repro.core.strategies import OpDecision, SuspendPlan
from repro.core.suspended_query import KIND_DUMP, KIND_GOBACK
from repro.engine.plan import NLJSpec, ScanSpec
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import EquiJoinCondition


def running_example_db():
    """Figure 1: R |x| S |x| T with two block NLJs over table scans."""
    db = Database()
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(400, seed=1))
    db.create_table("S", BASE_SCHEMA, generate_uniform_table(120, seed=2))
    db.create_table("T", BASE_SCHEMA, generate_uniform_table(120, seed=3))
    return db


def running_example_plan(outer_buffer=150, inner_buffer=100):
    return NLJSpec(
        outer=NLJSpec(
            outer=ScanSpec("R", label="scan_R"),
            inner=ScanSpec("S", label="scan_S"),
            condition=EquiJoinCondition(0, 0, modulus=20),
            buffer_tuples=inner_buffer,
            label="nlj1",
        ),
        inner=ScanSpec("T", label="scan_T"),
        condition=EquiJoinCondition(0, 0, modulus=20),
        buffer_tuples=outer_buffer,
        label="nlj0",
    )


def session_at_t5():
    """Run to the paper's t5: NLJ0 mid-fill, NLJ1 past its checkpoint."""
    db = running_example_db()
    session = QuerySession(db, running_example_plan())
    session.execute(suspend_when=SuspendTrigger("nlj0", "fill", 60))
    assert session.op_named("nlj1").tuples_emitted > 0
    assert session.status.value == "suspend_pending"
    return db, session


class TestExample2MinimalHeapStatePoints:
    def test_nlj_heap_state_is_zero_at_checkpoints(self):
        """Checkpoints happen exactly when the outer buffer empties."""
        db = running_example_db()
        session = QuerySession(db, running_example_plan())
        nlj1 = session.op_named("nlj1")
        observed = []
        original = nlj1.make_checkpoint

        def spying_checkpoint():
            observed.append(nlj1.heap_tuples())
            return original()

        nlj1.make_checkpoint = spying_checkpoint
        session.execute(collect=False)
        assert observed, "NLJ1 should have checkpointed at pass boundaries"
        assert all(h == 0 for h in observed)

    def test_minimal_points_do_not_coincide(self):
        """The two NLJs checkpoint asynchronously: on their own cadences,
        at moments that generally differ (Example 2)."""
        db = running_example_db()
        # A buffer size that does not divide the child's per-pass output,
        # so the two operators' pass boundaries interleave.
        session = QuerySession(db, running_example_plan(outer_buffer=140))
        times = {"nlj0": [], "nlj1": []}
        for name in times:
            op = session.op_named(name)
            original = op.make_checkpoint

            def spy(op=op, name=name, original=original):
                times[name].append(op.rt.disk.now)
                return original()

            op.make_checkpoint = spy
        session.execute(collect=False)
        assert times["nlj0"] and times["nlj1"]
        # The operators checkpoint on their own cadences: different
        # counts, and moments that are not subsets of one another.
        assert len(times["nlj1"]) != len(times["nlj0"])
        assert set(times["nlj1"]) - set(times["nlj0"])
        assert set(times["nlj0"]) - set(times["nlj1"])


class TestExample4CheckpointingAndContracting:
    def test_checkpoint_signs_contracts_with_children(self):
        """NLJ0's checkpoint at its minimal-heap-state point carries
        contracts with both children; NLJ1's contract maps to NLJ1's own
        latest proactive checkpoint."""
        db, session = session_at_t5()
        graph = session.runtime.graph
        nlj0 = session.op_named("nlj0")
        nlj1 = session.op_named("nlj1")
        ck0 = graph.latest_checkpoint(nlj0.op_id)
        ctr = graph.contract_from(ck0, nlj1.op_id)
        assert ctr.child_ckpt_id == graph.latest_checkpoint(nlj1.op_id).ckpt_id

    def test_nested_contract_covers_inner_scan(self):
        """Signing NLJ1's contract captured Scan_S's position (the inner
        stream child) via a nested contract."""
        db, session = session_at_t5()
        graph = session.runtime.graph
        nlj0 = session.op_named("nlj0")
        nlj1 = session.op_named("nlj1")
        scan_s = session.op_named("scan_S")
        ck0 = graph.latest_checkpoint(nlj0.op_id)
        ctr = graph.contract_from(ck0, nlj1.op_id)
        assert scan_s.op_id in ctr.nested
        nested = ctr.nested[scan_s.op_id]
        assert "page_no" in nested.control


class TestExamples5And6SuspendPlans:
    def op_ids(self, session):
        return {op.name: op.op_id for op in session.runtime.ops.values()}

    def test_example5_hybrid_dump_then_goback(self):
        """NLJ0 dumps, NLJ1 goes back: NLJ0's entry carries its buffer on
        disk; NLJ1's entry is control state only; Scan_R's entry records
        the contract position (earlier than its current position)."""
        db, session = session_at_t5()
        ids = self.op_ids(session)
        scan_r_now = session.op_named("scan_R").control_state()
        plan = SuspendPlan(
            decisions={
                ids["nlj0"]: OpDecision.dump(),
                ids["nlj1"]: OpDecision.goback(ids["nlj1"]),
                ids["scan_R"]: OpDecision.goback(ids["nlj1"]),
                ids["scan_S"]: OpDecision.goback(ids["nlj1"]),
                ids["scan_T"]: OpDecision.dump(),
            }
        )
        sq = session.suspend(SuspendSpec(plan=plan))
        assert sq.entries[ids["nlj0"]].kind == KIND_DUMP
        assert sq.entries[ids["nlj0"]].dump_handle is not None
        assert sq.entries[ids["nlj1"]].kind == KIND_GOBACK
        assert sq.entries[ids["nlj1"]].dump_handle is None
        # Scan_R is told to regenerate from the contract point, which
        # precedes (or equals) its position at the suspend instant.
        target = sq.entries[ids["scan_R"]].target_control
        assert (target["page_no"], target["slot"]) <= (
            scan_r_now["page_no"],
            scan_r_now["slot"],
        )

    def test_example6_all_goback_chain(self):
        """Both NLJs go back: every entry is control-state only and
        Scan_R resumes from NLJ1's fulfilling-checkpoint contract."""
        db, session = session_at_t5()
        ids = self.op_ids(session)
        plan = SuspendPlan(
            decisions={
                ids["nlj0"]: OpDecision.goback(ids["nlj0"]),
                ids["nlj1"]: OpDecision.goback(ids["nlj0"]),
                ids["scan_R"]: OpDecision.goback(ids["nlj0"]),
                ids["scan_S"]: OpDecision.goback(ids["nlj0"]),
                ids["scan_T"]: OpDecision.goback(ids["nlj0"]),
            }
        )
        sq = session.suspend(SuspendSpec(plan=plan))
        assert all(e.dump_handle is None for e in sq.entries.values())
        assert sq.entries[ids["nlj0"]].kind == KIND_GOBACK
        assert sq.entries[ids["nlj1"]].kind == KIND_GOBACK


class TestExample7ResumeInAction:
    @pytest.mark.parametrize("strategy", ["all_dump", "all_goback", "lp"])
    def test_resume_produces_tuple_after_suspend_point(self, strategy):
        """The resumed plan's first tuple is precisely the one after the
        last produced before suspension."""
        ref = QuerySession(
            running_example_db(), running_example_plan()
        ).execute().rows
        db, session = session_at_t5()
        produced = list(session.rows)
        sq = session.suspend(SuspendSpec(strategy=strategy))
        resumed = QuerySession.resume(db, sq)
        nxt = resumed.execute(max_rows=1).rows
        assert produced + nxt == ref[: len(produced) + 1]


class TestExample8ContractGraphEvolution:
    def test_left_deep_four_nlj_graph_stays_bounded(self):
        """The Figure 5 scenario: four NLJs in a chain create and prune
        checkpoints as execution proceeds; the live graph never exceeds
        the Theorem 1 bound and old checkpoints are deleted."""
        db = Database()
        sizes = {"T0": 300, "T1": 60, "T2": 50, "T3": 40}
        for name, n in sizes.items():
            db.create_table(
                name, BASE_SCHEMA, generate_uniform_table(n, seed=hash(name) % 97)
            )
        plan = ScanSpec("T0", label="scan_T0")
        for level, buf in enumerate((40, 60, 90)):
            plan = NLJSpec(
                outer=plan,
                inner=ScanSpec(f"T{level + 1}", label=f"scan_T{level + 1}"),
                condition=EquiJoinCondition(0, 0, modulus=10),
                buffer_tuples=buf,
                label=f"P{2 - level}",
            )
        session = QuerySession(db, plan)
        session.execute(collect=False)  # invariants asserted throughout
        graph = session.runtime.graph
        height = session.runtime.plan_height()
        graph.check_theorem1_bound(len(session.runtime.ops), height)
        # Old checkpoints were pruned: each NLJ retains only its active set.
        for name in ("P0", "P1", "P2"):
            op = session.op_named(name)
            live = len(graph.checkpoints_of(op.op_id))
            latest = graph.latest_checkpoint(op.op_id)
            assert live <= height + 1
            assert latest.seq > live  # more were created than survive
