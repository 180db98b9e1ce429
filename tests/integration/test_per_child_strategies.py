"""Section 3.4's generalized suspend plans: per-child strategies.

A merge join may "choose GoBack w.r.t. its left child and DumpState
w.r.t. its right child". These tests force such mixed decisions and
check both correctness (output equivalence) and the economics (dumping
the big-packet side beats regenerating it when the other side's redo is
cheap).
"""

import pytest

from repro import Database, QuerySession, SuspendSpec, SuspendTrigger
from repro.common.errors import InvalidSuspendPlanError
from repro.core.strategies import OpDecision, SuspendPlan
from repro.engine.plan import FilterSpec, MergeJoinSpec, ScanSpec, SortSpec
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import EquiJoinCondition, UniformSelect


def skewed_packet_db():
    """Left side: selective filter (expensive redo). Right side: heavy
    duplicates (large value packets, cheap to dump)."""
    db = Database()
    db.create_table("L", BASE_SCHEMA, generate_uniform_table(400, seed=1))
    right_rows = [
        (key, i / 100, i) for key in range(30) for i in range(12)
    ]
    db.create_table("Rt", BASE_SCHEMA, right_rows)
    return db


def packet_plan():
    return MergeJoinSpec(
        left=SortSpec(
            FilterSpec(ScanSpec("L"), UniformSelect(1, 0.2), label="f"),
            key_columns=(0,),
            buffer_tuples=60,
            label="sort_L",
        ),
        right=SortSpec(
            ScanSpec("Rt"), key_columns=(0,), buffer_tuples=80, label="sort_R"
        ),
        condition=EquiJoinCondition(0, 0),
        label="mj",
    )


def mixed_plan(session, dump_side):
    ids = {op.name: op.op_id for op in session.runtime.ops.values()}
    dump_child = ids["sort_R"] if dump_side == "right" else ids["sort_L"]
    keep_chain = ids["sort_L"] if dump_side == "right" else ids["sort_R"]
    decisions = {
        ids["mj"]: OpDecision.goback(ids["mj"], dump_children=(dump_child,)),
        dump_child: OpDecision.dump(),
        keep_chain: OpDecision.goback(ids["mj"]),
    }
    # Fill remaining operators: everything under the chained sort goes
    # back; everything under the dumped sort dumps.
    def fill(op, decision):
        for child in op.children:
            decisions.setdefault(
                child.op_id,
                decision,
            )
            fill(child, decision)

    fill(
        session.runtime.op(keep_chain), OpDecision.goback(ids["mj"])
    )
    fill(session.runtime.op(dump_child), OpDecision.dump())
    return SuspendPlan(decisions=decisions, source="mixed")


class TestPerChildCorrectness:
    @pytest.mark.parametrize("dump_side", ["left", "right"])
    @pytest.mark.parametrize("point", [3, 25, 70])
    def test_mixed_plan_preserves_output(self, dump_side, point):
        plan = packet_plan()
        ref = QuerySession(skewed_packet_db(), plan).execute().rows
        db = skewed_packet_db()
        session = QuerySession(db, plan)
        first = session.execute(max_rows=point)
        if session.status.value == "completed":
            return
        sp = mixed_plan(session, dump_side)
        sq = session.suspend(SuspendSpec(plan=sp))
        resumed = QuerySession.resume(db, sq)
        assert first.rows + resumed.execute().rows == ref

    def test_dumped_side_child_keeps_position(self):
        """The dumped side's child suspends at its current position (no
        contract-point rewind)."""
        db = skewed_packet_db()
        session = QuerySession(db, packet_plan())
        session.execute(max_rows=25)
        sort_r = session.op_named("sort_R")
        pos_now = sort_r.control_state()
        sp = mixed_plan(session, "right")
        sq = session.suspend(SuspendSpec(plan=sp))
        entry = sq.entries[sort_r.op_id]
        assert entry.kind == "dump"
        assert entry.target_control == pos_now

    def test_dump_children_must_be_children(self):
        db = skewed_packet_db()
        session = QuerySession(db, packet_plan())
        session.execute(max_rows=5)
        ids = {op.name: op.op_id for op in session.runtime.ops.values()}
        bogus = SuspendPlan(
            decisions={
                op_id: OpDecision.dump() for op_id in ids.values()
            }
        )
        bogus.decisions[ids["mj"]] = OpDecision.goback(
            ids["mj"], dump_children=(ids["f"],)  # grandchild, invalid
        )
        with pytest.raises(InvalidSuspendPlanError):
            session.suspend(SuspendSpec(plan=bogus))


class TestPerChildEconomics:
    def test_mixed_beats_pure_goback_on_skewed_packets(self):
        """Dumping the duplicate-heavy right packet while regenerating
        the cheap left side costs less total overhead than regenerating
        both sides."""
        from repro.harness.experiments import measure_suspend_overhead

        factory = lambda: (skewed_packet_db(), packet_plan())
        trigger = SuspendTrigger("mj", "emitted", 25)

        goback = measure_suspend_overhead(factory, trigger, "all_goback")

        db = skewed_packet_db()
        session = QuerySession(db, packet_plan())
        session.execute(suspend_when=trigger)
        sp = mixed_plan(session, "right")
        # Measure the mixed plan through the same milestone protocol.
        from repro.harness.experiments import run_reference_to_milestone

        db2 = skewed_packet_db()
        ref_cost, _ = run_reference_to_milestone(
            db2, packet_plan(), trigger
        )
        db3 = skewed_packet_db()
        session3 = QuerySession(db3, packet_plan())
        start = db3.now
        session3.execute(suspend_when=trigger)
        sp3 = mixed_plan(session3, "right")
        sq = session3.suspend(SuspendSpec(plan=sp3))
        resumed = QuerySession.resume(db3, sq)
        resumed.execute(max_rows=1)
        mixed_overhead = (db3.now - start) - ref_cost

        # The mixed plan must not lose to pure GoBack: it dumps the big
        # right packet instead of re-merging it from the right sort.
        assert mixed_overhead <= goback.total_overhead + 1.0
