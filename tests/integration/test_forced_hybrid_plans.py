"""Directed tests of hand-built hybrid suspend plans.

The optimizer usually picks these combinations itself; here they are
*forced* via ``suspend(plan=...)`` so every branch of the protocol —
especially DumpState answering ``Suspend(Ctr)`` (the dump-to-contract
reconciliation) — is exercised deterministically.
"""

import pytest

from repro import QuerySession, SuspendSpec
from repro.common.errors import InvalidSuspendPlanError
from repro.core.costs import build_cost_model
from repro.core.strategies import OpDecision, Strategy, SuspendPlan
from repro.core.suspended_query import KIND_DUMP_TO_CONTRACT

from tests.conftest import (
    make_small_db,
    reference_rows,
    suspend_resume_rows,
    tiny_nlj_plan,
    tiny_smj_plan,
)
from tests.oracles import enumerate_valid_plans


def forced_plan(session, **name_decisions):
    """Build a SuspendPlan from operator-name -> decision mappings."""
    by_name = {op.name: op.op_id for op in session.runtime.ops.values()}
    decisions = {}
    for name, decision in name_decisions.items():
        if isinstance(decision, str) and decision == "dump":
            decisions[by_name[name]] = OpDecision.dump()
        else:
            decisions[by_name[name]] = OpDecision.goback(by_name[decision])
    return SuspendPlan(decisions=decisions, source="forced")


class TestNLJDumpUnderContract:
    """Parent NLJ goes back; the child stack dumps under its contract."""

    def run_forced(self, point, **name_decisions):
        plan = tiny_nlj_plan(selectivity=0.8, buffer_tuples=40)
        ref = reference_rows(make_small_db, plan)
        db = make_small_db()
        session = QuerySession(db, plan)
        first = session.execute(max_rows=point)
        if session.status.value == "completed":
            return None
        sp = forced_plan(session, **name_decisions)
        sq = session.suspend(SuspendSpec(plan=sp))
        resumed = QuerySession.resume(db, sq)
        return (first.rows + resumed.execute().rows, ref, sq)

    def test_parent_goback_children_dump(self):
        """NLJ goes back to itself; filter/scan dump at current position
        (allowed: the fresh suspend-time contract owes no output)."""
        result = self.run_forced(
            30,
            nlj="nlj",
            filter="nlj",
            scan_R="nlj",
            scan_S="dump",
        )
        assert result is not None
        got, ref, _ = result
        assert got == ref

    def test_deep_chain_with_mid_dump(self):
        """Two NLJs: top goes back, bottom dumps under the chain —
        the KIND_DUMP_TO_CONTRACT path."""
        from repro.engine.plan import FilterSpec, NLJSpec, ScanSpec
        from repro.relational.expressions import (
            EquiJoinCondition,
            UniformSelect,
        )

        plan = NLJSpec(
            outer=NLJSpec(
                outer=FilterSpec(
                    ScanSpec("R", label="scan_R"),
                    UniformSelect(1, 0.8),
                    label="filter",
                ),
                inner=ScanSpec("S", label="scan_S1"),
                condition=EquiJoinCondition(0, 0, modulus=40),
                buffer_tuples=60,
                label="nlj_low",
            ),
            inner=ScanSpec("S", label="scan_S2"),
            condition=EquiJoinCondition(3, 0, modulus=25),
            buffer_tuples=30,
            label="nlj_top",
        )
        ref = reference_rows(make_small_db, plan)
        hybrid_seen = False
        for point in (1, 9, 60, 200):
            db = make_small_db()
            session = QuerySession(db, plan)
            first = session.execute(max_rows=point)
            if session.status.value == "completed":
                continue
            sp = forced_plan(
                session,
                nlj_top="nlj_top",
                nlj_low="dump",
                filter="dump",
                scan_R="dump",
                scan_S1="dump",
                scan_S2="dump",
            )
            try:
                sq = session.suspend(SuspendSpec(plan=sp))
            except InvalidSuspendPlanError:
                continue  # c_{i,j} forbids the dump at this point
            kinds = {e.kind for e in sq.entries.values()}
            if KIND_DUMP_TO_CONTRACT in kinds:
                hybrid_seen = True
            resumed = QuerySession.resume(db, sq)
            assert first.rows + resumed.execute().rows == ref, f"@{point}"
        assert hybrid_seen, "expected at least one dump-under-contract"


class TestExhaustiveForcedPlans:
    """Every valid plan at a tricky suspend point preserves output."""

    @pytest.mark.parametrize("point", [17, 90])
    def test_all_valid_plans_for_smj(self, point):
        plan = tiny_smj_plan()
        ref = reference_rows(make_small_db, plan)
        db = make_small_db()
        probe = QuerySession(db, plan)
        probe.execute(max_rows=point)
        if probe.status.value == "completed":
            return
        model = build_cost_model(probe.runtime)
        all_plans = list(enumerate_valid_plans(model))
        assert len(all_plans) >= 3
        for sp in all_plans:
            db2 = make_small_db()
            session = QuerySession(db2, plan)
            first = session.execute(max_rows=point)
            sq = session.suspend(SuspendSpec(plan=sp))
            resumed = QuerySession.resume(db2, sq)
            got = first.rows + resumed.execute().rows
            assert got == ref, f"plan {sp.decisions}"
