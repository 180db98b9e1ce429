"""Unit tests for the offline/static optimizer baseline (Figure 12)."""

import pytest

from repro import QuerySession, SuspendTrigger
from repro.core.static_optimizer import choose_static_plan
from repro.core.strategies import Strategy
from repro.workloads import build_nlj_s, build_skewed_nlj_s


def plan_kind(plan):
    kinds = {d.strategy for d in plan.decisions.values()}
    if kinds == {Strategy.DUMP}:
        return "all_dump"
    return "mostly_goback" if Strategy.GOBACK in kinds else "all_dump"


class TestStaticOptimizer:
    def test_low_table_selectivity_chooses_dump(self):
        db, plan = build_nlj_s(selectivity=0.05, scale=400)
        session = QuerySession(db, plan)
        session.execute(max_rows=1)
        chosen = choose_static_plan(session.runtime)
        assert plan_kind(chosen) == "all_dump"
        assert chosen.source == "static"

    def test_high_table_selectivity_chooses_goback(self):
        db, plan = build_nlj_s(selectivity=0.9, scale=400)
        session = QuerySession(db, plan)
        session.execute(max_rows=1)
        chosen = choose_static_plan(session.runtime)
        assert plan_kind(chosen) == "mostly_goback"

    def test_skewed_table_fools_static_optimizer(self):
        """The Figure 12 core claim: table-level effective selectivity
        (~0.37) exceeds the crossover, so the static optimizer picks
        all-GoBack regardless of which region execution is in."""
        db, plan = build_skewed_nlj_s(scale=400)
        session = QuerySession(db, plan)
        # Execution is inside the low-selectivity (0.1) prefix, where
        # all-DumpState would be the right call.
        session.execute(
            suspend_when=SuspendTrigger("scan_R", "position", 1000)
        )
        chosen = choose_static_plan(session.runtime)
        assert plan_kind(chosen) == "mostly_goback"

    def test_static_choice_is_suspend_point_independent(self):
        db, plan = build_skewed_nlj_s(scale=400)
        kinds = set()
        for point in (500, 2000, 5000):
            db2, plan2 = build_skewed_nlj_s(scale=400)
            session = QuerySession(db2, plan2)
            session.execute(
                suspend_when=SuspendTrigger("scan_R", "position", point)
            )
            kinds.add(plan_kind(choose_static_plan(session.runtime)))
        assert len(kinds) == 1
