"""The shipped suspend-plan solver is a tree DP
(:func:`repro.core.optimizer.optimal_plan`): it must pick what the
HiGHS program and brute force pick (``tests/oracles.py``), and do it
faster than HiGHS."""

import time

import pytest

from repro import QuerySession, SuspendSpec
from repro.core.costs import build_cost_model
from repro.core.optimizer import (
    choose_suspend_plan,
    estimate_plan_cost,
    optimal_plan,
)
from repro.core.strategies import validate_suspend_plan
from repro.workloads import build_nlj_chain

from tests.conftest import make_small_db, tiny_nlj_plan, tiny_smj_plan
from tests.oracles import exhaustive_best_plan, mip_plan


def session_at(plan, point):
    db = make_small_db()
    session = QuerySession(db, plan)
    session.execute(max_rows=point)
    return session


class TestDPOptimizer:
    @pytest.mark.parametrize("point", [1, 30, 150])
    @pytest.mark.parametrize("plan_fn", [tiny_nlj_plan, tiny_smj_plan])
    def test_dp_matches_exhaustive_and_lp(self, plan_fn, point):
        session = session_at(plan_fn(), point)
        if session.status.value == "completed":
            return
        model = build_cost_model(session.runtime)
        dp = optimal_plan(model)
        ex = estimate_plan_cost(exhaustive_best_plan(model), model)
        assert estimate_plan_cost(dp, model).total == pytest.approx(ex.total)
        assert dp.decisions == mip_plan(model).decisions

    def test_dp_plan_is_valid(self):
        session = session_at(tiny_smj_plan(), 40)
        model = build_cost_model(session.runtime)
        plan = optimal_plan(model)
        validate_suspend_plan(plan, model.topology())
        assert plan.source == "lp"

    def test_dp_strategy_via_lifecycle(self):
        db = make_small_db()
        plan = tiny_nlj_plan()
        ref = QuerySession(make_small_db(), plan).execute().rows
        session = QuerySession(db, plan)
        first = session.execute(max_rows=25)
        sq = session.suspend(SuspendSpec(strategy="lp", budget=15.0))
        resumed = QuerySession.resume(db, sq)
        assert first.rows + resumed.execute().rows == ref

    def test_dp_honours_a_finite_budget(self):
        session = session_at(tiny_nlj_plan(), 40)
        plan = choose_suspend_plan(session.runtime, strategy="lp", budget=5.0)
        model = build_cost_model(session.runtime)
        assert estimate_plan_cost(plan, model).suspend <= 5.0 + 1e-9
        assert plan.decisions == mip_plan(model, budget=5.0).decisions

    def test_dp_much_faster_than_mip_on_large_chains(self):
        db, chain = build_nlj_chain(61)
        session = QuerySession(db, chain)
        session.execute(max_rows=2)
        model = build_cost_model(session.runtime)

        start = time.perf_counter()
        dp = optimal_plan(model)
        dp_time = time.perf_counter() - start

        start = time.perf_counter()
        lp = mip_plan(model)
        lp_time = time.perf_counter() - start

        assert estimate_plan_cost(dp, model).total == pytest.approx(
            estimate_plan_cost(lp, model).total, rel=1e-9
        )
        assert dp_time < lp_time
