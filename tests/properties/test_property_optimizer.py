"""Properties of the suspend-plan optimizer.

The MIP solution must always equal the exhaustive optimum, satisfy the
validity rules, and respect the budget — for random runtime states.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QuerySession
from repro.common.errors import SuspendBudgetInfeasibleError
from repro.core.costs import build_cost_model
from repro.core.optimizer import (
    build_lp_plan,
    estimate_plan_cost,
    exhaustive_best_plan,
)
from repro.core.strategies import validate_suspend_plan

from tests.properties.plans import build_db, build_plan

FAST = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FAST
@given(
    kind=st.sampled_from(["nlj", "smj", "nlj_over_sort"]),
    seed=st.integers(0, 10_000),
    selectivity=st.floats(0.1, 1.0),
    point=st.integers(1, 250),
    budget=st.one_of(st.just(math.inf), st.floats(0.1, 80.0)),
)
def test_lp_equals_exhaustive_optimum(kind, seed, selectivity, point, budget):
    plan = build_plan(kind, selectivity, 20, 15)
    db = build_db(110, 60, seed)
    session = QuerySession(db, plan)
    session.execute(max_rows=point)
    if session.status.value == "completed":
        return
    model = build_cost_model(session.runtime)
    try:
        lp = build_lp_plan(model, budget=budget)
        lp_cost = estimate_plan_cost(lp, model)
    except SuspendBudgetInfeasibleError:
        lp = lp_cost = None
    try:
        ex = exhaustive_best_plan(model, budget=budget)
        ex_cost = estimate_plan_cost(ex, model)
    except SuspendBudgetInfeasibleError:
        ex = ex_cost = None

    assert (lp is None) == (ex is None)
    if lp is None:
        return
    validate_suspend_plan(lp, model.topology())
    assert lp_cost.total <= ex_cost.total + 1e-6
    assert lp_cost.total >= ex_cost.total - 1e-6
    if budget != math.inf:
        assert lp_cost.suspend <= budget + 1e-6


@FAST
@given(
    seed=st.integers(0, 10_000),
    point=st.integers(1, 200),
)
def test_estimated_costs_are_nonnegative(seed, point):
    plan = build_plan("smj", 0.5, 25, 10)
    db = build_db(120, 70, seed)
    session = QuerySession(db, plan)
    session.execute(max_rows=point)
    if session.status.value == "completed":
        return
    model = build_cost_model(session.runtime)
    assert all(v >= 0 for v in model.d_s.values())
    assert all(v >= 0 for v in model.d_r.values())
    assert all(v >= 0 for v in model.g_s.values())
    assert all(v >= 0 for v in model.g_r.values())
