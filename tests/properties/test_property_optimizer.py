"""Properties of the suspend-plan optimizer.

The shipped solver (:func:`~repro.core.optimizer.optimal_plan`) must reach
the optimum the HiGHS program and brute-force enumeration reach
(``tests/oracles.py``), under finite budgets down to infeasible ones, with
a valid plan within the budget; and every frontier it keeps must be
strictly non-dominated — for random runtime states.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QuerySession
from repro.common.errors import SuspendBudgetInfeasibleError
from repro.core.costs import build_cost_model
from repro.core.optimizer import (
    COST_TOL,
    estimate_plan_cost,
    optimal_plan,
    plan_frontiers,
)
from repro.core.strategies import validate_suspend_plan

from tests.oracles import exhaustive_best_plan, mip_plan
from tests.properties.plans import build_db, build_plan, cases

FAST = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
#: Budgets as fractions of the unbudgeted optimum's suspend cost.
FRACTIONS = st.sampled_from([None, 1.0, 0.9, 0.7, 0.5, 0.3, 0.0])


def model_at(case_or_kind, seed, selectivity, point):
    if isinstance(case_or_kind, str):
        db = build_db(110, 60, seed)
        plan = build_plan(case_or_kind, selectivity, 20, 15)
    else:
        db, plan = case_or_kind.db(), case_or_kind.plan
    session = QuerySession(db, plan)
    session.execute(max_rows=point)
    if session.status.value == "completed":
        return None
    return build_cost_model(session.runtime)


def budget_of(model, fraction, drawn):
    if fraction is None:
        return drawn
    free = estimate_plan_cost(optimal_plan(model), model).suspend
    return free * fraction


def optimum(solver, model, budget):
    """``solver``'s plan cost, or None when no plan fits ``budget``."""
    try:
        plan = solver(model, budget=budget)
    except SuspendBudgetInfeasibleError:
        return None
    validate_suspend_plan(plan, model.topology())
    return estimate_plan_cost(plan, model)


def check_solvers_agree(model, budget):
    shipped, highs, brute = (
        optimum(solver, model, budget)
        for solver in (optimal_plan, mip_plan, exhaustive_best_plan)
    )
    assert (shipped is None) == (highs is None) == (brute is None)
    if shipped is None:
        return
    assert abs(shipped.total - brute.total) <= 1e-6
    assert abs(shipped.total - highs.total) <= 1e-6
    assert shipped.suspend <= budget + 1e-6


@FAST
@given(
    kind=st.sampled_from(["nlj", "smj", "nlj_over_sort"]),
    seed=st.integers(0, 10_000),
    selectivity=st.floats(0.1, 1.0),
    point=st.integers(1, 250),
    fraction=FRACTIONS,
    drawn=st.one_of(st.just(math.inf), st.floats(0.1, 80.0)),
)
def test_lp_equals_exhaustive_optimum(
    kind, seed, selectivity, point, fraction, drawn
):
    model = model_at(kind, seed, selectivity, point)
    if model is not None:
        check_solvers_agree(model, budget_of(model, fraction, drawn))


@FAST
@given(
    case=cases(),
    point=st.integers(1, 150),
    fraction=FRACTIONS,
    drawn=st.one_of(st.just(math.inf), st.floats(0.0, 50.0)),
)
def test_shipped_solver_equals_both_oracles_on_generated_plans(
    case, point, fraction, drawn
):
    model = model_at(case, 0, 0, point)
    if model is None:
        return
    budget = budget_of(model, fraction, drawn)
    check_solvers_agree(model, budget)
    for frontier in plan_frontiers(model, budget).values():
        assert all(p[0] <= budget + COST_TOL for p in frontier)
        for a in frontier:
            for b in frontier:
                if a is not b:
                    assert not (
                        a[0] <= b[0] + COST_TOL and a[1] <= b[1] + COST_TOL
                    )


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
