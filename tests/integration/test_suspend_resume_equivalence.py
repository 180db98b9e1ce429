"""Integration: output equivalence across operators, strategies, points.

The fundamental invariant of the whole system: for any plan, any suspend
point, and any valid suspend plan, the concatenation of pre-suspend and
post-resume output equals the uninterrupted run's output, tuple for
tuple, in order. These are fixed plans and fixed schedules run through
the in-place mode of the differential harness
(``tests/properties/test_differential.py``).
"""

import pytest

from repro import QuerySession
from repro.core.costs import build_cost_model
from repro.core.optimizer import optimal_plan
from repro.engine.plan import (
    DupElimSpec,
    FilterSpec,
    GroupAggSpec,
    HybridHashJoinSpec,
    IndexNLJSpec,
    MergeJoinSpec,
    NLJSpec,
    ProjectSpec,
    ScanSpec,
    SimpleHashJoinSpec,
    SortSpec,
)
from repro.relational.expressions import EquiJoinCondition, UniformSelect

from tests.oracles import mip_plan
from tests.properties.plans import Case
from tests.properties.test_differential import (
    Schedule,
    check_in_place,
    reference,
)

COND = EquiJoinCondition(0, 0, modulus=40)

PLANS = {
    "nlj": NLJSpec(
        outer=FilterSpec(ScanSpec("R"), UniformSelect(1, 0.5)),
        inner=ScanSpec("S"),
        condition=COND,
        buffer_tuples=40,
    ),
    "smj": MergeJoinSpec(
        left=SortSpec(
            FilterSpec(ScanSpec("R"), UniformSelect(1, 0.6)),
            key_columns=(0,),
            buffer_tuples=50,
        ),
        right=SortSpec(ScanSpec("S"), key_columns=(0,), buffer_tuples=60),
        condition=EquiJoinCondition(0, 0),
    ),
    "shj": SimpleHashJoinSpec(
        build=FilterSpec(ScanSpec("R"), UniformSelect(1, 0.5)),
        probe=ScanSpec("S"),
        condition=COND,
        num_partitions=4,
    ),
    "hhj": HybridHashJoinSpec(
        build=FilterSpec(ScanSpec("R"), UniformSelect(1, 0.5)),
        probe=ScanSpec("S"),
        condition=COND,
        num_partitions=4,
        memory_partitions=2,
    ),
    "inlj": IndexNLJSpec(
        outer=FilterSpec(ScanSpec("R"), UniformSelect(1, 0.5)),
        index="S_key",
        outer_key_column=0,
    ),
    "agg": GroupAggSpec(
        child=SortSpec(
            FilterSpec(ScanSpec("R"), UniformSelect(1, 0.7)),
            key_columns=(0,),
            buffer_tuples=40,
        ),
        group_columns=(0,),
        agg_func="count",
        agg_column=0,
    ),
    "dup": DupElimSpec(
        child=SortSpec(
            ProjectSpec(ScanSpec("R"), columns=(1,)),
            key_columns=(0,),
            buffer_tuples=64,
        )
    ),
    "deep": NLJSpec(
        outer=NLJSpec(
            outer=SortSpec(
                FilterSpec(ScanSpec("R"), UniformSelect(1, 0.3)),
                key_columns=(0,),
                buffer_tuples=60,
            ),
            inner=ScanSpec("S"),
            condition=COND,
            buffer_tuples=50,
        ),
        inner=ScanSpec("S"),
        condition=EquiJoinCondition(3, 0, modulus=30),
        buffer_tuples=40,
    ),
}


def case(plan_name):
    return Case(300, 200, 1, PLANS[plan_name])


def cuts(*rows):
    return tuple(("max_rows", 0, n) for n in rows)


def check_dp_picks_the_mip_plan(plan_name, point):
    """The plan the shipped solver (a tree DP) picks at ``point`` is the
    one the HiGHS oracle picks."""
    session = QuerySession(case(plan_name).db(), PLANS[plan_name])
    session.execute(max_rows=point)
    if session.status.value != "completed":
        model = build_cost_model(session.runtime)
        assert optimal_plan(model).decisions == mip_plan(model).decisions


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("strategy", ["all_dump", "all_goback", "lp", "dp"])
def test_equivalence_across_points(plan_name, strategy):
    """``dp`` is no strategy of its own any more: ``lp`` is solved by the
    tree DP, so that case resumes the ``lp`` plan after checking, at each
    point, that the DP picks what the HiGHS oracle picks."""
    ref = reference(case(plan_name))
    assert ref.rows, f"plan {plan_name} must produce output"
    suspend_as = "lp" if strategy == "dp" else strategy
    for point in (1, 7, 33, 150):
        if strategy == "dp":
            check_dp_picks_the_mip_plan(plan_name, point)
        schedule = Schedule(cuts(point), (suspend_as,))
        check_in_place(case(plan_name), schedule, ref)


@pytest.mark.parametrize("plan_name", ["nlj", "smj", "deep", "shj", "hhj", "inlj"])
def test_double_suspend_equivalence(plan_name):
    ref = reference(case(plan_name))
    for strategies in (("all_dump", "all_goback"), ("all_goback", "lp"), ("lp", "lp")):
        check_in_place(case(plan_name), Schedule(cuts(5, 9), strategies), ref)


def test_triple_suspend_chain():
    schedule = Schedule(cuts(3, 20, 20), ("all_goback", "lp", "all_dump"))
    check_in_place(case("nlj"), schedule)


def test_budget_constrained_suspend_is_still_correct():
    check_in_place(case("deep"), Schedule(cuts(25), ("lp",), budget=10.0))
