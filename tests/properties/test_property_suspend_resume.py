"""Property: suspend/resume never changes query output.

Hypothesis drives random plan shapes, data sizes, selectivities, suspend
points, budgets, and strategies; the invariant is always byte-identical
output versus the uninterrupted run.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, QuerySession, SuspendSpec
from repro.engine.plan import (
    FilterSpec,
    MergeJoinSpec,
    NLJSpec,
    ScanSpec,
    SortSpec,
)
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import EquiJoinCondition, UniformSelect

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_db(r_size, s_size, seed):
    db = Database()
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(r_size, seed=seed))
    db.create_table(
        "S", BASE_SCHEMA, generate_uniform_table(s_size, seed=seed + 1)
    )
    return db


plan_strategy = st.sampled_from(["nlj", "smj", "nlj_over_sort", "nlj_over_nlj"])


def build_plan(kind, selectivity, buffer_tuples, modulus):
    filtered = FilterSpec(ScanSpec("R"), UniformSelect(1, selectivity))
    if kind == "nlj":
        return NLJSpec(
            outer=filtered,
            inner=ScanSpec("S"),
            condition=EquiJoinCondition(0, 0, modulus=modulus),
            buffer_tuples=buffer_tuples,
        )
    if kind == "nlj_over_nlj":
        return NLJSpec(
            outer=build_plan("nlj", selectivity, buffer_tuples + 5, modulus),
            inner=ScanSpec("S"),
            condition=EquiJoinCondition(0, 0, modulus=modulus),
            buffer_tuples=buffer_tuples,
        )
    if kind == "smj":
        return MergeJoinSpec(
            left=SortSpec(filtered, key_columns=(0,), buffer_tuples=buffer_tuples),
            right=SortSpec(
                ScanSpec("S"), key_columns=(0,), buffer_tuples=buffer_tuples + 7
            ),
            condition=EquiJoinCondition(0, 0),
        )
    return NLJSpec(
        outer=filtered,
        inner=SortSpec(ScanSpec("S"), key_columns=(0,), buffer_tuples=23),
        condition=EquiJoinCondition(0, 0, modulus=modulus),
        buffer_tuples=buffer_tuples,
    )


@SLOW
@given(
    kind=plan_strategy,
    r_size=st.integers(40, 160),
    s_size=st.integers(30, 90),
    seed=st.integers(0, 10_000),
    selectivity=st.floats(0.05, 1.0),
    buffer_tuples=st.integers(5, 60),
    modulus=st.integers(5, 40),
    point=st.integers(1, 400),
    strategy=st.sampled_from(["all_dump", "all_goback", "lp", "dp"]),
)
def test_output_equivalence(
    kind, r_size, s_size, seed, selectivity, buffer_tuples, modulus, point, strategy
):
    plan = build_plan(kind, selectivity, buffer_tuples, modulus)
    ref = QuerySession(build_db(r_size, s_size, seed), plan).execute().rows

    db = build_db(r_size, s_size, seed)
    session = QuerySession(db, plan)
    first = session.execute(max_rows=point)
    if session.status.value == "completed":
        assert first.rows == ref
        return
    sq = session.suspend(SuspendSpec(strategy=strategy))
    resumed = QuerySession.resume(db, sq)
    assert first.rows + resumed.execute().rows == ref


@SLOW
@given(
    kind=plan_strategy,
    seed=st.integers(0, 10_000),
    selectivity=st.floats(0.1, 1.0),
    point=st.integers(1, 120),
    budget=st.floats(0.5, 50.0),
)
def test_budgeted_lp_equivalence(kind, seed, selectivity, point, budget):
    """Even under tight budgets (possibly infeasible ones), a successful
    suspend must preserve output."""
    from repro.common.errors import SuspendBudgetInfeasibleError

    plan = build_plan(kind, selectivity, 20, 15)
    ref = QuerySession(build_db(90, 60, seed), plan).execute().rows
    db = build_db(90, 60, seed)
    session = QuerySession(db, plan)
    first = session.execute(max_rows=point)
    if session.status.value == "completed":
        return
    try:
        sq = session.suspend(SuspendSpec(strategy="lp", budget=budget))
    except SuspendBudgetInfeasibleError:
        return
    resumed = QuerySession.resume(db, sq)
    assert first.rows + resumed.execute().rows == ref


@SLOW
@given(
    kind=plan_strategy,
    seed=st.integers(0, 10_000),
    slices=st.lists(st.integers(1, 400), min_size=1, max_size=4),
    strategies=st.lists(
        st.sampled_from(["all_dump", "all_goback", "lp"]),
        min_size=1,
        max_size=4,
    ),
)
def test_repeated_suspend_resume(kind, seed, slices, strategies):
    """Slices run to completion with a suspend/resume cycle between every
    two (the drawn slice sizes and strategies repeat) preserve output."""
    plan = build_plan(kind, 0.6, 25, 20)
    ref = QuerySession(build_db(120, 70, seed), plan).execute().rows
    db = build_db(120, 70, seed)
    session = QuerySession(db, plan)
    rows = []
    for cycle in range(len(ref) + 1):
        rows += session.execute(max_rows=slices[cycle % len(slices)]).rows
        if session.status.value == "completed":
            break
        sq = session.suspend(
            SuspendSpec(strategy=strategies[cycle % len(strategies)])
        )
        session = QuerySession.resume(db, sq)
    assert rows == ref
