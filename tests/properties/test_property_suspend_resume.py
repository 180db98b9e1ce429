"""Property: suspend/resume never changes query output.

Hypothesis draws plans from the differential harness's grammar
(``plans.py``), and schedules of three shapes — one cut under any
strategy, one cut under ``lp`` with a finite budget, and cuts repeated
until the query completes — run through the harness's in-place mode; the
invariant is always the uninterrupted run's rows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.properties.plans import cases
from tests.properties.test_differential import (
    SLOW,
    Schedule,
    check_in_place,
    reference,
)

STRATEGIES = ["all_dump", "all_goback", "lp"]


@settings(SLOW, max_examples=25)
@given(
    case=cases(),
    point=st.integers(1, 400),
    strategy=st.sampled_from(STRATEGIES),
)
def test_output_equivalence(case, point, strategy):
    check_in_place(case, Schedule((("max_rows", 0, point),), (strategy,)))


@settings(SLOW, max_examples=25)
@given(case=cases(), point=st.integers(1, 120), budget=st.floats(0.5, 50.0))
def test_budgeted_lp_equivalence(case, point, budget):
    """Even under tight budgets (an infeasible one is retried unbounded),
    a suspend must preserve output."""
    check_in_place(case, Schedule((("max_rows", 0, point),), ("lp",), budget))


@settings(SLOW, max_examples=25)
@given(
    case=cases(),
    slices=st.lists(st.integers(1, 400), min_size=1, max_size=4),
    strategies=st.lists(st.sampled_from(STRATEGIES[:3]), min_size=1, max_size=4),
)
def test_repeated_suspend_resume(case, slices, strategies):
    """Slices run to completion with a suspend/resume cycle between every
    two (the drawn slice sizes and strategies repeat) preserve output."""
    ref = reference(case)
    stops = tuple(
        ("max_rows", 0, slices[cycle % len(slices)])
        for cycle in range(len(ref.rows) + 1)
    )
    check_in_place(case, Schedule(stops, tuple(strategies)), ref)
