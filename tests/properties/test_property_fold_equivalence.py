"""Property: shared-work folding is invisible to every folded member.

Hypothesis draws pairs and triples of scan-filter-project and hash-join
plans over shared tables, interleavings and suspend points, and runs
them through the folded mode of the differential harness
(``test_differential.py``): per-query outputs and as-if-solo lanes equal
the solo runs, and the durable images of a member split mid-drain equal
an unfolded run's bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.properties.plans import Case, build_plan
from tests.properties.test_differential import SLOW, Schedule, check_folded

plans_strategy = st.lists(
    st.builds(
        build_plan,
        st.sampled_from(["sfp", "shj"]),
        st.floats(0.1, 1.0),
        st.just(0),
        st.integers(5, 40),
    ),
    min_size=2,
    max_size=3,
)
tables = dict(
    r_size=st.integers(60, 200),
    s_size=st.integers(40, 100),
    seed=st.integers(0, 10_000),
)


@settings(SLOW, max_examples=15)
@given(plans=plans_strategy, chunk=st.integers(5, 60), **tables)
def test_folded_members_match_solo_runs(plans, r_size, s_size, seed, chunk):
    case = Case(r_size, s_size, seed, plans[0], tuple(plans[1:]))
    check_folded(case, Schedule(()), chunk)


@settings(SLOW, max_examples=15)
@given(
    plans=plans_strategy,
    chunk=st.integers(5, 40),
    point=st.integers(1, 60),
    **tables,
)
def test_fold_split_image_matches_unfolded(
    plans, r_size, s_size, seed, chunk, point
):
    """Suspending a folded member mid-drain must leave the same durable
    image bytes and final output as the identical unfolded suspend."""
    case = Case(r_size, s_size, seed, plans[0], tuple(plans[1:]))
    check_folded(case, Schedule((("max_rows", 0, point),)), chunk)
