"""Property: HiGHS agrees with brute-force enumeration on random binary
programs."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from tests.core.test_mip import enumerate_binary_program
from tests.oracles import solve_binary_program

FAST = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FAST
@given(
    n=st.integers(1, 12),
    m=st.integers(0, 4),
    seed=st.integers(0, 100_000),
)
def test_highs_agrees_with_enumeration(n, m, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n)
    a = rng.normal(size=(m, n))
    b = rng.uniform(-0.5, n, size=m)
    highs = solve_binary_program(c, sparse.csr_matrix(a), b)
    ref = enumerate_binary_program(c, a, b)
    assert highs.feasible == ref.feasible
    if highs.feasible:
        assert highs.objective == pytest.approx(ref.objective, abs=1e-6)
        # the solution must actually satisfy the constraints
        assert np.all(a @ highs.x <= b + 1e-6)
        assert set(np.unique(highs.x)).issubset({0.0, 1.0})


@FAST
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 100_000),
)
def test_unconstrained_optimum_is_sign_pattern(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n)
    res = solve_binary_program(c, np.zeros((0, n)), np.zeros(0))
    expected = (c < 0).astype(float)
    assert list(res.x) == list(expected)
