"""Unit tests for the HiGHS binary-program oracle, cross-checked against
brute-force enumeration."""

from itertools import product

import numpy as np
import pytest
from scipy import sparse

from tests.oracles import MIPResult, solve_binary_program


def enumerate_binary_program(c, a, b) -> MIPResult:
    """The reference: every x in {0,1}^n (n <= 12), constraints checked
    to the tolerance the properties allow the solver."""
    assert len(c) <= 12
    best_x, best_obj = None, np.inf
    for bits in product((0.0, 1.0), repeat=len(c)):
        x = np.array(bits)
        if np.all(a @ x <= b + 1e-6) and c @ x < best_obj:
            best_x, best_obj = x, float(c @ x)
    return MIPResult(best_x, best_obj, best_x is not None)


def solve_both(c, a, b):
    """Solve with HiGHS (sparse matrix, as the optimizer passes it) and
    by enumeration."""
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float).reshape(len(b), len(c))
    b = np.asarray(b, dtype=float)
    return (
        solve_binary_program(c, sparse.csr_matrix(a), b),
        enumerate_binary_program(c, a, b),
    )


class TestSolver:
    def test_unconstrained_picks_negative_costs(self):
        highs, ref = solve_both([-1.0, 2.0, -3.0], np.zeros((0, 3)), [])
        for res in (highs, ref):
            assert res.feasible
            assert list(res.x) == [1, 0, 1]
            assert res.objective == pytest.approx(-4.0)

    def test_at_most_one_constraint(self):
        # min -5x0 -3x1 st x0 + x1 <= 1
        highs, ref = solve_both([-5.0, -3.0], [[1.0, 1.0]], [1.0])
        for res in (highs, ref):
            assert list(res.x) == [1, 0]

    def test_knapsack_style(self):
        # min -(6x0 + 5x1 + 4x2) st 3x0 + 2x1 + 2x2 <= 4 -> pick x1,x2
        highs, ref = solve_both(
            [-6.0, -5.0, -4.0], [[3.0, 2.0, 2.0]], [4.0]
        )
        for res in (highs, ref):
            assert res.objective == pytest.approx(-9.0)

    def test_infeasible_detected(self):
        # x0 <= -1 impossible for binary x0
        highs, ref = solve_both([1.0], [[1.0], [-1.0]], [-1.0, -0.5])
        # constraint -x0 <= -0.5 forces x0 >= 0.5; x0 <= -1 impossible
        for res in (highs, ref):
            assert not res.feasible

    def test_implication_constraints(self):
        # min x0 - 2x1 st x1 - x0 <= 0 (x1 implies x0)
        highs, ref = solve_both([1.0, -2.0], [[-1.0, 1.0]], [0.0])
        for res in (highs, ref):
            assert list(res.x) == [1, 1]
            assert res.objective == pytest.approx(-1.0)

    def test_empty_program(self):
        res = solve_binary_program(
            np.zeros(0), np.zeros((0, 0)), np.zeros(0)
        )
        assert res.feasible
        assert res.objective == 0.0

    def test_solvers_agree_on_random_programs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, 5))
            c = rng.normal(size=n)
            a = rng.normal(size=(m, n))
            b = rng.uniform(0.5, n, size=m)
            highs, ref = solve_both(c, a, b)
            assert highs.feasible == ref.feasible
            if highs.feasible:
                assert highs.objective == pytest.approx(
                    ref.objective, abs=1e-6
                )
