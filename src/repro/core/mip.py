"""The zero-one program solver behind suspend-plan selection.

The Section 5 program has only zero-one variables and O(nh) constraints;
HiGHS's branch-and-bound (``scipy.optimize.milp``) solves it well inside
the paper's regime (sub-60 ms solves for 101-operator plans).

The module is generic: it solves

    minimize    c @ x
    subject to  A_ub @ x <= b_ub
                0 <= x <= 1,  x integral

and is used by :mod:`repro.core.optimizer`, which builds the constraint
matrix from the paper's Equations (1)-(8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import LinearConstraint, milp

#: Tolerance for treating an LP value as integral.
INT_TOL = 1e-6


@dataclass
class MIPResult:
    """Outcome of a solve. ``x`` is None when the program is infeasible."""

    x: Optional[np.ndarray]
    objective: float
    nodes_explored: int
    feasible: bool


def solve_binary_program(
    c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray
) -> MIPResult:
    """Solve min c@x, A_ub@x <= b_ub, x in {0,1}^n with HiGHS."""
    num_vars = len(c)
    if num_vars == 0:
        feasible = b_ub.size == 0 or bool(np.all(b_ub >= -INT_TOL))
        return MIPResult(
            x=np.zeros(0), objective=0.0, nodes_explored=0, feasible=feasible
        )
    constraints = []
    if a_ub.size:
        constraints.append(
            LinearConstraint(a_ub, -np.inf * np.ones(len(b_ub)), b_ub)
        )
    res = milp(
        c,
        constraints=constraints,
        integrality=np.ones(num_vars),
        bounds=(0, 1),
    )
    if res.success:
        x = np.round(res.x)
        return MIPResult(
            x=x, objective=float(c @ x), nodes_explored=1, feasible=True
        )
    return MIPResult(
        x=None, objective=math.inf, nodes_explored=1, feasible=False
    )
