"""Online suspend-plan optimization (Section 5).

The paper's zero-one program has variables x_{i,j} (operator i goes back
to the chain initiated by j ∈ anc(i)), which map onto
:class:`~repro.core.strategies.OpDecision`, and constraints

(3)  Σ_j x_{i,j} <= 1
(4)  x_{i,j} <= x_{par(i),j}              for j ∈ anc(par(i))
(5)  x_{i,i} <= 1 - Σ_j x_{par(i),j}
(6)  x_{i,j} >= x_{par(i),j}  if c_{i,j}  for j ∈ anc(par(i))
(7)  Σ_i [ d^s_i (1 - Σ_j x_{i,j}) + Σ_j g^s_{i,j} x_{i,j} ] <= C
(8)  x_{i,j} ∈ {0, 1}

minimizing the total suspend+resume overhead, Equations (1)+(2).

:func:`optimal_plan` solves it exactly by dynamic programming over the
operator tree. Rules (3)-(6) only relate an operator to its parent, so
given the chain context an operator inherits ("no chain", or "chain
anchored at j") the valid choices for its subtree do not depend on the
rest of the plan. Only the budget (7) couples subtrees, and it is a sum
of non-negative terms; so each (operator, chain context) keeps the Pareto
frontier of its subtree's (suspend cost, total cost), drops points over
the budget and prunes dominated ones. The root's cheapest point is the
optimum.

Ties are broken by one rule: among totals equal within
:data:`COST_TOL`, the lower suspend cost wins, then DumpState over GoBack
at the highest operator where two plans differ. (Plans that agree above
an operator give it one chain context and so at most one GoBack choice:
no tie between anchors is left to break.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.common.errors import SuspendBudgetInfeasibleError
from repro.core.costs import SuspendCostModel, build_cost_model
from repro.core.strategies import (
    OpDecision,
    Strategy,
    SuspendPlan,
    all_dump_plan,
    all_goback_plan,
    validate_suspend_plan,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.runtime import Runtime

#: Two costs closer than this are equal (see the tie-break rule above).
COST_TOL = 1e-9


@dataclass
class PlanCost:
    """Estimated cost split of a suspend plan."""

    suspend: float
    resume: float

    @property
    def total(self) -> float:
        return self.suspend + self.resume


def estimate_plan_cost(plan: SuspendPlan, model: SuspendCostModel) -> PlanCost:
    """Evaluate Equations (1)+(2) for a concrete plan."""
    suspend = 0.0
    resume = 0.0
    for i in model.op_ids:
        decision = plan.decision(i)
        if decision.strategy is Strategy.DUMP:
            suspend += model.d_s[i]
            resume += model.d_r[i]
        else:
            j = decision.goback_anchor
            suspend += model.g_s.get((i, j), 0.0)
            resume += model.g_r.get((i, j), 0.0)
    return PlanCost(suspend=suspend, resume=resume)


def _pareto(points: list, limit: float) -> list:
    """The points ``(suspend, total, ...)`` within ``limit`` that no
    other point matches or beats on both costs, in their given order (an
    earlier point wins a tie)."""
    if len(points) == 1:
        return points if points[0][0] <= limit else []
    kept: list = []
    for p in points:
        s, t = p[0], p[1]
        if s > limit or any(
            k[0] <= s + COST_TOL and k[1] <= t + COST_TOL for k in kept
        ):
            continue
        kept = [
            k for k in kept
            if not (s <= k[0] + COST_TOL and t <= k[1] + COST_TOL)
        ]
        kept.append(p)
    return kept


def _children_of(model: SuspendCostModel) -> dict[Optional[int], list[int]]:
    children_of: dict[Optional[int], list[int]] = {}
    for i in model.op_ids:
        children_of.setdefault(model.parent.get(i), []).append(i)
    return children_of


def plan_frontiers(
    model: SuspendCostModel, budget: float = math.inf
) -> dict[tuple[int, Optional[int]], list]:
    """The Pareto frontier of every (operator, chain context) the root's
    frontier, at key ``(root, None)``, draws on. A point is ``(suspend,
    total, decision, child points)`` for the operator's subtree."""
    children_of = _children_of(model)
    decisions = {None: OpDecision.dump()}
    decisions.update((j, OpDecision.goback(j)) for _, j in model.links)
    frontiers: dict[tuple[int, Optional[int]], list] = {}
    search = (model, children_of, decisions, budget + COST_TOL, frontiers)
    (root,) = children_of[None]
    _frontier(search, root, None)
    return frontiers


def _frontier(search: tuple, i: int, chain: Optional[int]) -> list:
    """The frontier of operator ``i`` under ``chain``. ``search`` is
    ``(model, children_of, decisions, limit, frontiers)``: ``decisions``
    maps None to DumpState and an anchor to GoBack to it, and
    ``frontiers`` memoizes the result under ``(i, chain)``."""
    model, children_of, decisions, limit, frontiers = search
    key = (i, chain)
    if key in frontiers:
        return frontiers[key]
    # Valid choices, DumpState first: under no chain, dump or start the
    # operator's own chain; under chain j, dump unless c_{i,j} forbids it,
    # or follow j.
    options = []
    if chain is None or (i, chain) not in model.cannot_dump_under:
        options.append(decisions[None])
    anchor = i if chain is None else chain
    if (i, anchor) in model.links:
        options.append(decisions[anchor])
    points = []
    for decision in options:
        j = decision.goback_anchor
        if j is None:
            partial = [(model.d_s[i], model.d_s[i] + model.d_r[i], ())]
        else:
            s = model.g_s[(i, j)]
            partial = [(s, s + model.g_r[(i, j)], ())]
        for child in children_of.get(i, ()):
            sub = _frontier(search, child, j)
            partial = _pareto(
                [
                    (s + c[0], t + c[1], picks + (c,))
                    for s, t, picks in partial
                    for c in sub
                ],
                limit,
            )
            if not partial:
                break
        points += [(s, t, decision, picks) for s, t, picks in partial]
    frontiers[key] = _pareto(points, limit)
    return frontiers[key]


def optimal_plan(
    model: SuspendCostModel, budget: float = math.inf, tracer=None
) -> SuspendPlan:
    """The cheapest valid plan whose suspend cost fits ``budget``."""
    frontiers = plan_frontiers(model, budget)
    children_of = _children_of(model)
    (root,) = children_of[None]
    top = frontiers[(root, None)]
    best = min(top, key=lambda p: p[1]) if top else None
    if tracer is not None and tracer.enabled:
        tracer.event(
            "mip.solve",
            variables=len(model.links),
            frontier_max=max(map(len, frontiers.values())),
            objective=round(best[1], 6) if best else math.inf,
            feasible=best is not None,
            budget=budget,
        )
    if best is None:
        raise SuspendBudgetInfeasibleError(
            f"no valid suspend plan fits within budget {budget}"
        )

    decisions: dict[int, OpDecision] = {}
    stack = [(root, best)]
    while stack:
        i, (_, _, decision, picks) = stack.pop()
        decisions[i] = decision
        stack.extend(zip(children_of.get(i, ()), picks))
    plan = SuspendPlan(decisions=decisions, source="lp")
    validate_suspend_plan(plan, model.topology())
    return plan


def choose_suspend_plan(
    runtime: "Runtime",
    strategy: str = "lp",
    budget: float = math.inf,
    model: Optional[SuspendCostModel] = None,
) -> SuspendPlan:
    """Pick a suspend plan for the current runtime state.

    ``strategy`` is one of:

    - ``"lp"`` — the paper's online optimizer, :func:`optimal_plan`;
    - ``"all_dump"`` / ``"all_goback"`` — the purist baselines.
    """
    if model is None:
        model = build_cost_model(runtime)
    if strategy == "lp":
        tracer = getattr(runtime, "tracer", None)
        return optimal_plan(model, budget=budget, tracer=tracer)
    topo = model.topology()
    if strategy == "all_dump":
        plan = all_dump_plan(topo)
    elif strategy == "all_goback":
        plan = all_goback_plan(topo)
    else:
        raise ValueError(f"unknown suspend strategy {strategy!r}")
    validate_suspend_plan(plan, topo)
    return plan
