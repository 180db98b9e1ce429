"""Suspend-budget tuning: the Figure 14 tradeoff, interactively.

The DBA (or admission controller) grants the suspend phase a time budget.
Tighter budgets force GoBack strategies (fast suspend, expensive resume);
looser ones let the optimizer dump the state that is expensive to
recompute. This example sweeps the budget on the paper's complex plan and
prints the chosen per-operator plan at each level.

Run:  python examples/suspend_budget_tuning.py
"""

import math

from repro import QuerySession, SuspendTrigger
from repro.common.errors import SuspendBudgetInfeasibleError
from repro.harness.experiments import (
    measure_suspend_overhead,
    run_reference_to_milestone,
)
from repro.workloads import build_complex_plan

SCALE = 200
BUDGETS = (1.0, 15.0, 40.0, 100.0, math.inf)


def main():
    factory = lambda: build_complex_plan(scale=SCALE)
    _, plan = factory()
    trigger = SuspendTrigger("nlj0", "fill", int(0.85 * plan.buffer_tuples))
    db, p = factory()
    reference, _ = run_reference_to_milestone(db, p, trigger)

    # Names for rendering plans.
    db2, p2 = factory()
    probe = QuerySession(db2, p2)
    probe.execute(suspend_when=trigger)
    names = probe.operator_names()

    print(f"{'budget':>10} {'suspend':>9} {'resume':>9} {'total ovh':>10}  plan")
    for budget in BUDGETS:
        try:
            result = measure_suspend_overhead(
                factory, trigger, "lp", budget=budget, reference_cost=reference
            )
        except SuspendBudgetInfeasibleError:
            print(f"{budget:>10} {'-':>9} {'-':>9} {'infeasible':>10}")
            continue
        label = "unlimited" if budget == math.inf else f"{budget:g}"
        dumps = sum(
            1
            for d in result.suspend_plan.decisions.values()
            if d.strategy.value == "dump"
        )
        print(
            f"{label:>10} {result.suspend_cost:>9.1f} "
            f"{result.resume_cost:>9.1f} {result.total_overhead:>10.1f}  "
            f"{dumps}/{len(result.suspend_plan.decisions)} operators dump"
        )

    print("\nplan at the unlimited budget:")
    unconstrained = measure_suspend_overhead(
        factory, trigger, "lp", reference_cost=reference
    )
    print(unconstrained.suspend_plan.describe(names))
    print(
        "\ntakeaway: total overhead falls as the budget grows, while the "
        "suspend phase\nitself gets slower — the DBA picks the point on "
        "the curve the workload needs."
    )


if __name__ == "__main__":
    main()
