"""Library functions computing each paper table/figure's data series.

The benchmark files under ``benchmarks/`` and the command-line interface
(:mod:`repro.cli`) both call these, so an experiment is defined exactly
once. Every function returns plain dict-rows suitable for
:func:`repro.harness.report.format_table`.
"""

from __future__ import annotations

import math
import time
from typing import Optional

from repro import QuerySession
from repro.common.errors import SuspendBudgetInfeasibleError
from repro.core.costs import build_cost_model
from repro.core.optimizer import optimal_plan
from repro.core.strategies import Strategy
from repro.engine.runtime import SuspendTrigger
from repro.harness.experiments import (
    measure_suspend_overhead,
    run_reference_to_milestone,
)
from repro.planning.cost_model import (
    Example9Scenario,
    Example10Scenario,
    hhj_costs,
    nlj_costs,
    smj_costs,
    smj_costs_presorted_inner,
)
from repro.planning.planner import (
    choose_plan_example9,
    nlj_smj_crossover_suspend_point,
)
from repro.workloads import (
    build_complex_plan,
    build_left_deep_nlj,
    build_nlj_chain,
    build_nlj_s,
    build_skewed_nlj_s,
    build_smj_s,
)

STRATEGIES = ("all_dump", "all_goback", "lp")

#: The paper's Table 2 timings (milliseconds), for side-by-side printing.
PAPER_TABLE2_MS = {
    11: 1.614,
    21: 5.846,
    41: 9.959,
    61: 20.599,
    81: 38.016,
    101: 59.060,
}


def table2_rows(plan_sizes=(11, 21, 41, 61, 81, 101)) -> list[dict]:
    """Optimizer wall-time (cost model plus the shipped solver) vs plan
    size on left-deep NLJ chains, with the MIP's variable count."""
    rows = []
    for k in plan_sizes:
        db, plan = build_nlj_chain(k)
        session = QuerySession(db, plan)
        session.execute(max_rows=2)
        start = time.perf_counter()
        model = build_cost_model(session.runtime)
        optimal_plan(model)
        elapsed_ms = (time.perf_counter() - start) * 1000
        rows.append(
            {
                "operators": k,
                "optimize_ms": round(elapsed_ms, 3),
                "mip_variables": len(model.links),
                "paper_ms": PAPER_TABLE2_MS.get(k, "-"),
            }
        )
    return rows


def fig8_rows(
    selectivities=(0.05, 0.1, 0.2, 0.28, 0.4, 0.6, 0.8, 1.0), scale=100
) -> list[dict]:
    """NLJ_S overhead/suspend-time vs selectivity, all strategies."""
    rows = []
    for sel in selectivities:
        factory = lambda: build_nlj_s(selectivity=sel, scale=scale)
        _, plan = factory()
        trigger = SuspendTrigger("nlj", "fill", plan.buffer_tuples // 2)
        db, p = factory()
        ref, _ = run_reference_to_milestone(db, p, trigger)
        row = {"selectivity": sel}
        for strategy in STRATEGIES:
            r = measure_suspend_overhead(
                factory, trigger, strategy, reference_cost=ref
            )
            row[f"{strategy}_overhead"] = round(r.total_overhead, 1)
            row[f"{strategy}_suspend"] = round(r.suspend_cost, 1)
        rows.append(row)
    return rows


def fig9_rows(
    fill_fractions=(0.1, 0.25, 0.5, 0.75, 0.95), scale=100
) -> list[dict]:
    """SMJ_S overhead vs suspend point at selectivity 0.5."""
    rows = []
    for frac in fill_fractions:
        factory = lambda: build_smj_s(selectivity=0.5, scale=scale)
        _, plan = factory()
        trigger = SuspendTrigger(
            "sort_R", "fill", int(frac * plan.left.buffer_tuples)
        )
        db, p = factory()
        ref, _ = run_reference_to_milestone(db, p, trigger)
        row = {"buffer_filled": f"{int(frac * 100)}%"}
        for strategy in STRATEGIES:
            r = measure_suspend_overhead(
                factory, trigger, strategy, reference_cost=ref
            )
            row[f"{strategy}_overhead"] = round(r.total_overhead, 1)
            row[f"{strategy}_suspend"] = round(r.suspend_cost, 1)
        rows.append(row)
    return rows


def fig10_rows(
    selectivities=(0.1, 0.28, 0.6, 1.0),
    fill_fractions=(0.2, 0.5, 0.8),
    scale=200,
) -> list[dict]:
    """NLJ_S overhead surface over (selectivity x suspend point)."""
    rows = []
    for sel in selectivities:
        for frac in fill_fractions:
            factory = lambda: build_nlj_s(selectivity=sel, scale=scale)
            _, plan = factory()
            trigger = SuspendTrigger(
                "nlj", "fill", max(1, int(frac * plan.buffer_tuples))
            )
            db, p = factory()
            ref, _ = run_reference_to_milestone(db, p, trigger)
            dump = measure_suspend_overhead(
                factory, trigger, "all_dump", reference_cost=ref
            )
            goback = measure_suspend_overhead(
                factory, trigger, "all_goback", reference_cost=ref
            )
            rows.append(
                {
                    "selectivity": sel,
                    "buffer_filled": f"{int(frac * 100)}%",
                    "all_dump": round(dump.total_overhead, 1),
                    "all_goback": round(goback.total_overhead, 1),
                    "winner": (
                        "goback"
                        if goback.total_overhead <= dump.total_overhead
                        else "dump"
                    ),
                }
            )
    return rows


def _plan_kind(plan) -> str:
    strategies = {d.strategy for d in plan.decisions.values()}
    return "dump" if strategies == {Strategy.DUMP} else "goback"


def fig12_rows(
    suspend_points=(4_000, 10_000, 16_000, 19_000, 23_000, 28_000),
    scale=100,
) -> list[dict]:
    """Online vs static optimizer along the skewed scan of R."""
    boundary = round(2 / 3 * (3_000_000 // scale))
    rows = []
    for point in suspend_points:
        factory = lambda: build_skewed_nlj_s(scale=scale)
        trigger = SuspendTrigger("scan_R", "position", point)
        db, plan = factory()
        ref, _ = run_reference_to_milestone(db, plan, trigger)
        online = measure_suspend_overhead(
            factory, trigger, "lp", reference_cost=ref
        )
        static = measure_suspend_overhead(
            factory, trigger, "static", reference_cost=ref
        )
        rows.append(
            {
                "scan_position": point,
                "region_selectivity": 0.1 if point < boundary else 0.9,
                "online_overhead": round(online.total_overhead, 1),
                "online_suspend": round(online.suspend_cost, 1),
                "online_choice": _plan_kind(online.suspend_plan),
                "static_overhead": round(static.total_overhead, 1),
                "static_choice": _plan_kind(static.suspend_plan),
            }
        )
    return rows


def fig13_results(scale=100):
    """Complex-plan strategy comparison; returns (results, names)."""
    factory = lambda: build_complex_plan(scale=scale)
    _, plan = factory()
    trigger = SuspendTrigger("nlj0", "fill", int(0.85 * plan.buffer_tuples))
    db, p = factory()
    ref, _ = run_reference_to_milestone(db, p, trigger)
    results = {
        strategy: measure_suspend_overhead(
            factory, trigger, strategy, reference_cost=ref
        )
        for strategy in STRATEGIES
    }
    db2, p2 = factory()
    session = QuerySession(db2, p2)
    session.execute(suspend_when=trigger)
    return results, session.operator_names()


def fig14_rows(
    budgets=(1.0, 10.0, 25.0, 60.0, 120.0, 250.0, math.inf), scale=100
) -> list[dict]:
    """Left-deep 3-NLJ plan: overhead vs suspend budget."""
    factory = lambda: build_left_deep_nlj(scale=scale)
    trigger = SuspendTrigger("nlj2", "fill", int(0.85 * 200_000 / scale))
    db, plan = factory()
    ref, _ = run_reference_to_milestone(db, plan, trigger)
    rows = []
    for budget in budgets:
        label = "unlimited" if budget == math.inf else budget
        try:
            r = measure_suspend_overhead(
                factory, trigger, "lp", budget=budget, reference_cost=ref
            )
        except SuspendBudgetInfeasibleError:
            rows.append(
                {
                    "budget": label,
                    "total_overhead": "infeasible",
                    "suspend_time": "-",
                }
            )
            continue
        rows.append(
            {
                "budget": label,
                "total_overhead": round(r.total_overhead, 1),
                "suspend_time": round(r.suspend_cost, 1),
            }
        )
    return rows


def fig15_rows():
    """Example 9's HHJ-vs-SMJ I/O table; returns (rows, choice)."""
    sc = Example9Scenario()
    choice = choose_plan_example9(sc)
    rows = [
        {
            "plan": c.plan,
            "io_no_suspend": round(c.run_io),
            "suspend_overhead_io": round(c.suspend_overhead_io),
            "io_with_suspend": round(c.total_with_suspend),
        }
        for c in (hhj_costs(sc), smj_costs(sc))
    ]
    return rows, choice


def ex10_rows(
    suspend_points=(0, 10_000, 16_020, 30_000, 45_000, 80_000),
):
    """Example 10's NLJ-vs-SMJ table; returns (rows, crossover)."""
    sc = Example10Scenario()
    smj = smj_costs_presorted_inner(sc)
    rows = []
    for fill in suspend_points:
        nlj = nlj_costs(sc, suspend_at_buffer_fill=fill)
        rows.append(
            {
                "buffer_fill": fill,
                "nlj_total_io": round(nlj.total_with_suspend),
                "smj_total_io": round(smj.total_with_suspend),
                "winner": (
                    "NLJ"
                    if nlj.total_with_suspend < smj.total_with_suspend
                    else "SMJ"
                ),
            }
        )
    return rows, nlj_smj_crossover_suspend_point(sc)
