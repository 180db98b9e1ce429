"""Determinism: the virtual-clock design makes every run reproducible."""

from repro import QuerySession, SuspendSpec, SuspendTrigger
from repro.harness.experiments import (
    measure_suspend_overhead,
)
from repro.workloads import build_complex_plan, build_nlj_s


def test_identical_runs_charge_identical_costs():
    costs = []
    for _ in range(2):
        db, plan = build_nlj_s(selectivity=0.5, scale=400)
        session = QuerySession(db, plan)
        session.execute(max_rows=200)
        costs.append(db.now)
    assert costs[0] == costs[1]


def test_overhead_measurements_are_bit_identical():
    results = []
    for _ in range(2):
        factory = lambda: build_complex_plan(scale=400)
        _, plan = factory()
        trigger = SuspendTrigger("nlj0", "fill", int(0.85 * plan.buffer_tuples))
        r = measure_suspend_overhead(factory, trigger, "lp")
        results.append(
            (r.total_overhead, r.suspend_cost, r.resume_cost)
        )
    assert results[0] == results[1]


def test_suspend_plans_are_deterministic():
    plans = []
    for _ in range(2):
        db, plan = build_nlj_s(selectivity=0.3, scale=400)
        session = QuerySession(db, plan)
        session.execute(max_rows=50)
        sq = session.suspend(SuspendSpec(strategy="lp"))
        plans.append(
            tuple(sorted((k, str(v)) for k, v in sq.suspend_plan.decisions.items()))
        )
    assert plans[0] == plans[1]
