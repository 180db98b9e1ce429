"""The suspend-time cost model must track measured reality.

The optimizer is only as good as its constants: these tests compare the
estimated suspend/resume costs of concrete plans against the costs the
simulator actually charges when those plans run.
"""

import pytest

from repro import QuerySession, SuspendTrigger
from repro.core.costs import build_cost_model
from repro.core.optimizer import choose_suspend_plan, estimate_plan_cost
from repro.harness.experiments import (
    measure_suspend_overhead,
)
from repro.workloads import build_nlj_s


@pytest.mark.parametrize("selectivity", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("strategy", ["all_dump", "all_goback"])
def test_estimates_track_measurements(selectivity, strategy):
    factory = lambda: build_nlj_s(selectivity=selectivity, scale=200)
    _, plan = factory()
    trigger = SuspendTrigger("nlj", "fill", plan.buffer_tuples // 2)

    # Estimated costs at the suspend point.
    db, p = factory()
    session = QuerySession(db, p)
    session.execute(suspend_when=trigger)
    model = build_cost_model(session.runtime)
    suspend_plan = choose_suspend_plan(session.runtime, strategy=strategy)
    estimate = estimate_plan_cost(suspend_plan, model)

    measured = measure_suspend_overhead(factory, trigger, strategy)

    # Suspend cost: the measurement adds the fixed SuspendedQuery write.
    assert measured.suspend_cost == pytest.approx(
        estimate.suspend, abs=5.0
    )
    # Total overhead: within 2x (the paper calls g^r an approximation;
    # skipping makes actual resume cheaper than the estimate).
    assert measured.total_overhead <= estimate.total * 2 + 5.0
    assert measured.total_overhead >= estimate.total * 0.3 - 5.0


def test_lp_choice_agrees_with_measured_winner():
    """Where the purist plans differ measurably, the LP must side with
    the measured winner (the whole point of online optimization)."""
    for selectivity in (0.1, 1.0):
        factory = lambda: build_nlj_s(selectivity=selectivity, scale=200)
        _, plan = factory()
        trigger = SuspendTrigger("nlj", "fill", plan.buffer_tuples // 2)
        dump = measure_suspend_overhead(factory, trigger, "all_dump")
        goback = measure_suspend_overhead(factory, trigger, "all_goback")
        lp = measure_suspend_overhead(factory, trigger, "lp")
        measured_best = min(dump.total_overhead, goback.total_overhead)
        assert lp.total_overhead <= measured_best + 1.0
