"""Unit tests for the overhead-measurement harness."""

import math

import pytest

from repro import SuspendTrigger
from repro.harness.experiments import (
    measure_suspend_overhead,
    run_reference_to_milestone,
)
from repro.workloads import build_nlj_s


def factory():
    return build_nlj_s(selectivity=0.5, scale=250)


TRIGGER = SuspendTrigger("nlj", "fill", 400)


class TestHarness:
    def test_reference_is_deterministic(self):
        db1, plan1 = factory()
        db2, plan2 = factory()
        c1, _ = run_reference_to_milestone(db1, plan1, TRIGGER)
        c2, _ = run_reference_to_milestone(db2, plan2, TRIGGER)
        assert c1 == c2

    def test_overhead_decomposition(self):
        result = measure_suspend_overhead(factory, TRIGGER, "all_dump")
        assert result.suspend_cost > 0
        assert result.resume_cost > 0
        assert result.total_overhead > 0
        assert result.strategy == "all_dump"

    def test_goback_suspend_time_near_zero(self):
        result = measure_suspend_overhead(factory, TRIGGER, "all_goback")
        dump = measure_suspend_overhead(factory, TRIGGER, "all_dump")
        assert result.suspend_cost < dump.suspend_cost / 3

    def test_lp_never_worse_than_both_purists(self):
        results = {
            s: measure_suspend_overhead(factory, TRIGGER, s)
            for s in ("all_dump", "all_goback", "lp")
        }
        best_purist = min(
            results["all_dump"].total_overhead,
            results["all_goback"].total_overhead,
        )
        assert results["lp"].total_overhead <= best_purist + 1.0

    def test_reference_reuse_matches_fresh(self):
        db, plan = factory()
        ref, _ = run_reference_to_milestone(db, plan, TRIGGER)
        reused = measure_suspend_overhead(
            factory, TRIGGER, "all_dump", reference_cost=ref
        )
        fresh = measure_suspend_overhead(factory, TRIGGER, "all_dump")
        assert reused.total_overhead == pytest.approx(fresh.total_overhead)

    def test_never_firing_trigger_raises(self):
        with pytest.raises(RuntimeError):
            never = SuspendTrigger("nlj", "emitted", 10**9)
            measure_suspend_overhead(factory, never, "all_dump")

    def test_budget_constrains_suspend_cost(self):
        constrained = measure_suspend_overhead(
            factory, TRIGGER, "lp", budget=1.0
        )
        assert constrained.suspend_cost <= 5.0  # control-state write only

    def test_trigger_helpers(self):
        from repro import QuerySession

        db, plan = factory()
        session = QuerySession(db, plan)
        trigger = SuspendTrigger("scan_R", "position", 50)
        session.execute(suspend_when=trigger)
        assert session.op_named("scan_R").tuples_consumed() == 50
