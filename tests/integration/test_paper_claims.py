"""Integration: the paper's headline claims at reduced scale.

Each test reproduces the *shape* of one evaluation result (who wins, where
the crossover falls) on a smaller instance than the benchmarks use, so the
claims stay covered by the fast test suite.
"""

import math

import pytest

from repro import ImageStore, QuerySession, SuspendSpec, SuspendTrigger
from repro.harness.experiments import (
    measure_suspend_overhead,
    run_reference_to_milestone,
)
from repro.workloads import (
    build_complex_plan,
    build_left_deep_nlj,
    build_nlj_s,
    build_skewed_nlj_s,
)

SCALE = 400  # paper scale / 400: R has 5,500 tuples, buffers 500
#: Paper scale / 100: Figure 8's DumpState/GoBack crossover falls just
#: past selectivity 0.35 (at SCALE, between 0.25 and 0.28), so the sweep
#: below crosses a wide band where DumpState is the cheaper pick.
CROSSOVER_SCALE = 100


def overhead(selectivity, strategy, scale=SCALE):
    factory = lambda: build_nlj_s(selectivity=selectivity, scale=scale)
    _, plan = factory()
    trigger = SuspendTrigger("nlj", "fill", plan.buffer_tuples // 2)
    return measure_suspend_overhead(factory, trigger, strategy)


def persisted_overhead(selectivity, strategy, root, scale):
    """:func:`overhead`'s total for a query resumed from its image: the
    suspended query is saved under ``root``, released, loaded back and
    resumed, as in another process."""
    factory = lambda: build_nlj_s(selectivity=selectivity, scale=scale)
    db, plan = factory()
    trigger = SuspendTrigger("nlj", "fill", plan.buffer_tuples // 2)
    reference, _ = run_reference_to_milestone(*factory(), trigger)
    session = QuerySession(db, plan)
    start = db.now
    session.execute(suspend_when=trigger)
    sq = session.suspend(SuspendSpec(strategy=strategy))
    images = ImageStore(root)
    images.save(sq, db.state_store, image_id=strategy)
    sq.release()
    QuerySession.resume(db, images.load(strategy)).execute(max_rows=1)
    return db.now - start - reference


class TestFigure8Shape:
    def test_dump_wins_at_low_selectivity(self):
        assert (
            overhead(0.05, "all_dump").total_overhead
            < overhead(0.05, "all_goback").total_overhead
        )

    def test_goback_wins_at_high_selectivity(self):
        assert (
            overhead(0.9, "all_goback").total_overhead
            < overhead(0.9, "all_dump").total_overhead
        )

    def test_goback_suspend_time_always_much_lower(self):
        for sel in (0.05, 0.9):
            assert (
                overhead(sel, "all_goback").suspend_cost
                < overhead(sel, "all_dump").suspend_cost / 3
            )

    @pytest.mark.parametrize(
        "selectivity", [0.05, 0.2, 0.22, 0.25, 0.28, 0.30, 0.35, 0.9]
    )
    @pytest.mark.parametrize("resumed", ["in_place", "persisted"])
    def test_lp_tracks_the_minimum(self, resumed, selectivity, tmp_path):
        """On both sides of the crossover, whether the query resumes in
        place or from its image: the optimizer prices a resume as
        reading the dumped pages back, which is what both charge."""

        def total(strategy):
            if resumed == "persisted":
                return persisted_overhead(
                    selectivity, strategy, str(tmp_path), CROSSOVER_SCALE
                )
            result = overhead(selectivity, strategy, CROSSOVER_SCALE)
            return result.total_overhead

        lp = total("lp")
        assert lp <= min(total("all_dump"), total("all_goback")) + 1.0

    def test_dump_overhead_flat_in_selectivity(self):
        low = overhead(0.1, "all_dump").total_overhead
        high = overhead(0.9, "all_dump").total_overhead
        assert low == pytest.approx(high, rel=0.25)


class TestFigure9Shape:
    def test_gap_grows_with_suspend_point(self):
        """Later suspend points mean more state: the strategy gap widens."""
        gaps = []
        for frac in (0.25, 0.9):
            factory = lambda: build_nlj_s(selectivity=0.9, scale=SCALE)
            _, plan = factory()
            trigger = SuspendTrigger(
                "nlj", "fill", int(plan.buffer_tuples * frac)
            )
            dump = measure_suspend_overhead(factory, trigger, "all_dump")
            goback = measure_suspend_overhead(factory, trigger, "all_goback")
            gaps.append(abs(dump.total_overhead - goback.total_overhead))
        assert gaps[1] > gaps[0]


class TestFigure12Shape:
    def test_online_beats_static_in_low_selectivity_region(self):
        factory = lambda: build_skewed_nlj_s(scale=SCALE)
        trigger = SuspendTrigger("scan_R", "position", 3000)
        online = measure_suspend_overhead(factory, trigger, "lp")
        static = measure_suspend_overhead(factory, trigger, "static")
        assert online.total_overhead < static.total_overhead

    def test_online_matches_static_in_high_selectivity_region(self):
        factory = lambda: build_skewed_nlj_s(scale=SCALE)
        trigger = SuspendTrigger("scan_R", "position", 6500)
        online = measure_suspend_overhead(factory, trigger, "lp")
        static = measure_suspend_overhead(factory, trigger, "static")
        assert online.total_overhead <= static.total_overhead + 1.0


class TestFigure13Shape:
    def test_hybrid_beats_both_purists(self):
        factory = lambda: build_complex_plan(scale=SCALE)
        _, plan = factory()
        trigger = SuspendTrigger("nlj0", "fill", int(0.85 * plan.buffer_tuples))
        results = {
            s: measure_suspend_overhead(factory, trigger, s)
            for s in ("all_dump", "all_goback", "lp")
        }
        assert (
            results["lp"].total_overhead
            < min(
                results["all_dump"].total_overhead,
                results["all_goback"].total_overhead,
            )
        )
        assert results["lp"].suspend_cost < results["all_dump"].suspend_cost


class TestFigure14Shape:
    def test_overhead_decreases_as_budget_grows(self):
        factory = lambda: build_left_deep_nlj(scale=SCALE)
        trigger = SuspendTrigger("nlj2", "fill", 400)
        db, plan = factory()
        ref, _ = run_reference_to_milestone(db, plan, trigger)
        overheads = []
        suspends = []
        # Measured suspend cost includes the fixed SuspendedQuery write
        # (~one control page) on top of the budgeted per-operator costs.
        sq_write = 2.5
        for budget in (1.0, 20.0, math.inf):
            r = measure_suspend_overhead(
                factory, trigger, "lp", budget=budget, reference_cost=ref
            )
            overheads.append(r.total_overhead)
            suspends.append(r.suspend_cost)
            assert (
                r.suspend_cost <= budget + sq_write + 1e-6
                or budget == math.inf
            )
        assert overheads[0] >= overheads[-1]
        assert suspends[-1] >= suspends[0]
