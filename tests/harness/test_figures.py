"""Smoke tests for the figure-series library at reduced scale."""

import math

import pytest

from repro.harness import figures


class TestFigureSeries:
    def test_table2_small_chains(self):
        rows = figures.table2_rows(plan_sizes=(3, 5))
        assert [r["operators"] for r in rows] == [3, 5]
        assert all(r["optimize_ms"] > 0 for r in rows)
        assert all(r["mip_variables"] > 0 for r in rows)
        assert set(rows[0]) == {
            "operators", "optimize_ms", "mip_variables", "paper_ms",
        }

    def test_fig8_reduced(self):
        rows = figures.fig8_rows(selectivities=(0.1, 0.9), scale=400)
        assert len(rows) == 2
        assert rows[0]["all_dump_overhead"] > 0
        # LP matches the better purist at both ends.
        for r in rows:
            best = min(r["all_dump_overhead"], r["all_goback_overhead"])
            assert r["lp_overhead"] <= best + 1.0

    def test_fig9_reduced(self):
        rows = figures.fig9_rows(fill_fractions=(0.2, 0.9), scale=400)
        assert rows[0]["buffer_filled"] == "20%"
        assert (
            rows[1]["all_dump_suspend"] > rows[0]["all_dump_suspend"]
        )

    def test_fig10_reduced(self):
        rows = figures.fig10_rows(
            selectivities=(0.1, 1.0), fill_fractions=(0.5,), scale=400
        )
        winners = {r["selectivity"]: r["winner"] for r in rows}
        assert winners[0.1] == "dump"
        assert winners[1.0] == "goback"

    def test_fig12_reduced(self):
        rows = figures.fig12_rows(suspend_points=(1_000, 6_500), scale=400)
        assert rows[0]["online_choice"] == "dump"
        assert rows[1]["online_choice"] == "goback"
        assert all(r["static_choice"] == "goback" for r in rows)

    def test_fig13_reduced(self):
        results, names = figures.fig13_results(scale=400)
        assert set(results) == {"all_dump", "all_goback", "lp"}
        assert len(names) == 10
        assert results["lp"].total_overhead <= min(
            results["all_dump"].total_overhead,
            results["all_goback"].total_overhead,
        )

    def test_fig14_reduced(self):
        rows = figures.fig14_rows(budgets=(1.0, math.inf), scale=400)
        numeric = [
            r for r in rows if r["total_overhead"] != "infeasible"
        ]
        assert numeric
        assert numeric[-1]["budget"] == "unlimited"

    def test_fig15_and_ex10_exact(self):
        rows, choice = figures.fig15_rows()
        assert {r["plan"] for r in rows} == {"HHJ", "SMJ"}
        assert choice.flipped
        rows, crossover = figures.ex10_rows(suspend_points=(0, 80_000))
        assert crossover == pytest.approx(16_020)
