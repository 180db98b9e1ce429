"""Unit tests for the online suspend-plan optimizer (Section 5)."""

import math

import pytest

from repro import QuerySession, SuspendTrigger
from repro.common.errors import SuspendBudgetInfeasibleError
from repro.core.costs import build_cost_model
from repro.core.optimizer import (
    choose_suspend_plan,
    estimate_plan_cost,
    optimal_plan,
)
from repro.core.strategies import Strategy, validate_suspend_plan

from tests.conftest import make_small_db, tiny_nlj_plan, tiny_smj_plan
from tests.oracles import enumerate_valid_plans, exhaustive_best_plan


def session_at(plan, point):
    db = make_small_db()
    session = QuerySession(db, plan)
    session.execute(max_rows=point)
    return session


class TestCostModel:
    def test_every_operator_has_dump_costs(self):
        session = session_at(tiny_nlj_plan(), 20)
        model = build_cost_model(session.runtime)
        assert set(model.d_s) == set(session.runtime.ops)
        assert set(model.d_r) == set(session.runtime.ops)

    def test_links_cover_chain_from_every_stateful_anchor(self):
        session = session_at(tiny_smj_plan(), 20)
        model = build_cost_model(session.runtime)
        anchors = {j for (_, j) in model.links}
        stateful_ids = {
            op.op_id for op in session.runtime.ops.values() if op.STATEFUL
        }
        assert anchors == stateful_ids

    def test_goback_suspend_cost_negligible(self):
        """g^s is control state only — orders of magnitude below d^s for
        an operator holding real heap state."""
        session = session_at(tiny_nlj_plan(selectivity=1.0, buffer_tuples=200), 0)
        db_session = session
        db_session.execute(
            suspend_when=SuspendTrigger("nlj", "fill", 200)
        )
        model = build_cost_model(session.runtime)
        nlj = session.op_named("nlj").op_id
        assert model.g_s[(nlj, nlj)] < model.d_s[nlj] / 2

    def test_stateless_cannot_dump_under_chain(self):
        session = session_at(tiny_nlj_plan(), 20)
        model = build_cost_model(session.runtime)
        filt = session.op_named("filter").op_id
        nlj = session.op_named("nlj").op_id
        assert (filt, nlj) in model.cannot_dump_under


class TestLPPlan:
    @pytest.mark.parametrize("point", [1, 40, 200])
    def test_lp_matches_exhaustive(self, point):
        for plan in (tiny_nlj_plan(), tiny_smj_plan()):
            session = session_at(plan, point)
            if session.status.value == "completed":
                continue
            model = build_cost_model(session.runtime)
            lp = estimate_plan_cost(optimal_plan(model), model)
            ex = estimate_plan_cost(exhaustive_best_plan(model), model)
            assert lp.total == pytest.approx(ex.total)

    @pytest.mark.parametrize("budget", [5.0, 15.0, 60.0])
    def test_budget_respected_and_optimal(self, budget):
        session = session_at(tiny_nlj_plan(), 40)
        model = build_cost_model(session.runtime)
        try:
            lp = optimal_plan(model, budget=budget)
        except SuspendBudgetInfeasibleError:
            with pytest.raises(SuspendBudgetInfeasibleError):
                exhaustive_best_plan(model, budget=budget)
            return
        cost = estimate_plan_cost(lp, model)
        assert cost.suspend <= budget + 1e-9
        ex = estimate_plan_cost(
            exhaustive_best_plan(model, budget=budget), model
        )
        assert cost.total == pytest.approx(ex.total)

    def test_zero_budget_infeasible(self):
        session = session_at(tiny_nlj_plan(), 40)
        model = build_cost_model(session.runtime)
        with pytest.raises(SuspendBudgetInfeasibleError):
            optimal_plan(model, budget=0.0)

    def test_lp_plan_is_valid(self):
        session = session_at(tiny_smj_plan(), 30)
        model = build_cost_model(session.runtime)
        plan = optimal_plan(model)
        validate_suspend_plan(plan, model.topology())

    def test_tight_budget_prefers_goback(self):
        """With a budget below the dump cost the LP must choose GoBack for
        the heap-holding operator (Figure 14's low-budget regime)."""
        session = session_at(tiny_nlj_plan(selectivity=0.9, buffer_tuples=200), 0)
        session.execute(
            suspend_when=SuspendTrigger("nlj", "fill", 200)
        )
        model = build_cost_model(session.runtime)
        nlj = session.op_named("nlj").op_id
        tight = optimal_plan(model, budget=model.d_s[nlj] * 0.5)
        assert tight.decisions[nlj].strategy is Strategy.GOBACK


class TestEnumeration:
    def test_every_enumerated_plan_is_valid(self):
        session = session_at(tiny_smj_plan(), 30)
        model = build_cost_model(session.runtime)
        plans = list(enumerate_valid_plans(model))
        assert len(plans) >= 4
        # distinct decision vectors
        frozen = {
            tuple(sorted((k, str(v)) for k, v in p.decisions.items()))
            for p in plans
        }
        assert len(frozen) == len(plans)


class TestChooseSuspendPlan:
    def test_all_strategies_produce_valid_plans(self):
        session = session_at(tiny_nlj_plan(), 40)
        for strategy in ("lp", "all_dump", "all_goback"):
            plan = choose_suspend_plan(session.runtime, strategy=strategy)
            validate_suspend_plan(
                plan, build_cost_model(session.runtime).topology()
            )

    def test_unknown_strategy_rejected(self):
        session = session_at(tiny_nlj_plan(), 40)
        for strategy in ("bogus", "dp", "exhaustive"):
            with pytest.raises(ValueError):
                choose_suspend_plan(session.runtime, strategy=strategy)
