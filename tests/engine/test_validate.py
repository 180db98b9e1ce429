"""Unit tests for static plan validation and memory accounting."""

import pytest

from repro import QuerySession, SuspendSpec, SuspendTrigger
from repro.engine.plan import (
    DupElimSpec,
    FilterSpec,
    GroupAggSpec,
    MergeJoinSpec,
    NLJSpec,
    ProjectSpec,
    ScanSpec,
    SimpleHashJoinSpec,
    SortSpec,
)
from repro.engine.validate import PlanValidationError, validate_plan_spec
from repro.relational.expressions import EquiJoinCondition, UniformSelect

from tests.conftest import make_small_db, tiny_nlj_plan, tiny_smj_plan


class TestMergeJoinValidation:
    def test_sorted_inputs_accepted(self):
        validate_plan_spec(tiny_smj_plan())

    def test_unsorted_input_rejected(self):
        plan = MergeJoinSpec(
            left=ScanSpec("R"),
            right=SortSpec(ScanSpec("S"), key_columns=(0,), buffer_tuples=10),
            condition=EquiJoinCondition(0, 0),
        )
        with pytest.raises(PlanValidationError, match="left input"):
            validate_plan_spec(plan)

    def test_sorted_tables_whitelist(self):
        plan = MergeJoinSpec(
            left=SortSpec(ScanSpec("R"), key_columns=(0,), buffer_tuples=10),
            right=ScanSpec("S"),
            condition=EquiJoinCondition(0, 0),
        )
        with pytest.raises(PlanValidationError):
            validate_plan_spec(plan)
        validate_plan_spec(plan, sorted_tables={"S"})

    def test_modulus_join_rejected(self):
        plan = MergeJoinSpec(
            left=SortSpec(ScanSpec("R"), key_columns=(0,), buffer_tuples=10),
            right=SortSpec(ScanSpec("S"), key_columns=(0,), buffer_tuples=10),
            condition=EquiJoinCondition(0, 0, modulus=5),
        )
        with pytest.raises(PlanValidationError, match="modulus"):
            validate_plan_spec(plan)

    def test_sort_on_wrong_column_rejected(self):
        plan = MergeJoinSpec(
            left=SortSpec(ScanSpec("R"), key_columns=(1,), buffer_tuples=10),
            right=SortSpec(ScanSpec("S"), key_columns=(0,), buffer_tuples=10),
            condition=EquiJoinCondition(0, 0),
        )
        with pytest.raises(PlanValidationError):
            validate_plan_spec(plan)

    def test_filter_preserves_order(self):
        plan = MergeJoinSpec(
            left=FilterSpec(
                SortSpec(ScanSpec("R"), key_columns=(0,), buffer_tuples=10),
                UniformSelect(1, 0.5),
            ),
            right=SortSpec(ScanSpec("S"), key_columns=(0,), buffer_tuples=10),
            condition=EquiJoinCondition(0, 0),
        )
        validate_plan_spec(plan)


class TestAggregateAndNLJValidation:
    def test_group_agg_requires_sorted_child(self):
        bad = GroupAggSpec(
            child=ScanSpec("R"), group_columns=(0,), agg_func="count",
            agg_column=0,
        )
        with pytest.raises(PlanValidationError):
            validate_plan_spec(bad)
        good = GroupAggSpec(
            child=SortSpec(ScanSpec("R"), key_columns=(0,), buffer_tuples=8),
            group_columns=(0,),
            agg_func="count",
            agg_column=0,
        )
        validate_plan_spec(good)

    def test_dup_elim_requires_sorted_child(self):
        with pytest.raises(PlanValidationError):
            validate_plan_spec(DupElimSpec(child=ScanSpec("R")))

    def test_nlj_inner_must_be_rewindable(self):
        bad = NLJSpec(
            outer=ScanSpec("R"),
            inner=SimpleHashJoinSpec(
                build=ScanSpec("S"),
                probe=ScanSpec("S"),
                condition=EquiJoinCondition(0, 0),
            ),
            condition=EquiJoinCondition(0, 0),
            buffer_tuples=10,
        )
        with pytest.raises(PlanValidationError, match="rewindable"):
            validate_plan_spec(bad)
        validate_plan_spec(tiny_nlj_plan())

    def test_project_over_scan_is_rewindable_inner(self):
        plan = NLJSpec(
            outer=ScanSpec("R"),
            inner=ProjectSpec(ScanSpec("S"), columns=(0,)),
            condition=EquiJoinCondition(0, 0),
            buffer_tuples=10,
        )
        validate_plan_spec(plan)


class TestMemoryAccounting:
    def test_memory_grows_with_buffer_and_releases_on_suspend(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan(buffer_tuples=200))
        assert session.memory_in_use() == 0
        session.execute(
            suspend_when=SuspendTrigger("nlj", "fill", 150)
        )
        held = session.memory_in_use()
        assert held >= 2 * db.cost_model.page_bytes  # 150 tuples = 2 pages
        session.suspend(SuspendSpec(strategy="all_dump"))
        assert session.memory_in_use() == 0

    def test_goback_suspend_also_releases_memory(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan(buffer_tuples=200))
        session.execute(
            suspend_when=SuspendTrigger("nlj", "fill", 150)
        )
        session.suspend(SuspendSpec(strategy="all_goback"))
        assert session.memory_in_use() == 0
