"""Unit tests for grouping/aggregation and duplicate elimination."""

import pytest

from repro import Database, QuerySession, SuspendSpec, SuspendTrigger
from repro.engine.plan import (
    DupElimSpec,
    GroupAggSpec,
    ProjectSpec,
    ScanSpec,
    SortSpec,
)
from repro.relational.datagen import BASE_SCHEMA

from tests.conftest import reference_rows, suspend_resume_rows


def group_db():
    db = Database()
    rows = [(i % 10, (i % 4) / 10, i) for i in range(200)]
    db.create_table("G", BASE_SCHEMA, rows)
    return db


def agg_plan(func="count", agg_col=2):
    return GroupAggSpec(
        child=SortSpec(ScanSpec("G"), key_columns=(0,), buffer_tuples=64, label="s"),
        group_columns=(0,),
        agg_func=func,
        agg_column=agg_col,
        label="agg",
    )


def dup_plan():
    return DupElimSpec(
        child=SortSpec(
            ProjectSpec(ScanSpec("G"), columns=(0, 1)),
            key_columns=(0, 1),
            buffer_tuples=64,
        ),
        label="dup",
    )


class TestGroupAggregate:
    def test_count_per_group(self):
        rows = QuerySession(group_db(), agg_plan("count")).execute().rows
        assert rows == [(k, 20) for k in range(10)]

    def test_sum(self):
        rows = QuerySession(group_db(), agg_plan("sum", 2)).execute().rows
        expected = {k: sum(i for i in range(200) if i % 10 == k) for k in range(10)}
        assert rows == [(k, expected[k]) for k in range(10)]

    def test_min_max(self):
        mins = QuerySession(group_db(), agg_plan("min", 2)).execute().rows
        maxs = QuerySession(group_db(), agg_plan("max", 2)).execute().rows
        assert mins == [(k, k) for k in range(10)]
        assert maxs == [(k, 190 + k) for k in range(10)]

    def test_unknown_agg_rejected(self):
        with pytest.raises(ValueError):
            QuerySession(group_db(), agg_plan("median"))

    def test_empty_input(self):
        db = Database()
        db.create_table("G", BASE_SCHEMA, [])
        assert QuerySession(db, agg_plan()).execute().rows == []

    @pytest.mark.parametrize("strategy", ["all_dump", "all_goback", "lp"])
    @pytest.mark.parametrize("point", [1, 5, 9])
    def test_suspend_resume_equivalence(self, strategy, point):
        plan = agg_plan("sum", 2)
        ref = reference_rows(group_db, plan)
        got = suspend_resume_rows(group_db, plan, point, strategy)
        if got is not None:
            assert got == ref

    def test_suspend_mid_group_preserves_partial_aggregate(self):
        """Suspend fires while a group is being accumulated; the running
        aggregate travels in the control state (Section 4)."""
        db = group_db()
        plan = agg_plan("sum", 2)
        ref = reference_rows(group_db, plan)
        session = QuerySession(db, plan)
        # Groups are 20 rows each: the sort's 65th row is the fifth of
        # group 3.
        session.execute(suspend_when=SuspendTrigger("s", "emitted", 65))
        assert session.status.value == "suspend_pending"
        agg = session.op_named("agg")
        assert agg.in_group and agg.current_key == (3,)
        first_rows = list(session.rows)
        sq = session.suspend(SuspendSpec(strategy="lp"))
        resumed = QuerySession.resume(db, sq)
        assert first_rows + resumed.execute().rows == ref


class TestDuplicateEliminate:
    def test_removes_duplicates(self):
        rows = QuerySession(group_db(), dup_plan()).execute().rows
        assert len(rows) == len(set(rows))
        assert len(rows) == 20  # 10 keys x 2 distinct u values? no: 4 u values per key appear

    def test_output_sorted_distinct(self):
        rows = QuerySession(group_db(), dup_plan()).execute().rows
        assert rows == sorted(set(rows))

    @pytest.mark.parametrize("strategy", ["all_dump", "lp"])
    def test_suspend_resume_equivalence(self, strategy):
        plan = dup_plan()
        ref = reference_rows(group_db, plan)
        got = suspend_resume_rows(group_db, plan, 7, strategy)
        if got is not None:
            assert got == ref
