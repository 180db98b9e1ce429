"""Unit tests for hash-based grouping with aggregation."""

import pytest

from repro import Database, QuerySession, SuspendSpec, SuspendTrigger
from repro.engine.plan import GroupAggSpec, HashGroupAggSpec, ScanSpec, SortSpec
from repro.relational.datagen import BASE_SCHEMA

from tests.conftest import reference_rows, suspend_resume_rows


def group_db():
    db = Database()
    rows = [(i % 13, (i % 5) / 10, i) for i in range(260)]
    db.create_table("G", BASE_SCHEMA, rows)
    return db


def hash_plan(func="count", agg_col=2, partitions=4):
    return HashGroupAggSpec(
        child=ScanSpec("G", label="g"),
        group_columns=(0,),
        agg_func=func,
        agg_column=agg_col,
        num_partitions=partitions,
        label="hagg",
    )


def sort_plan(func="count", agg_col=2):
    return GroupAggSpec(
        child=SortSpec(ScanSpec("G"), key_columns=(0,), buffer_tuples=64),
        group_columns=(0,),
        agg_func=func,
        agg_column=agg_col,
    )


class TestHashGroupAggregate:
    @pytest.mark.parametrize("func", ["count", "sum", "min", "max"])
    def test_matches_sort_based_aggregate(self, func):
        hashed = QuerySession(group_db(), hash_plan(func)).execute().rows
        sorted_ = QuerySession(group_db(), sort_plan(func)).execute().rows
        assert sorted(hashed) == sorted(sorted_)

    def test_one_row_per_group(self):
        rows = QuerySession(group_db(), hash_plan()).execute().rows
        assert len(rows) == 13
        assert len({r[0] for r in rows}) == 13

    def test_partition_writes_charged(self):
        db = group_db()
        before = db.disk.counters.pages_written
        QuerySession(db, hash_plan()).execute()
        assert db.disk.counters.pages_written >= before + 2

    def test_empty_input(self):
        db = Database()
        db.create_table("G", BASE_SCHEMA, [])
        assert QuerySession(db, hash_plan()).execute().rows == []

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QuerySession(group_db(), hash_plan(func="median"))
        with pytest.raises(ValueError):
            QuerySession(group_db(), hash_plan(partitions=0))

    def test_deterministic_output_order(self):
        first = QuerySession(group_db(), hash_plan()).execute().rows
        second = QuerySession(group_db(), hash_plan()).execute().rows
        assert first == second


class TestHashGroupAggregateSuspendResume:
    @pytest.mark.parametrize("strategy", ["all_dump", "all_goback", "lp"])
    @pytest.mark.parametrize("point", [1, 5, 11])
    def test_equivalence(self, strategy, point):
        plan = hash_plan("sum")
        ref = reference_rows(group_db, plan)
        got = suspend_resume_rows(group_db, plan, point, strategy)
        if got is not None:
            assert got == ref

    def test_suspend_during_partitioning(self):
        db = group_db()
        plan = hash_plan("sum")
        ref = reference_rows(group_db, plan)
        session = QuerySession(db, plan)
        session.execute(suspend_when=SuspendTrigger("g", "emitted", 100))
        assert session.status.value == "suspend_pending"
        assert session.op_named("hagg").input.consumed == 100
        sq = session.suspend(SuspendSpec(strategy="lp"))
        resumed = QuerySession.resume(db, sq)
        assert resumed.execute().rows == ref

    def test_double_suspend(self):
        plan = hash_plan("max")
        ref = reference_rows(group_db, plan)
        db = group_db()
        session = QuerySession(db, plan)
        rows = session.execute(max_rows=3).rows
        sq = session.suspend(SuspendSpec(strategy="all_goback"))
        session = QuerySession.resume(db, sq)
        rows += session.execute(max_rows=4).rows
        if session.status.value != "completed":
            sq2 = session.suspend(SuspendSpec(strategy="lp"))
            session = QuerySession.resume(db, sq2)
            rows += session.execute().rows
        assert rows == ref
