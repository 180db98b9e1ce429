"""Unit tests for two-phase merge sort."""

import pytest

from repro import Database, QuerySession, SuspendSpec, SuspendTrigger
from repro.engine.plan import ScanSpec, SortSpec
from repro.engine.sort import PHASE_BUILD, PHASE_MERGE
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table

from tests.conftest import reference_rows, suspend_resume_rows


def sort_db(n=250):
    db = Database()
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(n, seed=1))
    return db


def sort_plan(buffer_tuples=60):
    return SortSpec(
        ScanSpec("R", label="scan_R"),
        key_columns=(0,),
        buffer_tuples=buffer_tuples,
        label="sort",
    )


class TestSortExecution:
    def test_output_is_sorted_and_complete(self):
        db = sort_db(250)
        rows = QuerySession(db, sort_plan(60)).execute().rows
        assert len(rows) == 250
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)

    def test_single_sublist_when_buffer_fits_all(self):
        db = sort_db(50)
        session = QuerySession(db, sort_plan(100))
        session.execute()
        assert len(session.op_named("sort").sublists) == 1

    def test_sublist_count(self):
        db = sort_db(250)
        session = QuerySession(db, sort_plan(60))
        session.execute()
        assert len(session.op_named("sort").sublists) == 5  # ceil(250/60)

    def test_sublist_writes_charged(self):
        db = sort_db(200)
        before = db.disk.counters.pages_written
        QuerySession(db, sort_plan(50)).execute()
        # 200 tuples at 100/page spilled once = 2+ pages written (sublists
        # shorter than a page each still cost one page).
        assert db.disk.counters.pages_written - before >= 2

    def test_empty_input(self):
        db = sort_db(0)
        assert QuerySession(db, sort_plan()).execute().rows == []

    def test_composite_sort_key(self):
        db = sort_db(100)
        plan = SortSpec(ScanSpec("R"), key_columns=(1, 0), buffer_tuples=30)
        rows = QuerySession(db, plan).execute().rows
        keys = [(r[1], r[0]) for r in rows]
        assert keys == sorted(keys)


class TestSortCheckpoints:
    def test_checkpoint_at_each_sublist_boundary(self):
        db = sort_db(250)
        session = QuerySession(db, sort_plan(60))
        session.execute(max_rows=1)
        sort = session.op_named("sort")
        latest = session.runtime.graph.latest_checkpoint(sort.op_id)
        # open + 5 sublist boundaries + phase boundary
        assert latest.seq == 7
        assert latest.payload["phase"] == PHASE_MERGE

    def test_phase_boundary_is_materialization_point(self):
        """A contract signed during the merge phase never touches the
        child: its fulfilling checkpoint lists all sublists on disk."""
        db = sort_db(150)
        session = QuerySession(db, sort_plan(60))
        session.execute(max_rows=20)
        sort = session.op_named("sort")
        contract = sort.sign_contract(
            anchor_ckpt=session.runtime.graph.latest_checkpoint(sort.op_id)
        )
        ckpt = session.runtime.graph.checkpoint(contract.child_ckpt_id)
        assert ckpt.payload["phase"] == PHASE_MERGE
        assert len(ckpt.payload["sublists"]) == 3


class TestSortSuspendResume:
    @pytest.mark.parametrize("strategy", ["all_dump", "all_goback", "lp"])
    @pytest.mark.parametrize("point", [1, 100, 249])
    def test_equivalence(self, strategy, point):
        plan = sort_plan(60)
        ref = reference_rows(sort_db, plan)
        got = suspend_resume_rows(sort_db, plan, point, strategy)
        if got is not None:
            assert got == ref

    def test_suspend_during_build_phase(self):
        """Trigger fires while the sort buffer is mid-fill."""
        plan = sort_plan(60)
        ref = reference_rows(sort_db, plan)
        db = sort_db()
        session = QuerySession(db, plan)
        session.execute(
            suspend_when=SuspendTrigger("sort", "fill", 30)
        )
        assert session.op_named("sort").phase == PHASE_BUILD
        sq = session.suspend(SuspendSpec(strategy="lp"))
        resumed = QuerySession.resume(db, sq)
        assert resumed.execute().rows == ref

    def test_merge_phase_goback_repositions_without_rebuild(self):
        """GoBack in the merge phase re-reads a block per sublist instead
        of redoing the sort — the 'skipping' behavior for sort."""
        plan = sort_plan(60)
        db = sort_db(250)
        session = QuerySession(db, plan)
        session.execute(max_rows=100)
        before_writes = db.disk.counters.pages_written
        sq = session.suspend(SuspendSpec(strategy="all_goback"))
        resumed = QuerySession.resume(db, sq)
        resumed.execute(max_rows=1)
        # No sublists rewritten during resume.
        written = db.disk.counters.pages_written - before_writes
        assert written <= 1  # only the SuspendedQuery control page

    def test_sublists_retained_across_suspend(self):
        db = sort_db(250)
        session = QuerySession(db, sort_plan(60))
        session.execute(max_rows=10)
        handles = list(session.op_named("sort").sublists)
        sq = session.suspend(SuspendSpec(strategy="all_dump"))
        for handle in handles:
            assert db.state_store.peek(handle) is not None
