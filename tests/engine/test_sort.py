"""Unit tests for two-phase merge sort."""

import re
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, QuerySession, SuspendSpec, SuspendTrigger
from repro.core.lifecycle import QueryStatus
from repro.engine.plan import ScanSpec, SortSpec
from repro.engine.sort import PHASE_BUILD, PHASE_MERGE, TwoPhaseMergeSort
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.schema import Schema

from tests.conftest import reference_rows, suspend_resume_rows
from tests.oracles import linear_scan_next_batch, tuple_key


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


@contextmanager
def linear_scan():
    """Sorts built inside run the parent's tuple key and linear scan."""
    with mock.patch.object(
        TwoPhaseMergeSort, "_next_batch", linear_scan_next_batch
    ), mock.patch("repro.engine.sort.itemgetter", tuple_key):
        yield


def merge_trace(rows, bytes_per_tuple, key_columns, buffer, max_rows, strategy):
    """Sort ``rows`` in batches of ``max_rows``, suspending and resuming
    between every two batches: what the run looks like after each."""
    db = Database()
    db.create_table("T", Schema.of(["a", "b", "c"], bytes_per_tuple), rows)
    plan = SortSpec(
        ScanSpec("T"), key_columns=key_columns, buffer_tuples=buffer,
        label="sort",
    )
    session = QuerySession(db, plan)
    trace = []
    while True:
        batch = session.execute(max_rows=max_rows).rows
        ops = [op for _, op in sorted(session.runtime.ops.items())]
        trace.append({
            "rows": batch,
            "now": repr(db.now),
            "disk": db.disk.counters.snapshot(),
            "ops": [
                (op.name, op.tuples_emitted, op.tally.snapshot(),
                 # a DumpHandle's store id counts the stores made so far
                 re.sub(r"store_id=\d+", "", repr(op.control_state())))
                for op in ops
            ],
        })
        if session.status is QueryStatus.COMPLETED:
            return trace
        sq = session.suspend(SuspendSpec(strategy=strategy))
        session = QuerySession.resume(db, sq)


class TestHeapMergeMatchesTheLinearScan:
    """The heap merge against the linear scan it replaced
    (``tests/oracles.py``), with a suspend at every merge batch boundary:
    same rows, clock, disk counters, operator tallies and control state
    after every batch."""

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 5), st.integers(-2, 2)
            ),
            max_size=60,
        ),
        bytes_per_tuple=st.sampled_from([2_000, 5_000, 20_000]),
        key_columns=st.sampled_from([(0,), (2,), (0, 1), (1, 0, 2), (2, 0)]),
        buffer=st.integers(1, 25),
        max_rows=st.sampled_from([1, 2, 17, 4096]),
        strategy=st.sampled_from(["all_dump", "all_goback", "lp"]),
    )
    def test_every_batch_matches(
        self, rows, bytes_per_tuple, key_columns, buffer, max_rows, strategy
    ):
        args = (rows, bytes_per_tuple, key_columns, buffer, max_rows, strategy)
        got = merge_trace(*args)
        with linear_scan():
            want = merge_trace(*args)
        assert got == want

    def test_the_oracle_really_runs(self):
        """The patch reaches the run sort's key and the merge."""
        with linear_scan():
            session = QuerySession(sort_db(50), sort_plan(20))
            assert session.op_named("sort")._key((7, 8, 9)) == (7,)
            assert TwoPhaseMergeSort._next_batch is linear_scan_next_batch
            rows = session.execute().rows
        heap = QuerySession(sort_db(50), sort_plan(20))
        assert heap.op_named("sort")._key((7, 8, 9)) == 7
        assert heap.execute().rows == rows
