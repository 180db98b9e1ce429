"""Unit tests for simple (Grace) and hybrid hash joins."""

import pytest

from repro import Database, QuerySession, SuspendSpec, SuspendTrigger
from repro.durability import codec2
from repro.engine.plan import (
    FilterSpec,
    HybridHashJoinSpec,
    ScanSpec,
    SimpleHashJoinSpec,
)
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import EquiJoinCondition, UniformSelect

from tests.conftest import make_small_db, reference_rows, suspend_resume_rows

COND = EquiJoinCondition(0, 0, modulus=40)


def shj_plan(partitions=4):
    return SimpleHashJoinSpec(
        build=FilterSpec(ScanSpec("R"), UniformSelect(1, 0.5), label="f"),
        probe=ScanSpec("S"),
        condition=COND,
        num_partitions=partitions,
        label="hj",
    )


def hhj_plan(partitions=4, memory=2):
    return HybridHashJoinSpec(
        build=FilterSpec(ScanSpec("R"), UniformSelect(1, 0.5), label="f"),
        probe=ScanSpec("S"),
        condition=COND,
        num_partitions=partitions,
        memory_partitions=memory,
        label="hj",
    )


def oracle_join(db, selectivity=0.5, modulus=40):
    build = [r for r in db.catalog.table("R").all_rows() if r[1] < selectivity]
    probe = list(db.catalog.table("S").all_rows())
    return sorted(
        b + p for b in build for p in probe if b[0] % modulus == p[0] % modulus
    )


class TestHashJoinExecution:
    @pytest.mark.parametrize("plan_fn", [shj_plan, hhj_plan])
    def test_matches_oracle(self, plan_fn):
        db = make_small_db()
        rows = QuerySession(db, plan_fn()).execute().rows
        assert sorted(rows) == oracle_join(db)

    def test_simple_and_hybrid_same_multiset(self):
        db1, db2 = make_small_db(), make_small_db()
        simple = QuerySession(db1, shj_plan()).execute().rows
        hybrid = QuerySession(db2, hhj_plan()).execute().rows
        assert sorted(simple) == sorted(hybrid)

    def test_hybrid_does_less_io_than_simple(self):
        """Memory partitions never spill, so hybrid charges less I/O."""
        db1, db2 = make_small_db(), make_small_db()
        QuerySession(db1, shj_plan()).execute()
        QuerySession(db2, hhj_plan(memory=3)).execute()
        assert db2.disk.counters.pages_written < db1.disk.counters.pages_written

    def test_all_memory_hybrid_writes_nothing_for_state(self):
        db = make_small_db()
        before = db.disk.counters.pages_written
        QuerySession(db, hhj_plan(partitions=2, memory=2)).execute()
        assert db.disk.counters.pages_written == before

    def test_rejects_bad_partition_counts(self):
        db = make_small_db()
        with pytest.raises(ValueError):
            QuerySession(db, shj_plan(partitions=0))
        with pytest.raises(ValueError):
            QuerySession(db, hhj_plan(partitions=2, memory=5))


class TestHashJoinSuspendResume:
    @pytest.mark.parametrize("plan_fn", [shj_plan, hhj_plan])
    @pytest.mark.parametrize("strategy", ["all_dump", "all_goback", "lp"])
    @pytest.mark.parametrize("point", [1, 30, 200])
    def test_equivalence(self, plan_fn, strategy, point):
        plan = plan_fn()
        ref = reference_rows(make_small_db, plan)
        got = suspend_resume_rows(make_small_db, plan, point, strategy)
        if got is not None:
            assert got == ref

    def test_partition_boundary_checkpoint_enables_cheap_goback(self):
        """GoBack in the join phase reloads the current partition instead
        of re-consuming the children (the materialization point)."""
        db = make_small_db()
        plan = shj_plan()
        session = QuerySession(db, plan)
        session.execute(max_rows=30)
        scan_reads_before = db.disk.counters.pages_read
        sq = session.suspend(SuspendSpec(strategy="all_goback"))
        resumed = QuerySession.resume(db, sq)
        resumed.execute(max_rows=1)
        redo_reads = db.disk.counters.pages_read - scan_reads_before
        # Reloading one partition of a 300/200-tuple join is a handful of
        # pages; re-consuming both children would be ~5+.
        assert redo_reads < 10

    def test_suspend_during_partition_phase(self):
        """Suspension while partitioning (no output yet)."""
        db = make_small_db()
        plan = shj_plan()
        ref = reference_rows(make_small_db, plan)
        session = QuerySession(db, plan)
        session.execute(suspend_when=SuspendTrigger("f", "emitted", 50))
        assert session.status.value == "suspend_pending"
        assert session.op_named("hj").build.consumed == 50
        sq = session.suspend(SuspendSpec(strategy="lp"))
        resumed = QuerySession.resume(db, sq)
        assert resumed.execute().rows == ref


class TestSnapshotsLeaveOutFinishedPartitions:
    """From the phase boundary on a spilled partition is a state-store
    payload, and a join-phase checkpoint or dump entry carries the
    handles from the current partition on; the ones the probe is done
    with are empty lists."""

    @staticmethod
    def snapshot(entry):
        """``(current partition, disk state)`` of the entry's snapshot."""
        if entry.kind == "goback":
            payload = entry.ckpt_payload
            if payload.get("__full_state__"):
                return payload["control"]["current_partition"], payload["heap"]
            return payload["current_partition"], payload
        return entry.target_control["current_partition"], entry.current_control

    @staticmethod
    def spilled_partitions(plan):
        """Every spilled partition's rows, read just past the boundary."""
        db = make_small_db()
        session = QuerySession(db, plan)
        session.execute(max_rows=1)
        join = session.runtime.op_named("hj")
        return {
            side: [
                db.state_store.peek(part) if part else []
                for part in parts.disk
            ]
            for side, parts in (
                ("build_disk", join.build), ("probe_disk", join.probe)
            )
        }

    @pytest.mark.parametrize("plan_fn", [shj_plan, hhj_plan])
    @pytest.mark.parametrize("strategy", ["all_dump", "all_goback", "lp"])
    def test_hops_through_the_join_phase(self, plan_fn, strategy):
        plan = plan_fn()
        ref = reference_rows(make_small_db, plan)
        full = self.spilled_partitions(plan)

        db = make_small_db()
        session = QuerySession(db, plan)
        rows, dropped = [], 0
        while True:
            result = session.execute(max_rows=40)
            rows.extend(result.rows)
            if session.status.value == "completed":
                break
            op_id = session.runtime.op_named("hj").op_id
            sq = session.suspend(SuspendSpec(strategy=strategy))
            entry = sq.entry(op_id)
            current, disk = self.snapshot(entry)
            for side, partitions in full.items():
                for p, kept in enumerate(disk[side]):
                    if p < current or not partitions[p]:
                        assert kept == []
                        dropped += bool(partitions[p])
                    else:
                        # A handle, never rows — and nothing the dump
                        # itself holds: handles inside a dumped payload
                        # would not be exported or re-homed.
                        assert db.state_store.peek(kept) == partitions[p]
                        assert kept.key in sq.referenced_handles()
            if entry.dump_handle is not None:
                assert not set(full) & set(
                    db.state_store.peek(entry.dump_handle)
                )
            session = QuerySession.resume(db, sq)
        assert rows == ref
        assert dropped > 0

    @pytest.mark.parametrize(
        "strategy", ["all_dump", "all_goback", "lp"]
    )
    def test_a_resumed_join_holds_the_heap_an_uninterrupted_one_does(
        self, strategy
    ):
        """A hybrid join's memory partitions are heap state the live
        operator counts until it closes, finished or not; checkpoints
        carry all of them, so a resumed join is charged for the same
        heap as one that was never suspended."""
        plan = hhj_plan()
        solo = QuerySession(make_small_db(), plan)
        db = make_small_db()
        session = QuerySession(db, plan)
        rows, past_memory = [], 0
        while True:
            rows.extend(session.execute(max_rows=40).rows)
            solo.execute(max_rows=40)
            if session.status.value == "completed":
                break
            session = QuerySession.resume(
                db, session.suspend(SuspendSpec(strategy=strategy))
            )
            join, twin = (
                s.runtime.op_named("hj") for s in (session, solo)
            )
            assert join.current_partition == twin.current_partition
            assert join.heap_tuples() == twin.heap_tuples()
            assert join.heap_pages() == twin.heap_pages()
            past_memory += join.current_partition >= join.memory_partitions
        assert rows == solo.rows
        assert past_memory > 0


class TestDumpedHashTable:
    """A join-phase DumpState carries the loaded build partition's hash
    table as one row block; a resume rebuilds the same table from it,
    charging nothing for the rebuild."""

    @pytest.mark.parametrize("plan_fn", [shj_plan, hhj_plan])
    def test_the_table_round_trips(self, plan_fn):
        db = make_small_db()
        session = QuerySession(db, plan_fn())
        session.execute(max_rows=40)
        join = session.op_named("hj")
        table = list(join._hash_table.items())
        assert join.phase == "join" and any(len(rows) > 1 for _, rows in table)

        sq = session.suspend(SuspendSpec(strategy="all_dump"))
        entry = sq.entry(join.op_id)
        payload = db.state_store.peek(entry.dump_handle)
        flat = [row for _, rows in table for row in rows]
        assert payload["hash_rows"] == flat
        assert codec2.decode_bytes(codec2.encode_bytes(payload)) == payload

        resumed = QuerySession.resume(db, sq).op_named("hj")
        assert list(resumed._hash_table.items()) == table
        now, tally = db.now, resumed.tally.snapshot()
        resumed._restore_full_state(
            {**payload, **entry.current_control}, entry.target_control
        )
        assert list(resumed._hash_table.items()) == table
        assert (db.now, resumed.tally) == (now, tally)

    def test_the_row_block_is_smaller_than_the_table(self):
        db = make_small_db()
        session = QuerySession(db, shj_plan())
        session.execute(max_rows=40)
        join = session.op_named("hj")
        flat = join._heap_state_payload()["hash_rows"]
        as_dict = {k: list(v) for k, v in join._hash_table.items()}
        assert len(codec2.encode_bytes(flat)) < len(
            codec2.encode_bytes(as_dict)
        )
