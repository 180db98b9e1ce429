"""Unit tests for the SuspendedQuery structure."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, ImageStore, QuerySession, SuspendSpec, SuspendTrigger
from repro.common.errors import StorageError
from repro.core.suspended_query import (
    KIND_DUMP,
    KIND_GOBACK,
    OpSuspendEntry,
    SuspendedQuery,
    _iter_handles,
)
from repro.core.strategies import SuspendPlan
from repro.storage.statefile import DumpHandle

from tests.conftest import make_small_db, resume_to_end, tiny_nlj_plan


class TestOpSuspendEntry:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            OpSuspendEntry(op_id=0, kind="teleport", target_control={})

    def test_nominal_bytes_grow_with_saved_rows(self):
        plain = OpSuspendEntry(0, KIND_DUMP, {"a": 1})
        saved = OpSuspendEntry(0, KIND_DUMP, {"a": 1}, saved_rows=[(1,)] * 5)
        assert saved.nominal_bytes() - plain.nominal_bytes() == 5 * 200

    def test_nominal_bytes_include_ckpt_payload(self):
        bare = OpSuspendEntry(0, KIND_GOBACK, {}, ckpt_payload=None)
        loaded = OpSuspendEntry(
            0, KIND_GOBACK, {}, ckpt_payload={"sublists": [1, 2, 3]}
        )
        assert loaded.nominal_bytes() > bare.nominal_bytes()


class TestSuspendedQuery:
    def test_duplicate_entry_rejected(self):
        sq = SuspendedQuery(plan_spec=None, suspend_plan=SuspendPlan())
        sq.add_entry(OpSuspendEntry(0, KIND_DUMP, {}))
        with pytest.raises(StorageError):
            sq.add_entry(OpSuspendEntry(0, KIND_DUMP, {}))

    def test_missing_entry_rejected(self):
        sq = SuspendedQuery(plan_spec=None, suspend_plan=SuspendPlan())
        with pytest.raises(StorageError):
            sq.entry(3)

    def test_structure_is_picklable(self):
        """The structure can be written to disk / shipped to a replica."""
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        session.execute(max_rows=20)
        sq = session.suspend(SuspendSpec(strategy="all_goback"))
        clone = pickle.loads(pickle.dumps(sq))
        assert clone.root_rows_emitted == sq.root_rows_emitted
        assert set(clone.entries) == set(sq.entries)

    def test_nominal_bytes_small_for_goback_plans(self):
        """All-GoBack suspension writes control state only: the whole
        SuspendedQuery is a few KB even with a large buffer in play."""
        db = make_small_db()
        session = QuerySession(
            db, tiny_nlj_plan(selectivity=1.0, buffer_tuples=250)
        )
        session.execute(
            suspend_when=SuspendTrigger("nlj", "fill", 250)
        )
        sq = session.suspend(SuspendSpec(strategy="all_goback"))
        assert sq.nominal_bytes() < 5_000

    def test_referenced_handles_walks_nested_state(self):
        sq = SuspendedQuery(plan_spec=None, suspend_plan=SuspendPlan())
        sq.add_entry(
            OpSuspendEntry(
                op_id=0,
                kind=KIND_DUMP,
                target_control={"sublists": [DumpHandle(1, "sub#1", 2)]},
                dump_handle=DumpHandle(1, "dump#1", 3),
            )
        )
        assert set(sq.referenced_handles()) == {"sub#1", "dump#1"}


class TestMigrationPayloads:
    def test_export_import_roundtrip_to_replica(self, tmp_path):
        """The Grid scenario: dump payloads travel in a durable image
        and are re-homed on the replica, for what a resume in place of
        the same query charges."""
        db = make_small_db()
        plan = tiny_nlj_plan()
        ref = QuerySession(make_small_db(), plan).execute().rows

        session = QuerySession(db, plan)
        first = session.execute(max_rows=20)
        sq = session.suspend(SuspendSpec(strategy="all_dump"))
        images = ImageStore(str(tmp_path))
        images.save(sq, db.state_store, image_id="q")

        replica = db.replicate()
        rest, charged = resume_to_end(replica, images.load("q"))
        assert (rest, charged) == resume_to_end(db, sq)
        assert first.rows + rest == ref

    def test_import_without_payload_rejected(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan(selectivity=1.0))
        session.execute(max_rows=20)
        sq = session.suspend(SuspendSpec(strategy="all_dump"))
        replica = db.replicate()
        # the payloads stayed behind: resume on the replica must fail loudly
        with pytest.raises(StorageError):
            QuerySession.resume(replica, sq)


def iter_handles_reference(obj):
    """The recursive walk ``_iter_handles`` replaced, kept as its oracle."""
    if isinstance(obj, DumpHandle):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from iter_handles_reference(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from iter_handles_reference(value)


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.binary(max_size=3),
)
HANDLES = st.builds(
    DumpHandle, st.just(1), st.sampled_from(["a#1", "b#2", "c#3"]), st.just(2)
)
#: Control state as operators build it: dicts, lists and tuples (rows of
#: scalar cells included) with handles at any depth.
NESTED = st.recursive(
    SCALARS | HANDLES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(SCALARS, max_size=4).map(tuple),
        # a partition: a list of nothing but rows, a handle in some cell
        st.lists(st.lists(SCALARS | HANDLES, max_size=3).map(tuple), max_size=4),
        st.dictionaries(st.text(max_size=2), inner, max_size=4),
    ),
    max_leaves=30,
)


class TestHandleWalks:
    @settings(max_examples=300, deadline=None)
    @given(NESTED)
    def test_iterative_walk_equals_the_recursive_reference(self, obj):
        assert list(_iter_handles(obj)) == list(iter_handles_reference(obj))
