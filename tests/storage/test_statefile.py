"""Unit tests for the state store (dumps, sublists, SuspendedQuery)."""

import pytest

from repro.common.errors import StorageError
from repro.storage.disk import SimulatedDisk
from repro.storage.statefile import (
    DumpHandle,
    PayloadHold,
    PayloadOrigin,
    ScopedStateStore,
    StagedPayload,
    StateStore,
)


class TestStateStore:
    def test_dump_charges_page_writes(self):
        disk = SimulatedDisk()
        store = StateStore(disk)
        store.dump("k", [1, 2, 3], pages=4)
        assert disk.counters.pages_written == 4
        assert disk.now == pytest.approx(4 * disk.cost_model.page_write_cost)

    def test_load_charges_page_reads(self):
        disk = SimulatedDisk()
        store = StateStore(disk)
        handle = store.dump("k", ["payload"], pages=3)
        before = disk.counters.pages_read
        assert store.load(handle) == ["payload"]
        assert disk.counters.pages_read - before == 3

    def test_dump_tuples_page_math(self):
        disk = SimulatedDisk()
        store = StateStore(disk)
        handle = store.dump_tuples("k", list(range(25)), tuples_per_page=10)
        assert handle.pages == 3

    def test_dump_tuples_empty(self):
        store = StateStore(SimulatedDisk())
        handle = store.dump_tuples("k", [], tuples_per_page=10)
        assert handle.pages == 0

    def test_peek_uncharged(self):
        disk = SimulatedDisk()
        store = StateStore(disk)
        handle = store.dump("k", [1], pages=2)
        before = disk.now
        assert store.peek(handle) == [1]
        assert disk.now == before

    def test_free_releases(self):
        store = StateStore(SimulatedDisk())
        handle = store.dump("k", [1], pages=1)
        store.free(handle)
        with pytest.raises(StorageError):
            store.load(handle)

    def test_foreign_handle_rejected(self):
        disk = SimulatedDisk()
        store_a = StateStore(disk)
        store_b = StateStore(disk)
        handle = store_a.dump("k", [1], pages=1)
        with pytest.raises(StorageError):
            store_b.load(handle)

    def test_fresh_keys_are_unique(self):
        store = StateStore(SimulatedDisk())
        keys = {store.fresh_key("x") for _ in range(100)}
        assert len(keys) == 100

    def test_negative_pages_rejected(self):
        store = StateStore(SimulatedDisk())
        with pytest.raises(ValueError):
            store.dump("k", [], pages=-1)

    def test_len_and_exists(self):
        store = StateStore(SimulatedDisk())
        store.dump("a", 1, pages=0)
        assert len(store) == 1
        assert store.exists("a")
        assert not store.exists("b")


class TestFreeEdgeCases:
    def test_double_free_raises_storage_error(self):
        store = StateStore(SimulatedDisk())
        handle = store.dump("k", [1], pages=1)
        store.free(handle)
        with pytest.raises(StorageError):
            store.free(handle)

    def test_free_unknown_handle_raises_storage_error(self):
        store = StateStore(SimulatedDisk())
        bogus = DumpHandle(store_id=store._store_id, key="never", pages=1)
        with pytest.raises(StorageError):
            store.free(bogus)

    def test_freed_handle_fails_every_access_with_storage_error(self):
        store = StateStore(SimulatedDisk())
        handle = store.dump("k", [1, 2], pages=2)
        store.free(handle)
        for access in (store.load, store.peek, store.export_payload):
            with pytest.raises(StorageError):
                access(handle)

    def test_orphaned_handle_raises_storage_error_not_key_error(self):
        """A decoded image handle (store_id=-1) must fail cleanly."""
        store = StateStore(SimulatedDisk())
        orphan = DumpHandle(store_id=-1, key="dump#1", pages=3)
        with pytest.raises(StorageError):
            store.load(orphan)

    def test_resume_with_freed_dump_handle_raises_storage_error(self):
        from repro.core.lifecycle import QuerySession, SuspendSpec
        from tests.conftest import make_small_db, tiny_nlj_plan

        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        session.execute(max_rows=30)
        sq = session.suspend(SuspendSpec(strategy="all_dump"))
        handles = sq.referenced_handles()
        assert handles, "all_dump suspend must reference dumped state"
        db.state_store.free(next(iter(handles.values())))
        with pytest.raises(StorageError):
            QuerySession.resume(db, sq)


class TestExportImport:
    def test_export_payload_is_uncharged(self):
        disk = SimulatedDisk()
        store = StateStore(disk)
        handle = store.dump("k", [1, 2, 3], pages=3)
        before = disk.now
        payload, pages = store.export_payload(handle)
        assert (payload, pages) == ([1, 2, 3], 3)
        assert disk.now == before

    def test_import_payload_charges_as_a_live_import(self):
        """A payload arriving with its bytes (from an image) costs what
        one more count on the live payload costs: nothing. Reading it
        back is what a resume pays, in either case."""
        charged = []
        for payload in (None, ["rows"]):  # live, then shipped
            disk = SimulatedDisk()
            store = StateStore(disk)
            if payload is None:
                store.dump("k", ["rows"], pages=5)
            before = disk.counters.snapshot()
            handle = store.import_payload("k", payload, pages=5)
            assert store.load(handle) == ["rows"]
            charged.append(disk.counters.minus(before))
        assert charged[0] == charged[1]
        assert (charged[1].pages_written, charged[1].pages_read) == (0, 5)


class TestPayloadOrigin:
    """key -> the image section that already holds the payload's bytes:
    set by an import from a verified section and by a commit, forgotten
    by anything that could change or drop the bytes."""

    ORIGIN = PayloadOrigin("img-1", "blob-0000", "ab" * 32)

    def test_import_records_the_origin_under_its_key(self):
        store = StateStore(SimulatedDisk())
        plain = store.import_payload("a", ["rows"], pages=1)
        traced = store.import_payload(
            "k", ["rows"], pages=1, origin=self.ORIGIN
        )
        assert (plain.key, traced.key) == ("a", "k")
        assert store.origin_of("a") is None
        assert store.origin_of("k") == self.ORIGIN

    def test_scoped_view_records_it_and_tracks_the_key(self):
        store = StateStore(SimulatedDisk())
        view = ScopedStateStore(store, "q")
        view.take(PayloadHold({"k": (["rows"], 1, self.ORIGIN)}))
        assert "k" in view.keys
        assert store.origin_of("k") == self.ORIGIN
        view.release()
        assert store.origin_of("k") is None

    def test_commit_records_it_only_for_a_stored_payload(self):
        store = StateStore(SimulatedDisk())
        store.dump("k", [1], pages=1)
        assert store.origin_of("k") is None
        store.committed_to("k", self.ORIGIN)
        store.committed_to("never-dumped", self.ORIGIN)
        assert store.origin_of("k") == self.ORIGIN
        assert store.origin_of("never-dumped") is None

    @pytest.mark.parametrize("forget", ["dump", "free", "free_keys"])
    def test_redump_and_free_forget_it(self, forget):
        store = StateStore(SimulatedDisk())
        handle = store.dump("k", [1], pages=1)
        store.committed_to("k", self.ORIGIN)
        if forget == "dump":
            store.dump("k", [1], pages=1)  # same bytes, still a new write
        elif forget == "free":
            store.free(handle)
        else:
            store.free_keys(["k", "absent"])
        assert store.origin_of("k") is None
        # ... and a later payload under the same key starts without one.
        store.dump("k", [2], pages=1)
        assert store.origin_of("k") is None

    def test_origin_is_not_part_of_the_handle(self):
        """Handles are written into control records; provenance must
        never change image bytes."""
        store = StateStore(SimulatedDisk())
        handle = store.import_payload("k", [1], 1, origin=self.ORIGIN)
        assert handle == DumpHandle(handle.store_id, handle.key, 1)


class TestMaterialized:
    def test_registers_without_a_charge(self):
        disk = SimulatedDisk()
        store = StateStore(disk)
        store.dump("k", [0], pages=1)
        store.committed_to("k", TestPayloadOrigin.ORIGIN)
        before = disk.counters.snapshot()
        handle = store.materialized("k", [1, 2], pages=7)
        assert disk.counters.minus(before).pages_written == 0
        assert handle == DumpHandle(handle.store_id, "k", 7)
        assert store.peek(handle) == [1, 2]
        assert store.origin_of("k") is None  # new bytes under the key


class TestStagedAndSharedPayloads:
    """An import from an image section arrives staged (decoded on first
    read, at most once) and shares the payload of any live key the store
    already holds for the same section."""

    ORIGIN = PayloadOrigin("img-1", "blob-0000", "ab" * 32)

    @staticmethod
    def staged(payload, calls):
        def decode():
            calls.append(1)
            return payload

        return StagedPayload(decode)

    @pytest.mark.parametrize(
        "read",
        [
            StateStore.load,
            StateStore.peek,
            lambda store, h: store.export_payload(h)[0],
        ],
    )
    def test_every_read_decodes_and_only_the_first(self, read):
        store, calls = StateStore(SimulatedDisk()), []
        handle = store.import_payload("k", self.staged([1, 2], calls), 1)
        assert calls == []
        assert read(store, handle) == [1, 2]
        assert store.peek(handle) is store.load(handle)
        assert calls == [1]

    def test_a_failing_decode_fails_every_read(self):
        def decode():
            raise ValueError("malformed record")

        store = StateStore(SimulatedDisk())
        handle = store.import_payload("k", StagedPayload(decode), 1)
        for _ in range(2):
            with pytest.raises(ValueError, match="malformed"):
                store.load(handle)

    def test_import_of_a_held_section_adopts_its_payload(self):
        disk = SimulatedDisk()
        store, calls = StateStore(disk), []
        first = store.import_payload(
            "k", self.staged([1], calls), 3, origin=self.ORIGIN
        )
        before = disk.counters.snapshot()
        store.import_payload("k")  # one more count on the live payload
        live = disk.counters.minus(before)
        before = disk.counters.snapshot()
        second = store.import_payload(
            "k", self.staged([1], calls), 3, origin=self.ORIGIN
        )
        # Charged like a count on the live payload, under the same key ...
        assert disk.counters.minus(before) == live
        assert second == first
        assert store.origin_of("k") == self.ORIGIN
        # ... and one decode serves both imports.
        assert store.load(second) is store.load(first)
        assert calls == [1]

    def test_a_committed_payload_is_adopted_undecoded(self):
        store, calls = StateStore(SimulatedDisk()), []
        rows = [1, 2, 3]
        store.dump("k", rows, pages=1)
        store.committed_to("k", self.ORIGIN)
        handle = store.import_payload(
            "k", self.staged(list(rows), calls), 1, origin=self.ORIGIN
        )
        assert store.load(handle) is rows and calls == []

    def test_redump_unshares_and_free_leaves_the_other_readable(self):
        store, calls = StateStore(SimulatedDisk()), []
        a, b, c = (
            store.import_payload("k", self.staged([1], calls), 1, self.ORIGIN)
            for _ in range(3)
        )
        # One payload, three holders: each free drops one.
        store.free(a)
        store.free(b)
        assert store.load(c) == [1] and calls == [1]
        store.free(c)
        assert not store.exists("k")
        d = store.import_payload("k", self.staged([1], calls), 1, self.ORIGIN)
        assert store.load(d) == [1] and calls == [1, 1]
        # The re-dumped key no longer stands for the section.
        store.dump("k", [1], pages=1)
        with pytest.raises(StorageError, match="other bytes"):
            store.import_payload("k", self.staged([1], calls), 1, self.ORIGIN)

    @pytest.mark.parametrize(
        "live_origin, import_origin",
        [
            (None, ORIGIN),
            (ORIGIN._replace(sha256="cd" * 32), ORIGIN),
            (ORIGIN, None),
        ],
        ids=["live-without-origin", "other-digest", "import-without-origin"],
    )
    def test_importing_a_live_key_of_other_bytes_raises(
        self, live_origin, import_origin
    ):
        """A key stands for one payload for life: an import never
        silently shares a live payload it cannot prove is the same."""
        disk = SimulatedDisk()
        store = StateStore(disk)
        live = store.dump("q/sort_sublist#1", [1], pages=1)
        if live_origin is not None:
            store.committed_to("q/sort_sublist#1", live_origin)
        before = disk.counters.snapshot()
        with pytest.raises(StorageError, match="q/sort_sublist#1"):
            store.import_payload("q/sort_sublist#1", [2], 1, import_origin)
        assert disk.counters.minus(before).pages_written == 0
        assert store.peek(live) == [1]

    def test_another_store_shares_nothing(self):
        one, other, calls = (
            StateStore(SimulatedDisk()),
            StateStore(SimulatedDisk()),
            [],
        )
        a = one.import_payload("k", self.staged([1], calls), 1, self.ORIGIN)
        b = other.import_payload("k", self.staged([1], calls), 1, self.ORIGIN)
        assert one.load(a) is not other.load(b) and calls == [1, 1]


class TestKeyCounters:
    """A scope's key counters are plain ints a suspend records, a resume
    continues, and the scope's last open session takes with it."""

    def test_counters_are_per_scope_and_prefix(self):
        store = StateStore(SimulatedDisk())
        keys = [store.fresh_key(p, scope="q") for p in ("a", "b", "a")]
        assert keys == ["q/a#1", "q/b#1", "q/a#2"]
        assert [store.fresh_key(p) for p in ("a", "b")] == ["a#1", "b#2"]
        assert store.key_counters("q") == {"a": 2, "b": 1}
        assert store.key_counters(None) == {"": 2}
        assert store.key_counters("other") == {}

    def test_carry_takes_the_larger_value(self):
        store = StateStore(SimulatedDisk())
        store.fresh_key("a", scope="q")
        store.fresh_key("a", scope="q")
        store.carry_key_counters("q", {"a": 1, "b": 5})
        assert store.fresh_key("a", scope="q") == "q/a#3"
        assert store.fresh_key("b", scope="q") == "q/b#6"
        store.carry_key_counters(None, {"": 7})
        assert store.fresh_key("x") == "x#8"

    def test_the_last_session_of_a_scope_takes_its_counters(self):
        store = StateStore(SimulatedDisk())
        one, other = ScopedStateStore(store, "q"), ScopedStateStore(store, "q")
        unscoped = ScopedStateStore(store, None)
        for view in (one, unscoped):
            store.dump(view.fresh_key("a"), [1], pages=1)
            view.release()
            store.close_scope(view.scope)
        assert len(store) == 0
        assert store.key_counters("q") == {"a": 1}  # ``other`` is open
        store.close_scope(other.scope)
        assert store.key_counters("q") == {}
        assert store.key_counters(None) == {"": 1}  # store-global: kept
        assert store._open_scopes == {}

    def test_a_session_closes_its_scope_once(self):
        from repro.core.lifecycle import QuerySession
        from tests.conftest import make_small_db, tiny_nlj_plan

        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan(), name="q")
        assert db.state_store._open_scopes == {"q": 1}
        session.execute()
        session.close()
        session.close()
        assert db.state_store._open_scopes == {}

    def test_a_live_key_is_never_drawn_again(self):
        """A suspended session's payloads outlive its scope's counters
        (they went with its close): a new session of the scope skips
        them, and a resume of the suspended one continues past them."""
        store = StateStore(SimulatedDisk())
        suspended = ScopedStateStore(store, "q")
        store.dump(suspended.fresh_key("a"), [1], pages=1)
        store.dump(suspended.fresh_key("a"), [1], pages=1)
        carried = store.key_counters("q")
        store.close_scope("q")
        store.free_keys(["q/a#1"])
        fresh = ScopedStateStore(store, "q")
        assert [fresh.fresh_key("a") for _ in range(2)] == ["q/a#1", "q/a#3"]
        store.carry_key_counters("q", carried)
        assert fresh.fresh_key("a") == "q/a#4"
