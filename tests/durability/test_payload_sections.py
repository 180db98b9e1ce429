"""A payload section is encoded once, decoded only when read, and decoded
at most once per state store.

Spilled hash partitions are payload sections of their own (written by the
first image, referenced by every later delta); ``ImageStore.load``
verifies every section but decodes none; the state store decodes a staged
payload on its first read, and an import of a key it already holds for
the same section shares that payload.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.core.lifecycle import QuerySession, SuspendSpec
from repro.durability import ImageStore, build_recipe, codec2
from repro.durability.format import CONTROL_NAME_V2, ImageFormatError
from repro.engine.plan import HybridHashJoinSpec, ScanSpec
from repro.engine.runtime import SuspendTrigger
from repro.relational.expressions import EquiJoinCondition
from repro.storage.statefile import DumpHandle
from tests.conftest import flip_byte, make_small_db
from tests.durability.test_recovery import restamped_copy

PLAN = HybridHashJoinSpec(
    build=ScanSpec("R", label="scan_R"),
    probe=ScanSpec("S", label="scan_S"),
    condition=EquiJoinCondition(0, 0, modulus=700),
    num_partitions=8,
    memory_partitions=2,
    label="hj",
)


#: GoBack wherever there is a checkpoint, so an image taken at a
#: partition boundary holds partitions and control state only (elsewhere
#: it adds a dump of the current hash table: heap state, which does
#: change from suspend to suspend).
GOBACK = SuspendSpec(strategy="all_goback")


def join_db():
    return make_small_db(r_tuples=1_400, s_tuples=1_600)


def run_into(session, partition):
    """Execute until the join enters ``partition``. A suspend there goes
    back to the boundary checkpoint just taken, which still names the
    partition before."""
    while session.op_named("hj").current_partition < partition:
        session.execute(max_rows=1)
    return session.rows


def mid_probe(plan=PLAN):
    """``(db, session)`` of the join stopped as it enters its fourth
    partition: past the memory partitions, four spilled ones still ahead
    and the third still named — six partitions, twelve sections."""
    db = join_db()
    session = QuerySession(db, plan, name="q")
    run_into(session, 3)
    return db, session


def reference():
    return QuerySession(join_db(), PLAN).execute().rows


@pytest.fixture
def decoded_sections(monkeypatch):
    """Keys of the payload sections decoded so far (control records are
    not counted), observed where ``bench/layers.py`` observes them."""
    keys = []
    real = codec2.decode_bytes

    def decode_bytes(data):
        value = real(data)
        if isinstance(value, dict) and "payload" in value:
            keys.append(value["key"])
        return value

    monkeypatch.setattr(codec2, "decode_bytes", decode_bytes)
    return keys


def section_of(store, image_id, key_suffix):
    """File name of the local section whose key ends in ``key_suffix``."""
    (name,) = [
        b["file"]
        for b in store.manifest(image_id)["blobs"]
        if b["key"].endswith(key_suffix)
    ]
    return name


class TestDecodedOnlyWhenRead:
    def test_a_slice_decodes_the_partition_it_reads(
        self, tmp_path, decoded_sections
    ):
        store = ImageStore(str(tmp_path))
        db, session = mid_probe()
        prefix = list(session.rows)
        session.suspend(SuspendSpec(persist_to=store, image_id="first"))
        # Partitions 2..7, both sides: the finished ones are not in it.
        assert store.info("first").local_blobs == 12

        loaded = store.load("first")
        assert decoded_sections == []  # verified, staged, not decoded
        resumed = QuerySession.resume(join_db(), loaded, name="q")
        rows = resumed.execute(max_rows=20).rows
        assert sorted(k.split("/")[-1] for k in decoded_sections) == [
            "hj_build#2",
            "hj_probe#2",
        ]
        rows += resumed.execute().rows
        assert prefix + rows == reference()
        # The checkpoint's own partition is never read again.
        assert len(decoded_sections) == 10

    def test_load_then_delta_save_decodes_nothing(
        self, tmp_path, decoded_sections
    ):
        store = ImageStore(str(tmp_path))
        db, session = mid_probe()
        session.suspend(SuspendSpec(persist_to=store, image_id="first"))
        other = join_db()
        loaded = store.load("first")
        loaded.hold_in(other.state_store)
        info = store.save(
            loaded, other.state_store, image_id="second", base_image_id="first"
        )
        assert decoded_sections == []
        assert info.local_blobs == 0 and info.num_blobs == 12
        assert store.validate("second") == []
        rest = QuerySession.resume(join_db(), store.load("second")).execute().rows
        assert list(session.rows) + rest == reference()


class TestVerifiedBeforeUse:
    def test_a_flipped_byte_in_an_unread_section_fails_load(self, tmp_path):
        store = ImageStore(str(tmp_path))
        _, session = mid_probe()
        session.suspend(SuspendSpec(persist_to=store, image_id="img"))
        flip_byte(store, "img", section_of(store, "img", "hj_build#6"))
        with pytest.raises(ImageFormatError, match="checksum|sha|mismatch"):
            store.load("img")

    def test_a_record_that_disagrees_with_its_manifest_fails_at_first_read(
        self, tmp_path
    ):
        """The section's SHA-256 verifies (``load`` passes), its blob
        record claims another page count than the manifest entry: the
        cross-check runs when the handle is first dereferenced, before a
        row of the partition reaches the join."""
        store = ImageStore(str(tmp_path))
        _, session = mid_probe()
        prefix = list(session.rows)
        session.suspend(SuspendSpec(persist_to=store, image_id="good"))
        victim = section_of(store, "good", "hj_build#6")  # the last partition
        staged, pages, _ = store.load("good").payloads.entries["q/hj_build#6"]
        record = {
            "key": "q/hj_build#6",
            "pages": pages + 1,
            "payload": staged.get(),
        }
        restamped_copy(
            store,
            "good",
            "bad",
            lambda manifest: None,
            sections={victim: codec2.encode_bytes(record)},
        )
        assert store.validate("bad") == []
        resumed = QuerySession.resume(join_db(), store.load("bad"), name="q")
        rows = resumed.execute(max_rows=200).rows
        assert prefix + rows == reference()[: len(prefix) + 200]
        join = resumed.runtime.op_named("hj")
        with pytest.raises(ImageFormatError, match="does not match"):
            resumed.execute()
        assert join.current_partition == 7 and join._hash_table == {}


class TestDecodedAtMostOnce:
    def test_cycles_on_one_database_keep_one_payload_per_section(
        self, tmp_path, decoded_sections
    ):
        store = ImageStore(str(tmp_path))
        db, session = mid_probe()
        rows, image_id = list(session.rows), None
        for cycle in range(4):
            session.suspend(
                GOBACK.replace(
                    persist_to=store,
                    image_id=f"s{cycle}",
                    base_image_id=image_id,
                )
            )
            image_id = f"s{cycle}"
            session = QuerySession.resume(db, store.load(image_id), name="q")
            rows += run_into(session, 4 + cycle)
        # The saving database already held every section: nothing was
        # ever decoded, and each section is one key, whose payload every
        # reload shared.
        assert decoded_sections == []
        state = db.state_store
        keys_of = {}
        for key in state._objects:
            if state.origin_of(key) is not None:
                keys_of.setdefault(state.origin_of(key), []).append(key)
        assert len(keys_of) == 12
        assert all(len(keys) == 1 for keys in keys_of.values())
        rows += session.execute().rows
        assert rows == reference()

        # A database that never held them decodes its own copy.
        other = join_db()
        QuerySession.resume(other, store.load(image_id), name="q").execute()
        assert decoded_sections
        mine = {id(p) for p, _ in state._objects.values()}
        assert not mine & {id(p) for p, _ in other.state_store._objects.values()}


class TestOneImageResumedTwice:
    """Two sessions of one scope resumed from one image into one
    database share the image's payloads (one key each) and continue its
    key counters."""

    @staticmethod
    def twins(tmp_path):
        """The sort stopped in its run generation (two sublists written),
        imaged, and resumed twice into one database; the rows so far."""
        db, plan = build_recipe("sort")
        first = QuerySession(db, plan, name="q")
        rows = first.execute(
            suspend_when=SuspendTrigger("scan_R", "position", 500)
        ).rows
        store = ImageStore(str(tmp_path))
        first.suspend(SuspendSpec(persist_to=store))
        target = build_recipe("sort")[0]
        sessions = [
            QuerySession.resume(
                target, store.load(first.last_image.image_id), name="q"
            )
            for _ in range(2)
        ]
        solo = QuerySession(build_recipe("sort")[0], plan).execute().rows
        return target, sessions, list(rows), solo

    def test_both_draw_distinct_fresh_keys(self, tmp_path):
        target, sessions, rows, solo = self.twins(tmp_path)
        imported = set(sessions[0].runtime.store.keys)
        assert len(imported) == 2
        assert imported == set(sessions[1].runtime.store.keys)
        outputs = [list(rows), list(rows)]
        for out, session in zip(outputs, sessions):
            out += session.execute(max_rows=5).rows
        drawn = [set(s.runtime.store.keys) - imported for s in sessions]
        assert drawn[0] and drawn[1] and not drawn[0] & drawn[1]
        for out, session in zip(outputs, sessions):
            out += session.execute().rows
            session.close()
        assert outputs == [solo, solo]
        assert len(target.state_store) == 0

    def test_one_completing_first_leaves_the_other_whole(self, tmp_path):
        """The first to complete frees its keys and the scope's counters;
        the other keeps the shared payloads and, drawing afresh, skips
        the keys it still holds."""
        target, sessions, rows, solo = self.twins(tmp_path)
        for session in sessions:
            assert rows + session.execute().rows == solo
            session.close()
        assert len(target.state_store) == 0


class TestImageSizes:
    """Deterministic bytes, so CI can hold them: after the first image a
    mid-probe hybrid hash join writes control state only — which, for a
    join that keeps partitions in memory, includes those: heap state
    with no materialization point (Example 9), carried by every
    checkpoint as the live operator holds it."""

    @pytest.mark.parametrize(
        "memory_partitions, control_limit, share",
        # The hybrid join's bound is its measured control section: its
        # memory partitions are stored row blocks since layout 7 (8 543
        # bytes deflated at layout 6).
        [(0, 8 * 1024, 0.15), (2, 10_215, 0.30)],
    )
    def test_the_second_image_is_a_few_kilobytes(
        self, tmp_path, capsys, memory_partitions, control_limit, share
    ):
        store = ImageStore(str(tmp_path))
        db, session = mid_probe(
            dataclasses.replace(PLAN, memory_partitions=memory_partitions)
        )
        session.suspend(GOBACK.replace(persist_to=store, image_id="first"))
        first = store.info("first")
        session = QuerySession.resume(db, store.load("first"), name="q")
        run_into(session, 4)
        session.suspend(
            GOBACK.replace(
                persist_to=store, image_id="second", base_image_id="first"
            )
        )
        second = store.info("second")
        assert second == session.last_image
        assert second.control_bytes <= control_limit
        assert second.total_bytes <= share * first.total_bytes
        # One partition further on: ten of the twelve sections, all refs.
        assert (second.num_blobs, second.local_blobs) == (10, 0)
        assert 0 < second.reused_bytes < first.local_bytes
        assert first.control_bytes == (
            store.manifest("first")["files"][CONTROL_NAME_V2]["bytes"]
        )

        # ``repro images`` shows the same split, text and JSON.
        assert main(["images", "--images", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert (
            f"control {first.control_bytes} bytes, sections 12 local "
            f"({first.local_bytes} bytes) + 0 referenced (0 bytes)"
        ) in listing
        assert (
            f"control {second.control_bytes} bytes, sections 0 local "
            f"(0 bytes) + 10 referenced ({second.reused_bytes} bytes)"
        ) in listing
        assert main(["images", "--images", str(tmp_path), "--json"]) == 0
        as_json = json.loads(capsys.readouterr().out)
        assert [
            (i["control_bytes"], i["local_blobs"], i["local_bytes"])
            for i in as_json["images"]
        ] == [
            (i.control_bytes, i.local_blobs, i.local_bytes)
            for i in (first, second)
        ]


def inline_partitions(sq, state_store):
    """Rewrite ``sq`` to what the commit before partitions became payloads
    wrote: every partition handle replaced by its rows, inline."""
    keys = {
        key for key in sq.referenced_handles() if "/hj_" in key
    }

    def inline(value):
        if isinstance(value, DumpHandle) and value.key in keys:
            return list(state_store.peek(value))
        if isinstance(value, dict):
            return {k: inline(v) for k, v in value.items()}
        if isinstance(value, list):
            return [inline(v) for v in value]
        return value

    for entry in sq.entries.values():
        entry.ckpt_payload = inline(entry.ckpt_payload)
        if entry.current_control and "build_disk" in entry.current_control:
            dump = state_store.peek(entry.dump_handle)
            dump.update(inline(entry.current_control))
            entry.current_control = None


@pytest.mark.parametrize("strategy", ["all_dump", "all_goback", "lp"])
def test_an_image_with_inline_partitions_still_resumes(strategy, tmp_path):
    store = ImageStore(str(tmp_path))
    db, session = mid_probe()
    prefix = list(session.rows)
    sq = session.suspend(SuspendSpec(strategy=strategy))
    inline_partitions(sq, db.state_store)
    assert not any("/hj_" in key for key in sq.referenced_handles())
    store.save(sq, db.state_store, image_id="old")
    resumed = QuerySession.resume(join_db(), store.load("old"), name="q")
    rows = resumed.execute(max_rows=40).rows
    # ... and its next image is in today's form.
    resumed.suspend(
        SuspendSpec(persist_to=store, image_id="new", base_image_id="old")
    )
    assert resumed.last_image.local_blobs >= 8
    rows += QuerySession.resume(join_db(), store.load("new")).execute().rows
    assert prefix + rows == reference()
