"""A section whose bytes are durable elsewhere is copied, not re-encoded.

Every ``MAX_CHAIN``-th save of a hopping query is a rebase: a full image,
because the chain is long enough. Its payloads were loaded from, or last
committed to, sections of the chain it leaves behind, so it copies those
verified section bytes into the new image — no payload export, no decode,
no encode. A payload keeps the key it was first dumped under, so the
copied record names the key of the blob entry that holds it. A section
that no longer verifies, or whose image is gone, is encoded afresh
instead.
"""

import os
import zlib

import pytest

from repro.common.errors import ReproError
from repro.core.lifecycle import QuerySession, QueryStatus, SuspendSpec
from repro.durability import ImageStore, build_recipe, codec2
from repro.durability.format import TRAILER, ImageFormatError, open_image
from repro.durability.store import MAX_CHAIN, SaveRequest
from repro.engine.plan import HybridHashJoinSpec, ScanSpec
from repro.relational.expressions import EquiJoinCondition
from repro.storage.statefile import StateStore
from repro.workloads.plans import build_complex_plan
from tests.conftest import flip_byte, make_small_db
from tests.durability.test_recovery import restamped_copy

HHJ = HybridHashJoinSpec(
    build=ScanSpec("R", label="scan_R"),
    probe=ScanSpec("S", label="scan_S"),
    condition=EquiJoinCondition(0, 0, modulus=700),
    num_partitions=8,
    memory_partitions=2,
    label="hj",
)

#: name -> (database factory, plan): the three shapes of the
#: ``image_cycle`` benchmark, small.
SHAPES = {
    "sort": (lambda: build_recipe("sort")[0], build_recipe("sort")[1]),
    "hhj": (lambda: make_small_db(r_tuples=1_400, s_tuples=1_600), HHJ),
    "complex": (
        lambda: build_complex_plan(scale=300)[0],
        build_complex_plan(scale=300)[1],
    ),
}


def solo(shape):
    factory, plan = SHAPES[shape]
    return QuerySession(factory(), plan).execute().rows


class Cycle:
    """One query hopping through images as ``image_cycle`` does:
    suspend (a delta on the last image), load, resume in a new database,
    run a slice. The ``MAX_CHAIN + 1``-th save is the rebase."""

    def __init__(self, shape, root):
        self.factory, self.plan = SHAPES[shape]
        self.store = ImageStore(str(root))
        self.slice = max(1, len(solo(shape)) // 14)
        self.session = QuerySession(self.factory(), self.plan, name="q")
        self.rows = list(self.session.execute(max_rows=self.slice).rows)
        self.image_id = None
        self.saves = 0

    def save(self):
        self.session.suspend(
            SuspendSpec(
                persist_to=self.store,
                base_image_id=self.image_id,
                image_id=f"s{self.saves}",
            )
        )
        self.saves += 1
        self.image_id = self.session.last_image.image_id
        return self.session.last_image

    def hop(self):
        sq = self.store.load(self.image_id)
        self.session = QuerySession.resume(self.factory(), sq, name="q")
        result = self.session.execute(max_rows=self.slice)
        assert result.status is not QueryStatus.COMPLETED
        self.rows += result.rows

    def up_to_rebase(self):
        """Hop until the next save is the rebase; returns the live state
        store, whose payload origins the rebase will see."""
        for _ in range(MAX_CHAIN):
            self.save()
            self.hop()
        assert len(self.store.chain(self.image_id)) == MAX_CHAIN
        return self.session.db.state_store

    def finish(self):
        return self.rows + self.session.execute().rows


def section_bytes(store, image_id, name):
    manifest = store.manifest(image_id)
    with open_image(store.info(image_id).path, manifest) as read:
        return read(name)


def before_manifest(path):
    """The image's bytes up to its manifest (which holds the commit
    time): every section, in write order."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data[: TRAILER.unpack(data[-TRAILER.size :])[0]]


@pytest.fixture
def calls(monkeypatch):
    """Keys of the payloads exported and decoded so far."""
    seen = {"export": [], "decode": []}
    real_export = StateStore.export_payload
    real_decode = codec2.decode_bytes

    def export_payload(self, handle):
        seen["export"].append(handle.key)
        return real_export(self, handle)

    def decode_bytes(data):
        value = real_decode(data)
        if isinstance(value, dict) and "payload" in value:
            seen["decode"].append(value["key"])
        return value

    monkeypatch.setattr(StateStore, "export_payload", export_payload)
    monkeypatch.setattr(codec2, "decode_bytes", decode_bytes)
    return seen


class TestRebaseCopies:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_copied_sections_are_the_origin_bytes_untouched(
        self, shape, tmp_path, calls
    ):
        cycle = Cycle(shape, tmp_path)
        origins = dict(cycle.up_to_rebase()._origins)
        calls["export"].clear()
        calls["decode"].clear()
        info = cycle.save()
        assert info.base_image_id is None and info.chain_length == 1

        blobs = cycle.store.manifest(info.image_id)["blobs"]
        copied = [b for b in blobs if b["key"] in origins]
        assert copied and all("file" in b for b in blobs)
        for blob in copied:
            origin = origins[blob["key"]]
            data = section_bytes(cycle.store, info.image_id, blob["file"])
            assert data == section_bytes(
                cycle.store, origin.image_id, origin.section
            )
            # The payload kept its key: the entry names the key the
            # copied record embeds.
            assert codec2.record_key(data) == blob["key"]
        keys = {b["key"] for b in copied}
        assert not keys & set(calls["export"])
        assert not keys & set(calls["decode"])
        # Only what was re-dumped since the last load was encoded.
        assert set(calls["export"]) == {b["key"] for b in blobs} - keys

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_rebased_image_outlives_its_old_chain(self, shape, tmp_path):
        cycle = Cycle(shape, tmp_path)
        cycle.up_to_rebase()
        old_tip = cycle.image_id
        info = cycle.save()
        assert info.base_image_id is None
        deleted = cycle.store.delete_chain(old_tip)
        assert len(deleted) == MAX_CHAIN and info.image_id not in deleted
        survivor = ImageStore(cycle.store.root)
        assert survivor.validate(info.image_id) == []
        assert survivor.recover().committed == [info.image_id]
        cycle.store = survivor
        cycle.hop()
        assert cycle.finish() == solo(shape)

    def test_two_runs_write_byte_identical_rebased_images(self, tmp_path):
        images = []
        for run in ("a", "b"):
            cycle = Cycle("hhj", tmp_path / run)
            cycle.up_to_rebase()
            images.append(before_manifest(cycle.save().path))
        assert images[0] == images[1]


class TestSectionKey:
    """A section's record embeds its payload's key, which every blob
    entry naming the section must carry."""

    def test_a_tampered_entry_key_fails_validate_and_first_read(
        self, tmp_path
    ):
        cycle = Cycle("sort", tmp_path)
        cycle.up_to_rebase()
        info = cycle.save()
        store = cycle.store
        victim = store.manifest(info.image_id)["blobs"][0]

        def tamper(manifest):
            manifest["blobs"] = [
                {**b, "key": b["key"] + "x"} if b == victim else b
                for b in manifest["blobs"]
            ]

        restamped_copy(store, info.image_id, "bad", tamper)
        restamped_copy(store, info.image_id, "twin", lambda m: None)
        assert store.validate("twin") == []
        problems = store.validate("bad")
        assert problems and all("does not match" in p for p in problems)
        sq = store.load("bad")  # verified and staged: no decode yet
        staged, _, _ = sq.payloads.entries[victim["key"] + "x"]
        with pytest.raises(ImageFormatError, match="does not match"):
            staged.get()
        assert store.recover().torn == ["bad"]

    @pytest.mark.parametrize(
        "head",
        [
            # {"key": <invalid UTF-8>, ...}
            bytes([codec2.T_DICT, 3, codec2.T_SDEF, 3])
            + b"key"
            + bytes([codec2.T_SDEF, 2])
            + b"\xff\xfe",
            # {[]: None, ...}: an unhashable first key
            bytes([codec2.T_DICT, 3, codec2.T_LIST, 0, codec2.T_NONE]),
        ],
        ids=["bad-utf8-key", "unhashable-first-key"],
    )
    def test_a_garbled_record_head_is_torn_not_raised(self, tmp_path, head):
        """A section whose bytes match its (restamped) manifest hash but
        hold a garbled record is a problem of that image: validate()
        reports it and recover() tears the image instead of stopping."""
        cycle = Cycle("sort", tmp_path)
        info = cycle.save()
        store = cycle.store
        victim = store.manifest(info.image_id)["blobs"][0]
        restamped_copy(
            store,
            info.image_id,
            "bad",
            lambda m: None,
            sections={victim["file"]: zlib.compress(head)},
        )
        problems = store.validate("bad")
        assert problems and victim["file"] in problems[0]
        sq = store.load("bad")  # verified and staged: no decode yet
        staged, _, _ = sq.payloads.entries[victim["key"]]
        with pytest.raises(codec2.CodecError):
            staged.get()
        assert store.recover().torn == ["bad"]


class TestNeverCopiesUnverifiedBytes:
    def test_an_origin_section_that_no_longer_verifies_is_re_encoded(
        self, tmp_path, calls
    ):
        cycle = Cycle("sort", tmp_path)
        state = cycle.up_to_rebase()
        blobs = cycle.store.manifest(cycle.image_id)["blobs"]
        # The oldest section the rebase would copy, flipped on disk after
        # its manifest was cached: only the copy's verified read sees it.
        ref = next(b["ref"] for b in blobs if "ref" in b)
        flip_byte(cycle.store, ref["image_id"], ref["file"])
        victims = {
            key
            for key, origin in state._origins.items()
            if (origin.image_id, origin.section)
            == (ref["image_id"], ref["file"])
        }
        calls["export"].clear()
        info = cycle.save()
        entries = {
            b["key"]: b for b in cycle.store.manifest(info.image_id)["blobs"]
        }
        assert victims and victims <= set(calls["export"])
        assert set(entries) - set(calls["export"])  # the rest was copied
        cycle.store.delete_chain(ref["image_id"])
        assert cycle.store.validate(info.image_id) == []
        cycle.hop()
        assert cycle.finish() == solo("sort")

    def test_a_deleted_origin_image_is_re_encoded(self, tmp_path, calls):
        factory, plan = SHAPES["sort"]
        store = ImageStore(str(tmp_path))
        session = QuerySession(factory(), plan, name="q")
        rows = list(session.execute(max_rows=60).rows)
        session.suspend(SuspendSpec(persist_to=store, image_id="a"))
        db = factory()
        sq = store.load("a")
        sq.hold_in(db.state_store)
        held = set(sq.referenced_handles())
        os.unlink(store.info("a").path)  # behind the store's back
        calls["export"].clear()
        info = store.save(sq, db.state_store, image_id="b")
        assert held and held <= set(calls["export"])
        assert store.validate("b") == [] and info.local_blobs == len(held)
        rest = QuerySession.resume(factory(), store.load("b")).execute().rows
        assert rows + rest == solo("sort")

    def test_a_full_save_of_a_resumed_query_copies(self, tmp_path, calls):
        factory, plan = SHAPES["sort"]
        store = ImageStore(str(tmp_path))
        session = QuerySession(factory(), plan, name="q")
        session.execute(max_rows=60)
        session.suspend(SuspendSpec(persist_to=store, image_id="a"))
        db = factory()
        sq = store.load("a")
        sq.hold_in(db.state_store)
        calls["export"].clear()
        info = store.save(sq, db.state_store, image_id="b")
        assert calls["export"] == [] and calls["decode"] == []
        blobs = store.manifest("b")["blobs"]
        assert info.local_blobs == len(blobs)
        sections = {
            b["key"]: section_bytes(store, "a", b["file"])
            for b in store.manifest("a")["blobs"]
        }
        assert {
            b["key"]: section_bytes(store, "b", b["file"]) for b in blobs
        } == sections
        assert store.validate("b") == []

    def test_a_batch_whose_copy_and_export_both_fail_tears_that_image(
        self, tmp_path, monkeypatch
    ):
        """A copy is read when its image is written, after the whole
        batch was prepared. If it no longer verifies and the payload
        cannot be exported either, that image fails with a format error
        naming both; the image before it in the batch stays committed."""
        factory, plan = SHAPES["sort"]
        store = ImageStore(str(tmp_path))
        session = QuerySession(factory(), plan, name="q")
        session.execute(max_rows=60)
        session.suspend(SuspendSpec(persist_to=store, image_id="a"))
        db = factory()
        sq = store.load("a")
        sq.hold_in(db.state_store)
        first = store.manifest("a")["blobs"][0]
        flip_byte(store, "a", first["file"])
        other = QuerySession(factory(), plan, name="p")
        other.execute(max_rows=30)
        other_sq = other.suspend()
        real_export = StateStore.export_payload

        def export_payload(self, handle):
            if self is db.state_store:
                raise ReproError("payload unavailable")
            return real_export(self, handle)

        monkeypatch.setattr(StateStore, "export_payload", export_payload)
        requests = [
            SaveRequest(other_sq, other.db.state_store, image_id="first"),
            SaveRequest(sq, db.state_store, image_id="b"),
        ]
        with pytest.raises(ImageFormatError, match="no longer verifies"):
            store.save_many(requests)
        assert store.validate("first") == []
        report = store.recover()
        # ``a`` is torn by its flipped byte, ``b`` by its failed write.
        assert report.committed == ["first"] and report.torn == ["a", "b"]

