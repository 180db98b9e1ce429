"""ImageStore round trips, inventory management, and corruption checks."""

import os

import pytest

from repro.core.lifecycle import QuerySession
from repro.durability import ImageStore, SaveRequest, build_recipe
from repro.durability.format import (
    CONTROL_NAME_V2,
    IMAGE_SUFFIX,
    ImageFormatError,
)
from repro.durability.store import ImageNotFoundError
from repro.engine.plan import ScanSpec, SortSpec
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.storage.database import Database
from repro.core.lifecycle import SuspendSpec
from tests.conftest import flip_byte, record_device_calls

SHAPES = ("sort", "hashjoin", "hashagg")


def suspend_partway(recipe, rows=60):
    db, plan = build_recipe(recipe)
    session = QuerySession(db, plan)
    result = session.execute(max_rows=rows)
    assert session.status.value == "suspend_pending" or result.rows
    sq = session.suspend()
    return db, sq, result.rows


class TestRoundTrip:
    @pytest.mark.parametrize("recipe", SHAPES)
    def test_save_load_resume_matches_reference(self, recipe, tmp_path):
        ref_db, ref_plan = build_recipe(recipe)
        reference = QuerySession(ref_db, ref_plan).execute().rows

        db, sq, prefix = suspend_partway(recipe, rows=max(1, len(reference) // 3))
        store = ImageStore(str(tmp_path))
        clock = db.now
        info = store.save(sq, db.state_store, meta={"recipe": recipe})
        # The page writes were charged when the state was dumped.
        assert db.now == clock

        # A brand-new database, as a fresh process would build it.
        fresh_db, _ = build_recipe(recipe)
        loaded = store.load(info.image_id)
        # Every persisted blob is staged for import (may be zero when the
        # LP chose goback for every operator).
        assert len(loaded.migrated_payloads) == info.num_blobs
        resumed = QuerySession.resume(fresh_db, loaded)
        rest = resumed.execute().rows
        assert prefix + rest == reference

    def test_persist_to_on_suspend_sets_last_image(self, tmp_path):
        db, plan = build_recipe("sort")
        session = QuerySession(db, plan)
        session.execute(max_rows=50)
        session.suspend(SuspendSpec(persist_to=str(tmp_path), image_meta={"k": "v"}))
        info = session.last_image
        assert info is not None
        assert info.meta == {"k": "v"}
        assert ImageStore(str(tmp_path)).validate(info.image_id) == []


class TestInventory:
    def test_list_validate_delete_gc(self, tmp_path):
        store = ImageStore(str(tmp_path))
        db, sq, _ = suspend_partway("sort")
        a = store.save(sq, db.state_store, image_id="img-a")
        db2, sq2, _ = suspend_partway("hashagg", rows=6)
        b = store.save(sq2, db2.state_store, image_id="img-b")

        listed = [i.image_id for i in store.list_images()]
        assert sorted(listed) == ["img-a", "img-b"]
        assert store.validate("img-a") == []
        assert store.info("img-b").num_blobs == b.num_blobs

        store.delete("img-a")
        assert [i.image_id for i in store.list_images()] == ["img-b"]
        with pytest.raises(ImageNotFoundError):
            store.load("img-a")

        assert store.gc(keep={"img-b"}) == []
        assert store.gc() == ["img-b"]
        assert store.list_images() == []

    def test_duplicate_image_id_rejected(self, tmp_path):
        store = ImageStore(str(tmp_path))
        db, sq, _ = suspend_partway("sort")
        store.save(sq, db.state_store, image_id="dup")
        with pytest.raises(ValueError):
            store.save(sq, db.state_store, image_id="dup")

    def test_bad_image_id_rejected(self, tmp_path):
        store = ImageStore(str(tmp_path))
        db, sq, _ = suspend_partway("sort")
        with pytest.raises(ValueError):
            store.save(sq, db.state_store, image_id="../escape")


class TestSaveMany:
    def _requests(self):
        requests = []
        for recipe in SHAPES:
            db, sq, _ = suspend_partway(
                recipe, rows=6 if recipe == "hashagg" else 60
            )
            requests.append(
                SaveRequest(sq, db.state_store, image_id=f"img-{recipe}")
            )
        return requests

    def test_batch_commits_in_request_order_and_resumes(self, tmp_path):
        store = ImageStore(str(tmp_path))
        infos = store.save_many(self._requests())
        assert [i.image_id for i in infos] == [f"img-{r}" for r in SHAPES]
        for recipe in SHAPES:
            assert store.validate(f"img-{recipe}") == []
            fresh_db, _ = build_recipe(recipe)
            resumed = QuerySession.resume(fresh_db, store.load(f"img-{recipe}"))
            assert resumed.execute().rows is not None

    def test_bad_request_rejects_the_batch_before_any_write(self, tmp_path):
        store = ImageStore(str(tmp_path))
        requests = self._requests()
        requests[-1].image_id = "../escape"
        with pytest.raises(ValueError):
            store.save_many(requests)
        assert os.listdir(tmp_path) == []


class TestCorruptionDetection:
    def _committed(self, tmp_path):
        store = ImageStore(str(tmp_path))
        db, sq, _ = suspend_partway("sort")
        info = store.save(sq, db.state_store, image_id="img")
        return store, info

    def test_corrupt_blob_detected(self, tmp_path):
        store, info = self._committed(tmp_path)
        blob = next(
            b["file"] for b in store.manifest("img")["blobs"] if "file" in b
        )
        flip_byte(store, "img", blob)
        problems = store.validate("img")
        assert problems and "checksum" in problems[0]
        with pytest.raises(ImageFormatError):
            store.load("img")

    def test_corrupt_control_detected(self, tmp_path):
        store, info = self._committed(tmp_path)
        flip_byte(store, "img", store.manifest("img")["control_file"])
        assert store.validate("img")
        with pytest.raises(ImageFormatError):
            store.load("img")

    def test_truncated_image_detected(self, tmp_path):
        store, info = self._committed(tmp_path)
        with open(info.path, "rb") as fh:
            data = fh.read()
        for keep in (len(data) // 2, len(data) - 1, 0):
            with open(info.path, "wb") as fh:
                fh.write(data[:keep])
            assert store.validate("img")
            with pytest.raises(ImageFormatError):
                ImageStore(str(tmp_path)).load("img")

    def test_appended_bytes_detected(self, tmp_path):
        """Nothing can hide in a packed image: the trailer must account
        for every byte of the file."""
        store, info = self._committed(tmp_path)
        with open(info.path, "ab") as fh:
            fh.write(b"stray")
        assert store.validate("img")

    def test_renamed_image_detected(self, tmp_path):
        store, info = self._committed(tmp_path)
        os.replace(info.path, info.path.replace("img.rimg", "other.rimg"))
        assert store.validate("other")
        with pytest.raises(ImageFormatError):
            store.load("other")


class TestOneFilePerImage:
    def test_an_image_is_one_file_and_deletes_as_one(self, tmp_path):
        store = ImageStore(str(tmp_path))
        db, sq, _ = suspend_partway("sort")
        info = store.save(sq, db.state_store, image_id="img")
        assert info.num_blobs > 1
        assert os.listdir(tmp_path) == ["img" + IMAGE_SUFFIX]
        assert info.path == str(tmp_path / ("img" + IMAGE_SUFFIX))
        assert info.total_bytes == os.path.getsize(info.path)
        assert store.info("img") == info
        store.delete("img")
        assert os.listdir(tmp_path) == []

    def test_files_are_byte_identical_up_to_the_manifest(self, tmp_path):
        """Two commits of the same suspend point differ only in the
        manifest (commit time, exporting store's epoch) and the trailer's
        checksum of it."""
        prefixes = []
        for label in ("a", "b"):
            store = ImageStore(str(tmp_path / label))
            db, sq, _ = suspend_partway("sort")
            info = store.save(sq, db.state_store, image_id="img")
            control = store.manifest("img")["files"][CONTROL_NAME_V2]
            with open(info.path, "rb") as fh:
                prefixes.append(fh.read(control["offset"] + control["bytes"]))
            assert info.total_bytes == os.path.getsize(info.path)
        assert prefixes[0] == prefixes[1] and prefixes[0]


def sorted_suspend(rows: int, buffer: int):
    """A suspended external sort carrying ``ceil(rows / buffer)`` sublists."""
    db = Database()
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(rows, seed=3))
    plan = SortSpec(ScanSpec("R"), key_columns=(0,), buffer_tuples=buffer)
    session = QuerySession(db, plan)
    session.execute(max_rows=3)
    return db, session.suspend()


class TestFsyncBudget:
    @pytest.mark.parametrize("blobs", [1, 18])
    def test_a_commit_is_two_fsyncs_and_one_rename(
        self, blobs, tmp_path, monkeypatch
    ):
        """One durability point per image, however many payloads it holds
        (the directory layout paid ``2 * (blobs + 2) + 1`` fsyncs)."""
        db, sq = sorted_suspend(rows=10 * blobs, buffer=10)
        store = ImageStore(str(tmp_path))
        calls = record_device_calls(monkeypatch)
        info = store.save(sq, db.state_store, image_id="img")
        assert info.num_blobs == blobs
        assert calls == ["fsync", "rename", "fsync"]


class TestDeltaChains:
    """Store-level delta chains: references resolve into packed bases,
    and chains are collected with one scan and one sync of the root."""

    def _suspended_chain(self, store, links=3):
        """``(image ids, db, tip's SuspendedQuery, rows emitted so far)``."""
        db, plan = build_recipe("sort")
        session = QuerySession(db, plan, name="q")
        ids, rows, sq = [], [], None
        for link in range(links):
            if sq is not None:
                session = QuerySession.resume(db, sq, name="q")
            rows += session.execute(max_rows=20).rows
            image_id = f"q-s{link}"
            sq = session.suspend(
                SuspendSpec(
                    persist_to=store,
                    image_id=image_id,
                    base_image_id=ids[-1] if ids else None,
                )
            )
            ids.append(image_id)
        return ids, db, sq, rows

    def _chain(self, store, links=3):
        return self._suspended_chain(store, links)[0]

    def test_delta_references_resolve_into_the_packed_base(self, tmp_path):
        store = ImageStore(str(tmp_path))
        ids = self._chain(store)
        tip = store.info(ids[-1])
        assert tip.chain_length == 3 and tip.reused_bytes > 0
        refs = [b["ref"] for b in store.manifest(ids[-1])["blobs"] if "ref" in b]
        assert refs and {r["image_id"] for r in refs} == {ids[0]}
        assert all(r["file"] in store.manifest(ids[0])["files"] for r in refs)
        assert store.validate(ids[-1]) == []
        assert len(store.load(ids[-1]).migrated_payloads) == tip.num_blobs
        store.delete(ids[0])
        assert any("reference" in p for p in store.validate(ids[-1]))

    def test_chain_tip_resumes_like_a_full_image_of_the_same_suspend(
        self, tmp_path
    ):
        ref_db, ref_plan = build_recipe("sort")
        reference = QuerySession(ref_db, ref_plan).execute().rows

        store = ImageStore(str(tmp_path))
        ids, db, sq, emitted = self._suspended_chain(store)
        full = store.save(sq, db.state_store, image_id="full")
        assert store.info(ids[-1]).total_bytes < full.total_bytes
        rests = []
        for image_id in ("full", ids[-1]):
            fresh_db, _ = build_recipe("sort")
            resumed = QuerySession.resume(fresh_db, store.load(image_id))
            rests.append(resumed.execute().rows)
        assert rests[0] == rests[1]
        assert emitted + rests[1] == reference

    def test_delete_chain_takes_ancestors_and_dependents(self, tmp_path):
        store = ImageStore(str(tmp_path))
        ids = self._chain(store)
        db, sq, _ = suspend_partway("hashagg", rows=6)
        store.save(sq, db.state_store, image_id="bystander")
        assert store.delete_chain(ids[1]) == [ids[1], ids[0], ids[2]]
        assert [i.image_id for i in store.list_images()] == ["bystander"]

    def test_gc_spares_the_chain_of_a_kept_or_pinned_tip(self, tmp_path):
        store = ImageStore(str(tmp_path))
        ids = self._chain(store)
        db, sq, _ = suspend_partway("hashagg", rows=6)
        store.save(sq, db.state_store, image_id="loose")
        store.pin(ids[-1])
        assert store.gc() == ["loose"]
        store.unpin(ids[-1])
        assert store.gc(keep={ids[1]}) == [ids[2]]
        assert sorted(i.image_id for i in store.list_images()) == ids[:2]

    def test_chain_collection_scans_and_syncs_the_root_once(
        self, tmp_path, monkeypatch
    ):
        store = ImageStore(str(tmp_path))
        ids = self._chain(store)
        for n in range(6):  # other sessions' images under the same root
            db, sq, _ = suspend_partway("hashagg", rows=6)
            store.save(sq, db.state_store, image_id=f"other-{n}")
        scans = []
        real_listdir = os.listdir
        monkeypatch.setattr(
            os, "listdir", lambda path: (scans.append(path), real_listdir(path))[1]
        )
        calls = record_device_calls(monkeypatch)
        assert len(store.delete_chain(ids[-1])) == 3
        assert scans == [store.root] and calls == ["fsync"]
