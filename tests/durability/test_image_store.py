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
from repro.durability.harness import bump_one_generation
from repro.durability.store import MAX_CHAIN, ImageNotFoundError
from repro.engine.plan import ScanSpec, SortSpec
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.storage.database import Database
from repro.core.lifecycle import QueryStatus, SuspendSpec
from repro.workloads.plans import serve_catalog
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
        assert len(loaded.payloads.entries) == info.num_blobs
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


class TestDefaultInjector:
    def test_a_store_without_an_injector_keeps_no_crash_log(self, tmp_path):
        """Only a harness that passes its own ``FaultInjector()`` records
        crash points; a serving store saves forever and logs nothing."""
        store = ImageStore(str(tmp_path))
        for n in range(3):
            db, sq, _ = suspend_partway("sort")
            store.save(sq, db.state_store, image_id=f"img-{n}")
        assert store.injector.observed_points == []
        assert store.injector.observed_torn == []
        assert ImageStore(str(tmp_path / "other")).injector is store.injector


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
        manifest (commit time) and the trailer's checksum of it."""
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
        assert len(store.load(ids[-1]).payloads.entries) == tip.num_blobs
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


def hop_shape(shape):
    """``(database factory, plan, rows per hop)`` of a multi-hop query."""
    if shape == "sort":
        return (lambda: build_recipe("sort")[0]), build_recipe("sort")[1], 20
    db_factory, catalog = serve_catalog(scale=16, seed=1)
    return db_factory, catalog[shape], 16


def decoded(loaded):
    """``key -> (payload, pages)`` of a loaded image's staged payloads."""
    return {
        key: (staged.get(), pages)
        for key, (staged, pages, _) in loaded.payloads.entries.items()
    }


def local_files(manifest):
    return {b["file"] for b in manifest["blobs"] if "file" in b}


class TestProvenanceAcrossLoad:
    """load -> resume -> run -> suspend: a payload that came out of a
    verified section and was not re-dumped goes back as a reference to
    that section, whatever key the import gave it."""

    @pytest.mark.parametrize("shape", ["sort", "sorted-join"])
    def test_unchanged_payloads_are_flat_refs_on_every_hop(
        self, shape, tmp_path
    ):
        db_factory, plan, slice_rows = hop_shape(shape)
        reference = QuerySession(db_factory(), plan).execute().rows
        store = ImageStore(str(tmp_path))
        db = db_factory()
        session = QuerySession(db, plan, name="q")
        rows = list(session.execute(max_rows=slice_rows).rows)
        ids, refs_seen, locals_after_first = [], 0, []
        carried: set = set()  # keys the resume imported from the last image
        for hop in range(MAX_CHAIN + 4):
            sq = session.suspend(
                SuspendSpec(
                    persist_to=store,
                    image_id=f"q-s{hop}",
                    base_image_id=ids[-1] if ids else None,
                )
            )
            info = session.last_image
            manifest = store.manifest(info.image_id)
            loaded = store.load(info.image_id)
            payloads = decoded(loaded)
            handles = sq.referenced_handles()
            assert set(handles) == {b["key"] for b in manifest["blobs"]}
            chain = store.chain(info.image_id)
            rebased = hop > 0 and info.base_image_id is None
            assert rebased == (hop == MAX_CHAIN)
            for blob in manifest["blobs"]:
                key = blob["key"]
                # Local or referenced, the section decodes to the payload
                # the suspended query holds.
                live = db.state_store.export_payload(handles[key])
                assert payloads[key] == live
                # A payload is a reference exactly when it came out of
                # the base chain and was not dumped again since — except
                # in the MAX_CHAIN rebase, which writes everything.
                assert ("ref" in blob) == (key in carried and not rebased)
                if "ref" in blob:
                    owner = blob["ref"]["image_id"]
                    # Flat: the owner physically holds the section.
                    assert owner in chain[1:]
                    assert blob["ref"]["file"] in local_files(
                        store.manifest(owner)
                    )
            refs = [b["ref"] for b in manifest["blobs"] if "ref" in b]
            if hop == MAX_CHAIN + 1:
                # The delta after the rebase references the *new* image.
                assert refs and {r["image_id"] for r in refs} == {ids[-1]}
            if hop:
                locals_after_first.append(len(local_files(manifest)))
            refs_seen += len(refs)
            assert store.validate(info.image_id) == []
            ids.append(info.image_id)
            session = QuerySession.resume(db, loaded, name="q")
            carried = set(loaded.referenced_handles())
            result = session.execute(max_rows=slice_rows)
            rows += result.rows
            assert result.status is not QueryStatus.COMPLETED
        assert refs_seen > 0
        if shape == "sort":
            # Every sublist exists before the first row is emitted: only
            # the first image and the rebase write any payload at all.
            assert sum(1 for n in locals_after_first if n) == 1

        # The tip equals a full image of the same suspend, and the whole
        # relay equals the uninterrupted run.
        sq = session.suspend()
        tip = store.save(
            sq, db.state_store, image_id="tip", base_image_id=ids[-1]
        )
        full = store.save(sq, db.state_store, image_id="full")
        assert tip.reused_bytes > 0 and tip.total_bytes < full.total_bytes
        rests = [
            QuerySession.resume(db_factory(), store.load(image_id))
            .execute()
            .rows
            for image_id in ("tip", "full")
        ]
        assert rests[0] == rests[1]
        assert rows + rests[0] == reference

    def test_a_redumped_payload_is_rewritten_by_the_next_delta(self, tmp_path):
        store = ImageStore(str(tmp_path))
        db, sq, _ = suspend_partway("sort")
        store.save(sq, db.state_store, image_id="base")
        loaded = store.load("base")
        loaded.hold_in(db.state_store)
        bump_one_generation(loaded, db.state_store)  # same bytes, new write
        redumped = sorted(loaded.referenced_handles())[0]
        delta = store.save(
            loaded, db.state_store, image_id="delta", base_image_id="base"
        )
        blobs = {b["key"]: b for b in store.manifest("delta")["blobs"]}
        assert "file" in blobs.pop(redumped)
        assert blobs and all("ref" in b for b in blobs.values())
        assert delta.reused_bytes > 0 and store.validate("delta") == []
        # The rewrite is the new origin: a further delta references it in
        # ``delta``, and everything else still in ``base``.
        store.save(
            loaded, db.state_store, image_id="next", base_image_id="delta"
        )
        owners = {
            b["key"]: b["ref"]["image_id"]
            for b in store.manifest("next")["blobs"]
        }
        assert owners.pop(redumped) == "delta"
        assert set(owners.values()) == {"base"}

    def test_colliding_image_ids_with_other_bytes_never_reference(
        self, tmp_path
    ):
        """One StateStore saved into two roots: its origins name
        ``base`` in root ``a``; root ``b`` has a ``base`` too, holding
        other bytes under the same section names."""
        a = ImageStore(str(tmp_path / "a"))
        b = ImageStore(str(tmp_path / "b"))
        db, sq, _ = suspend_partway("sort")
        a.save(sq, db.state_store, image_id="base")
        other_db, other_sq = sorted_suspend(rows=60, buffer=10)
        b.save(other_sq, other_db.state_store, image_id="base")
        assert local_files(a.manifest("base")) & local_files(b.manifest("base"))

        in_b = b.save(sq, db.state_store, image_id="tip", base_image_id="base")
        assert in_b.reused_bytes == 0
        assert not [x for x in b.manifest("tip")["blobs"] if "ref" in x]
        assert b.validate("tip") == []
        # Saving into ``b`` moved the origins there; back in ``a`` the
        # same test refuses them the same way.
        in_a = a.save(sq, db.state_store, image_id="tip", base_image_id="base")
        assert in_a.reused_bytes == 0 and a.validate("tip") == []
        # Control: where the named sections really are, they are refs.
        again = b.save(sq, db.state_store, image_id="tip2", base_image_id="tip")
        assert again.reused_bytes > 0 and b.validate("tip2") == []
        assert decoded(b.load("tip2")) == decoded(a.load("base"))
