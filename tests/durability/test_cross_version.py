"""Cross-version compatibility: codec v1, and the directory layout.

Two checked-in roots written by earlier builds must stay loadable and
resumable forever, and resume to the same output as an image of the same
suspend point written today:

- ``fixtures/v1-images`` — a codec-v1 (tagged JSON) directory image; the
  v1 reader's guard now that nothing writes v1;
- ``fixtures/layout1-v2`` — a codec-v2 *directory* root (layout 1: one
  file per blob) holding a full image and a delta on top of it, written
  by the last commit that had a directory writer. Nothing writes that
  layout any more; this is the read-only reader's guard.
"""

import json
import os
import shutil

from repro.cli import run_images, run_resume_from_image
from repro.core.lifecycle import QuerySession, SuspendSpec
from repro.durability import CODEC_V1, CODEC_V2, ImageStore, build_recipe
from repro.durability.format import LAYOUT_DIRECTORY, manifest_codec_version

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
FIXTURE_ROOT = os.path.join(FIXTURES, "v1-images")
LAYOUT1_ROOT = os.path.join(FIXTURES, "layout1-v2")


def reference_rows(recipe="sort"):
    db, plan = build_recipe(recipe)
    return QuerySession(db, plan).execute().rows


def suspend_partway(recipe="sort", rows=40):
    db, plan = build_recipe(recipe)
    session = QuerySession(db, plan)
    session.execute(max_rows=rows)
    return db, session.suspend()


class TestV1Fixture:
    def test_fixture_validates_and_reports_codec_v1(self):
        store = ImageStore(FIXTURE_ROOT)
        assert store.validate("v1-fixture") == []
        assert store.info("v1-fixture").codec_version == CODEC_V1
        assert manifest_codec_version(store.manifest("v1-fixture")) == CODEC_V1

    def test_fixture_resumes_to_reference_output(self):
        store = ImageStore(FIXTURE_ROOT)
        loaded = store.load("v1-fixture")
        fresh_db, _ = build_recipe("sort")
        resumed = QuerySession.resume(fresh_db, loaded)
        rest = resumed.execute().rows
        reference = reference_rows("sort")
        assert rest == reference[40:]

    def test_images_cli_reports_codec_version(self):
        listing = json.loads(run_images(FIXTURE_ROOT, as_json=True))
        (row,) = listing["images"]
        assert row["codec_version"] == CODEC_V1
        assert row["valid"]
        text = run_images(FIXTURE_ROOT)
        assert "codec v1" in text


class TestMixedRoot:
    def test_v1_and_v2_images_load_from_one_root(self, tmp_path):
        """Decoder dispatch is per image: a root holding the legacy v1
        image next to one written today resumes both to the same rows."""
        root = str(tmp_path / "images")
        shutil.copytree(FIXTURE_ROOT, root)
        db, sq = suspend_partway("sort", rows=40)
        store = ImageStore(root)
        info = store.save(sq, db.state_store, image_id="today")
        assert info.codec_version == CODEC_V2
        rests = {}
        for image_id in ("v1-fixture", "today"):
            fresh_db, _ = build_recipe("sort")
            resumed = QuerySession.resume(fresh_db, store.load(image_id))
            rests[image_id] = resumed.execute().rows
        assert rests["v1-fixture"] == rests["today"] == reference_rows()[40:]


class TestLayout1Fixture:
    """The directory layout is supported *input*: readable, resumable,
    collectable — and never extended."""

    def test_fixture_lists_validates_and_reports_its_layout(self):
        store = ImageStore(LAYOUT1_ROOT)
        infos = {i.image_id: i for i in store.list_images()}
        assert sorted(infos) == ["l1-base", "l1-delta"]
        for info in infos.values():
            assert store.validate(info.image_id) == []
            assert info.layout_version == LAYOUT_DIRECTORY
            assert info.codec_version == CODEC_V2
        assert infos["l1-delta"].base_image_id == "l1-base"
        assert infos["l1-delta"].chain_length == 2
        assert infos["l1-delta"].reused_bytes > 0
        assert "layout-1 directory (read-only)" in run_images(LAYOUT1_ROOT)

    def test_full_and_delta_resume_to_reference_output(self):
        store = ImageStore(LAYOUT1_ROOT)
        reference = reference_rows("sort")
        for image_id, emitted in (("l1-base", 40), ("l1-delta", 70)):
            assert store.info(image_id).meta["rows_emitted"] == emitted
            fresh_db, _ = build_recipe("sort")
            resumed = QuerySession.resume(fresh_db, store.load(image_id))
            assert resumed.execute().rows == reference[emitted:]

    def test_resume_image_cli_reads_the_fixture(self):
        out = json.loads(
            run_resume_from_image(LAYOUT1_ROOT, "l1-delta", as_json=True)
        )
        assert [tuple(r) for r in out["rows"]] == reference_rows("sort")[70:]

    def test_delta_on_a_layout1_base_is_promoted_to_full(self, tmp_path):
        """No cross-layout references: a save naming a directory image
        as its base commits a full packed image (the max_chain path)."""
        root = str(tmp_path / "images")
        shutil.copytree(LAYOUT1_ROOT, root)
        store = ImageStore(root)
        fresh_db, _ = build_recipe("sort")
        session = QuerySession.resume(fresh_db, store.load("l1-delta"))
        more = session.execute(max_rows=30).rows
        session.suspend(
            SuspendSpec(
                persist_to=store, image_id="today", base_image_id="l1-delta"
            )
        )
        info = session.last_image
        assert info.base_image_id is None and info.chain_length == 1
        assert info.reused_bytes == 0
        assert os.path.isfile(os.path.join(root, "today.rimg"))
        assert all("file" in b for b in store.manifest("today")["blobs"])
        # The old chain backs nothing: collectable, and the new image
        # resumes without it.
        assert store.delete_chain("l1-delta") == ["l1-delta", "l1-base"]
        assert sorted(os.listdir(root)) == ["today.rimg"]
        fresh_db, _ = build_recipe("sort")
        resumed = QuerySession.resume(fresh_db, store.load("today"))
        assert more + resumed.execute().rows == reference_rows("sort")[70:]

    def test_root_mixing_both_layouts_recovers_all_committed(self, tmp_path):
        root = str(tmp_path / "images")
        shutil.copytree(LAYOUT1_ROOT, root)
        shutil.copytree(
            os.path.join(FIXTURE_ROOT, "v1-fixture"),
            os.path.join(root, "v1-fixture"),
        )
        db, sq = suspend_partway("sort", rows=40)
        ImageStore(root).save(sq, db.state_store, image_id="packed")
        report = ImageStore(root).recover()
        assert report.committed == [
            "l1-base",
            "l1-delta",
            "packed",
            "v1-fixture",
        ]
        assert report.torn == report.orphaned == report.quarantined == []
        listing = json.loads(run_images(root, as_json=True))
        assert {
            row["image_id"]: row["layout_version"] for row in listing["images"]
        } == {"l1-base": 1, "l1-delta": 1, "packed": 2, "v1-fixture": 1}
        assert all(row["valid"] for row in listing["images"])
