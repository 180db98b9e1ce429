"""Cross-codec-version compatibility.

A v1 image written by an earlier build (checked in under
``fixtures/v1-images``) must stay loadable and resumable forever — this
suite is the v1 reader's guard now that nothing writes v1 — and must
resume to the same output as a v2 image of the same suspend point.
"""

import json
import os
import shutil

from repro.cli import run_images
from repro.core.lifecycle import QuerySession
from repro.durability import CODEC_V1, CODEC_V2, ImageStore, build_recipe
from repro.durability.format import manifest_codec_version

FIXTURE_ROOT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "v1-images"
)


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
