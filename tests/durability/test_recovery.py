"""Recovery-scan classification and quarantine behavior."""

import json
import os

import pytest

from repro.core.lifecycle import QuerySession
from repro.durability import ImageStore, build_recipe
from repro.durability import format as image_format
from repro.durability.format import (
    TRAILER,
    ImageFormatError,
    open_image,
    write_packed_image,
)
from repro.durability.store import ImageNotFoundError
from tests.conftest import flip_byte, leave_torn_image


def committed_image(root, image_id="good"):
    db, plan = build_recipe("sort")
    session = QuerySession(db, plan)
    session.execute(max_rows=50)
    sq = session.suspend()
    return ImageStore(str(root)).save(sq, db.state_store, image_id=image_id)


class TestRecoveryScan:
    def test_committed_image_left_alone(self, tmp_path):
        committed_image(tmp_path)
        report = ImageStore(str(tmp_path)).recover()
        assert report.committed == ["good"]
        assert report.quarantined == []
        assert ImageStore(str(tmp_path)).validate("good") == []

    def test_interrupted_commit_is_torn(self, tmp_path):
        leave_torn_image(tmp_path, "halfway", label="control")
        assert os.listdir(tmp_path) == ["halfway.rimg.tmp"]
        report = ImageStore(str(tmp_path)).recover()
        assert report.torn == ["halfway"] and report.orphaned == []
        assert os.listdir(tmp_path) == ["quarantine"]
        assert os.listdir(tmp_path / "quarantine") == ["halfway.rimg.tmp"]

    def test_image_without_a_trailer_is_torn(self, tmp_path):
        """The torn bytes under the committed name (rename durable, data
        not): still torn, still quarantined."""
        leave_torn_image(tmp_path, "good", label="trailer")
        os.replace(tmp_path / "good.rimg.tmp", tmp_path / "good.rimg")
        report = ImageStore(str(tmp_path)).recover()
        assert report.torn == ["good"] and report.committed == []
        assert (tmp_path / "quarantine" / "good.rimg").is_file()

    def test_checksum_failure_is_torn(self, tmp_path):
        committed_image(tmp_path)
        store = ImageStore(str(tmp_path))
        flip_byte(store, "good", store.manifest("good")["control_file"])
        report = ImageStore(str(tmp_path)).recover()
        assert report.torn == ["good"]

    def test_stray_file_and_empty_dir_are_orphaned(self, tmp_path):
        (tmp_path / "note.txt").write_text("not an image")
        (tmp_path / "emptydir").mkdir()
        report = ImageStore(str(tmp_path)).recover()
        assert sorted(report.orphaned) == ["emptydir", "note.txt"]
        assert sorted(os.listdir(tmp_path / "quarantine")) == [
            "emptydir",
            "note.txt",
        ]

    def test_scan_is_idempotent_and_names_do_not_collide(self, tmp_path):
        for _ in range(2):
            leave_torn_image(tmp_path, "bad", label="manifest")
            report = ImageStore(str(tmp_path)).recover()
            assert report.torn == ["bad"]
        names = sorted(os.listdir(tmp_path / "quarantine"))
        assert names == ["bad.rimg.tmp", "bad.rimg.tmp.1"]
        # Nothing bad left at the root: a third scan is clean.
        report = ImageStore(str(tmp_path)).recover()
        assert report.torn == report.orphaned == report.quarantined == []

    def test_mixed_root(self, tmp_path):
        committed_image(tmp_path, image_id="keep")
        leave_torn_image(tmp_path, "torn", label="blob-0000")
        (tmp_path / "stray").write_bytes(b"?")
        report = ImageStore(str(tmp_path)).recover()
        assert report.committed == ["keep"]
        assert report.torn == ["torn"]
        assert report.orphaned == ["stray"]
        # The committed image is still loadable after the scan.
        assert ImageStore(str(tmp_path)).load("keep").entries

    def test_quarantined_base_takes_its_delta_along(self, tmp_path):
        from repro.core.lifecycle import SuspendSpec

        store = ImageStore(str(tmp_path))
        db, plan = build_recipe("sort")
        session = QuerySession(db, plan, name="q")
        session.execute(max_rows=20)
        sq = session.suspend(SuspendSpec(persist_to=store, image_id="z-base"))
        session = QuerySession.resume(db, sq, name="q")
        session.execute(max_rows=20)
        session.suspend(
            SuspendSpec(
                persist_to=store, image_id="a-delta", base_image_id="z-base"
            )
        )
        assert store.info("a-delta").reused_bytes > 0
        flip_byte(store, "z-base", "blob-0000")
        report = ImageStore(str(tmp_path)).recover()
        assert report.committed == []
        assert sorted(report.torn) == ["a-delta", "z-base"]


def restamped_copy(store, source_id, image_id, restamp, sections=None):
    """Commit a byte-for-byte copy of ``source_id`` whose manifest went
    through ``restamp`` (and whose ``sections`` — name -> bytes — were
    replaced): trailer, CRC, tiling and section hashes are all good, so
    only what was changed can make a reader refuse it."""
    manifest = store.manifest(source_id)
    sections = sections or {}
    with open_image(store.info(source_id).path, manifest) as read:
        files = [
            (
                name,
                lambda sink, data=sections.get(name) or read(name): sink(data),
            )
            for name in sorted(
                manifest["files"], key=lambda n: manifest["files"][n]["offset"]
            )
        ]

    def build_manifest(table):
        doc = {**manifest, "image_id": image_id, "files": table}
        restamp(doc)
        return doc

    write_packed_image(store.root, image_id, files, build_manifest)


class TestCompactManifest:
    """A manifest is written as compact sorted-key JSON (the json
    module's C encoder); a reader parses an indented one just the same."""

    def test_the_manifest_bytes_are_compact(self, tmp_path):
        committed_image(tmp_path)
        store = ImageStore(str(tmp_path))
        data = (tmp_path / "good.rimg").read_bytes()
        offset, length, _, _ = TRAILER.unpack(data[-TRAILER.size:])
        raw = data[offset:offset + length]
        assert raw == json.dumps(
            store.manifest("good"), sort_keys=True, separators=(",", ":")
        ).encode()
        assert b"\n" not in raw and b": " not in raw

    def test_an_indented_manifest_still_reads(self, tmp_path, monkeypatch):
        committed_image(tmp_path)
        store = ImageStore(str(tmp_path))
        monkeypatch.setattr(
            image_format,
            "dump_json",
            lambda v: json.dumps(v, sort_keys=True, indent=1).encode(),
        )
        restamped_copy(store, "good", "indented", lambda m: None)
        monkeypatch.undo()
        assert b'\n "' in (tmp_path / "indented.rimg").read_bytes()
        assert store.validate("indented") == []
        assert store.load("indented").entries == store.load("good").entries
        report = ImageStore(str(tmp_path)).recover()
        assert report.committed == ["good", "indented"] and report.torn == []


class TestRecoverReadsEachFileOnce:
    def test_one_hash_per_manifested_file(self, tmp_path, monkeypatch):
        """A serve root of delta chains: the scan reads and hashes every
        file of every image once, and decides the chains from manifests
        — not once per image and again per delta that references it."""
        from repro.core.lifecycle import SuspendSpec
        from repro.durability import format as format_module
        from repro.serve import QueryService, ServeConfig
        from repro.workloads.plans import serve_catalog

        db_factory, catalog = serve_catalog(scale=8, seed=1)
        service = QueryService(
            db_factory(),
            ServeConfig(
                quantum_rows=32, suspend=SuspendSpec(persist_to=str(tmp_path))
            ),
        )
        for i in range(12):
            result = service.begin(f"s{i}", catalog["sorted-join"])
            for _ in range(2):
                result = service.continue_query(result.token)
        store = ImageStore(str(tmp_path))
        manifests = [store.manifest(i.image_id) for i in store.list_images()]
        assert len(manifests) == 36
        assert sum("ref" in b for m in manifests for b in m["blobs"])
        calls = []
        real = format_module.sha256_hex

        def sha256_hex(data):
            calls.append(1)
            return real(data)

        monkeypatch.setattr(format_module, "sha256_hex", sha256_hex)
        report = store.recover()
        assert len(report.committed) == 36 and not report.quarantined
        assert len(calls) == sum(len(m["files"]) for m in manifests)


class TestReferencesStayInTheChain:
    def test_a_reference_beside_the_base_chain_is_refused(self, tmp_path):
        """``gc``/``delete_chain`` keep a tip's ``base_image_id`` chain and
        nothing else, so a manifest (disk input) whose reference resolves
        — same section, same digest — into an image *beside* the chain
        must not pass for committed: the next gc would take its bytes."""
        from repro.core.lifecycle import SuspendSpec

        store = ImageStore(str(tmp_path))
        db, plan = build_recipe("sort")
        session = QuerySession(db, plan, name="q")
        session.execute(max_rows=20)
        sq = session.suspend(SuspendSpec(persist_to=store, image_id="base"))
        # A copy of ``base`` beside the chain: byte-identical sections
        # under the same names as the ones the delta below references.
        restamped_copy(store, "base", "beside", lambda m: None)
        session = QuerySession.resume(db, sq, name="q")
        session.execute(max_rows=20)
        session.suspend(
            SuspendSpec(persist_to=store, image_id="tip", base_image_id="base")
        )
        assert store.info("tip").reused_bytes > 0

        def point_beside(manifest):
            manifest["blobs"] = [
                {**b, "ref": {**b["ref"], "image_id": "beside"}}
                if "ref" in b
                else b
                for b in manifest["blobs"]
            ]

        restamped_copy(store, "tip", "same", lambda m: None)
        assert store.validate("same") == [] and store.load("same").entries
        restamped_copy(store, "tip", "astray", point_beside)
        problems = store.validate("astray")
        assert problems and all("base chain" in p for p in problems)
        with pytest.raises(ImageFormatError, match="base chain"):
            store.load("astray")
        report = ImageStore(str(tmp_path)).recover()
        assert report.torn == ["astray"]
        assert report.committed == ["base", "beside", "same", "tip"]


class TestOldFormatsAreRejected:
    """Images in a format this build does not read are refused whole —
    classified, quarantined, never half-read — and do not disturb a valid
    image in the same root."""

    @pytest.mark.parametrize(
        "restamp",
        [
            lambda m: m.update(layout_version=1),
            lambda m: m.update(layout_version=2),
            lambda m: m.update(layout_version=3),
            lambda m: m.update(layout_version=4),
            lambda m: m.update(layout_version=5),
            lambda m: m.update(layout_version=6),
            lambda m: m.pop("layout_version"),
        ],
        ids=[
            "layout-1", "layout-2", "layout-3", "layout-4", "layout-5",
            "layout-6", "layout-absent",
        ],
    )
    def test_foreign_version_stamp_is_a_format_error_and_torn(
        self, restamp, tmp_path
    ):
        committed_image(tmp_path)
        store = ImageStore(str(tmp_path))
        restamped_copy(store, "good", "twin", lambda m: None)
        assert store.validate("twin") == [] and store.load("twin").entries
        restamped_copy(store, "good", "old", restamp)
        with pytest.raises(ImageFormatError, match="unsupported"):
            store.load("old")
        with pytest.raises(ImageFormatError, match="unsupported"):
            store.manifest("old")
        assert "unsupported" in store.validate("old")[0]
        assert [i.image_id for i in store.list_images()] == ["good", "twin"]
        report = ImageStore(str(tmp_path)).recover()
        assert report.torn == ["old"] and report.orphaned == []
        assert report.committed == ["good", "twin"]
        assert os.listdir(tmp_path / "quarantine") == ["old.rimg"]
        assert ImageStore(str(tmp_path)).load("good").entries

    def test_directory_named_like_an_image_is_not_an_image(self, tmp_path):
        """``<x>.rimg`` as a *directory*: inventory and collection (gc
        runs inside the serving process) skip it instead of raising
        ``IsADirectoryError``; the scan quarantines it as orphaned."""
        committed_image(tmp_path)
        (tmp_path / "x.rimg").mkdir()
        (tmp_path / "x.rimg" / "inner").write_bytes(b"?")
        store = ImageStore(str(tmp_path))
        assert [i.image_id for i in store.list_images()] == ["good"]
        assert store.gc(keep={"good"}) == []
        assert store.delete_chain("x") == []
        for read in (store.load, store.manifest, store.info, store.delete):
            with pytest.raises(ImageNotFoundError):
                read("x")
        assert store.validate("x") == ["image 'x' not found"]
        db, plan = build_recipe("sort")
        session = QuerySession(db, plan)
        session.execute(max_rows=50)
        with pytest.raises(ValueError, match="already exists"):
            store.save(session.suspend(), db.state_store, image_id="x")
        report = store.recover()
        assert report.orphaned == ["x.rimg"] and report.committed == ["good"]
        assert os.listdir(tmp_path / "quarantine" / "x.rimg") == ["inner"]
        assert store.gc() == ["good"]

    def test_image_directory_is_orphaned_and_never_read(self, tmp_path):
        """What a pre-packed-layout build left behind: one directory per
        image holding a manifest and a file per blob."""
        committed_image(tmp_path)
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        (legacy / "blob-0000.bin").write_bytes(b"RIMG2\x00payload")
        (legacy / "MANIFEST.json").write_text(
            json.dumps(
                {
                    "layout_version": 1,
                    "codec_version": 2,
                    "image_id": "legacy",
                    "control_file": "control.bin",
                    "files": {
                        "blob-0000.bin": {"bytes": 13, "sha256": "0" * 64}
                    },
                    "blobs": [
                        {"key": "k", "pages": 1, "file": "blob-0000.bin"}
                    ],
                }
            )
        )
        store = ImageStore(str(tmp_path))
        for read in (store.load, store.manifest, store.info, store.delete):
            with pytest.raises(ImageNotFoundError):
                read("legacy")
        assert store.validate("legacy") == ["image 'legacy' not found"]
        assert [i.image_id for i in store.list_images()] == ["good"]
        assert store.gc(keep={"good"}) == []
        report = store.recover()
        assert report.orphaned == ["legacy"] and report.torn == []
        assert report.committed == ["good"]
        assert report.quarantined == [os.path.join("quarantine", "legacy")]
        assert sorted(os.listdir(tmp_path / "quarantine" / "legacy")) == [
            "MANIFEST.json",
            "blob-0000.bin",
        ]
        assert store.load("good").entries

    def test_ledger_stays_and_a_pins_document_is_orphaned(self, tmp_path):
        """The ledger is the root's one metadata file; a ``PINS.json``
        left by a build that kept pins in a document of their own is
        quarantined, and the pin it held is not honoured."""
        committed_image(tmp_path)
        committed_image(tmp_path, "other")
        store = ImageStore(str(tmp_path))
        store.pin("good")
        (tmp_path / "PINS.json").write_text('{"pinned": ["other"]}')
        report = store.recover()
        assert report.orphaned == ["PINS.json"]
        assert report.committed == ["good", "other"]
        assert sorted(os.listdir(tmp_path)) == [
            "TOKENS.json",
            "good.rimg",
            "other.rimg",
            "quarantine",
        ]
        assert ImageStore(str(tmp_path)).pins() == {"good"}
        assert store.gc() == ["other"]
