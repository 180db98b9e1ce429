"""The parametrized crash matrix: every commit step, every torn write.

The fault list is enumerated from a clean recorder run (not hard-coded),
so these tests cannot drift out of sync with the commit protocol: adding
a step to ``ImageStore.save`` automatically adds its crash points here.
Each fault gets its own test case asserting the recovery classification
and — the core safety claim — the absence of silent corruption.

An image is one packed file: blobs and the control record are binary
frames streamed into it (a torn write truncates *inside* a CRC'd frame),
then the manifest, then the trailer. The matrix runs for full commits
and again for delta commits, where the base image must additionally
survive every mid-chain crash, and for a rebasing commit — a full image
that copies the base's sections instead of referencing them — where the
base must survive the same way. Every injected fault strikes before the
rename, so it can only leave a ``.rimg.tmp``; the last tests put the
same torn bytes under the *final* name — as if the rename had become
durable and the data had not — and require the same verdict.
"""

import os
import tempfile

import pytest

from repro.core.lifecycle import QuerySession
from repro.durability import (
    ImageStore,
    build_recipe,
    enumerate_faults,
    run_crash_matrix,
)
from repro.durability.faults import FaultInjector, InjectedCrash
from repro.durability.format import IMAGE_SUFFIX, TRAILER, ImageFormatError
from repro.durability.harness import run_one_fault
from repro.storage.statefile import StateStore


def make_suspended():
    db, plan = build_recipe("sort")
    session = QuerySession(db, plan)
    session.execute(max_rows=150)
    sq = session.suspend()
    return sq, db.state_store


_FAULTS: list = []


def all_faults():
    if not _FAULTS:
        sq, store = make_suspended()
        with tempfile.TemporaryDirectory(prefix="fault-probe-") as scratch:
            points, torn = enumerate_faults(sq, store, scratch)
        _FAULTS.extend(("crash", p) for p in points)
        _FAULTS.extend(("torn", lb) for lb in torn)
    return _FAULTS


_REBASE_FAULTS: list = []


def rebase_faults():
    """The faults of a full commit of a query resumed from ``base``: it
    copies the base's sections (all but the one re-dumped since)."""
    if not _REBASE_FAULTS:
        sq, store = make_suspended()
        with tempfile.TemporaryDirectory(prefix="fault-probe-") as scratch:
            points, torn = enumerate_faults(
                sq, store, scratch, base_image_id="base", rebase=True
            )
        _REBASE_FAULTS.extend(("crash", p) for p in points)
        _REBASE_FAULTS.extend(("torn", lb) for lb in torn)
    return _REBASE_FAULTS


def expected_classification(kind: str, name: str) -> set:
    if kind == "torn":
        return {"torn"}
    if name == "begin":
        return {"absent"}
    if name in ("renamed:image", "committed"):
        return {"committed"}
    # Anything between: a (possibly empty) .rimg.tmp at the root.
    return {"torn"}


def pytest_generate_tests(metafunc):
    for name, faults in (("fault", all_faults), ("rebase_fault", rebase_faults)):
        if name in metafunc.fixturenames:
            cases = faults()
            metafunc.parametrize(
                name, cases, ids=[f"{k}:{n}" for k, n in cases]
            )


def injector_for(kind: str, name: str) -> FaultInjector:
    return (
        FaultInjector.crashing_at(name)
        if kind == "crash"
        else FaultInjector.tearing(name)
    )


class TestCrashMatrix:
    def test_fault_leaves_no_silent_corruption(self, fault, tmp_path):
        kind, name = fault
        sq, store = make_suspended()
        outcome = run_one_fault(
            sq,
            store,
            str(tmp_path),
            injector_for(kind, name),
            fault=f"{kind}:{name}",
        )
        assert not outcome.silent_corruption, outcome.detail
        assert outcome.classification in expected_classification(kind, name)
        if outcome.classification == "committed":
            assert outcome.loaded
        # Every fault except the two post-commit points actually crashed.
        assert outcome.crashed


class TestRebaseCrashMatrix:
    def test_fault_leaves_the_old_chain_loadable(self, rebase_fault, tmp_path):
        """Every crash point and torn write of a commit that copies
        sections: the new image torn (or absent, or committed past the
        rename), the base it copies from committed and loadable."""
        kind, name = rebase_fault
        sq, store = make_suspended()
        outcome = run_one_fault(
            sq,
            store,
            str(tmp_path),
            injector_for(kind, name),
            fault=f"{kind}:{name}",
            base_image_id="base",
            rebase=True,
        )
        assert not outcome.silent_corruption, outcome.detail
        assert outcome.base_intact, outcome.detail
        assert outcome.classification in expected_classification(kind, name)
        if outcome.classification == "committed":
            assert outcome.loaded
        assert outcome.crashed

    def test_the_struck_commit_copies_sections(self, tmp_path, monkeypatch):
        """The sweep strikes a full image with copied sections: every one
        of them gets its own torn write."""
        sq, store = make_suspended()
        exported = []
        real_export = StateStore.export_payload

        def export_payload(self, handle):
            exported.append(handle.key)
            return real_export(self, handle)

        monkeypatch.setattr(StateStore, "export_payload", export_payload)
        enumerate_faults(
            sq, store, str(tmp_path), base_image_id="base", rebase=True
        )
        images = ImageStore(str(tmp_path))
        probe, base = images.manifest("probe"), images.manifest("base")
        assert probe["base_image_id"] is None
        blobs = probe["blobs"]
        # The base exported every payload; after it only the re-dumped
        # one was (to re-dump it, then to encode it in the struck commit),
        # which copied every other section.
        assert len(blobs) == len(base["blobs"]) > 1
        assert len(set(exported[len(blobs) :])) == 1
        assert {("torn", b["file"]) for b in blobs} <= set(rebase_faults())


def test_matrix_covers_manifest_and_blob_torn_writes():
    """The enumerated matrix must include the satellite's required cells."""
    faults = set(all_faults())
    assert ("torn", "manifest") in faults
    assert ("torn", "trailer") in faults
    assert ("torn", "control") in faults
    assert any(k == "torn" and n.startswith("blob-") for k, n in faults)
    assert ("crash", "written:image") in faults
    assert ("crash", "renamed:image") in faults


def test_full_matrix_via_harness(tmp_path):
    """End-to-end harness sweep: zero silent-corruption outcomes."""
    outcomes = run_crash_matrix(make_suspended, str(tmp_path))
    assert len(outcomes) >= 10
    assert all(not o.silent_corruption for o in outcomes)
    committed = [o for o in outcomes if o.classification == "committed"]
    # Exactly the two post-commit crash points leave a committed image.
    assert sorted(o.fault for o in committed) == [
        "crash:committed",
        "crash:renamed:image",
    ]
    assert all(o.loaded for o in committed)


def test_delta_matrix_base_survives_every_fault(tmp_path):
    """Mid-chain delta commit faults: delta torn/absent, base intact."""
    outcomes = run_crash_matrix(
        make_suspended, str(tmp_path), base_image_id="base"
    )
    assert len(outcomes) >= 8
    for o in outcomes:
        assert not o.silent_corruption, f"{o.fault}: {o.detail}"
        assert o.base_intact, f"{o.fault}: base image lost"
    committed = [o for o in outcomes if o.classification == "committed"]
    assert sorted(o.fault for o in committed) == [
        "crash:committed",
        "crash:renamed:image",
    ]
    assert all(o.loaded for o in committed)
    # The struck commit really was a provenance delta across a load: the
    # two that survived hold one rewritten payload and reference the rest
    # in ``base``, every one under the key it was first dumped under.
    survivors = sorted(tmp_path.glob("crash-*/img" + IMAGE_SUFFIX))
    assert len(survivors) == 2
    for path in survivors:
        store = ImageStore(str(path.parent))
        base_keys = {b["key"] for b in store.manifest("base")["blobs"]}
        blobs = store.manifest("img")["blobs"]
        refs = [b for b in blobs if "ref" in b]
        assert refs and len(blobs) - len(refs) == 1
        assert all(b["ref"]["image_id"] == "base" for b in refs)
        assert {b["key"] for b in blobs} == base_keys


# ----------------------------------------------------------------------
# The same tears under the final name
# ----------------------------------------------------------------------
def tear_labels():
    return [name for kind, name in all_faults() if kind == "torn"]


@pytest.mark.parametrize("label", tear_labels())
def test_torn_bytes_under_the_final_name_are_never_loaded(label, tmp_path):
    """A tear inside every blob, the control record, the manifest and
    the trailer: even when the partial file carries the committed name,
    it is classified torn, quarantined, and refuses to load."""
    root = str(tmp_path)
    sq, store = make_suspended()
    with pytest.raises(InjectedCrash):
        ImageStore(root, injector=FaultInjector.tearing(label)).save(
            sq, store, image_id="img"
        )
    final = os.path.join(root, "img" + IMAGE_SUFFIX)
    os.replace(final + ".tmp", final)

    survivor = ImageStore(root)
    assert survivor.validate("img")
    with pytest.raises(ImageFormatError):
        survivor.load("img")
    report = survivor.recover()
    assert report.torn == ["img"] and report.committed == []
    assert os.listdir(root) == ["quarantine"]


def test_every_single_byte_region_is_guarded(tmp_path):
    """Flip one byte in the middle of each file, of the manifest and of
    the trailer of a committed image: validate() always objects."""
    root = str(tmp_path)
    sq, state = make_suspended()
    store = ImageStore(root)
    info = store.save(sq, state, image_id="img")
    manifest = store.manifest("img")
    with open(info.path, "rb") as fh:
        clean = fh.read()
    size = len(clean)
    last = max(manifest["files"].values(), key=lambda e: e["offset"])
    manifest_at = last["offset"] + last["bytes"]
    spots = {
        name: e["offset"] + e["bytes"] // 2
        for name, e in manifest["files"].items()
    }
    spots["manifest"] = (manifest_at + size - TRAILER.size) // 2
    spots["trailer"] = size - TRAILER.size // 2
    for label, at in spots.items():
        corrupt = bytearray(clean)
        corrupt[at] ^= 0x40
        with open(info.path, "wb") as fh:
            fh.write(corrupt)
        assert store.validate("img"), f"flip inside {label} went unnoticed"
        with pytest.raises(ImageFormatError):
            ImageStore(root).load("img")
    with open(info.path, "wb") as fh:
        fh.write(clean)
    assert store.validate("img") == []
