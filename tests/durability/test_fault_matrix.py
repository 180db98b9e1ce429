"""The parametrized crash matrix: every commit step, every torn write.

The fault list is enumerated from a clean recorder run (not hard-coded),
so these tests cannot drift out of sync with the commit protocol: adding
a step to ``ImageStore.save`` automatically adds its crash points here.
Each fault gets its own test case asserting the recovery classification
and — the core safety claim — the absence of silent corruption.

Blobs and the control record are binary frames written through
``atomic_write_stream`` (a torn write truncates *inside* a CRC'd frame);
the matrix runs for full commits and again for delta commits, where the
base image must additionally survive every mid-chain crash.
"""

import tempfile

from repro.core.lifecycle import QuerySession
from repro.durability import build_recipe, enumerate_faults, run_crash_matrix
from repro.durability.faults import FaultInjector
from repro.durability.harness import (
    run_delta_crash_matrix,
    run_one_fault,
)


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
        scratch = tempfile.mkdtemp(prefix="fault-probe-")
        points, torn = enumerate_faults(sq, store, scratch)
        _FAULTS.extend(("crash", p) for p in points)
        _FAULTS.extend(("torn", lb) for lb in torn)
    return _FAULTS


def expected_classification(kind: str, name: str) -> set:
    if kind == "torn":
        return {"torn"}
    if name == "begin":
        return {"absent"}
    if name in ("renamed:MANIFEST.json", "committed"):
        return {"committed"}
    if name == "before:blob-0000.bin":
        # Crash before the first byte: the directory is empty.
        return {"orphaned"}
    return {"torn"}


def pytest_generate_tests(metafunc):
    if "fault" in metafunc.fixturenames:
        cases = all_faults()
        metafunc.parametrize(
            "fault", cases, ids=[f"{k}:{n}" for k, n in cases]
        )


class TestCrashMatrix:
    def test_fault_leaves_no_silent_corruption(self, fault, tmp_path):
        kind, name = fault
        injector = (
            FaultInjector.crashing_at(name)
            if kind == "crash"
            else FaultInjector.tearing(name)
        )
        sq, store = make_suspended()
        outcome = run_one_fault(
            sq, store, str(tmp_path), injector, fault=f"{kind}:{name}"
        )
        assert not outcome.silent_corruption, outcome.detail
        assert outcome.classification in expected_classification(kind, name)
        if outcome.classification == "committed":
            assert outcome.loaded
        # Every fault except the two post-commit points actually crashed.
        assert outcome.crashed


def test_matrix_covers_manifest_and_blob_torn_writes():
    """The enumerated matrix must include the satellite's required cells."""
    faults = set(all_faults())
    assert ("torn", "MANIFEST.json") in faults
    assert ("torn", "control.bin") in faults
    assert any(k == "torn" and n.startswith("blob-") for k, n in faults)
    assert ("crash", "written:MANIFEST.json") in faults
    assert ("crash", "renamed:MANIFEST.json") in faults


def test_full_matrix_via_harness(tmp_path):
    """End-to-end harness sweep: zero silent-corruption outcomes."""
    outcomes = run_crash_matrix(make_suspended, str(tmp_path))
    assert len(outcomes) >= 10
    assert all(not o.silent_corruption for o in outcomes)
    committed = [o for o in outcomes if o.classification == "committed"]
    # Exactly the two post-commit crash points leave a committed image.
    assert sorted(o.fault for o in committed) == [
        "crash:committed",
        "crash:renamed:MANIFEST.json",
    ]
    assert all(o.loaded for o in committed)


def test_delta_matrix_base_survives_every_fault(tmp_path):
    """Mid-chain delta commit faults: delta torn/absent, base intact."""
    outcomes = run_delta_crash_matrix(make_suspended, str(tmp_path))
    assert len(outcomes) >= 8
    for o in outcomes:
        assert not o.silent_corruption, f"{o.fault}: {o.detail}"
        assert o.base_intact, f"{o.fault}: base image lost"
    committed = [o for o in outcomes if o.classification == "committed"]
    assert sorted(o.fault for o in committed) == [
        "crash:committed",
        "crash:renamed:MANIFEST.json",
    ]
    assert all(o.loaded for o in committed)
