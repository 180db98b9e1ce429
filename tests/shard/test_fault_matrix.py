"""Shard crash matrix: every cut is committed or torn, never wrong.

Two fault surfaces exist in a global suspend: a *member* image commit
(one shard's ordinary durable image) and the *cut* commit (one more
image, holding the coordinator record, whose rename is the global commit
point). For every injected crash the invariant is the same: after
``ImageStore.recover()`` plus :func:`classify_shardsets`, the cut is
either fully committed and resumable, or classified torn with its
surviving members listed as stranded — and a torn cut can never be
resumed. The cut's crash points and torn-write labels are not listed
here: a recorder run enumerates them, as
:func:`repro.durability.harness.enumerate_faults` does for one image.
"""

import os
import tempfile

import pytest

from repro.common.errors import InconsistentCutError
from repro.durability import ImageStore, build_recipe
from repro.durability.faults import FaultInjector, InjectedCrash
from repro.shard import ShardCoordinator, classify_shardsets

SHARDS = 4


def make_running_coordinator(shards=SHARDS):
    db, plan = build_recipe("hashjoin", scale=2)
    coord = ShardCoordinator(db, plan, num_shards=shards, quantum_rows=16)
    coord.run(max_rows=20)
    assert not coord.done
    return coord


def recorded_cut_faults() -> tuple[list, list]:
    """Every crash point and torn-write label one clean cut commit passes."""
    recorder = FaultInjector()
    coord = make_running_coordinator(shards=2)
    coord.arm_shardset_fault(recorder)
    with tempfile.TemporaryDirectory() as root:
        coord.suspend_global(root, gid="probe")
    return (
        list(dict.fromkeys(recorder.observed_points)),
        list(dict.fromkeys(recorder.observed_torn)),
    )


CUT_POINTS, CUT_TORN_LABELS = recorded_cut_faults()
#: The rename of the cut image is the global commit point.
COMMIT_POINT = "renamed:image"


def classify(root):
    store = ImageStore(str(root))
    report = store.recover()
    return report, classify_shardsets(store)


def assert_resume_refused(root, gid):
    db, _ = build_recipe("hashjoin", scale=2)
    with pytest.raises(InconsistentCutError):
        ShardCoordinator.resume(db, str(root), gid)


class TestMemberCommitCrash:
    @pytest.mark.parametrize("victim", range(SHARDS))
    def test_shard_crash_mid_member_commit_tears_the_cut(
        self, tmp_path, victim
    ):
        coord = make_running_coordinator()
        coord.arm_shard_fault(victim, "crash", "written:image")
        with pytest.raises(InjectedCrash):
            coord.suspend_global(str(tmp_path), gid="g1")
        report, cuts = classify(tmp_path)
        # Earlier members committed individually; the cut never did.
        assert "g1" not in cuts.committed
        expected_members = [f"g1--s{k}" for k in range(victim)]
        assert sorted(report.committed) == expected_members
        assert cuts.stranded.get("g1", []) == expected_members
        if victim > 0:
            assert "g1" in cuts.torn
        assert_resume_refused(tmp_path, "g1")

    def test_torn_member_blob_write_tears_the_cut(self, tmp_path):
        coord = make_running_coordinator(shards=2)
        coord.arm_shard_fault(1, "torn", "manifest")
        with pytest.raises(InjectedCrash):
            coord.suspend_global(str(tmp_path), gid="g2")
        report, cuts = classify(tmp_path)
        assert "g2" in cuts.torn
        assert report.committed == ["g2--s0"]
        assert_resume_refused(tmp_path, "g2")


class TestCutCommitCrash:
    def test_the_recorder_sees_the_image_commit_protocol(self):
        assert COMMIT_POINT in CUT_POINTS
        assert CUT_POINTS.index(COMMIT_POINT) < len(CUT_POINTS) - 1
        assert CUT_TORN_LABELS

    @pytest.mark.parametrize("point", CUT_POINTS)
    def test_every_recorded_crash_point(self, tmp_path, point):
        coord = make_running_coordinator(shards=2)
        coord.arm_shardset_fault(FaultInjector.crashing_at(point))
        with pytest.raises(InjectedCrash):
            coord.suspend_global(str(tmp_path), gid="g3")
        report, cuts = classify(tmp_path)
        members = ["g3--s0", "g3--s1"]
        if CUT_POINTS.index(point) >= CUT_POINTS.index(COMMIT_POINT):
            # The crash struck after the global commit point: the cut
            # survived whole and resumes normally.
            assert sorted(report.committed) == ["g3"] + members
            assert cuts.committed == ["g3"]
            db, _ = build_recipe("hashjoin", scale=2)
            resumed = ShardCoordinator.resume(db, str(tmp_path), "g3")
            assert resumed.run()  # runs to completion
        else:
            # Every member image committed before the cut's commit began.
            assert sorted(report.committed) == members
            assert "g3" in cuts.torn
            assert cuts.stranded["g3"] == members
            assert_resume_refused(tmp_path, "g3")

    @pytest.mark.parametrize("label", CUT_TORN_LABELS)
    def test_every_recorded_torn_write(self, tmp_path, label):
        coord = make_running_coordinator(shards=2)
        coord.arm_shardset_fault(FaultInjector.tearing(label))
        with pytest.raises(InjectedCrash):
            coord.suspend_global(str(tmp_path), gid="g4")
        report, cuts = classify(tmp_path)
        assert report.torn == ["g4"]
        assert "g4" in cuts.torn
        assert cuts.stranded["g4"] == ["g4--s0", "g4--s1"]
        assert_resume_refused(tmp_path, "g4")


class TestNoSilentCorruption:
    def test_every_gid_under_the_root_is_classified(self, tmp_path):
        # One committed cut, one torn cut, side by side in one root.
        good = make_running_coordinator(shards=2)
        good.suspend_global(str(tmp_path), gid="good")
        bad = make_running_coordinator(shards=2)
        bad.arm_shardset_fault(FaultInjector.crashing_at("written:image"))
        with pytest.raises(InjectedCrash):
            bad.suspend_global(str(tmp_path), gid="bad")
        _, cuts = classify(tmp_path)
        assert cuts.committed == ["good"]
        assert set(cuts.torn) == {"bad"}
        assert cuts.stranded == {"bad": ["bad--s0", "bad--s1"]}

    def test_committed_cut_is_a_committed_image(self, tmp_path):
        coord = make_running_coordinator(shards=2)
        coord.suspend_global(str(tmp_path), gid="keep")
        report = ImageStore(str(tmp_path)).recover()
        assert sorted(report.committed) == ["keep", "keep--s0", "keep--s1"]
        assert report.quarantined == []
        # Recovery did not damage the cut: it still resumes.
        db, _ = build_recipe("hashjoin", scale=2)
        assert ShardCoordinator.resume(db, str(tmp_path), "keep").run()

    def test_old_format_shard_set_directory_is_quarantined(self, tmp_path):
        """A ``<gid>/`` directory of JSON documents (what builds wrote
        before the cut became an image) is orphaned: moved to quarantine,
        never half-read, never a cut."""
        old = tmp_path / "old"
        old.mkdir()
        (old / "CHANNELS.json").write_text("{}")
        (old / "SHARDSET.json").write_text('{"shardset_version": 1}')
        report, cuts = classify(tmp_path)
        assert report.orphaned == ["old"]
        assert report.quarantined == [os.path.join("quarantine", "old")]
        assert cuts.committed == [] and cuts.torn == {}
        assert_resume_refused(tmp_path, "old")
