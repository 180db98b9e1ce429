"""Shard crash matrix: every cut is committed or torn, never wrong.

Two fault surfaces exist in a global suspend: a *member* image commit
(one shard's ordinary durable image) and the *shard-set* commit (channel
state + manifest, whose rename is the global commit point). For every
injected crash the invariant is the same: after ``ImageStore.recover()``
plus :func:`classify_shardsets`, the cut is either fully committed and
resumable, or classified torn with its surviving members listed as
stranded — and a torn cut can never be resumed.
"""

import pytest

from repro.common.errors import InconsistentCutError
from repro.durability import ImageStore, build_recipe
from repro.durability.faults import FaultInjector, InjectedCrash
from repro.shard import ShardCoordinator, classify_shardsets

SHARDS = 4

#: Shard-set commit crash points, in protocol order. The cut exists iff
#: the crash struck after the manifest rename.
SHARDSET_POINTS = [
    ("shardset:begin", False),
    ("before:CHANNELS.json", False),
    ("written:CHANNELS.json", False),
    ("renamed:CHANNELS.json", False),
    ("before:SHARDSET.json", False),
    ("written:SHARDSET.json", False),
    ("renamed:SHARDSET.json", True),
    ("shardset:committed", True),
]


def make_running_coordinator(shards=SHARDS):
    db, plan = build_recipe("hashjoin", scale=2)
    coord = ShardCoordinator(db, plan, num_shards=shards, quantum_rows=16)
    coord.run(max_rows=20)
    assert not coord.done
    return coord


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


class TestShardSetCommitCrash:
    @pytest.mark.parametrize("point,committed", SHARDSET_POINTS)
    def test_every_commit_step(self, tmp_path, point, committed):
        coord = make_running_coordinator(shards=2)
        coord.arm_shardset_fault(FaultInjector.crashing_at(point))
        with pytest.raises(InjectedCrash):
            coord.suspend_global(str(tmp_path), gid="g3")
        report, cuts = classify(tmp_path)
        # Every member image committed before the shard-set step began.
        assert sorted(report.committed) == ["g3--s0", "g3--s1"]
        if committed:
            # The crash struck after the global commit point: the cut
            # survived whole and resumes normally.
            assert cuts.committed == ["g3"]
            db, _ = build_recipe("hashjoin", scale=2)
            resumed = ShardCoordinator.resume(db, str(tmp_path), "g3")
            assert resumed.run()  # runs to completion
        else:
            assert "g3" in cuts.torn
            assert cuts.stranded["g3"] == ["g3--s0", "g3--s1"]
            assert_resume_refused(tmp_path, "g3")

    @pytest.mark.parametrize("label", ["CHANNELS.json", "SHARDSET.json"])
    def test_torn_shardset_files(self, tmp_path, label):
        coord = make_running_coordinator(shards=2)
        coord.arm_shardset_fault(FaultInjector.tearing(label))
        with pytest.raises(InjectedCrash):
            coord.suspend_global(str(tmp_path), gid="g4")
        _, cuts = classify(tmp_path)
        assert "g4" in cuts.torn
        assert cuts.stranded["g4"] == ["g4--s0", "g4--s1"]
        assert_resume_refused(tmp_path, "g4")


class TestNoSilentCorruption:
    def test_every_gid_under_the_root_is_classified(self, tmp_path):
        # One committed cut, one torn cut, side by side in one root.
        good = make_running_coordinator(shards=2)
        good.suspend_global(str(tmp_path), gid="good")
        bad = make_running_coordinator(shards=2)
        bad.arm_shardset_fault(
            FaultInjector.crashing_at("before:SHARDSET.json")
        )
        with pytest.raises(InjectedCrash):
            bad.suspend_global(str(tmp_path), gid="bad")
        _, cuts = classify(tmp_path)
        assert cuts.committed == ["good"]
        assert set(cuts.torn) == {"bad"}
        assert cuts.stranded == {"bad": ["bad--s0", "bad--s1"]}

    def test_recover_leaves_shardset_directories_alone(self, tmp_path):
        coord = make_running_coordinator(shards=2)
        coord.suspend_global(str(tmp_path), gid="keep")
        store = ImageStore(str(tmp_path))
        report = store.recover()
        assert report.shardsets == ["keep"]
        assert report.quarantined == []
        # Recovery did not damage the cut: it still resumes.
        db, _ = build_recipe("hashjoin", scale=2)
        assert ShardCoordinator.resume(db, str(tmp_path), "keep").run()
