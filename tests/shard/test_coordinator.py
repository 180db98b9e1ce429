"""Coordinator: sharded equivalence and the consistent-cut round trip."""

import math

import pytest

from repro.common.errors import (
    InconsistentCutError,
    ShardError,
    SuspendBudgetInfeasibleError,
)
from repro.core.lifecycle import QuerySession
from repro.durability import ImageFormatError, ImageStore, build_recipe
from repro.engine.plan import ScanSpec
from repro.shard import ShardCoordinator, shard_image_id
from repro.shard.manifest import MEMBER_DONE, MEMBER_RUNNING, load_cut
from tests.conftest import flip_byte, record_device_calls


def single_engine_rows(recipe, scale=2):
    db, plan = build_recipe(recipe, scale=scale)
    return QuerySession(db, plan).execute().rows


def make_coordinator(recipe, shards, scale=2, quantum_rows=16, spec=None):
    db, plan = build_recipe(recipe, scale=scale)
    return ShardCoordinator(
        db, spec or plan, num_shards=shards, quantum_rows=quantum_rows
    )


class TestEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("recipe", ["hashjoin", "hashagg"])
    def test_sharded_output_matches_single_engine(self, recipe, shards):
        rows = make_coordinator(recipe, shards).run()
        assert sorted(rows) == sorted(single_engine_rows(recipe))

    def test_partitioned_scan_gathers_every_row(self):
        db, _ = build_recipe("hashjoin", scale=2)
        coord = ShardCoordinator(db, ScanSpec("P"), num_shards=3)
        rows = coord.run()
        assert sorted(rows) == sorted(db.catalog.table("P").all_rows())

    def test_makespan_not_sum(self):
        coord = make_coordinator("hashjoin", 4)
        coord.run()
        times = [w.now() for w in coord.workers]
        assert coord.global_now() == max(times)
        assert coord.global_now() < sum(times)

    def test_partitioned_scan_makespan_falls_as_shards_are_added(self):
        """Shards scan their partitions in parallel on their own virtual
        clocks, so the makespan of a partitioned scan shrinks with every
        shard added — deterministically, with no wall clock involved."""
        db, _ = build_recipe("hashjoin", scale=2)
        single = QuerySession(db, ScanSpec("P"))
        single.execute()
        makespans = [db.now]
        for shards in (2, 4, 8):
            db, _ = build_recipe("hashjoin", scale=2)
            coord = ShardCoordinator(db, ScanSpec("P"), num_shards=shards)
            coord.run()
            makespans.append(coord.global_now())
        assert makespans == sorted(makespans, reverse=True)
        assert len(set(makespans)) == len(makespans)


class TestGlobalSuspendResume:
    def test_four_shard_join_round_trip_under_budget(self, tmp_path):
        """The acceptance scenario: a 4-shard shuffle join suspended
        under a finite global budget resumes from the shard-manifest
        image to delivery byte-identical to an uninterrupted run."""
        full = make_coordinator("hashjoin", 4).run()

        coord = make_coordinator("hashjoin", 4)
        before = coord.run(max_rows=len(full) // 3)
        assert not coord.done
        budget = 60.0
        report = coord.suspend_global(
            str(tmp_path), budget=budget, gid="cut1"
        )
        # Every shard got at least its floor and respected its slice.
        assert sum(report.budgets.values()) <= budget + 1e-9
        for k, cost in report.costs.items():
            assert cost <= report.budgets[k] + 1e-9
        assert report.latency == max(report.costs.values())

        db, _ = build_recipe("hashjoin", scale=2)
        resumed = ShardCoordinator.resume(db, str(tmp_path), "cut1")
        assert resumed.delivered_before == len(before)
        after = resumed.run()
        assert before + after == full

    def test_suspend_during_shuffle_stage(self, tmp_path):
        full = make_coordinator("hashjoin", 3).run()
        coord = make_coordinator("hashjoin", 3)
        for _ in range(2):  # still inside the build-shuffle stage
            coord.run_pass()
        assert coord.stage_idx == 0
        coord.suspend_global(str(tmp_path), gid="cut2")
        db, _ = build_recipe("hashjoin", scale=2)
        resumed = ShardCoordinator.resume(db, str(tmp_path), "cut2")
        assert resumed.run() == full

    def test_suspend_with_finished_shards_records_done_members(
        self, tmp_path
    ):
        # Shard fragments finish at different passes; cut once at least
        # one is done and check the manifest distinguishes the statuses.
        coord = make_coordinator("hashagg", 2, quantum_rows=4)
        full = make_coordinator("hashagg", 2, quantum_rows=4).run()
        while not any(coord.frag_done) and not coord.done:
            coord.run_pass()
        if coord.done:
            pytest.skip("both fragments finished in the same pass")
        before = list(coord.output_rows)
        coord.suspend_global(str(tmp_path), gid="cut3")
        record = load_cut(ImageStore(str(tmp_path)), "cut3")
        statuses = {m["shard"]: m["status"] for m in record["members"]}
        assert MEMBER_DONE in statuses.values()
        assert MEMBER_RUNNING in statuses.values()
        db, _ = build_recipe("hashagg", scale=2)
        resumed = ShardCoordinator.resume(db, str(tmp_path), "cut3")
        assert before + resumed.run() == full

    def test_infeasible_global_budget_raises(self, tmp_path):
        coord = make_coordinator("hashjoin", 4)
        coord.run(max_rows=10)
        with pytest.raises(SuspendBudgetInfeasibleError):
            coord.suspend_global(str(tmp_path), budget=0.1)
        # Nothing was committed by the refused cut.
        assert ImageStore(str(tmp_path)).list_images() == []

    def test_suspend_requires_inflight_stage(self, tmp_path):
        coord = make_coordinator("hashjoin", 2)
        coord.run()
        with pytest.raises(ShardError):
            coord.suspend_global(str(tmp_path))

    def test_member_images_carry_group_metadata(self, tmp_path):
        coord = make_coordinator("hashjoin", 2)
        coord.run(max_rows=5)
        coord.suspend_global(str(tmp_path), gid="cut4")
        store = ImageStore(str(tmp_path))
        for k in range(2):
            meta = store.info(shard_image_id("cut4", k)).meta
            assert meta["shard_group"] == "cut4"
            assert meta["shard"] == k


class TestCutVerification:
    def make_cut(self, tmp_path, gid="cutv"):
        coord = make_coordinator("hashjoin", 2)
        coord.run(max_rows=5)
        coord.suspend_global(str(tmp_path), gid=gid)
        return gid

    def test_tampered_channel_state_refused(self, tmp_path):
        """The channel buffers ride in the coordinator record, the cut
        image's control section: one flipped byte fails its checksum."""
        gid = self.make_cut(tmp_path)
        flip_byte(ImageStore(str(tmp_path)), gid, "control")
        db, _ = build_recipe("hashjoin", scale=2)
        with pytest.raises(InconsistentCutError, match="checksum"):
            ShardCoordinator.resume(db, str(tmp_path), gid)

    def test_damaged_member_image_refused(self, tmp_path):
        gid = self.make_cut(tmp_path)
        member = ImageStore(str(tmp_path)).info(shard_image_id(gid, 1))
        with open(member.path, "r+b") as fh:
            fh.truncate(member.total_bytes // 2)
        db, _ = build_recipe("hashjoin", scale=2)
        with pytest.raises(InconsistentCutError):
            ShardCoordinator.resume(db, str(tmp_path), gid)

    def test_unknown_gid_refused(self, tmp_path):
        db, _ = build_recipe("hashjoin", scale=2)
        with pytest.raises(InconsistentCutError):
            ShardCoordinator.resume(db, str(tmp_path), "never-written")

    def test_interrupted_resume_can_be_retried(self, tmp_path, monkeypatch):
        """A shard dying mid-resume leaves the cut untouched: the next
        resume attempt starts from the same committed shard-set."""
        full = make_coordinator("hashjoin", 2).run()
        coord = make_coordinator("hashjoin", 2)
        before = coord.run(max_rows=len(full) // 2)
        coord.suspend_global(str(tmp_path), gid="cutr")

        from repro.shard.worker import InProcessShardWorker

        original = InProcessShardWorker.resume_fragment
        calls = []

        def dying_resume(self, root, image_id):
            calls.append(self.shard_id)
            if self.shard_id == 1:
                raise ShardError("injected crash: shard 1 died mid-resume")
            return original(self, root, image_id)

        monkeypatch.setattr(
            InProcessShardWorker, "resume_fragment", dying_resume
        )
        db, _ = build_recipe("hashjoin", scale=2)
        with pytest.raises(ShardError):
            ShardCoordinator.resume(db, str(tmp_path), "cutr")
        monkeypatch.setattr(
            InProcessShardWorker, "resume_fragment", original
        )
        db, _ = build_recipe("hashjoin", scale=2)
        resumed = ShardCoordinator.resume(db, str(tmp_path), "cutr")
        assert before + resumed.run() == full
        assert calls == [0, 1]

    def test_member_of_another_cut_refused(self, tmp_path):
        """One global cut id: a cut naming a member image committed for
        another cut (here: shard 1 of ``other``) is torn."""
        gid = self.make_cut(tmp_path)
        self.make_cut(tmp_path, gid="other")
        store = ImageStore(str(tmp_path))
        record = store.load_cut(gid)
        record["members"][1]["image_id"] = shard_image_id("other", 1)
        store.delete(gid)
        store.save_cut(record, gid)
        db, _ = build_recipe("hashjoin", scale=2)
        with pytest.raises(InconsistentCutError, match="of cut 'other'"):
            ShardCoordinator.resume(db, str(tmp_path), gid)

    def test_cut_image_is_not_a_suspended_query(self, tmp_path):
        gid = self.make_cut(tmp_path)
        with pytest.raises(ImageFormatError, match="shard-set cut"):
            ImageStore(str(tmp_path)).load(gid)

    def test_cut_commit_is_two_fsyncs_and_one_rename(
        self, tmp_path, monkeypatch
    ):
        """Members commit first (2 fsyncs + 1 rename each, as any image);
        the cut itself is one more image: 2 fsyncs, 1 rename."""
        coord = make_coordinator("hashjoin", 2)
        coord.run(max_rows=5)
        calls = record_device_calls(monkeypatch)
        coord.suspend_global(str(tmp_path), gid="cutf")
        images = 1 + sum(not done for done in coord.frag_done)
        assert calls.count("fsync") == 2 * images
        assert calls.count("rename") == images


class TestBudgetAllocation:
    def test_infinite_budget_is_unconstrained(self, tmp_path):
        coord = make_coordinator("hashjoin", 2)
        coord.run(max_rows=5)
        report = coord.suspend_global(str(tmp_path), budget=math.inf)
        assert all(math.isinf(b) for b in report.budgets.values())

    def test_surplus_flows_to_needier_shards(self):
        coord = make_coordinator("hashjoin", 2)
        coord.run(max_rows=5)
        estimates = {
            0: {"est": 30.0, "floor": 10.0},
            1: {"est": 10.0, "floor": 10.0},
        }
        coord.workers = [
            type(
                "W", (), {"estimate_suspend_cost": lambda self, e=e: e}
            )()
            for e in estimates.values()
        ]
        budgets = coord._allocate_budgets(30.0, [0, 1])
        # Floor covered everywhere; all surplus goes to shard 0.
        assert budgets == {0: 20.0, 1: 10.0}
