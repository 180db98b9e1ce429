"""Process-backed shard workers: same protocol, real process death."""

import os
import signal
import threading

import pytest

from repro.common.errors import InconsistentCutError, ShardError
from repro.durability import build_recipe
from repro.engine.config import EngineConfig
from repro.obs import Tracer
from repro.shard import ShardCoordinator, classify_shardsets
from repro.shard import worker_proc
from repro.shard.worker_proc import CRASH_EXIT_CODE, ProcessShardWorker


def make_coordinator(worker_mode, shards=2, quantum_rows=32, **kwargs):
    db, plan = build_recipe("hashjoin", scale=4)
    return ShardCoordinator(
        db,
        plan,
        num_shards=shards,
        worker_mode=worker_mode,
        quantum_rows=quantum_rows,
        **kwargs,
    )


class TestProcessWorkers:
    def test_process_output_matches_inprocess(self):
        inproc = make_coordinator("inproc")
        proc = make_coordinator("process")
        try:
            assert proc.run() == inproc.run()
        finally:
            proc.close()

    def test_suspend_resume_across_processes(self, tmp_path):
        full_coord = make_coordinator("process")
        try:
            full = full_coord.run()
        finally:
            full_coord.close()

        coord = make_coordinator("process")
        try:
            before = coord.run(max_rows=len(full) // 2)
            assert not coord.done
            coord.suspend_global(str(tmp_path), gid="pcut")
        finally:
            coord.close()

        db, _ = build_recipe("hashjoin", scale=4)
        resumed = ShardCoordinator.resume(
            db, str(tmp_path), "pcut", worker_mode="process"
        )
        try:
            assert before + resumed.run() == full
        finally:
            resumed.close()

    def test_child_death_mid_commit_is_a_real_crash(self, tmp_path):
        coord = make_coordinator("process")
        try:
            coord.run(max_rows=10)
            coord.arm_shard_fault(1, "crash", "written:image")
            with pytest.raises(ShardError, match="died"):
                coord.suspend_global(str(tmp_path), gid="pdead")
            assert coord.workers[1].proc.returncode == CRASH_EXIT_CODE
        finally:
            coord.close()
        from repro.durability import ImageStore

        store = ImageStore(str(tmp_path))
        store.recover()
        cuts = classify_shardsets(store)
        assert "pdead" in cuts.torn
        db, _ = build_recipe("hashjoin", scale=4)
        with pytest.raises(InconsistentCutError):
            ShardCoordinator.resume(db, str(tmp_path), "pdead")

    def test_killed_worker_surfaces_as_shard_error(self):
        coord = make_coordinator("process")
        try:
            coord.run(max_rows=5)
            coord.workers[0].kill()
            with pytest.raises(ShardError, match="dead|died"):
                coord.run_pass()
        finally:
            coord.close()


class TestProxy:
    """The process worker is the in-process worker behind a pipe."""

    def test_unknown_op_is_a_shard_error(self):
        coord = make_coordinator("process")
        try:
            with pytest.raises(ShardError, match="unknown worker op 'bogus'"):
                coord.workers[0]._call("bogus")
            with pytest.raises(ShardError, match="unknown worker op"):
                coord.workers[0]._call("_require_session")
            # The child is still serving after the refusal.
            assert coord.workers[0].progress()["shard"] == 0
        finally:
            coord.close()

    def test_records_before_a_crash_reach_the_coordinator_trace(
        self, tmp_path
    ):
        tracer = Tracer()
        coord = make_coordinator("process", tracer=tracer)
        try:
            coord.run(max_rows=10)
            coord.arm_shard_fault(1, "crash", "written:image")
            with pytest.raises(ShardError, match="died"):
                coord.suspend_global(str(tmp_path), gid="pdead")
        finally:
            coord.close()
        seen = {(r["type"], r.get("shard")) for r in tracer.records}
        # Both shards' quanta, and shard 0's whole member commit, came
        # back with their replies before shard 1 died.
        assert {("query.execute", 0), ("query.execute", 1)} <= seen
        assert {("query.suspend", 0), ("image.commit", 0)} <= seen
        assert ("image.commit", 1) not in seen

    def test_engine_config_reaches_every_worker_kind(self):
        def estimates(mode, config):
            coord = make_coordinator(mode, quantum_rows=16, config=config)
            try:
                coord.run(max_rows=40)
                return [w.estimate_suspend_cost() for w in coord.workers]
            finally:
                coord.close()

        ablated = EngineConfig(
            proactive_checkpointing=False, contract_migration=False
        )
        inproc = estimates("inproc", ablated)
        assert estimates("process", ablated) == inproc
        assert inproc != estimates("inproc", EngineConfig())


class TestHungWorker:
    def test_a_stopped_child_is_killed_and_the_op_named(self, monkeypatch):
        """A child that neither answers nor dies (``SIGSTOP``): the call
        fails with a ``ShardError`` naming the op once the deadline
        passes, and the child is killed and reaped. The call runs on a
        daemon thread joined with a timeout, so a call with no deadline
        fails this test instead of hanging the suite."""
        worker = ProcessShardWorker(0, 1, tables=[])
        monkeypatch.setattr(worker_proc, "DEADLINE_S", 0.5, raising=False)
        os.kill(worker.proc.pid, signal.SIGSTOP)
        outcome = []

        def call():
            try:
                outcome.append(worker._call("now"))
            except ShardError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=10)
        try:
            assert not thread.is_alive(), "the call has no deadline"
            (error,) = outcome
            assert isinstance(error, ShardError)
            assert "'now'" in str(error) and "0.5 s" in str(error)
            assert worker.proc.returncode == -signal.SIGKILL
        finally:
            if worker.proc.poll() is None:
                os.kill(worker.proc.pid, signal.SIGCONT)
                worker.kill()
            thread.join(timeout=20)
