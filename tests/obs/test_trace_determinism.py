"""Trace determinism: identical runs produce byte-identical JSONL.

Determinism is the load-bearing property of the whole observability
layer — it is what lets a trace serve as a regression artifact. Two
threats are covered here:

- in-process: global counters (checkpoint/contract/store ids) leaking
  into records, dict ordering, floating-point formatting;
- cross-process: anything environment-dependent (``id()``, hash seeds,
  wall-clock time) leaking in. The CLI runs the same suspend→image and
  image→resume commands twice in fresh interpreters and the traces must
  match byte for byte.
"""

import json

from repro.core.lifecycle import QuerySession, SuspendSpec, SuspendStrategy
from repro.obs import Tracer, trace_lines
from repro.service import QueryScheduler, SchedulerConfig
from repro.workloads.plans import build_nlj_s, mixed_priority_trace

from tests.durability.test_cross_process import run_cli


def session_trace():
    tracer = Tracer(next_sample_every=16)
    db, plan = build_nlj_s(0.5, scale=200)
    session = QuerySession(db, plan, name="nlj", tracer=tracer)
    session.execute(max_rows=20)
    sq = session.suspend(SuspendSpec(strategy=SuspendStrategy.LP))
    resumed = QuerySession.resume(db, sq, name="nlj", tracer=tracer)
    resumed.execute()
    return trace_lines(tracer.records), tracer.metrics.render_text()


def scheduler_trace(image_root):
    workload = mixed_priority_trace(scale=4, seed=1)
    tracer = Tracer()
    config = SchedulerConfig(
        policy="suspend-resume",
        memory_budget=workload.memory_budget,
        suspend=SuspendSpec(
            budget=workload.suspend_budget,
            persist_to=image_root,
        ),
        tracer=tracer,
    )
    scheduler = QueryScheduler(workload.db_factory(), config)
    scheduler.submit_trace(workload.trace)
    scheduler.run()
    return trace_lines(tracer.records), tracer.metrics.render_text()


class TestInProcessDeterminism:
    def test_session_runs_are_byte_identical(self):
        (lines_a, metrics_a) = session_trace()
        (lines_b, metrics_b) = session_trace()
        assert lines_a == lines_b
        assert metrics_a == metrics_b

    def test_scheduler_runs_are_byte_identical(self, tmp_path):
        a = scheduler_trace(str(tmp_path / "a"))
        b = scheduler_trace(str(tmp_path / "b"))
        assert a == b

    def test_no_global_counters_leak_into_records(self):
        # Burn some global ids; the trace must not shift.
        baseline, _ = session_trace()
        db, plan = build_nlj_s(0.5, scale=200)
        extra = QuerySession(db, plan)
        extra.execute(max_rows=10)
        extra.suspend(SuspendSpec(strategy=SuspendStrategy.LP))
        again, _ = session_trace()
        assert again == baseline


class TestCrossProcessDeterminism:
    def run_pair(self, root, tag):
        """Suspend to an image and resume it, tracing both processes."""
        images = str(root / f"images-{tag}")
        strace = str(root / f"suspend-{tag}.jsonl")
        rtrace = str(root / f"resume-{tag}.jsonl")
        run_cli(
            "suspend",
            "--recipe",
            "sort",
            "--images",
            images,
            "--rows",
            "30",
            "--id",
            "img",
            "--trace-out",
            strace,
            "--trace-sample",
            "16",
        )
        run_cli(
            "resume-image",
            "--images",
            images,
            "--id",
            "img",
            "--trace-out",
            rtrace,
            "--trace-sample",
            "16",
        )
        with open(strace, "rb") as fh:
            suspend_bytes = fh.read()
        with open(rtrace, "rb") as fh:
            resume_bytes = fh.read()
        return suspend_bytes, resume_bytes

    def test_fresh_interpreters_produce_identical_traces(self, tmp_path):
        first = self.run_pair(tmp_path, "a")
        second = self.run_pair(tmp_path, "b")
        assert first == second
        # Sanity: the suspend trace is substantive, not trivially equal.
        types = {
            json.loads(line)["type"]
            for line in first[0].decode().splitlines()
        }
        assert {
            "checkpoint.taken",
            "mip.decision",
            "image.commit",
            "op.next_batch",
            "op.stats",
        } <= types
