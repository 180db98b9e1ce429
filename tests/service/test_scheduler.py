"""The multi-query scheduler: policies, pressure, and edge cases."""

import pytest

from repro.common.errors import ReproError
from repro.harness.scheduling import compare_policies
from repro.service import (
    QueryScheduler,
    QueryState,
    SchedulerConfig,
)
from repro.service.policies import select_victims
from repro.core.lifecycle import QuerySession, SuspendSpec
from repro.workloads.plans import (
    mixed_priority_trace,
    mixed_q_hi_plan,
)

SCALE = 4
SEED = 1


@pytest.fixture(scope="module")
def workload():
    return mixed_priority_trace(scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def policy_results(workload):
    return compare_policies(workload)


class TestSectionOneComparison:
    """The paper's motivating claim, as an executable assertion."""

    def test_suspend_resume_beats_both_other_policies(self, policy_results):
        combined = {
            policy: stats.total_turnaround()
            for policy, stats in policy_results.items()
        }
        assert combined["suspend-resume"] < combined["kill-restart"]
        assert combined["suspend-resume"] < combined["wait"]

    def test_every_policy_completes_every_query(self, policy_results):
        for stats in policy_results.values():
            assert stats.queries_admitted == 2
            assert stats.queries_completed == 2

    def test_output_rows_identical_across_policies(self, policy_results):
        per_policy = [
            {q.name: q.rows_emitted for q in stats.per_query.values()}
            for stats in policy_results.values()
        ]
        assert per_policy[0] == per_policy[1] == per_policy[2]

    def test_policies_act_as_advertised(self, policy_results):
        sr = policy_results["suspend-resume"]
        assert sr.suspends >= 1 and sr.resumes == sr.suspends
        assert sr.kills == 0
        kr = policy_results["kill-restart"]
        assert kr.kills >= 1 and kr.suspends == 0
        w = policy_results["wait"]
        assert w.suspends == 0 and w.kills == 0


class TestMidResumeDiscard:
    """Paper Section 2: a suspend request during resume discards the
    half-resumed state and keeps the old SuspendedQuery."""

    def test_arrival_inside_resume_window_discards(self, workload):
        # Calibrate: replay the plain two-query trace and locate q_lo's
        # resume window (from q_hi's completion to the resume mark).
        config = SchedulerConfig(
            policy="suspend-resume",
            memory_budget=workload.memory_budget,
            suspend=SuspendSpec(budget=workload.suspend_budget),
        )
        baseline = QueryScheduler(workload.db_factory(), config)
        baseline.submit_trace(workload.trace)
        ref = baseline.run()
        resume_end = next(
            e.time
            for e in ref.timeline
            if e.event == "resume" and e.query == "q_lo"
        )
        resume_start = max(
            e.time for e in ref.timeline if e.time < resume_end
        )
        assert resume_start < resume_end

        # Replay with a third, higher-priority query arriving strictly
        # inside that window. Scheduling before the window is unchanged,
        # so the resume really is in flight when q_hi2 arrives.
        config2 = SchedulerConfig(
            policy="suspend-resume",
            memory_budget=workload.memory_budget,
            suspend=SuspendSpec(budget=workload.suspend_budget),
        )
        scheduler = QueryScheduler(workload.db_factory(), config2)
        scheduler.submit_trace(workload.trace)
        scheduler.submit(
            "q_hi2",
            mixed_q_hi_plan(SCALE),
            arrival_time=(resume_start + resume_end) / 2,
            priority=10,
        )
        stats = scheduler.run()

        assert stats.discarded_resumes == 1
        assert stats.per_query["q_lo"].discarded_resumes == 1
        # Only the wasted resume I/O is paid: no extra suspend phase.
        assert stats.suspends == ref.suspends
        assert stats.queries_completed == 3
        # q_lo loses no work: same output as the undisturbed run.
        assert (
            stats.per_query["q_lo"].rows_emitted
            == ref.per_query["q_lo"].rows_emitted
        )

    def test_discard_keeps_old_suspended_query(self, workload):
        # The timeline shows discard-resume strictly between the suspend
        # and the (single) successful resume.
        config = SchedulerConfig(
            policy="suspend-resume",
            memory_budget=workload.memory_budget,
            suspend=SuspendSpec(budget=workload.suspend_budget),
        )
        baseline = QueryScheduler(workload.db_factory(), config)
        baseline.submit_trace(workload.trace)
        ref = baseline.run()
        resume_end = next(
            e.time
            for e in ref.timeline
            if e.event == "resume" and e.query == "q_lo"
        )
        resume_start = max(
            e.time for e in ref.timeline if e.time < resume_end
        )

        scheduler = QueryScheduler(workload.db_factory(), config)
        # Reusing the config is fine: it is read-only to the scheduler.
        scheduler.submit_trace(workload.trace)
        scheduler.submit(
            "q_hi2",
            mixed_q_hi_plan(SCALE),
            arrival_time=(resume_start + resume_end) / 2,
            priority=10,
        )
        stats = scheduler.run()
        events = [
            e.event for e in stats.timeline if e.query == "q_lo"
        ]
        i_suspend = events.index("suspend")
        i_discard = events.index("discard-resume")
        i_resume = events.index("resume")
        assert i_suspend < i_discard < i_resume
        assert events[-1] == "complete"


class TestZeroMemoryBudget:
    """budget=0 degenerates to one resident query, never a livelock."""

    def test_all_queries_complete_with_suspends(self, workload):
        config = SchedulerConfig(
            policy="suspend-resume",
            memory_budget=0,
            suspend=SuspendSpec(budget=workload.suspend_budget),
        )
        stats = QueryScheduler.run_workload(workload, config=config)
        assert stats.queries_completed == 2
        assert stats.suspends >= 1
        assert all(
            q.turnaround is not None for q in stats.per_query.values()
        )


class TestDeterminism:
    def test_two_runs_produce_identical_stats(self, workload):
        runs = [
            QueryScheduler.run_workload(workload, policy="suspend-resume")
            for _ in range(2)
        ]
        assert runs[0].as_dict() == runs[1].as_dict()
        assert runs[0].query_rows() == runs[1].query_rows()
        assert runs[0].timeline_rows() == runs[1].timeline_rows()


class TestSubmissionRules:
    def test_duplicate_names_rejected(self, workload):
        scheduler = QueryScheduler(workload.db_factory())
        scheduler.submit("q", mixed_q_hi_plan(SCALE))
        with pytest.raises(ReproError, match="duplicate"):
            scheduler.submit("q", mixed_q_hi_plan(SCALE))

    def test_scheduler_runs_only_once(self, workload):
        scheduler = QueryScheduler(workload.db_factory())
        scheduler.submit("q", mixed_q_hi_plan(SCALE))
        scheduler.run()
        with pytest.raises(ReproError):
            scheduler.run()
        with pytest.raises(ReproError):
            scheduler.submit("late", mixed_q_hi_plan(SCALE))

    def test_single_query_completes_without_pressure(self, workload):
        scheduler = QueryScheduler(workload.db_factory())
        record = scheduler.submit("q", mixed_q_hi_plan(SCALE))
        stats = scheduler.run()
        assert record.state is QueryState.DONE
        assert stats.suspends == stats.kills == 0
        solo = QuerySession(workload.db_factory(), mixed_q_hi_plan(SCALE))
        assert stats.per_query["q"].rows_emitted == len(solo.execute().rows) > 0


class TestVictimSelection:
    class _Fake:
        def __init__(self, name, priority, memory):
            self.name = name
            self.priority = priority
            self._memory = memory

        def memory_in_use(self):
            return self._memory

    def test_lowest_priority_largest_memory_first(self):
        a = self._Fake("a", priority=0, memory=100)
        b = self._Fake("b", priority=0, memory=500)
        c = self._Fake("c", priority=5, memory=900)
        assert select_victims([a, b, c], excess=400) == [b]
        assert select_victims([a, b, c], excess=550) == [b, a]
        assert select_victims([a, b, c], excess=700) == [b, a, c]

    def test_insufficient_candidates_returns_all(self):
        a = self._Fake("a", priority=0, memory=10)
        assert select_victims([a], excess=10_000) == [a]
