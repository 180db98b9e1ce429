"""The multi-query scheduler: QuerySession as a served primitive.

:class:`QueryScheduler` is the **in-process trace-replay transport**
over :class:`~repro.service.core.ExecutorCore`: it admits many sessions
against one shared :class:`~repro.storage.database.Database` (one
virtual clock, one state store) and runs them cooperatively to
completion — one query at a time, in quanta of ``quantum_rows``
root-output tuples, with scheduling decisions at every quantum boundary
(the safe points where a suspend is valid). The core owns everything
that is transport-agnostic: the record table, pressure accounting for
the three policies, durable spill, and the stats/tracer wiring; the
HTTP front end (:mod:`repro.serve`) composes the same core one quantum
per request. The run's history is this transport's alone: every record
stays for the whole run, its counters are series of the run's registry
(``stats.per_query``, ``query_<field>_total{query=...}``), and every
lifecycle event lands on the memory-pressure timeline (``stats.timeline``).

Scheduling is strict priority (FIFO within a priority). Before a query
takes the CPU the scheduler enforces the shared ``memory_budget`` over
the heap state of every *other* live session — the query being served is
itself exempt, so a budget of 0 degenerates to "one resident query at a
time" instead of a livelock. When the budget is exceeded the configured
:class:`~repro.service.policies.PressurePolicy` resolves the pressure:
suspending victims with the paper's online LP optimizer under a
per-suspend budget (``suspend-resume``), killing them for a later
from-scratch restart (``kill-restart``), or making the incoming query
wait (``wait``). Suspended queries are resumed automatically when they
are the highest-priority runnable work and the pressure has cleared.

A suspend request that lands while a victim is *mid-resume* follows the
paper's Section 2 rule: the half-resumed state is discarded and the old
SuspendedQuery — still intact on disk — is kept; only the wasted resume
I/O is paid.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.common.errors import ReproError
from repro.service.core import (
    ExecutorCore,
    QueryRecord,
    QueryState,
    SchedulerConfig,
)
from repro.service.policies import PressurePolicy
from repro.service.stats import SchedulerStats, TimelineEvent
from repro.service.trace import ArrivalTrace, QueryArrival, Workload
from repro.storage.database import Database


class QueryScheduler(ExecutorCore):
    """Serve many QuerySessions against one database, cooperatively."""

    def __init__(self, db: Database, config: Optional[SchedulerConfig] = None):
        super().__init__(db, config)
        self._pending: list[QueryRecord] = []  # not yet admitted, by time
        self._ran = False

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        name: str,
        plan,
        arrival_time: float = 0.0,
        priority: int = 0,
    ) -> QueryRecord:
        """Register one future arrival (before :meth:`run`)."""
        return self._submit(QueryArrival(name, plan, arrival_time, priority))

    def submit_trace(self, trace: ArrivalTrace) -> list[QueryRecord]:
        return [self._submit(arrival) for arrival in trace.sorted_arrivals()]

    def _submit(self, arrival: QueryArrival) -> QueryRecord:
        if self._ran:
            raise ReproError("scheduler already ran; submit before run()")
        if any(r.name == arrival.name for r in self.records):
            raise ReproError(f"duplicate query name {arrival.name!r}")
        return self.track(
            arrival,
            self.stats.track(
                arrival.name, arrival.priority, arrival.arrival_time
            ),
        )

    def admit(self, record: QueryRecord) -> None:
        self.stats.per_query[record.name] = record.stats
        super().admit(record)

    def mark(self, event: str, record: QueryRecord) -> int:
        memory = super().mark(event, record)
        self.stats.timeline.append(
            TimelineEvent(self.db.now, event, record.name, memory)
        )
        return memory

    # ------------------------------------------------------------------
    # The scheduling loop
    # ------------------------------------------------------------------
    def run(self) -> SchedulerStats:
        """Serve every submitted query to completion; return the stats."""
        if self._ran:
            raise ReproError("scheduler can only run once")
        self._ran = True
        self._pending = sorted(
            self.records, key=lambda r: (r.arrival.arrival_time, r.seq)
        )
        self.stats.started_at = self.db.now
        self._admit_due()
        while True:
            record = self._pick_next()
            if record is None:
                if self._pending:
                    # Idle: fast-forward the clock to the next arrival.
                    gap = self._pending[0].arrival.arrival_time - self.db.now
                    if gap > 0:
                        self.db.disk.clock.advance(gap)
                    self._admit_due()
                    continue
                break
            self._serve(record)
            self._admit_due()
        self.stats.finished_at = self.db.now
        if self.fold_manager is not None:
            self.stats.fold = self.fold_manager.stats.as_dict()
        return self.stats

    @classmethod
    def run_workload(
        cls,
        workload: Workload,
        policy: Union[str, PressurePolicy, None] = None,
        config: Optional[SchedulerConfig] = None,
    ) -> SchedulerStats:
        """Replay a :class:`Workload` on a fresh database and return stats.

        ``config`` overrides the workload's tuned budgets entirely;
        otherwise a config is built from them, with ``policy`` (if given)
        replacing the default.
        """
        if config is None:
            config = SchedulerConfig(
                policy=policy if policy is not None else "suspend-resume",
                memory_budget=workload.memory_budget,
                suspend=workload.suspend_spec(),
            )
        elif policy is not None:
            config.policy = policy
        scheduler = cls(workload.db_factory(), config)
        scheduler.submit_trace(workload.trace)
        return scheduler.run()

    # ------------------------------------------------------------------
    # Admission and selection
    # ------------------------------------------------------------------
    def _admit_due(self) -> list[QueryRecord]:
        admitted = []
        while self._pending and (
            self._pending[0].arrival.arrival_time <= self.db.now
        ):
            record = self._pending.pop(0)
            self.admit(record)
            admitted.append(record)
        return admitted

    def _runnable(self) -> list[QueryRecord]:
        admitted = set(self.stats.per_query)
        return [
            r
            for r in self.records
            if r.name in admitted and r.state is not QueryState.DONE
        ]

    def _pick_next(self) -> Optional[QueryRecord]:
        runnable = self._runnable()
        if not runnable:
            return None
        if self.fold_manager is not None:
            return self._pick_next_folded(runnable)
        return min(
            runnable, key=lambda r: (-r.priority, r.arrival.arrival_time, r.seq)
        )

    def _pick_next_folded(self, runnable: list[QueryRecord]) -> QueryRecord:
        """Fold-aware selection: co-schedule grafted members.

        Strict FIFO within a priority would run fold siblings *serially*
        — the first completes before the second starts, so the producer
        window never holds a page both need and every fold degenerates to
        refetches. With folding on, the lagging member of a fold group is
        preferred among the top-priority runnable records (fewest rows
        delivered first), which keeps grafted cursors within a window of
        each other; ungrafted queries keep FIFO order among themselves.
        """
        top_priority = max(r.priority for r in runnable)
        top = [r for r in runnable if r.priority == top_priority]
        grafted = [r for r in top if self.fold_manager.is_grafted(r.name)]
        if grafted:
            return min(
                grafted,
                key=lambda r: (r.rows_total, r.arrival.arrival_time, r.seq),
            )
        return min(top, key=lambda r: (r.arrival.arrival_time, r.seq))

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _serve(self, record: QueryRecord) -> None:
        if not self.policy.make_room(self, record):
            holder = self._blocking_holder(record)
            if holder is None:
                # Nothing live holds the memory (should not happen); run
                # anyway rather than deadlock.
                self.mark("override", record)
            else:
                # The incoming query waits; keep the holder moving so the
                # clock (and its completion) advances.
                record = holder
        if record.state is QueryState.WAITING:
            self.start_session(record)
        elif record.state is QueryState.SUSPENDED:
            if not self._resume(record):
                return  # half-resumed state discarded; try again later
        self.run_quantum(record)

    def _blocking_holder(self, record: QueryRecord) -> Optional[QueryRecord]:
        return min(
            self._holders(record),
            key=lambda r: (-r.priority, r.arrival.arrival_time, r.seq),
            default=None,
        )

    # ------------------------------------------------------------------
    # Memory pressure (called by the policies)
    # ------------------------------------------------------------------
    def pressure_excess(self, record: QueryRecord) -> int:
        """Bytes over budget held by sessions other than ``record``'s."""
        if self.config.memory_budget is None:
            return 0
        held = self.total_live_memory() - record.memory_in_use()
        return held - self.config.memory_budget

    def _holders(self, record: QueryRecord) -> list[QueryRecord]:
        """Live sessions other than ``record``'s that hold memory."""
        return [
            r
            for r in self.records
            if r is not record
            and r.state is QueryState.READY
            and r.memory_in_use() > 0
        ]

    def victim_candidates(self, record: QueryRecord) -> list[QueryRecord]:
        """Live lower-priority sessions that currently hold memory."""
        return [r for r in self._holders(record) if r.priority < record.priority]

    def kill_victim(self, victim: QueryRecord) -> None:
        """Kill a victim; all its work so far is wasted."""
        victim.session.close()
        victim.session = None
        victim.sq = None
        victim.stats.rows_emitted = 0
        victim.state = QueryState.WAITING
        victim.stats.kills += 1
        if self.fold_manager is not None:
            self.fold_manager.note_split(victim.name)
        self.mark("kill", victim)

    def _resume(self, record: QueryRecord) -> bool:
        """Resume a suspended record; False if the discard rule fired."""
        resume_start = self.db.now
        session = self.open_resumed_session(record)
        arrived = self._admit_due()
        preempted = self.config.memory_budget is not None and any(
            r.priority > record.priority
            and r.arrival.arrival_time > resume_start
            for r in arrived
        )
        if preempted:
            # Paper's rule for a suspend request during resume: throw the
            # half-resumed state away and keep the old SuspendedQuery —
            # no new suspend phase is paid, only the wasted resume I/O.
            session.close()
            record.stats.discarded_resumes += 1
            self.mark("discard-resume", record)
            return False
        self.adopt_resumed_session(record, session)
        return True


__all__ = [
    "ExecutorCore",
    "QueryRecord",
    "QueryScheduler",
    "QueryState",
    "SchedulerConfig",
]
