"""ExecutorCore: the engine-agnostic heart of every serving transport.

The paper's lifecycle primitives (execute a quantum, suspend within a
budget, resume without losing work) are transport-independent; what
differs between an in-process trace replay and an HTTP front end is only
*who decides when a query runs*. This module holds everything the
transports share:

- :class:`QueryRecord` / :class:`QueryState` — the per-query serving
  state machine;
- :class:`SchedulerConfig` — one config for every transport, carrying a
  single :class:`~repro.core.lifecycle.SuspendSpec` for the whole
  suspend surface (strategy, budget, durable image root);
- :class:`ExecutorCore` — admission bookkeeping, live-memory
  accounting, the suspend step (``suspend_victims``), the quantum
  execution step with its observability wiring, and durable image spill
  with chain-aware GC on completion.

Transports compose it:

- :class:`repro.service.scheduler.QueryScheduler` replays an arrival
  trace in-process, picking the next record itself, and keeps the
  run's history: the memory-pressure timeline and per-query stats;
- :class:`repro.serve.service.QueryService` runs one quantum per
  *request* and parks the query state in a durable image between
  requests, handing clients a continuation token; a record lives only
  as long as its request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from repro.common.errors import SuspendBudgetInfeasibleError
from repro.core.lifecycle import (
    ExecutionResult,
    QuerySession,
    QueryStatus,
    SuspendSpec,
)
from repro.core.suspended_query import SuspendedQuery
from repro.obs.progress import (
    emit_progress,
    estimate_cardinalities,
    query_progress,
)
from repro.obs.tracer import Tracer, current_tracer, make_trace_id
from repro.service.policies import PressurePolicy, get_policy
from repro.service.stats import QueryStats, SchedulerStats
from repro.service.trace import QueryArrival
from repro.storage.database import Database


class QueryState(Enum):
    """Transport-side lifecycle of an admitted query."""

    WAITING = "waiting"  # admitted, no session yet (fresh or killed)
    READY = "ready"  # live session, runnable at the next quantum
    SUSPENDED = "suspended"  # state on disk as a SuspendedQuery
    DONE = "done"


@dataclass
class SchedulerConfig:
    """Tunables of one serving run (any transport).

    Attributes:
        policy: pressure policy — ``"suspend-resume"``, ``"kill-restart"``,
            ``"wait"``, or a :class:`PressurePolicy` instance.
        memory_budget: shared budget, in bytes, over the heap state of
            every live session other than the one being served; ``None``
            disables pressure handling entirely.
        quantum_rows: root output tuples per execution quantum. Arrivals
            are only noticed at quantum boundaries, so this bounds the
            scheduler's reaction latency; keep it small relative to a
            query's total output.
        suspend: one :class:`~repro.core.lifecycle.SuspendSpec` covering
            the whole suspend surface — plan strategy and budget, and
            the durable image store (``persist_to``). When no valid
            plan fits the budget, victims retry unbudgeted rather than
            fail.
    """

    policy: Union[str, PressurePolicy] = "suspend-resume"
    memory_budget: Optional[int] = None
    quantum_rows: int = 64
    suspend: SuspendSpec = field(default_factory=SuspendSpec)
    #: Shared-work folding (``repro.fold``): detect common subplans among
    #: admitted queries and graft them onto shared scan producers and
    #: build-side hash tables. Off by default — folding changes global
    #: I/O and co-scheduling order (never per-query outputs, clocks, or
    #: images).
    fold: bool = False
    #: Observability tracer for this run; defaults to the process-wide
    #: tracer (:func:`repro.obs.tracer.current_tracer`), a no-op unless
    #: tracing was explicitly enabled.
    tracer: Optional[Tracer] = None


@dataclass
class QueryRecord:
    """One admitted query's serving-side state."""

    arrival: QueryArrival
    seq: int
    stats: QueryStats
    state: QueryState = QueryState.WAITING
    session: Optional[QuerySession] = None
    sq: Optional[SuspendedQuery] = None
    #: Id of the durable spill image from the most recent suspend, when
    #: the core is configured with an image store.
    image_id: Optional[str] = None
    #: Distributed-trace identity: every span this query emits — in this
    #: process or any it continues into — carries this id.
    trace_id: Optional[str] = None
    #: Rows the query delivered in *previous* processes (restored from a
    #: continuation token); added to ``stats.rows_emitted`` for progress.
    rows_offset: int = 0
    #: Most recent progress snapshot (set at quantum boundaries).
    last_progress: Optional[object] = None
    #: Cached cardinality estimates — pure functions of the plan and
    #: base-table counts, so one walk serves every quantum and hop
    #: (operator ids are stable across suspend/resume rebuilds).
    card_estimates: Optional[dict] = None
    #: Fold binding (``repro.fold``) when the core folds shared work;
    #: installed on every session this record opens.
    fold: Optional[object] = None

    @property
    def rows_total(self) -> int:
        """Cumulative rows delivered across every process so far."""
        return self.rows_offset + self.stats.rows_emitted

    @property
    def name(self) -> str:
        return self.arrival.name

    @property
    def priority(self) -> int:
        return self.arrival.priority

    def memory_in_use(self) -> int:
        return self.session.memory_in_use() if self.session else 0


class ExecutorCore:
    """Cooperative execution core shared by every serving transport.

    Owns the admitted-record table, memory accounting, durable spill,
    and the stats/tracer wiring; knows
    nothing about *when* the next quantum should run — that is the
    transport's job.
    """

    def __init__(self, db: Database, config: Optional[SchedulerConfig] = None):
        self.db = db
        self.config = config or SchedulerConfig()
        self.policy = get_policy(self.config.policy)
        self.image_store = self.config.suspend.resolve_image_store()
        self.records: list[QueryRecord] = []
        base_tracer = self.config.tracer or current_tracer()
        self.tracer = base_tracer.bind(clock=db.disk.clock)
        # With tracing on, the stats views and the tracer share one
        # registry, so scheduler counters and tracer metrics are the same
        # numbers; a NullTracer has no registry to share.
        self.stats = SchedulerStats(
            policy=self.policy.name,
            registry=self.tracer.metrics if self.tracer.enabled else None,
        )
        self.fold_manager = None
        if self.config.fold:
            from repro.fold.manager import FoldManager

            self.fold_manager = FoldManager(db, tracer=self.tracer)

    # ------------------------------------------------------------------
    # Admission bookkeeping
    # ------------------------------------------------------------------
    def track(
        self, arrival: QueryArrival, stats: Optional[QueryStats] = None
    ) -> QueryRecord:
        """Register one query with the core (no admission marking).

        ``stats`` defaults to counters of the record's own, outside the
        run's registry.
        """
        record = QueryRecord(
            arrival=arrival,
            seq=len(self.records),
            stats=stats
            or QueryStats(arrival.name, arrival.priority, arrival.arrival_time),
            trace_id=make_trace_id(arrival.name),
        )
        self.records.append(record)
        return record

    def admit(self, record: QueryRecord) -> None:
        """Mark a tracked record admitted (visible to pressure)."""
        self.stats.queries_admitted += 1
        if self.fold_manager is not None:
            record.fold = self.fold_manager.admit(
                record.name, record.arrival.plan
            )
        self.mark("admit", record)

    # ------------------------------------------------------------------
    # Memory and suspends
    # ------------------------------------------------------------------
    def total_live_memory(self) -> int:
        """Heap bytes held across every live session right now."""
        return sum(r.memory_in_use() for r in self.records)

    def suspend_victims(self, victims: list[QueryRecord]) -> None:
        """Suspend one pressure event's victims; spill images in a batch.

        The in-memory suspend phase (the part the virtual clock charges)
        runs per victim, in order, exactly as it would serially. When an
        image store is configured, the durable commits are then submitted
        together (:meth:`ImageStore.save_many`): every victim's image is
        checked before the first is written, and images and trace records
        follow victim order.

        A repeat suspend commits a delta against the query's previous image:
        materialized operator state that has not been re-dumped since it
        was committed to — or, after a resume from the image, loaded
        from — a section of the base chain is referenced there instead
        of re-encoded (the state store tracks that origin per payload).
        The chain is collected as one unit when the query completes.
        """
        spec = self.config.suspend
        options = SuspendSpec(strategy=spec.strategy, budget=spec.budget)
        for victim in victims:
            victim.sq = self._suspend_session(victim.session, options)
            victim.session = None
            victim.state = QueryState.SUSPENDED
            victim.stats.suspends += 1
            if self.fold_manager is not None:
                # Fold split: closing the victim's session detached its
                # shared cursors at a tuple boundary; the survivors keep
                # sharing and the victim's image is unfold-identical.
                self.fold_manager.note_split(victim.name)
        if self.image_store is not None:
            self.spill_victims(victims)
        for victim in victims:
            self.mark("suspend", victim)

    def _suspend_session(self, session: QuerySession, options: SuspendSpec):
        try:
            return session.suspend(options)
        except SuspendBudgetInfeasibleError:
            # No valid plan fits the budget at this point; releasing the
            # memory still beats failing the victim, so pay full price.
            return session.suspend(SuspendSpec(strategy=options.strategy))

    def spill_victims(self, victims: list[QueryRecord]) -> None:
        """Commit every victim's SuspendedQuery as a durable image."""
        from repro.durability.store import SaveRequest

        requests = [
            SaveRequest(
                sq=victim.sq,
                store=self.db.state_store,
                image_id=f"{victim.name}-s{victim.stats.suspends}",
                meta={"query": victim.name, "priority": victim.priority},
                base_image_id=victim.image_id,
            )
            for victim in victims
        ]
        infos = self.image_store.save_many(requests, tracer=self.tracer)
        for victim, info in zip(victims, infos):
            previous, victim.image_id = victim.image_id, info.image_id
            if previous is not None and info.base_image_id is None:
                # The save was promoted to a full image (MAX_CHAIN
                # rebase): the old chain no longer backs anything —
                # collect it now.
                self.image_store.delete_chain(previous)
            victim.stats.durable_spills += 1
            self.mark("spill", victim)

    # ------------------------------------------------------------------
    # Serving primitives
    # ------------------------------------------------------------------
    def record_tracer(self, record: QueryRecord):
        """The tracer a record's session runs under: trace_id bound in."""
        if not self.tracer.enabled:
            return None
        return self.tracer.bind(trace_id=record.trace_id)

    def start_session(self, record: QueryRecord) -> None:
        """Open a fresh session for a WAITING record."""
        session = QuerySession(
            self.db,
            record.arrival.plan,
            priority=record.priority,
            name=record.name,
            tracer=self.record_tracer(record),
            fold=record.fold,
        )
        record.session = session
        record.state = QueryState.READY
        if record.stats.first_started_at is None:
            record.stats.first_started_at = self.db.now
        self.mark("start", record)

    def open_resumed_session(self, record: QueryRecord) -> QuerySession:
        """Rebuild a session from ``record.sq`` (no state transition).

        The caller decides whether to adopt the session or discard it —
        the paper's suspend-during-resume rule lives in the transport,
        which is the only place that knows about new arrivals.
        """
        return QuerySession.resume(
            self.db,
            record.sq,
            priority=record.priority,
            name=record.name,
            tracer=self.record_tracer(record),
            fold=record.fold,
        )

    def adopt_resumed_session(
        self, record: QueryRecord, session: QuerySession
    ) -> None:
        """Make a successfully resumed session the record's live one; the
        SuspendedQuery it was resumed from is released."""
        record.session = session
        record.sq.release()
        record.sq = None
        record.state = QueryState.READY
        record.stats.resumes += 1
        self.mark("resume", record)

    def run_quantum(self, record: QueryRecord) -> ExecutionResult:
        """Execute one quantum on a READY record; handle completion.

        The quantum's rows go to the caller in the returned result; the
        core keeps none of them.
        """
        if self.tracer.enabled:
            with self.tracer.span(
                "sched.quantum", query=record.name, trace_id=record.trace_id
            ) as span:
                result = record.session.execute(
                    max_rows=self.config.quantum_rows
                )
                span["rows"] = len(result.rows)
                span["status"] = result.status.value
        else:
            result = record.session.execute(max_rows=self.config.quantum_rows)
        record.stats.rows_emitted += len(result.rows)
        self.note_memory()
        if self.tracer.enabled:
            self.note_progress(record)
        if result.status is QueryStatus.COMPLETED:
            self.complete(record)
        return result

    def note_progress(self, record: QueryRecord, emit: bool = True) -> None:
        """Snapshot, trace, and gauge a live record's progress (quantum
        edge).

        The :class:`~repro.obs.progress.QueryProgress` snapshot is
        remembered on ``record.last_progress``. The cumulative row
        count offsets rows delivered before the current session —
        earlier quanta of this process *and*, via ``rows_offset``,
        earlier requests and processes — so the query-level fraction
        never moves backwards across suspend/resume cycles or hops.
        With ``emit=False`` only the snapshot is taken (live
        introspection with tracing off).
        """
        if record.card_estimates is None:
            record.card_estimates = estimate_cardinalities(
                record.session.root
            )
        offset = record.rows_total - record.session.root.tuples_emitted
        progress = query_progress(
            record.session,
            rows_offset=offset,
            estimates=record.card_estimates,
            include_operators=False,
        )
        progress.query = record.name
        record.last_progress = progress
        if emit:
            emit_progress(
                self.tracer.bind(query=record.name, trace_id=record.trace_id),
                progress,
            )

    def complete(self, record: QueryRecord) -> None:
        """Retire a finished record and collect its durable spill chain."""
        if record.session is not None:
            record.session.close()
            record.session = None
        record.state = QueryState.DONE
        if self.image_store is not None and record.image_id is not None:
            # The whole spill chain is obsolete once the query
            # completes: the tip and every base it references.
            self.image_store.delete_chain(record.image_id)
            record.image_id = None
        record.stats.completed_at = self.db.now
        self.stats.queries_completed += 1
        if self.fold_manager is not None:
            self.fold_manager.forget(record.name)
        self.mark("complete", record)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def note_memory(self) -> int:
        """Fold the heap held right now into the peak; returns it."""
        memory = self.total_live_memory()
        self.stats.peak_memory = max(self.stats.peak_memory, memory)
        return memory

    def mark(self, event: str, record: QueryRecord) -> int:
        """Note a lifecycle event; returns the heap held after it."""
        memory = self.note_memory()
        if self.tracer.enabled:
            self.tracer.event(
                f"sched.{event}", query=record.name, memory_bytes=memory
            )
        if self.fold_manager is not None:
            # Into the stats registry (the tracer's registry when tracing
            # is on), so /obs/metrics sees fold.* with tracing off too.
            self.fold_manager.publish_metrics(self.stats.registry)
        return memory


__all__ = [
    "ExecutorCore",
    "QueryRecord",
    "QueryState",
    "SchedulerConfig",
]
