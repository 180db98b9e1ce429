"""The execute/suspend/resume query lifecycle (Section 2, Figure 3).

:class:`QuerySession` drives one query through the lifecycle:

- ``execute()`` pulls tuples from the root operator. A suspend trigger
  (armed via ``suspend_when``) raises the suspend exception at the next
  safe point after its counter reaches its threshold and leaves the
  session ready for the suspend phase.
- ``suspend()`` chooses a suspend plan (online LP by default), carries it
  out via the recursive ``Suspend()``/``Suspend(Ctr)`` calls, writes the
  SuspendedQuery structure to disk, and discards the in-memory plan.
- ``QuerySession.resume(db, sq)`` reads the structure back, re-instantiates
  the execution plan, and runs the recursive ``Resume()`` protocol; the
  returned session continues exactly after the last tuple delivered.

A suspend request arriving *during* resume follows the paper's rule:
discard the half-resumed state and keep the old SuspendedQuery
(:meth:`QuerySession.resume` is atomic from the caller's perspective).
It covers a resume that raises, too: the half-resumed session is closed.
The SuspendedQuery keeps its own hold on its payloads either way (see
:mod:`repro.storage.statefile`), so it can be resumed again.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.durability.store import ImageStore

from repro.common.errors import ReproError, SuspendRequested
# These two used to be function-local imports inside ``suspend()``; they
# are cycle-free (repro.core.costs only type-checks against the engine)
# and belong at module level.
from repro.core.costs import build_cost_model
from repro.core.optimizer import choose_suspend_plan, estimate_plan_cost
from repro.core.static_optimizer import choose_static_plan
from repro.core.strategies import Strategy, SuspendPlan, validate_suspend_plan
from repro.core.suspended_query import SuspendedQuery
from repro.engine.base import BATCH_ROWS
from repro.engine.config import EngineConfig
from repro.engine.plan import PlanSpec, instantiate_plan
from repro.engine.runtime import (
    ResumeContext,
    Runtime,
    SuspendContext,
    SuspendTrigger,
)
from repro.storage.database import Database


class QueryStatus(Enum):
    RUNNING = "running"
    SUSPEND_PENDING = "suspend_pending"
    SUSPENDED = "suspended"
    COMPLETED = "completed"


class SuspendStrategy(Enum):
    """How :meth:`QuerySession.suspend` chooses its suspend plan.

    - ``LP`` — the paper's online optimizer (Section 5): the exact
      optimum of its zero-one program, budget included
      (:func:`repro.core.optimizer.optimal_plan`);
    - ``ALL_DUMP`` / ``ALL_GOBACK`` — the purist baselines;
    - ``STATIC`` — the table-statistics-only baseline (Figure 12).
    """

    LP = "lp"
    ALL_DUMP = "all_dump"
    ALL_GOBACK = "all_goback"
    STATIC = "static"


@dataclass(frozen=True)
class SuspendSpec:
    """Everything one suspend phase needs, in a single value.

    One spec is accepted uniformly by :meth:`QuerySession.suspend`, by
    ``SchedulerConfig(suspend=...)``, and by the CLI.

    Plan selection:

    - ``strategy`` selects the suspend-plan optimizer;
    - ``budget`` bounds the suspend-time cost (Equation 7);
    - a pre-built ``plan`` — validated against the live topology —
      overrides both.

    Durable persistence (all ignored when ``persist_to`` is ``None``):

    - ``persist_to`` — an :class:`~repro.durability.store.ImageStore`
      or image-root path; the suspended query is additionally committed
      as a durable on-disk image;
    - ``image_id`` / ``image_meta`` — explicit id and metadata for the
      committed image;
    - ``base_image_id`` — existing image to commit a delta against:
      payloads unchanged since they were committed to, or loaded from,
      its chain are referenced instead of rewritten.
    """

    strategy: SuspendStrategy = SuspendStrategy.LP
    budget: float = math.inf
    plan: Optional[SuspendPlan] = None
    persist_to: Union["ImageStore", str, None] = None
    image_id: Optional[str] = None
    image_meta: Optional[dict] = None
    base_image_id: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.strategy, SuspendStrategy):
            # Tolerate the enum's value strings so callers can write
            # SuspendSpec(strategy="lp") — e.g. straight from a CLI flag.
            object.__setattr__(
                self, "strategy", SuspendStrategy(self.strategy)
            )
        if self.budget < 0:
            raise ValueError(f"negative suspend budget {self.budget}")

    def replace(self, **changes) -> "SuspendSpec":
        """A copy of this spec with ``changes`` applied."""
        return replace(self, **changes)

    def resolve_image_store(self) -> Optional["ImageStore"]:
        """The :class:`ImageStore` to persist to, or ``None``: a string
        ``persist_to`` is opened as an image root, a ready-made store is
        passed through."""
        if self.persist_to is None:
            return None
        if not isinstance(self.persist_to, str):
            return self.persist_to
        from repro.durability.store import ImageStore

        return ImageStore(self.persist_to)


@dataclass
class ExecutionResult:
    """What one ``execute()`` call produced."""

    status: QueryStatus
    rows: list = field(default_factory=list)
    #: Virtual time consumed by this execute call.
    elapsed: float = 0.0


class QuerySession:
    """One query's journey through execute/suspend/resume."""

    def __init__(
        self,
        db: Database,
        plan_spec: PlanSpec,
        config: Optional[EngineConfig] = None,
        priority: int = 0,
        name: Optional[str] = None,
        tracer=None,
        fold=None,
    ):
        self.db = db
        self.plan_spec = plan_spec
        self.config = config or EngineConfig()
        #: Scheduling priority (higher runs first); only meaningful when
        #: the session is served by a :class:`repro.service.QueryScheduler`.
        self.priority = priority
        self.name = name
        self.runtime = Runtime(db, self.config, tracer=tracer, query=name)
        #: Fold binding (``repro.fold``): when the scheduler detected that
        #: this query shares subplans with running siblings, the binding
        #: makes ``instantiate_plan`` graft the shared leaves onto the
        #: fold's producers. Must be installed before instantiation.
        self.runtime.fold = fold
        self.root = None
        try:
            with self._lane_active():
                self.root = instantiate_plan(plan_spec, self.runtime)
                self.root.open()
        except BaseException:
            self.close()  # the scope opened with the runtime closes too
            raise
        self.status = QueryStatus.RUNNING
        self.rows: list = []
        self.last_suspend_cost = 0.0
        self.last_resume_cost = 0.0
        self.last_suspend_plan: Optional[SuspendPlan] = None
        #: ImageInfo of the durable image written by the last
        #: ``suspend(persist_to=...)`` call, if any.
        self.last_image = None

    @contextmanager
    def _lane_active(self):
        """Install this session's :class:`QueryLane` as the disk's active
        lane for the duration — every charge mirrors onto the query's
        private as-if-solo clock. Restores the previous lane on exit so
        interleaved sessions (a scheduler quantum, a nested resume) never
        cross-charge each other's lanes."""
        prev = self.db.disk.set_lane(self.runtime.lane)
        try:
            yield
        finally:
            self.db.disk.set_lane(prev)

    @property
    def query_now(self) -> float:
        """This query's as-if-solo virtual clock (its lane's time)."""
        return self.runtime.lane.now

    # ------------------------------------------------------------------
    # Execute phase
    # ------------------------------------------------------------------
    def execute(
        self,
        max_rows: Optional[int] = None,
        suspend_when: Optional[SuspendTrigger] = None,
        collect: bool = True,
    ) -> ExecutionResult:
        """Run until completion, ``max_rows`` outputs, or a suspend request.

        ``suspend_when`` is a :class:`SuspendTrigger` — a counter of a
        named operator reaching a threshold; at the first safe point
        after it does, execution stops with status ``SUSPEND_PENDING``
        and :meth:`suspend` may be called. A trigger that could never
        fire in this plan is rejected here
        (:class:`~repro.common.errors.InvalidTriggerError`).
        """
        if self.status not in (QueryStatus.RUNNING, QueryStatus.SUSPEND_PENDING):
            raise ReproError(f"cannot execute in status {self.status}")
        if suspend_when is not None:
            self.runtime.arm(suspend_when)
        produced: list = []
        count = 0
        start = self.db.now
        tracer = self.runtime.tracer
        io_before = self.db.disk.counters.snapshot() if tracer.enabled else None
        ops_before = (
            [
                (op, op.tuples_emitted, op.tally.snapshot())
                for _, op in sorted(self.runtime.ops.items())
            ]
            if tracer.trace_next
            else ()
        )
        prev_lane = self.db.disk.set_lane(self.runtime.lane)
        try:
            # A drain is a handful of next_batch() calls. Operators return
            # short batches at checkpoint/phase boundaries; an armed
            # trigger raises from the entry poll of some call, after the
            # rows before it were handed up.
            while True:
                need = BATCH_ROWS if max_rows is None else max_rows - count
                if need <= 0:
                    break
                batch = self.root.next_batch(min(need, BATCH_ROWS))
                if not batch:
                    self.status = QueryStatus.COMPLETED
                    break
                count += len(batch)
                if collect:
                    produced.extend(batch)
        except SuspendRequested:
            self.status = QueryStatus.SUSPEND_PENDING
        finally:
            self.db.disk.set_lane(prev_lane)
            self.runtime.controller.disarm()
        self.rows.extend(produced)
        if io_before is not None:
            io = self.db.disk.counters.snapshot().minus(io_before)
            tracer.event(
                "query.execute",
                ts=start,
                dur=round(self.db.now - start, 6),
                rows=count,
                status=self.status.value,
                pages_read=io.pages_read,
                pages_written=io.pages_written,
            )
            # The exact per-operator account of this call, for every
            # operator whose counters moved during it.
            cost_model = self.db.disk.cost_model
            for op, emitted, tally in ops_before:
                if op.tuples_emitted == emitted and op.tally == tally:
                    continue
                moved = op.tally.minus(tally)
                tracer.event(
                    "op.stats",
                    op=op.op_id,
                    op_name=op.name,
                    rows=op.tuples_emitted - emitted,
                    pages_read=moved.pages_read,
                    pages_written=moved.pages_written,
                    cpu_tuples=moved.cpu_tuples,
                    work=round(cost_model.elapsed(moved), 6),
                )
        return ExecutionResult(
            status=self.status, rows=produced, elapsed=self.db.now - start
        )

    # ------------------------------------------------------------------
    # Suspend phase
    # ------------------------------------------------------------------
    def suspend(self, spec: Optional[SuspendSpec] = None) -> SuspendedQuery:
        """Carry out the suspend phase and return the SuspendedQuery.

        ``spec`` is a :class:`SuspendSpec`; with none given the online LP
        optimizer runs unbudgeted and nothing is persisted.

        With ``spec.persist_to`` set (an image-root path or a
        :class:`~repro.durability.store.ImageStore`), the suspended query
        is additionally committed as a durable on-disk image, so it
        survives process death; the resulting
        :class:`~repro.durability.store.ImageInfo` lands in
        :attr:`last_image`. Persistence charges no extra simulated-disk
        I/O: the dumped pages were paid for at dump time and the control
        record by the ``write_control_bytes`` below — the image is the
        durable form of those same bytes.
        """
        options = spec if spec is not None else SuspendSpec()
        if self.status in (QueryStatus.SUSPENDED, QueryStatus.COMPLETED):
            raise ReproError(f"cannot suspend in status {self.status}")
        controller = self.runtime.controller
        controller.suppress()
        start = self.db.now
        lane_start = self.query_now
        tracer = self.runtime.tracer
        io_before = self.db.disk.counters.snapshot() if tracer.enabled else None
        prev_lane = self.db.disk.set_lane(self.runtime.lane)
        try:
            chosen = options.plan
            # With tracing on, build the cost model here once so the
            # per-operator decision events can carry the MIP's objective
            # terms for every strategy (including STATIC and caller-
            # supplied plans, which never build one themselves).
            cost_model = (
                build_cost_model(self.runtime) if tracer.enabled else None
            )
            if chosen is None:
                if options.strategy is SuspendStrategy.STATIC:
                    chosen = choose_static_plan(self.runtime)
                else:
                    chosen = choose_suspend_plan(
                        self.runtime,
                        strategy=options.strategy.value,
                        budget=options.budget,
                        model=cost_model,
                    )
            else:
                # Caller-supplied plans are validated against the live
                # topology and c_{i,j} restrictions before being trusted.
                validate_suspend_plan(
                    chosen,
                    (
                        cost_model
                        if cost_model is not None
                        else build_cost_model(self.runtime)
                    ).topology(),
                )
            if cost_model is not None:
                self._trace_suspend_plan(tracer, chosen, cost_model, options)
            sq = SuspendedQuery(
                plan_spec=self.plan_spec,
                suspend_plan=chosen,
                root_rows_emitted=self.root.tuples_emitted,
                # The query's as-if-solo time, not the shared clock: the
                # serialized image must not depend on how the scheduler
                # interleaved this query with others.
                suspended_at=self.query_now,
            )
            ctx = SuspendContext(plan=chosen, sq=sq, runtime=self.runtime)
            self.root.do_suspend(ctx)
            # Write the SuspendedQuery structure itself to disk.
            self.db.disk.write_control_bytes(
                sq.nominal_bytes(bytes_per_row=200)
            )
            # Lane value after the suspend-phase I/O: resume (possibly in
            # another process) restarts the lane here so the query's solo
            # timeline stays continuous across the gap.
            sq.query_clock = self.query_now
            sq.payloads = self.runtime.store.hand_over()
            sq.key_counters = self.runtime.store.key_counters(self.name)
        finally:
            self.db.disk.set_lane(prev_lane)
            controller.unsuppress()
        self.last_suspend_cost = self.query_now - lane_start
        self.last_suspend_plan = chosen
        if io_before is not None:
            io = self.db.disk.counters.snapshot().minus(io_before)
            tracer.event(
                "query.suspend",
                ts=start,
                dur=round(self.last_suspend_cost, 6),
                plan_source=chosen.source,
                budget=options.budget,
                actual_cost=round(self.last_suspend_cost, 6),
                pages_written=io.pages_written,
            )
            tracer.metrics.histogram("suspend_cost").observe(
                self.last_suspend_cost
            )
        # Release all memory resources: the operator tree is discarded.
        self.close()
        self.status = QueryStatus.SUSPENDED
        image_store = options.resolve_image_store()
        if image_store is not None:
            # Persist last: a crash mid-commit leaves the in-memory
            # SuspendedQuery intact and a torn image the recovery scan
            # quarantines — never a half-suspended session.
            self.last_image = image_store.save(
                sq,
                self.db.state_store,
                image_id=options.image_id,
                meta=options.image_meta,
                base_image_id=options.base_image_id,
                tracer=self.runtime.tracer,
            )
        return sq

    def _trace_suspend_plan(self, tracer, plan, model, options) -> None:
        """Emit ``suspend.plan`` plus one ``mip.decision`` per operator."""
        est = estimate_plan_cost(plan, model)
        tracer.event(
            "suspend.plan",
            source=plan.source,
            strategy=options.strategy.value,
            budget=options.budget,
            est_suspend=round(est.suspend, 6),
            est_resume=round(est.resume, 6),
            num_ops=len(model.op_ids),
        )
        metrics = tracer.metrics
        for op_id in sorted(model.op_ids):
            decision = plan.decision(op_id)
            fields = {
                "op": op_id,
                "op_name": self.runtime.ops[op_id].name,
                "strategy": decision.strategy.value,
                "dump_suspend_cost": round(model.d_s[op_id], 6),
                "dump_resume_cost": round(model.d_r[op_id], 6),
            }
            if decision.strategy is Strategy.GOBACK:
                anchor = decision.goback_anchor
                fields["goback_anchor"] = anchor
                fields["goback_suspend_cost"] = round(
                    model.g_s.get((op_id, anchor), 0.0), 6
                )
                fields["goback_resume_cost"] = round(
                    model.g_r.get((op_id, anchor), 0.0), 6
                )
            tracer.event("mip.decision", **fields)
            metrics.counter(
                "suspend_decisions_total", strategy=decision.strategy.value
            ).inc()

    def close(self) -> None:
        """Release the operator tree and every resource it holds.

        Used by the suspend phase after dumping state, and by schedulers
        as the *kill* and *discard-half-resumed* primitive: afterwards
        :meth:`memory_in_use` is 0 and the session can no longer execute.
        Whatever the status, the session drops its count on each
        state-store payload it still holds (sort sublists, dumps; a suspend
        has moved them to its SuspendedQuery): what nothing holds goes.
        """
        if self.runtime.ops and self.root is not None:
            self.root.close()
        # Nothing may point back up the tree: the operators, and the rows
        # their buffers and readers still hold, are then freed by
        # reference counting when the session is dropped, not by the
        # next full collection.
        for op in self.runtime.ops.values():
            op.parent = None
        self.runtime.ops.clear()
        self.runtime.ops_by_name.clear()
        self.runtime.store.close()

    # ------------------------------------------------------------------
    # Resume phase
    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        db: Database,
        sq: SuspendedQuery,
        config: Optional[EngineConfig] = None,
        priority: int = 0,
        name: Optional[str] = None,
        tracer=None,
        fold=None,
    ) -> "QuerySession":
        """Reconstruct a session from a SuspendedQuery.

        The resume phase reads the structure back from disk, recreates the
        plan, and invokes ``Resume()`` on the root, which restores every
        operator either from its dump or by rolling forward from its
        checkpoint. The returned session's next output tuple is the one
        immediately after the last delivered before suspension. The
        session takes a count of its own on every payload ``sq`` names.
        It charges the same whether ``sq`` is what a suspend returned or
        what ``ImageStore.load`` staged: dumped pages are read back,
        never written again.
        """
        session = cls.__new__(cls)
        session.db = db
        session.plan_spec = sq.plan_spec
        session.config = config or EngineConfig()
        session.priority = priority
        session.name = name
        session.runtime = Runtime(db, session.config, tracer=tracer, query=name)
        session.runtime.fold = fold
        # Continue the query's as-if-solo clock where the suspend phase
        # left it (possibly in another process), so the lane timeline is
        # the same whatever schedule or fold the query ran under.
        session.runtime.lane.clock.advance(max(0.0, sq.query_clock))
        session.rows = []
        session.last_suspend_cost = 0.0
        session.last_suspend_plan = sq.suspend_plan
        session.last_image = None
        session.root = None

        start = db.now
        lane_start = session.runtime.lane.now
        session_tracer = session.runtime.tracer
        io_before = (
            db.disk.counters.snapshot() if session_tracer.enabled else None
        )
        controller = session.runtime.controller
        controller.suppress()
        prev_lane = db.disk.set_lane(session.runtime.lane)
        try:
            session.runtime.store.carry_key_counters(name, sq.key_counters)
            session.runtime.store.take(sq.payloads)
            # Read the SuspendedQuery structure from disk.
            db.disk.read_control_bytes(sq.nominal_bytes(bytes_per_row=200))
            session.root = instantiate_plan(sq.plan_spec, session.runtime)
            ctx = ResumeContext(sq=sq, runtime=session.runtime)
            session.root.do_resume(ctx)
        except BaseException:
            session.close()
            raise
        finally:
            db.disk.set_lane(prev_lane)
            controller.unsuppress()
        session.last_resume_cost = session.runtime.lane.now - lane_start
        if io_before is not None:
            io = db.disk.counters.snapshot().minus(io_before)
            session_tracer.event(
                "query.resume",
                ts=start,
                dur=round(session.last_resume_cost, 6),
                plan_source=sq.suspend_plan.source,
                pages_read=io.pages_read,
                pages_written=io.pages_written,
            )
            session_tracer.metrics.histogram("resume_cost").observe(
                session.last_resume_cost
            )
        session.status = QueryStatus.RUNNING
        return session

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def op_named(self, name: str):
        return self.runtime.op_named(name)

    def operator_names(self) -> dict[int, str]:
        return {op_id: op.name for op_id, op in self.runtime.ops.items()}

    def memory_in_use(self) -> int:
        """Bytes of operator heap state currently held (page-granular).

        The paper's motivating resource: a suspended query must release
        all of it. After :meth:`suspend` the operator tree is discarded
        and this returns 0; the dumped state lives on (simulated) disk.
        """
        return self.runtime.memory_in_use()

    def stats_rows(self) -> list[dict]:
        """Per-operator runtime statistics (for monitoring/reports).

        One row per operator: emitted tuple count, attributed work
        (simulated time units), current heap size in tuples, and the
        number of live checkpoints in the contract graph.
        """
        graph = self.runtime.graph
        rows = []
        for op_id in sorted(self.runtime.ops):
            op = self.runtime.ops[op_id]
            latest = graph.latest_checkpoint(op_id)
            rows.append(
                {
                    "op": op.name,
                    "type": type(op).__name__,
                    "emitted": op.tuples_emitted,
                    "work": round(op.work, 2),
                    "heap_tuples": op.heap_tuples(),
                    "checkpoints": len(graph.checkpoints_of(op_id)),
                    "latest_ckpt_seq": latest.seq if latest else 0,
                }
            )
        return rows

    def describe_plan(self) -> str:
        """Indented tree rendering of the live operator plan."""

        def render(op, depth: int) -> list[str]:
            lines = [f"{'  ' * depth}{op.name} ({type(op).__name__})"]
            for child in op.children:
                lines.extend(render(child, depth + 1))
            return lines

        return "\n".join(render(self.root, 0))
