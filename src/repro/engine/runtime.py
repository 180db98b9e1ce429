"""Per-query runtime context and the suspend controller.

The :class:`Runtime` is shared by every operator of one executing query:
it holds the database, the contract graph, the engine configuration, an
operator registry, and the :class:`SuspendController` that turns an
external suspend request into the paper's *suspend exception* at the next
safe point.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.common.errors import (
    InvalidTriggerError,
    LifecycleError,
    SuspendRequested,
)
from repro.core.contract_graph import ContractGraph
from repro.core.strategies import SuspendPlan
from repro.core.suspended_query import SuspendedQuery
from repro.engine.config import EngineConfig
from repro.obs.tracer import Tracer, current_tracer
from repro.storage.database import Database
from repro.storage.disk import QueryLane, SimulatedDisk
from repro.storage.statefile import ScopedStateStore, StateStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.base import Operator
    from repro.fold.manager import FoldBinding


#: What a trigger may watch, and the operator attribute that counts it.
TRIGGER_COUNTERS = {
    "fill": "buffer_fill",  # tuples in a sort / block-NLJ buffer
    "position": "tuples_consumed",  # base tuples a table scan has read
    "emitted": "tuples_emitted",  # rows any operator has produced
}


@dataclass(frozen=True)
class SuspendTrigger:
    """A suspend point, stated the way the paper states every one it
    measures: a counter of a named operator reaching a value — "% of
    buffer filled" (``fill``), "after N tuples of R" (``position``), or
    rows produced (``emitted``)."""

    op: str
    counter: str
    threshold: int


class SuspendController:
    """Arms a :class:`SuspendTrigger` and raises at the next safe poll.

    Operators poll at entry to every ``next()``/``next_batch()`` while a
    trigger is armed — points where their in-memory state is internally
    consistent (between tuples); the paper's analogue is handling the
    suspend exception "at the query's next blocking step". So that the
    first poll after the counter reaches the threshold finds every
    operator between the same two tuples whatever the batch sizes, the
    watched operator never moves its counter past the threshold inside
    one call (:meth:`room`), and the operators above it — whose output
    would otherwise run on after the counter moved beneath them — hand
    up one row per call (:meth:`cap_rows`).
    """

    def __init__(self):
        self._trigger: Optional[SuspendTrigger] = None
        self._op: Optional["Operator"] = None
        self._above: frozenset = frozenset()
        self._suppressed = 0
        #: True while a live trigger could still fire.
        self.armed = False

    def arm(self, trigger: SuspendTrigger, op: "Operator") -> None:
        """Watch ``trigger`` on ``op`` (the operator it names, validated
        by :meth:`Runtime.arm`); it fires at most once."""
        self._trigger = trigger
        self._op = op
        above = []
        while op.parent is not None:
            op = op.parent
            above.append(op)
        self._above = frozenset(above)
        self.armed = True

    def disarm(self) -> None:
        self._trigger = self._op = None
        self._above = frozenset()
        self.armed = False

    def suppress(self) -> None:
        """Disable polling (used inside the suspend and resume phases)."""
        self._suppressed += 1

    def unsuppress(self) -> None:
        if self._suppressed <= 0:
            raise LifecycleError("unbalanced SuspendController.unsuppress()")
        self._suppressed -= 1

    def _left(self) -> int:
        value = getattr(self._op, TRIGGER_COUNTERS[self._trigger.counter])
        if callable(value):
            value = value()
        return self._trigger.threshold - value

    def poll(self) -> None:
        """Raise :class:`SuspendRequested` if the armed trigger's counter
        has reached its threshold."""
        if self.armed and not self._suppressed and self._left() <= 0:
            self.armed = False
            raise SuspendRequested(f"suspend trigger met: {self._trigger}")

    def room(self, op: "Operator", *counters: str) -> int:
        """How far ``op`` may move any of ``counters`` before the armed
        trigger's threshold; unbounded unless the trigger watches one of
        them on ``op``."""
        if op is self._op and self.armed and self._trigger.counter in counters:
            return self._left()
        return sys.maxsize

    def cap_rows(self, op: "Operator", max_rows: int) -> int:
        """Rows ``op`` may hand up from one call while armed."""
        if op in self._above:
            return min(max_rows, 1)
        return min(max_rows, self.room(op, "emitted"))


class Runtime:
    """Shared execution context of one query."""

    def __init__(
        self,
        db: Database,
        config: Optional[EngineConfig] = None,
        tracer: Optional[Tracer] = None,
        query: Optional[str] = None,
    ):
        self.db = db
        self.config = config or EngineConfig()
        #: The runtime's tracer, bound to the virtual clock and (when
        #: known) the query name. Defaults to the process-wide tracer
        #: (:func:`repro.obs.tracer.current_tracer`), which is the no-op
        #: NullTracer unless tracing was explicitly enabled.
        base_tracer = tracer if tracer is not None else current_tracer()
        self.tracer = base_tracer.bind(clock=db.disk.clock, query=query)
        self.graph = ContractGraph(tracer=self.tracer)
        self.controller = SuspendController()
        self.ops: dict[int, "Operator"] = {}
        self.ops_by_name: dict[str, "Operator"] = {}
        self.height = 0
        #: The query's private as-if-solo clock/counters. Installed as the
        #: disk's active lane by the session while this query is the one
        #: executing; all per-query cost-model reads go through
        #: :attr:`SimulatedDisk.query_now` so they see this lane.
        self.lane = QueryLane(db.disk.cost_model, name=query or "")
        #: This query's view of the state store: keys are namespaced by
        #: the session name (``None`` for anonymous sessions: the
        #: store-global key sequence) and remembered for release.
        self.store = ScopedStateStore(db.state_store, query)
        #: Fold binding installed by the scheduler before plan
        #: instantiation; when set, ``instantiate_plan`` substitutes
        #: shared-scan leaves / shared-build joins (see ``repro.fold``).
        self.fold: Optional["FoldBinding"] = None

    @property
    def disk(self) -> SimulatedDisk:
        return self.db.disk

    def register(self, op: "Operator") -> None:
        if op.op_id in self.ops:
            raise ValueError(f"duplicate operator id {op.op_id}")
        self.ops[op.op_id] = op
        self.ops_by_name[op.name] = op

    def op(self, op_id: int) -> "Operator":
        return self.ops[op_id]

    def op_named(self, name: str) -> "Operator":
        return self.ops_by_name[name]

    def arm(self, trigger: SuspendTrigger) -> None:
        """Arm ``trigger`` after checking it can fire in this query: the
        operator exists and has the counter."""
        if not isinstance(trigger, SuspendTrigger):
            raise TypeError(
                "suspend_when takes a SuspendTrigger(op, counter, threshold), "
                f"not {type(trigger).__name__}"
            )
        op = self.ops_by_name.get(trigger.op)
        if op is None:
            raise InvalidTriggerError(
                f"no operator named {trigger.op!r} in this plan; it has "
                f"{sorted(self.ops_by_name)}"
            )
        if not hasattr(op, TRIGGER_COUNTERS.get(trigger.counter, "")):
            raise InvalidTriggerError(
                f"operator {op.name!r} ({type(op).__name__}) has no "
                f"{trigger.counter!r} counter; 'fill' is kept by sorts and "
                "block NLJs, 'position' by table scans, 'emitted' by all"
            )
        if trigger.threshold < 0:
            raise InvalidTriggerError(
                f"negative trigger threshold {trigger.threshold}"
            )
        self.controller.arm(trigger, op)

    def memory_in_use(self) -> int:
        """Bytes of operator heap state currently held (page-granular)."""
        page_bytes = self.db.cost_model.page_bytes
        return sum(op.heap_pages() * page_bytes for op in self.ops.values())

    def root(self) -> "Operator":
        roots = [op for op in self.ops.values() if op.parent is None]
        if len(roots) != 1:
            raise ValueError(f"expected one root operator, found {len(roots)}")
        return roots[0]

    def plan_height(self) -> int:
        """Height of the operator tree (set once by ``instantiate_plan``:
        the tree never changes shape afterwards)."""
        return self.height


@dataclass
class SuspendContext:
    """Carries the suspend plan and the SuspendedQuery being populated."""

    plan: SuspendPlan
    sq: SuspendedQuery
    runtime: Runtime

    @property
    def graph(self) -> ContractGraph:
        return self.runtime.graph

    @property
    def store(self) -> StateStore:
        return self.runtime.store

    @property
    def disk(self) -> SimulatedDisk:
        return self.runtime.disk


@dataclass
class ResumeContext:
    """Carries the SuspendedQuery being restored."""

    sq: SuspendedQuery
    runtime: Runtime

    @property
    def store(self) -> StateStore:
        return self.runtime.store

    @property
    def disk(self) -> SimulatedDisk:
        return self.runtime.disk
