"""Per-query runtime context and the suspend controller.

The :class:`Runtime` is shared by every operator of one executing query:
it holds the database, the contract graph, the engine configuration, an
operator registry, and the :class:`SuspendController` that turns an
external suspend request into the paper's *suspend exception* at the next
safe point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.common.errors import LifecycleError, SuspendRequested
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


class SuspendController:
    """Arms a suspend condition and raises at the next safe poll.

    Operators poll at points where their in-memory state is internally
    consistent (between tuples); the paper's analogue is handling the
    suspend exception "at the query's next blocking step". The condition
    is a predicate over the runtime, so experiments can express triggers
    like "suspend when the NLJ outer buffer is 50% full" or "after the
    scan of R has produced 100,000 tuples".
    """

    def __init__(self):
        self._condition: Optional[Callable[["Runtime"], bool]] = None
        self._fired = False
        self._suppressed = 0

    def arm(self, condition: Callable[["Runtime"], bool]) -> None:
        """Install a suspend condition; it fires at most once."""
        self._condition = condition
        self._fired = False

    def disarm(self) -> None:
        self._condition = None

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def armed(self) -> bool:
        """True while a live condition could still fire.

        The batched execution path checks this once per batch: when no
        condition is armed, ``poll()`` is a no-op and the vectorized fast
        loops may skip it wholesale; when armed, operators degrade to the
        per-row loop so the poll happens at the exact row boundaries the
        row path polls at.
        """
        return self._condition is not None and not self._fired

    def suppress(self) -> None:
        """Disable polling (used inside the suspend and resume phases)."""
        self._suppressed += 1

    def unsuppress(self) -> None:
        if self._suppressed <= 0:
            raise LifecycleError("unbalanced SuspendController.unsuppress()")
        self._suppressed -= 1

    def poll(self, runtime: "Runtime") -> None:
        """Raise :class:`SuspendRequested` if the armed condition holds."""
        if self._fired or self._suppressed or self._condition is None:
            return
        if self._condition(runtime):
            self._fired = True
            raise SuspendRequested("suspend condition met")


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

    def poll(self) -> None:
        self.controller.poll(self)

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
        def depth(op: "Operator") -> int:
            if not op.children:
                return 1
            return 1 + max(depth(c) for c in op.children)

        return depth(self.root())


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
