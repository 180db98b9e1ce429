"""Virtual clock and simulated disk with deterministic I/O accounting.

The paper's evaluation (Section 6) measures *total overhead time* and
*suspend time* on PREDATOR/SHORE, where writes through the storage manager
are noticeably more expensive than reads (Figure 8's crossover selectivity
of ~0.28 implies a write/read cost ratio of ~2.5, since the all-DumpState /
all-GoBack crossover satisfies ``s* = r / (w + r)``). We reproduce these
economics with an explicit cost model, so experiments are deterministic
and independent of Python's execution speed.

Time is *derived*, never accumulated: the only clock state a charge touches
is a set of integer counters (pages read, pages written, tuples processed),
and every float time is ``base + counters · costs`` evaluated on read
(:meth:`IOCostModel.elapsed`). Integer addition is associative, so ``n``
unit charges and one charge of ``n`` — in any order and any grouping —
give the same clock by construction; two executions agree on time exactly
when they count the same events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class IOCostModel:
    """Costs, in abstract time units, charged by the simulated disk.

    The costs are read each time a clock is evaluated, so changing one
    after construction re-prices everything already counted.

    Attributes:
        page_read_cost: cost of reading one page.
        page_write_cost: cost of writing one page. The default 2.5x ratio
            to reads reproduces the paper's observation that "writing in
            SHORE is more expensive than reading" and places the
            all-GoBack/all-DumpState crossover at selectivity
            ``1 / (1 + 2.5) ~= 0.286``, matching the paper's ~0.28.
        cpu_tuple_cost: CPU cost charged per tuple an operator processes.
            Small relative to a page I/O, as in any disk-bound system.
        page_bytes: nominal page size, used to convert small byte-granular
            state (control state, SuspendedQuery) into page I/Os.
    """

    page_read_cost: float = 1.0
    page_write_cost: float = 2.5
    cpu_tuple_cost: float = 0.001
    page_bytes: int = 20_000

    def pages_for_bytes(self, nbytes: int) -> int:
        """Number of pages needed to hold ``nbytes`` bytes (at least 1)."""
        if nbytes <= 0:
            return 0
        return max(1, math.ceil(nbytes / self.page_bytes))

    def elapsed(self, counters: "IOCounters", base: float = 0.0) -> float:
        """Virtual time of the events in ``counters`` on top of ``base``.

        The one place a float time is computed. The order of the three
        terms is fixed so every reader of the same integers gets the same
        bits.
        """
        return (
            base
            + counters.pages_read * self.page_read_cost
            + counters.pages_written * self.page_write_cost
            + counters.cpu_tuples * self.cpu_tuple_cost
        )


class VirtualClock:
    """A monotonic simulated clock: ``base`` plus a read-only view over
    ``(counters, cost_model)``.

    ``base`` is the only float the clock stores. It holds time that no
    counted event explains — the scheduler's idle fast-forward, and the
    prior incarnations of a resumed query — and only :meth:`advance`
    moves it. Without counters the clock is just its base.
    """

    __slots__ = ("base", "_counters", "_cost_model")

    def __init__(
        self,
        start: float = 0.0,
        counters: IOCounters | None = None,
        cost_model: IOCostModel | None = None,
    ):
        self.base = float(start)
        self._counters = counters
        self._cost_model = cost_model

    @property
    def now(self) -> float:
        if self._counters is None:
            return self.base
        return self._cost_model.elapsed(self._counters, self.base)

    def advance(self, gap: float) -> float:
        """Move the base forward by ``gap`` and return the amount moved."""
        if gap < 0:
            raise ValueError(f"cannot advance clock by negative amount {gap}")
        self.base += gap
        return gap


@dataclass
class IOCounters:
    """Integer event counts: the stored state every virtual time derives
    from (the disk's, each query lane's, and each operator's work tally)."""

    pages_read: int = 0
    pages_written: int = 0
    control_bytes_read: int = 0
    control_bytes_written: int = 0
    cpu_tuples: int = 0

    def snapshot(self) -> "IOCounters":
        return IOCounters(
            pages_read=self.pages_read,
            pages_written=self.pages_written,
            control_bytes_read=self.control_bytes_read,
            control_bytes_written=self.control_bytes_written,
            cpu_tuples=self.cpu_tuples,
        )

    def minus(self, other: "IOCounters") -> "IOCounters":
        return IOCounters(
            pages_read=self.pages_read - other.pages_read,
            pages_written=self.pages_written - other.pages_written,
            control_bytes_read=self.control_bytes_read - other.control_bytes_read,
            control_bytes_written=self.control_bytes_written
            - other.control_bytes_written,
            cpu_tuples=self.cpu_tuples - other.cpu_tuples,
        )


class QueryLane:
    """Per-query "as-if-solo" accounting mirrored off the shared disk.

    Every :class:`SimulatedDisk` charge bumps the active lane's private
    counters by the *same integer events*, so a query's lane reads exactly
    the virtual time it would have read running alone on a fresh disk —
    independent of how the scheduler interleaves it with other queries.
    Checkpoints, contracts, suspend images, and the MIP optimizer's work
    constants all read the lane (via :attr:`SimulatedDisk.query_now`),
    which is what makes folded and unfolded executions byte-identical per
    query: shared-work folding changes *global* I/O, never the lane.
    """

    __slots__ = ("name", "clock", "counters")

    def __init__(
        self, cost_model: IOCostModel, name: str = "", start: float = 0.0
    ):
        self.name = name
        self.counters = IOCounters()
        self.clock = VirtualClock(start, self.counters, cost_model)

    @property
    def now(self) -> float:
        return self.clock.now


@dataclass
class SimulatedDisk:
    """Counts charged operations; its virtual clock is derived from them.

    Every charging method returns the cost of that charge, for callers
    that report it; operators attribute work to themselves by counting
    the same integer events (``Operator.attribute_work``), and the
    suspend-plan optimizer's ``g^r`` constants are differences of those
    per-operator tallies priced by the cost model (Section 5 of the
    paper).

    When a :class:`QueryLane` is active, every charge is mirrored onto it
    (same counter increments). Shared-work folding (``repro.fold``)
    additionally uses the *absorbed*/*shared* variants: an absorbed charge
    counts only on the consumer's lane (the page came from a fold
    producer's buffer, or a sibling already built the hash table, so
    nothing happened globally), while a shared read counts only on the
    global disk (the producer fetches on behalf of all consumers; no
    single lane owns the cost).
    """

    cost_model: IOCostModel = field(default_factory=IOCostModel)
    counters: IOCounters = field(default_factory=IOCounters)
    clock: VirtualClock = field(init=False)
    lane: QueryLane | None = None
    #: Page reads satisfied from fold-producer buffers instead of the disk.
    fold_pages_saved: int = 0
    #: Pages fetched by fold producers on behalf of >=1 consumers.
    fold_shared_pages: int = 0

    def __post_init__(self) -> None:
        self.clock = VirtualClock(0.0, self.counters, self.cost_model)

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def query_counters(self) -> IOCounters:
        """The active query's as-if-solo counters (global if no lane)."""
        return self.lane.counters if self.lane is not None else self.counters

    @property
    def query_now(self) -> float:
        """The active query's as-if-solo clock (global clock if no lane)."""
        if self.lane is not None:
            return self.lane.clock.now
        return self.clock.now

    def set_lane(self, lane: QueryLane | None) -> QueryLane | None:
        """Activate ``lane`` for subsequent charges; return the previous one."""
        prev = self.lane
        self.lane = lane
        return prev

    def read_pages(self, n: int) -> float:
        """Charge ``n`` page reads; return the cost."""
        if n < 0:
            raise ValueError(f"negative page count {n}")
        self.counters.pages_read += n
        if self.lane is not None:
            self.lane.counters.pages_read += n
        return n * self.cost_model.page_read_cost

    def write_pages(self, n: int) -> float:
        """Charge ``n`` page writes; return the cost."""
        if n < 0:
            raise ValueError(f"negative page count {n}")
        self.counters.pages_written += n
        if self.lane is not None:
            self.lane.counters.pages_written += n
        return n * self.cost_model.page_write_cost

    def read_control_bytes(self, nbytes: int) -> float:
        """Charge a small byte-granular read (control state, SQ header)."""
        if nbytes < 0:
            raise ValueError(f"negative byte count {nbytes}")
        self.counters.control_bytes_read += nbytes
        if self.lane is not None:
            self.lane.counters.control_bytes_read += nbytes
        return self.read_pages(self.cost_model.pages_for_bytes(nbytes))

    def write_control_bytes(self, nbytes: int) -> float:
        """Charge a small byte-granular write (control state, SQ header)."""
        if nbytes < 0:
            raise ValueError(f"negative byte count {nbytes}")
        self.counters.control_bytes_written += nbytes
        if self.lane is not None:
            self.lane.counters.control_bytes_written += nbytes
        return self.write_pages(self.cost_model.pages_for_bytes(nbytes))

    def charge_cpu_tuples(self, n: int) -> float:
        """Charge CPU time for processing ``n`` tuples; return the cost."""
        if n < 0:
            raise ValueError(f"negative tuple count {n}")
        self.counters.cpu_tuples += n
        if self.lane is not None:
            self.lane.counters.cpu_tuples += n
        return n * self.cost_model.cpu_tuple_cost

    # -- shared-work folding charge variants (repro.fold) ------------------

    def absorbed_read_pages(self, n: int) -> float:
        """Charge ``n`` page reads to the active lane only.

        Used by folded consumers whose pages arrive from a fold producer's
        buffer: the query's as-if-solo cost model must see the read (its
        checkpoints and suspend image depend on it) but no global I/O
        happened — that is the fold's saving, tallied in
        :attr:`fold_pages_saved`.
        """
        if n < 0:
            raise ValueError(f"negative page count {n}")
        if self.lane is None:
            raise RuntimeError("absorbed_read_pages requires an active QueryLane")
        self.fold_pages_saved += n
        self.lane.counters.pages_read += n
        return n * self.cost_model.page_read_cost

    def absorbed_cpu_tuples(self, n: int) -> float:
        """Charge CPU for ``n`` tuples to the active lane only.

        Used when a folded consumer adopts work a sibling already did for
        real (e.g. a shared build-side hash table): the lane must count
        the as-if-solo events, but globally the work ran once.
        """
        if n < 0:
            raise ValueError(f"negative tuple count {n}")
        if self.lane is None:
            raise RuntimeError("absorbed_cpu_tuples requires an active QueryLane")
        self.lane.counters.cpu_tuples += n
        return n * self.cost_model.cpu_tuple_cost

    def shared_read_pages(self, n: int) -> float:
        """Charge ``n`` page reads to the global disk only (no lane).

        Used by fold producers fetching pages on behalf of all attached
        consumers: the I/O is real (global clock and counters advance) but
        no single query's lane owns it — each consumer charges its own
        absorbed read when it drains the page.
        """
        if n < 0:
            raise ValueError(f"negative page count {n}")
        self.fold_shared_pages += n
        self.counters.pages_read += n
        return n * self.cost_model.page_read_cost

    def cost_of_page_reads(self, n: int) -> float:
        """Cost of ``n`` page reads without charging (for estimation)."""
        return n * self.cost_model.page_read_cost

    def cost_of_page_writes(self, n: int) -> float:
        """Cost of ``n`` page writes without charging (for estimation)."""
        return n * self.cost_model.page_write_cost
