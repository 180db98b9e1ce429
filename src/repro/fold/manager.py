"""Fold manager: producers, build-table cache, and per-query bindings.

One :class:`FoldManager` lives on an executor core (scheduler or serve
service). Admitting a query yields a :class:`FoldBinding` installed on
the query's :class:`~repro.engine.runtime.Runtime` before plan
instantiation; ``instantiate_plan`` then grafts the plan's foldable
leaves onto the manager's shared state:

- plain table scans become
  :class:`~repro.engine.folded.SharedScanLeaf` operators drawing pages
  from a per-table :class:`FoldProducer` page window. The first consumer
  to need a page fetches it once for everyone
  (:meth:`~repro.storage.disk.SimulatedDisk.shared_read_pages`, global
  clock only); every consumer charges its *own* lane an absorbed read,
  so per-query cost models are exactly as-if-solo.
- hash joins whose build subplans fingerprint equal adopt one shared
  build-side hash table per partition (see
  :class:`~repro.engine.folded.SharedBuildMixin`).

Fold split on suspend needs no special machinery beyond detach: all
image-visible state (cursor positions, checkpoints, virtual clocks,
dump keys) is per-lane and per-query by construction, so a victim's
image is byte-identical to an unfolded run's. The detach happens in the
operator's ``_do_close`` — the suspend phase closes the session, which
unhooks every shared cursor while the remaining members keep sharing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.fold.fingerprint import (
    build_side_fingerprint,
    plan_fingerprint,
    scan_tables,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import PlanSpec
    from repro.storage.database import Database

#: Cap on buffered pages per producer window (bounds fold memory).
WINDOW_PAGES = 64
#: Cap on cached shared build-side hash tables (per manager).
BUILD_TABLES = 32


@dataclass
class FoldStats:
    """Fold effectiveness tallies (published as first-class metrics)."""

    #: Queries admitted with at least one foldable leaf.
    candidates: int = 0
    #: Queries grafted onto work another live member also reads.
    grafted: int = 0
    #: Folded members unfolded because they were suspended/killed.
    splits: int = 0
    #: Page reads satisfied from producer windows (global I/O avoided).
    pages_absorbed: int = 0
    #: Pages fetched by producers on behalf of all consumers.
    pages_shared: int = 0
    #: Producer re-fetches of evicted/behind-window pages.
    refetches: int = 0
    #: Shared build-side hash-table adoptions (partition granularity).
    build_hits: int = 0

    def as_dict(self) -> dict:
        return {
            "candidates": self.candidates,
            "grafted": self.grafted,
            "splits": self.splits,
            "pages_absorbed": self.pages_absorbed,
            "pages_shared": self.pages_shared,
            "refetches": self.refetches,
            "build_hits": self.build_hits,
        }


class FoldProducer:
    """Shared page window over one table.

    Holds up to ``window_pages`` recently fetched pages. When the cap is
    hit the lowest-numbered page is evicted — in the co-scheduled case
    that is the page every attached cursor has already passed, so the
    window slides along the table; a consumer still needing an evicted
    page triggers a counted refetch. Pages are retained across detaches
    (still bounded by the cap): on the serve path requests are serial —
    a query detaches at the end of every token hop — and the retained
    window is what lets the next hop, or the next query over the same
    table, absorb those pages instead of refetching them.
    """

    def __init__(self, table, disk, stats: FoldStats, window_pages: int):
        self.table = table
        self.disk = disk
        self.stats = stats
        self.window_pages = max(1, window_pages)
        self._pages: dict[int, list] = {}
        self._consumers: dict[int, object] = {}
        #: Highest page number ever fetched (refetch detection).
        self._high_water = -1

    @property
    def window_size(self) -> int:
        return len(self._pages)

    def attach(self, cursor) -> None:
        self._consumers[id(cursor)] = cursor

    def detach(self, cursor) -> None:
        self._consumers.pop(id(cursor), None)

    def acquire(self, page_no: int):
        """Rows of ``page_no``, fetching it into the window on a miss.

        The fetch charges :meth:`SimulatedDisk.shared_read_pages` — the
        one real I/O all consumers split. The *caller* (a fold cursor)
        separately charges its own lane an absorbed read.
        """
        rows = self._pages.get(page_no)
        if rows is not None:
            return rows
        rows = self.table.peek_page(page_no)
        self.disk.shared_read_pages(1)
        self.stats.pages_shared += 1
        if page_no <= self._high_water:
            self.stats.refetches += 1
        else:
            self._high_water = page_no
        self._pages[page_no] = rows
        self._trim(keep=page_no)
        return rows

    def _trim(self, keep: int) -> None:
        while len(self._pages) > self.window_pages:
            victim = min(p for p in self._pages if p != keep)
            del self._pages[victim]


class _MemberState:
    """Per-admitted-query fold bookkeeping inside the manager."""

    __slots__ = ("name", "fingerprint", "tables", "build_keys", "grafted")

    def __init__(self, name, fingerprint, tables, build_keys):
        self.name = name
        self.fingerprint = fingerprint
        self.tables = tables
        self.build_keys = build_keys
        self.grafted = False


class FoldManager:
    """Detects foldable work among admitted queries and owns the shared
    producers and build-table cache they graft onto."""

    def __init__(self, db: "Database", tracer=None):
        self.db = db
        self.tracer = tracer
        self.stats = FoldStats()
        self._producers: dict[str, FoldProducer] = {}
        self._members: dict[str, _MemberState] = {}
        #: build-key -> per-partition hash tables adopted by siblings.
        self._build_cache: dict[str, dict[int, dict]] = {}

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, name: str, plan_spec: "PlanSpec") -> Optional["FoldBinding"]:
        """Consider ``name`` for folding; return its binding or ``None``.

        A query is a *candidate* when it has foldable leaves at all, and
        *grafted* when some other live member reads one of its tables or
        shares a build-side fingerprint.
        """
        from repro.fold.fingerprint import iter_specs

        tables = scan_tables(plan_spec)
        build_keys = {
            bk
            for node in iter_specs(plan_spec)
            if (bk := build_side_fingerprint(node)) is not None
        }
        if not tables and not build_keys:
            return None
        self.stats.candidates += 1
        member = _MemberState(
            name, plan_fingerprint(plan_spec), tables, build_keys
        )
        shared_with = sorted(
            other.name
            for other in self._members.values()
            if other.name != name
            and (other.tables & tables or other.build_keys & build_keys)
        )
        self._members[name] = member
        if shared_with:
            member.grafted = True
            self.stats.grafted += 1
            # Re-grafting is mutual: the member already running becomes
            # shared too (it was a lone candidate when admitted).
            for other_name in shared_with:
                other = self._members[other_name]
                if not other.grafted:
                    other.grafted = True
                    self.stats.grafted += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(
                "fold.admit",
                query=name,
                tables=sorted(tables),
                build_keys=len(build_keys),
                shared_with=shared_with,
            )
        return FoldBinding(self, name)

    def is_grafted(self, name: str) -> bool:
        """True while ``name`` currently shares work with a live sibling."""
        member = self._members.get(name)
        return member is not None and member.grafted

    def binding(self, name: str) -> Optional["FoldBinding"]:
        """A later request's binding for a member admitted earlier, or
        ``None`` when ``name`` is not one (e.g. it began elsewhere)."""
        return FoldBinding(self, name) if name in self._members else None

    def forget(self, name: str) -> None:
        """Drop a completed/killed member's bookkeeping."""
        self._members.pop(name, None)

    def note_split(self, name: str) -> None:
        """Record that a folded member was unfolded by suspend/kill."""
        member = self._members.get(name)
        if member is not None and member.grafted:
            self.stats.splits += 1
            member.grafted = False
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event("fold.split", query=name)

    # ------------------------------------------------------------------
    # Shared scan producers
    # ------------------------------------------------------------------
    def producer_for(self, table) -> FoldProducer:
        producer = self._producers.get(table.name)
        if producer is None:
            producer = FoldProducer(
                table, self.db.disk, self.stats, WINDOW_PAGES
            )
            self._producers[table.name] = producer
        return producer

    # ------------------------------------------------------------------
    # Shared build-side hash tables
    # ------------------------------------------------------------------
    def lookup_build(self, build_key: str, partition: int) -> Optional[dict]:
        per_part = self._build_cache.get(build_key)
        if per_part is None:
            return None
        return per_part.get(partition)

    def store_build(self, build_key: str, partition: int, table: dict) -> None:
        per_part = self._build_cache.get(build_key)
        if per_part is None:
            while len(self._build_cache) >= BUILD_TABLES:
                # FIFO eviction: oldest fingerprint's tables go first.
                oldest = next(iter(self._build_cache))
                del self._build_cache[oldest]
            per_part = self._build_cache[build_key] = {}
        per_part[partition] = table

    def note_build_hit(self) -> None:
        self.stats.build_hits += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def bytes_saved(self) -> int:
        """Bytes of I/O folding avoided so far (the headline gauge).

        Absorbed reads are what the queries' lanes were charged without
        touching the disk; shared reads are what producers actually
        fetched on their behalf. The difference is the real saving —
        zero for a lone consumer, ``(K-1)/K`` of the scan for K
        perfectly folded members.
        """
        disk = self.db.disk
        saved = max(0, disk.fold_pages_saved - disk.fold_shared_pages)
        return saved * disk.cost_model.page_bytes

    def publish_metrics(self, metrics) -> None:
        """Mirror the tallies into a MetricsRegistry (``/obs/metrics``)."""
        s = self.stats
        metrics.counter("fold.candidates").set(s.candidates)
        metrics.counter("fold.grafted").set(s.grafted)
        metrics.counter("fold.splits").set(s.splits)
        metrics.counter("fold.pages_absorbed_total").set(s.pages_absorbed)
        metrics.counter("fold.pages_shared_total").set(s.pages_shared)
        metrics.counter("fold.refetches_total").set(s.refetches)
        metrics.counter("fold.build_hits_total").set(s.build_hits)
        metrics.gauge("fold.scan_bytes_saved").set(self.bytes_saved())


class FoldBinding:
    """One query's handle onto the fold manager.

    Installed on the query's runtime before plan instantiation;
    ``instantiate_plan`` consults it to substitute shared-scan leaves and
    shared-build joins. Cheap and stateless — all shared state lives on
    the manager, so bindings survive session re-instantiation (resume).
    """

    __slots__ = ("manager", "query")

    def __init__(self, manager: FoldManager, query: str):
        self.manager = manager
        self.query = query

    @property
    def stats(self) -> FoldStats:
        return self.manager.stats
