"""Folded operator variants: shared scans and shared build-side joins.

These subclasses are substituted by ``instantiate_plan`` when the query's
runtime carries a :class:`~repro.fold.manager.FoldBinding`. Each override
changes only *where bytes come from*, never what the owning query's lane
is charged: the lane counts the exact as-if-solo events, so
checkpoints, contracts, the suspend-plan optimizer's constants, and
durable images are byte-identical to an unfolded run's.

The plan spec recorded in images is the *original* spec (substitution
happens at instantiation), so a suspended folded query resumes cleanly
with or without a fold manager present — fold split on suspend is just
"resume without re-grafting" plus cursor detach at close.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

from repro.engine.hash_join import HybridHashJoin, SimpleHashJoin
from repro.engine.scan import TableScan
from repro.storage.heapfile import ScanCursor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fold.manager import FoldBinding, FoldProducer

Row = tuple


class FoldCursor(ScanCursor):
    """A scan cursor that drains pages from a shared fold producer.

    Page fetches go through :meth:`FoldProducer.acquire` (one real,
    globally charged read per page per window residency, split across all
    consumers) and the owning query's lane is charged an *absorbed* read
    at the exact point the plain cursor would charge a real one. All
    position/seek/control-state behavior is inherited unchanged.
    """

    def __init__(self, heapfile, producer: "FoldProducer", disk):
        super().__init__(heapfile)
        self._producer = producer
        self._disk = disk
        producer.attach(self)

    def _fetch_page(self, page_no: int) -> Sequence[Row]:
        rows = self._producer.acquire(page_no)
        self._disk.absorbed_read_pages(1)
        self._producer.stats.pages_absorbed += 1
        return rows

    def detach(self) -> None:
        self._producer.detach(self)


class SharedScanLeaf(TableScan):
    """A table scan grafted onto a shared fold producer.

    Only cursor creation and teardown differ from :class:`TableScan`;
    contracts, checkpoints, control state, batch execution, and resume
    are all inherited — which is precisely why a fold-split image is
    identical to an unfolded one by construction.
    """

    def __init__(self, op_id, name, runtime, table, producer: "FoldProducer"):
        super().__init__(op_id, name, runtime, table)
        self.producer = producer

    def _do_open(self) -> None:
        self._cursor = FoldCursor(self.table, self.producer, self.rt.disk)

    def _do_close(self) -> None:
        # Detach is the fold split: the remaining members keep sharing
        # the producer window; this cursor's pages are released.
        if self._cursor is not None:
            self._cursor.detach()
        super()._do_close()


class SharedBuildMixin:
    """Shares per-partition build-side hash tables between sibling joins.

    The first join to reload a (spilled) partition builds the hash table
    for real and publishes it under its build-side fingerprint; siblings
    with an equal fingerprint adopt the published table and charge their
    own lane the *absorbed* equivalents of the reload I/O and per-row
    build CPU — computed from their own partition sizes, which equal the
    provider's because equal build fingerprints imply identical build
    input and partitioning. Memory-resident partitions are never shared
    (there is no reload to save).

    The adopted dict is aliased, not copied: joins rebind ``_hash_table``
    rather than mutate it, probe via ``.get``, and copy on heap-state
    dumps, so aliasing is safe.
    """

    _fold_binding: Optional["FoldBinding"] = None
    _fold_build_key: Optional[str] = None

    def bind_fold(self, binding: "FoldBinding", build_key: str) -> None:
        self._fold_binding = binding
        self._fold_build_key = build_key

    def _load_partition(self, p: int) -> None:
        binding = self._fold_binding
        if (
            binding is None
            or self._fold_build_key is None
            or self._is_memory_partition(p)
        ):
            super()._load_partition(p)
            return
        manager = binding.manager
        cached = manager.lookup_build(self._fold_build_key, p)
        if cached is None:
            super()._load_partition(p)
            manager.store_build(self._fold_build_key, p, self._hash_table)
            return
        # Adopt the shared table; count the as-if-solo events on this
        # query's lane only (the ones super() counts: the spilled
        # partition's page reads, and one CPU tuple per build row).
        disk = self.rt.disk
        spilled = len(self.build.rows(p))
        pages = math.ceil(spilled / self.build.tuples_per_page)
        with self.attribute_work():
            disk.absorbed_read_pages(pages)
            disk.absorbed_cpu_tuples(len(self.build.pending[p]) + spilled)
        self._hash_table = cached
        self._probe_rows = self.probe.rows(p)
        manager.note_build_hit()
        manager.stats.pages_absorbed += pages


class FoldedSimpleHashJoin(SharedBuildMixin, SimpleHashJoin):
    """Simple hash join with shared build-side partition tables."""


class FoldedHybridHashJoin(SharedBuildMixin, HybridHashJoin):
    """Hybrid hash join with shared build-side partition tables."""
