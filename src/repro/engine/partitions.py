"""One spilled, partitioned input of a hash operator.

Shared by the hash joins (one per side) and hash grouping. While the
operator partitions its input, a partition is a growing row list whose
block writes are charged as they happen. At the phase boundary — the
paper's materialization point — :meth:`PartitionedInput.end` registers
each one in the state store, and from then on checkpoints and suspend
entries carry its :class:`~repro.storage.statefile.DumpHandle`: a durable
image writes the rows once and references them afterwards, a resume
decodes only the partitions it reads, and a finished partition just stops
being named.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from repro.common.errors import ContractError
from repro.engine.base import BATCH_ROWS, Operator, Row
from repro.storage.statefile import DumpHandle


class PartitionedInput:
    """The rows of ``child`` hashed by ``key_fn`` into partitions.

    ``pending[p]`` holds the rows of partition ``p`` not yet flushed (for
    the first ``memory_partitions`` ones, which never spill, all rows);
    ``disk[p]`` the flushed rows and, once sealed, the handle of their
    payload; ``flushed[p]`` counts the blocks written and ``consumed``
    the child rows taken. The owning operator decides the names these go
    by in control state, checkpoints and dumps.
    """

    def __init__(
        self,
        op: Operator,
        child: Operator,
        label: str,
        key_fn: Callable[[Row], object],
        tuples_per_page: int,
        num_partitions: int,
        memory_partitions: int = 0,
    ):
        self.op = op
        self.child = child
        self.label = label
        self.key_fn = key_fn
        self.tuples_per_page = tuples_per_page
        self.memory_partitions = memory_partitions
        self.pending: list[list[Row]] = [[] for _ in range(num_partitions)]
        self.disk: list = [[] for _ in range(num_partitions)]
        self.flushed = [0] * num_partitions
        self.consumed = 0

    def drain(
        self,
        limit: Optional[int] = None,
        skip_blocks: Optional[Sequence[int]] = None,
    ) -> None:
        """Hash the child's rows into partitions: to exhaustion, or
        (GoBack roll-forward) exactly ``limit`` more rows.

        The input is a heap child and partitioning has no checkpoint
        point of its own, so the drain asks for whole batches. Block
        flushes are data-dependent, so each write is charged by the row
        that fills the block; the operator's consume charges settle once
        per batch. ``skip_blocks`` is the roll-forward's per-partition
        count of blocks already on disk (see :meth:`flush`).
        """
        op = self.op
        child = self.child
        key_fn = self.key_fn
        pending = self.pending
        tpp = self.tuples_per_page
        k = len(pending)
        mem_k = self.memory_partitions
        while limit is None or limit > 0:
            rows = op._drain(child, BATCH_ROWS if limit is None else limit)
            if not rows:
                if limit is None:
                    break
                raise ContractError(
                    f"{op.name}: {self.label} child exhausted during GoBack"
                )
            for row in rows:
                p = hash(key_fn(row)) % k
                plist = pending[p]
                plist.append(row)
                # Hybrid: a memory partition never spills — that is the
                # I/O saving hybrid hash buys by giving up the
                # materialization point.
                if p >= mem_k and len(plist) >= tpp:
                    self.flush(p, skip_blocks)
            self.consumed += len(rows)
            if limit is not None:
                limit -= len(rows)
            op.charge_cpu(len(rows))

    def flush(self, p: int, skip_blocks: Optional[Sequence[int]] = None) -> None:
        """Move partition ``p``'s pending rows to disk as one block,
        charging its write unless the roll-forward knows the block is
        already on disk from before the suspend (the contract recorded
        the flushed counts — the paper's optimization)."""
        rows = self.pending[p]
        if not rows:
            return
        if skip_blocks is None or skip_blocks[p] <= self.flushed[p]:
            with self.op.attribute_work():
                self.op.rt.disk.write_pages(1)
        self.disk[p].extend(rows)
        self.pending[p] = []
        self.flushed[p] += 1

    def end(self) -> None:
        """Flush the partial blocks and seal the partitions: they stop
        growing here."""
        for p in range(self.memory_partitions, len(self.pending)):
            self.flush(p)
        self._seal()

    def _seal(self) -> None:
        """Replace every non-empty row list by the handle of a payload
        registered for it. Nothing is charged: each block was charged
        when it was flushed, and the operator charges its own page reads
        when it loads a partition."""
        store = self.op.rt.store
        for p, rows in enumerate(self.disk):
            if rows and not isinstance(rows, DumpHandle):
                self.disk[p] = store.materialized(
                    store.fresh_key(f"{self.op.name}_{self.label}"),
                    rows,
                    math.ceil(len(rows) / self.tuples_per_page),
                )

    def rows(self, p: int) -> Sequence[Row]:
        """The spilled rows of partition ``p``, sealed or not (read-only:
        a sealed partition's payload is shared with the state store)."""
        part = self.disk[p]
        if isinstance(part, DumpHandle):
            return self.op.rt.store.peek(part)
        return part

    def snapshot(self, live: int = -1) -> list:
        """The spilled partitions as a checkpoint or suspend entry holds
        them: handles as they are, row lists (still growing) copied, and
        the partitions before ``live`` left out.

        The second phase never returns to a finished partition, and every
        state a snapshot is restored or rolled forward to lies at or after
        it, so those are never read again; they stay as empty lists (the
        partition count is control state). A boundary checkpoint is taken
        before the index advances, so it keeps the partition just finished:
        a contract migrated onto it still names that one.
        """
        return [
            []
            if p < live
            else part
            if isinstance(part, DumpHandle)
            else list(part)
            for p, part in enumerate(self.disk)
        ]

    def restore(self, parts: Optional[Sequence], sealed: bool) -> None:
        """Take over the partitions of a snapshot (``None``: the snapshot
        does not name this input). Row lists — a partitioning-phase
        snapshot, or an image from before partitions were payloads — are
        sealed unless partitioning resumes."""
        if parts is not None:
            self.disk = [
                part if isinstance(part, DumpHandle) else list(part)
                for part in parts
            ]
        if sealed:
            self._seal()
