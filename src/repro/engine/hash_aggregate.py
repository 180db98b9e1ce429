"""Hash-based grouping with aggregation (Section 4).

The paper: "In case these operators use hashing, the first phase is as
before [simple hash join's partitioning]. In the second phase, an entire
bucket is brought into memory to perform the function of these operators.
We again maintain the current aggregate value ... while processing the
current bucket."

Phase 1 partitions the input by group-key hash, flushing blocks to disk
as they fill (charged); the phase boundary is a materialization point:
the partitions become payloads (:mod:`repro.engine.partitions`).
Phase 2 loads one partition at a time, folds it into per-group aggregates,
and emits the groups; partition boundaries are minimal-heap-state points.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.common.errors import ContractError
from repro.core.suspended_query import OpSuspendEntry
from repro.engine import partitions
from repro.engine.aggregate import AGG_FUNCS
from repro.engine.base import BATCH_ROWS, Operator, Row
from repro.engine.runtime import ResumeContext, Runtime
from repro.relational.expressions import compile_projection
from repro.relational.schema import Column, Schema

PHASE_PARTITION = "partition"
PHASE_EMIT = "emit"
PHASE_DONE = "done"


class HashGroupAggregate(Operator):
    """Grouping with one aggregate, implemented by hash partitioning."""

    STATEFUL = True

    def __init__(
        self,
        op_id: int,
        name: str,
        child: Operator,
        runtime: Runtime,
        group_columns: Sequence[int],
        agg_func: str,
        agg_column: int,
        num_partitions: int = 8,
    ):
        if agg_func not in AGG_FUNCS:
            raise ValueError(f"unsupported aggregate {agg_func!r}")
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        cols = tuple(
            child.schema.columns[i] for i in group_columns
        ) + (Column(f"{agg_func}_{child.schema.columns[agg_column].name}"),)
        schema = Schema(columns=cols, bytes_per_tuple=16 * len(cols))
        super().__init__(op_id, name, [child], runtime, schema)
        self.group_columns = tuple(group_columns)
        self.agg_func = agg_func
        self.agg_column = agg_column
        self.num_partitions = num_partitions
        self.phase = PHASE_PARTITION
        self.pending: list[list[Row]] = []
        self._disk_rows: list = []  # flushed rows, then sealed handles
        self.flushed_blocks: list[int] = []
        self.consumed = 0
        self.current_partition = -1
        self._groups: list[Row] = []
        self.emit_idx = 0

    @property
    def child(self) -> Operator:
        return self.children[0]

    @property
    def child_tpp(self) -> int:
        return self.child.schema.tuples_per_page(
            self.rt.disk.cost_model.page_bytes
        )

    def _do_open(self) -> None:
        k = self.num_partitions
        self.pending = [[] for _ in range(k)]
        self._disk_rows = [[] for _ in range(k)]
        self.flushed_blocks = [0] * k

    def _group_key(self, row: Row) -> tuple:
        return tuple(row[i] for i in self.group_columns)

    def _fold(self, value, row: Row):
        x = row[self.agg_column]
        if self.agg_func == "count":
            return (value or 0) + 1
        if value is None:
            return x
        if self.agg_func == "sum":
            return value + x
        if self.agg_func == "min":
            return min(value, x)
        return max(value, x)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _next_batch(self, max_rows: int) -> list:
        """Run the partition phase on the first call, then emit groups
        one slice per run.

        Emitting groups charges nothing but the per-row wrapper CPU
        tuple, so a whole run is one charge. Partition boundaries end a
        non-empty batch so the boundary checkpoint (and the partition
        load's I/O) happens at the start of the next call, with nothing
        emitted after it.
        """
        out: list = []
        if self.phase == PHASE_DONE:
            return out
        if self.phase == PHASE_PARTITION:
            self._run_partition_phase()
        need = max_rows
        while need > 0:
            avail = len(self._groups) - self.emit_idx
            if avail > 0:
                take = min(avail, need)
                out.extend(self._groups[self.emit_idx:self.emit_idx + take])
                self.emit_idx += take
                self.tuples_emitted += take
                self.charge_cpu(take)
                need -= take
                continue
            if out:
                break
            if not self._advance_partition():
                self.phase = PHASE_DONE
                break
        return out

    def _run_partition_phase(self) -> None:
        self._partition_input()
        self._end_partitioning()
        self.phase = PHASE_EMIT
        self.current_partition = -1
        self.make_checkpoint()  # materialization point

    def _partition_input(
        self,
        limit: Optional[int] = None,
        skip_blocks: Optional[list[int]] = None,
    ) -> None:
        """Hash the heap child's rows into partitions: to exhaustion, or
        (GoBack roll-forward) exactly ``limit`` more rows — the same
        shape as the hash join's phase 1
        (``SimpleHashJoin._partition_input``): flushes are data-dependent
        so each write is charged by the row that fills the block, and the
        consume charges settle once per batch."""
        key_fn = compile_projection(self.group_columns)
        pending = self.pending
        tpp = self.child_tpp
        k = self.num_partitions
        while limit is None or limit > 0:
            rows = self._drain(self.child, BATCH_ROWS if limit is None else limit)
            if not rows:
                if limit is None:
                    break
                raise ContractError(f"{self.name}: child exhausted during GoBack")
            for row in rows:
                p = hash(key_fn(row)) % k
                plist = pending[p]
                plist.append(row)
                if len(plist) >= tpp:
                    self._flush_block(p, skip_blocks)
            self.consumed += len(rows)
            if limit is not None:
                limit -= len(rows)
            self.charge_cpu(len(rows))

    def _flush_block(
        self, p: int, skip_blocks: Optional[list[int]] = None
    ) -> None:
        if not self.pending[p]:
            return
        if skip_blocks is None or skip_blocks[p] <= self.flushed_blocks[p]:
            with self.attribute_work():
                self.rt.disk.write_pages(1)
        # else: block already on disk from before the suspend (the
        # contract recorded the flushed counts) — skip the rewrite.
        self._disk_rows[p].extend(self.pending[p])
        self.pending[p] = []
        self.flushed_blocks[p] += 1

    def _end_partitioning(self) -> None:
        """Flush the partial blocks and seal the partitions: they stop
        growing here."""
        for p in range(self.num_partitions):
            self._flush_block(p)
        partitions.seal(self, "part", self._disk_rows, self.child_tpp)

    def _advance_partition(self) -> bool:
        next_p = self.current_partition + 1
        if next_p >= self.num_partitions:
            return False
        if self.current_partition >= 0:
            # Previous partition's groups discarded: minimal-heap-state
            # point.
            self._groups = []
            self.emit_idx = 0
            self.make_checkpoint()
        self.current_partition = next_p
        self._load_partition(next_p)
        return True

    def _load_partition(self, p: int) -> None:
        rows = partitions.rows_of(self, self._disk_rows[p])
        pages = math.ceil(len(rows) / self.child_tpp)
        with self.attribute_work():
            self.rt.disk.read_pages(pages)
        aggregates: dict = {}
        for row in rows:
            self.charge_cpu(1)
            key = self._group_key(row)
            aggregates[key] = self._fold(aggregates.get(key), row)
        self._groups = [key + (value,) for key, value in aggregates.items()]
        self.emit_idx = 0

    # ------------------------------------------------------------------
    # State introspection
    # ------------------------------------------------------------------
    def heap_tuples(self) -> int:
        if self.phase == PHASE_PARTITION:
            return sum(len(b) for b in self.pending)
        return len(self._groups)

    def heap_pages(self) -> int:
        tuples = self.heap_tuples()
        return math.ceil(tuples / self.child_tpp) if tuples else 0

    def control_state(self) -> dict:
        return {
            "phase": self.phase,
            "consumed": self.consumed,
            "flushed": list(self.flushed_blocks),
            "current_partition": self.current_partition,
            "emit_idx": self.emit_idx,
        }

    def _disk_state(self) -> dict:
        return {
            "disk_rows": partitions.snapshot(
                self._disk_rows, self.current_partition
            )
        }

    def _checkpoint_payload(self) -> dict:
        return {
            "phase": self.phase,
            "consumed": self.consumed,
            **self._disk_state(),
            "flushed": list(self.flushed_blocks),
            "current_partition": self.current_partition,
        }

    def _heap_state_payload(self):
        return {
            "pending": [list(b) for b in self.pending],
            "groups": list(self._groups),
        }

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _restore_heap_and_control(self, payload: dict, control: dict) -> None:
        self.phase = control["phase"]
        self.consumed = control["consumed"]
        self.flushed_blocks = list(control["flushed"])
        self.current_partition = control["current_partition"]
        self.pending = [list(b) for b in payload.get("pending", self.pending)]
        self._restore_disk(payload)
        self._groups = list(payload.get("groups", []))
        self.emit_idx = control["emit_idx"]

    def _restore_disk(self, state: dict) -> None:
        """Take over the partitions of a checkpoint or dump entry; row
        lists (a partition-phase snapshot, or an image from before
        partitions were payloads) are sealed unless partitioning
        resumes."""
        self._disk_rows = partitions.snapshot(
            state.get("disk_rows", self._disk_rows)
        )
        if self.phase != PHASE_PARTITION:
            partitions.seal(self, "part", self._disk_rows, self.child_tpp)

    def _resume_from_dump(self, entry: OpSuspendEntry, payload, ctx) -> None:
        self._restore_heap_and_control(payload or {}, entry.target_control)
        # The partition handles travel in the entry (``_disk_state``).
        self._restore_disk(entry.current_control or {})

    def _resume_goback(self, entry: OpSuspendEntry, ctx: ResumeContext) -> None:
        ckpt = entry.ckpt_payload or {}
        target = entry.target_control
        if ckpt.get("__full_state__"):
            control = dict(ckpt["control"])
            self._restore_heap_and_control(ckpt["heap"] or {}, control)
        else:
            self.phase = ckpt.get("phase", PHASE_PARTITION)
            self.consumed = ckpt.get("consumed", 0)
            self._restore_disk(ckpt)
            self.flushed_blocks = list(
                ckpt.get("flushed", [0] * self.num_partitions)
            )

        skip = list(target["flushed"])
        if target["phase"] == PHASE_PARTITION:
            self._partition_input(target["consumed"] - self.consumed, skip)
            self.phase = PHASE_PARTITION
            return
        # Target in the emit phase.
        if self.phase == PHASE_PARTITION:
            # Checkpoint predates the phase boundary: redo partitioning.
            self._partition_input(skip_blocks=skip)
            self._end_partitioning()
        self.phase = PHASE_EMIT
        self.current_partition = target["current_partition"]
        if self.current_partition >= 0:
            self._load_partition(self.current_partition)
            self.emit_idx = target["emit_idx"]
        else:
            self._groups = []
            self.emit_idx = 0
