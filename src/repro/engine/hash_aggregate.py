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
A load is one CPU charge: the group keys come from a C-level key pass
compiled once, at construction, and the fold is written out per
aggregate function, in arrival order (so float sums are bit-identical to
a row-at-a-time fold).
"""

from __future__ import annotations

import math
from collections import Counter
from operator import add, itemgetter
from typing import Sequence

from repro.engine.aggregate import AGG_FUNCS
from repro.engine.base import Operator, Row
from repro.engine.partitions import PartitionedInput
from repro.engine.runtime import ResumeContext, Runtime
from repro.relational.expressions import (
    compile_group_keys,
    compile_projection,
)
from repro.relational.schema import Column, Schema

PHASE_PARTITION = "partition"
PHASE_EMIT = "emit"
PHASE_DONE = "done"


class HashGroupAggregate(Operator):
    """Grouping with one aggregate, implemented by hash partitioning."""

    STATEFUL = True
    DISK_KEYS = ("disk_rows",)

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
        self._group_keys = compile_group_keys(self.group_columns)
        self.phase = PHASE_PARTITION
        self.input = PartitionedInput(
            self, child, "part", compile_projection(self.group_columns),
            child.schema.tuples_per_page(runtime.disk.cost_model.page_bytes),
            num_partitions,
        )
        self.current_partition = -1
        self._groups: list[Row] = []
        self.emit_idx = 0

    def _do_close(self) -> None:
        self.input = None  # it points back at this operator

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
        self.input.drain()
        self.input.end()
        self.phase = PHASE_EMIT
        self.current_partition = -1
        self.make_checkpoint()  # materialization point

    def _advance_partition(self) -> bool:
        next_p = self.current_partition + 1
        if next_p >= self.num_partitions:
            return False
        if self.current_partition >= 0:
            # Previous partition's groups discarded: minimal-heap-state
            # point. ``emit_idx`` stays past the last group, so a contract
            # migrated here rolls forward to the end of this partition,
            # not to its start.
            self._groups = []
            self.make_checkpoint()
        self.current_partition = next_p
        self._load_partition(next_p)
        return True

    def _load_partition(self, p: int) -> None:
        rows = self.input.rows(p)
        pages = math.ceil(len(rows) / self.input.tuples_per_page)
        with self.attribute_work():
            self.rt.disk.read_pages(pages)
        aggregates = self._aggregate(rows)
        self.charge_cpu(len(rows))
        self._groups = list(
            map(add, aggregates.keys(), zip(aggregates.values()))
        )
        self.emit_idx = 0

    def _aggregate(self, rows) -> dict:
        """Group key -> aggregate over ``rows``, keys in order of first
        arrival.

        The keys and values come from C-level passes; the fold is written
        out per function, in arrival order (so a float sum adds in the
        same order as a row-at-a-time fold). A group's first value — or
        any value that follows a ``None`` aggregate — starts it afresh,
        as in :func:`~repro.relational.expressions.compile_fold`.
        """
        keys = self._group_keys(rows)
        func = self.agg_func
        if func == "count":
            return Counter(keys)  # the same get(key, 0) + 1, in C
        values = map(itemgetter(self.agg_column), rows)
        aggregates: dict = {}
        get = aggregates.get
        if func == "sum":
            for key, value in zip(keys, values):
                cur = get(key)
                aggregates[key] = value if cur is None else cur + value
        elif func == "min":
            for key, value in zip(keys, values):
                cur = get(key)
                aggregates[key] = (
                    value if cur is None or value < cur else cur
                )
        else:  # max
            for key, value in zip(keys, values):
                cur = get(key)
                aggregates[key] = (
                    value if cur is None or value > cur else cur
                )
        return aggregates

    # ------------------------------------------------------------------
    # State introspection
    # ------------------------------------------------------------------
    def heap_tuples(self) -> int:
        if self.phase == PHASE_PARTITION:
            return sum(len(b) for b in self.input.pending)
        return len(self._groups)

    def heap_pages(self) -> int:
        tuples = self.heap_tuples()
        return math.ceil(tuples / self.input.tuples_per_page) if tuples else 0

    def control_state(self) -> dict:
        return {
            "phase": self.phase,
            "consumed": self.input.consumed,
            "flushed": list(self.input.flushed),
            "current_partition": self.current_partition,
            "emit_idx": self.emit_idx,
        }

    def _disk_state(self) -> dict:
        return {"disk_rows": self.input.snapshot(self.current_partition)}

    def _checkpoint_payload(self) -> dict:
        return {
            "phase": self.phase,
            "consumed": self.input.consumed,
            **self._disk_state(),
            "flushed": list(self.input.flushed),
            "current_partition": self.current_partition,
        }

    def _heap_state_payload(self):
        return {
            "pending": [list(b) for b in self.input.pending],
            "groups": list(self._groups),
        }

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _restore_full_state(self, heap: dict, control: dict) -> None:
        """Restore complete state from a dump's or full-state
        checkpoint's heap (with the disk state beside it).

        Groups belong to a loaded partition only: the first load takes no
        checkpoint, so a dump to a contract signed before it (partition
        -1) holds partition 0's groups."""
        self.phase = control["phase"]
        self.input.consumed = control["consumed"]
        self.input.flushed = list(control["flushed"])
        self.current_partition = control["current_partition"]
        self.input.pending = [
            list(b) for b in heap.get("pending", self.input.pending)
        ]
        self._restore_disk(heap)
        if self.current_partition >= 0:
            self._groups = list(heap.get("groups", []))
        self.emit_idx = control["emit_idx"]

    def _restore_checkpoint(self, ckpt: dict) -> None:
        self.phase = ckpt.get("phase", PHASE_PARTITION)
        self.input.consumed = ckpt.get("consumed", 0)
        self.input.flushed = list(
            ckpt.get("flushed", [0] * self.num_partitions)
        )
        self._restore_disk(ckpt)

    def _restore_disk(self, state: dict) -> None:
        """Take over the spilled partitions of a checkpoint or dump
        entry (sealed unless partitioning resumes)."""
        self.input.restore(
            state.get("disk_rows"), sealed=self.phase != PHASE_PARTITION
        )

    def _roll_forward(self, target: dict, entry, ctx: ResumeContext) -> None:
        skip = target["flushed"]
        if target["phase"] == PHASE_PARTITION:
            self.input.drain(target["consumed"] - self.input.consumed, skip)
            return
        if self.phase == PHASE_PARTITION:
            # The restored state predates the phase boundary: redo the
            # partitioning.
            self.input.drain(skip_blocks=skip)
            self.input.end()
        self.phase = PHASE_EMIT
        self.current_partition = target["current_partition"]
        if self.current_partition >= 0:
            self._load_partition(self.current_partition)
            self.emit_idx = target["emit_idx"]
        else:
            self._groups = []
            self.emit_idx = 0
