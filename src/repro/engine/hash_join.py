"""Simple (Grace) hash join and hybrid hash join (Section 4).

Phase 1 ("partition") hashes both inputs into k partitions; in-memory
partition blocks are flushed to disk as they fill. The end of phase 1 is a
materialization point. Phase 2 ("join") loads one build partition into
memory at a time and streams the matching probe partition past it.

Checkpoint behaviour, following the paper:

- one proactive checkpoint at the very start (before reading any child)
  — during partitioning "different blocks become empty at different
  times", so there are no usable minimal-heap-state points mid-phase;
- contracts signed during phase 1 record, as an optimization, the number
  of blocks each partition has already flushed, so a GoBack can skip
  re-writing those blocks while re-hashing;
- a proactive checkpoint at the phase boundary and at every partition
  boundary in phase 2 (the current build partition is the heap state and
  it empties between partitions), so GoBack in phase 2 just reloads the
  current partition from disk;
- at the phase boundary the spilled partitions become state-store
  payloads (:mod:`repro.engine.partitions`): a join-phase checkpoint or
  dump entry carries their handles, from the current partition on — the
  join never returns to a finished one — so a suspend image writes each
  partition once and a resume decodes only the ones it reads;
- hybrid hash join keeps the first ``memory_partitions`` build partitions
  entirely in memory; those have no materialization point, making both
  suspend strategies expensive for them — exactly the weakness Example 9
  exploits when comparing HHJ against SMJ under suspends.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Optional

from repro.common.errors import ContractError
from repro.core.suspended_query import OpSuspendEntry
from repro.engine import partitions
from repro.engine.base import BATCH_ROWS, Operator, Row
from repro.engine.runtime import ResumeContext, Runtime
from repro.relational.expressions import (
    EquiJoinCondition,
    compile_left_key,
    compile_right_key,
)

PHASE_PARTITION = "partition"
PHASE_JOIN = "join"
PHASE_DONE = "done"


class SimpleHashJoin(Operator):
    """Grace hash join with ``num_partitions`` disk partitions."""

    STATEFUL = True

    #: Build partitions kept fully in memory (0 for simple/Grace hash).
    memory_partitions = 0

    def __init__(
        self,
        op_id: int,
        name: str,
        build: Operator,
        probe: Operator,
        runtime: Runtime,
        condition: EquiJoinCondition,
        num_partitions: int = 8,
    ):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        super().__init__(
            op_id, name, [build, probe], runtime, build.schema.concat(probe.schema)
        )
        self.condition = condition
        self.num_partitions = num_partitions
        self.phase = PHASE_PARTITION
        # Per-partition in-memory rows not yet flushed (or, for memory
        # partitions of the hybrid variant, all rows).
        self.build_pending: list[list[Row]] = []
        self.probe_pending: list[list[Row]] = []
        # Per-partition spilled state: while partitioning, the flushed
        # rows (built up incrementally; writes are charged per block as
        # they fill); in the join phase, the handle of the payload each
        # non-empty partition was sealed as.
        self._build_disk: list = []
        self._probe_disk: list = []
        self.build_flushed_blocks: list[int] = []
        self.probe_flushed_blocks: list[int] = []
        self.build_consumed = 0
        self.probe_consumed = 0
        self.build_done = False
        self.current_partition = -1
        self._hash_table: dict = {}
        self._probe_rows: list[Row] = []
        self.probe_pos = 0
        self._emit_matches: Optional[list[Row]] = None
        self._emit_pos = 0
        self._emit_probe_row: Optional[Row] = None

    @property
    def build_child(self) -> Operator:
        return self.children[0]

    @property
    def probe_child(self) -> Operator:
        return self.children[1]

    @property
    def build_tpp(self) -> int:
        return self.build_child.schema.tuples_per_page(
            self.rt.disk.cost_model.page_bytes
        )

    @property
    def probe_tpp(self) -> int:
        return self.probe_child.schema.tuples_per_page(
            self.rt.disk.cost_model.page_bytes
        )

    def _do_open(self) -> None:
        k = self.num_partitions
        self.build_pending = [[] for _ in range(k)]
        self.probe_pending = [[] for _ in range(k)]
        self._build_disk = [[] for _ in range(k)]
        self._probe_disk = [[] for _ in range(k)]
        self.build_flushed_blocks = [0] * k
        self.probe_flushed_blocks = [0] * k

    def _is_memory_partition(self, p: int) -> bool:
        return p < self.memory_partitions

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_partition_phase(self) -> None:
        if not self.build_done:
            self._partition_input(build_side=True)
            self.build_done = True
        self._partition_input(build_side=False)
        self._end_partitioning()
        self.current_partition = -1
        self.phase = PHASE_JOIN
        self.make_checkpoint()  # materialization point

    def _end_partitioning(self) -> None:
        """Flush the partial blocks and seal the partitions: they stop
        growing here."""
        for p in range(self.memory_partitions, self.num_partitions):
            self._flush_block(p, build_side=True)
            self._flush_block(p, build_side=False)
        partitions.seal(self, "build", self._build_disk, self.build_tpp)
        partitions.seal(self, "probe", self._probe_disk, self.probe_tpp)

    def _partition_input(
        self,
        build_side: bool,
        limit: Optional[int] = None,
        skip_blocks: Optional[list[int]] = None,
    ) -> None:
        """Hash one input's rows into partitions: to exhaustion, or
        (GoBack roll-forward) exactly ``limit`` more rows.

        Both inputs are heap children and phase 1 has no checkpoint
        point of its own, so the drain asks for whole batches. Block
        flushes are data-dependent, so each write is charged by the row
        that fills the block; this operator's consume charges settle once
        per batch. ``skip_blocks`` is the roll-forward's per-partition
        count of blocks already on disk (see :meth:`_flush_block`).
        """
        child = self.build_child if build_side else self.probe_child
        cond = self.condition
        key_fn = compile_left_key(cond) if build_side else compile_right_key(cond)
        pending = self.build_pending if build_side else self.probe_pending
        tpp = self.build_tpp if build_side else self.probe_tpp
        k = self.num_partitions
        mem_k = self.memory_partitions
        while limit is None or limit > 0:
            rows = self._drain(child, BATCH_ROWS if limit is None else limit)
            if not rows:
                if limit is None:
                    break
                side = "build" if build_side else "probe"
                raise ContractError(f"{self.name}: {side} child exhausted early")
            for row in rows:
                p = hash(key_fn(row)) % k
                plist = pending[p]
                plist.append(row)
                # Hybrid: neither side of a memory partition spills —
                # that is the I/O saving hybrid hash buys by giving up
                # the materialization point.
                if p >= mem_k and len(plist) >= tpp:
                    self._flush_block(p, build_side, skip_blocks)
            if build_side:
                self.build_consumed += len(rows)
            else:
                self.probe_consumed += len(rows)
            if limit is not None:
                limit -= len(rows)
            self.charge_cpu(len(rows))

    def _flush_block(
        self,
        p: int,
        build_side: bool,
        skip_blocks: Optional[list[int]] = None,
    ) -> None:
        pending = self.build_pending if build_side else self.probe_pending
        disk = self._build_disk if build_side else self._probe_disk
        flushed = (
            self.build_flushed_blocks if build_side else self.probe_flushed_blocks
        )
        if not pending[p]:
            return
        if skip_blocks is None or skip_blocks[p] <= flushed[p]:
            with self.attribute_work():
                self.rt.disk.write_pages(1)
        # else: block already on disk from before the suspend — skip the
        # rewrite, keep only the bookkeeping.
        disk[p].extend(pending[p])
        pending[p] = []
        flushed[p] += 1

    def _next_batch(self, max_rows: int) -> list:
        """Run the partition phase on the first call, then probe and emit
        in runs.

        Match charges and emit-wrapper charges accumulate in ``crun`` and
        settle once before the batch returns (the join phase calls no
        one). Partition boundaries end the batch (when it is non-empty)
        so the boundary checkpoint is taken at the start of the next
        call, with nothing pending: every pending charge belongs to a row
        already in ``out``.
        """
        out: list = []
        if self.phase == PHASE_DONE:
            return out
        if self.phase == PHASE_PARTITION:
            self._run_partition_phase()
        disk = self.rt.disk
        right_key = compile_right_key(self.condition)
        need = max_rows
        crun = 0  # CPU charges not yet settled
        while need > 0:
            em = self._emit_matches
            if em is not None:
                pos = self._emit_pos
                avail = len(em) - pos
                if avail > 0:
                    take = min(avail, need)
                    probe_row = self._emit_probe_row
                    out.extend([b + probe_row for b in em[pos:pos + take]])
                    self._emit_pos = pos + take
                    self.tuples_emitted += take
                    crun += take
                    need -= take
                    if need == 0:
                        break
                self._emit_matches = None
            found = False
            if self.current_partition >= 0:
                probe_rows = self._probe_rows
                n_probe = len(probe_rows)
                pos = self.probe_pos
                ht_get = self._hash_table.get
                mem = self._is_memory_partition(self.current_partition)
                tpp = self.probe_tpp
                while pos < n_probe:
                    probe_row = probe_rows[pos]
                    pos += 1
                    if not mem and pos % tpp == 1:
                        with self.attribute_work():
                            disk.read_pages(1)
                    matches = ht_get(right_key(probe_row))
                    if matches:
                        crun += 1  # the match charge
                        self._emit_matches = matches
                        self._emit_pos = 0
                        self._emit_probe_row = probe_row
                        found = True
                        break
                self.probe_pos = pos
            if found:
                continue
            # Partition exhausted: the boundary checkpoint belongs to the
            # next call when this batch already produced rows.
            if out:
                break
            if not self._advance_partition():
                self.phase = PHASE_DONE
                break
        self.charge_cpu(crun)
        return out

    def _advance_partition(self) -> bool:
        next_p = self.current_partition + 1
        if next_p >= self.num_partitions:
            return False
        if self.current_partition >= 0:
            # Current build partition discarded: minimal-heap-state point.
            self._hash_table = {}
            self._probe_rows = []
            self.make_checkpoint()
        self.current_partition = next_p
        self._load_partition(next_p)
        self.probe_pos = 0
        self._emit_matches = None
        return True

    def _load_partition(self, p: int) -> None:
        spilled = partitions.rows_of(self, self._build_disk[p])
        if not self._is_memory_partition(p):
            pages = math.ceil(len(spilled) / self.build_tpp)
            with self.attribute_work():
                self.rt.disk.read_pages(pages)
        self._hash_table = {}
        for row in chain(self.build_pending[p], spilled):
            self.charge_cpu(1)
            key = self.condition.left_key(row)
            self._hash_table.setdefault(key, []).append(row)
        # Probe rows stream one block at a time (charged as consumed);
        # neither side of a memory partition was ever spilled.
        self._probe_rows = (
            self.probe_pending[p]
            if self._is_memory_partition(p)
            else partitions.rows_of(self, self._probe_disk[p])
        )

    # ------------------------------------------------------------------
    # State introspection
    # ------------------------------------------------------------------
    def heap_tuples(self) -> int:
        if self.phase == PHASE_PARTITION:
            total = sum(len(b) for b in self.build_pending)
            total += sum(len(b) for b in self.probe_pending)
            return total
        total = sum(len(rows) for rows in self._hash_table.values())
        total += sum(
            len(self.build_pending[p])
            for p in range(self.memory_partitions)
            if p != self.current_partition
        )
        # Hybrid keeps the probe rows of memory partitions in memory too.
        total += sum(
            len(self.probe_pending[p]) for p in range(self.memory_partitions)
        )
        return total

    def heap_pages(self) -> int:
        tuples = self.heap_tuples()
        return math.ceil(tuples / self.build_tpp) if tuples else 0

    def control_state(self) -> dict:
        return {
            "phase": self.phase,
            "build_consumed": self.build_consumed,
            "probe_consumed": self.probe_consumed,
            "build_done": self.build_done,
            "build_flushed": list(self.build_flushed_blocks),
            "probe_flushed": list(self.probe_flushed_blocks),
            "current_partition": self.current_partition,
            "probe_pos": self.probe_pos,
            "emit_pos": getattr(self, "_emit_pos", 0),
            "emit_active": bool(getattr(self, "_emit_matches", None)),
            "emit_probe_row": getattr(self, "_emit_probe_row", None),
        }

    def _disk_state(self) -> dict:
        live = self.current_partition
        return {
            "build_disk": partitions.snapshot(self._build_disk, live),
            "probe_disk": partitions.snapshot(self._probe_disk, live),
        }

    def _checkpoint_payload(self) -> dict:
        mem = self.memory_partitions
        return {
            "phase": self.phase,
            "current_partition": self.current_partition,
            **self._disk_state(),
            # Heap state with no materialization point (Example 9): all
            # of it, finished or not, as the live operator counts it.
            "memory_rows": [list(b) for b in self.build_pending[:mem]],
            "memory_probe_rows": [list(b) for b in self.probe_pending[:mem]],
            "build_flushed": list(self.build_flushed_blocks),
            "probe_flushed": list(self.probe_flushed_blocks),
        }

    def _heap_state_payload(self):
        return {
            "build_pending": [list(b) for b in self.build_pending],
            "probe_pending": [list(b) for b in self.probe_pending],
            "hash_rows": {
                k: list(v) for k, v in self._hash_table.items()
            },
            "probe_rows": list(self._probe_rows),
        }

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _resume_from_dump(self, entry: OpSuspendEntry, payload, ctx) -> None:
        self._restore_heap_and_control(payload or {}, entry.target_control)
        # The partition handles travel in the entry (``_disk_state``).
        self._restore_disk(entry.current_control or {})

    def _restore_heap_and_control(self, payload: dict, control: dict) -> None:
        """Restore complete state from a dump's or full-state
        checkpoint's heap (and, in a checkpoint or an image from before
        partitions were payloads, the disk state beside it)."""
        self.phase = control["phase"]
        self.build_consumed = control["build_consumed"]
        self.probe_consumed = control["probe_consumed"]
        self.build_done = control["build_done"]
        self.build_flushed_blocks = list(control["build_flushed"])
        self.probe_flushed_blocks = list(control["probe_flushed"])
        self.build_pending = [
            list(b) for b in payload.get("build_pending", self.build_pending)
        ]
        self.probe_pending = [
            list(b) for b in payload.get("probe_pending", self.probe_pending)
        ]
        self._restore_disk(payload)
        self.current_partition = control["current_partition"]
        if self.phase == PHASE_JOIN and self.current_partition >= 0:
            self._hash_table = {}
            for key, rows in payload.get("hash_rows", {}).items():
                self._hash_table[key] = list(rows)
            self._probe_rows = list(payload.get("probe_rows", []))
            self.probe_pos = control["probe_pos"]
            if control["emit_active"]:
                probe_row = control["emit_probe_row"]
                key = self.condition.right_key(probe_row)
                self._emit_matches = self._hash_table.get(key, [])
                self._emit_probe_row = probe_row
                self._emit_pos = control["emit_pos"]

    def _restore_disk(self, state: dict) -> None:
        """Take over the spilled partitions of a checkpoint or dump
        entry. Row lists — a partition-phase snapshot, or a join-phase
        image from before partitions were payloads — are sealed unless
        partitioning resumes."""
        self._build_disk = partitions.snapshot(
            state.get("build_disk", self._build_disk)
        )
        self._probe_disk = partitions.snapshot(
            state.get("probe_disk", self._probe_disk)
        )
        if self.phase != PHASE_PARTITION:
            partitions.seal(self, "build", self._build_disk, self.build_tpp)
            partitions.seal(self, "probe", self._probe_disk, self.probe_tpp)

    def _resume_goback(self, entry: OpSuspendEntry, ctx: ResumeContext) -> None:
        ckpt = entry.ckpt_payload or {}
        target = entry.target_control
        if ckpt.get("__full_state__"):
            heap = ckpt["heap"] or {}
            control = ckpt["control"]
            self._restore_heap_and_control(heap, control)
        else:
            self.phase = ckpt.get("phase", PHASE_PARTITION)
            self._restore_disk(ckpt)
            self.build_flushed_blocks = list(
                ckpt.get("build_flushed", [0] * self.num_partitions)
            )
            self.probe_flushed_blocks = list(
                ckpt.get("probe_flushed", [0] * self.num_partitions)
            )
            for p, rows in enumerate(ckpt.get("memory_rows", [])):
                self.build_pending[p] = list(rows)
            for p, rows in enumerate(ckpt.get("memory_probe_rows", [])):
                self.probe_pending[p] = list(rows)

        if target["phase"] == PHASE_PARTITION:
            self._roll_forward_partitioning(target)
            return
        # Target in the join phase. If the checkpoint predates the phase
        # boundary (proactive checkpointing disabled), the partitioning
        # must be redone first; otherwise the partitions are on disk and
        # roll-forward is just reloading the current partition and
        # skipping to the probe cursor.
        if ckpt.get("phase", PHASE_PARTITION) == PHASE_PARTITION:
            self._roll_forward_partitioning(target)
            self._end_partitioning()
        self.build_consumed = target["build_consumed"]
        self.probe_consumed = target["probe_consumed"]
        self.build_done = target["build_done"]
        self.phase = PHASE_JOIN
        self.current_partition = target["current_partition"]
        if self.current_partition >= 0:
            self._load_partition(self.current_partition)
            self.probe_pos = target["probe_pos"]
            if target["emit_active"]:
                probe_row = target["emit_probe_row"]
                key = self.condition.right_key(probe_row)
                self._emit_matches = self._hash_table.get(key, [])
                self._emit_probe_row = probe_row
                self._emit_pos = target["emit_pos"]

    def _roll_forward_partitioning(self, target: dict) -> None:
        """Re-consume children up to the target counts, re-hashing rows.

        Blocks that were already flushed before the checkpoint live in the
        checkpoint's disk payload; blocks flushed *after* it are rewritten
        (their writes are redone work), except that the flushed-block
        counts recorded in the contract let the operator skip rewriting
        blocks it knows are already on disk — the paper's optimization.
        """
        # The contract recorded the flushed-block counts at signing time —
        # those blocks are already on disk and their rewrites are skipped.
        skip_build = list(target.get("build_flushed", [0] * self.num_partitions))
        skip_probe = list(target.get("probe_flushed", [0] * self.num_partitions))
        self._partition_input(
            True, target["build_consumed"] - self.build_consumed, skip_build
        )
        self.build_done = target["build_done"]
        self._partition_input(
            False, target["probe_consumed"] - self.probe_consumed, skip_probe
        )


class HybridHashJoin(SimpleHashJoin):
    """Hybrid hash join: the first partitions of the build side stay in
    memory, trading materialization (and hence cheap suspend) for I/O."""

    def __init__(
        self,
        op_id: int,
        name: str,
        build: Operator,
        probe: Operator,
        runtime: Runtime,
        condition: EquiJoinCondition,
        num_partitions: int = 8,
        memory_partitions: int = 2,
    ):
        super().__init__(
            op_id, name, build, probe, runtime, condition, num_partitions
        )
        if not 0 <= memory_partitions <= num_partitions:
            raise ValueError("memory_partitions out of range")
        self.memory_partitions = memory_partitions
