"""Simple (Grace) hash join and hybrid hash join (Section 4).

Phase 1 ("partition") hashes both inputs into k partitions; in-memory
partition blocks are flushed to disk as they fill. The end of phase 1 is a
materialization point. Phase 2 ("join") loads one build partition into
memory at a time and streams the matching probe partition past it.

The probe runs as C-level passes over keys compiled once, at
construction: at the first batch after a load or a restore the loaded
partition gets a *hit index* — the positions of the probe rows whose key
is in the hash table, their match lists and running match counts — and
a batch bisects from the probe cursor into it and emits whole match
lists by comprehension. The index is derived state: never encoded, not
counted as heap state, dropped at the partition advance. Probe pages
are charged by arithmetic over the cursor's start and end (none when a
page holds one row), and the control state after a batch is the one a
probe of one row at a time leaves (``docs/PROTOCOL.md`` §8).

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
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, compress, repeat
from typing import Optional

from repro.engine.base import Operator, Row
from repro.engine.partitions import PartitionedInput
from repro.engine.runtime import ResumeContext, Runtime
from repro.relational.expressions import (
    EquiJoinCondition,
    compile_join_keys,
    compile_left_key,
    compile_right_key,
)

PHASE_PARTITION = "partition"
PHASE_JOIN = "join"
PHASE_DONE = "done"


class SimpleHashJoin(Operator):
    """Grace hash join with ``num_partitions`` disk partitions."""

    STATEFUL = True
    DISK_KEYS = ("build_disk", "probe_disk")

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
        self._build_key = compile_left_key(condition)
        self._probe_keys = compile_join_keys(
            condition.right_column, condition.modulus
        )
        self.num_partitions = num_partitions
        self.phase = PHASE_PARTITION
        page_bytes = runtime.disk.cost_model.page_bytes
        self.build = PartitionedInput(
            self, build, "build", self._build_key,
            build.schema.tuples_per_page(page_bytes),
            num_partitions, self.memory_partitions,
        )
        self.probe = PartitionedInput(
            self, probe, "probe", compile_right_key(condition),
            probe.schema.tuples_per_page(page_bytes),
            num_partitions, self.memory_partitions,
        )
        self.build_done = False
        self.current_partition = -1
        self._hash_table: dict = {}
        self._probe_rows: list[Row] = []
        self.probe_pos = 0
        self._emit_matches: Optional[list[Row]] = None
        self._emit_pos = 0
        self._emit_probe_row: Optional[Row] = None
        #: The loaded partition's hit index (:meth:`_index_partition`):
        #: derived state, built at the first batch after a load or a
        #: restore and dropped with the partition.
        self._hit_index: Optional[tuple] = None

    def _is_memory_partition(self, p: int) -> bool:
        return p < self.memory_partitions

    def _do_close(self) -> None:
        self.build = self.probe = None  # each points back at this operator

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_partition_phase(self) -> None:
        if not self.build_done:
            self.build.drain()
            self.build_done = True
        self.probe.drain()
        self._end_partitioning()
        self.current_partition = -1
        self.phase = PHASE_JOIN
        self.make_checkpoint()  # materialization point

    def _end_partitioning(self) -> None:
        self.build.end()
        self.probe.end()

    def _next_batch(self, max_rows: int) -> list:
        """Run the partition phase on the first call, then probe and emit
        in runs.

        Match charges and emit-wrapper charges accumulate in ``crun`` and
        settle, with ``tuples_emitted``, once before the batch returns
        (the join phase calls no one). Partition boundaries end the batch
        (when it is non-empty) so the boundary checkpoint is taken at the
        start of the next call, with nothing pending: every pending
        charge belongs to a row already in ``out``.
        """
        out: list = []
        if self.phase == PHASE_DONE:
            return out
        if self.phase == PHASE_PARTITION:
            self._run_partition_phase()
        need = max_rows
        crun = 0  # CPU charges not yet settled
        while need > 0:
            em = self._emit_matches
            if em is not None:
                pos = self._emit_pos
                take = min(len(em) - pos, need)
                if take > 0:
                    probe_row = self._emit_probe_row
                    out += [b + probe_row for b in em[pos:pos + take]]
                    self._emit_pos = pos + take
                    crun += take
                    need -= take
                    if need == 0:
                        break
                self._emit_matches = None
            if self.current_partition >= 0:
                need, charged = self._probe(out, need)
                crun += charged
                if need == 0:
                    break
            # Partition exhausted: the boundary checkpoint belongs to the
            # next call when this batch already produced rows.
            if out:
                break
            if not self._advance_partition():
                self.phase = PHASE_DONE
                break
        self.tuples_emitted += len(out)
        self.charge_cpu(crun)
        return out

    def _probe(self, out: list, need: int) -> tuple[int, int]:
        """Emit up to ``need`` rows of the loaded partition into ``out``
        from ``probe_pos`` on; return the rows still wanted (0 unless the
        partition ran out) and the CPU charges owed.

        The hit index gives the next probe row with matches by bisection
        and, through its running match counts, how many of the following
        hits fit whole; those are emitted in one comprehension, and at
        most one more hit is emitted in part. The control state is what
        a probe of one row at a time leaves: ``probe_pos`` one past the
        last probe row examined (the partition's end once it runs out),
        and the emit fields at the last hit emitted — still active when
        the request ended on it, left with ``_emit_pos`` at its end
        otherwise. Each hit costs one match charge plus one wrapper
        charge per row; probe pages are charged at the positions where
        the cursor steps onto a page (below).
        """
        if self._hit_index is None:
            self._hit_index = self._index_partition()
        hits, matches, ends = self._hit_index
        probe_rows = self._probe_rows
        start = self.probe_pos
        i = bisect_left(hits, start)
        # Hits i .. j-1 fit whole: j is the last running count <= target.
        j = bisect_right(ends, ends[i] + need, i) - 1
        out += [
            b + probe_row
            for ms, probe_row in zip(
                matches[i:j], map(probe_rows.__getitem__, hits[i:j])
            )
            for b in ms
        ]
        full = ends[j] - ends[i]
        need -= full
        crun = (j - i) + full
        end = len(probe_rows)
        if need and j < len(hits):
            # Hit j has more matches than the request has room for.
            ms, probe_row = matches[j], probe_rows[hits[j]]
            out += [b + probe_row for b in ms[:need]]
            crun += 1 + need
            self._emit_matches = ms
            self._emit_pos = need
            self._emit_probe_row = probe_row
            end = hits[j] + 1
            need = 0
        elif j > i:
            ms = matches[j - 1]
            self._emit_pos = len(ms)
            self._emit_probe_row = probe_rows[hits[j - 1]]
            if not need:
                self._emit_matches = ms
                end = hits[j - 1] + 1
        self.probe_pos = end
        # The probe rows stream from disk a page at a time: the row at
        # 1-based position q steps onto a new page when q % tpp == 1,
        # i.e. ceil(end / tpp) - ceil(start / tpp) pages for the rows in
        # (start, end] — and never when a page holds one row (q % 1 is
        # never 1).
        tpp = self.probe.tuples_per_page
        if tpp > 1 and not self._is_memory_partition(self.current_partition):
            pages = math.ceil(end / tpp) - math.ceil(start / tpp)
            if pages:
                with self.attribute_work():
                    self.rt.disk.read_pages(pages)
        return need, crun

    def _index_partition(self) -> tuple:
        """The loaded partition's hit index: the positions of the probe
        rows with matches, their match lists, and the running match
        count before each (one more entry, the total, at the end).

        Derived from the hash table and the probe rows by C-level passes
        over the probe keys, so never heap state: ``heap_tuples`` and the
        dumped payload do not see it and it is never encoded.
        """
        matches = list(
            map(
                self._hash_table.get,
                self._probe_keys(self._probe_rows),
                repeat(()),
            )
        )
        hits = list(compress(range(len(matches)), matches))
        hit_matches = list(compress(matches, matches))
        ends = list(accumulate(map(len, hit_matches), initial=0))
        return hits, hit_matches, ends

    def _advance_partition(self) -> bool:
        next_p = self.current_partition + 1
        if next_p >= self.num_partitions:
            return False
        if self.current_partition >= 0:
            # Current build partition discarded: minimal-heap-state point.
            self._hash_table = {}
            self._probe_rows = []
            self._hit_index = None
            self.make_checkpoint()
        self.current_partition = next_p
        self._load_partition(next_p)
        self.probe_pos = 0
        self._emit_matches = None
        return True

    def _load_partition(self, p: int) -> None:
        spilled = self.build.rows(p)
        if not self._is_memory_partition(p):
            pages = math.ceil(len(spilled) / self.build.tuples_per_page)
            with self.attribute_work():
                self.rt.disk.read_pages(pages)
        memory = self.build.pending[p]
        self._hash_table = self._build_table(chain(memory, spilled))
        self._hit_index = None
        self.charge_cpu(len(memory) + len(spilled))
        # Probe rows stream one block at a time (charged as consumed);
        # neither side of a memory partition was ever spilled.
        self._probe_rows = (
            self.probe.pending[p]
            if self._is_memory_partition(p)
            else self.probe.rows(p)
        )

    def _build_table(self, rows) -> dict:
        """The build partition's hash table: join key -> rows in arrival
        order, keys in order of first arrival.

        One key call per row, with the key compiled once: a key pass
        zipped with the rows measured slower here (the zip and the
        unpacking cost more than the call they save)."""
        key_of = self._build_key
        table: dict = {}
        for row in rows:
            table.setdefault(key_of(row), []).append(row)
        return table

    # ------------------------------------------------------------------
    # State introspection
    # ------------------------------------------------------------------
    def heap_tuples(self) -> int:
        if self.phase == PHASE_PARTITION:
            total = sum(len(b) for b in self.build.pending)
            total += sum(len(b) for b in self.probe.pending)
            return total
        total = sum(len(rows) for rows in self._hash_table.values())
        total += sum(
            len(self.build.pending[p])
            for p in range(self.memory_partitions)
            if p != self.current_partition
        )
        # Hybrid keeps the probe rows of memory partitions in memory too.
        total += sum(
            len(self.probe.pending[p]) for p in range(self.memory_partitions)
        )
        return total

    def heap_pages(self) -> int:
        tuples = self.heap_tuples()
        return math.ceil(tuples / self.build.tuples_per_page) if tuples else 0

    def control_state(self) -> dict:
        return {
            "phase": self.phase,
            "build_consumed": self.build.consumed,
            "probe_consumed": self.probe.consumed,
            "build_done": self.build_done,
            "build_flushed": list(self.build.flushed),
            "probe_flushed": list(self.probe.flushed),
            "current_partition": self.current_partition,
            "probe_pos": self.probe_pos,
            "emit_pos": getattr(self, "_emit_pos", 0),
            "emit_active": bool(getattr(self, "_emit_matches", None)),
            "emit_probe_row": getattr(self, "_emit_probe_row", None),
        }

    def _disk_state(self) -> dict:
        live = self.current_partition
        return {
            "build_disk": self.build.snapshot(live),
            "probe_disk": self.probe.snapshot(live),
        }

    def _checkpoint_payload(self) -> dict:
        mem = self.memory_partitions
        return {
            "phase": self.phase,
            "current_partition": self.current_partition,
            **self._disk_state(),
            # Heap state with no materialization point (Example 9): all
            # of it, finished or not, as the live operator counts it.
            "memory_rows": [list(b) for b in self.build.pending[:mem]],
            "memory_probe_rows": [list(b) for b in self.probe.pending[:mem]],
            "build_flushed": list(self.build.flushed),
            "probe_flushed": list(self.probe.flushed),
        }

    def _heap_state_payload(self):
        return {
            "build_pending": [list(b) for b in self.build.pending],
            "probe_pending": [list(b) for b in self.probe.pending],
            # One row block: the table's lists back to back, which
            # ``_build_table`` turns into the same table again.
            "hash_rows": list(chain.from_iterable(self._hash_table.values())),
            "probe_rows": list(self._probe_rows),
        }

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _restore_full_state(self, heap: dict, control: dict) -> None:
        """Restore complete state from a dump's or full-state
        checkpoint's heap (with the disk state beside it)."""
        build, probe = self.build, self.probe
        self.phase = control["phase"]
        build.consumed = control["build_consumed"]
        probe.consumed = control["probe_consumed"]
        self.build_done = control["build_done"]
        build.flushed = list(control["build_flushed"])
        probe.flushed = list(control["probe_flushed"])
        build.pending = [list(b) for b in heap.get("build_pending", build.pending)]
        probe.pending = [list(b) for b in heap.get("probe_pending", probe.pending)]
        self._restore_disk(heap)
        self.current_partition = control["current_partition"]
        if self.phase == PHASE_JOIN and self.current_partition >= 0:
            self._hash_table = self._build_table(heap.get("hash_rows", ()))
            self._probe_rows = list(heap.get("probe_rows", []))
            self._hit_index = None
            self._restore_probe_cursor(control)

    def _restore_disk(self, state: dict) -> None:
        """Take over the spilled partitions of a checkpoint or dump
        entry (sealed unless partitioning resumes)."""
        sealed = self.phase != PHASE_PARTITION
        self.build.restore(state.get("build_disk"), sealed)
        self.probe.restore(state.get("probe_disk"), sealed)

    def _restore_probe_cursor(self, control: dict) -> None:
        """Reposition inside the loaded partition: the probe cursor and,
        mid-emit, the match list of the probe row being emitted."""
        self.probe_pos = control["probe_pos"]
        if control["emit_active"]:
            probe_row = control["emit_probe_row"]
            key = self.condition.right_key(probe_row)
            self._emit_matches = self._hash_table.get(key, [])
            self._emit_probe_row = probe_row
            self._emit_pos = control["emit_pos"]

    def _restore_checkpoint(self, ckpt: dict) -> None:
        k = self.num_partitions
        self.phase = ckpt.get("phase", PHASE_PARTITION)
        self._restore_disk(ckpt)
        self.build.flushed = list(ckpt.get("build_flushed", [0] * k))
        self.probe.flushed = list(ckpt.get("probe_flushed", [0] * k))
        for p, rows in enumerate(ckpt.get("memory_rows", [])):
            self.build.pending[p] = list(rows)
        for p, rows in enumerate(ckpt.get("memory_probe_rows", [])):
            self.probe.pending[p] = list(rows)

    def _roll_forward(self, target: dict, entry, ctx: ResumeContext) -> None:
        if self.phase == PHASE_PARTITION:
            # Re-consume the children up to the target counts, re-hashing
            # rows. Blocks flushed *after* the checkpoint are rewritten
            # (redone work), except that the flushed-block counts the
            # contract recorded at signing let the operator skip the ones
            # it knows are already on disk — the paper's optimization.
            self.build.drain(
                target["build_consumed"] - self.build.consumed,
                target["build_flushed"],
            )
            self.probe.drain(
                target["probe_consumed"] - self.probe.consumed,
                target["probe_flushed"],
            )
            if target["phase"] != PHASE_PARTITION:
                # The restored state predates the phase boundary
                # (proactive checkpointing disabled, or a full-state
                # checkpoint taken while partitioning).
                self._end_partitioning()
        # A join-phase checkpoint does not carry the input counts.
        self.build.consumed = target["build_consumed"]
        self.probe.consumed = target["probe_consumed"]
        self.build_done = target["build_done"]
        if target["phase"] == PHASE_PARTITION:
            return
        # The partitions are on disk: roll-forward is just reloading the
        # current partition and skipping to the probe cursor.
        self.phase = PHASE_JOIN
        self.current_partition = target["current_partition"]
        if self.current_partition >= 0:
            self._load_partition(self.current_partition)
            self._restore_probe_cursor(target)


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
        if not 0 <= memory_partitions <= num_partitions:
            raise ValueError("memory_partitions out of range")
        self.memory_partitions = memory_partitions  # read by the base init
        super().__init__(
            op_id, name, build, probe, runtime, condition, num_partitions
        )
