"""Two-phase (external) merge sort (Section 4).

Phase 1 ("build") repeatedly fills an in-memory sort buffer from the
child, sorts it, and writes the sorted run to disk as a *sublist*. The
sublists are disk-resident state: written once, never modified — the
paper's *materialization point* — so they survive suspend/resume and only
their handles travel in checkpoints and control state.

Phase 2 ("merge") streams the minimum-head tuple across one buffered
block per sublist, through a heap of ``(key, sublist index, row)``
heads. Equal keys leave the lowest sublist first. The key is one C-level
``operator.itemgetter`` over ``key_columns`` (a scalar for one column),
the function the build's run sort uses too. Page reads are charged by
the peek that first lands a sublist's cursor on a page: each batch
peeks every sublist first (a cursor reseeked by a resume or rewind pays
there), then re-peeks only the sublist that just gave up a row, and only
while the batch wants another. So a page crossed by a batch's last row
is charged at the start of the next batch.

Checkpoint behaviour:

- proactive checkpoints at every sublist boundary (buffer empty) and at
  the phase boundary;
- the operator produces no output during phase 1, so contract migration
  (Section 3.4 — "crucial" for sort, per the paper) keeps the parent's
  contract pinned to the latest checkpoint, meaning a GoBack never redoes
  more than the current partial buffer fill;
- during phase 2 the sort behaves like a table scan: suspend records the
  merge cursors; GoBack repositions them directly (skipping, no
  re-merging).
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heapreplace
from operator import itemgetter
from typing import Optional, Sequence

from repro.common.errors import ContractError
from repro.engine.base import Operator, Row
from repro.engine.runtime import ResumeContext, Runtime
from repro.storage.statefile import DumpHandle

PHASE_BUILD = "build"
PHASE_MERGE = "merge"


class SublistReader:
    """Cursor over one sorted sublist with per-block read charging."""

    def __init__(self, op: Operator, handle: DumpHandle, tuples_per_page: int):
        self._op = op
        self.handle = handle
        self.tuples_per_page = tuples_per_page
        self.index = 0
        self._rows: Optional[list] = None
        self._loaded_page = -1

    def seek(self, index: int) -> None:
        self.index = index
        self._loaded_page = -1

    def peek(self) -> Optional[Row]:
        if self._rows is None:
            # The payload object is fetched once; page charges are applied
            # per block as the cursor crosses page boundaries.
            self._rows = self._op.rt.store.peek(self.handle)
        if self.index >= len(self._rows):
            return None
        page = self.index // self.tuples_per_page
        if page != self._loaded_page:
            with self._op.attribute_work():
                self._op.rt.disk.read_pages(1)
            self._loaded_page = page
        return self._rows[self.index]


class TwoPhaseMergeSort(Operator):
    """External sort over ``key_columns`` with a bounded sort buffer."""

    STATEFUL = True
    REWINDABLE = True  # merge phase can restart from the sublist heads

    def __init__(
        self,
        op_id: int,
        name: str,
        child: Operator,
        runtime: Runtime,
        key_columns: Sequence[int],
        buffer_tuples: int,
    ):
        if buffer_tuples <= 0:
            raise ValueError("buffer_tuples must be positive")
        if not key_columns:
            raise ValueError("key_columns must name at least one column")
        super().__init__(op_id, name, [child], runtime, child.schema)
        self.key_columns = tuple(key_columns)
        self._key = itemgetter(*self.key_columns)
        self.buffer_tuples = buffer_tuples
        self.phase = PHASE_BUILD
        self.sort_buffer: list[Row] = []
        self.sublists: list[DumpHandle] = []
        self.child_exhausted = False
        self._readers: list[SublistReader] = []

    @property
    def child(self) -> Operator:
        return self.children[0]

    def buffer_fill(self) -> int:
        """Tuples in the sort buffer (suspend-trigger hook)."""
        return len(self.sort_buffer)

    @property
    def tuples_per_page(self) -> int:
        return self.schema.tuples_per_page(self.rt.disk.cost_model.page_bytes)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_build(self) -> None:
        while not self.child_exhausted:
            self._refill_buffer(self.buffer_tuples)
            if self.sort_buffer:
                self._spill_sublist()
                # Buffer empty: minimal-heap-state point.
                self.make_checkpoint()
        self._enter_merge_phase()

    def _spill_sublist(self) -> None:
        rows = sorted(self.sort_buffer, key=self._key)
        self.charge_cpu(len(rows))  # in-memory sorting work
        key = self.rt.store.fresh_key(f"{self.name}_sublist")
        with self.attribute_work():
            handle = self.rt.store.dump_tuples(key, rows, self.tuples_per_page)
        self.sublists.append(handle)
        self.sort_buffer = []

    def _enter_merge_phase(self) -> None:
        self.phase = PHASE_MERGE
        self._init_readers([0] * len(self.sublists))
        # The phase boundary is itself a minimal-heap-state point (all
        # state is on disk) and a materialization point. Readers are
        # initialized first so migrated contracts record valid positions.
        self.make_checkpoint()

    def _init_readers(self, positions: Sequence[int]) -> None:
        self._readers = [
            SublistReader(self, handle, self.tuples_per_page)
            for handle in self.sublists
        ]
        for reader, pos in zip(self._readers, positions):
            reader.seek(pos)

    def _next_batch(self, max_rows: int) -> list:
        """Run the build on the first call, then drain the merge through
        the heap of sublist heads: only the sublist just advanced is
        re-peeked, and only when another row is still wanted.

        A re-peek that crosses a sublist page boundary charges its page
        read to the row that triggers it; the merge and wrapper charges
        settle once, before the batch returns (the merge phase calls no
        one).
        """
        if self.phase == PHASE_BUILD:
            self._run_build()
        readers = self._readers
        key = self._key
        heap = []
        for i, reader in enumerate(readers):
            row = reader.peek()  # may load the payload or charge a page read
            if row is not None:
                heap.append((key(row), i, row))
        heapify(heap)
        tpp = self.tuples_per_page
        out: list = []
        append = out.append
        need = max_rows
        while need > 0 and heap:
            _, i, row = heap[0]
            append(row)
            reader = readers[i]
            reader.index = index = reader.index + 1
            need -= 1
            if not need:
                break
            rows = reader._rows
            if index >= len(rows):
                heappop(heap)
                continue
            if index // tpp != reader._loaded_page:
                reader.peek()  # charges the page read
            row = rows[index]
            heapreplace(heap, (key(row), i, row))
        self.tuples_emitted += len(out)
        self.charge_cpu(2 * len(out))  # the merge charge + the wrapper charge
        return out

    def _do_close(self) -> None:
        self._readers = []  # each points back at this operator

    def rewind(self) -> None:
        if self.phase == PHASE_BUILD:
            # Nothing has been emitted yet (the build runs on first
            # next()); restarting the output pass is a no-op.
            return
        self._init_readers([0] * len(self.sublists))

    # ------------------------------------------------------------------
    # State introspection
    # ------------------------------------------------------------------
    def heap_tuples(self) -> int:
        return len(self.sort_buffer)

    def heap_pages(self) -> int:
        if self.phase == PHASE_BUILD and self.sort_buffer:
            return math.ceil(len(self.sort_buffer) / self.tuples_per_page)
        return 0  # merge-phase blocks are re-read from the sublists

    def control_state(self) -> dict:
        if self.phase == PHASE_BUILD:
            return {
                "phase": PHASE_BUILD,
                "fill": len(self.sort_buffer),
                "num_sublists": len(self.sublists),
                "sublists": list(self.sublists),
                "child_exhausted": self.child_exhausted,
            }
        return {
            "phase": PHASE_MERGE,
            "sublists": list(self.sublists),
            "positions": [r.index for r in self._readers],
        }

    def _checkpoint_payload(self) -> dict:
        return {
            "phase": self.phase,
            "sublists": list(self.sublists),
            "child_exhausted": self.child_exhausted,
        }

    def _heap_state_payload(self):
        if self.phase == PHASE_BUILD:
            return list(self.sort_buffer)
        return None

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _restore_checkpoint(self, ckpt: dict) -> None:
        self.sublists = list(ckpt.get("sublists", []))
        self.child_exhausted = ckpt.get("child_exhausted", False)
        self.sort_buffer = []
        self.phase = PHASE_BUILD

    def _restore_full_state(self, heap, control: dict) -> None:
        self.sort_buffer = list(heap or [])
        self.sublists = list(control["sublists"])
        self.phase = control["phase"]
        self.child_exhausted = control.get(
            "child_exhausted", self.phase == PHASE_MERGE
        )
        if self.phase == PHASE_MERGE:
            self._init_readers(control["positions"])

    def _roll_forward(self, target: dict, entry, ctx: ResumeContext) -> None:
        if self.phase == PHASE_MERGE:
            # Full-state checkpoint taken in the merge phase: only the
            # cursors move between checkpoint and target.
            self._init_readers(target["positions"])
            return
        if target["phase"] == PHASE_BUILD:
            # Roll forward: regenerate any sublists created after the
            # checkpoint (their old disk copies are orphaned), then refill
            # the partial buffer. The child was repositioned by its entry.
            while len(self.sublists) < target["num_sublists"]:
                self._refill_buffer(self.buffer_tuples)
                if not self.sort_buffer:
                    raise ContractError(
                        f"{self.name}: child exhausted while regenerating "
                        f"sublist {len(self.sublists) + 1} of "
                        f"{target['num_sublists']}"
                    )
                self._spill_sublist()
            self._refill_buffer(target["fill"])
            self.child_exhausted = target["child_exhausted"]
        else:
            # Target is in the merge phase. With contract migration the
            # fulfilling checkpoint is the phase boundary, so this loop is
            # a no-op and resume just repositions the merge cursors
            # (skipping); without migration the whole build is redone.
            while not self.child_exhausted:
                self._refill_buffer(self.buffer_tuples)
                if self.sort_buffer:
                    self._spill_sublist()
            if len(self.sublists) != len(target["positions"]):
                raise ContractError(
                    f"{self.name}: rebuilt {len(self.sublists)} sublists but "
                    f"the target records {len(target['positions'])}"
                )
            self.phase = PHASE_MERGE
            self._init_readers(target["positions"])

    def _refill_buffer(self, up_to: int) -> None:
        """Pull the heap child until the buffer holds ``up_to`` rows: the
        room left before the next spill (a checkpoint point) or the
        roll-forward target."""
        buffer = self.sort_buffer
        while len(buffer) < up_to and not self.child_exhausted:
            rows = self._drain(self.child, up_to - len(buffer))
            if not rows:
                self.child_exhausted = True
                break
            buffer.extend(rows)
            self.charge_cpu(len(rows))

    # ------------------------------------------------------------------
    # Cost hints
    # ------------------------------------------------------------------
    def estimate_dump_resume_cost(self) -> float:
        if self.phase == PHASE_BUILD:
            return self.rt.disk.cost_of_page_reads(max(1, self.heap_pages()))
        # Merge phase: re-read one block per sublist to reposition.
        return self.rt.disk.cost_of_page_reads(max(1, len(self.sublists)))

    def estimate_goback_resume_cost(self, link) -> float:
        target = link.target_control
        if target is not None and target.get("phase") == PHASE_MERGE:
            ckpt = link.ckpt_payload or {}
            if ckpt.get("child_exhausted", False) or ckpt.get(
                "phase"
            ) == PHASE_MERGE:
                # Repositioning merge cursors only: one block per sublist.
                return self.rt.disk.cost_of_page_reads(
                    max(1, len(target["positions"]))
                )
        return super().estimate_goback_resume_cost(link)
