"""Block-based nested loop join (the paper's running example).

Each outer-loop iteration fills a large in-memory *outer buffer* from the
outer (left) child, then rewinds the inner (right) child and joins every
inner tuple against the buffer. The buffer is the heap state; the control
state is the fill count, the buffer cursor, and the current inner tuple
(Section 2). The join condition is an equality, so an inner tuple finds
its matches by key in a per-pass index of the buffer instead of comparing
with every buffered tuple; the index is derived state, never dumped, and
the cursor and inner tuple move exactly as the nested scan moves them.

Checkpoint/contract behaviour (Sections 3 and 4):

- minimal-heap-state points occur each time the buffer is discarded at the
  end of a pass; the operator checkpoints proactively there (payload is
  empty — an NLJ checkpoint "happens to contain no information",
  Example 5);
- the outer child is a *heap child*: a GoBack regenerates the buffer by
  re-pulling from the checkpoint's outer contract;
- the inner child is a *stream child*: its position at a contract point is
  captured by a nested contract, and restored directly on resume so the
  joins already performed before the target cursor are *skipped*
  (Section 3.3's skipping discussion uses exactly this operator).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Optional

from repro.common.errors import ContractError
from repro.core.suspended_query import OpSuspendEntry
from repro.engine.base import Operator, Row
from repro.engine.runtime import ResumeContext, Runtime
from repro.relational.expressions import (
    EquiJoinCondition,
    compile_join_keys,
    compile_right_key,
)

PHASE_FILL = "fill"
PHASE_JOIN = "join"
PHASE_DONE = "done"


class BlockNLJ(Operator):
    """Block nested-loop join with a tuple-count-bounded outer buffer."""

    STATEFUL = True

    def __init__(
        self,
        op_id: int,
        name: str,
        outer: Operator,
        inner: Operator,
        runtime: Runtime,
        condition: EquiJoinCondition,
        buffer_tuples: int,
    ):
        if buffer_tuples <= 0:
            raise ValueError("buffer_tuples must be positive")
        if not inner.REWINDABLE:
            raise ContractError(
                f"block NLJ inner child {inner.name} must be rewindable"
            )
        super().__init__(
            op_id, name, [outer, inner], runtime, outer.schema.concat(inner.schema)
        )
        self.condition = condition
        self._right_key = compile_right_key(condition)
        self._buffer_keys = compile_join_keys(
            condition.left_column, condition.modulus
        )
        self.buffer_tuples = buffer_tuples
        self.buffer: list[Row] = []
        self.phase = PHASE_FILL
        self.cursor = 0
        self.inner_row: Optional[Row] = None
        #: Buffer positions by join key (:meth:`_key_index`).
        self._index: Optional[dict] = None
        self.outer_exhausted = False
        #: Completed join passes; lets a GoBack that restores an older
        #: checkpoint skip whole intervening passes during roll-forward.
        self.passes = 0

    @property
    def outer(self) -> Operator:
        return self.children[0]

    @property
    def inner(self) -> Operator:
        return self.children[1]

    def stream_children(self) -> list[Operator]:
        return [self.inner]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def buffer_fill(self) -> int:
        """Tuples currently in the outer buffer (suspend-trigger hook)."""
        return len(self.buffer)

    def _next_batch(self, max_rows: int) -> list:
        """Fill the buffer, then join the inner child's tuples against
        it: each inner tuple looks up its key in the pass's key index and
        visits only the matching buffer positions from ``cursor`` on, in
        buffer order, with CPU charges counted in ``crun`` between child
        pulls.

        The lookup leaves exactly the control state the nested scan of
        Section 2 would: ``cursor`` is one past the last match emitted,
        and ``len(buffer)`` with no inner tuple once a tuple is done.
        Every call into a child (outer fill, inner pull) first settles
        the pending count, so a reactive checkpoint below reads settled
        integers, and writes the cursor and inner tuple back, so a
        suspend raised by the child's entry poll finds the control state
        of exactly this point. A pass boundary ends a non-empty batch,
        so the end-of-pass checkpoint is taken at the start of the next
        call, with nothing emitted after it.
        """
        right_key = self._right_key
        out: list = []
        need = max_rows
        crun = 0
        while need > 0:
            if self.phase == PHASE_DONE:
                break
            if self.phase == PHASE_FILL:
                self.charge_cpu(crun)
                crun = 0
                self._fill_buffer()
                if not self.buffer:
                    self.phase = PHASE_DONE
                    break
                self.inner.rewind()
                self.inner_row = None
                self.cursor = 0
                self.phase = PHASE_JOIN
            buffer = self.buffer
            nbuf = len(buffer)
            if self._index is None:
                self._index = self._key_index()
            lookup = self._index.get
            inner_next = self.inner.next
            inner_row = self.inner_row
            cursor = self.cursor
            pass_done = False
            while True:
                if inner_row is None:
                    self.charge_cpu(crun)
                    crun = 0
                    self.inner_row = None
                    self.cursor = cursor
                    inner_row = inner_next()
                    if inner_row is None:
                        pass_done = True
                        break
                    crun += 1  # the inner-consume charge
                    cursor = 0
                positions = lookup(right_key(inner_row), ())
                start = bisect_left(positions, cursor)
                take = positions[start:start + need]
                out.extend([buffer[p] + inner_row for p in take])
                self.tuples_emitted += len(take)
                crun += len(take)  # the wrapper charges
                need -= len(take)
                if need == 0:
                    cursor = take[-1] + 1
                    break
                cursor, inner_row = nbuf, None
            self.inner_row = inner_row
            self.cursor = cursor
            if out or not pass_done:
                # The request is met, or the pass ended with rows to hand
                # up first: the next call finds the inner child exhausted
                # again (a chargeless pull) and runs the transition.
                break
            # Pass complete: discard the buffer and its index. This is
            # the minimal-heap-state point (crun is zero: it was settled
            # before the exhausted inner pull).
            self.buffer = []
            self._index = None
            self.cursor = 0
            self.inner_row = None
            self.passes += 1
            self.make_checkpoint()
            self.phase = PHASE_DONE if self.outer_exhausted else PHASE_FILL
        self.charge_cpu(crun)
        return out

    def _key_index(self) -> dict:
        """The buffer positions holding each join key, ascending.

        Derived from the buffer, so never heap state: it is built on the
        first join step after the buffer is filled or restored (restores
        run on a freshly instantiated operator) and dropped with it.
        """
        index: dict = {}
        for pos, key in enumerate(self._buffer_keys(self.buffer)):
            index.setdefault(key, []).append(pos)
        return index

    def _fill_buffer(self) -> None:
        buffer = self.buffer
        while len(buffer) < self.buffer_tuples and not self.outer_exhausted:
            rows = self._drain(self.outer, self.buffer_tuples - len(buffer))
            if not rows:
                self.outer_exhausted = True
                break
            buffer.extend(rows)
            self.charge_cpu(len(rows))

    # ------------------------------------------------------------------
    # State introspection
    # ------------------------------------------------------------------
    def heap_tuples(self) -> int:
        return len(self.buffer)

    def heap_pages(self) -> int:
        per_page = self.outer.schema.tuples_per_page(
            self.rt.disk.cost_model.page_bytes
        )
        return math.ceil(len(self.buffer) / per_page) if self.buffer else 0

    def control_state(self) -> dict:
        return {
            "phase": self.phase,
            "fill": len(self.buffer),
            "cursor": self.cursor,
            "inner_row": self.inner_row,
            "outer_exhausted": self.outer_exhausted,
            "passes": self.passes,
        }

    def _checkpoint_payload(self) -> dict:
        # At minimal-heap-state points the buffer is empty and the phase
        # is implicitly the start of a fill; only the pass count needs to
        # be remembered (Example 5: NLJ checkpoints "happen to contain no
        # information" — the pass count is our bookkeeping for skipping
        # whole passes when rolling forward from older checkpoints).
        return {"passes": self.passes}

    def _heap_state_payload(self):
        return list(self.buffer)

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _restore_control(self, control: dict) -> None:
        self.phase = control["phase"]
        self.cursor = control["cursor"]
        self.inner_row = control["inner_row"]
        self.outer_exhausted = control["outer_exhausted"]
        self.passes = control["passes"]

    def _resume_from_dump(self, entry: OpSuspendEntry, payload, ctx) -> None:
        rows = payload or []
        target = entry.target_control
        current = entry.current_control or target
        if target["phase"] == PHASE_JOIN:
            # Contract signed while joining the current pass: the buffer
            # has not changed since, and resume replays the join from the
            # contract's cursor and inner tuple.
            self.buffer = list(rows[: target["fill"]])
            self._restore_control(target)
            self.outer_exhausted = current["outer_exhausted"]
        else:
            # Contract signed while filling (no output produced at that
            # point): keep the full dumped buffer, let the fill complete
            # from the outer child's current position, and replay the
            # whole pass's join output.
            self.buffer = list(rows)
            self.phase = PHASE_FILL
            self.cursor = 0
            self.inner_row = None
            self.outer_exhausted = current["outer_exhausted"]

    def _restore_checkpoint(self, ckpt: dict) -> None:
        self.buffer = []
        self.outer_exhausted = False
        self.passes = ckpt.get("passes", 0)

    def _restore_full_state(self, heap, control: dict) -> None:
        self.buffer = list(heap or [])
        self._restore_control(control)

    def _roll_forward(self, target: dict, entry, ctx: ResumeContext) -> None:
        """Refill the buffer from the (already repositioned) outer child,
        then jump straight to the target cursor and inner tuple — skipping
        every join already produced before the target."""
        # Skip whole passes between the checkpoint and the target (only
        # possible when the fulfilling checkpoint predates the current
        # pass, e.g. with proactive checkpointing disabled): their outer
        # tuples are re-consumed and discarded, and their join output is
        # skipped entirely (Section 3.3). A pass is not always
        # ``buffer_tuples`` outer rows: a full-state checkpoint already
        # holds part of the pass it interrupted, and the pass that
        # exhausted the outer child is short.
        while self.passes < target["passes"]:
            remaining = self.buffer_tuples - len(self.buffer)
            self.buffer = []
            while remaining > 0:
                rows = self._drain(self.outer, remaining)
                if not rows:
                    if not (
                        target["outer_exhausted"]
                        and self.passes + 1 == target["passes"]
                    ):
                        raise ContractError(
                            f"{self.name}: outer child exhausted while "
                            f"skipping pass {self.passes + 1} during GoBack"
                        )
                    break
                remaining -= len(rows)
                self.charge_cpu(len(rows))
            self.passes += 1
        while len(self.buffer) < target["fill"]:
            rows = self._drain(self.outer, target["fill"] - len(self.buffer))
            if not rows:
                raise ContractError(
                    f"{self.name}: outer child exhausted while refilling "
                    f"{target['fill']} tuples during GoBack resume"
                )
            self.buffer.extend(rows)
            self.charge_cpu(len(rows))
        self._restore_control(target)
