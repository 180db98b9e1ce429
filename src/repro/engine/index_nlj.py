"""Tuple-based nested loop join with an index on the inner (Section 4).

Reads the outer child one tuple at a time and probes an ordered index on
the inner table for matches. The operator state is just the current outer
tuple and the position within the current probe's match range, so it uses
reactive checkpointing: on SignContract it records that control state and
recursively contracts with its outer child; on Suspend the same state goes
into SuspendedQuery so resume can re-probe the index and skip directly to
the match position.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.base import Operator, Row
from repro.engine.runtime import Runtime
from repro.storage.index import OrderedIndex


class IndexNLJ(Operator):
    """Index nested-loop join: outer tuples probe an inner-table index."""

    STATEFUL = False

    def __init__(
        self,
        op_id: int,
        name: str,
        outer: Operator,
        runtime: Runtime,
        index: OrderedIndex,
        outer_key_column: int,
    ):
        super().__init__(
            op_id, name, [outer], runtime, outer.schema.concat(index.table.schema)
        )
        self.index = index
        self.outer_key_column = outer_key_column
        self.outer_row: Optional[Row] = None
        self.match_lo = 0
        self.match_hi = 0
        self.match_pos = 0

    @property
    def outer(self) -> Operator:
        return self.children[0]

    def _next(self) -> Optional[Row]:
        while True:
            if self.outer_row is None:
                row = self.outer.next()
                if row is None:
                    return None
                self.charge_cpu(1)
                self.outer_row = row
                with self.attribute_work():
                    self.match_lo, self.match_hi = self.index.probe_range(
                        row[self.outer_key_column]
                    )
                self.match_pos = self.match_lo
            if self.match_pos < self.match_hi:
                with self.attribute_work():
                    entry = self.index.entry_at(self.match_pos)
                    inner_row = self.index.fetch(entry)
                self.match_pos += 1
                return self.outer_row + inner_row
            self.outer_row = None

    def control_state(self) -> dict:
        return {
            "outer_row": self.outer_row,
            "match_offset": self.match_pos - self.match_lo,
        }

    def _restore_control(self, control: dict) -> None:
        self.outer_row = control["outer_row"]
        if self.outer_row is None:
            self.match_lo = self.match_hi = self.match_pos = 0
            return
        with self.attribute_work():
            self.match_lo, self.match_hi = self.index.probe_range(
                self.outer_row[self.outer_key_column]
            )
        self.match_pos = self.match_lo + control["match_offset"]
