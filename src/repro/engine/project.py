"""Projection: a stateless column-selecting map operator."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.engine.base import Operator, Row
from repro.engine.runtime import Runtime
from repro.engine.scan import chain_segments
from repro.relational.expressions import compile_projection


class Project(Operator):
    """Keeps the listed column indexes of each child row, in order."""

    STATEFUL = False

    def __init__(
        self,
        op_id: int,
        name: str,
        child: Operator,
        runtime: Runtime,
        columns: Sequence[int],
    ):
        super().__init__(
            op_id, name, [child], runtime, child.schema.project(columns)
        )
        self.columns = tuple(columns)
        self.REWINDABLE = child.REWINDABLE

    @property
    def child(self) -> Operator:
        return self.children[0]

    def _next(self) -> Optional[Row]:
        row = self.child.next()
        if row is None:
            return None
        self.charge_cpu(1)
        return tuple(row[i] for i in self.columns)

    def rewind(self) -> None:
        self.child.rewind()

    def _next_batch_fast(self, max_rows: int) -> list:
        """Pipeline fusion for the scan(-filter)-project chain: project
        each segment of the fused loop. Chains it doesn't know fall back
        to the default per-row fast loop, which is exact for any child."""
        if self._pending_rows or self.child._scan_chain() is None:
            return super()._next_batch_fast(max_rows)
        project = compile_projection(self.columns)
        out: list = []
        for segment in chain_segments(self.child, max_rows):
            out.extend([project(row) for row in segment])
            self.tuples_emitted += len(segment)
            # the examine charge + the wrapper charge per projected row
            self.charge_cpu(2 * len(segment))
        return out

    def _resume_from_dump(self, entry, payload, ctx) -> None:
        pass

    def _resume_goback(self, entry, ctx) -> None:
        pass
