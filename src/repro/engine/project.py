"""Projection: a stateless column-selecting map operator."""

from __future__ import annotations

from typing import Sequence

from repro.engine.base import Operator
from repro.engine.filter import Filter
from repro.engine.runtime import Runtime
from repro.engine.scan import TableScan
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
        self._project = compile_projection(self.columns)
        self.REWINDABLE = child.REWINDABLE

    @property
    def child(self) -> Operator:
        return self.children[0]

    def rewind(self) -> None:
        self.child.rewind()

    def _next_batch(self, max_rows: int) -> list:
        """Project a batch of the child when the child is a scan(→filter)
        chain, where nothing reads the clock mid-batch; any other child
        may checkpoint beneath a batch, so it is pulled one row at a time
        with this operator's charges settled in between."""
        project = self._project
        child = self.child
        if isinstance(child, Filter):
            child = child.child
        if isinstance(child, TableScan):
            rows = self.child.next_batch(max_rows)
            self.tuples_emitted += len(rows)
            # the examine charge + the wrapper charge per projected row
            self.charge_cpu(2 * len(rows))
            return list(map(project, rows))
        out: list = []
        while len(out) < max_rows:
            row = self.child.next()
            if row is None:
                break
            out.append(project(row))
            self.tuples_emitted += 1
            self.charge_cpu(2)
        return out

    def _resume_from_dump(self, entry, payload, ctx) -> None:
        pass

    def _resume_goback(self, entry, ctx) -> None:
        pass
