"""Projection: a stateless column-selecting map operator."""

from __future__ import annotations

from typing import Sequence

from repro.engine.base import Operator
from repro.engine.runtime import Runtime
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
        rows = self.child.next_batch(max_rows)
        self.tuples_emitted += len(rows)
        # the examine charge + the wrapper charge per projected row
        self.charge_cpu(2 * len(rows))
        return list(map(self._project, rows))
