"""Grouping with aggregation and duplicate elimination (Section 4).

Both operators here are the sort-based variants: they assume their input
arrives sorted on the grouping/key columns (put a
:class:`~repro.engine.sort.TwoPhaseMergeSort` beneath them) and stream one
group at a time. Their state is tiny — the current group key, the running
aggregate, and one lookahead tuple — so, as the paper prescribes, they
checkpoint reactively and "store the current value of the aggregate as
part of any requested contract", allowing resume from the exact point.

Hash-based grouping follows the simple-hash-join template
(:mod:`repro.engine.hash_join`) per the paper and is not duplicated here.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.engine.base import Operator, Row
from repro.engine.runtime import Runtime
from repro.relational.expressions import compile_fold, compile_projection
from repro.relational.schema import Column, Schema

#: Supported aggregate functions.
AGG_FUNCS = ("count", "sum", "min", "max")


class GroupAggregate(Operator):
    """Sorted-input grouping with a single aggregate column.

    Emits ``(group_key..., aggregate)`` rows, one per group, in key order.
    """

    STATEFUL = False

    def __init__(
        self,
        op_id: int,
        name: str,
        child: Operator,
        runtime: Runtime,
        group_columns: Sequence[int],
        agg_func: str,
        agg_column: int,
    ):
        # compile_fold raises ValueError for an unknown ``agg_func``.
        self._fold_row = compile_fold(agg_func, agg_column)
        cols = tuple(
            child.schema.columns[i] for i in group_columns
        ) + (Column(f"{agg_func}_{child.schema.columns[agg_column].name}"),)
        schema = Schema(columns=cols, bytes_per_tuple=16 * len(cols))
        super().__init__(op_id, name, [child], runtime, schema)
        self.group_columns = tuple(group_columns)
        self.agg_func = agg_func
        self.agg_column = agg_column
        self._key_of = compile_projection(self.group_columns)
        self.current_key: Optional[tuple] = None
        self.agg_value = None
        self.lookahead: Optional[Row] = None
        self.started = False
        self.in_group = False
        self.exhausted = False

    @property
    def child(self) -> Operator:
        return self.children[0]

    def _next(self) -> Optional[Row]:
        if self.exhausted:
            return None
        if not self.in_group:
            if not self.started:
                self.lookahead = self.child.next()
                self.started = True
            if self.lookahead is None:
                self.exhausted = True
                return None
            self.current_key = self._key_of(self.lookahead)
            self.agg_value = self._fold_row(None, self.lookahead)
            self.in_group = True
            self.charge_cpu(1)
        # The in_group flag makes this loop restartable: a suspend that
        # lands mid-group resumes accumulation from the saved aggregate.
        while True:
            row = self.child.next()
            if row is None:
                self.lookahead = None
                self.exhausted = True
                break
            self.charge_cpu(1)
            if self._key_of(row) != self.current_key:
                self.lookahead = row
                break
            self.agg_value = self._fold_row(self.agg_value, row)
        self.in_group = False
        return self.current_key + (self.agg_value,)

    def control_state(self) -> dict:
        return {
            "current_key": self.current_key,
            "agg_value": self.agg_value,
            "lookahead": self.lookahead,
            "started": self.started,
            "in_group": self.in_group,
            "exhausted": self.exhausted,
        }

    def _restore_control(self, control: dict) -> None:
        self.current_key = control["current_key"]
        self.agg_value = control["agg_value"]
        self.lookahead = control["lookahead"]
        self.started = control["started"]
        self.in_group = control["in_group"]
        self.exhausted = control["exhausted"]


class DuplicateEliminate(Operator):
    """Sorted-input duplicate elimination.

    Keeps the tuple whose duplicates are currently being eliminated as its
    only state, exactly as the paper describes.
    """

    STATEFUL = False

    def __init__(self, op_id: int, name: str, child: Operator, runtime: Runtime):
        super().__init__(op_id, name, [child], runtime, child.schema)
        self.current: Optional[Row] = None

    @property
    def child(self) -> Operator:
        return self.children[0]

    def _next(self) -> Optional[Row]:
        while True:
            row = self.child.next()
            if row is None:
                return None
            self.charge_cpu(1)
            if row != self.current:
                self.current = row
                return row

    def control_state(self) -> dict:
        return {"current": self.current}

    def _restore_control(self, control: dict) -> None:
        self.current = control["current"]
