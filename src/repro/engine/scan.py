"""Table scan and index scan (Section 4).

Both are stateless leaf operators: they checkpoint reactively, and their
entire suspend/resume state is a cursor position. A GoBack through a scan
re-reads the pages between the contract position and wherever execution
re-consumes them — that re-reading *is* the recomputation cost that the
suspend-plan optimizer trades off against dumping ancestors' state.
"""

from __future__ import annotations

import sys
from itertools import chain
from typing import Iterator, Optional, Sequence

from repro.core.suspended_query import OpSuspendEntry
from repro.engine.base import Operator, Row
from repro.engine.runtime import ResumeContext, Runtime
from repro.relational.expressions import compile_predicate
from repro.relational.schema import Schema
from repro.storage.heapfile import HeapFile, TuplePosition


def chain_segments(
    top: Operator, limit: Optional[int] = None
) -> Iterator[Sequence[Row]]:
    """The fused scan(→filter) loop: yield the rows ``top`` emits, one
    list per page segment, at most ``limit`` rows in all.

    ``top`` is the head of a chain :meth:`Operator._scan_chain` accepts.
    Instead of one ``next()`` per examined row, the scan's cursor is
    walked page by page with a compiled predicate. Each segment counts the
    events the row path counts — the page read where the cursor steps
    onto the page, one wrapper tuple per examined row for the scan, one
    examine tuple per examined row plus one wrapper tuple per match for
    the filter — and settles them before yielding, so the consumer (which
    settles its own counts before asking for the next segment) and any
    checkpoint taken between segments read settled integers.

    While the chain holds pending rows, or the filter carries an open
    contract (``Filter._has_open_contracts``: its first match migrates
    the contract and saves the row), rows come one at a time through
    ``top.next()`` — the row-exact prefix.
    """
    scan, filt = top._scan_chain()
    need = sys.maxsize if limit is None else limit
    migrating = filt is not None and scan.rt.config.contract_migration
    while need > 0 and (
        scan._pending_rows
        or (filt is not None and filt._pending_rows)
        or (migrating and filt._has_open_contracts())
    ):
        row = top.next()
        if row is None:
            return
        need -= 1
        yield (row,)
    cursor = scan._cursor
    pred = compile_predicate(filt.predicate) if filt is not None else None
    while need > 0:
        with scan.attribute_work():
            page = cursor.current_page()
        if page is None:
            return
        rest = page[cursor.position().slot:]
        if pred is None:
            rows = rest[:need]
            examined = len(rows)
        else:
            rows = []
            examined = 0
            for row in rest:
                examined += 1
                if pred(row):
                    rows.append(row)
                    if len(rows) == need:
                        break
        cursor.advance(examined)
        scan.tuples_emitted += examined
        scan.charge_cpu(examined)
        if filt is not None:
            filt.tuples_emitted += len(rows)
            filt.charge_cpu(examined + len(rows))
        need -= len(rows)
        yield rows


class TableScan(Operator):
    """Sequential scan over a heap file."""

    STATEFUL = False
    REWINDABLE = True

    def __init__(self, op_id: int, name: str, runtime: Runtime, table: HeapFile):
        super().__init__(op_id, name, [], runtime, table.schema)
        self.table = table
        self._cursor = None

    def _do_open(self) -> None:
        self._cursor = self.table.cursor()

    def _next(self) -> Optional[Row]:
        with self.attribute_work():
            return self._cursor.next()

    def _scan_chain(self):
        return self, None

    def _next_batch_fast(self, max_rows: int) -> list:
        return list(chain.from_iterable(chain_segments(self, max_rows)))

    def rewind(self) -> None:
        self._cursor.rewind()

    def tuples_consumed(self) -> int:
        """Base tuples read so far (drives suspend-point triggers)."""
        return self._cursor.tuples_consumed() if self._cursor else 0

    # Control state ----------------------------------------------------
    def control_state(self) -> dict:
        pos = self._cursor.position()
        return {"page_no": pos.page_no, "slot": pos.slot}

    def _checkpoint_payload(self) -> dict:
        return self.control_state()

    # Resume -----------------------------------------------------------
    def _seek_control(self, control: dict) -> None:
        self._cursor.seek(TuplePosition(control["page_no"], control["slot"]))

    def _resume_from_dump(self, entry: OpSuspendEntry, payload, ctx) -> None:
        self._seek_control(entry.target_control)

    def _resume_goback(self, entry: OpSuspendEntry, ctx: ResumeContext) -> None:
        self._seek_control(entry.target_control)

    # Cost hints ---------------------------------------------------------
    def estimate_dump_resume_cost(self) -> float:
        # Repositioning re-reads the current page only.
        return self.rt.disk.cost_of_page_reads(1)

    def estimate_goback_resume_cost(self, link) -> float:
        """Exact redo: pages between the contract position and now.

        The scan knows its positions precisely at suspend time, which is
        why the paper optimizes *online*: these constants cannot be known
        from offline statistics.
        """
        target = link.target_control
        if target is None:
            return self.rt.disk.cost_of_page_reads(1)
        pages_redone = self._cursor.position().page_no - target["page_no"]
        return self.rt.disk.cost_of_page_reads(max(1, pages_redone + 1))


class IndexScan(Operator):
    """Ordered scan over an index, returning base rows in key order."""

    STATEFUL = False
    REWINDABLE = True

    def __init__(
        self,
        op_id: int,
        name: str,
        runtime: Runtime,
        index,
        start_key=None,
    ):
        super().__init__(op_id, name, [], runtime, index.table.schema)
        self.index = index
        self.start_key = start_key
        self._entry_idx = 0
        self._loaded_leaf = -1

    def _do_open(self) -> None:
        self._loaded_leaf = -1
        if self.start_key is None:
            self._entry_idx = 0
        else:
            with self.attribute_work():
                first = self.index.first_ge(self.start_key)
            self._entry_idx = first if first is not None else self.index.num_entries

    def _next(self) -> Optional[Row]:
        if self._entry_idx >= self.index.num_entries:
            return None
        leaf = self._entry_idx // self.index.entries_per_page
        with self.attribute_work():
            if leaf != self._loaded_leaf:
                self.rt.disk.read_pages(1)
                self._loaded_leaf = leaf
            row = self.index.fetch(self.index.entry_at(self._entry_idx))
        self._entry_idx += 1
        return row

    def rewind(self) -> None:
        self._do_open()

    def control_state(self) -> dict:
        return {"entry_idx": self._entry_idx}

    def _checkpoint_payload(self) -> dict:
        return self.control_state()

    def _resume_from_dump(self, entry: OpSuspendEntry, payload, ctx) -> None:
        self._entry_idx = entry.target_control["entry_idx"]

    def _resume_goback(self, entry: OpSuspendEntry, ctx: ResumeContext) -> None:
        self._entry_idx = entry.target_control["entry_idx"]

    def estimate_goback_resume_cost(self, link) -> float:
        target = link.target_control
        if target is None:
            return self.rt.disk.cost_of_page_reads(1)
        redone = self._entry_idx - target["entry_idx"]
        pages = max(1, redone // max(1, self.index.entries_per_page) + 1)
        return self.rt.disk.cost_of_page_reads(pages)
