"""Table scan and index scan (Section 4).

Both are stateless leaf operators: they checkpoint reactively, and their
entire suspend/resume state is a cursor position. A GoBack through a scan
re-reads the pages between the contract position and wherever execution
re-consumes them — that re-reading *is* the recomputation cost that the
suspend-plan optimizer trades off against dumping ancestors' state.

A scan, and a filter directly above one, run through one fused
page-segment loop (:func:`fused_scan`). A filter's segment is a C-level
pass of the mask its predicate was compiled into when the filter was
built, consumed lazily up to the match the request needs.
"""

from __future__ import annotations

import sys
from itertools import compress, islice
from typing import Optional

from repro.core.suspended_query import OpSuspendEntry
from repro.engine.base import Operator, Row
from repro.engine.runtime import ResumeContext, Runtime
from repro.relational.schema import Schema
from repro.storage.heapfile import HeapFile, TuplePosition


def fused_scan(scan: "TableScan", filt: Optional[Operator], limit: int) -> list:
    """Up to ``limit`` rows of ``scan`` — of the filter ``filt`` directly
    above it, when given: the one fused scan(→filter) loop.

    Instead of one ``next()`` per examined row, the scan's cursor is
    walked page by page. A filter's segment is one C-level pass: the
    mask the filter compiled at construction (``Filter.mask``) selects
    the matching positions, lazily, and stops at the ``need``-th match,
    so the segment examines the rows up to and including that match
    (all of the segment when fewer match) — exactly the rows a
    row-at-a-time loop would have tested. Each page segment counts one
    wrapper tuple per examined row for the scan (and the page read where
    the cursor steps onto the page), one examine tuple per examined row
    plus one wrapper tuple per match for the filter, and settles them
    before the next page is fetched.

    While a trigger watches the scan, a segment examines no more rows
    than are left before its threshold, and a call ends with the first
    segment that produced rows: stepping onto the next page — at the end
    of the file, past it — moves the scan's position, so it belongs
    after the entry poll of the call that does it. With no rows in hand
    (a filter still looking for a match) each segment starts with the
    poll a ``next()`` on the scan would make there.
    """
    controller = scan.rt.controller
    cursor = scan._cursor
    mask = filt.mask if filt is not None else None
    out: list = []
    need = limit
    while need > 0:
        room = sys.maxsize
        if controller.armed:
            room = controller.room(scan, "position", "emitted")
            if room < sys.maxsize:
                if out:
                    break
                controller.poll()
        page = cursor.loaded_page()
        if page is None:
            with scan.attribute_work():
                page = cursor.current_page()
            if page is None:
                break
        slot = cursor.slot
        if mask is None:
            rows = page[slot:slot + min(need, room)]
            examined = len(rows)
        else:
            seg = page[slot:slot + room]
            hits = list(islice(compress(range(len(seg)), mask(seg)), need))
            examined = hits[-1] + 1 if len(hits) == need else len(seg)
            rows = list(map(seg.__getitem__, hits))
        cursor.advance(examined)
        scan.tuples_emitted += examined
        scan.charge_cpu(examined)
        if filt is not None:
            filt.tuples_emitted += len(rows)
            filt.charge_cpu(examined + len(rows))
        need -= len(rows)
        out += rows
    return out


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

    def _next_batch(self, max_rows: int) -> list:
        return fused_scan(self, None, max_rows)

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
