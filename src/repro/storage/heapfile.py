"""Heap files: paged table storage with positional cursors.

A heap file stores rows in fixed-capacity pages. Reading a page through a
cursor charges one page read on the simulated disk. Cursor positions
``(page_no, slot)`` are the control state that table scans record in
contracts and in the SuspendedQuery structure (Section 4 of the paper:
"the current disk page location and position within that disk page").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from repro.common.errors import StorageError
from repro.relational.schema import Schema
from repro.storage.disk import SimulatedDisk

Row = tuple


@dataclass(frozen=True)
class TuplePosition:
    """A stable position inside a heap file: page number and slot."""

    page_no: int
    slot: int


class HeapFile:
    """A paged, append-only table file.

    Pages hold up to ``tuples_per_page`` rows. ``bulk_load`` populates the
    file without charging I/O (data loading is experiment setup, not
    measured work); all read paths charge the simulated disk.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        disk: SimulatedDisk,
        tuples_per_page: int = 100,
    ):
        if tuples_per_page <= 0:
            raise ValueError(f"tuples_per_page must be positive, got {tuples_per_page}")
        self.name = name
        self.schema = schema
        self.tuples_per_page = tuples_per_page
        self._disk = disk
        self._pages: list[list[Row]] = []
        self._num_tuples = 0

    @property
    def num_tuples(self) -> int:
        return self._num_tuples

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    def bulk_load(self, rows: Iterable[Row]) -> None:
        """Append ``rows`` without charging I/O (setup-time loading):
        top up a partial last page, then cut the rest into pages."""
        rows = list(rows)
        per_page = self.tuples_per_page
        start = 0
        if self._pages and len(self._pages[-1]) < per_page:
            start = per_page - len(self._pages[-1])
            self._pages[-1].extend(rows[:start])
        self._pages.extend(
            rows[i : i + per_page] for i in range(start, len(rows), per_page)
        )
        self._num_tuples += len(rows)

    def read_page(self, page_no: int) -> Sequence[Row]:
        """Return the rows on ``page_no``, charging one page read."""
        if not 0 <= page_no < len(self._pages):
            raise StorageError(
                f"table {self.name!r}: page {page_no} out of range "
                f"[0, {len(self._pages)})"
            )
        self._disk.read_pages(1)
        return self._pages[page_no]

    def peek_page(self, page_no: int) -> Sequence[Row]:
        """Return the rows on ``page_no`` without charging (testing only)."""
        return self._pages[page_no]

    def position_of(self, tuple_index: int) -> TuplePosition:
        """Map a global tuple index to its (page, slot) position."""
        if not 0 <= tuple_index < self._num_tuples:
            raise StorageError(
                f"table {self.name!r}: tuple index {tuple_index} out of range"
            )
        return TuplePosition(
            page_no=tuple_index // self.tuples_per_page,
            slot=tuple_index % self.tuples_per_page,
        )

    def cursor(self) -> "ScanCursor":
        """Open a sequential cursor positioned before the first tuple."""
        return ScanCursor(self)

    def all_rows(self) -> Iterator[Row]:
        """Iterate all rows without charging (testing / reference output)."""
        for page in self._pages:
            yield from page


class ScanCursor:
    """Sequential cursor over a heap file with explicit repositioning.

    The cursor charges one page read each time it steps onto a new page.
    ``position()`` / ``seek()`` expose the (page, slot) control state used
    by table-scan contracts: seeking back and re-reading pages is exactly
    the "redo" cost of a GoBack scan.
    """

    def __init__(self, heapfile: HeapFile):
        self._file = heapfile
        self._page_no = 0
        self._slot = 0
        self._page_rows: Optional[Sequence[Row]] = None
        self._pages_fetched = 0

    @property
    def pages_fetched(self) -> int:
        """Pages this cursor has charged so far (for work accounting)."""
        return self._pages_fetched

    def position(self) -> TuplePosition:
        """Position of the *next* tuple this cursor would return."""
        return TuplePosition(self._page_no, self._slot)

    def tuples_consumed(self) -> int:
        """Number of tuples returned so far (global index of next tuple)."""
        return self._page_no * self._file.tuples_per_page + self._slot

    def seek(self, position: TuplePosition) -> None:
        """Reposition so the next tuple returned is at ``position``.

        Seeking invalidates the cached page; the next fetch charges a read.
        """
        self._page_no = position.page_no
        self._slot = position.slot
        self._page_rows = None

    def rewind(self) -> None:
        """Reposition to the start of the file."""
        self.seek(TuplePosition(0, 0))

    def _fetch_page(self, page_no: int) -> Sequence[Row]:
        """Fetch ``page_no``, charging the read. Subclasses may redirect
        the fetch (e.g. through a shared fold producer) as long as the
        charge sequence seen by the owning query is preserved."""
        return self._file.read_page(page_no)

    def current_page(self) -> Optional[Sequence[Row]]:
        """Rows of the page under the cursor, fetching it if needed.

        The scan consumes the file in page-sized segments: this steps
        past exhausted pages (a short final page included) and charges
        the page read lazily, on the call that needs the first row of the
        new page, but consumes nothing — callers slice from :attr:`slot`
        and then :meth:`advance` by the rows taken. Returns None at end
        of file.
        """
        while True:
            if self._page_no >= self._file.num_pages:
                return None
            if self._page_rows is None:
                self._page_rows = self._fetch_page(self._page_no)
                self._pages_fetched += 1
            if self._slot < len(self._page_rows):
                return self._page_rows
            self._page_no += 1
            self._slot = 0
            self._page_rows = None

    def loaded_page(self) -> Optional[Sequence[Row]]:
        """What :meth:`current_page` would return without fetching or
        stepping — the page under the cursor, when it is loaded and has
        rows left — else None. Lets a caller that attributes the fetch's
        charges skip that bookkeeping on the calls that charge nothing."""
        rows = self._page_rows
        if rows is not None and self._slot < len(rows):
            return rows
        return None

    @property
    def slot(self) -> int:
        """Slot of the next tuple on the current page."""
        return self._slot

    def advance(self, n: int) -> None:
        """Consume ``n`` rows from the current page (after current_page())."""
        self._slot += n
