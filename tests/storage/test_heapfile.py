"""Unit tests for heap files and scan cursors."""

import pytest

from repro.common.errors import StorageError
from repro.relational.schema import Schema
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile, TuplePosition

SCHEMA = Schema.of(["a", "b"])


def make_file(n=25, tpp=10):
    disk = SimulatedDisk()
    hf = HeapFile("t", SCHEMA, disk, tuples_per_page=tpp)
    hf.bulk_load((i, i * 2) for i in range(n))
    return hf, disk


class TestHeapFile:
    @pytest.mark.parametrize("tpp", [1, 7, 100])
    @pytest.mark.parametrize(
        "loads", [(250, 13), (3, 2), (0, 9), (9, 0), (100, 100), (6, 300)]
    )
    def test_bulk_load_pages_match_the_row_loop(self, tpp, loads):
        """Page slicing cuts the same pages as appending one row at a
        time, over consecutive loads that top up a partial last page."""
        from tests.oracles import row_bulk_load

        sliced = HeapFile("t", SCHEMA, SimulatedDisk(), tuples_per_page=tpp)
        looped = HeapFile("t", SCHEMA, SimulatedDisk(), tuples_per_page=tpp)
        start = 0
        for n in loads:
            rows = [(i, i * 2) for i in range(start, start + n)]
            start += n
            sliced.bulk_load(iter(rows))
            row_bulk_load(looped, rows)
            assert sliced._pages == looped._pages
            assert sliced.num_tuples == looped.num_tuples == start

    def test_bulk_load_counts(self):
        hf, _ = make_file(25, 10)
        assert hf.num_tuples == 25
        assert hf.num_pages == 3  # 10 + 10 + 5

    def test_bulk_load_is_not_charged(self):
        hf, disk = make_file()
        assert disk.now == 0.0

    def test_read_page_charges_one_read(self):
        hf, disk = make_file()
        rows = hf.read_page(0)
        assert len(rows) == 10
        assert disk.counters.pages_read == 1

    def test_read_page_out_of_range(self):
        hf, _ = make_file()
        with pytest.raises(StorageError):
            hf.read_page(3)

    def test_position_of_maps_page_and_slot(self):
        hf, _ = make_file(25, 10)
        assert hf.position_of(0) == TuplePosition(0, 0)
        assert hf.position_of(9) == TuplePosition(0, 9)
        assert hf.position_of(10) == TuplePosition(1, 0)
        assert hf.position_of(24) == TuplePosition(2, 4)

    def test_position_of_out_of_range(self):
        hf, _ = make_file()
        with pytest.raises(StorageError):
            hf.position_of(25)

    def test_all_rows_uncharged(self):
        hf, disk = make_file()
        assert len(list(hf.all_rows())) == 25
        assert disk.now == 0.0


def take(cur, n=None):
    """Up to ``n`` rows (all when None), stepped the way ``TableScan``
    steps a cursor: slice the page from ``current_page()`` at ``slot``,
    then ``advance()`` by the rows taken."""
    rows = []
    while n is None or len(rows) < n:
        page = cur.current_page()
        if page is None:
            break
        stop = len(page) if n is None else cur.slot + n - len(rows)
        taken = page[cur.slot:stop]
        rows.extend(taken)
        cur.advance(len(taken))
    return rows


class TestScanCursor:
    def test_sequential_read_returns_all_rows(self):
        hf, _ = make_file(25, 10)
        assert take(hf.cursor()) == [(i, i * 2) for i in range(25)]

    def test_charges_one_read_per_page(self):
        hf, disk = make_file(25, 10)
        cur = hf.cursor()
        take(cur)
        assert disk.counters.pages_read == 3
        assert cur.pages_fetched == 3

    def test_position_tracks_next_tuple(self):
        hf, _ = make_file(25, 10)
        cur = hf.cursor()
        assert cur.position() == TuplePosition(0, 0)
        take(cur, 12)
        assert cur.position() == TuplePosition(1, 2)
        assert cur.tuples_consumed() == 12

    def test_seek_and_reread_charges_again(self):
        hf, disk = make_file(25, 10)
        cur = hf.cursor()
        take(cur, 15)
        charged = disk.counters.pages_read
        cur.seek(TuplePosition(0, 5))
        assert take(cur, 1) == [(5, 10)]
        assert disk.counters.pages_read == charged + 1

    def test_rewind(self):
        hf, _ = make_file()
        cur = hf.cursor()
        take(cur, 7)
        cur.rewind()
        assert take(cur, 1) == [(0, 0)]

    def test_exhausted_cursor_keeps_returning_none(self):
        hf, _ = make_file(5, 10)
        cur = hf.cursor()
        take(cur, 5)
        assert cur.current_page() is None
        assert cur.current_page() is None
        assert take(cur, 1) == []

    def test_empty_file(self):
        disk = SimulatedDisk()
        hf = HeapFile("empty", SCHEMA, disk)
        assert hf.cursor().current_page() is None

    def test_short_final_page_boundary(self):
        hf, _ = make_file(21, 10)
        assert len(take(hf.cursor())) == 21
