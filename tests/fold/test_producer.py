"""FoldProducer: window residency, eviction, refetch accounting."""

import pytest

from repro.fold.manager import FoldManager, FoldProducer, FoldStats
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.storage.database import Database
from repro.storage.heapfile import TuplePosition


def make_db(rows=500, tpp=100):
    db = Database()
    db.create_table(
        "R", BASE_SCHEMA, generate_uniform_table(rows, seed=1),
        tuples_per_page=tpp,
    )
    return db


class FakeCursor:
    """Just enough cursor for attach/position bookkeeping."""

    def __init__(self, page_no=0):
        self._page_no = page_no

    def position(self):
        return TuplePosition(self._page_no, 0)


def make_producer(db, window_pages=4):
    return FoldProducer(
        db.catalog.table("R"), db.disk, FoldStats(), window_pages
    )


class TestAcquire:
    def test_miss_fetches_and_charges_global_only(self):
        db = make_db()
        producer = make_producer(db)
        rows = producer.acquire(0)
        assert rows == list(db.catalog.table("R").peek_page(0))
        assert db.disk.counters.pages_read == 1
        assert db.disk.fold_shared_pages == 1
        assert producer.stats.pages_shared == 1

    def test_hit_is_free(self):
        db = make_db()
        producer = make_producer(db)
        producer.acquire(2)
        before = db.disk.counters.pages_read
        producer.acquire(2)
        assert db.disk.counters.pages_read == before
        assert producer.stats.pages_shared == 1

    def test_window_cap_evicts_lowest(self):
        db = make_db(900)
        producer = make_producer(db, window_pages=3)
        for page in range(5):
            producer.acquire(page)
        assert producer.window_size == 3
        # Pages 0 and 1 evicted; re-acquiring one is a counted refetch.
        producer.acquire(0)
        assert producer.stats.refetches == 1

    def test_forward_progress_is_not_a_refetch(self):
        db = make_db(900)
        producer = make_producer(db, window_pages=2)
        for page in range(5):
            producer.acquire(page)
        assert producer.stats.refetches == 0

    def test_window_retained_after_detach(self):
        db = make_db()
        producer = make_producer(db)
        cursor = FakeCursor()
        producer.attach(cursor)
        producer.acquire(0)
        producer.detach(cursor)
        before = db.disk.counters.pages_read
        producer.acquire(0)  # served from the retained window
        assert db.disk.counters.pages_read == before


class TestManager:
    def test_admit_grafts_mutually(self):
        db = make_db()
        manager = FoldManager(db)
        from repro.engine.plan import ScanSpec

        b1 = manager.admit("q1", ScanSpec("R"))
        assert b1 is not None
        assert not manager.is_grafted("q1")  # lone candidate
        b2 = manager.admit("q2", ScanSpec("R"))
        assert b2 is not None
        assert manager.is_grafted("q1") and manager.is_grafted("q2")
        assert manager.stats.candidates == 2
        assert manager.stats.grafted == 2

    def test_note_split_unfolds_once(self):
        db = make_db()
        manager = FoldManager(db)
        from repro.engine.plan import ScanSpec

        manager.admit("q1", ScanSpec("R"))
        manager.admit("q2", ScanSpec("R"))
        manager.note_split("q1")
        manager.note_split("q1")  # idempotent: already split
        assert manager.stats.splits == 1
        assert not manager.is_grafted("q1")
        assert manager.is_grafted("q2")

    def test_absorbed_requires_lane(self):
        db = make_db()
        with pytest.raises(RuntimeError):
            db.disk.absorbed_read_pages(1)

    def test_publish_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        db = make_db()
        manager = FoldManager(db)
        manager.stats.candidates = 3
        manager.stats.grafted = 2
        manager.stats.splits = 1
        db.disk.fold_pages_saved = 10
        db.disk.fold_shared_pages = 4
        registry = MetricsRegistry()
        manager.publish_metrics(registry)
        snapshot = registry.as_dict()
        assert snapshot["counters"]["fold.candidates"] == 3
        assert snapshot["counters"]["fold.grafted"] == 2
        assert snapshot["counters"]["fold.splits"] == 1
        assert (
            snapshot["gauges"]["fold.scan_bytes_saved"]
            == 6 * db.disk.cost_model.page_bytes
        )
