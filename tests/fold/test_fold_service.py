"""Folding through the service layers: scheduler, serve path, metrics.

The scheduler tests drive K-query bursts with folding on and off and
check that folding is invisible to outputs while collapsing global scan
I/O; the serve tests do the same over the continuation-token protocol
(the fold producers live on the service core, so serial token hops still
share pages). Victim selection and metrics publication are covered at
their own seams.
"""

import shutil
import tempfile

from repro.engine.plan import FilterSpec, ProjectSpec, ScanSpec
from repro.fold.manager import FoldManager
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import UniformSelect
from repro.serve.service import QueryService, ServeConfig
from repro.service.core import SchedulerConfig
from repro.service.policies import select_victims
from repro.service.scheduler import QueryScheduler
from repro.storage.database import Database


def build_db(rows=400):
    db = Database()
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(rows, seed=1))
    return db


def filter_plan(selectivity):
    return ProjectSpec(
        FilterSpec(ScanSpec("R"), UniformSelect(1, selectivity)),
        columns=(0, 2),
    )


def run_burst(k, fold, quantum_rows=32):
    db = build_db()
    config = SchedulerConfig(fold=fold, quantum_rows=quantum_rows)
    scheduler = QueryScheduler(db, config)
    rows = {}
    run_quantum = scheduler.run_quantum

    def collecting(record):
        result = run_quantum(record)
        rows.setdefault(record.name, []).extend(result.rows)
        return result

    scheduler.run_quantum = collecting
    for i in range(k):
        scheduler.submit(f"q{i}", filter_plan(0.5))
    stats = scheduler.run()
    return rows, stats, db.disk.counters.pages_read


class TestSchedulerFolding:
    def test_outputs_identical_with_and_without_fold(self):
        base_rows, base_stats, base_pages = run_burst(4, fold=False)
        fold_rows, fold_stats, fold_pages = run_burst(4, fold=True)
        assert fold_rows == base_rows
        assert fold_pages < base_pages

    def test_k8_burst_close_to_single_query_io(self):
        solo_pages = run_burst(1, fold=False)[2]
        _, stats, pages = run_burst(8, fold=True)
        # The acceptance bar: a K=8 identical-scan burst costs at most
        # twice the scan I/O of one query (empirically ~1.03x).
        assert pages <= 2 * solo_pages
        assert stats.fold is not None
        assert stats.fold["grafted"] == 8

    def test_stats_expose_fold_block_only_when_folding(self):
        _, base_stats, _ = run_burst(2, fold=False)
        _, fold_stats, _ = run_burst(2, fold=True)
        assert "fold" not in base_stats.as_dict()
        block = fold_stats.as_dict()["fold"]
        assert block["candidates"] == 2
        assert block["pages_absorbed"] > 0


class TestVictimSelection:
    class FakeRecord:
        def __init__(self, name, priority, memory):
            self.name = name
            self.priority = priority
            self._memory = memory

        def memory_in_use(self):
            return self._memory

    def test_ungrafted_evicted_before_fold_members(self):
        db = build_db()
        db.create_table(
            "S", BASE_SCHEMA, generate_uniform_table(100, seed=2)
        )
        manager = FoldManager(db)
        manager.admit("a", filter_plan(0.5))
        manager.admit("b", filter_plan(0.5))  # a and b now grafted
        manager.admit("c", FilterSpec(ScanSpec("S"), UniformSelect(1, 0.9)))
        records = [
            self.FakeRecord("a", 0, 100),
            self.FakeRecord("b", 0, 100),
            self.FakeRecord("c", 0, 50),
        ]
        victims = select_victims(records, excess=10, fold_manager=manager)
        assert [v.name for v in victims] == ["c"]

    def test_priority_still_dominates_grafting(self):
        db = build_db()
        manager = FoldManager(db)
        manager.admit("lo", filter_plan(0.5))
        manager.admit("lo2", filter_plan(0.5))
        records = [
            self.FakeRecord("lo", 0, 100),
            self.FakeRecord("hi", 1, 100),
        ]
        victims = select_victims(records, excess=10, fold_manager=manager)
        assert victims[0].name == "lo"


class TestServePathFolding:
    def drain(self, fold):
        """Serve two similar queries by alternating token hops."""
        image_root = tempfile.mkdtemp(prefix="fold-serve-")
        try:
            from repro import SuspendSpec

            db = build_db()
            config = ServeConfig(
                fold=fold,
                quantum_rows=40,
                suspend=SuspendSpec(persist_to=image_root),
            )
            service = QueryService(db, config)
            results = {
                "q0": service.begin("q0", filter_plan(0.5)),
                "q1": service.begin("q1", filter_plan(0.3)),
            }
            rows = {name: list(r.rows) for name, r in results.items()}
            live = {n: r for n, r in results.items() if not r.done}
            while live:
                for name in list(live):
                    result = service.continue_query(live[name].token)
                    rows[name].extend(result.rows)
                    if result.done:
                        del live[name]
                    else:
                        live[name] = result
            return rows, db.disk.counters.pages_read
        finally:
            shutil.rmtree(image_root, ignore_errors=True)

    def test_token_hops_share_scan_pages(self):
        base_rows, base_pages = self.drain(fold=False)
        fold_rows, fold_pages = self.drain(fold=True)
        assert fold_rows == base_rows
        assert fold_pages < base_pages


class TestFoldMetrics:
    def test_metrics_published_through_registry(self):
        from repro.obs.tracer import Tracer

        db = build_db()
        tracer = Tracer()
        config = SchedulerConfig(fold=True, tracer=tracer)
        scheduler = QueryScheduler(db, config)
        scheduler.submit("q0", filter_plan(0.5))
        scheduler.submit("q1", filter_plan(0.5))
        scheduler.run()
        snapshot = tracer.metrics.as_dict()
        assert snapshot["counters"]["fold.candidates"] == 2
        assert snapshot["counters"]["fold.grafted"] == 2
        assert snapshot["gauges"]["fold.scan_bytes_saved"] > 0
