"""Progress estimation, its trace/metric publication, and trace loading."""

import pytest

from repro.cli import main as cli_main
from repro.common.errors import TraceFileError
from repro.core.lifecycle import QuerySession, QueryStatus, SuspendSpec
from repro.durability import build_recipe
from repro.obs import (
    MetricsRegistry,
    Tracer,
    emit_progress,
    estimate_cardinalities,
    load_trace,
    progress_timeline,
    query_progress,
    render_progress,
)


def session_for(recipe, scale=2):
    db, plan = build_recipe(recipe, scale=scale)
    return QuerySession(db, plan)


class TestCardinalities:
    def test_scan_estimates_are_exact(self):
        session = session_for("hashjoin")
        estimates = estimate_cardinalities(session.root)
        tables = {
            name: session.db.catalog.table(name).num_tuples
            for name in session.db.catalog.table_names()
        }
        # Every leaf estimate equals some base table's true cardinality.
        leaf_ests = sorted(
            v
            for op_id, v in estimates.items()
            if not list(session.runtime.ops[op_id].children)
        )
        assert set(leaf_ests) <= set(tables.values())

    def test_every_operator_gets_a_positive_estimate(self):
        for recipe in ("hashjoin", "hashagg", "sort"):
            session = session_for(recipe)
            estimates = estimate_cardinalities(session.root)
            assert set(estimates) == set(session.runtime.ops)
            assert all(v >= 1.0 for v in estimates.values())


class TestQueryProgress:
    def test_fraction_grows_and_caps_at_one(self):
        session = session_for("hashjoin")
        fractions = []
        while True:
            result = session.execute(max_rows=64)
            snapshot = query_progress(session)
            fractions.append(snapshot.fraction)
            if result.status is QueryStatus.COMPLETED:
                break
        assert fractions == sorted(fractions)
        assert 0.0 <= fractions[0] <= 1.0
        assert fractions[-1] == 1.0
        assert snapshot.est_remaining_work == 0.0
        assert snapshot.est_remaining_bytes == 0

    def test_rows_offset_keeps_fraction_monotone(self):
        session = session_for("hashjoin")
        session.execute(max_rows=64)
        plain = query_progress(session)
        offset = query_progress(session, rows_offset=100)
        assert offset.rows_total == plain.rows_total + 100
        assert offset.fraction >= plain.fraction

    def test_work_done_never_falls_across_suspend_resume(self):
        """Work done is the query's, not the current session's: a resume
        carries it on, as ``rows_offset`` carries the rows."""
        session = session_for("sort")
        rows, done = 0, []
        while True:
            result = session.execute(max_rows=16)
            rows += len(result.rows)
            offset = rows - session.root.tuples_emitted
            done.append(query_progress(session, rows_offset=offset).work_done)
            if result.status is QueryStatus.COMPLETED:
                break
            sq = session.suspend(SuspendSpec())
            session = QuerySession.resume(session.db, sq)
            sq.release()
        session.close()
        assert len(done) > 3 and done == sorted(done)

    def test_operator_breakdown_covers_the_plan(self):
        session = session_for("hashagg")
        session.execute(max_rows=32)
        snapshot = query_progress(session)
        assert len(snapshot.operators) == len(session.runtime.ops)
        doc = snapshot.as_dict()
        assert len(doc["operators"]) == len(session.runtime.ops)
        assert "operators" not in snapshot.as_dict(include_operators=False)


class TestPublication:
    def test_emit_progress_writes_record_and_gauges(self):
        tracer = Tracer()
        session = session_for("hashjoin")
        session.execute(max_rows=64)
        snapshot = query_progress(session)
        snapshot.query = "q1"
        emit_progress(tracer.bind(query="q1"), snapshot)
        records = [
            r for r in tracer.records if r["type"] == "query.progress"
        ]
        assert len(records) == 1
        assert records[0]["query"] == "q1"
        assert records[0]["fraction"] == snapshot.fraction
        gauges = tracer.metrics.as_dict()["gauges"]
        assert any("query_progress_fraction" in k for k in gauges)

    def test_emit_progress_is_free_when_disabled(self):
        from repro.obs import NULL_TRACER

        session = session_for("hashjoin")
        session.execute(max_rows=64)
        snapshot = query_progress(session)
        emit_progress(NULL_TRACER, snapshot)  # must not raise

    def test_timeline_and_render(self):
        tracer = Tracer()
        session = session_for("hashjoin")
        while True:
            result = session.execute(max_rows=64)
            snapshot = query_progress(session)
            snapshot.query = "q1"
            emit_progress(tracer.bind(query="q1"), snapshot)
            if result.status is QueryStatus.COMPLETED:
                break
        timeline = progress_timeline(tracer.records)
        assert "q1" in timeline and len(timeline["q1"]) > 1
        text = render_progress(tracer.records)
        assert "q1" in text and "1.0" in text
        assert "no query.progress records" in render_progress([])

    def test_publish_uses_registry_gauges(self):
        from repro.obs import publish_progress

        registry = MetricsRegistry()
        session = session_for("hashjoin")
        session.execute(max_rows=64)
        snapshot = query_progress(session)
        snapshot.query = "q9"
        publish_progress(snapshot, registry)
        doc = registry.as_dict()["gauges"]
        key = [k for k in doc if "query_progress_fraction" in k]
        assert len(key) == 1 and "q9" in key[0]


class TestTraceFileLoading:
    """load_trace and the trace CLI on empty/torn/corrupt files."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFileError, match="no such"):
            load_trace(str(tmp_path / "absent.jsonl"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceFileError, match="empty trace file"):
            load_trace(str(path))

    def test_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"type":"a","ts":0.0,"seq":0}\n{"type":"b","ts":1.'
        )
        with pytest.raises(TraceFileError, match="torn tail"):
            load_trace(str(path))

    def test_corrupt_mid_file_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"type":"a","ts":0.0}\nnot json\n{"type":"b","ts":1.0}\n'
        )
        with pytest.raises(TraceFileError, match=":2:"):
            load_trace(str(path))

    def test_valid_file_round_trips(self, tmp_path):
        from repro.obs import write_jsonl

        tracer = Tracer()
        tracer.event("a", ts=1.0)
        path = str(tmp_path / "ok.jsonl")
        write_jsonl(tracer.records, path)
        assert load_trace(path) == tracer.records

    @pytest.mark.parametrize("command", ["summary", "convert", "progress"])
    def test_cli_exits_cleanly_on_empty_file(
        self, tmp_path, capsys, command
    ):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SystemExit) as err:
            cli_main(["trace", command, str(path)])
        assert "empty trace file" in str(err.value)

    def test_cli_exits_cleanly_on_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"type":"a","ts":0.0,"seq":0}\n{"truncat')
        with pytest.raises(SystemExit) as err:
            cli_main(["trace", "summary", str(path)])
        assert "torn tail" in str(err.value)
