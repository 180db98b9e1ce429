"""Exporter tests: JSONL round-trip, Chrome conversion, summaries."""

import json
import math

from repro.obs import (
    Tracer,
    read_jsonl,
    render_summary,
    summarize,
    to_chrome_trace,
    trace_lines,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.export import TS_SCALE, _jsonable


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.event("a", ts=1.0, detail="x")
        path = str(tmp_path / "t.jsonl")
        assert write_jsonl(tracer.records, path) == 2
        assert read_jsonl(path) == tracer.records

    def test_lines_sort_keys_and_are_compact(self):
        (line,) = trace_lines([{"b": 1, "a": 2, "type": "x", "ts": 0.0}])
        assert line == '{"a":2,"b":1,"ts":0.0,"type":"x"}'

    def test_jsonable_strips_inf_and_nan(self):
        assert _jsonable(
            {"a": math.inf, "b": [math.nan, 1.5], "c": (2,)}
        ) == {"a": None, "b": [None, 1.5], "c": [2]}
        # An infinite suspend budget must not produce invalid JSON.
        (line,) = trace_lines([{"type": "x", "ts": 0.0, "budget": math.inf}])
        json.loads(line)


class TestChromeTrace:
    def records(self):
        return [
            {"type": "trace.meta", "ts": 0.0, "seq": 0, "version": 1},
            {
                "type": "sched.quantum",
                "ts": 1.0,
                "dur": 2.0,
                "seq": 1,
                "query": "q1",
            },
            {
                "type": "checkpoint.taken",
                "ts": 4.0,
                "seq": 2,
                "query": "q1",
                "op": 3,
                "op_name": "join",
            },
            {
                "type": "sched.start",
                "ts": 5.0,
                "seq": 3,
                "query": "q1",
                "memory_bytes": 128,
            },
        ]

    def test_conversion_shapes(self):
        events = to_chrome_trace(self.records())["traceEvents"]
        by_ph = {}
        for e in events:
            by_ph.setdefault(e["ph"], []).append(e)
        # meta record skipped; M names for process + 2 threads.
        names = {e["args"]["name"] for e in by_ph["M"]}
        assert "query:q1" in names and "op 3 join" in names
        (span,) = by_ph["X"]
        assert span["name"] == "sched.quantum"
        assert span["ts"] == 1.0 * TS_SCALE and span["dur"] == 2.0 * TS_SCALE
        assert {e["name"] for e in by_ph["i"]} == {
            "checkpoint.taken",
            "sched.start",
        }
        (counter,) = by_ph["C"]
        assert counter["args"] == {"bytes": 128}

    def test_operator_and_scheduler_records_share_query_process(self):
        events = to_chrome_trace(self.records())["traceEvents"]
        pids = {
            e["name"]: e["pid"] for e in events if e["ph"] in ("X", "i")
        }
        assert pids["sched.quantum"] == pids["checkpoint.taken"]

    def test_shard_records_get_one_process_per_shard(self):
        records = [
            {"type": "shard.stage_start", "ts": 0.0, "seq": 1},
            {"type": "query.execute", "ts": 0.0, "dur": 1.0, "seq": 2,
             "shard": 1, "query": "shard1"},
            {"type": "op.stats", "ts": 1.0, "seq": 3, "shard": 0,
             "query": "shard0", "op": 0, "op_name": "scan_B"},
        ]
        events = to_chrome_trace(records)["traceEvents"]
        processes = [
            e["args"]["name"] for e in events if e["name"] == "process_name"
        ]
        assert processes == ["system", "shard:1", "shard:0"]
        table = render_summary(records).split("(op.stats):\n")[1]
        assert table.splitlines()[1].split()[:3] == ["shard0", "0", "scan_B"]
        assert summarize(records)["operators"][0]["shard"] == "0"

    def test_zero_duration_span_gets_minimum_width(self):
        events = to_chrome_trace(
            [{"type": "op.next_batch", "ts": 0.0, "dur": 0.0, "seq": 0, "op": 1}]
        )["traceEvents"]
        (span,) = [e for e in events if e["ph"] == "X"]
        assert span["dur"] == 1.0

    def test_write_is_valid_json(self, tmp_path):
        path = str(tmp_path / "t.chrome.json")
        n = write_chrome_trace(self.records(), path)
        with open(path) as fh:
            doc = json.load(fh)
        assert len(doc["traceEvents"]) == n
        assert doc["displayTimeUnit"] == "ms"


class TestSummaries:
    def test_summarize_counts_types_queries_and_range(self):
        records = [
            {"type": "trace.meta", "ts": 0.0, "seq": 0},
            {"type": "a", "ts": 1.0, "seq": 1, "query": "q1"},
            {"type": "a", "ts": 2.0, "dur": 3.0, "seq": 2, "query": "q2"},
        ]
        info = summarize(records)
        assert info["records"] == 3
        assert info["types"] == {"a": 2, "trace.meta": 1}
        assert info["queries"] == ["q1", "q2"]
        assert info["time_range"] == [1.0, 5.0]

    def test_render_summary_lists_each_type(self):
        text = render_summary(
            [{"type": "a", "ts": 0.0, "seq": 0, "query": "q"}]
        )
        assert "1 records" in text and "queries: q" in text
        assert any(line.strip().startswith("a") for line in text.splitlines())

    def test_summary_answers_which_operator_did_the_work(self):
        def stats(query, op, name, rows, reads, writes, work):
            return {
                "type": "op.stats", "ts": 1.0, "seq": 0, "query": query,
                "op": op, "op_name": name, "rows": rows, "pages_read": reads,
                "pages_written": writes, "cpu_tuples": rows, "work": work,
            }

        records = [
            stats("q", 1, "scan_R", 100, 1, 0, 1.1),
            stats("q", 0, "sort", 0, 0, 2, 4.1),
            stats("q", 1, "scan_R", 50, 1, 0, 1.05),
            stats("p", 0, "hj", 7, 0, 0, 0.007),
        ]
        assert summarize(records)["operators"] == [
            {"shard": "", "query": "p", "op": 0, "name": "hj", "rows": 7,
             "pages_read": 0, "pages_written": 0, "work": 0.007},
            {"shard": "", "query": "q", "op": 0, "name": "sort", "rows": 0,
             "pages_read": 0, "pages_written": 2, "work": 4.1},
            {"shard": "", "query": "q", "op": 1, "name": "scan_R", "rows": 150,
             "pages_read": 2, "pages_written": 0, "work": 2.15},
        ]
        table = render_summary(records).split("work by operator (op.stats):\n")[1]
        assert [line.split() for line in table.splitlines()] == [
            ["query", "op", "name", "rows", "pages", "read", "pages",
             "written", "work"],
            ["p", "0", "hj", "7", "0", "0", "0.007"],
            ["q", "0", "sort", "0", "0", "2", "4.100"],
            ["q", "1", "scan_R", "150", "2", "0", "2.150"],
        ]

    def test_summary_has_no_operator_table_without_op_stats(self):
        records = [{"type": "a", "ts": 0.0, "seq": 0, "query": "q"}]
        assert summarize(records)["operators"] == []
        assert "work by operator" not in render_summary(records)
