"""Trace and metrics exporters: JSONL, Chrome ``trace_event``, text.

Three formats, one source of truth (the tracer's record list):

- :func:`write_jsonl` — one sorted-keys JSON object per line. This is
  the canonical archival format; it is byte-deterministic for identical
  runs and is what the determinism tests compare.
- :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON array format, so one suspend/resume cycle opens
  directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
  Spans become ``X`` (complete) events, instantaneous records become
  ``i`` events, and scheduler memory samples become a ``C`` counter
  track. Tracks (pid/tid) are laid out per query and per operator, with
  ``M`` metadata records naming them.
- :func:`summarize` — per-type counts, the time range and (from
  ``op.stats`` records) which operator did the work, for ``repro trace
  summary``.

Virtual time units are exported as microseconds 1:1 scaled by
:data:`TS_SCALE` so Perfetto's zoom behaves sensibly.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Optional

from repro.common.errors import TraceFileError

#: Chrome trace timestamps are microseconds; one virtual time unit maps
#: to this many "microseconds" in the exported file.
TS_SCALE = 1000.0


def _encode(record: dict) -> str:
    return json.dumps(
        _jsonable(record), sort_keys=True, separators=(",", ":")
    )


def _jsonable(value):
    """Make a record strictly JSON-serializable and deterministic."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return None
        return value
    return value


def trace_lines(records: Iterable[dict]) -> list[str]:
    return [_encode(r) for r in records]


def write_jsonl(records: Iterable[dict], path: str) -> int:
    """Write records as JSON Lines; returns the record count."""
    lines = trace_lines(records)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)


def read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_trace(path: str) -> list[dict]:
    """Read a JSONL trace, diagnosing empty and torn files.

    Raises :class:`TraceFileError` (with path and line number) instead of
    propagating a raw ``JSONDecodeError``, distinguishing a *torn tail* —
    the final line cut mid-write by a crashed or killed exporter — from
    corruption in the middle of the file, which is never expected and gets
    a blunter message. An empty (or whitespace-only) file is an error too:
    every real trace starts with a ``trace.meta`` record.
    """
    if not os.path.exists(path):
        raise TraceFileError(path, "no such trace file")
    records: list[dict] = []
    numbered: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                numbered.append((lineno, line))
    if not numbered:
        raise TraceFileError(path, "empty trace file (no records)")
    last = len(numbered) - 1
    for i, (lineno, line) in enumerate(numbered):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if i == last:
                raise TraceFileError(
                    path,
                    "torn tail: final line is not valid JSON "
                    "(writer crashed mid-record?)",
                    line=lineno,
                ) from None
            raise TraceFileError(
                path, "corrupt record (not valid JSON)", line=lineno
            ) from None
        if not isinstance(record, dict) or "type" not in record:
            raise TraceFileError(
                path, "not a trace record (missing 'type')", line=lineno
            )
        records.append(record)
    return records


# ----------------------------------------------------------------------
# Chrome trace_event conversion
# ----------------------------------------------------------------------

def _track_of(record: dict) -> tuple[str, str]:
    """(process, thread) track names for a record.

    Queries are processes; operators are threads within them, so a
    suspend/resume cycle reads top-down like the plan itself. Records
    with no query context land on the scheduler/system track. A shard
    worker's records carry ``shard``, which takes over the process
    dimension so each shard gets its own track in Perfetto; the
    coordinator's records keep their query or system track.
    """
    shard = record.get("shard")
    query = record.get("query")
    if shard is not None:
        process = f"shard:{shard}"
    else:
        process = f"query:{query}" if query else "system"
    if "op" in record:
        name = record.get("op_name", "")
        thread = f"op {record['op']}" + (f" {name}" if name else "")
    elif record["type"].startswith("sched."):
        thread = "scheduler"
    elif record["type"].startswith("image."):
        thread = "durability"
    else:
        thread = "lifecycle"
    return process, thread


def to_chrome_trace(records: Iterable[dict]) -> dict:
    """Convert tracer records to the Chrome ``trace_event`` format."""
    events: list[dict] = []
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}

    def track(record: dict) -> tuple[int, int]:
        process, thread = _track_of(record)
        if process not in pids:
            pid = len(pids) + 1
            pids[process] = pid
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": process},
                }
            )
        pid = pids[process]
        key = (process, thread)
        if key not in tids:
            tid = len([k for k in tids if k[0] == process]) + 1
            tids[key] = tid
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": thread},
                }
            )
        return pid, tids[key]

    for record in records:
        rtype = record.get("type")
        if rtype == "trace.meta":
            continue
        pid, tid = track(record)
        ts = record.get("ts", 0.0) * TS_SCALE
        args = {
            k: v
            for k, v in sorted(record.items())
            if k not in ("type", "ts", "dur", "seq")
        }
        base = {
            "name": rtype,
            "cat": rtype.split(".", 1)[0],
            "pid": pid,
            "tid": tid,
            "ts": ts,
            "args": _jsonable(args),
        }
        if "dur" in record:
            base["ph"] = "X"
            base["dur"] = max(record["dur"] * TS_SCALE, 1.0)
        else:
            base["ph"] = "i"
            base["s"] = "t"
        events.append(base)
        if "memory_bytes" in record:
            events.append(
                {
                    "ph": "C",
                    "name": "live_memory_bytes",
                    "cat": "sched",
                    "pid": pid,
                    "tid": 0,
                    "ts": ts,
                    "args": {"bytes": record["memory_bytes"]},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: Iterable[dict], path: str) -> int:
    """Write the Chrome-format conversion; returns the event count."""
    converted = to_chrome_trace(records)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(converted), fh, sort_keys=True)
    return len(converted["traceEvents"])


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

#: The additive fields of an ``op.stats`` record.
OP_STATS_FIELDS = ("rows", "pages_read", "pages_written", "work")


def summarize(records: Iterable[dict]) -> dict:
    """Per-type counts, queries seen, the trace's time range, and the
    ``op.stats`` records summed per operator (one entry per
    shard/query/op/name, in that order; empty when the trace has none)."""
    counts: dict[str, int] = {}
    queries: set = set()
    operators: dict[tuple, dict] = {}
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    for record in records:
        counts[record["type"]] = counts.get(record["type"], 0) + 1
        if record.get("query"):
            queries.add(record["query"])
        if record["type"] == "op.stats":
            # The name is part of the identity: a shard runs one plan
            # per stage, each numbering its operators from zero.
            key = (
                str(record.get("shard", "")),
                str(record.get("query", "")),
                record["op"],
                record.get("op_name", ""),
            )
            totals = operators.setdefault(
                key,
                dict(
                    zip(("shard", "query", "op", "name"), key),
                    **dict.fromkeys(OP_STATS_FIELDS, 0),
                ),
            )
            for field in OP_STATS_FIELDS:
                totals[field] += record.get(field, 0)
        if record["type"] != "trace.meta":
            ts = record.get("ts", 0.0)
            end = ts + record.get("dur", 0.0)
            t_min = ts if t_min is None else min(t_min, ts)
            t_max = end if t_max is None else max(t_max, end)
    return {
        "records": sum(counts.values()),
        "types": dict(sorted(counts.items())),
        "queries": sorted(queries),
        "time_range": [t_min, t_max],
        "operators": [
            dict(totals, work=round(totals["work"], 6))
            for _, totals in sorted(operators.items())
        ],
    }


def render_summary(records: Iterable[dict]) -> str:
    info = summarize(list(records))
    t_min, t_max = info["time_range"]
    span = "-" if t_min is None else f"{t_min} .. {t_max}"
    lines = [
        f"{info['records']} records, "
        f"queries: {', '.join(info['queries']) or '-'}, "
        f"virtual time {span}"
    ]
    width = max((len(t) for t in info["types"]), default=0)
    for rtype, count in info["types"].items():
        lines.append(f"  {rtype:<{width}}  {count}")
    if info["operators"]:
        lines.append("work by operator (op.stats):")
        header = ("query", "op", "name", "rows", "pages read",
                  "pages written", "work")
        table = [header] + [
            (
                t["query"] or "-",
                str(t["op"]),
                t["name"],
                str(t["rows"]),
                str(t["pages_read"]),
                str(t["pages_written"]),
                f"{t['work']:.3f}",
            )
            for t in info["operators"]
        ]
        widths = [max(map(len, column)) for column in zip(*table)]
        for row in table:
            cells = [
                # names left-aligned, numbers right-aligned
                cell.ljust(w) if i in (0, 2) else cell.rjust(w)
                for i, (cell, w) in enumerate(zip(row, widths))
            ]
            lines.append("  " + "  ".join(cells).rstrip())
    return "\n".join(lines)
