"""Deterministic merge of distributed trace streams into one timeline.

A sharded query produces N+1 traces — one per shard worker (its own
process when :class:`~repro.shard.worker_proc.ProcessShardWorker` is in
play) plus the coordinator's — and a served query's trace shatters
across continuation-token hops. :func:`merge_traces` interleaves those
streams into a single global timeline that is *byte-identical across
runs*, which makes the merged trace itself a regression artifact: any
cross-run divergence is a determinism bug somewhere in the distributed
path.

Ordering rules (also documented in PROTOCOL.md section 7):

1. Primary key: virtual-clock timestamp ``ts``. Every stream runs on a
   simulated clock, so timestamps are comparable across processes
   without skew correction.
2. Tiebreak 1: lane rank — the coordinator lane sorts before shard
   lanes, shard lanes sort by shard id. Concurrent-at-t records from
   different processes thus interleave the same way every run.
3. Tiebreak 2: the record's position in its own stream (its original
   per-sink ``seq``), preserving each process's causal emission order.

The merged stream gets fresh contiguous ``seq`` values and a ``lane``
field on every record; per-stream ``trace.meta`` records are collapsed
into a single merged one that lists the lanes. A single in-process trace
whose records carry ``shard`` fields can be normalized into the same
shape with :func:`split_by_shard` + :func:`merge_traces`, so process-mode
and in-process-mode runs of one query are comparable modulo nothing.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.obs.tracer import TRACE_FORMAT_VERSION

#: Lane name of the coordinator/driver stream.
COORDINATOR_LANE = "coordinator"


def shard_lane(shard_id: int) -> str:
    """Canonical lane name for a shard's stream."""
    return f"shard:{shard_id}"


def _lane_rank(lane: str) -> tuple[int, int, str]:
    """Sort key for lanes: coordinator first, then shards by id, then
    anything else lexicographically (e.g. ad-hoc lanes from serve hops)."""
    if lane == COORDINATOR_LANE:
        return (0, 0, lane)
    if lane.startswith("shard:"):
        suffix = lane.split(":", 1)[1]
        if suffix.isdigit():
            return (1, int(suffix), lane)
    return (2, 0, lane)


def merge_traces(
    streams: Sequence[tuple[str, Iterable[dict]]],
) -> list[dict]:
    """Merge ``(lane, records)`` streams into one deterministic timeline.

    Records are not mutated; merged copies carry ``lane`` and a rewritten
    contiguous ``seq``. Exactly one ``trace.meta`` heads the result,
    recording the schema version, the sorted lane list, and — when every
    input stream that has one agrees on it — the shared ``trace_id``.
    """
    metas: list[tuple[str, dict]] = []
    body: list[tuple[float, tuple[int, int, str], int, str, dict]] = []
    for lane, records in streams:
        rank = _lane_rank(lane)
        for position, record in enumerate(records):
            if record.get("type") == "trace.meta":
                metas.append((lane, record))
                continue
            ts = record.get("ts", 0.0)
            body.append((ts, rank, position, lane, record))
    body.sort(key=lambda item: item[:3])

    lanes = sorted({lane for lane, _ in streams}, key=_lane_rank)
    trace_ids = {
        m.get("trace_id") for _, m in metas if m.get("trace_id") is not None
    }
    for _, _, _, _, record in body:
        if record.get("trace_id") is not None:
            trace_ids.add(record["trace_id"])
    meta: dict = {
        "type": "trace.meta",
        "ts": 0.0,
        "seq": 0,
        "version": TRACE_FORMAT_VERSION,
        "merged": True,
        "lanes": lanes,
    }
    if len(trace_ids) == 1:
        meta["trace_id"] = trace_ids.pop()

    merged = [meta]
    for seq, (_, _, _, lane, record) in enumerate(body, start=1):
        out = dict(record)
        out["lane"] = lane
        out["seq"] = seq
        merged.append(out)
    return merged


def split_by_shard(records: Iterable[dict]) -> list[tuple[str, list[dict]]]:
    """Split one trace into lanes by each record's ``shard`` field.

    The inverse-of-merge normalizer: an in-process sharded run emits all
    workers' records into one sink, tagged with ``shard``; splitting by
    that tag and re-merging yields the exact shape a process-worker run's
    merged trace has, so the two modes can be compared record-for-record.
    Records without a ``shard`` field (coordinator spans, trace.meta) go
    to the coordinator lane.
    """
    by_lane: dict[str, list[dict]] = {}
    for record in records:
        shard = record.get("shard")
        lane = COORDINATOR_LANE if shard is None else shard_lane(shard)
        by_lane.setdefault(lane, []).append(record)
    return sorted(by_lane.items(), key=lambda kv: _lane_rank(kv[0]))


def strip_lanes(records: Iterable[dict]) -> list[dict]:
    """Drop ``lane``/``seq`` bookkeeping for modulo-lane comparisons."""
    out = []
    for record in records:
        slim = {
            k: v for k, v in record.items() if k not in ("lane", "seq")
        }
        out.append(slim)
    return out


def merge_shard_trace(
    coordinator_records: Iterable[dict],
    shard_records: dict[int, Iterable[dict]],
) -> list[dict]:
    """Convenience wrapper: coordinator + per-shard streams by shard id."""
    streams: list[tuple[str, Iterable[dict]]] = [
        (COORDINATOR_LANE, coordinator_records)
    ]
    for shard_id in sorted(shard_records):
        streams.append((shard_lane(shard_id), shard_records[shard_id]))
    return merge_traces(streams)
