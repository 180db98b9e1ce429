"""Per-operator and per-query progress estimation.

The paper's suspend/resume machinery makes *where a query is* a
first-class question: the scheduler wants remaining-work estimates to
pick suspension victims (ROADMAP item 2), the serving layer wants a
fraction-complete to show next to a continuation token, and the shard
coordinator wants to know how lopsided a pass was. This module answers
all three from data the engine already keeps:

- **Cardinality estimates** walk the live operator tree bottom-up using
  the same signals the static optimizer has — heap-file tuple counts
  for scans, declared :class:`~repro.relational.expressions.UniformSelect`
  selectivities for filters, the join condition's ``modulus`` for
  equi-joins — with documented heuristics where no statistic exists.
- **Actuals** are each operator's ``tuples_emitted`` and attributed
  ``work`` (virtual-clock units), maintained on the hot path since PR 0.

Per-operator fraction-complete is ``emitted / estimate`` clamped to
[0, 1]; the query-level fraction is the root's, offset by
``rows_offset`` — the rows delivered in *previous* processes (resume
resets ``tuples_emitted`` to zero, so cross-process monotonicity needs
the durable cumulative count carried by the continuation token or the
suspend image's ``root_rows_emitted``). Estimated remaining work
extrapolates observed work-per-fraction; estimated remaining bytes use
the same nominal bytes-per-row convention as the suspend-cost model.

Everything here is deterministic: estimates are pure functions of the
plan and catalog, actuals come off the virtual clock, and fractions are
rounded to six places before they reach a trace record.

``query.progress`` trace records (PROTOCOL.md section 7) are emitted at
quantum boundaries by the executor core and at pass boundaries by the
shard coordinator; :func:`progress_timeline` recovers the series from an
archived trace for ``repro trace progress``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

#: Nominal bytes per delivered row, matching the suspend-cost model's
#: control-state sizing convention (SuspendedQuery.nominal_bytes).
EST_BYTES_PER_ROW = 200


# ----------------------------------------------------------------------
# Cardinality estimation over the live operator tree
# ----------------------------------------------------------------------

def estimate_cardinalities(root) -> dict[int, float]:
    """Estimated output rows per operator id, walking bottom-up.

    Heuristics, in the order they are tried per operator type:

    - scans (``TableScan`` and subclasses, ``IndexScan``): the heap
      file's exact ``num_tuples`` — sharded exchange scans inherit this,
      so a shard fragment is estimated against its own shard-local data;
    - filters: child estimate x the predicate's declared ``selectivity``
      when it has one (``UniformSelect``), else 1.0 (conservative: an
      overestimate keeps the fraction a lower bound);
    - equi-joins (hash/merge/block-NLJ): ``l*r/modulus`` when the
      condition widens matches modulo ``m`` (uniform keys match a random
      pair with probability 1/m), else ``min(l, r)`` — the textbook
      foreign-key shape;
    - group aggregates: ``sqrt(child)`` — the standard no-statistics
      guess for distinct groups;
    - everything else (project, sort, ...): pass the child through.
    """
    estimates: dict[int, float] = {}
    _estimate_into(root, estimates)
    return estimates


def _estimate_into(op, estimates: dict) -> float:
    est = _estimate_one(op, [_estimate_into(c, estimates) for c in op.children])
    estimates[op.op_id] = est
    return est


def _estimate_one(op, child_ests: list[float]) -> float:
    table = getattr(op, "table", None)
    if table is not None and not op.children:
        return float(table.num_tuples)
    index = getattr(op, "index", None)
    if index is not None and not op.children:
        return float(index.table.num_tuples)
    condition = getattr(op, "condition", None)
    if condition is not None and len(child_ests) == 2:
        left, right = child_ests
        modulus = getattr(condition, "modulus", 0)
        if modulus:
            return max(left * right / modulus, 1.0)
        return max(min(left, right), 1.0)
    predicate = getattr(op, "predicate", None)
    if predicate is not None and child_ests:
        selectivity = getattr(predicate, "selectivity", None)
        if selectivity is None:
            selectivity = 1.0
        return max(child_ests[0] * float(selectivity), 1.0)
    if getattr(op, "group_columns", None) is not None and child_ests:
        return max(child_ests[0] ** 0.5, 1.0)
    if child_ests:
        return child_ests[0]
    return 1.0


# ----------------------------------------------------------------------
# Progress snapshots
# ----------------------------------------------------------------------

@dataclass
class OpProgress:
    """One operator's estimated completion state."""

    op: str
    op_id: int
    est_rows: float
    emitted: int
    fraction: float
    work: float

    def as_dict(self) -> dict:
        return {
            "op": self.op,
            "op_id": self.op_id,
            "est_rows": round(self.est_rows, 2),
            "emitted": self.emitted,
            "fraction": self.fraction,
            "work": round(self.work, 6),
        }


@dataclass
class QueryProgress:
    """A query's fraction-complete and estimated remaining work."""

    query: Optional[str]
    fraction: float
    rows_total: int
    est_rows: float
    work_done: float
    est_remaining_work: Optional[float]
    est_remaining_bytes: Optional[int]
    operators: list[OpProgress] = field(default_factory=list)

    def as_dict(self, include_operators: bool = True) -> dict:
        doc = {
            "query": self.query,
            "fraction": self.fraction,
            "rows_total": self.rows_total,
            "est_rows": round(self.est_rows, 2),
            "work_done": round(self.work_done, 6),
            "est_remaining_work": (
                None
                if self.est_remaining_work is None
                else round(self.est_remaining_work, 6)
            ),
            "est_remaining_bytes": self.est_remaining_bytes,
        }
        if include_operators:
            doc["operators"] = [op.as_dict() for op in self.operators]
        return doc


def _fraction(emitted: float, estimate: float) -> float:
    if estimate <= 0:
        return 1.0
    return round(min(emitted / estimate, 1.0), 6)


def query_progress(
    session,
    rows_offset: int = 0,
    estimates: Optional[dict[int, float]] = None,
    include_operators: bool = True,
) -> QueryProgress:
    """Snapshot a live session's progress.

    ``rows_offset`` is the number of rows the query delivered before this
    process resumed it (from the continuation token's cumulative count or
    the suspend image's ``root_rows_emitted``); adding it to the live
    root's ``tuples_emitted`` keeps the query-level fraction monotone
    across suspend/resume cycles and continuation hops even though each
    resume restarts the in-process counters at zero.

    ``estimates`` takes a precomputed :func:`estimate_cardinalities` map;
    the estimates are pure functions of the plan and base-table counts,
    so per-quantum callers compute them once and pass them back in.
    ``include_operators=False`` skips the per-operator breakdown — the
    query-level snapshot is all the trace record and the gauges carry.
    """
    root = session.root
    if estimates is None:
        estimates = estimate_cardinalities(root)
    operators: list[OpProgress] = []
    work_done = 0.0
    for op_id in sorted(session.runtime.ops):
        op = session.runtime.ops[op_id]
        work_done += op.work
        if not include_operators:
            continue
        est = estimates.get(op_id, 1.0)
        operators.append(
            OpProgress(
                op=op.name,
                op_id=op_id,
                est_rows=est,
                emitted=op.tuples_emitted,
                fraction=_fraction(op.tuples_emitted, est),
                work=op.work,
            )
        )
    est_root = estimates.get(root.op_id, 1.0)
    rows_total = rows_offset + root.tuples_emitted
    fraction = _fraction(rows_total, est_root)
    if fraction > 0:
        est_remaining_work = round(work_done * (1.0 - fraction) / fraction, 6)
    else:
        est_remaining_work = None
    est_remaining_bytes = int(
        max(est_root - rows_total, 0) * EST_BYTES_PER_ROW
    )
    return QueryProgress(
        query=getattr(session, "name", None),
        fraction=fraction,
        rows_total=rows_total,
        est_rows=est_root,
        work_done=work_done,
        est_remaining_work=est_remaining_work,
        est_remaining_bytes=est_remaining_bytes,
        operators=operators,
    )


def publish_progress(progress: QueryProgress, metrics) -> None:
    """Mirror a snapshot into registry gauges.

    Gauges carry the latest value only; the full series lives in the
    ``query.progress`` trace records.
    """
    query = progress.query or "-"
    metrics.gauge("query_progress_fraction", query=query).set(
        progress.fraction
    )
    metrics.gauge("query_progress_rows_total", query=query).set(
        progress.rows_total
    )
    if progress.est_remaining_work is not None:
        metrics.gauge("query_est_remaining_work", query=query).set(
            progress.est_remaining_work
        )
    metrics.gauge("query_est_remaining_bytes", query=query).set(
        progress.est_remaining_bytes or 0
    )


def emit_progress(tracer, progress: QueryProgress, **fields) -> None:
    """Emit one ``query.progress`` record and update the gauges."""
    if not tracer.enabled:
        return
    doc = progress.as_dict(include_operators=False)
    doc.pop("query", None)  # the bound tracer already carries it
    doc.update(fields)
    tracer.event("query.progress", **doc)
    publish_progress(progress, tracer.metrics)


# ----------------------------------------------------------------------
# Offline: recover the progress series from an archived trace
# ----------------------------------------------------------------------

def progress_timeline(records: Iterable[dict]) -> dict[str, list[dict]]:
    """Group a trace's ``query.progress`` records by query, in order."""
    series: dict[str, list[dict]] = {}
    for record in records:
        if record.get("type") != "query.progress":
            continue
        key = record.get("query") or "-"
        series.setdefault(key, []).append(record)
    return series


def render_progress(records: Iterable[dict]) -> str:
    """Human-readable progress report for ``repro trace progress``."""
    series = progress_timeline(records)
    if not series:
        return "no query.progress records in trace"
    lines = []
    for query in sorted(series):
        points = series[query]
        last = points[-1]
        lines.append(
            f"{query}: {len(points)} snapshots, "
            f"fraction {points[0].get('fraction')} -> {last.get('fraction')}, "
            f"rows {last.get('rows_total')}/{last.get('est_rows')}, "
            f"est remaining work {last.get('est_remaining_work')}"
        )
        for point in points:
            lines.append(
                f"  ts={point.get('ts')} fraction={point.get('fraction')} "
                f"rows={point.get('rows_total')} "
                f"remaining_work={point.get('est_remaining_work')}"
            )
    return "\n".join(lines)
