"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Everything here is deterministic by construction: histogram bucket
boundaries are fixed at creation (never adapted to the data), snapshots
iterate in sorted order, and values derive only from what the simulation
itself did — so two runs of the same recipe render byte-identical
snapshots.

The registry is intentionally tiny and dependency-free. It serves two
masters at once:

- the tracer (:mod:`repro.obs.tracer`) owns a registry and the engine
  hooks record pages read/written, heap bytes checkpointed, contract
  graph size vs. the Theorem 1 bound, suspend budget vs. actual, and
  resume redo work into it;
- the scheduler's :class:`~repro.service.stats.SchedulerStats` /
  :class:`~repro.service.stats.QueryStats` are *views over* a registry,
  so scheduler counters and tracer metrics are one set of numbers that
  can never disagree.
"""

from __future__ import annotations

from typing import Optional

#: Default histogram bucket upper bounds (virtual time units / pages /
#: bytes all share the same decade ladder). Fixed for determinism.
DEFAULT_BUCKETS = (
    1.0,
    2.0,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _format_labels(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """A numeric total. Normally monotonic; :meth:`set` exists so stats
    views can model resettable quantities (a killed query's emitted-row
    count restarts from zero)."""

    __slots__ = ("name", "labels", "value", "volatile")

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self.value = 0
        self.volatile = False

    def inc(self, amount=1):
        self.value += amount

    def set(self, value):
        self.value = value


class Gauge:
    """A point-in-time value (e.g. live contract-graph node count)."""

    __slots__ = ("name", "labels", "value", "volatile")

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self.value = 0
        self.volatile = False

    def set(self, value):
        self.value = value

    def max(self, value):
        """Retain the maximum observed value (peak tracking)."""
        if value > self.value:
            self.value = value


class Histogram:
    """Cumulative histogram over fixed bucket upper bounds."""

    __slots__ = (
        "name",
        "labels",
        "boundaries",
        "bucket_counts",
        "sum",
        "count",
        "volatile",
    )

    def __init__(self, name: str, labels: tuple, boundaries=DEFAULT_BUCKETS):
        if list(boundaries) != sorted(boundaries):
            raise ValueError("histogram boundaries must be sorted")
        self.name = name
        self.labels = labels
        self.boundaries = tuple(float(b) for b in boundaries)
        # One count per boundary plus the +inf overflow bucket.
        self.bucket_counts = [0] * (len(self.boundaries) + 1)
        self.sum = 0.0
        self.count = 0
        self.volatile = False

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.boundaries):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def value(self):
        """Summary pair used by generic snapshots."""
        return {"count": self.count, "sum": round(self.sum, 6)}


class Summary:
    """A sample-keeping metric with exact percentile readout.

    Unlike :class:`Histogram` (fixed buckets, O(1) memory) a Summary
    retains every observation, so its percentiles are exact — the same
    numbers :func:`repro.obs.slo.latency_summary` computes. The serving
    load generator publishes per-request latencies here so its report
    and ``/obs/metrics`` come from one source. Use for bounded sample
    counts (one observation per request of a bench run), not unbounded
    hot paths.
    """

    __slots__ = ("name", "labels", "samples", "volatile")

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self.samples: list[float] = []
        self.volatile = False

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def value(self) -> dict:
        # Imported lazily: slo is pure arithmetic but lives above metrics
        # in the module graph.
        from repro.obs.slo import latency_summary

        return latency_summary(self.samples)


class MetricsRegistry:
    """Named, labeled metrics with deterministic snapshots."""

    def __init__(self):
        self._metrics: dict[tuple, object] = {}

    def _get(self, cls, name: str, labels: dict, volatile=False, **kwargs):
        key = (cls.__name__, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, _label_key(labels), **kwargs)
            metric.volatile = volatile
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, volatile: bool = False, **labels) -> Counter:
        return self._get(Counter, name, labels, volatile=volatile)

    def gauge(self, name: str, volatile: bool = False, **labels) -> Gauge:
        return self._get(Gauge, name, labels, volatile=volatile)

    def histogram(
        self, name: str, boundaries=None, volatile: bool = False, **labels
    ) -> Histogram:
        if boundaries is None:
            return self._get(Histogram, name, labels, volatile=volatile)
        return self._get(
            Histogram, name, labels, volatile=volatile, boundaries=boundaries
        )

    def summary(self, name: str, volatile: bool = False, **labels) -> Summary:
        return self._get(Summary, name, labels, volatile=volatile)

    def total(self, name: str) -> float:
        """Sum of every counter value registered under ``name``.

        The aggregation primitive the scheduler stats derive their
        whole-run counters from — summing the per-query series means the
        aggregate cannot drift from the per-query numbers.
        """
        return sum(
            m.value
            for (kind, metric_name, _), m in self._metrics.items()
            if kind == "Counter" and metric_name == name
        )

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def as_dict(self, include_volatile: bool = False) -> dict:
        """Nested deterministic snapshot: kind -> series -> value.

        *Volatile* metrics carry wall-clock measurements (e.g. image
        encode seconds) and so vary between identical runs; they are
        excluded by default so the snapshot stays byte-deterministic, and
        included only when a consumer asks (CLI exports for humans).
        """
        out: dict[str, dict] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "summaries": {},
        }
        for (kind, name, labels), metric in sorted(self._metrics.items()):
            if metric.volatile and not include_volatile:
                continue
            series = f"{name}{_format_labels(labels)}"
            if kind == "Counter":
                out["counters"][series] = metric.value
            elif kind == "Gauge":
                out["gauges"][series] = metric.value
            elif kind == "Summary":
                out["summaries"][series] = metric.value
            else:
                out["histograms"][series] = {
                    "count": metric.count,
                    "sum": round(metric.sum, 6),
                    "buckets": {
                        ("+inf" if i == len(metric.boundaries) else repr(b)): c
                        for i, (b, c) in enumerate(
                            zip(
                                list(metric.boundaries) + [None],
                                metric.bucket_counts,
                            )
                        )
                    },
                }
        return out

    def render_text(self, include_volatile: bool = False) -> str:
        """Plain-text metrics snapshot (Prometheus-flavoured, sorted).

        Volatile (wall-clock) metrics are excluded unless asked for —
        this render is byte-compared across runs by the determinism
        tests, so only simulation-derived values may appear by default.
        """
        lines: list[str] = []
        for (kind, name, labels), metric in sorted(self._metrics.items()):
            if metric.volatile and not include_volatile:
                continue
            series = f"{name}{_format_labels(labels)}"
            if kind in ("Counter", "Gauge"):
                value = metric.value
                text = repr(value) if isinstance(value, float) else str(value)
                lines.append(f"{series} {text}")
            elif kind == "Summary":
                block = metric.value
                for stat in ("p50", "p90", "p99"):
                    q_labels = labels + (("quantile", stat[1:]),)
                    lines.append(
                        f"{name}{_format_labels(q_labels)} "
                        f"{repr(float(block[stat]))}"
                    )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} "
                    f"{repr(round(sum(metric.samples), 6))}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {metric.count}"
                )
            else:
                cumulative = 0
                for bound, count in zip(
                    list(metric.boundaries) + ["+Inf"], metric.bucket_counts
                ):
                    cumulative += count
                    label = bound if isinstance(bound, str) else repr(bound)
                    bucket_labels = labels + (("le", label),)
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_format_labels(labels)} {repr(metric.sum)}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)} {metric.count}"
                )
        return "\n".join(lines) + ("\n" if lines else "")
