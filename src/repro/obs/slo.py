"""Service-level summaries: latency percentiles and fairness.

The serving layer and its load generator publish per-request latencies
(virtual-clock time inside one request) and per-session service totals.
This module turns those samples into the numbers the load generator
reports: p50/p99 latency and the Jain fairness index over what each
session received.

Everything here is pure arithmetic over the caller's samples — no
tracer, no registry — so the same functions serve tests, benchmarks,
and the CLI identically.
"""

from __future__ import annotations

from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches the "linear" / "inclusive" convention (numpy's default):
    rank ``(n - 1) * q / 100`` over the sorted samples.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 when every session received identical service, approaching
    ``1/n`` when one session received everything. Defined as 1.0 for
    zero or all-zero samples (nobody is being treated unfairly when
    nothing was served).
    """
    n = len(values)
    if n == 0:
        return 1.0
    total = float(sum(values))
    squares = float(sum(v * v for v in values))
    if squares == 0.0:
        return 1.0
    return (total * total) / (n * squares)


def latency_summary(values: Sequence[float]) -> dict:
    """The standard latency block: count, mean, p50/p90/p99, max."""
    if not values:
        return {
            "count": 0,
            "mean": 0.0,
            "p50": 0.0,
            "p90": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }
    return {
        "count": len(values),
        "mean": round(sum(values) / len(values), 6),
        "p50": round(percentile(values, 50), 6),
        "p90": round(percentile(values, 90), 6),
        "p99": round(percentile(values, 99), 6),
        "max": round(max(values), 6),
    }
