"""Observability: structured tracing, metrics, and trace exporters.

The paper's machinery — proactive checkpoint placement (Section 4),
contract-graph growth against the Theorem 1 bound, and the online MIP's
per-operator DumpState-vs-GoBack decisions (Section 5) — runs inside
operators where nothing external can see it. This package makes the
whole suspend/resume lifecycle observable:

- :class:`Tracer` (:mod:`repro.obs.tracer`) — typed span/event records
  on the virtual clock, a no-op :class:`NullTracer` default so untraced
  runs pay nothing, ``bind()`` context propagation, and ``adopt()`` for
  records emitted in another process (a process shard worker's come
  back with each call's reply, so a sharded run is one trace whatever
  the worker kind);
- :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — counters,
  gauges, fixed-bucket histograms; the scheduler's public stats are
  views over one of these;
- exporters (:mod:`repro.obs.export`) — deterministic JSONL, Chrome
  ``trace_event`` JSON (opens in Perfetto; shard records get one track
  per ``shard``), and a plain-text metrics snapshot.

Enable tracing for any block of code::

    from repro.obs import Tracer, use_tracer, write_jsonl

    tracer = Tracer(next_sample_every=64)
    with use_tracer(tracer):
        ...  # run sessions / schedulers as usual
    write_jsonl(tracer.records, "out.jsonl")

or pass a tracer explicitly to ``QuerySession(..., tracer=...)`` /
``SchedulerConfig(tracer=...)``. The CLI exposes the same via the
``--trace-out``/``--metrics`` flags and the ``repro trace summary |
convert | progress`` subcommands.
"""

from repro.obs.export import (
    load_trace,
    read_jsonl,
    render_summary,
    summarize,
    to_chrome_trace,
    trace_lines,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Summary,
)
from repro.obs.progress import (
    QueryProgress,
    emit_progress,
    estimate_cardinalities,
    progress_timeline,
    publish_progress,
    query_progress,
    render_progress,
)
from repro.obs.slo import jain_index, latency_summary, percentile
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_FORMAT_VERSION,
    NullTracer,
    Tracer,
    current_tracer,
    make_trace_id,
    set_current_tracer,
    use_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "QueryProgress",
    "Summary",
    "TRACE_FORMAT_VERSION",
    "Tracer",
    "current_tracer",
    "emit_progress",
    "estimate_cardinalities",
    "jain_index",
    "latency_summary",
    "load_trace",
    "make_trace_id",
    "percentile",
    "progress_timeline",
    "publish_progress",
    "query_progress",
    "read_jsonl",
    "render_progress",
    "render_summary",
    "set_current_tracer",
    "summarize",
    "to_chrome_trace",
    "trace_lines",
    "use_tracer",
    "write_chrome_trace",
    "write_jsonl",
]
