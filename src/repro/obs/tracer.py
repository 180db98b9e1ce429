"""Structured tracing on the virtual clock.

A :class:`Tracer` collects typed records — instantaneous *events* and
duration *spans* — from every layer of the system: query lifecycle
phases, per-operator ``next_batch()`` spans (sampled) and exact
per-operator ``op.stats``, checkpoint and contract activity, suspend-plan optimization with the MIP's per-operator
DumpState-vs-GoBack decisions, scheduler quanta and pressure-policy
victim selection, and durable-image commit steps.

Design constraints, in order:

1. **Zero hot-path cost when disabled, and no second path when
   enabled.** Every site first checks ``tracer.enabled`` (or, in
   ``Operator.next_batch``, the sampling period each operator resolved
   at construction; ``Operator.next`` has no tracer test); the default
   :class:`NullTracer` is a singleton of no-op methods, so an untraced
   run executes the same work as one built before this module existed,
   and a traced run takes the same execution path as an untraced one.
2. **Determinism.** Timestamps come from the *virtual* clock, records
   carry per-operator sequence numbers (never ``id()`` or the global
   checkpoint/contract counters), and the JSONL export sorts keys — two
   runs of the same recipe produce byte-identical traces.
3. **Zero dependencies.** Plain dicts in a list; exporters live in
   :mod:`repro.obs.export`.

Context propagation uses :meth:`Tracer.bind`: a bound tracer shares its
parent's record sink and metrics registry but carries default fields
(e.g. ``query="q_lo"``) and a clock, so deeply nested components emit
fully-attributed records without threading arguments everywhere. The
module-level default (:func:`current_tracer` / :func:`use_tracer`) lets
the CLI switch a whole command run to tracing without changing any
intermediate call signature.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Optional

from repro.obs.metrics import MetricsRegistry

#: Version of the trace record schema (see docs/PROTOCOL.md section 7).
TRACE_FORMAT_VERSION = 3


def make_trace_id(*parts) -> str:
    """Deterministic trace identity from stable inputs.

    One logical query keeps one ``trace_id`` across processes, continuation
    hops, and suspend/resume cycles, so the id must be derivable from the
    query's durable identity (name, plan spec, shard-set gid, ...) — never
    from wall clock, ``id()``, or random state. Sixteen hex chars of
    SHA-256 over the ``\\x1f``-joined string forms keeps records short
    while making cross-query collisions implausible.
    """
    joined = "\x1f".join(str(p) for p in parts)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


class _Sink:
    """Shared record store behind one tracer and all its bindings."""

    __slots__ = ("records", "metrics", "_seq")

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.records: list[dict] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._seq = 0

    def next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq


class Tracer:
    """Collects trace records; cheap to bind, deterministic to export."""

    __slots__ = ("_sink", "_clock", "_fields", "next_sample_every", "trace_next")

    enabled = True

    def __init__(
        self,
        next_sample_every: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        _sink: Optional[_Sink] = None,
        _clock=None,
        _fields: Optional[dict] = None,
    ):
        self._sink = _sink if _sink is not None else _Sink(metrics)
        self._clock = _clock
        self._fields = _fields or {}
        self.next_sample_every = next_sample_every
        self.trace_next = next_sample_every > 0
        if _sink is None:
            # Root tracer: open the trace with its schema version so any
            # consumer can validate before trusting field layouts.
            self.event("trace.meta", ts=0.0, version=TRACE_FORMAT_VERSION)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def records(self) -> list[dict]:
        return self._sink.records

    @property
    def metrics(self) -> MetricsRegistry:
        return self._sink.metrics

    def now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    # ------------------------------------------------------------------
    # Context propagation
    # ------------------------------------------------------------------
    def bind(self, clock=None, **fields) -> "Tracer":
        """A tracer sharing this sink, with extra default fields/clock."""
        merged = dict(self._fields)
        merged.update((k, v) for k, v in fields.items() if v is not None)
        return Tracer(
            next_sample_every=self.next_sample_every,
            _sink=self._sink,
            _clock=clock if clock is not None else self._clock,
            _fields=merged,
        )

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def event(self, etype: str, ts: Optional[float] = None, **fields) -> dict:
        """Record one instantaneous event and return the record."""
        record = {
            "type": etype,
            "ts": round(ts if ts is not None else self.now(), 6),
            "seq": self._sink.next_seq(),
        }
        record.update(self._fields)
        record.update(fields)
        self._sink.records.append(record)
        return record

    def adopt(self, records) -> None:
        """Append records another tracer emitted (a shard worker's, in its
        own process): each gets this tracer's default fields under its
        own and the next ``seq`` of this sink, exactly as if it had been
        emitted here."""
        for foreign in records:
            record = dict(self._fields)
            record.update(foreign)
            record["seq"] = self._sink.next_seq()
            self._sink.records.append(record)

    @contextmanager
    def span(self, etype: str, **fields):
        """Record a duration span around a block.

        Yields the record dict so the block can attach result fields
        (e.g. rows produced, final status). The span's ``dur`` is the
        virtual time elapsed inside the block; the record is appended on
        exit, even when the block raises (the suspend exception included).
        """
        start = self.now()
        record = {"type": etype, "ts": round(start, 6)}
        record.update(self._fields)
        record.update(fields)
        try:
            yield record
        finally:
            record["dur"] = round(self.now() - start, 6)
            record["seq"] = self._sink.next_seq()
            self._sink.records.append(record)


class NullTracer(Tracer):
    """The disabled tracer: every operation is a no-op.

    A single shared instance (:data:`NULL_TRACER`) is the default
    everywhere, so the hot path pays one attribute check and nothing
    else. It deliberately has no sink: binding returns itself, and the
    rare caller that reads ``metrics`` off it gets a throwaway registry
    nobody exports.
    """

    __slots__ = ()

    enabled = False

    def __init__(self):
        pass

    @property
    def records(self) -> list[dict]:
        return []

    @property
    def metrics(self) -> MetricsRegistry:
        return MetricsRegistry()

    @property
    def next_sample_every(self) -> int:  # type: ignore[override]
        return 0

    @property
    def trace_next(self) -> bool:  # type: ignore[override]
        return False

    def now(self) -> float:
        return 0.0

    def bind(self, clock=None, **fields) -> "NullTracer":
        return self

    def event(self, etype, ts=None, **fields):
        return None

    def adopt(self, records) -> None:
        pass

    @contextmanager
    def span(self, etype, **fields):
        yield {}


#: The process-wide disabled tracer.
NULL_TRACER = NullTracer()

_current: Tracer = NULL_TRACER


def current_tracer() -> Tracer:
    """The tracer newly created runtimes/schedulers/stores pick up."""
    return _current


def set_current_tracer(tracer: Optional[Tracer]) -> None:
    """Install (or, with None, clear) the process-default tracer."""
    global _current
    _current = tracer if tracer is not None else NULL_TRACER


@contextmanager
def use_tracer(tracer: Tracer):
    """Scope ``tracer`` as the process default for a ``with`` block."""
    global _current
    previous = _current
    _current = tracer
    try:
        yield tracer
    finally:
        _current = previous
