"""Deterministic load generator for the continuation-token service.

Simulates N clients against one :class:`QueryService` — no sockets, no
wall clock — so the run is exactly reproducible: every client opens a
session (``begin``), then presents its continuation token round-robin
(``continue``) until its query completes. After the opening round every
unfinished client holds an outstanding token *simultaneously*, which is
the serving-layer notion of concurrency: the server itself keeps no
per-client state between requests.

What it measures, on the shared virtual clock:

- **per-request latency** (resume + quantum + suspend time inside one
  request), observed into a ``loadgen_request_latency`` Summary on the
  service's metrics registry — the *same* registry ``/obs/metrics``
  exposes, so the report and the live endpoint give identical
  numbers (p50/p99 via :mod:`repro.obs.slo`, computed once);
- **fairness**: the Jain index over each session's total service time,
  overall and per catalog plan;
- **determinism**: each session's concatenated rows are digested and
  compared against an uninterrupted solo run of the same plan on a
  fresh database — any divergence means suspend/resume through tokens
  changed query output, and the report says which sessions;
- **delta adoption**: how many continuations committed delta images
  rather than full ones, and — a delta that rewrites everything is a
  delta in name only — how many bytes those commits *reused* from their
  base chain against how many they wrote, per catalog plan.

Used by ``repro loadgen`` and ``tests/serve/test_loadgen.py``, which
fails on any determinism divergence and on delta hops that reuse less
than they write.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from repro.common.errors import ReproError
from repro.core.lifecycle import QuerySession, QueryStatus, SuspendSpec
from repro.obs.slo import jain_index
from repro.serve.service import QueryService, ServeConfig
from repro.workloads.plans import serve_catalog


def _digest(rows: list) -> str:
    """Byte-deterministic digest of a query's output rows, in order."""
    doc = json.dumps([list(r) for r in rows], separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _solo_digests(db_factory, catalog: dict) -> dict:
    """Digest of each plan's uninterrupted output on a fresh database."""
    digests = {}
    for name in sorted(catalog):
        db = db_factory()
        session = QuerySession(db, catalog[name], name=f"solo-{name}")
        rows: list = []
        while True:
            result = session.execute(max_rows=4096)
            rows.extend(result.rows)
            if result.status is QueryStatus.COMPLETED:
                break
        session.close()
        digests[name] = _digest(rows)
    return digests


def run_loadgen(
    image_root: str,
    sessions: int = 1000,
    scale: int = 8,
    seed: int = 1,
    quantum_rows: int = 32,
    tracer=None,
    plan_names: Optional[list] = None,
) -> dict:
    """Run the simulation; returns the report dict.

    Session ``i`` is named ``c<i>-<plan>``. Raises
    :class:`~repro.common.errors.ReproError` before the first request
    when the image root's ledger already holds one of those names (an
    earlier run on the same root served it).
    """
    db_factory, catalog = serve_catalog(scale=scale, seed=seed)
    if plan_names:
        catalog = {n: catalog[n] for n in plan_names}
    names = sorted(catalog)
    session_names = [f"c{i}-{names[i % len(names)]}" for i in range(sessions)]
    config = ServeConfig(
        quantum_rows=quantum_rows,
        suspend=SuspendSpec(persist_to=image_root),
        tracer=tracer,
    )
    service = QueryService(db_factory(), config)
    for session_name in session_names:
        if service.image_store.reserved(session_name):
            raise ReproError(
                f"session {session_name!r} was already served on image "
                f"root {image_root!r}; run on a fresh root"
            )
    solo = _solo_digests(db_factory, catalog)

    # Per-request latencies live in the registry, not an ad-hoc list:
    # the Summary keeps raw samples and computes p50/p90/p99 with the
    # slo module's math, so this report and /obs/metrics agree exactly.
    latency_metric = service.stats.registry.summary(
        "loadgen_request_latency"
    )
    per_session: dict[str, dict] = {}
    outstanding: list[tuple[str, str]] = []  # (session, token), FIFO
    full_commits = 0
    # Per plan, over its delta commits only: what they wrote and what
    # they referenced in the base chain instead.
    delta_hops = {
        plan: {"commits": 0, "written_bytes": 0, "reused_bytes": 0}
        for plan in names
    }

    def account(session_name: str, result) -> None:
        nonlocal full_commits
        entry = per_session[session_name]
        entry["rows"].extend(result.rows)
        entry["service_time"] += result.elapsed
        entry["requests"] += 1
        latency_metric.observe(result.elapsed)
        if result.done:
            entry["done"] = True
        else:
            outstanding.append((session_name, result.token))
            if result.base_image_id is not None:
                info = service.image_store.info(result.image_id)
                hops = delta_hops[entry["plan"]]
                hops["commits"] += 1
                hops["written_bytes"] += info.total_bytes
                hops["reused_bytes"] += info.reused_bytes
            else:
                full_commits += 1

    # Opening round: every client begins; unfinished ones now hold a
    # token at once — the peak-concurrency moment of the run.
    for i, session_name in enumerate(session_names):
        plan_name = names[i % len(names)]
        per_session[session_name] = {
            "plan": plan_name,
            "rows": [],
            "service_time": 0.0,
            "requests": 0,
            "done": False,
        }
        account(
            session_name,
            service.begin(session_name, catalog[plan_name]),
        )
    concurrent_peak = len(outstanding)

    # Steady state: clients return round-robin with their tokens.
    while outstanding:
        session_name, token = outstanding.pop(0)
        account(session_name, service.continue_query(token))

    divergent = sorted(
        name
        for name, entry in per_session.items()
        if _digest(entry["rows"]) != solo[entry["plan"]]
    )
    service_times = [e["service_time"] for e in per_session.values()]
    per_plan_fairness = {
        plan: jain_index(
            [
                e["service_time"]
                for e in per_session.values()
                if e["plan"] == plan
            ]
        )
        for plan in names
    }
    for hops in delta_hops.values():
        total = hops["written_bytes"] + hops["reused_bytes"]
        hops["reuse_ratio"] = (
            round(hops["reused_bytes"] / total, 6) if total else 0.0
        )
    report = {
        "sessions": sessions,
        "concurrent_peak": concurrent_peak,
        "requests": latency_metric.count,
        "quantum_rows": quantum_rows,
        "scale": scale,
        "seed": seed,
        "plans": names,
        "latency": latency_metric.value,
        "fairness": {
            "jain_service_time": round(jain_index(service_times), 6),
            "per_plan": {
                p: round(v, 6) for p, v in per_plan_fairness.items()
            },
        },
        "determinism": {
            "ok": not divergent,
            "solo_digests": solo,
            "divergent_sessions": divergent,
        },
        "images": {
            "delta_commits": sum(h["commits"] for h in delta_hops.values()),
            "full_commits": full_commits,
            "delta_hops": delta_hops,
        },
        "completed": sum(
            1 for e in per_session.values() if e["done"]
        ),
    }
    if tracer is not None and tracer.enabled:
        metrics = tracer.metrics
        metrics.gauge("serve_jain_index").set(
            report["fairness"]["jain_service_time"]
        )
        metrics.gauge("serve_latency_p50").set(report["latency"]["p50"])
        metrics.gauge("serve_latency_p99").set(report["latency"]["p99"])
        metrics.gauge("serve_concurrent_peak").set(concurrent_peak)
    return report


__all__ = ["run_loadgen"]
