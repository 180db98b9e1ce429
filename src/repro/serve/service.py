"""QueryService: one request = one quantum, state lives in the token.

The transport-free heart of :mod:`repro.serve` — the HTTP front end
(:mod:`repro.serve.http`) and the load generator
(:mod:`repro.serve.loadgen`) both drive this class. It composes the
same :class:`~repro.service.core.ExecutorCore` as the in-process
scheduler, so the quantum step, durable spill (with delta chains), and
the obs wiring are shared; what changes is *when a query runs*: here the
client decides, one request at a time. A request's record leaves the
core when the request ends, so no other session is ever live beside it
and the pressure policy and ``memory_budget`` are never applied.

Request flow:

- :meth:`begin` admits a query under a name no ledger record of the
  image root holds yet, and runs its first quantum. If it
  completes, the response carries the rows and no token. Otherwise the
  query is suspended through the paper's machinery (budgeted plan, dump
  or go-back per operator), committed as a durable image, and the
  response carries this quantum's rows plus a continuation token. The
  in-memory SuspendedQuery is **dropped** — the image is the only
  resume path, which is what makes the server stateless per request and
  the token valid in any process over the same image root.
- :meth:`continue_query` redeems the token (at most once, durable
  ledger), loads the image, rebuilds the request's record from the two
  — the same path in any process — resumes, runs one quantum, and either
  finishes or suspends again — this time as a *delta image* against the
  previous one, since the unchanged operator state is already durable.
  The new token supersedes the old image's GC pin.

Completion garbage-collects the whole image chain and releases its pin;
an abandoned token keeps its chain pinned until an operator runs
``repro.cli images gc`` against a keep-set or the client returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ReproError
from repro.core.lifecycle import QueryStatus
from repro.engine.plan import PlanSpec
from repro.serve.tokens import ContinuationToken, TokenManager
from repro.service.core import ExecutorCore, QueryRecord, SchedulerConfig
from repro.service.trace import QueryArrival
from repro.storage.database import Database


#: The serving front end takes the one scheduler config; the listen
#: address is :func:`~repro.serve.http.run_server`'s own.
ServeConfig = SchedulerConfig


@dataclass
class ServeResult:
    """What one request produced (the JSON body, as a dataclass)."""

    query: str
    #: ``"running"`` (token present) or ``"done"`` (rows complete).
    status: str
    rows: list = field(default_factory=list)
    token: Optional[str] = None
    image_id: Optional[str] = None
    #: Base of the spill image when this suspend committed a delta.
    base_image_id: Optional[str] = None
    #: How many times this query has been suspended so far.
    seq: int = 0
    #: Virtual-clock time consumed by this request.
    elapsed: float = 0.0

    @property
    def done(self) -> bool:
        return self.status == "done"

    def as_dict(self) -> dict:
        return {
            "query": self.query,
            "status": self.status,
            "rows": [list(r) for r in self.rows],
            "token": self.token,
            "image_id": self.image_id,
            "base_image_id": self.base_image_id,
            "seq": self.seq,
            "elapsed": round(self.elapsed, 6),
        }


class QueryService(ExecutorCore):
    """Serve queries one request-quantum at a time, tokens in between."""

    def __init__(self, db: Database, config: Optional[SchedulerConfig] = None):
        super().__init__(db, config)
        if self.image_store is None:
            raise ReproError(
                "serving requires a durable image store: pass "
                "SchedulerConfig(suspend=SuspendSpec(persist_to=...))"
            )
        self.tokens = TokenManager(self.image_store)
        #: Latest progress document per query, for ``/obs/progress``.
        self._progress: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # The two requests
    # ------------------------------------------------------------------
    def begin(
        self, name: str, plan: PlanSpec, priority: int = 0
    ) -> ServeResult:
        """Admit a new query and run its first quantum.

        A name the image root's ledger already holds is refused before
        any work: its images and tokens would collide with the ones that
        query minted, in this process or any other.
        """
        if self.image_store.reserved(name):
            raise ReproError(
                f"query name {name!r} is already in use on this image root"
            )
        record = self.track(
            QueryArrival(name, plan, self.db.now, priority)
        )
        self.admit(record)
        return self._serve(record, kind="begin")

    def continue_query(self, token_text: str) -> ServeResult:
        """Redeem a continuation token and run the next quantum.

        The request's record is built from the token and the image it
        names, whichever process served the hops before: the image
        carries plan, state and priority, the token the hop count, the
        trace id and the rows delivered so far. A continue is not an
        admission.

        Raises :class:`~repro.serve.tokens.TokenError` subclasses for a
        malformed, already-redeemed, or expired token — the transport
        maps them to 400/409/410.
        """
        token = self.tokens.redeem(token_text)
        sq = self.image_store.load(token.image_id)
        meta = self.image_store.manifest(token.image_id)["meta"]
        record = self.track(
            QueryArrival(
                token.query, None, self.db.now, meta.get("priority", 0)
            )
        )
        record.sq = sq
        record.image_id = token.image_id
        record.stats.suspends = token.seq
        record.rows_offset = token.rows_total
        if token.trace_id is not None:
            record.trace_id = token.trace_id
        if self.fold_manager is not None:
            record.fold = self.fold_manager.binding(record.name)
        return self._serve(record, kind="continue")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _serve(self, record: QueryRecord, kind: str) -> ServeResult:
        """Run one request for a tracked record. The record leaves the
        core when the request ends — finished, suspended or raised — and
        takes its session and SuspendedQuery with it."""
        try:
            if record.sq is None:
                self.start_session(record)
            else:
                self.adopt_resumed_session(
                    record, self.open_resumed_session(record)
                )
            return self._step(record, kind)
        except BaseException:
            if self.fold_manager is not None:
                self.fold_manager.forget(record.name)
            raise
        finally:
            if record.session is not None:
                record.session.close()
            if record.sq is not None:
                record.sq.release()
            self.records.remove(record)

    def _step(self, record: QueryRecord, kind: str) -> ServeResult:
        start = self.db.now
        quantum = self.run_quantum(record)
        if not self.tracer.enabled and record.session is not None:
            # run_quantum snapshots progress only when tracing; the live
            # endpoint wants it either way, and the session is gone once
            # the query suspends below.
            self.note_progress(record, emit=False)
        token = image_id = base_image_id = None
        if quantum.status is not QueryStatus.COMPLETED:
            previous = record.image_id
            # Stateless per request: the image the token names is the
            # only resume path; the in-memory copy goes with the record.
            self.suspend_victims([record])
            image_id = record.image_id
            token = self.tokens.issue(
                record.name,
                image_id,
                record.stats.suspends,
                release=previous,
                trace_id=record.trace_id,
                rows_total=record.rows_total,
            )
            # What actually got committed (None again after a MAX_CHAIN
            # rebase), not what was merely requested.
            base_image_id = self.image_store.manifest(image_id).get(
                "base_image_id"
            )
        result = ServeResult(
            query=record.name,
            status="done" if token is None else "running",
            rows=quantum.rows,
            token=token,
            image_id=image_id,
            base_image_id=base_image_id,
            seq=record.stats.suspends,
            elapsed=self.db.now - start,
        )
        if self.tracer.enabled:
            self.tracer.event(
                "serve.request",
                query=record.name,
                trace_id=record.trace_id,
                kind=kind,
                status=result.status,
                rows=len(result.rows),
                seq=result.seq,
                elapsed=round(result.elapsed, 6),
            )
            self.tracer.metrics.counter(
                "serve_requests_total", kind=kind
            ).inc()
            self.tracer.metrics.histogram(
                "serve_request_latency"
            ).observe(result.elapsed)
        self._stash_progress(record, result)
        return result

    def _stash_progress(self, record: QueryRecord, result: ServeResult):
        """Remember the hop's progress for ``/obs/progress/<token>``.

        The snapshot itself was taken at the quantum boundary (while the
        session was still live); this just shapes the JSON document.
        """
        snapshot = record.last_progress
        doc: dict = {
            "query": record.name,
            "status": result.status,
            "seq": result.seq,
            "trace_id": record.trace_id,
            "rows_total": record.rows_total,
            "token": result.token,
        }
        if result.done:
            doc["fraction"] = 1.0
            doc["est_remaining_work"] = 0.0
            doc["est_remaining_bytes"] = 0
        elif snapshot is not None:
            # The snapshot's query and rows_total are the record's.
            doc.update(snapshot.as_dict(include_operators=False))
        self._progress[record.name] = doc

    def progress_of(self, token_text: str) -> dict:
        """Latest progress for the query a token names (no redemption).

        Raises :class:`~repro.serve.tokens.TokenError` for a malformed
        token and :class:`KeyError` for a query this server has not
        served — the transport maps those to 400 and 404.
        """
        token = ContinuationToken.decode(token_text)
        doc = self._progress.get(token.query)
        if doc is None:
            raise KeyError(token.query)
        out = dict(doc)
        out["current"] = doc.get("token") == token.encode()
        out.pop("token", None)
        return out

    def complete(self, record: QueryRecord) -> None:
        # The completing request's redeemed token still pins the image;
        # release it so the core's chain GC can actually collect.
        if record.image_id is not None:
            self.tokens.release(record.image_id)
        super().complete(record)


__all__ = ["QueryService", "ServeConfig", "ServeResult"]
