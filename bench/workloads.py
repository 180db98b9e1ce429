"""The four workloads: inputs from a seed, a deterministic op sequence,
and verification against an uninterrupted solo run made in the same run.

Every workload is a closed loop with one operation in flight. The round
driver (:mod:`bench.round`) calls ``prepare()`` (untimed), ``op()``
(timed) and the returned ``check`` (untimed) in turn, for as long as the
round's time budget lasts; the sequence of operations is a pure function
of the seed, so operation *i* is the same work in every run.

Why these four — they stress different layers, so a change to one layer
has a workload that exercises it and one that bypasses it:

- ``serve_hops``: the continuation-token path over real HTTP. Small
  images in many files: dominated by ``durability.store`` file, fsync,
  pin and ledger churn, with the engine a minority share.
- ``image_cycle``: the same durability layer used the opposite way —
  few files, large images: bytes, codec2 encode/decode and the
  suspend-plan solve dominate.
- ``engine_batch``: no suspends and no image root; the default batch
  execution path alone.
- ``engine_traced``: the identical op sequence with ``repro.obs``
  tracing on, which forces the row path.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import threading
from collections import deque
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional

from repro.core.lifecycle import (
    QuerySession,
    QueryStatus,
    SuspendSpec,
    SuspendStrategy,
)
from repro.durability.store import ImageStore
from repro.engine.plan import (
    FilterSpec,
    HashGroupAggSpec,
    HybridHashJoinSpec,
    NLJSpec,
    ProjectSpec,
    ScanSpec,
    SimpleHashJoinSpec,
    SortSpec,
)
from repro.obs.tracer import Tracer, use_tracer
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import EquiJoinCondition, UniformSelect
from repro.serve.http import ServeApp, serve_async
from repro.serve.service import QueryService, ServeConfig
from repro.storage.database import Database
from repro.workloads.plans import build_complex_plan, serve_catalog

from bench.layers import OP_SPAN

#: Warm-up operations before timing starts (fixed counts: the first timed
#: operation is the same operation in every run).
WARMUP_OPS = {
    "serve_hops": 36,
    "image_cycle": 6,
    "engine_batch": 7,
    "engine_traced": 7,
}

#: Count metrics (fsyncs, bytes, pages, virtual clock) are means over the
#: first this-many timed operations of a traced round, which it runs
#: whatever its time budget — so they repeat exactly for a seed however
#: fast the machine is.
COUNT_WINDOW = {
    "serve_hops": 60,
    "image_cycle": 40,
    "engine_batch": 14,
    "engine_traced": 14,
}


#: The timed operation after which a round reads its peak memory; every
#: round runs at least this many.
RSS_AT_OPS = {
    "serve_hops": 100,
    "image_cycle": 29,
    "engine_batch": 21,
    "engine_traced": 14,
}


@dataclass
class OpResult:
    """What one timed operation did."""

    #: Short label of the operation, folded into the op-sequence digest.
    kind: str
    #: Result rows delivered to the caller by this operation.
    rows: int
    #: Time to a new query's first result, when this op produced one.
    first_ns: int = 0
    #: Untimed verification of this operation's output; False = wrong.
    check: Optional[Callable[[], bool]] = None


def solo_rows(db: Database, plan) -> list:
    """The plan's uninterrupted output on a fresh database."""
    session = QuerySession(db, plan, name="solo")
    rows: list = []
    while True:
        result = session.execute(max_rows=4096)
        rows.extend(result.rows)
        if result.status is QueryStatus.COMPLETED:
            break
    session.close()
    return rows


#: The seed selects the table contents, one of this many variants
#: (``seed`` modulo it). Kept small on purpose: the program has a
#: data-dependent resume defect (see bench/README.md, "Findings"), a run
#: may contain no failing operation, and a small set of variants is one
#: that was checked end to end on every workload. The order of
#: operations does not depend on the seed, so every seed measures the
#: same mix of work.
DATA_VARIANTS = 8


class Workload:
    """What the round driver needs of a workload (defaults = nothing)."""

    #: Name of the root span of a timed operation.
    op_span = OP_SPAN
    #: ``repro.obs`` records emitted by the ops so far (engine_traced).
    tracer_records = 0
    #: Where ``finish`` left state for a follow-up process, if it did.
    handoff_path: Optional[str] = None
    #: The database whose virtual clock and counters the next op charges.
    db: Optional[Database] = None

    def setup(self) -> None:
        """Build inputs, references and servers (untimed, once)."""

    def prepare(self) -> None:
        """Untimed work before the next operation."""

    def op(self) -> OpResult:
        """The next operation of the sequence (timed)."""
        raise NotImplementedError

    def finish(self, final: bool) -> tuple[int, list[str]]:
        """End-of-round checks: ``(checks made, problems found)``."""
        return 0, []

    def close(self) -> None:
        """Stop whatever ``setup`` started."""


# ----------------------------------------------------------------------
# engine_batch / engine_traced
# ----------------------------------------------------------------------
class EngineWorkload(Workload):
    """Six plan shapes, each run to completion; one op = one query.

    ``agg`` runs twice per cycle of seven: with an odd number of equally
    frequent samples groups the pooled median lands inside a group of
    samples (on the batch path and on the row path alike), not in the
    gap between two plan shapes where it would wander.
    """

    def __init__(self, seed: int, obs: bool):
        self.seed = seed
        self.obs = obs
        self.pos = 0

    def setup(self) -> None:
        seed = self.seed % DATA_VARIANTS
        self.tables = {
            "W": generate_uniform_table(24_000, seed=seed),
            "R": generate_uniform_table(12_000, seed=seed + 1),
            "P": generate_uniform_table(10_000, seed=seed + 5),
            "Q": generate_uniform_table(4_000, seed=seed + 2),
            "S": generate_uniform_table(1_500, seed=seed + 3),
            "T": generate_uniform_table(300, seed=seed + 4),
        }
        probe = FilterSpec(ScanSpec("P"), UniformSelect(1, 0.6))
        on_key = EquiJoinCondition(0, 0, modulus=1_000)
        plans = {
            "sfp": ProjectSpec(
                FilterSpec(ScanSpec("W"), UniformSelect(1, 0.5)),
                columns=(2, 0),
            ),
            "shj": SimpleHashJoinSpec(
                build=ScanSpec("S"),
                probe=probe,
                condition=on_key,
                num_partitions=8,
            ),
            "hhj": HybridHashJoinSpec(
                build=ScanSpec("S"),
                probe=probe,
                condition=on_key,
                num_partitions=8,
                memory_partitions=2,
            ),
            "agg": HashGroupAggSpec(
                ScanSpec("R"),
                group_columns=(1,),
                agg_func="sum",
                agg_column=0,
                num_partitions=8,
            ),
            "sort": SortSpec(
                FilterSpec(ScanSpec("Q"), UniformSelect(1, 0.8)),
                key_columns=(0,),
                buffer_tuples=500,
            ),
            "nlj_sort": NLJSpec(
                outer=SortSpec(
                    FilterSpec(ScanSpec("S"), UniformSelect(1, 0.8)),
                    key_columns=(0,),
                    buffer_tuples=300,
                ),
                inner=ScanSpec("T"),
                condition=EquiJoinCondition(0, 0, modulus=100),
                buffer_tuples=300,
            ),
        }
        order = ["sfp", "shj", "hhj", "agg", "sort", "nlj_sort", "agg"]
        self.cycle = [(n, plans[n]) for n in order]
        self.reference = {
            name: solo_rows(self._fresh_db(), plan)
            for name, plan in plans.items()
        }

    def _fresh_db(self) -> Database:
        db = Database()
        for name, rows in self.tables.items():
            db.create_table(name, BASE_SCHEMA, rows)
        return db

    def prepare(self) -> None:
        # Completed sorts leave their sublists in the state store, so a
        # database shared by every op would grow with the op count.
        if self.pos % len(self.cycle) == 0:
            self.db = self._fresh_db()

    def op(self) -> OpResult:
        name, plan = self.cycle[self.pos % len(self.cycle)]
        self.pos += 1
        if not self.obs:
            rows, first_ns = self._run(plan)
        else:
            with use_tracer(Tracer(next_sample_every=64)) as tracer:
                rows, first_ns = self._run(plan)
            self.tracer_records += len(tracer.records)
        reference = self.reference[name]
        return OpResult(
            name, len(rows), first_ns, check=lambda: rows == reference
        )

    def _run(self, plan) -> tuple[list, int]:
        start = perf_counter_ns()
        session = QuerySession(self.db, plan)
        result = session.execute(max_rows=4096)
        first_ns = perf_counter_ns() - start
        rows = result.rows
        while result.status is not QueryStatus.COMPLETED:
            result = session.execute(max_rows=4096)
            rows.extend(result.rows)
        session.close()
        return rows, first_ns


# ----------------------------------------------------------------------
# image_cycle
# ----------------------------------------------------------------------
#: Finite suspend budget, in virtual-clock units: large enough that a
#: valid plan always fits (no operation may fail), finite so the MIP
#: carries the budget row of Equation 7.
SUSPEND_BUDGET = 1.0e6


class ImageCycleWorkload(Workload):
    """suspend -> durable image -> load -> resume -> next slice.

    No HTTP, no tokens, one query at a time over three large-state
    plans. Every image is a full-size one (a resume re-imports the
    payloads under fresh keys, so nothing is shared with the base) in a
    handful of files, and every eighth save rebases the chain and
    collects the old one.
    """

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.root = os.path.join(workdir, "images")
        self.session: Optional[QuerySession] = None
        self.queries = 0

    def setup(self) -> None:
        seed = self.seed % DATA_VARIANTS
        self.store = ImageStore(self.root)
        sort_rows = generate_uniform_table(60_000, seed=seed)
        build_rows = generate_uniform_table(14_000, seed=seed + 1)
        probe_rows = generate_uniform_table(16_000, seed=seed + 2)

        def sort_db():
            db = Database()
            db.create_table("R", BASE_SCHEMA, sort_rows)
            db.catalog.set_predicate_selectivity("R", "uniform", 0.8)
            return db

        def join_db():
            db = Database()
            db.create_table("B", BASE_SCHEMA, build_rows)
            db.create_table("P", BASE_SCHEMA, probe_rows)
            return db

        complex_plan = build_complex_plan(scale=300, seed=seed + 3)[1]
        recipes = [
            # (name, db factory, plan, rows per slice)
            (
                "sort",
                sort_db,
                SortSpec(
                    FilterSpec(
                        ScanSpec("R", label="scan_R"),
                        UniformSelect(1, 0.8),
                        label="filter",
                    ),
                    key_columns=(0,),
                    buffer_tuples=10_000,
                    label="sort",
                ),
                4_000,
            ),
            (
                "hhj",
                join_db,
                HybridHashJoinSpec(
                    build=ScanSpec("B", label="scan_B"),
                    probe=ScanSpec("P", label="scan_P"),
                    condition=EquiJoinCondition(0, 0, modulus=7_000),
                    num_partitions=8,
                    memory_partitions=2,
                    label="hhj",
                ),
                3_200,
            ),
            (
                "complex",
                lambda: build_complex_plan(scale=300, seed=seed + 3)[0],
                complex_plan,
                220,
            ),
        ]
        self.recipes = recipes
        self.reference = {
            name: solo_rows(factory(), plan)
            for name, factory, plan, _ in recipes
        }

    def prepare(self) -> None:
        """Start the next query (its first slice) when none is running."""
        if self.session is not None:
            return
        name, factory, plan, slice_rows = self.recipes[
            self.queries % len(self.recipes)
        ]
        self.queries += 1
        self.query = name
        self.slice_rows = slice_rows
        self.db = factory()
        self.session = QuerySession(self.db, plan, name=f"q{self.queries}")
        self.rows = list(self.session.execute(max_rows=slice_rows).rows)
        self.image_id = None
        self.saves = 0
        if self.session.status is QueryStatus.COMPLETED:
            raise RuntimeError(f"{name} finished inside its first slice")

    def op(self) -> OpResult:
        store = self.store
        self.saves += 1
        self.session.suspend(
            SuspendSpec(
                strategy=SuspendStrategy.LP,
                budget=SUSPEND_BUDGET,
                persist_to=store,
                base_image_id=self.image_id,
                image_id=f"q{self.queries}-s{self.saves}",
            )
        )
        info = self.session.last_image
        if self.image_id is not None and info.base_image_id is None:
            # max_chain rebase: the old chain backs nothing any more.
            store.delete_chain(self.image_id)
        self.image_id = info.image_id
        start = perf_counter_ns()
        sq = store.load(self.image_id)
        self.session = QuerySession.resume(
            self.db, sq, name=f"q{self.queries}"
        )
        result = self.session.execute(max_rows=self.slice_rows)
        first_ns = perf_counter_ns() - start
        self.rows.extend(result.rows)
        if result.status is not QueryStatus.COMPLETED:
            return OpResult(self.query, len(result.rows), first_ns)
        self.session.close()
        self.session = None
        store.delete_chain(self.image_id)
        rows, reference = self.rows, self.reference[self.query]
        return OpResult(
            self.query + "-done",
            len(result.rows),
            first_ns,
            check=lambda: rows == reference,
        )

    def finish(self, final: bool) -> tuple[int, list[str]]:
        """The query in flight must be a prefix of its solo output, and
        the image root must hold nothing torn or orphaned."""
        problems = []
        if self.session is not None:
            reference = self.reference[self.query]
            if self.rows != reference[: len(self.rows)]:
                problems.append(f"{self.query}: in-flight rows diverge")
        report = self.store.recover()
        if report.torn or report.orphaned:
            problems.append(f"image root not clean: {report.as_dict()}")
        return 2, problems


# ----------------------------------------------------------------------
# serve_hops
# ----------------------------------------------------------------------
#: Sessions holding an outstanding token at any moment.
SERVE_SESSIONS = 12
SERVE_SCALE = 8
SERVE_QUANTUM_ROWS = 32


class _ServerThread:
    """``serve_async`` on an ephemeral loopback port, on its own loop."""

    def __init__(self, app: ServeApp):
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._app = app
        self.port = 0
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("HTTP server did not start")

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.server = self.loop.run_until_complete(
            serve_async(self._app, "127.0.0.1", 0)
        )
        self.port = self.server.sockets[0].getsockname()[1]
        self._ready.set()
        self.loop.run_forever()
        self.server.close()
        self.loop.run_until_complete(self.server.wait_closed())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise RuntimeError("HTTP server did not stop")


class ServeHopsWorkload(Workload):
    """Token hops over real HTTP; one op = one request.

    A fixed number of sessions hold an outstanding token; the client
    presents the oldest token, and a session that completes is replaced
    by a new one, so the request mix (begin / continue / completing
    continue) is at its steady state throughout the timed phase.
    """

    op_span = "serve.http"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.root = os.path.join(workdir, "images")
        self.started = 0
        self.outstanding: deque = deque()  # (session name, token)
        self.sessions: dict[str, dict] = {}
        self.server: Optional[_ServerThread] = None

    def setup(self) -> None:
        factory, catalog = serve_catalog(
            scale=SERVE_SCALE, seed=self.seed % DATA_VARIANTS
        )
        self.plan_names = sorted(catalog)
        self.reference = {
            name: solo_rows(factory(), catalog[name]) for name in catalog
        }
        service = QueryService(
            factory(),
            ServeConfig(
                quantum_rows=SERVE_QUANTUM_ROWS,
                suspend=SuspendSpec(persist_to=self.root),
            ),
        )
        self.db = service.db
        self.server = _ServerThread(ServeApp(service, catalog))

    def _post(self, path: str, body: dict) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=30
        )
        try:
            conn.request(
                "POST",
                path,
                body=json.dumps(body),
                headers={
                    "Content-Type": "application/json",
                    "Connection": "close",
                },
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def op(self) -> OpResult:
        begin = len(self.outstanding) < SERVE_SESSIONS
        start = perf_counter_ns()
        if begin:
            plan = self.plan_names[self.started % len(self.plan_names)]
            name = f"c{self.started:05d}-{plan}"
            self.started += 1
            self.sessions[name] = {"plan": plan, "rows": []}
            status, payload = self._post(
                "/queries", {"query": plan, "as": name}
            )
        else:
            name, token = self.outstanding.popleft()
            status, payload = self._post("/continue", {"token": token})
        elapsed = perf_counter_ns() - start
        if status != 200:
            raise RuntimeError(f"HTTP {status}: {payload.get('error')}")
        session = self.sessions[name]
        session["rows"].extend(tuple(r) for r in payload["rows"])
        kind = "begin" if begin else "continue"
        first_ns = elapsed if begin else 0
        if payload["status"] != "done":
            self.outstanding.append((name, payload["token"]))
            return OpResult(kind, len(payload["rows"]), first_ns)
        del self.sessions[name]
        rows, reference = session["rows"], self.reference[session["plan"]]
        return OpResult(
            kind + "-done",
            len(payload["rows"]),
            first_ns,
            check=lambda: rows == reference,
        )

    def finish(self, final: bool) -> tuple[int, list[str]]:
        """Sessions in flight must be prefixes of their solo output; on
        the run's final round they are then handed to a new process (the
        durability check, :func:`drain_outstanding`)."""
        problems = []
        for name, session in self.sessions.items():
            reference = self.reference[session["plan"]]
            rows = session["rows"]
            if rows != reference[: len(rows)]:
                problems.append(f"{name}: in-flight rows diverge")
        checks = len(self.sessions)
        self.close()
        if final:
            handoff = {
                "seed": self.seed,
                "root": self.root,
                "sessions": [
                    {
                        "name": name,
                        "token": token,
                        "plan": self.sessions[name]["plan"],
                        "rows": self.sessions[name]["rows"],
                    }
                    for name, token in self.outstanding
                ],
            }
            self.handoff_path = os.path.join(self.workdir, "handoff.json")
            with open(self.handoff_path, "w", encoding="utf-8") as fh:
                json.dump(handoff, fh)
        return checks, problems

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def drain_outstanding(handoff_path: str) -> dict:
    """The durability check, run in a process that never saw the server.

    A new ``QueryService`` over the same image root scans the root as a
    restarted server would (nothing torn or orphaned allowed) and redeems
    every outstanding token. The first session of each plan is carried
    to completion and must equal the solo run; the others run one hop,
    which must extend their rows along the solo run — finishing all
    twelve would cost more than the timed phase of a round.
    Returns ``{"attempted": n, "problems": [...]}``.
    """
    with open(handoff_path, encoding="utf-8") as fh:
        handoff = json.load(fh)
    factory, catalog = serve_catalog(
        scale=SERVE_SCALE, seed=handoff["seed"] % DATA_VARIANTS
    )
    solo = {name: solo_rows(factory(), catalog[name]) for name in catalog}
    service = QueryService(
        factory(),
        ServeConfig(
            quantum_rows=SERVE_QUANTUM_ROWS,
            suspend=SuspendSpec(persist_to=handoff["root"]),
        ),
    )
    problems = []
    report = service.image_store.recover()
    if report.torn or report.orphaned:
        problems.append(f"image root not clean: {report.as_dict()}")
    attempted = 0
    finished_plans = set()
    for session in handoff["sessions"]:
        plan = session["plan"]
        to_completion = plan not in finished_plans
        finished_plans.add(plan)
        rows = [tuple(r) for r in session["rows"]]
        token = session["token"]
        while token is not None:
            attempted += 1
            result = service.continue_query(token)
            rows.extend(result.rows)
            token = result.token if to_completion else None
        expected = solo[plan] if to_completion else solo[plan][: len(rows)]
        if rows != expected:
            problems.append(
                f"{session['name']}: rows differ from the solo run after "
                "a restart"
            )
    return {"attempted": attempted, "problems": problems}


def make_workload(name: str, seed: int, workdir: str):
    """The workload object for ``name`` (``engine_traced`` = obs on)."""
    if name == "serve_hops":
        return ServeHopsWorkload(seed, workdir)
    if name == "image_cycle":
        return ImageCycleWorkload(seed, workdir)
    if name in ("engine_batch", "engine_traced"):
        return EngineWorkload(seed, obs=name == "engine_traced")
    raise ValueError(f"unknown workload {name!r}")
