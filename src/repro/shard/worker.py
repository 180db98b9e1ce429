"""The shard worker: one engine instance per shard.

The coordinator never touches a shard's database or session directly —
everything goes through an :class:`InProcessShardWorker`, whose
operations take and return plain values (rows, dicts, floats). In
process mode the same class runs in a child process and
:class:`~repro.shard.worker_proc.ProcessShardWorker` forwards each call
to it by name over a pipe, so the coordinator, the suspend protocol, the
trace and the tests are identical for both worker kinds.

The worker owns a shard-local :class:`Database` (its own virtual clock —
shards run "in parallel", so global elapsed time is the max over shard
clocks, not the sum) and drives a :class:`QuerySession` per fragment.
Suspend goes through the session's normal spec-driven path, so a shard
image is byte-for-byte the image a single-engine suspend of the same
fragment would commit.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.common.errors import ShardError
from repro.core.costs import build_cost_model
from repro.core.lifecycle import QuerySession, QueryStatus, SuspendSpec
from repro.core.optimizer import estimate_plan_cost, optimal_plan
from repro.core.strategies import all_goback_plan
from repro.durability.faults import FaultInjector
from repro.durability.store import ImageStore
from repro.engine.config import EngineConfig
from repro.engine.plan import PlanSpec
from repro.obs.tracer import NULL_TRACER
from repro.relational.schema import Schema
from repro.storage.database import Database


class InProcessShardWorker:
    """One shard's engine (see module docstring)."""

    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        db: Database,
        config: Optional[EngineConfig] = None,
        tracer=None,
    ):
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.db = db
        self.config = config or EngineConfig()
        base = tracer if tracer is not None else NULL_TRACER
        #: Shard-tagged tracer bound to this shard's virtual clock, so
        #: every engine event the fragment emits carries ``shard=k``.
        self.tracer = base.bind(clock=db.disk.clock, shard=shard_id)
        self.session: Optional[QuerySession] = None
        self._fault: Optional[tuple[str, str]] = None
        #: Rows this fragment has emitted across every suspend/resume
        #: cycle (restored from image meta on resume — in-process
        #: counters restart at zero, the fragment's progress must not).
        self._rows_total = 0

    # -- channels ------------------------------------------------------
    def create_channel_table(
        self, name: str, column_names, bytes_per_tuple: int, rows
    ) -> None:
        schema = Schema.of(list(column_names), bytes_per_tuple=bytes_per_tuple)
        table = self.db.create_table(name, schema, rows=list(rows))
        # bulk_load is uncharged (it models the initial base-table load);
        # materializing shuffled rows is real work — charge the writes.
        self.db.disk.write_pages(table.num_pages)

    # -- execution -----------------------------------------------------
    def start_fragment(self, spec: PlanSpec) -> None:
        if self.session is not None:
            raise ShardError(f"shard {self.shard_id} already has a fragment")
        self._rows_total = 0
        self.session = QuerySession(
            self.db,
            spec,
            config=self.config,
            name=f"shard{self.shard_id}",
            tracer=self.tracer,
        )

    def run_quantum(self, max_rows: int) -> dict:
        session = self._require_session()
        result = session.execute(max_rows=max_rows)
        self._rows_total += len(result.rows)
        done = session.status is QueryStatus.COMPLETED
        if done:
            session.close()
            self.session = None
        return {"rows": result.rows, "done": done}

    def progress(self) -> dict:
        """This fragment's progress snapshot (see
        :mod:`repro.obs.progress`); ``fraction`` is 1.0 once done."""
        from repro.obs.progress import query_progress

        if self.session is None:
            return {
                "shard": self.shard_id,
                "fraction": 1.0,
                "rows_total": self._rows_total,
                "est_rows": float(self._rows_total),
                "work_done": 0.0,
            }
        offset = self._rows_total - self.session.root.tuples_emitted
        snapshot = query_progress(self.session, rows_offset=offset)
        return {
            "shard": self.shard_id,
            "fraction": snapshot.fraction,
            "rows_total": snapshot.rows_total,
            "est_rows": round(snapshot.est_rows, 2),
            "work_done": round(snapshot.work_done, 6),
        }

    # -- suspend / resume ----------------------------------------------
    def estimate_suspend_cost(self) -> dict:
        """Unbudgeted-LP and all-GoBack suspend-cost estimates.

        ``est`` is what this shard would spend with no budget pressure;
        ``floor`` is the cheapest valid suspend (every operator going
        back to a contract dumps only control state). The coordinator
        uses the pair to split a global budget across shards.
        """
        session = self._require_session()
        model = build_cost_model(session.runtime)
        lp = optimal_plan(model)
        floor = all_goback_plan(model.topology())
        return {
            "est": estimate_plan_cost(lp, model).suspend,
            "floor": estimate_plan_cost(floor, model).suspend,
        }

    def suspend_to_image(
        self,
        root: str,
        image_id: str,
        budget: float = math.inf,
        meta: Optional[dict] = None,
    ) -> dict:
        session = self._require_session()
        injector = FaultInjector()
        if self._fault is not None:
            kind, point = self._fault
            if kind == "crash":
                injector = FaultInjector.crashing_at(point)
            elif kind == "torn":
                injector = FaultInjector.tearing(point)
            else:
                raise ShardError(f"unknown fault kind {kind!r}")
        store = ImageStore(root, injector=injector)
        # The fragment's cumulative row count rides in the image meta so
        # a resuming process (this one or a fresh child) can keep its
        # progress fraction monotone.
        meta = dict(meta or {})
        meta["rows_total"] = self._rows_total
        # The image is the fragment's one resume path.
        session.suspend(
            SuspendSpec(
                budget=budget,
                persist_to=store,
                image_id=image_id,
                image_meta=meta,
            )
        ).release()
        info = session.last_image
        self.session = None
        return {
            "image_id": info.image_id,
            "suspend_cost": session.last_suspend_cost,
            "total_bytes": info.total_bytes,
        }

    def resume_fragment(self, root: str, image_id: str) -> dict:
        if self.session is not None:
            raise ShardError(f"shard {self.shard_id} already has a fragment")
        if self._fault == ("crash", "resume"):
            raise ShardError(
                f"injected crash: shard {self.shard_id} died mid-resume"
            )
        store = ImageStore(root)
        sq = store.load(image_id)
        self._rows_total = int(
            (store.manifest(image_id).get("meta") or {}).get("rows_total", 0)
        )
        self.session = QuerySession.resume(
            self.db,
            sq,
            config=self.config,
            name=f"shard{self.shard_id}",
            tracer=self.tracer,
        )
        sq.release()
        return {"resume_cost": self.session.last_resume_cost}

    def arm_fault(self, kind: str, point: str) -> None:
        self._fault = (kind, point)

    # -- misc ------------------------------------------------------------
    def now(self) -> float:
        return self.db.now

    def memory_in_use(self) -> int:
        if self.session is None:
            return 0
        return self.session.runtime.memory_in_use()

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def _require_session(self) -> QuerySession:
        if self.session is None:
            raise ShardError(f"shard {self.shard_id} has no active fragment")
        return self.session
