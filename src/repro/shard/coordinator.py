"""The shard coordinator: staged execution and the consistent-cut suspend.

Execution model
---------------

The coordinator drives the stages of a :class:`ShardQueryPlan` in order.
Within a stage it interleaves the N shard fragments in fixed round-robin
*passes*: every pass gives each unfinished shard one quantum of
``quantum_rows`` output rows. Shuffle-stage output is routed into
per-destination channel buffers as it is produced; when the stage
finishes, the buffers are frozen into shard-local channel tables before
the consuming stage starts. Gather-stage output is delivered to the
client in pass order — a deterministic order, which is what makes
"suspend, recover, continue" produce byte-identical delivery to an
uninterrupted run.

Since each shard database owns its own virtual clock and shards run in
parallel, global elapsed time is the **max** over shard clocks.

The two-phase consistent-cut suspend (:meth:`suspend_global`)
-------------------------------------------------------------

Phase 1 — *quiesce and plan*. The coordinator only suspends at a pass
boundary, so every shard session sits at a safe point and every in-flight
batch is either inside a shard's operator state (covered by its image) or
in a channel buffer (covered by the cut image); the channels are
frozen by construction — nothing moves during the cut. Each running
shard then reports two MIP estimates: its unbudgeted-LP suspend cost and
its all-GoBack floor. The *global* budget is allocated per shard as
``floor_k + surplus * need_k / total_need`` — every shard can afford its
cheapest valid plan, and slack flows to the shards with the most state.

Phase 2 — *commit*. Each running shard runs its own suspend-plan MIP
against its allocated budget and commits an ordinary durable image
(``<gid>--s<k>``). When every member image is down, the coordinator
commits the cut — one more image, ``<gid>``, holding the coordinator
record and the channel buffers — whose rename is the single global
commit point. A crash anywhere before it leaves stranded member images
and **no** cut; recovery classifies, never guesses (see
:mod:`repro.shard.manifest`).
"""

from __future__ import annotations

import math
import uuid
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import (
    ShardError,
    SuspendBudgetInfeasibleError,
)
from repro.durability.faults import FaultInjector
from repro.durability.store import ImageStore
from repro.engine.config import EngineConfig
from repro.engine.plan import PlanSpec
from repro.obs.tracer import current_tracer, make_trace_id
from repro.shard.manifest import (
    MEMBER_DONE,
    MEMBER_RUNNING,
    load_cut,
    shard_image_id,
)
from repro.shard.partition import (
    ShardedCatalog,
    build_sharded_database,
    shard_of_value,
)
from repro.shard.planner import SHUFFLE, ShardQueryPlan, plan_shards
from repro.shard.worker import InProcessShardWorker
from repro.storage.database import Database


@dataclass
class ChannelState:
    """One exchange channel: routing key plus per-destination buffers."""

    name: str
    key_column: int
    key_modulus: int
    schema_names: tuple
    bytes_per_tuple: int
    #: Per-destination routed rows. Kept until the consuming stage
    #: completes, so a suspended cut can rebuild the channel tables.
    buffers: list = field(default_factory=list)
    #: Frozen into shard-local tables (the consuming stage reads those).
    materialized: bool = False

    def route(self, rows, num_shards: int) -> None:
        for row in rows:
            key = row[self.key_column]
            if self.key_modulus:
                key = key % self.key_modulus
            self.buffers[shard_of_value(key, num_shards)].append(row)


@dataclass
class GlobalSuspendReport:
    """What one consistent-cut suspend cost, shard by shard."""

    gid: str
    budget: float
    #: Per running shard: allocated budget and actual suspend cost.
    budgets: dict = field(default_factory=dict)
    costs: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        """Global suspend latency: shards commit in parallel, so the cut
        is released when the slowest shard finishes."""
        return max(self.costs.values(), default=0.0)

    @property
    def total_cost(self) -> float:
        return sum(self.costs.values())


class ShardCoordinator:
    """Runs one query across N shard workers (see module docstring)."""

    def __init__(
        self,
        db: Database,
        plan_spec: PlanSpec,
        catalog: Optional[ShardedCatalog] = None,
        num_shards: int = 2,
        config: Optional[EngineConfig] = None,
        tracer=None,
        worker_mode: str = "inproc",
        quantum_rows: int = 64,
        trace_id: Optional[str] = None,
        _start: bool = True,
    ):
        self.catalog = catalog or ShardedCatalog(num_shards=num_shards)
        self.plan_spec = plan_spec
        self.shard_plan: ShardQueryPlan = plan_shards(
            plan_spec, self.catalog, db
        )
        self.config = config or EngineConfig()
        base = tracer if tracer is not None else current_tracer()
        #: One trace identity for the whole distributed query, derived
        #: from its durable shape (the plan spec's repr + shard count) and
        #: carried in the cut, so resume in any process rejoins the same
        #: trace. Every coordinator record and every shard-worker record
        #: carries it.
        self.trace_id = trace_id or make_trace_id(
            "shard", plan_spec, self.catalog.num_shards
        )
        self.tracer = base.bind(trace_id=self.trace_id)
        self.quantum_rows = quantum_rows
        self.worker_mode = worker_mode
        self.workers = self._make_workers(db)
        self.stage_idx = 0
        self.frag_done: list[bool] = []
        self.channels: dict[str, ChannelState] = {}
        self.output_rows: list = []
        #: Rows delivered by a pre-suspend incarnation of this query (the
        #: client already holds them); resumed delivery continues after.
        self.delivered_before = 0
        self.done = False
        self._stage_started = False
        self._shardset_fault: Optional[FaultInjector] = None
        if _start:
            self._start_stage()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _make_workers(self, db: Database) -> list:
        n = self.catalog.num_shards
        if self.worker_mode == "inproc":
            shard_dbs = build_sharded_database(db, self.catalog)
            return [
                InProcessShardWorker(
                    k, n, shard_dbs[k], config=self.config, tracer=self.tracer
                )
                for k in range(n)
            ]
        if self.worker_mode == "process":
            from repro.shard.worker_proc import ProcessShardWorker

            payloads = self._table_payloads(db)
            return [
                ProcessShardWorker(
                    k, n, payloads[k], config=self.config, tracer=self.tracer
                )
                for k in range(n)
            ]
        raise ShardError(f"unknown worker mode {self.worker_mode!r}")

    def _table_payloads(self, db: Database) -> list:
        """Per-shard table descriptions for process-backed workers."""
        n = self.catalog.num_shards
        payloads: list = [[] for _ in range(n)]
        for name in db.catalog.table_names():
            table = db.catalog.table(name)
            parts = self.catalog.route(name, table.all_rows())
            for k in range(n):
                payloads[k].append(
                    {
                        "name": name,
                        "columns": table.schema.names(),
                        "bytes_per_tuple": table.schema.bytes_per_tuple,
                        "tuples_per_page": table.tuples_per_page,
                        "rows": parts[k],
                    }
                )
        return payloads

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.catalog.num_shards

    @property
    def stage(self):
        return self.shard_plan.stages[self.stage_idx]

    def global_now(self) -> float:
        """Global virtual time: shards run in parallel, so the makespan."""
        return max((w.now() for w in self.workers), default=0.0)

    def _start_stage(self) -> None:
        stage = self.stage
        # Freeze the channels this stage reads into shard-local tables.
        for channel_name in stage.consumes:
            self._materialize_channel(self.channels[channel_name])
        if stage.output == SHUFFLE:
            self.channels[stage.channel] = ChannelState(
                name=stage.channel,
                key_column=stage.key_column,
                key_modulus=stage.key_modulus,
                schema_names=stage.schema_names,
                bytes_per_tuple=stage.bytes_per_tuple,
                buffers=[[] for _ in range(self.num_shards)],
            )
        for k, worker in enumerate(self.workers):
            worker.start_fragment(stage.fragment_for(k, self.num_shards))
        self.frag_done = [False] * self.num_shards
        self._stage_started = True
        if self.tracer.enabled:
            self.tracer.event(
                "shard.stage_start",
                ts=self.global_now(),
                stage=stage.index,
                output=stage.output,
            )

    def _materialize_channel(self, channel: ChannelState) -> None:
        if channel.materialized:
            return
        for k, worker in enumerate(self.workers):
            worker.create_channel_table(
                channel.name,
                channel.schema_names,
                channel.bytes_per_tuple,
                channel.buffers[k],
            )
        channel.materialized = True

    def _finish_stage(self) -> None:
        stage = self.stage
        for channel_name in stage.consumes:
            # The consuming stage is over; the channel's rows are no
            # longer part of any future cut.
            del self.channels[channel_name]
        if self.stage_idx + 1 < len(self.shard_plan.stages):
            self.stage_idx += 1
            self._start_stage()
        else:
            self.done = True
            self._stage_started = False
            if self.tracer.enabled:
                self.tracer.event(
                    "shard.query_done",
                    ts=self.global_now(),
                    rows=self.delivered_before + len(self.output_rows),
                )

    def run_pass(self) -> list:
        """One round-robin pass: a quantum on every unfinished shard.

        Returns the rows delivered to the client by this pass (empty for
        shuffle stages). Between passes the coordinator is at a *pass
        boundary* — the only place :meth:`suspend_global` may cut.
        """
        if self.done:
            return []
        stage = self.stage
        delivered: list = []
        for k, worker in enumerate(self.workers):
            if self.frag_done[k]:
                continue
            result = worker.run_quantum(self.quantum_rows)
            rows = result["rows"]
            if stage.output == SHUFFLE:
                self.channels[stage.channel].route(rows, self.num_shards)
            else:
                delivered.extend(rows)
            if result["done"]:
                self.frag_done[k] = True
        self.output_rows.extend(delivered)
        if all(self.frag_done):
            self._finish_stage()
        if self.tracer.enabled:
            # The pass boundary is also the progress-publication point:
            # the same safe point suspend_global may cut at.
            self.tracer.event(
                "query.progress", ts=self.global_now(), **self.progress()
            )
        return delivered

    def progress(self) -> dict:
        """Global fraction-complete, stage-weighted across the plan.

        Each stage contributes ``1 / num_stages``; the in-flight stage
        contributes the mean of its fragments' fractions (a finished
        fragment counts 1.0). Cardinality estimates come from each
        shard's own planner statistics (:mod:`repro.obs.progress`).
        """
        num_stages = len(self.shard_plan.stages)
        if self.done:
            fraction = 1.0
        elif not self._stage_started:
            fraction = round(self.stage_idx / num_stages, 6)
        else:
            fracs = [
                1.0
                if self.frag_done[k]
                else self.workers[k].progress()["fraction"]
                for k in range(self.num_shards)
            ]
            stage_fraction = sum(fracs) / len(fracs) if fracs else 1.0
            fraction = round(
                (self.stage_idx + stage_fraction) / num_stages, 6
            )
        return {
            # The trace identity doubles as the query label: a sharded
            # query has no session name, but its trace_id is stable
            # across suspend/resume and unique per logical query.
            "query": f"gq:{self.trace_id}",
            "fraction": fraction,
            "stage": self.stage_idx,
            "stages": num_stages,
            "rows_total": self.delivered_before + len(self.output_rows),
        }

    def run(self, max_rows: Optional[int] = None) -> list:
        """Run passes until completion (or ``max_rows`` new deliveries)."""
        start = len(self.output_rows)
        while not self.done:
            self.run_pass()
            if max_rows is not None and len(self.output_rows) - start >= max_rows:
                break
        return self.output_rows[start:]

    # ------------------------------------------------------------------
    # The two-phase consistent-cut suspend
    # ------------------------------------------------------------------
    def arm_shard_fault(self, shard: int, kind: str, point: str) -> None:
        """Arm a crash/torn fault on one shard's image commit or resume."""
        self.workers[shard].arm_fault(kind, point)

    def arm_shardset_fault(self, injector: FaultInjector) -> None:
        """Arm faults on the coordinator's own commit: the cut image."""
        self._shardset_fault = injector

    def _allocate_budgets(self, budget: float, running: list) -> dict:
        """Split the global budget over running shards (phase 1)."""
        estimates = {k: self.workers[k].estimate_suspend_cost() for k in running}
        if math.isinf(budget):
            return {k: math.inf for k in running}
        floor_total = sum(estimates[k]["floor"] for k in running)
        if floor_total > budget:
            raise SuspendBudgetInfeasibleError(
                f"global suspend budget {budget} cannot cover the "
                f"all-GoBack floor {floor_total:.3f} across "
                f"{len(running)} running shards"
            )
        surplus = budget - floor_total
        need = {
            k: max(0.0, estimates[k]["est"] - estimates[k]["floor"])
            for k in running
        }
        total_need = sum(need.values())
        budgets = {}
        for k in running:
            if total_need > 0:
                share = surplus * need[k] / total_need
            else:
                share = surplus / len(running)
            budgets[k] = estimates[k]["floor"] + share
        return budgets

    def suspend_global(
        self,
        root: str,
        budget: float = math.inf,
        gid: Optional[str] = None,
        meta: Optional[dict] = None,
    ) -> GlobalSuspendReport:
        """Suspend every shard to one durable, globally consistent cut."""
        if self.done:
            raise ShardError("query already complete; nothing to suspend")
        if not self._stage_started:
            raise ShardError("no stage in flight; nothing to suspend")
        gid = gid or f"gq-{uuid.uuid4().hex[:12]}"
        running = [k for k in range(self.num_shards) if not self.frag_done[k]]
        report = GlobalSuspendReport(gid=gid, budget=budget)
        # Phase 1: the pass boundary is the quiesce point — channels are
        # frozen, every session is at a safe point. Plan the split.
        report.budgets = self._allocate_budgets(budget, running)
        if self.tracer.enabled:
            self.tracer.event(
                "shard.suspend_prepare",
                ts=self.global_now(),
                gid=gid,
                budget=budget,
                running=len(running),
            )
        # Phase 2: commit member images, then the cut.
        members = []
        for k in range(self.num_shards):
            if self.frag_done[k]:
                members.append({"shard": k, "status": MEMBER_DONE})
                continue
            result = self.workers[k].suspend_to_image(
                root,
                shard_image_id(gid, k),
                budget=report.budgets[k],
                meta={"shard_group": gid, "shard": k},
            )
            report.costs[k] = result["suspend_cost"]
            members.append(
                {
                    "shard": k,
                    "status": MEMBER_RUNNING,
                    "image_id": result["image_id"],
                }
            )
        record = {
            "stage_index": self.stage_idx,
            "frag_done": list(self.frag_done),
            "delivered_rows": self.delivered_before + len(self.output_rows),
            "plan": self.plan_spec,
            "catalog": self.catalog.to_dict(),
            "quantum_rows": self.quantum_rows,
            # The trace identity survives the cut: a resuming coordinator
            # (any process) rejoins the same distributed trace.
            "trace_id": self.trace_id,
            "channels": {
                name: vars(ch) for name, ch in sorted(self.channels.items())
            },
            "members": members,
        }
        ImageStore(root, injector=self._shardset_fault).save_cut(
            record, gid, meta=meta
        )
        self.done = True  # this incarnation is over; resume from the cut
        self._stage_started = False
        cut_ts = self.global_now()  # before the workers go away
        for worker in self.workers:
            worker.close()
        if self.tracer.enabled:
            self.tracer.event(
                "shard.suspend_commit",
                ts=cut_ts,
                gid=gid,
                latency=round(report.latency, 6),
                total_cost=round(report.total_cost, 6),
            )
        return report

    # ------------------------------------------------------------------
    # Resume from a committed cut
    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        db: Database,
        root: str,
        gid: str,
        config: Optional[EngineConfig] = None,
        tracer=None,
        worker_mode: str = "inproc",
    ) -> "ShardCoordinator":
        """Rebuild a coordinator from shard set ``gid`` under ``root``.

        ``db`` is the deterministically rebuilt source database (same
        rows the original was sharded from — the cross-process recipe
        convention). The cut is verified end to end first; any defect
        raises :class:`InconsistentCutError` before any shard is touched.
        """
        record = load_cut(ImageStore(root), gid)
        coord = cls(
            db,
            record["plan"],
            catalog=ShardedCatalog.from_dict(record["catalog"]),
            config=config,
            tracer=tracer,
            worker_mode=worker_mode,
            quantum_rows=record["quantum_rows"],
            trace_id=record["trace_id"],
            _start=False,
        )
        coord.stage_idx = record["stage_index"]
        coord.frag_done = record["frag_done"]
        coord.delivered_before = record["delivered_rows"]
        coord.channels = {
            name: ChannelState(**data)
            for name, data in record["channels"].items()
        }
        # Rebuild materialized channel tables before any fragment touches
        # them (resumed scans hold cursors into these files).
        for channel in coord.channels.values():
            if channel.materialized:
                channel.materialized = False
                coord._materialize_channel(channel)
        for member in record["members"]:
            if member["status"] == MEMBER_RUNNING:
                coord.workers[member["shard"]].resume_fragment(
                    root, member["image_id"]
                )
        coord._stage_started = True
        if coord.tracer.enabled:
            coord.tracer.event(
                "shard.resume",
                ts=coord.global_now(),
                gid=gid,
                stage=coord.stage_idx,
            )
        return coord

    def close(self) -> None:
        for worker in self.workers:
            worker.close()
