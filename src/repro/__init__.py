"""Reproduction of "Query Suspend and Resume" (SIGMOD 2007).

This package implements, from scratch, the paper's full system:

- a simulated storage manager with deterministic I/O cost accounting
  (:mod:`repro.storage`),
- an iterator-based relational query engine with the extended iterator
  interface of the paper (``SignContract`` / ``Suspend`` / ``Suspend(Ctr)`` /
  ``Resume``) and all the physical operators of Section 4
  (:mod:`repro.engine`),
- the paper's core contribution: asynchronous semantics-driven
  checkpointing, contracts, the contract graph, the DumpState / GoBack
  suspend strategies, and the mixed-integer-programming suspend-plan
  optimizer (:mod:`repro.core`),
- the Section 7 suspend-aware analytical planner (:mod:`repro.planning`),
- a multi-query scheduler serving concurrent sessions under a memory
  budget with suspend-resume / kill-restart / wait pressure policies
  (:mod:`repro.service`),
- durable suspend images: a versioned, checksummed on-disk format with
  atomic commit, a startup recovery scan, and crash-fault injection, so
  suspended queries survive process death (:mod:`repro.durability`),
- the paper's workloads and an experiment harness regenerating every table
  and figure of the evaluation (:mod:`repro.workloads`, :mod:`repro.harness`).

Quickstart — one suspend/resume cycle::

    from repro import (
        Database, FilterSpec, NLJSpec, QuerySession, ScanSpec,
        SuspendSpec, SuspendStrategy,
    )
    from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
    from repro.relational.expressions import EquiJoinCondition, UniformSelect

    db = Database()
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(2_000, seed=1))
    db.create_table("S", BASE_SCHEMA, generate_uniform_table(400, seed=2))
    plan = NLJSpec(
        outer=FilterSpec(ScanSpec("R"), UniformSelect(1, 0.5)),
        inner=ScanSpec("S"),
        condition=EquiJoinCondition(0, 0, modulus=100),
        buffer_tuples=300,
    )
    session = QuerySession(db, plan)
    session.execute(max_rows=100)
    sq = session.suspend(SuspendSpec(strategy=SuspendStrategy.LP))
    resumed = QuerySession.resume(db, sq)
    rest = resumed.execute()

Quickstart — serving over HTTP with continuation tokens::

    python -m repro.cli serve-http --port 8351   # then see docs/SERVING.md

Quickstart — serving a multi-query arrival trace::

    from repro import QueryScheduler
    from repro.workloads import mixed_priority_trace

    workload = mixed_priority_trace(scale=4, seed=1)
    stats = QueryScheduler.run_workload(workload, policy="suspend-resume")
    print(stats.as_dict())
"""

from repro.storage.database import Database
from repro.storage.disk import IOCostModel, SimulatedDisk, VirtualClock
from repro.core.lifecycle import (
    ExecutionResult,
    QuerySession,
    QueryStatus,
    SuspendSpec,
    SuspendStrategy,
)
from repro.engine.config import EngineConfig
from repro.engine.runtime import SuspendTrigger
from repro.engine.plan import (
    DupElimSpec,
    FilterSpec,
    GroupAggSpec,
    HashGroupAggSpec,
    HybridHashJoinSpec,
    IndexNLJSpec,
    IndexScanSpec,
    MergeJoinSpec,
    NLJSpec,
    PlanSpec,
    ProjectSpec,
    ScanSpec,
    SimpleHashJoinSpec,
    SortSpec,
)
from repro.core.strategies import Strategy, SuspendPlan
from repro.core.suspended_query import SuspendedQuery
from repro.durability.store import ImageInfo, ImageStore, RecoveryReport
from repro.obs import (
    MetricsRegistry,
    Tracer,
    current_tracer,
    use_tracer,
    write_chrome_trace,
    write_jsonl,
)
from repro.serve.service import QueryService, ServeConfig
from repro.serve.tokens import (
    ContinuationToken,
    TokenError,
    TokenExpiredError,
    TokenManager,
    TokenRedeemedError,
)
from repro.service.core import ExecutorCore
from repro.service.scheduler import QueryScheduler, SchedulerConfig
from repro.service.stats import QueryStats, SchedulerStats
from repro.service.trace import ArrivalTrace, QueryArrival, Workload
from repro.shard import (
    GlobalSuspendReport,
    PartitionSpec,
    ShardCoordinator,
    ShardedCatalog,
)

__version__ = "1.0.0"

__all__ = [
    "ArrivalTrace",
    "ContinuationToken",
    "Database",
    "DupElimSpec",
    "ExecutorCore",
    "EngineConfig",
    "ExecutionResult",
    "FilterSpec",
    "GlobalSuspendReport",
    "GroupAggSpec",
    "HashGroupAggSpec",
    "HybridHashJoinSpec",
    "IOCostModel",
    "ImageInfo",
    "ImageStore",
    "IndexNLJSpec",
    "IndexScanSpec",
    "MergeJoinSpec",
    "MetricsRegistry",
    "NLJSpec",
    "PartitionSpec",
    "PlanSpec",
    "ProjectSpec",
    "QueryArrival",
    "QueryScheduler",
    "QueryService",
    "QuerySession",
    "QueryStats",
    "QueryStatus",
    "RecoveryReport",
    "ScanSpec",
    "SchedulerConfig",
    "SchedulerStats",
    "ServeConfig",
    "ShardCoordinator",
    "ShardedCatalog",
    "SimpleHashJoinSpec",
    "SimulatedDisk",
    "SortSpec",
    "Strategy",
    "SuspendPlan",
    "SuspendSpec",
    "SuspendStrategy",
    "SuspendTrigger",
    "SuspendedQuery",
    "TokenError",
    "TokenExpiredError",
    "TokenManager",
    "TokenRedeemedError",
    "Tracer",
    "VirtualClock",
    "Workload",
    "__version__",
    "current_tracer",
    "use_tracer",
    "write_chrome_trace",
    "write_jsonl",
]
