"""Sharded execution with globally consistent cross-shard suspend/resume.

The single-engine machinery (contracts, checkpoints, the MIP suspend-plan
optimizer, durable images) protects one query on one database. This
package runs one query across N shard workers and extends the same
guarantees to the whole fleet:

- :mod:`repro.shard.partition` — hash/range partitioning and the
  :class:`ShardedCatalog`, plus building N shard-local databases;
- :mod:`repro.shard.planner` — splitting a single-engine plan into
  per-shard fragments joined by exchange channels (partitioned scan,
  shuffle hash join, partial/final aggregation);
- :mod:`repro.shard.worker` — the shard worker (one
  :class:`QuerySession` per shard);
- :mod:`repro.shard.worker_proc` — the same worker in a real child
  process behind a by-name proxy (codec-v2 messages over its stdio,
  each reply carrying the call's trace records), so shard crashes are
  process deaths and a run still writes one trace;
- :mod:`repro.shard.coordinator` — quantum-interleaved execution and the
  two-phase consistent-cut suspend protocol under a *global* budget;
- :mod:`repro.shard.manifest` — the global cut: N per-shard images named
  by one more image (channel state, member list) whose rename is the
  commit point, with the judgement that spans images (committed cut /
  torn / stranded members).
"""

from repro.shard.coordinator import GlobalSuspendReport, ShardCoordinator
from repro.shard.manifest import (
    ShardSetRecovery,
    classify_shardsets,
    shard_image_id,
)
from repro.shard.partition import (
    PartitionSpec,
    ShardedCatalog,
    build_sharded_database,
    shard_of_value,
)
from repro.shard.planner import ShardQueryPlan, ShardStage, plan_shards
from repro.shard.worker import InProcessShardWorker
from repro.shard.worker_proc import ProcessShardWorker

__all__ = [
    "GlobalSuspendReport",
    "InProcessShardWorker",
    "PartitionSpec",
    "ProcessShardWorker",
    "ShardCoordinator",
    "ShardQueryPlan",
    "ShardSetRecovery",
    "ShardStage",
    "ShardedCatalog",
    "build_sharded_database",
    "classify_shardsets",
    "plan_shards",
    "shard_image_id",
    "shard_of_value",
]
