"""Exchange operators: the shard-local ends of a shuffle.

Sharded execution (see ``repro.shard``) splits a plan into per-shard
fragments joined by *exchange channels*. Inside a fragment both ends of a
channel are ordinary scans over shard-local heap files:

- :class:`PartitionedScan` reads the shard's partition of a base table —
  the partition *is* the shard-local table, so the scan sees only local
  pages and its cost scales with the partition size;
- :class:`ShuffleRead` reads a materialized channel table, i.e. the rows
  other shards routed to this shard, frozen into a heap file before the
  consuming fragment starts.

Both subclass :class:`~repro.engine.scan.TableScan` so the paper's whole
suspend/resume machinery — reactive checkpoints, contracts, GoBack
re-reads, cursor-only control state — applies to shard fragments without
any new protocol. Materializing a channel before its consumers run is
what makes the global cut well-defined: in-flight rows live either in the
producer's uncommitted output (covered by its image) or in the channel's
serialized buffers (covered by the cut image), never in a pipe.
"""

from __future__ import annotations

from repro.engine.runtime import Runtime
from repro.engine.scan import TableScan
from repro.storage.heapfile import HeapFile


class PartitionedScan(TableScan):
    """Sequential scan over one shard's partition of a base table."""

    def __init__(
        self,
        op_id: int,
        name: str,
        runtime: Runtime,
        table: HeapFile,
        shard: int,
        num_shards: int,
    ):
        super().__init__(op_id, name, runtime, table)
        self.shard = shard
        self.num_shards = num_shards


class ShuffleRead(TableScan):
    """Scan over a materialized exchange channel (shard-local)."""

    def __init__(
        self,
        op_id: int,
        name: str,
        runtime: Runtime,
        table: HeapFile,
        channel: str,
        shard: int,
    ):
        super().__init__(op_id, name, runtime, table)
        self.channel = channel
        self.shard = shard
