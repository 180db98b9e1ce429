"""Spilled hash partitions as state-store payloads.

Shared by the hash joins and hash grouping. While an operator partitions
its input, a partition is a growing row list whose block writes are
charged as they happen. At the phase boundary — the paper's
materialization point — :func:`seal` registers each one in the state
store, and from then on checkpoints and suspend entries carry its
:class:`~repro.storage.statefile.DumpHandle`: a durable image writes the
rows once and references them afterwards, a resume decodes only the
partitions it reads, and a finished partition just stops being named.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.storage.statefile import DumpHandle


def seal(op, side: str, partitions: list, tuples_per_page: int) -> None:
    """Replace every non-empty row list in ``partitions`` by the handle
    of a payload registered for it. Nothing is charged: each block was
    charged when it was flushed, and the operator charges its own page
    reads when it loads a partition."""
    store = op.rt.store
    for p, rows in enumerate(partitions):
        if rows and not isinstance(rows, DumpHandle):
            partitions[p] = store.materialized(
                store.fresh_key(f"{op.name}_{side}"),
                rows,
                math.ceil(len(rows) / tuples_per_page),
            )


def rows_of(op, partition) -> Sequence[tuple]:
    """The rows of one partition, sealed or not (read-only: a sealed
    partition's payload is shared with the state store)."""
    if isinstance(partition, DumpHandle):
        return op.rt.store.peek(partition)
    return partition


def snapshot(partitions: Sequence, live: int = -1) -> list:
    """``partitions`` as a checkpoint, a suspend entry or a restored
    operator holds them: handles as they are, row lists (still growing)
    copied, and the partitions before ``live`` left out.

    The second phase never returns to a finished partition, and every
    state a snapshot is restored or rolled forward to lies at or after
    it, so those are never read again; they stay as empty lists (the
    partition count is control state). A boundary checkpoint is taken
    before the index advances, so it keeps the partition just finished:
    a contract migrated onto it still names that one.
    """
    return [
        []
        if p < live
        else part
        if isinstance(part, DumpHandle)
        else list(part)
        for p, part in enumerate(partitions)
    ]
