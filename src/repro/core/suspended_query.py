"""The SuspendedQuery data structure (Section 2).

Populated during the suspend phase, written to (simulated) disk, and read
back during the resume phase. It encapsulates everything needed to
regenerate the query's execution state at the suspend point:

- the execution plan (a picklable spec tree, re-instantiated at resume),
- the suspend plan that was carried out,
- one :class:`OpSuspendEntry` per operator, and
- handles to any heap state dumped by DumpState operators.

The structure is small apart from the dump handles (whose payloads were
already charged as page I/O when dumped): writing it costs a few
control-state pages, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Optional

from repro.common.errors import StorageError
from repro.core.checkpoint import control_state_bytes
from repro.core.strategies import SuspendPlan
from repro.storage.statefile import (
    DumpHandle,
    PayloadHold,
    ScopedStateStore,
    StateStore,
)

#: Entry kinds. ``dump`` continues from the exact suspend point;
#: ``dump_to_contract`` continues from an earlier contract point using the
#: dumped (still-valid) heap state; ``goback`` rebuilds heap state by
#: rolling forward from a checkpoint to the recorded target control state.
KIND_DUMP = "dump"
KIND_DUMP_TO_CONTRACT = "dump_to_contract"
KIND_GOBACK = "goback"

_VALID_KINDS = (KIND_DUMP, KIND_DUMP_TO_CONTRACT, KIND_GOBACK)


@dataclass(slots=True)
class OpSuspendEntry:
    """Per-operator resume information.

    Attributes:
        op_id: the operator this entry belongs to.
        kind: one of the module-level KIND_* constants.
        target_control: the control state to restore/roll forward to. For
            ``dump`` it is the state at the suspend point; for
            ``dump_to_contract`` and ``goback`` under a chain it is the
            contract's recorded control state.
        ckpt_payload: for ``goback``: the fulfilling checkpoint's payload.
        dump_handle: for dump kinds: handle to the dumped heap state.
        current_control: for ``dump_to_contract``: the operator's control
            state at the suspend point. The dumped heap reflects *current*
            state while the output must restart from the contract point;
            resume reconciles the two. For ``dump`` it holds disk state
            only: the operator's ``_disk_state()`` (the handles of a hash
            operator's spilled partitions — re-homed here, which inside
            the dump they would not be), None for every other operator;
            a ``dump_to_contract`` entry carries those keys beside the
            control state, and an operator reads only the keys it owns.
        saved_rows: rows carried by a migrated contract (footnote 3),
            returned first on resume before regular regeneration.
    """

    op_id: int
    kind: str
    target_control: dict
    ckpt_payload: Optional[dict] = None
    dump_handle: Optional[DumpHandle] = None
    current_control: Optional[dict] = None
    saved_rows: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown suspend entry kind {self.kind!r}")

    def nominal_bytes(self, bytes_per_row: int = 200) -> int:
        total = 64 + control_state_bytes(self.target_control, bytes_per_row)
        if self.ckpt_payload is not None:
            total += control_state_bytes(self.ckpt_payload, bytes_per_row)
        total += len(self.saved_rows) * bytes_per_row
        return total


@dataclass
class SuspendedQuery:
    """Everything needed to resume a suspended query."""

    plan_spec: Any
    suspend_plan: SuspendPlan
    entries: dict[int, OpSuspendEntry] = field(default_factory=dict)
    #: Output tuples the root had emitted before suspension (the client has
    #: already received them; resume continues after them).
    root_rows_emitted: int = 0
    suspended_at: float = 0.0
    #: The query's as-if-solo virtual clock (its lane) at the end of the
    #: suspend phase. Resume restarts the lane here so the per-query
    #: timeline stays continuous across the gap — in any process, under
    #: any schedule, folded or not.
    query_clock: float = 0.0
    #: The state-store payloads the query names and its hold on them
    #: (in-process only, never part of an image); see :meth:`release`.
    payloads: PayloadHold = field(default_factory=PayloadHold)
    #: The suspended session's key counters (``StateStore.key_counters``),
    #: continued by a resume: the keys it draws depend on the image alone.
    key_counters: dict = field(default_factory=dict)

    def release(self) -> None:
        """Drop the query's hold on its payloads: whoever drops a
        SuspendedQuery releases it, and never resumes it afterwards."""
        if self.payloads.store is not None:
            self.payloads.store.free_keys(self.payloads.entries)
        self.payloads = PayloadHold()

    def hold_in(self, store: StateStore) -> None:
        """Hold every payload the query names in ``store`` instead, as a
        resume into ``store`` followed at once by a suspend would."""
        view = ScopedStateStore(store, None)
        view.take(self.payloads)
        self.release()
        self.payloads = view.hand_over()

    def entry(self, op_id: int) -> OpSuspendEntry:
        if op_id not in self.entries:
            raise StorageError(f"SuspendedQuery has no entry for op {op_id}")
        return self.entries[op_id]

    def add_entry(self, entry: OpSuspendEntry) -> None:
        if entry.op_id in self.entries:
            raise StorageError(
                f"SuspendedQuery already has an entry for op {entry.op_id}"
            )
        self.entries[entry.op_id] = entry

    def nominal_bytes(self, bytes_per_row: int = 200) -> int:
        """Size of the structure itself (dumped heap state not included)."""
        total = 256  # plans and header
        total += sum(
            e.nominal_bytes(bytes_per_row) for e in self.entries.values()
        )
        return total

    # ------------------------------------------------------------------
    # Serialization (durable suspend images)
    # ------------------------------------------------------------------
    def referenced_handles(self) -> dict[str, DumpHandle]:
        """Every DumpHandle reachable from the structure, keyed by key."""
        handles: dict[str, DumpHandle] = {}
        for entry in self.entries.values():
            for obj in (
                entry.dump_handle,
                entry.target_control,
                entry.current_control,
                entry.ckpt_payload,
            ):
                for handle in _iter_handles(obj):
                    handles[handle.key] = handle
        return handles


#: Leaf types of control state and row cells: no handle can hide inside
#: one, so the walk below neither pushes nor descends into them.
_SCALARS = frozenset({int, str, float, bool, type(None), bytes})
_all_scalars = _SCALARS.issuperset
_ROWS_ONLY = {tuple}


def _iter_handles(obj):
    """Yield every DumpHandle nested anywhere inside ``obj``, in
    depth-first order.

    One explicit stack instead of a generator per node: a checkpoint
    payload can carry whole hash partitions inline, so nearly every node
    is a scalar cell, skipped on sight, or a row of them, dismissed by
    one pass over its cell types without being pushed. A whole list of
    such rows — one partition — goes in two C-level passes, one over
    the row types and one over every cell type.
    """
    stack = [obj]
    while stack:
        obj = stack.pop()
        if isinstance(obj, DumpHandle):
            yield obj
            continue
        if isinstance(obj, dict):
            obj = obj.values()
        elif not isinstance(obj, (list, tuple)):
            continue
        if _rows_of_scalars(obj):
            continue
        pending = [
            v
            for v in obj
            if type(v) not in _SCALARS
            and not (type(v) is tuple and _all_scalars(map(type, v)))
        ]
        if pending:
            pending.reverse()
            stack += pending


def _rows_of_scalars(obj) -> bool:
    """Whether ``obj`` is a non-empty collection of tuples of nothing but
    scalars (one inline partition): two C-level passes, no frame per row."""
    return set(map(type, obj)) == _ROWS_ONLY and _all_scalars(
        map(type, chain.from_iterable(obj))
    )
