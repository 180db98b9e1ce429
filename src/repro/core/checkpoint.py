"""Checkpoints and contracts (Definitions 1 and 2 of the paper).

A *checkpoint* for operator O at time t contains the information needed to
restore O's execution state as of t. Stateful operators create them
*proactively* at minimal-heap-state points (where the payload is small,
often empty); stateless operators create them *reactively* when asked to
sign a contract.

A *contract* is an agreement between a parent P and a child Q, signed just
before Q outputs tuple r_i: Q agrees to be able to regenerate r_i, ..., r_n
in order whenever P enforces the contract. A contract records Q's control
state at signing (the roll-forward *target*) and points at the checkpoint
of Q that fulfills it.

Two extensions beyond the paper's minimal description, both needed for
operators whose consumption of a child is *streaming* (e.g. block NLJ's
inner child):

- ``nested``: contracts signed by Q with its stream children at the same
  moment, so that Q can reposition those children when rolling forward to
  the contract point. (The fulfilling checkpoint's own contracts only
  cover positions as of the checkpoint, not as of the signing point.)
- ``anchor``: what keeps the contract alive for pruning purposes — either
  the parent's checkpoint it was created for, or the enclosing contract
  when nested.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

#: Nominal byte sizes used to charge control-state writes. Control state is
#: "always small" (Section 2); these constants only affect the (negligible)
#: GoBack suspend cost g^s.
CONTROL_ENTRY_BYTES = 16
CONTRACT_BASE_BYTES = 48
CHECKPOINT_BASE_BYTES = 48

_ckpt_ids = itertools.count(1)
_contract_ids = itertools.count(1)


def control_state_bytes(control: dict, bytes_per_saved_row: int = 200) -> int:
    """Nominal serialized size of a control-state dict.

    Saved rows (contract migration, footnote 3 of the paper) are charged at
    full tuple width; everything else is scalars.
    """
    total = CONTRACT_BASE_BYTES
    for key, value in control.items():
        if key == "saved_rows":
            total += len(value) * bytes_per_saved_row
        elif key == "heap":
            # Full-state checkpoint payloads carry heap rows: charge them
            # at tuple width so going back to one costs like a dump.
            total += _heap_rows(value) * bytes_per_saved_row
        elif key == "control" and isinstance(value, dict):
            total += control_state_bytes(value, bytes_per_saved_row)
        elif isinstance(value, (list, tuple)):
            total += CONTROL_ENTRY_BYTES * max(1, len(value))
        elif isinstance(value, dict):
            total += CONTROL_ENTRY_BYTES * max(1, len(value))
        else:
            total += CONTROL_ENTRY_BYTES
    return total


def _heap_rows(value) -> int:
    """Count the rows inside a heap-state payload of any shape."""
    if value is None:
        return 0
    if isinstance(value, (list, tuple)):
        return len(value)
    if isinstance(value, dict):
        return sum(_heap_rows(v) for v in value.values())
    return 1


@dataclass(slots=True)
class Checkpoint:
    """A restore point for one operator.

    Attributes:
        op_id: owning operator.
        seq: per-operator sequence number (monotone; used for the c_{i,j}
            "is the latest checkpoint newer than the fulfilling one" test).
        payload: operator-specific restore state. At minimal-heap-state
            points this is tiny (e.g. a sort's list of sublist handles; an
            NLJ's is empty).
        work_at: the operator's cumulative work (simulated cost units) when
            the checkpoint was created — the basis of the optimizer's
            g^r estimate.
        emitted_at: the operator's output-tuple count at creation, used for
            contract migration ("no tuples produced since" test).
        reactive: True for reactive checkpoints of stateless operators.
    """

    op_id: int
    seq: int
    payload: dict
    work_at: float
    emitted_at: int
    reactive: bool = False
    ckpt_id: int = field(default_factory=lambda: next(_ckpt_ids))
    #: Memoized ``(payload, value)`` pair for :meth:`nominal_bytes`; the
    #: payload is written once at creation, so identity is the cache key.
    _bytes_cache: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )

    def nominal_bytes(self) -> int:
        cached = self._bytes_cache
        if cached is not None and cached[0] is self.payload:
            return cached[1]
        value = CHECKPOINT_BASE_BYTES + control_state_bytes(self.payload)
        self._bytes_cache = (self.payload, value)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "reactive" if self.reactive else "proactive"
        return f"Ckpt({self.ckpt_id}, op={self.op_id}, seq={self.seq}, {kind})"


@dataclass(slots=True)
class Contract:
    """An agreement letting ``child_op_id`` regenerate output from a point.

    Attributes:
        parent_op_id: the operator that requested the contract.
        child_op_id: the operator that signed it.
        control: the child's control state at signing — the roll-forward
            target when the contract is enforced.
        child_ckpt_id: the checkpoint of the child that fulfills the
            contract (its latest proactive checkpoint for stateful
            children; a fresh reactive checkpoint for stateless ones).
        anchor_ckpt_id / anchor_contract_id: what keeps this contract
            alive — exactly one is set. Checkpoint-anchored contracts are
            the graph edges of the paper; contract-anchored ones are the
            nested stream-child contracts described in the module docstring.
        work_at_signing / emitted_at_signing: the child's cumulative work
            and output count at signing, for cost estimation and migration.
        nested: contracts the child signed with its own stream children at
            the same moment, keyed by their op_id.
        saved_rows: rows saved by contract migration (footnote 3): tuples
            already surrendered to the parent that the child can no longer
            regenerate; returned first on resume.
    """

    parent_op_id: int
    child_op_id: int
    control: dict
    child_ckpt_id: int
    anchor_ckpt_id: Optional[int] = None
    anchor_contract_id: Optional[int] = None
    work_at_signing: float = 0.0
    emitted_at_signing: int = 0
    nested: dict = field(default_factory=dict)
    saved_rows: list = field(default_factory=list)
    contract_id: int = field(default_factory=lambda: next(_contract_ids))
    #: Memoized key/value pair for :meth:`nominal_bytes`. Contract
    #: migration *replaces* ``control`` and ``saved_rows`` (it never
    #: mutates them in place) and drops nested contracts wholesale, so
    #: object identity plus the collection lengths form a sound cache key.
    _bytes_cache: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        anchors = (self.anchor_ckpt_id is not None) + (
            self.anchor_contract_id is not None
        )
        if anchors != 1:
            raise ValueError(
                "a contract must have exactly one anchor "
                f"(ckpt={self.anchor_ckpt_id}, ctr={self.anchor_contract_id})"
            )

    def nominal_bytes(self, bytes_per_saved_row: int = 200) -> int:
        key = (
            self.control,
            self.saved_rows,
            len(self.saved_rows),
            len(self.nested),
            bytes_per_saved_row,
        )
        cached = self._bytes_cache
        if (
            cached is not None
            and cached[0] is key[0]
            and cached[1] is key[1]
            and cached[2:5] == key[2:]
        ):
            return cached[5]
        total = control_state_bytes(self.control, bytes_per_saved_row)
        total += len(self.saved_rows) * bytes_per_saved_row
        for sub in self.nested.values():
            total += sub.nominal_bytes(bytes_per_saved_row)
        self._bytes_cache = key + (total,)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Ctr({self.contract_id}, {self.parent_op_id}->{self.child_op_id}, "
            f"ckpt={self.child_ckpt_id})"
        )
