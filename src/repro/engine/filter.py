"""Filter operator with reactive checkpointing and contract migration.

A filter is stateless: it signs contracts by creating a reactive
checkpoint (which in turn contracts with its child) and propagates any
chain it is part of. The contract-migration optimization of Section 3.4
(footnote 3) is implemented: after signing a contract, when the filter
finds its first matching tuple it saves that single tuple inside the
contract and re-points the contract at a fresh reactive checkpoint taken
*after* the match — so a later GoBack does not re-read the non-matching
prefix from the child.
"""

from __future__ import annotations

from repro.engine.base import Operator, Row
from repro.engine.runtime import Runtime
from repro.engine.scan import TableScan, fused_scan
from repro.relational.expressions import Predicate, compile_mask
from repro.relational.schema import Schema


class Filter(Operator):
    """Passes through child rows matching a predicate."""

    STATEFUL = False

    def __init__(
        self,
        op_id: int,
        name: str,
        child: Operator,
        runtime: Runtime,
        predicate: Predicate,
    ):
        super().__init__(op_id, name, [child], runtime, child.schema)
        self.predicate = predicate
        #: The predicate as a mask pass, for the fused scan→filter loop.
        self.mask = compile_mask(predicate)
        self.REWINDABLE = child.REWINDABLE
        #: Ids of contracts left unmigrated by a rewind (:meth:`rewind`).
        self._rewound: set = set()

    @property
    def child(self) -> Operator:
        return self.children[0]

    def _next_batch(self, max_rows: int) -> list:
        """Directly over a table scan the fused loop; otherwise, and
        while a saved row below or an open contract makes the next match
        special, one child row at a time."""
        child = self.child
        fused = isinstance(child, TableScan)
        migrating = self.rt.config.contract_migration
        matches = self.predicate.matches
        out: list = []
        while len(out) < max_rows:
            if fused and not (
                child._pending_rows
                or (migrating and self._open_contracts())
            ):
                out += fused_scan(child, self, max_rows - len(out))
                break
            row = child.next()
            if row is None:
                break
            self.charge_cpu(1)
            if matches(row):
                if migrating:
                    self._migrate_open_contracts(row)
                out.append(row)
                self.tuples_emitted += 1
                self.charge_cpu(1)
        return out

    def rewind(self) -> None:
        # A contract signed before the rewind holds a position in the
        # abandoned pass; the next match comes from the new one, so
        # saving it there would replay the new pass from the old point.
        self._rewound = {c.contract_id for c in self._unmatched_contracts()}
        self.child.rewind()

    def _unmatched_contracts(self) -> list:
        """Contracts signed since the last emission."""
        return [
            c
            for c in self.rt.graph.contracts_of_child(self.op_id)
            if c.emitted_at_signing == self.tuples_emitted and not c.saved_rows
        ]

    def _open_contracts(self) -> list:
        """Contracts the next match migrates: signed since the last
        emission and not before a rewind. The fused loop waits while one
        exists (none can *appear* mid-batch: contracts are only created
        at checkpoints, and a batch never spans one)."""
        return [
            c
            for c in self._unmatched_contracts()
            if c.contract_id not in self._rewound
        ]

    def _migrate_open_contracts(self, row: Row) -> None:
        """Footnote-3 migration: save the matching tuple in any contract
        signed since the last emission and re-anchor it after the match."""
        open_contracts = self._open_contracts()
        if not open_contracts:
            return
        fresh = self._reactive_checkpoint()
        for contract in open_contracts:
            contract.child_ckpt_id = fresh.ckpt_id
            contract.control = self.control_state()
            contract.work_at_signing = self.work
            contract.saved_rows = [row]
        self.rt.graph.prune()

    # Resume -------------------------------------------------------------
    def _resume_from_dump(self, entry, payload, ctx) -> None:
        pass  # stateless: the child holds the position

    def _resume_goback(self, entry, ctx) -> None:
        pass  # stateless: the child was repositioned by its own entry
