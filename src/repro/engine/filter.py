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

from itertools import chain
from typing import Optional

from repro.engine.base import Operator, Row
from repro.engine.runtime import Runtime
from repro.engine.scan import TableScan, chain_segments
from repro.relational.expressions import Predicate
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
        self.REWINDABLE = child.REWINDABLE

    @property
    def child(self) -> Operator:
        return self.children[0]

    def _next(self) -> Optional[Row]:
        while True:
            row = self.child.next()
            if row is None:
                return None
            self.charge_cpu(1)
            if self.predicate.matches(row):
                if self.rt.config.contract_migration:
                    self._migrate_open_contracts(row)
                return row

    def rewind(self) -> None:
        self.child.rewind()

    def _has_open_contracts(self) -> bool:
        """A contract signed since the last emission could migrate on the
        next match; the fused batch loop defers to the row-exact loop
        while one exists (none can *appear* mid-batch: contracts are only
        created at checkpoints, and a batch never spans one)."""
        return any(
            c.emitted_at_signing == self.tuples_emitted and not c.saved_rows
            for c in self.rt.graph.contracts_of_child(self.op_id)
        )

    def _scan_chain(self):
        if isinstance(self.child, TableScan):
            return self.child, self
        return None

    def _next_batch_fast(self, max_rows: int) -> list:
        if self._scan_chain() is None:
            return super()._next_batch_fast(max_rows)
        return list(chain.from_iterable(chain_segments(self, max_rows)))

    def _migrate_open_contracts(self, row: Row) -> None:
        """Footnote-3 migration: save the matching tuple in any contract
        signed since the last emission and re-anchor it after the match."""
        graph = self.rt.graph
        open_contracts = [
            c
            for c in graph.contracts_of_child(self.op_id)
            if c.emitted_at_signing == self.tuples_emitted and not c.saved_rows
        ]
        if not open_contracts:
            return
        fresh = self._reactive_checkpoint()
        for contract in open_contracts:
            contract.child_ckpt_id = fresh.ckpt_id
            contract.control = self.control_state()
            contract.work_at_signing = self.work
            contract.saved_rows = [row]
        graph.prune()

    # Resume -------------------------------------------------------------
    def _resume_from_dump(self, entry, payload, ctx) -> None:
        pass  # stateless: the child holds the position

    def _resume_goback(self, entry, ctx) -> None:
        pass  # stateless: the child was repositioned by its own entry
