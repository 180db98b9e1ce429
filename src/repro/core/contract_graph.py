"""The contract graph (Section 3.1) and its maintenance (Section 3.4).

Nodes are checkpoints; edges are contracts. A checkpoint-anchored contract
runs from its anchor checkpoint (the parent's) to the child checkpoint that
fulfills it. Nested (contract-anchored) contracts hang off an enclosing
contract and likewise reference a fulfilling child checkpoint.

Pruning follows Section 3.4: a checkpoint can be deleted when it has no
incoming live contract and it is not its operator's most recent checkpoint;
deleting it kills its outgoing contracts, which may make further
checkpoints deletable. The resulting live set satisfies Theorem 1's O(nh)
bound, which :meth:`ContractGraph.check_theorem1_bound` asserts.

Contract migration (Section 3.4) re-points an incoming contract at an
operator's newest checkpoint when the operator has produced no output since
the contract was signed — so resume skips re-performing the intervening
work entirely.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.common.errors import ContractError
from repro.core.checkpoint import Checkpoint, Contract
from repro.obs.tracer import NULL_TRACER, Tracer


class ContractGraph:
    """Runtime store of live checkpoints and contracts for one query."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self._checkpoints: dict[int, Checkpoint] = {}
        self._contracts: dict[int, Contract] = {}
        self._latest: dict[int, Checkpoint] = {}
        self._seq: dict[int, int] = {}
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def next_seq(self, op_id: int) -> int:
        """Allocate the next per-operator checkpoint sequence number."""
        seq = self._seq.get(op_id, 0) + 1
        self._seq[op_id] = seq
        return seq

    def add_checkpoint(self, ckpt: Checkpoint) -> Checkpoint:
        """Register a checkpoint and make it its operator's latest."""
        self._checkpoints[ckpt.ckpt_id] = ckpt
        self._latest[ckpt.op_id] = ckpt
        return ckpt

    def add_contract(self, contract: Contract) -> Contract:
        """Register a contract (and, recursively, its nested contracts)."""
        if contract.child_ckpt_id not in self._checkpoints:
            raise ContractError(
                f"contract {contract.contract_id} references unknown "
                f"checkpoint {contract.child_ckpt_id}"
            )
        self._contracts[contract.contract_id] = contract
        for sub in contract.nested.values():
            if sub.contract_id not in self._contracts:
                self.add_contract(sub)
        return contract

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def checkpoint(self, ckpt_id: int) -> Checkpoint:
        if ckpt_id not in self._checkpoints:
            raise ContractError(f"checkpoint {ckpt_id} is not live")
        return self._checkpoints[ckpt_id]

    def contract(self, contract_id: int) -> Contract:
        if contract_id not in self._contracts:
            raise ContractError(f"contract {contract_id} is not live")
        return self._contracts[contract_id]

    def latest_checkpoint(self, op_id: int) -> Optional[Checkpoint]:
        return self._latest.get(op_id)

    def checkpoints_of(self, op_id: int) -> list[Checkpoint]:
        return [c for c in self._checkpoints.values() if c.op_id == op_id]

    def contract_from(self, ckpt: Checkpoint, child_op_id: int) -> Contract:
        """The contract anchored at ``ckpt`` whose signer is ``child_op_id``."""
        for contract in self._contracts.values():
            if (
                contract.anchor_ckpt_id == ckpt.ckpt_id
                and contract.child_op_id == child_op_id
            ):
                return contract
        raise ContractError(
            f"checkpoint {ckpt.ckpt_id} (op {ckpt.op_id}) has no contract "
            f"with child operator {child_op_id}"
        )

    def has_contract_from(self, ckpt: Checkpoint, child_op_id: int) -> bool:
        try:
            self.contract_from(ckpt, child_op_id)
            return True
        except ContractError:
            return False

    def contracts_of_child(self, op_id: int) -> list[Contract]:
        """Live contracts signed by operator ``op_id``."""
        return [
            c for c in self._contracts.values() if c.child_op_id == op_id
        ]

    @property
    def num_contracts(self) -> int:
        return len(self._contracts)

    # ------------------------------------------------------------------
    # Contract migration (Section 3.4)
    # ------------------------------------------------------------------
    def migrate_contracts(
        self,
        op_id: int,
        new_ckpt: Checkpoint,
        tuples_emitted: int,
        new_control: dict,
        work_now: float,
    ) -> int:
        """Re-point incoming contracts of ``op_id`` to ``new_ckpt``.

        A contract migrates when the operator has produced no output since
        the contract was signed (and the contract saved no rows). The
        migrated contract's target becomes the operator's state at the new
        checkpoint, so fulfilling it requires no roll-forward past the new
        checkpoint. Returns the number of contracts migrated.
        """
        migrated = 0
        for contract in list(self._contracts.values()):
            if contract.child_op_id != op_id:
                continue
            if contract.child_ckpt_id == new_ckpt.ckpt_id:
                continue
            if contract.saved_rows:
                continue
            if contract.emitted_at_signing != tuples_emitted:
                continue
            contract.child_ckpt_id = new_ckpt.ckpt_id
            contract.control = dict(new_control)
            contract.work_at_signing = work_now
            # Nested stream-child contracts recorded positions as of the
            # original signing; after migration the target moved to the new
            # checkpoint, whose own contracts cover the children, so the
            # stale nested contracts are dropped.
            self._remove_nested(contract)
            migrated += 1
        return migrated

    def _remove_nested(self, contract: Contract) -> None:
        for sub in contract.nested.values():
            self._remove_nested(sub)
            self._contracts.pop(sub.contract_id, None)
        contract.nested = {}

    # ------------------------------------------------------------------
    # Pruning (Section 3.4) and Theorem 1
    # ------------------------------------------------------------------
    def prune(self) -> int:
        """Delete inactive checkpoints and contracts; return deletions.

        A contract is live iff its anchor (checkpoint or enclosing
        contract) is live. A checkpoint is live iff it is its operator's
        latest or some live contract is fulfilled by it. Computed as a
        fixpoint (the graph is tiny, O(nh)).
        """
        removed = 0
        while True:
            live_ckpts = set(self._checkpoints)
            dead_contracts = [
                cid
                for cid, c in self._contracts.items()
                if (
                    c.anchor_ckpt_id is not None
                    and c.anchor_ckpt_id not in live_ckpts
                )
                or (
                    c.anchor_contract_id is not None
                    and c.anchor_contract_id not in self._contracts
                )
            ]
            for cid in dead_contracts:
                del self._contracts[cid]
            referenced = {c.child_ckpt_id for c in self._contracts.values()}
            latest_ids = {c.ckpt_id for c in self._latest.values()}
            dead_ckpts = [
                ckpt_id
                for ckpt_id in self._checkpoints
                if ckpt_id not in referenced and ckpt_id not in latest_ids
            ]
            for ckpt_id in dead_ckpts:
                del self._checkpoints[ckpt_id]
            removed += len(dead_contracts) + len(dead_ckpts)
            if not dead_contracts and not dead_ckpts:
                if self.tracer.enabled:
                    if removed:
                        self.tracer.event(
                            "graph.pruned",
                            removed=removed,
                            checkpoints=len(self._checkpoints),
                            contracts=len(self._contracts),
                        )
                    metrics = self.tracer.metrics
                    metrics.gauge("contract_graph_checkpoints").max(
                        len(self._checkpoints)
                    )
                    metrics.gauge("contract_graph_contracts").max(
                        len(self._contracts)
                    )
                return removed

    def check_theorem1_bound(self, num_operators: int, height: int) -> None:
        """Assert the Theorem 1 size bound on the live graph.

        Each operator keeps at most ``height + 1`` active checkpoints (its
        latest plus one per ancestor whose latest checkpoint reaches it).
        """
        if self.tracer.enabled:
            # The Theorem 1 headroom metric: live node count vs the O(nh)
            # limit the theorem guarantees.
            limit = (height + 1) * num_operators
            self.tracer.metrics.gauge("contract_graph_theorem1_bound").set(
                limit
            )
        per_op: dict[int, int] = {}
        for ckpt in self._checkpoints.values():
            per_op[ckpt.op_id] = per_op.get(ckpt.op_id, 0) + 1
        for op_id, count in per_op.items():
            if count > height + 1:
                raise ContractError(
                    f"operator {op_id} holds {count} live checkpoints, "
                    f"exceeding the Theorem 1 bound of height+1={height + 1}"
                )
        limit = (height + 1) * num_operators
        if len(self._checkpoints) > limit:
            raise ContractError(
                f"{len(self._checkpoints)} live checkpoints exceed the "
                f"O(nh) bound of {limit}"
            )

    def total_nominal_bytes(self, bytes_per_row: int = 200) -> int:
        """Nominal in-memory footprint of the live graph (for reporting)."""
        total = sum(c.nominal_bytes() for c in self._checkpoints.values())
        total += sum(
            c.nominal_bytes(bytes_per_row) for c in self._contracts.values()
        )
        return total
