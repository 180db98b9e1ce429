"""Suspend-time cost constants for the Section 5 optimization.

At suspend time we know the exact runtime state of every operator — "the
ideal time to perform this optimization" per the paper. This module walks
the contract graph to enumerate, for every operator i and every potential
GoBack anchor j in anc(i), the *chain link*: which checkpoint would
fulfill the chain, which contract would be enforced, and what the
roll-forward target is. From the links it derives the MIP constants:

- ``d_s[i]`` / ``d_r[i]``: DumpState suspend/resume costs,
- ``g_s[(i, j)]`` / ``g_r[(i, j)]``: GoBack suspend/resume costs,
- ``c[(i, j)]``: the cannot-dump-under-chain-j restriction (the
  operator's latest checkpoint postdates the fulfilling one, or the
  operator is stateless and therefore must propagate the chain).

A missing link (e.g. right after a resume, before the contract graph has
re-formed) simply removes the corresponding x_{i,j} variable from the
optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.common.errors import ContractError
from repro.core.strategies import PlanTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.base import Operator
    from repro.engine.runtime import Runtime


@dataclass
class ChainLink:
    """How operator ``op_id`` would fulfill a GoBack chain anchored at j.

    ``fresh`` links describe a contract that would be signed at suspend
    time itself (a stream child beneath the anchor): the target is the
    operator's current state, so the roll-forward is empty for stateless
    operators and "rebuild to current" for stateful ones.
    """

    op_id: int
    anchor_id: int
    fulfilling_ckpt_id: Optional[int]
    ckpt_payload: Optional[dict]
    target_control: Optional[dict]
    work_baseline: float
    fresh: bool = False
    enforced_contract_id: Optional[int] = None


@dataclass
class SuspendCostModel:
    """Everything the MIP needs, computed from live runtime state."""

    op_ids: list[int]
    parent: dict[int, int]
    stateful: dict[int, bool]
    has_checkpoint: dict[int, bool]
    d_s: dict[int, float]
    d_r: dict[int, float]
    links: dict[tuple[int, int], ChainLink]
    g_s: dict[tuple[int, int], float]
    g_r: dict[tuple[int, int], float]
    cannot_dump_under: set[tuple[int, int]] = field(default_factory=set)

    def anchors_of(self, op_id: int) -> list[int]:
        """Feasible GoBack anchors for ``op_id`` (the paper's anc(i),
        restricted to chains the contract graph can actually support)."""
        return sorted(j for (i, j) in self.links if i == op_id)

    def ancestors_and_self(self, op_id: int) -> list[int]:
        chain = [op_id]
        current = op_id
        while current in self.parent:
            current = self.parent[current]
            chain.append(current)
        return chain

    def topology(self) -> PlanTopology:
        return PlanTopology(
            parent=dict(self.parent),
            stateful=dict(self.stateful),
            has_checkpoint=dict(self.has_checkpoint),
            cannot_dump_under=frozenset(self.cannot_dump_under),
        )


def build_cost_model(runtime: "Runtime") -> SuspendCostModel:
    """Compute the Section 5 constants from the current runtime state."""
    graph = runtime.graph
    ops = runtime.ops
    root = runtime.root()

    parent = {
        op.op_id: op.parent.op_id for op in ops.values() if op.parent is not None
    }
    stateful = {op.op_id: op.STATEFUL for op in ops.values()}
    has_checkpoint = {
        op.op_id: graph.latest_checkpoint(op.op_id) is not None
        for op in ops.values()
    }

    d_s = {op.op_id: op.estimate_dump_suspend_cost() for op in ops.values()}
    d_r = {op.op_id: op.estimate_dump_resume_cost() for op in ops.values()}

    links: dict[tuple[int, int], ChainLink] = {}

    # One chain per potential anchor: every stateful operator with a live
    # checkpoint can start a chain at its own latest checkpoint.
    for op in ops.values():
        if not op.STATEFUL:
            continue
        latest = graph.latest_checkpoint(op.op_id)
        if latest is None:
            continue
        _descend(
            graph, links, op, op.op_id,
            ChainLink(
                op_id=op.op_id,
                anchor_id=op.op_id,
                fulfilling_ckpt_id=latest.ckpt_id,
                ckpt_payload=latest.payload,
                target_control=None,
                work_baseline=latest.work_at,
            ),
        )

    g_s: dict[tuple[int, int], float] = {}
    g_r: dict[tuple[int, int], float] = {}
    cannot_dump: set[tuple[int, int]] = set()
    for (i, j), link in links.items():
        op = ops[i]
        g_s[(i, j)] = op.estimate_goback_suspend_cost(link)
        g_r[(i, j)] = op.estimate_goback_resume_cost(link)
        if i == j:
            continue
        if not op.STATEFUL:
            # Stateless operators hold no heap state; they must propagate
            # any chain they are part of — except through a *fresh* link
            # (a contract that would be signed at the suspend moment
            # itself), where dumping records the identical position.
            if not link.fresh:
                cannot_dump.add((i, j))
            continue
        latest = graph.latest_checkpoint(i)
        if link.fulfilling_ckpt_id is None:
            continue
        fulfilling = graph.checkpoint(link.fulfilling_ckpt_id)
        # "Dump to contract" restores the target's cursors over the heap
        # dumped now, so it needs the heap the contract was signed over.
        # This test is true to that only because operators never discard
        # heap state without a checkpoint (a block NLJ checkpoints at the
        # end of its last pass too): no newer checkpoint, same heap. A
        # hash operator's first partition load takes heap without one;
        # a target before it holds none, and the restore takes none.
        if latest is not None and latest.seq > fulfilling.seq:
            cannot_dump.add((i, j))

    return SuspendCostModel(
        op_ids=sorted(ops),
        parent=parent,
        stateful=stateful,
        has_checkpoint=has_checkpoint,
        d_s=d_s,
        d_r=d_r,
        links=links,
        g_s=g_s,
        g_r=g_r,
        cannot_dump_under=cannot_dump,
    )


def _descend(graph, links: dict, op: "Operator", anchor_id, link) -> None:
    """Extend chain ``anchor_id`` from ``op`` (whose link is known) down
    to its children, recording every link in ``links``."""
    links[(op.op_id, anchor_id)] = link
    stream_ids = {c.op_id for c in op.stream_children()}
    for child in op.children:
        child_link = _child_link(graph, child, anchor_id, link, stream_ids)
        if child_link is not None:
            _descend(graph, links, child, anchor_id, child_link)


def _child_link(graph, child, anchor_id, link, stream_ids):
    if child.op_id in stream_ids:
        if link.fresh or link.enforced_contract_id is None:
            return _fresh_link(graph, child, anchor_id)
        contract = graph.contract(link.enforced_contract_id)
        nested = contract.nested.get(child.op_id)
        if nested is None:
            # Contract was migrated to the checkpoint; fall through to
            # the checkpoint's own contract with this child.
            return _ckpt_contract_link(graph, child, anchor_id, link)
        try:
            ckpt = graph.checkpoint(nested.child_ckpt_id)
        except ContractError:
            return None
        return ChainLink(
            op_id=child.op_id,
            anchor_id=anchor_id,
            fulfilling_ckpt_id=ckpt.ckpt_id,
            ckpt_payload=ckpt.payload,
            target_control=nested.control,
            work_baseline=ckpt.work_at,
            enforced_contract_id=nested.contract_id,
        )
    return _ckpt_contract_link(graph, child, anchor_id, link)


def _ckpt_contract_link(graph, child, anchor_id, link):
    if link.fulfilling_ckpt_id is None:
        return _fresh_link(graph, child, anchor_id)
    try:
        parent_ckpt = graph.checkpoint(link.fulfilling_ckpt_id)
        contract = graph.contract_from(parent_ckpt, child.op_id)
        ckpt = graph.checkpoint(contract.child_ckpt_id)
    except ContractError:
        return None
    return ChainLink(
        op_id=child.op_id,
        anchor_id=anchor_id,
        fulfilling_ckpt_id=ckpt.ckpt_id,
        ckpt_payload=ckpt.payload,
        target_control=contract.control,
        work_baseline=ckpt.work_at,
        enforced_contract_id=contract.contract_id,
    )


def _fresh_link(graph, child, anchor_id):
    if child.STATEFUL:
        latest = graph.latest_checkpoint(child.op_id)
        if latest is None:
            return None
        return ChainLink(
            op_id=child.op_id,
            anchor_id=anchor_id,
            fulfilling_ckpt_id=latest.ckpt_id,
            ckpt_payload=latest.payload,
            target_control=None,
            work_baseline=latest.work_at,
            fresh=True,
        )
    return ChainLink(
        op_id=child.op_id,
        anchor_id=anchor_id,
        fulfilling_ckpt_id=None,
        ckpt_payload=None,
        target_control=None,
        work_baseline=child.work,
        fresh=True,
    )
