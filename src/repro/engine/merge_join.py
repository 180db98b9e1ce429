"""Merge join over two sorted inputs, using value packets (Section 4).

The operator pulls batches of equal-key tuples ("value packets") from both
children and emits their cross product. The current packets plus one
lookahead tuple per side are the heap state; the control state is the
cursor pair, the per-child consumed-tuple counts, and the state-machine
position — everything GoBack resume needs to roll the packets forward
from a checkpoint.

The operator is written as an explicit restartable state machine
(advance → collect_left → collect_right → emit) because a suspend
exception can unwind out of any child ``next()`` call: every transition
leaves the in-memory state consistent, so execution (or a GoBack
roll-forward) can continue exactly where it stopped.

Minimal-heap-state points occur when a packet pair is exhausted; the
operator checkpoints there proactively. Both children are heap children:
their GoBack positions come from the fulfilling checkpoint's contracts,
and the roll-forward re-consumes exactly (consumed_now - consumed_at_ckpt)
tuples per side while skipping the cross-product outputs before the target
cursors (Section 3.3 skipping).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.common.errors import ContractError
from repro.core.suspended_query import KIND_DUMP, KIND_GOBACK, OpSuspendEntry
from repro.engine.base import Operator, Row
from repro.engine.runtime import ResumeContext, Runtime
from repro.relational.expressions import EquiJoinCondition

STATE_ADVANCE = "advance"
STATE_COLLECT_LEFT = "collect_left"
STATE_COLLECT_RIGHT = "collect_right"
STATE_EMIT = "emit"
STATE_DONE = "done"


class _Side:
    """One input of the merge: its child, the lookahead tuple (``None``:
    needs a pull, unless ``eof``), the count of tuples consumed, and the
    current value packet."""

    __slots__ = ("child", "key_fn", "next", "eof", "consumed", "packet")

    def __init__(self, child: Operator, key_fn: Callable[[Row], object]):
        self.child = child
        self.key_fn = key_fn
        self.next: Optional[Row] = None
        self.eof = False
        self.consumed = 0
        self.packet: list[Row] = []


class MergeJoin(Operator):
    """Sort-merge join; both inputs must arrive sorted on the join keys."""

    STATEFUL = True

    def __init__(
        self,
        op_id: int,
        name: str,
        left: Operator,
        right: Operator,
        runtime: Runtime,
        condition: EquiJoinCondition,
    ):
        super().__init__(
            op_id, name, [left, right], runtime, left.schema.concat(right.schema)
        )
        self.condition = condition
        self.state = STATE_ADVANCE
        self.collect_key = None
        self.left = _Side(left, condition.left_key)
        self.right = _Side(right, condition.right_key)
        #: Cursor into the cross product of the two packets.
        self.l_idx = 0
        self.r_idx = 0

    def _named_sides(self) -> tuple:
        """Each side with its prefix and packet name in the image
        format (``control_state``, ``_checkpoint_payload`` and
        ``_heap_state_payload`` spell the keys out: their order is part
        of the format)."""
        return (
            (self.left, "l", "left_packet"),
            (self.right, "r", "right_packet"),
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pull(self, side: _Side) -> None:
        row = side.child.next()
        side.next = row
        if row is None:
            side.eof = True
        else:
            side.consumed += 1
            self.charge_cpu(1)

    def _next_batch(self, max_rows: int) -> list:
        """Form a packet pair (advance, collect left, collect right — the
        steps that pull the children, one tuple at a time), then drain
        its cross product in runs.

        Emitting charges only the per-row wrapper CPU tuple, so a run is
        one charge. Packet exhaustion ends a non-empty batch: the
        minimal-heap-state checkpoint is then taken at the start of the
        next call, with nothing emitted after it.
        """
        out: list = []
        need = max_rows
        while need > 0:
            if self.state == STATE_DONE:
                break
            if self.state == STATE_EMIT:
                lp = self.left.packet
                rp = self.right.packet
                ln, rn = len(lp), len(rp)
                l_idx, r_idx = self.l_idx, self.r_idx
                take = min((ln - l_idx) * rn - r_idx, need)
                if take > 0:
                    k = 0
                    while k < take:
                        row_l = lp[l_idx]
                        run = min(rn - r_idx, take - k)
                        out.extend(
                            [row_l + rp[j] for j in range(r_idx, r_idx + run)]
                        )
                        k += run
                        r_idx += run
                        if r_idx >= rn:
                            r_idx = 0
                            l_idx += 1
                    self.l_idx = l_idx
                    self.r_idx = r_idx
                    self.tuples_emitted += take
                    self.charge_cpu(take)
                    need -= take
                    continue
                if out:
                    break
                # Packet pair exhausted: minimal-heap-state point.
                self.left.packet = []
                self.right.packet = []
                self.l_idx = 0
                self.r_idx = 0
                self.state = STATE_ADVANCE
                self.make_checkpoint()
            if self.state == STATE_ADVANCE:
                if not self._advance():
                    self.state = STATE_DONE
                    break
                self.state = STATE_COLLECT_LEFT
            if self.state == STATE_COLLECT_LEFT:
                self._collect(self.left)
                self.state = STATE_COLLECT_RIGHT
            if self.state == STATE_COLLECT_RIGHT:
                self._collect(self.right)
                self.l_idx = 0
                self.r_idx = 0
                self.state = STATE_EMIT
        return out

    def _advance(self) -> bool:
        """Move both lookaheads to the next matching key; False at EOF.

        A lookahead of None means "needs a pull" unless the corresponding
        eof flag says the child is exhausted. Non-matching tuples are
        discarded by nulling the lookahead, so every child pull happens
        with consistent state (restartability).
        """
        left, right = self.left, self.right
        while True:
            for side in (left, right):
                if side.next is None:
                    if side.eof:
                        return False
                    self._pull(side)
                    if side.next is None:
                        return False
            lkey = left.key_fn(left.next)
            rkey = right.key_fn(right.next)
            if lkey < rkey:
                left.next = None
            elif lkey > rkey:
                right.next = None
            else:
                self.collect_key = lkey
                return True

    def _collect(self, side: _Side) -> None:
        """Collect the value packet for ``collect_key`` on one side.

        Restartable: each appended tuple nulls the lookahead before the
        next pull, so a suspend landing inside the pull resumes cleanly.
        """
        while True:
            if side.next is None:
                if side.eof:
                    return
                self._pull(side)
                if side.next is None:
                    return  # child exhausted
            if side.key_fn(side.next) != self.collect_key:
                return  # lookahead stays for the next packet
            side.packet.append(side.next)
            side.next = None

    # ------------------------------------------------------------------
    # Generalized per-child suspend plans (Section 3.4)
    # ------------------------------------------------------------------
    def do_suspend(self, ctx) -> None:
        decision = ctx.plan.decision(self.op_id)
        if (
            decision.strategy.value == "goback"
            and decision.dump_children
        ):
            ckpt = ctx.graph.latest_checkpoint(self.op_id)
            self._suspend_mixed(ctx, ckpt, contract=None, decision=decision)
            return
        super().do_suspend(ctx)

    def do_suspend_to(self, contract, ctx) -> None:
        decision = ctx.plan.decision(self.op_id)
        if (
            decision.strategy.value == "goback"
            and decision.dump_children
        ):
            latest = ctx.graph.latest_checkpoint(self.op_id)
            if latest is None or latest.ckpt_id != contract.child_ckpt_id:
                raise ContractError(
                    f"{self.name}: per-child dump requires the enforced "
                    "contract to target the latest checkpoint (same "
                    "packet episode)"
                )
            ckpt = ctx.graph.checkpoint(contract.child_ckpt_id)
            self._suspend_mixed(ctx, ckpt, contract=contract, decision=decision)
            return
        super().do_suspend_to(contract, ctx)

    def _suspend_mixed(self, ctx, ckpt, contract, decision) -> None:
        """GoBack overall, but dump the packets of the listed children.

        Dumped-side children keep their current positions (they receive a
        plain Suspend()); regenerated-side children suspend to the
        fulfilling checkpoint's contracts as in a normal GoBack.
        """
        target = (
            dict(contract.control) if contract is not None
            else self.control_state()
        )
        dumped = {
            packet: list(side.packet)
            for side, _, packet in self._named_sides()
            if side.child.op_id in decision.dump_children
        }
        rows = sum(len(v) for v in dumped.values())
        per_page = self.schema.tuples_per_page(
            self.rt.disk.cost_model.page_bytes
        )
        handle = None
        if rows:
            key = ctx.store.fresh_key(f"dump_{self.name}_partial")
            with self.attribute_work():
                handle = ctx.store.dump(
                    key, dumped, math.ceil(rows / per_page)
                )
        entry = OpSuspendEntry(
            op_id=self.op_id,
            kind=KIND_GOBACK,
            target_control=target,
            ckpt_payload=dict(ckpt.payload),
            dump_handle=handle,
            saved_rows=self._owed_rows(contract),
        )
        ctx.sq.add_entry(entry)
        for child in self.children:
            if child.op_id in decision.dump_children:
                child.do_suspend(ctx)
            else:
                child_contract = ctx.graph.contract_from(ckpt, child.op_id)
                child.do_suspend_to(child_contract, ctx)

    # ------------------------------------------------------------------
    # State introspection
    # ------------------------------------------------------------------
    def heap_tuples(self) -> int:
        return len(self.left.packet) + len(self.right.packet)

    def heap_pages(self) -> int:
        per_page = self.schema.tuples_per_page(
            self.rt.disk.cost_model.page_bytes
        )
        total = self.heap_tuples()
        return math.ceil(total / per_page) if total else 0

    def control_state(self) -> dict:
        left, right = self.left, self.right
        return {
            "state": self.state,
            "collect_key": self.collect_key,
            "l_consumed": left.consumed,
            "r_consumed": right.consumed,
            "l_len": len(left.packet),
            "r_len": len(right.packet),
            "l_idx": self.l_idx,
            "r_idx": self.r_idx,
            "l_next": left.next,
            "r_next": right.next,
            "l_eof": left.eof,
            "r_eof": right.eof,
        }

    def _checkpoint_payload(self) -> dict:
        # At a minimal-heap-state point the packets are empty; only the
        # consumed counts (baseline for roll-forward) and lookahead remain.
        left, right = self.left, self.right
        return {
            "l_consumed": left.consumed,
            "r_consumed": right.consumed,
            "l_next": left.next,
            "r_next": right.next,
            "l_eof": left.eof,
            "r_eof": right.eof,
        }

    def _heap_state_payload(self):
        return {
            "left_packet": list(self.left.packet),
            "right_packet": list(self.right.packet),
        }

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _restore_sides(self, state: dict, packets: dict) -> None:
        """Each side's position from ``state`` (a control state or a
        checkpoint payload) and its packet from ``packets``."""
        for side, prefix, packet in self._named_sides():
            side.consumed = state[f"{prefix}_consumed"]
            side.next = state[f"{prefix}_next"]
            side.eof = state[f"{prefix}_eof"]
            side.packet = list(packets.get(packet, []))

    def _restore_full_state(self, heap: dict, control: dict) -> None:
        self.state = control["state"]
        self.collect_key = control["collect_key"]
        self.l_idx = control["l_idx"]
        self.r_idx = control["r_idx"]
        self._restore_sides(control, heap)

    def _resume_from_dump(self, entry: OpSuspendEntry, payload) -> None:
        if entry.kind == KIND_DUMP:
            super()._resume_from_dump(entry, payload)
            return
        # DumpState to a contract: the dumped packets and consumption
        # state reflect the suspend point; the output position restarts
        # from the contract point.
        target = entry.target_control
        self._restore_full_state(payload, entry.current_control)
        if target["state"] == STATE_EMIT:
            self.l_idx = target["l_idx"]
            self.r_idx = target["r_idx"]
        else:
            # The contract predates this packet pair's output entirely:
            # replay the whole cross product.
            self.l_idx = 0
            self.r_idx = 0

    def _restore_checkpoint(self, ckpt: dict) -> None:
        self._restore_sides(ckpt, {})

    def _roll_forward(self, target: dict, entry, ctx: ResumeContext) -> None:
        """Re-consume child tuples from the restored counts to the target
        counts, keeping only what is needed to rebuild the current
        packets."""
        # Per-child dumps (Section 3.4): sides whose packet was written
        # to disk are reloaded instead of regenerated; their children
        # kept their positions, so no roll-forward pulls happen there.
        dumped = {}
        if entry.dump_handle is not None:
            with self.attribute_work():
                dumped = ctx.store.load(entry.dump_handle)
        packets = {}
        for side, prefix, packet in self._named_sides():
            packet_len = target[f"{prefix}_len"]
            if packet in dumped:
                packets[packet] = dumped[packet][:packet_len]
            else:
                packets[packet] = self._rebuild_packet(
                    side,
                    target[f"{prefix}_consumed"],
                    packet_len,
                    target[f"{prefix}_next"],
                )
        self._restore_full_state(packets, target)

    def _rebuild_packet(
        self, side: _Side, consumed_target, packet_len, target_lookahead
    ) -> list[Row]:
        """Re-pull one side up to the target consumed count.

        The stream of tuples seen — the restored packet (a full-state
        checkpoint's, usually empty), the restored lookahead (if any), and
        the re-pulled tuples — reproduces the original consumption order.
        If the target has a lookahead, the final seen tuple is it and the
        ``packet_len`` tuples before it form the packet; otherwise the
        packet is the last ``packet_len`` seen tuples.
        """
        window = list(side.packet)
        if side.next is not None:
            window.append(side.next)
        keep = packet_len + 1
        while side.consumed < consumed_target:
            self._pull(side)
            if side.next is None:
                raise ContractError(
                    f"{self.name}: child exhausted during GoBack roll-forward"
                )
            window.append(side.next)
            if len(window) > keep:
                window.pop(0)
        packet_source = window if target_lookahead is None else window[:-1]
        if len(packet_source) < packet_len:
            raise ContractError(
                f"{self.name}: roll-forward produced only "
                f"{len(packet_source)} packet tuples, target {packet_len}"
            )
        return packet_source[-packet_len:] if packet_len else []
