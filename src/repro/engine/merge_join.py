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
from typing import Optional

from repro.common.errors import ContractError
from repro.core.suspended_query import OpSuspendEntry
from repro.engine.base import Operator, Row
from repro.engine.runtime import ResumeContext, Runtime
from repro.relational.expressions import EquiJoinCondition

STATE_ADVANCE = "advance"
STATE_COLLECT_LEFT = "collect_left"
STATE_COLLECT_RIGHT = "collect_right"
STATE_EMIT = "emit"
STATE_DONE = "done"


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
        self.left_packet: list[Row] = []
        self.right_packet: list[Row] = []
        self.l_idx = 0
        self.r_idx = 0
        self.l_next: Optional[Row] = None
        self.r_next: Optional[Row] = None
        self.l_eof = False
        self.r_eof = False
        self.l_consumed = 0
        self.r_consumed = 0

    @property
    def left(self) -> Operator:
        return self.children[0]

    @property
    def right(self) -> Operator:
        return self.children[1]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pull_left(self) -> None:
        row = self.left.next()
        self.l_next = row
        if row is None:
            self.l_eof = True
        else:
            self.l_consumed += 1
            self.charge_cpu(1)

    def _pull_right(self) -> None:
        row = self.right.next()
        self.r_next = row
        if row is None:
            self.r_eof = True
        else:
            self.r_consumed += 1
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
                lp = self.left_packet
                rp = self.right_packet
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
                self.left_packet = []
                self.right_packet = []
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
                self._collect_side(left_side=True)
                self.state = STATE_COLLECT_RIGHT
            if self.state == STATE_COLLECT_RIGHT:
                self._collect_side(left_side=False)
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
        while True:
            if self.l_next is None:
                if self.l_eof:
                    return False
                self._pull_left()
                if self.l_next is None:
                    return False
            if self.r_next is None:
                if self.r_eof:
                    return False
                self._pull_right()
                if self.r_next is None:
                    return False
            lkey = self.condition.left_key(self.l_next)
            rkey = self.condition.right_key(self.r_next)
            if lkey < rkey:
                self.l_next = None
            elif lkey > rkey:
                self.r_next = None
            else:
                self.collect_key = lkey
                return True

    def _collect_side(self, left_side: bool) -> None:
        """Collect the value packet for ``collect_key`` on one side.

        Restartable: each appended tuple nulls the lookahead before the
        next pull, so a suspend landing inside the pull resumes cleanly.
        """
        while True:
            lookahead = self.l_next if left_side else self.r_next
            if lookahead is None:
                if (self.l_eof if left_side else self.r_eof):
                    return
                if left_side:
                    self._pull_left()
                    lookahead = self.l_next
                else:
                    self._pull_right()
                    lookahead = self.r_next
                if lookahead is None:
                    return  # child exhausted
            key = (
                self.condition.left_key(lookahead)
                if left_side
                else self.condition.right_key(lookahead)
            )
            if key != self.collect_key:
                return  # lookahead stays for the next packet
            if left_side:
                self.left_packet.append(lookahead)
                self.l_next = None
            else:
                self.right_packet.append(lookahead)
                self.r_next = None

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
        from repro.core.suspended_query import KIND_GOBACK, OpSuspendEntry

        target = (
            dict(contract.control) if contract is not None
            else self.control_state()
        )
        dumped = {}
        if self.left.op_id in decision.dump_children:
            dumped["left_packet"] = list(self.left_packet)
        if self.right.op_id in decision.dump_children:
            dumped["right_packet"] = list(self.right_packet)
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
            saved_rows=list(contract.saved_rows) if contract else [],
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
        return len(self.left_packet) + len(self.right_packet)

    def heap_pages(self) -> int:
        per_page = self.schema.tuples_per_page(
            self.rt.disk.cost_model.page_bytes
        )
        total = self.heap_tuples()
        return math.ceil(total / per_page) if total else 0

    def control_state(self) -> dict:
        return {
            "state": self.state,
            "collect_key": self.collect_key,
            "l_consumed": self.l_consumed,
            "r_consumed": self.r_consumed,
            "l_len": len(self.left_packet),
            "r_len": len(self.right_packet),
            "l_idx": self.l_idx,
            "r_idx": self.r_idx,
            "l_next": self.l_next,
            "r_next": self.r_next,
            "l_eof": self.l_eof,
            "r_eof": self.r_eof,
        }

    def _checkpoint_payload(self) -> dict:
        # At a minimal-heap-state point the packets are empty; only the
        # consumed counts (baseline for roll-forward) and lookahead remain.
        return {
            "l_consumed": self.l_consumed,
            "r_consumed": self.r_consumed,
            "l_next": self.l_next,
            "r_next": self.r_next,
            "l_eof": self.l_eof,
            "r_eof": self.r_eof,
        }

    def _heap_state_payload(self):
        return {
            "left_packet": list(self.left_packet),
            "right_packet": list(self.right_packet),
        }

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _restore_control(self, control: dict) -> None:
        self.state = control["state"]
        self.collect_key = control["collect_key"]
        self.l_idx = control["l_idx"]
        self.r_idx = control["r_idx"]
        self.l_next = control["l_next"]
        self.r_next = control["r_next"]
        self.l_eof = control["l_eof"]
        self.r_eof = control["r_eof"]
        self.l_consumed = control["l_consumed"]
        self.r_consumed = control["r_consumed"]

    def _resume_from_dump(self, entry: OpSuspendEntry, payload, ctx) -> None:
        target = entry.target_control
        current = entry.current_control or target
        payload = payload or {"left_packet": [], "right_packet": []}
        # The dumped packets and consumption state reflect the suspend
        # point; the output position restarts from the contract point.
        self.left_packet = list(payload["left_packet"])[: current["l_len"]]
        self.right_packet = list(payload["right_packet"])[: current["r_len"]]
        self._restore_control(current)
        if target["state"] == STATE_EMIT:
            self.l_idx = target["l_idx"]
            self.r_idx = target["r_idx"]
        else:
            # The contract predates this packet pair's output entirely:
            # replay the whole cross product.
            self.l_idx = 0
            self.r_idx = 0

    def _resume_goback(self, entry: OpSuspendEntry, ctx: ResumeContext) -> None:
        """Re-consume child tuples from the checkpoint to the target counts,
        keeping only what is needed to rebuild the current packets."""
        ckpt = entry.ckpt_payload or {
            "l_consumed": 0,
            "r_consumed": 0,
            "l_next": None,
            "r_next": None,
            "l_eof": False,
            "r_eof": False,
        }
        seed_left: list[Row] = []
        seed_right: list[Row] = []
        if ckpt.get("__full_state__"):
            heap = ckpt["heap"] or {}
            seed_left = list(heap.get("left_packet", []))
            seed_right = list(heap.get("right_packet", []))
            ckpt = ckpt["control"]
        target = entry.target_control
        self.l_consumed = ckpt["l_consumed"]
        self.r_consumed = ckpt["r_consumed"]
        self.l_next = ckpt["l_next"]
        self.r_next = ckpt["r_next"]
        self.l_eof = ckpt["l_eof"]
        self.r_eof = ckpt["r_eof"]

        # Per-child dumps (Section 3.4): sides whose packet was written
        # to disk are reloaded instead of regenerated; their children
        # kept their positions, so no roll-forward pulls happen there.
        dumped = {}
        if entry.dump_handle is not None:
            with self.attribute_work():
                dumped = ctx.store.load(entry.dump_handle)

        if "left_packet" in dumped:
            self.left_packet = list(dumped["left_packet"])[: target["l_len"]]
        else:
            self.left_packet = self._roll_forward_side(
                left_side=True,
                seed=seed_left,
                lookahead=self.l_next,
                consumed_target=target["l_consumed"],
                packet_len=target["l_len"],
                target_lookahead=target["l_next"],
            )
        if "right_packet" in dumped:
            self.right_packet = list(dumped["right_packet"])[: target["r_len"]]
        else:
            self.right_packet = self._roll_forward_side(
                left_side=False,
                seed=seed_right,
                lookahead=self.r_next,
                consumed_target=target["r_consumed"],
                packet_len=target["r_len"],
                target_lookahead=target["r_next"],
            )
        self._restore_control(target)

    def _roll_forward_side(
        self,
        left_side,
        seed,
        lookahead,
        consumed_target,
        packet_len,
        target_lookahead,
    ) -> list[Row]:
        """Re-pull one side up to the target consumed count.

        The stream of tuples seen — ``seed`` (a full-state checkpoint's
        packet, usually empty), the checkpoint lookahead (if any), and the
        re-pulled tuples — reproduces the original consumption order. If
        the target has a lookahead, the final seen tuple is it and the
        ``packet_len`` tuples before it form the packet; otherwise the
        packet is the last ``packet_len`` seen tuples.
        """
        window: list[Row] = list(seed)
        if lookahead is not None:
            window.append(lookahead)
        keep = packet_len + 1
        consumed = self.l_consumed if left_side else self.r_consumed
        while consumed < consumed_target:
            if left_side:
                self._pull_left()
                row = self.l_next
            else:
                self._pull_right()
                row = self.r_next
            consumed += 1
            if row is None:
                raise ContractError(
                    f"{self.name}: child exhausted during GoBack roll-forward"
                )
            window.append(row)
            if len(window) > keep:
                window.pop(0)
        packet_source = window if target_lookahead is None else window[:-1]
        if len(packet_source) < packet_len:
            raise ContractError(
                f"{self.name}: roll-forward produced only "
                f"{len(packet_source)} packet tuples, target {packet_len}"
            )
        return packet_source[-packet_len:] if packet_len else []
