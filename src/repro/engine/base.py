"""Operator base class: the extended iterator interface of the paper.

Beyond ``open``/``next``/``close``, every operator participates in the
checkpoint/contract protocol of Section 3:

- stateful operators call :meth:`make_checkpoint` at every
  minimal-heap-state point (proactive checkpointing);
- :meth:`sign_contract` implements ``SignContract(Ckpt)``: the child
  records its control state in a new contract and either points it at its
  latest proactive checkpoint (stateful) or creates a reactive checkpoint
  (stateless, recursing into its own children);
- :meth:`do_suspend` / :meth:`do_suspend_to` implement ``Suspend()`` /
  ``Suspend(Ctr)``, carrying out the DumpState or GoBack strategy chosen
  by the suspend plan and populating the SuspendedQuery structure;
- :meth:`do_resume` implements ``Resume()``: children first, then the one
  restore rule for the operator's kind and entry. A stateless operator
  restores its position (:meth:`_restore_control`), whatever the entry.
  A stateful one restores a DumpState entry as a full-state checkpoint
  (:meth:`_restore_full_state` over the dumped heap) and a GoBack entry by
  rolling forward from the fulfilling checkpoint to the recorded target,
  *skipping* regeneration work where the operator semantics allow
  (Section 3.3).

Subclasses distinguish *heap children* (whose tuples build the operator's
heap state; their GoBack positions come from the fulfilling checkpoint's
contracts) from *stream children* (consumed tuple-at-a-time after the heap
is built, like block NLJ's inner; their positions are captured by nested
contracts signed at contract-signing time).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.common.errors import ContractError, ReproError
from repro.core.checkpoint import Checkpoint, Contract, control_state_bytes
from repro.core.strategies import Strategy
from repro.core.suspended_query import (
    KIND_DUMP,
    KIND_DUMP_TO_CONTRACT,
    KIND_GOBACK,
    OpSuspendEntry,
)
from repro.engine.runtime import ResumeContext, Runtime, SuspendContext
from repro.relational.schema import Schema
from repro.storage.disk import IOCounters
from repro.storage.statefile import DumpHandle

Row = tuple

#: Rows one ``next_batch`` call asks for when nothing bounds the request:
#: ``execute()`` without ``max_rows``, and a parent draining a heap child
#: with no checkpoint point of its own ahead (hash partitioning). Purely a
#: wall-clock knob: batches are invisible to the virtual clock and the
#: checkpoint/contract protocol.
BATCH_ROWS = 1024

#: Marks the payload of a post-resume full-state checkpoint
#: (:meth:`Operator._reactive_checkpoint`).
_FULL_STATE = "__full_state__"


class Operator:
    """Base physical operator. Subclasses implement the ``_``-hooks."""

    #: Stateful operators hold heap state and checkpoint proactively at
    #: minimal-heap-state points; stateless ones checkpoint reactively.
    STATEFUL = False
    #: Whether the operator supports rewind() (restart current output pass).
    REWINDABLE = False
    #: The keys of :meth:`_disk_state`'s dict, which a DumpState entry
    #: carries in ``current_control``.
    DISK_KEYS: tuple = ()

    def __init__(
        self,
        op_id: int,
        name: str,
        children: Sequence["Operator"],
        runtime: Runtime,
        schema: Schema,
    ):
        self.op_id = op_id
        self.name = name
        self.children = list(children)
        self.rt = runtime
        self.schema = schema
        self.parent: Optional["Operator"] = None
        for child in self.children:
            child.parent = self
        self.tuples_emitted = 0
        #: Integer events (page reads/writes, tuples) attributed to this
        #: operator; :attr:`work` prices them. Written only by
        #: :meth:`charge_cpu` and :meth:`attribute_work`.
        self.tally = IOCounters()
        self.is_open = False
        #: Rows to return before regular production (saved by contract
        #: migration, footnote 3 of the paper).
        self._pending_rows: deque = deque()
        runtime.register(self)
        #: Tracer bound with this operator's identity, and its sampling
        #: period for ``op.next_batch`` records (0: none) — both resolved
        #: once here so ``next_batch()`` pays a single attribute check
        #: when they are off.
        self._tr = runtime.tracer.bind(op=self.op_id, op_name=self.name)
        self._next_sample_every = self._tr.next_sample_every

    # ------------------------------------------------------------------
    # Iterator interface
    # ------------------------------------------------------------------
    def open(self) -> None:
        """Open children, initialize state, take the initial checkpoint."""
        for child in self.children:
            child.open()
        self._do_open()
        self.is_open = True
        if self.STATEFUL:
            # All stateful operators checkpoint just before execution
            # starts (Example 8 / Figure 5 of the paper).
            self.make_checkpoint()

    def next(self) -> Optional[Row]:
        """Return the next output row, or None when exhausted: how a
        parent pulls a *stream* child, whose position is the contract."""
        rows = self.next_batch(1)
        return rows[0] if rows else None

    def next_batch(self, max_rows: int) -> list:
        """Return up to ``max_rows`` output rows.

        - an **empty** list means the operator is exhausted;
        - a short non-empty batch means "call again" — operators end a
          batch early at checkpoint/phase boundaries so a batch never
          spans a checkpoint point: the checkpoint is then taken at the
          start of the next call, at the virtual-clock instant and
          operator state a one-row-per-call run takes it.

        Batch size is invisible to everything the paper accounts for:
        rows, integer counters, per-operator tallies, checkpoints and
        image bytes are the same for any sequence of ``max_rows`` values.
        Charges only count integer events, so their order and grouping
        are free; what a production hook owes is that its counts
        (:meth:`charge_cpu`) *and its control state* are settled before
        anyone else can read them: before any call that leaves the
        operator's own loop — a child's ``next``/``next_batch``/
        ``rewind``, ``make_checkpoint``/``sign_contract``, a state-store
        dump or load — and before the batch returns, because a child's
        entry poll may raise the suspend exception, and the suspend
        phase reads them as they stand.

        While a suspend trigger is armed every call polls at entry, and
        the controller shortens the request of the watched operator and
        of the operators above it (:class:`SuspendController`).

        Tracing observes the call, it never changes it: under
        ``Tracer(next_sample_every=N)`` the call is recorded as an
        ``op.next_batch`` span when it is the operator's first or its
        rows cross a multiple of N.
        """
        controller = self.rt.controller
        if controller.armed:
            controller.poll()
            max_rows = controller.cap_rows(self, max_rows)
        if max_rows <= 0:
            return []
        every = self._next_sample_every
        if every:
            emitted = self.tuples_emitted
            start = self._tr.now()
        pending = self._pending_rows
        if pending:
            # Rows saved by contract migration (footnote 3 of the paper)
            # or a resume come out first, then regular production.
            rows = [pending.popleft() for _ in range(min(max_rows, len(pending)))]
            self.tuples_emitted += len(rows)
            self.charge_cpu(len(rows))
            if len(rows) < max_rows:
                rows.extend(self._next_batch(max_rows - len(rows)))
        else:
            rows = self._next_batch(max_rows)
        if every and (
            emitted == 0 or (emitted + len(rows)) // every > emitted // every
        ):
            self._tr.event(
                "op.next_batch",
                ts=start,
                dur=round(self._tr.now() - start, 6),
                emitted=emitted,
                max_rows=max_rows,
                produced=len(rows),
            )
        return rows

    def _next_batch(self, max_rows: int) -> list:
        """The production hook: up to ``max_rows`` regular output rows,
        counted in ``tuples_emitted`` and charged one wrapper CPU tuple
        each. A subclass defines this or the single-row :meth:`_next`,
        which this default loops over; charges stay per-row there because
        ``_next`` may call into children, whose entry poll may raise the
        suspend exception."""
        rows: list = []
        while len(rows) < max_rows:
            row = self._next()
            if row is None:
                break
            rows.append(row)
            self.tuples_emitted += 1
            self.charge_cpu(1)
        return rows

    def _drain(self, child: "Operator", n: int) -> Sequence[Row]:
        """Up to ``n`` rows from a heap child. Empty means exhausted.

        Rows from a heap child go straight into heap state, so the
        child's position always equals what this operator holds; callers
        ask for exactly the room left before their own next checkpoint
        point, so a batch never spans one — and, while a ``fill`` trigger
        watches this operator's buffer, for no more than the room left
        before its threshold. Stream children, whose position is the
        contract, are pulled with ``next()``.
        """
        controller = self.rt.controller
        if controller.armed:
            n = min(n, controller.room(self, "fill"))
        return child.next_batch(n)

    def close(self) -> None:
        self._do_close()
        self.is_open = False
        for child in self.children:
            child.close()

    def rewind(self) -> None:
        """Restart output from the beginning of the current pass.

        Only rewindable operators (scans and stateless wrappers over
        rewindable inputs, plus sort in its merge phase) support this; it
        is how block NLJ re-reads its inner child each pass.
        """
        raise ReproError(f"operator {self.name} ({type(self).__name__}) "
                         "does not support rewind()")

    # Hooks ------------------------------------------------------------
    def _do_open(self) -> None:
        """Subclass initialization; children are already open."""

    def _next(self) -> Optional[Row]:
        """The single-row production hook of row-natured operators (see
        :meth:`_next_batch`)."""
        raise NotImplementedError

    def _do_close(self) -> None:
        """Subclass cleanup; children are closed afterwards."""

    # ------------------------------------------------------------------
    # Work accounting
    # ------------------------------------------------------------------
    @property
    def work(self) -> float:
        """Cumulative work attributed to this operator: its integer tally
        priced by the cost model, derived on read like the clock."""
        return self.rt.disk.cost_model.elapsed(self.tally)

    def charge_cpu(self, ntuples: int) -> None:
        """Charge CPU work for processing ``ntuples`` to this operator."""
        self.rt.disk.charge_cpu_tuples(ntuples)
        self.tally.cpu_tuples += ntuples

    @contextmanager
    def attribute_work(self):
        """Attribute the events charged inside the block to this operator.

        Wrap only *direct* storage calls — never calls into children,
        whose work is attributed to them by their own wrappers.
        """
        counters = self.rt.disk.query_counters
        reads = counters.pages_read
        writes = counters.pages_written
        tuples = counters.cpu_tuples
        yield
        tally = self.tally
        tally.pages_read += counters.pages_read - reads
        tally.pages_written += counters.pages_written - writes
        tally.cpu_tuples += counters.cpu_tuples - tuples

    # ------------------------------------------------------------------
    # Heap/control state introspection (drives costs and dumps)
    # ------------------------------------------------------------------
    def heap_tuples(self) -> int:
        """Number of tuples currently held in heap state."""
        return 0

    def heap_pages(self) -> int:
        """Pages needed to dump the current heap state."""
        return 0

    def control_state(self) -> dict:
        """Small picklable snapshot of the operator's control state."""
        return {}

    def _checkpoint_payload(self) -> dict:
        """State stored in a checkpoint at the current point: for a
        stateless operator its position, the control state.

        Stateful operators override this; it is called only at their
        minimal-heap-state points, where it must capture what little
        state survives the minimum (e.g. a sort's sublist handles).
        """
        return self.control_state()

    def stream_children(self) -> list["Operator"]:
        """Children consumed as a stream after heap state is built."""
        return []

    # ------------------------------------------------------------------
    # Checkpointing and contracts (execute phase)
    # ------------------------------------------------------------------
    def make_checkpoint(self) -> Optional[Checkpoint]:
        """Create a proactive checkpoint at a minimal-heap-state point.

        Also signs contracts with every child (the paper: "whenever the
        parent creates a checkpoint at time t, it has to establish
        contracts with its children at t"), attempts contract migration,
        prunes the contract graph, and checks the Theorem 1 bound.
        """
        if not self.rt.config.proactive_checkpointing:
            ck = self.rt.graph.latest_checkpoint(self.op_id)
            if ck is not None:
                if self._tr.enabled:
                    self._tr.event(
                        "checkpoint.skipped",
                        reason="proactive_checkpointing_disabled",
                        emitted=self.tuples_emitted,
                    )
                return None  # ablation mode: keep only the initial checkpoint
        graph = self.rt.graph
        ckpt = self._new_checkpoint(
            self._checkpoint_payload(), reactive=not self.STATEFUL
        )
        migrated = 0
        if self.rt.config.contract_migration:
            migrated = graph.migrate_contracts(
                self.op_id,
                ckpt,
                self.tuples_emitted,
                self.control_state(),
                self.work,
            )
        pruned = graph.prune()
        graph.check_theorem1_bound(
            num_operators=len(self.rt.ops), height=self.rt.plan_height()
        )
        if self._tr.enabled:
            self._tr.event(
                "checkpoint.taken",
                ckpt_seq=ckpt.seq,
                reactive=ckpt.reactive,
                emitted=self.tuples_emitted,
                work=round(self.work, 6),
                migrated=migrated,
                pruned=pruned,
            )
            self._tr.metrics.counter(
                "checkpoints_taken_total", op=self.name
            ).inc()
        return ckpt

    def _new_checkpoint(self, payload: dict, reactive: bool) -> Checkpoint:
        """Register a checkpoint holding ``payload`` and sign contracts
        with every child at this instant."""
        graph = self.rt.graph
        ckpt = Checkpoint(
            op_id=self.op_id,
            seq=graph.next_seq(self.op_id),
            payload=payload,
            work_at=self.work,
            emitted_at=self.tuples_emitted,
            reactive=reactive,
        )
        graph.add_checkpoint(ckpt)
        for child in self.children:
            child.sign_contract(anchor_ckpt=ckpt)
        return ckpt

    def _reactive_checkpoint(self) -> Checkpoint:
        """The checkpoint that fulfills a contract signed now by an
        operator with no proactive checkpoint to point at.

        For a stateless operator that is every contract, and the
        checkpoint holds its checkpoint payload (Section 3.1). A
        stateful operator has no proactive one only in the window
        between a resume and its next minimal-heap-state point — right
        after a resume the contract graph has not re-formed yet
        (Section 3.3: "the contract graph will be gradually reformed") —
        and bridges it with a payload that carries its full current
        state: ``heap`` (heap state, with the disk state beside it) and
        ``control``. :meth:`do_resume` restores such a payload directly
        and rolls forward from there (a DumpState entry restores through
        the same hook, with the same heap shape), and it is charged like
        a dump if a suspend plan ever goes back to it
        (``control_state_bytes`` prices ``heap`` at tuple width), so the
        cost accounting stays honest. No other module knows this
        payload's shape.
        """
        if not self.STATEFUL:
            return self._new_checkpoint(self._checkpoint_payload(), reactive=True)
        heap = self._heap_state_payload()
        disk = self._disk_state()
        return self._new_checkpoint(
            {
                _FULL_STATE: True,
                "heap": {**heap, **disk} if disk else heap,
                "control": self.control_state(),
            },
            reactive=True,
        )

    def sign_contract(
        self,
        anchor_ckpt: Optional[Checkpoint] = None,
        anchor_contract: Optional[Contract] = None,
    ) -> Contract:
        """Sign a contract: agree to regenerate output from this point on."""
        graph = self.rt.graph
        fulfilling = (
            graph.latest_checkpoint(self.op_id) if self.STATEFUL else None
        )
        if fulfilling is None:
            fulfilling = self._reactive_checkpoint()
        contract = Contract(
            parent_op_id=self.parent.op_id if self.parent else -1,
            child_op_id=self.op_id,
            control=self.control_state(),
            child_ckpt_id=fulfilling.ckpt_id,
            anchor_ckpt_id=anchor_ckpt.ckpt_id if anchor_ckpt else None,
            anchor_contract_id=(
                anchor_contract.contract_id if anchor_contract else None
            ),
            work_at_signing=self.work,
            emitted_at_signing=self.tuples_emitted,
            saved_rows=list(self._pending_rows),
        )
        for child in self.stream_children():
            contract.nested[child.op_id] = child.sign_contract(
                anchor_contract=contract
            )
        graph.add_contract(contract)
        if self._tr.enabled:
            self._tr.event(
                "contract.signed",
                parent=self.parent.op_id if self.parent else None,
                anchor="checkpoint" if anchor_ckpt is not None else (
                    "contract" if anchor_contract is not None else "root"
                ),
                fulfilling_op=fulfilling.op_id,
                fulfilling_seq=fulfilling.seq,
                reactive=fulfilling.reactive,
                emitted=self.tuples_emitted,
            )
            self._tr.metrics.counter(
                "contracts_signed_total", op=self.name
            ).inc()
        return contract

    # ------------------------------------------------------------------
    # Suspend phase
    # ------------------------------------------------------------------
    def do_suspend(self, ctx: SuspendContext) -> None:
        """``Suspend()``: suspend so resume continues from this exact point."""
        decision = ctx.plan.decision(self.op_id)
        if decision.strategy is Strategy.DUMP or not self.STATEFUL:
            self._suspend_as_dump(ctx)
            return
        if decision.goback_anchor != self.op_id:
            raise ContractError(
                f"operator {self.name} received Suspend() but its plan "
                f"anchors at {decision.goback_anchor}"
            )
        ckpt = ctx.graph.latest_checkpoint(self.op_id)
        if ckpt is None:
            raise ContractError(
                f"operator {self.name} has no checkpoint for GoBack"
            )
        self._add_goback_entry(ctx, self.control_state(), ckpt, contract=None)
        self._suspend_children_for_goback(ctx, ckpt, enforced_contract=None)

    def do_suspend_to(self, contract: Contract, ctx: SuspendContext) -> None:
        """``Suspend(Ctr)``: suspend so resume continues from the contract."""
        decision = ctx.plan.decision(self.op_id)
        if decision.strategy is Strategy.DUMP:
            if self.tuples_emitted == contract.emitted_at_signing:
                # No output produced since the contract was signed (so the
                # rows pending now are the ones pending then): the current
                # state already satisfies it, dump exactly as for a plain
                # Suspend().
                self._suspend_as_dump(ctx)
                return
            self._suspend_as_dump_to_contract(ctx, contract)
            return
        # GoBack: restore the fulfilling checkpoint and roll forward to the
        # contract point on resume.
        ckpt = ctx.graph.checkpoint(contract.child_ckpt_id)
        self._add_goback_entry(ctx, dict(contract.control), ckpt, contract)
        self._suspend_children_for_goback(ctx, ckpt, enforced_contract=contract)

    def _owed_rows(self, contract: Optional[Contract]) -> list:
        """The ``saved_rows`` of a suspend entry: rows this operator has
        been handed back (by a resume, or footnote 3's migration) and must
        emit before regular production from the entry's target. A contract
        records the rows pending at its signing — a superset of the ones
        pending later, and the target is the signing point — so an entry
        that suspends to a contract owes the contract's rows, and a plain
        ``Suspend()`` the ones pending now."""
        return list(
            self._pending_rows if contract is None else contract.saved_rows
        )

    def _suspend_as_dump(self, ctx: SuspendContext) -> None:
        handle = self._dump_heap_state(ctx)
        entry = OpSuspendEntry(
            op_id=self.op_id,
            kind=KIND_DUMP,
            target_control=self.control_state(),
            dump_handle=handle,
            current_control=self._disk_state(),
            saved_rows=self._owed_rows(None),
        )
        ctx.sq.add_entry(entry)
        self._trace_suspend_entry(entry, handle)
        for child in self.children:
            child.do_suspend(ctx)

    def _suspend_as_dump_to_contract(
        self, ctx: SuspendContext, contract: Contract
    ) -> None:
        handle = self._dump_heap_state(ctx)
        entry = OpSuspendEntry(
            op_id=self.op_id,
            kind=KIND_DUMP_TO_CONTRACT,
            target_control=dict(contract.control),
            dump_handle=handle,
            current_control={
                **self.control_state(),
                **(self._disk_state() or {}),
            },
            saved_rows=self._owed_rows(contract),
        )
        ctx.sq.add_entry(entry)
        self._trace_suspend_entry(entry, handle)
        # A stateful operator's heap children have not moved since the
        # contract was signed (the c_{i,j} restriction guarantees the same
        # batch), so they suspend to their current positions. Every other
        # child goes back to where it stood at signing: the nested contract
        # captured then or, when the contract was migrated or its signer
        # is stateless (it nests none), the contract signed at the
        # fulfilling checkpoint.
        stream = self.stream_children()
        for child in self.children:
            if self.STATEFUL and child not in stream:
                child.do_suspend(ctx)
                continue
            nested = contract.nested.get(child.op_id)
            if nested is None:
                ckpt = ctx.graph.checkpoint(contract.child_ckpt_id)
                nested = ctx.graph.contract_from(ckpt, child.op_id)
            child.do_suspend_to(nested, ctx)

    def _suspend_children_for_goback(
        self,
        ctx: SuspendContext,
        ckpt: Checkpoint,
        enforced_contract: Optional[Contract],
    ) -> None:
        """Propagate suspension below a GoBack operator.

        Heap children suspend to the contracts established at the
        fulfilling checkpoint (they must regenerate the heap state from
        there). Stream children suspend to the nested contract captured
        when ``enforced_contract`` was signed; when the GoBack anchors at
        this operator itself (plain ``Suspend()``), the stream child's
        current position is already the roll-forward target, so it is
        given a contract signed on the spot.
        """
        stream = set(id(c) for c in self.stream_children())
        for child in self.children:
            if id(child) in stream:
                if enforced_contract is None:
                    fresh = child.sign_contract(anchor_ckpt=ckpt)
                    child.do_suspend_to(fresh, ctx)
                else:
                    nested = enforced_contract.nested.get(child.op_id)
                    if nested is None:
                        # The contract was migrated to the checkpoint, so
                        # the checkpoint's own contract has the position.
                        nested = ctx.graph.contract_from(ckpt, child.op_id)
                    child.do_suspend_to(nested, ctx)
            else:
                child_contract = ctx.graph.contract_from(ckpt, child.op_id)
                child.do_suspend_to(child_contract, ctx)

    def _add_goback_entry(
        self,
        ctx: SuspendContext,
        target_control: dict,
        ckpt: Checkpoint,
        contract: Optional[Contract],
    ) -> None:
        saved = self._owed_rows(contract)
        entry = OpSuspendEntry(
            op_id=self.op_id,
            kind=KIND_GOBACK,
            target_control=target_control,
            ckpt_payload=dict(ckpt.payload),
            saved_rows=saved,
        )
        ctx.sq.add_entry(entry)
        if self._tr.enabled:
            self._tr.event(
                "op.suspend",
                kind=KIND_GOBACK,
                ckpt_op=ckpt.op_id,
                ckpt_seq=ckpt.seq,
                saved_rows=len(saved),
            )
            self._tr.metrics.counter("suspend_goback_entries_total").inc()

    def _trace_suspend_entry(self, entry: OpSuspendEntry, handle) -> None:
        """Emit the ``op.suspend`` event for a dump-style entry."""
        if not self._tr.enabled:
            return
        pages = handle.pages if handle is not None else 0
        self._tr.event(
            "op.suspend",
            kind=entry.kind,
            dump_pages=pages,
            saved_rows=len(entry.saved_rows),
        )
        metrics = self._tr.metrics
        metrics.counter("suspend_dump_entries_total").inc()
        if pages:
            metrics.counter("suspend_dump_pages_total").inc(pages)
            page_bytes = self.rt.disk.cost_model.page_bytes
            metrics.counter("heap_bytes_checkpointed_total").inc(
                pages * page_bytes
            )

    def _dump_heap_state(self, ctx: SuspendContext) -> Optional[DumpHandle]:
        """Write the heap state to the state store; None when empty."""
        payload = self._heap_state_payload()
        pages = self.heap_pages()
        if payload is None and pages == 0:
            return None
        key = ctx.store.fresh_key(f"dump_{self.name}")
        with self.attribute_work():
            handle = ctx.store.dump(key, payload, pages)
        return handle

    def _heap_state_payload(self):
        """The heap state object to dump; None for stateless operators."""
        return None

    def _disk_state(self) -> Optional[dict]:
        """Disk-resident state outside the control state: per-partition
        :class:`DumpHandle` lists (row snapshots while partitions grow),
        or None. Handles inside a dumped payload would be neither
        exported nor re-homed, so a dump entry carries this dict in
        ``current_control`` and a full-state checkpoint beside the heap."""
        return None

    # ------------------------------------------------------------------
    # Resume phase
    # ------------------------------------------------------------------
    def do_resume(self, ctx: ResumeContext) -> None:
        """``Resume()``: children first, then restore own state by the one
        rule for this operator and entry:

        - a stateless operator restores its position, the entry's target
          control state, whatever the entry's kind (:meth:`_restore_control`);
        - a stateful one restores a GoBack entry's fulfilling checkpoint —
          a post-resume full-state one (:meth:`_reactive_checkpoint`) or
          its own — and rolls forward to the target, and a DumpState
          entry from the dumped heap (:meth:`_resume_from_dump`).
        """
        for child in self.children:
            child.do_resume(ctx)
        self._do_open()
        self.is_open = True
        entry = ctx.sq.entry(self.op_id)
        self._pending_rows = deque(entry.saved_rows)
        start = self.rt.disk.query_now
        if not self.STATEFUL:
            self._restore_control(entry.target_control)
        elif entry.kind == KIND_GOBACK:
            ckpt = entry.ckpt_payload or {}
            if ckpt.get(_FULL_STATE):
                self._restore_full_state(ckpt["heap"], ckpt["control"])
            else:
                self._restore_checkpoint(ckpt)
            self._roll_forward(entry.target_control, entry, ctx)
        else:
            payload = None
            if entry.dump_handle is not None:
                with self.attribute_work():
                    payload = ctx.store.load(entry.dump_handle)
            self._resume_from_dump(entry, payload)
        if self._tr.enabled:
            # The span covers only this operator's own restore (children
            # resumed above, before ``start``); for GoBack entries its
            # duration is exactly the redo work Equation (2) charges.
            redo = round(self.rt.disk.query_now - start, 6)
            self._tr.event(
                "op.resume", ts=start, dur=redo, kind=entry.kind
            )
            if entry.kind == KIND_GOBACK:
                self._tr.metrics.histogram("resume_redo_work").observe(redo)
            elif entry.dump_handle is not None:
                self._tr.metrics.counter("resume_pages_loaded_total").inc(
                    entry.dump_handle.pages
                )
        # Output counting restarts at zero in the resumed process; only
        # deltas matter from here on.

    def _restore_control(self, control: dict) -> None:
        """Restore a stateless operator's position from ``control``, what
        :meth:`control_state` returned. Nothing by default: the operator's
        children hold its position."""

    def _resume_from_dump(self, entry: OpSuspendEntry, payload) -> None:
        """Restore a DumpState entry like a full-state checkpoint: the
        dumped ``payload`` with the entry's disk state (the
        :attr:`DISK_KEYS` of its ``current_control``) beside it, at the
        target control state — for a DumpState-to-contract entry the
        contract's. An operator whose control state also records how far
        its heap children have been read (block NLJ, merge join) overrides
        this for a to-contract entry: its children stay where they are."""
        heap = payload
        if self.DISK_KEYS:
            current = entry.current_control or {}
            heap = {**(payload or {}), **{
                k: v for k, v in current.items() if k in self.DISK_KEYS
            }}
        self._restore_full_state(heap, entry.target_control)

    def _restore_checkpoint(self, ckpt: dict) -> None:
        """Restore the state a :meth:`_checkpoint_payload` describes."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement GoBack resume"
        )

    def _restore_full_state(self, heap, control: dict) -> None:
        """Restore complete state: ``heap`` is what
        :meth:`_heap_state_payload` returned (with the
        :meth:`_disk_state` merged in when there is one), ``control``
        what :meth:`control_state` did."""
        raise NotImplementedError

    def _roll_forward(
        self, target: dict, entry: OpSuspendEntry, ctx: ResumeContext
    ) -> None:
        """Redo work from the restored state to the control state
        ``target``, skipping what the operator's semantics allow."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Suspend-time cost estimation (Section 5 constants)
    # ------------------------------------------------------------------
    def estimate_dump_suspend_cost(self) -> float:
        """d^s_i: cost of writing current heap + control state to disk.

        Control state is aggregated into the single SuspendedQuery write,
        so its per-operator share is byte-proportional, not a whole page.
        """
        disk = self.rt.disk
        cost = disk.cost_of_page_writes(self.heap_pages())
        nbytes = control_state_bytes(
            self.control_state(), self.schema.bytes_per_tuple
        )
        cost += disk.cost_of_page_writes(nbytes / disk.cost_model.page_bytes)
        return cost

    def estimate_dump_resume_cost(self) -> float:
        """d^r_i: cost of reading the dumped state back."""
        disk = self.rt.disk
        return disk.cost_of_page_reads(max(1, self.heap_pages()))

    def estimate_goback_suspend_cost(self, link) -> float:
        """g^s_{i,j}: usually negligible (control state only).

        Like the control share of d^s, charged byte-proportionally since
        all control state travels in one SuspendedQuery write. Saved rows
        carried by a migrated contract are charged at tuple width via
        ``control_state_bytes``.
        """
        disk = self.rt.disk
        nbytes = control_state_bytes(
            self.control_state(), self.schema.bytes_per_tuple
        )
        if link.ckpt_payload:
            nbytes += control_state_bytes(
                link.ckpt_payload, self.schema.bytes_per_tuple
            )
        return disk.cost_of_page_writes(nbytes / disk.cost_model.page_bytes)

    def estimate_goback_resume_cost(self, link) -> float:
        """g^r_{i,j}: redone work, approximated as the paper does by the
        difference between current cumulative work and cumulative work at
        the fulfilling checkpoint. Operators with cheaper repositioning
        (e.g. sort's merge phase) override this."""
        baseline = link.work_baseline
        return max(0.0, self.work - baseline)
