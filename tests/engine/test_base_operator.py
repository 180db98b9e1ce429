"""Unit tests for the Operator base class machinery."""

import pytest

from repro import Database, QuerySession, SuspendSpec
from repro.common.errors import ReproError
from repro.core.checkpoint import control_state_bytes
from repro.engine.base import Operator
from repro.engine.runtime import Runtime
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.schema import Schema

from tests.conftest import make_small_db, tiny_nlj_plan


class CountingSource(Operator):
    """Minimal stateless operator emitting n rows, for base-class tests."""

    STATEFUL = False

    def __init__(self, op_id, name, runtime, n=10):
        super().__init__(op_id, name, [], runtime, Schema.of(["x"]))
        self.n = n
        self.i = 0

    def _next(self):
        if self.i >= self.n:
            return None
        self.i += 1
        return (self.i,)

    def control_state(self):
        return {"i": self.i}

    def _resume_from_dump(self, entry, payload, ctx):
        self.i = entry.target_control["i"]

    def _resume_goback(self, entry, ctx):
        self.i = entry.target_control["i"]


def make_source(n=10):
    runtime = Runtime(Database())
    op = CountingSource(0, "src", runtime, n=n)
    op.open()
    return op, runtime


class TestIteration:
    def test_emission_counts_and_cpu_charges(self):
        op, runtime = make_source(5)
        rows = [op.next() for _ in range(6)]
        assert rows == [(1,), (2,), (3,), (4,), (5,), None]
        assert op.tuples_emitted == 5
        assert op.work == pytest.approx(5 * 0.001)

    def test_rewind_unsupported_by_default(self):
        op, _ = make_source()
        with pytest.raises(ReproError):
            op.rewind()

    def test_attribute_work_captures_direct_io(self):
        op, runtime = make_source()
        with op.attribute_work():
            runtime.disk.read_pages(3)
        assert op.work == pytest.approx(3.0)

    def test_pending_rows_returned_first(self):
        op, _ = make_source(3)
        op._pending_rows.extend([(100,), (200,)])
        assert op.next() == (100,)
        assert op.next() == (200,)
        assert op.next() == (1,)
        # Pending rows count as emissions too.
        assert op.tuples_emitted == 3


class TestDefaults:
    def test_heap_defaults_zero(self):
        op, _ = make_source()
        assert op.heap_tuples() == 0
        assert op.heap_pages() == 0
        assert op._heap_state_payload() is None

    def test_stateless_children_split(self):
        op, _ = make_source()
        assert op.heap_children() == []
        assert op.stream_children() == []

    def test_dump_cost_estimates_nonnegative(self):
        op, _ = make_source()
        assert op.estimate_dump_suspend_cost() >= 0
        assert op.estimate_dump_resume_cost() >= 1.0  # at least one read


class TestFullStateCheckpoint:
    def test_created_when_stateful_op_has_no_checkpoint(self):
        """After a resume the graph is empty; a parent checkpoint forces a
        stateful child to produce a full-state reactive checkpoint."""
        db = make_small_db()
        plan = tiny_nlj_plan(buffer_tuples=30)
        session = QuerySession(db, plan)
        session.execute(max_rows=10)
        sq = session.suspend(SuspendSpec(strategy="all_dump"))
        resumed = QuerySession.resume(db, sq)
        nlj = resumed.op_named("nlj")
        graph = resumed.runtime.graph
        assert graph.latest_checkpoint(nlj.op_id) is None
        fulfilling = nlj._reactive_checkpoint()
        assert fulfilling.payload["__full_state__"] is True
        assert fulfilling.payload["heap"] == nlj._heap_state_payload()
        assert fulfilling.reactive
        assert graph.latest_checkpoint(nlj.op_id) is fulfilling

    def test_full_state_payload_charged_like_a_dump(self):
        """control_state_bytes prices the heap rows at tuple width."""
        payload = {
            "__full_state__": True,
            "heap": [(1, 2, 3)] * 7,
            "control": {"fill": 7},
        }
        assert control_state_bytes(payload) >= 7 * 200
