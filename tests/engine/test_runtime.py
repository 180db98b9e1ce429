"""Unit tests for the suspend controller and runtime context."""

import pytest

from repro import QuerySession, SuspendTrigger
from repro.common.errors import (
    InvalidTriggerError,
    ReproError,
    SuspendRequested,
)
from repro.engine.runtime import SuspendController

from tests.conftest import make_small_db, tiny_nlj_plan, tiny_smj_plan


def armed(threshold):
    """The controller of a fresh NLJ session watching ``scan_R``'s
    output, and that scan."""
    session = QuerySession(make_small_db(), tiny_nlj_plan())
    session.runtime.arm(SuspendTrigger("scan_R", "emitted", threshold))
    return session.runtime.controller, session.op_named("scan_R")


class TestSuspendController:
    def test_unarmed_poll_is_noop(self):
        SuspendController().poll()

    def test_armed_condition_raises_once(self):
        """A trigger already met when armed fires at the first poll, and
        at most once."""
        ctrl, _ = armed(0)
        assert ctrl.armed
        with pytest.raises(SuspendRequested):
            ctrl.poll()
        assert not ctrl.armed
        ctrl.poll()  # does not fire twice

    def test_false_condition_does_not_fire(self):
        ctrl, scan = armed(3)
        scan.next_batch(2)
        ctrl.poll()
        assert ctrl.armed
        scan.next_batch(5)  # the watched scan stops at the threshold
        assert scan.tuples_emitted == 3
        with pytest.raises(SuspendRequested):
            ctrl.poll()

    def test_suppression_blocks_firing(self):
        ctrl, _ = armed(0)
        ctrl.suppress()
        ctrl.poll()
        assert ctrl.armed
        ctrl.unsuppress()
        with pytest.raises(SuspendRequested):
            ctrl.poll()

    def test_unbalanced_unsuppress_rejected(self):
        with pytest.raises(RuntimeError):
            SuspendController().unsuppress()

    def test_disarm(self):
        ctrl, _ = armed(0)
        ctrl.disarm()
        ctrl.poll()
        assert not ctrl.armed


class TestSuspendTriggers:
    def test_trigger_fires_at_exact_buffer_fill(self):
        """The suspend exception lands at a safe point with the trigger
        condition exactly satisfied — e.g. the NLJ buffer at exactly half
        full, the paper's Figure 8 setup."""
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan(buffer_tuples=40))
        session.execute(suspend_when=SuspendTrigger("nlj", "fill", 20))
        assert session.status.value == "suspend_pending"
        assert session.op_named("nlj").buffer_fill() == 20

    def test_trigger_on_scan_position(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        session.execute(suspend_when=SuspendTrigger("scan_R", "position", 100))
        assert session.op_named("scan_R").tuples_consumed() == 100

    def test_trigger_never_firing_runs_to_completion(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        result = session.execute(
            suspend_when=SuspendTrigger("scan_R", "position", 301)
        )
        assert result.status.value == "completed"
        assert not session.runtime.controller.armed

    def test_rearming_a_pending_session_continues_it(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan(buffer_tuples=40))
        for fill in (10, 25):
            session.execute(suspend_when=SuspendTrigger("nlj", "fill", fill))
            assert session.status.value == "suspend_pending"
            assert session.op_named("nlj").buffer_fill() == fill


class TestTriggerValidation:
    """A trigger that can never fire is rejected when armed."""

    def session(self, plan=None):
        return QuerySession(make_small_db(), plan or tiny_nlj_plan())

    def rejected(self, session, trigger):
        with pytest.raises(InvalidTriggerError) as err:
            session.execute(suspend_when=trigger)
        assert isinstance(err.value, ReproError)
        assert session.status.value == "running"
        assert session.rows == []
        return str(err.value)

    def test_unknown_operator_lists_the_plan_s_names(self):
        session = self.session()
        message = self.rejected(session, SuspendTrigger("nlj0", "fill", 5))
        for name in session.operator_names().values():
            assert name in message

    def test_fill_needs_a_buffer(self):
        message = self.rejected(
            self.session(), SuspendTrigger("filter", "fill", 5)
        )
        assert "'fill'" in message and "Filter" in message
        smj = self.session(tiny_smj_plan())
        self.rejected(smj, SuspendTrigger("mj", "fill", 5))
        smj.runtime.arm(SuspendTrigger("sort_R", "fill", 5))

    def test_position_needs_a_table_scan(self):
        self.rejected(self.session(), SuspendTrigger("nlj", "position", 5))

    def test_unknown_counter(self):
        message = self.rejected(
            self.session(), SuspendTrigger("nlj", "consumed", 5)
        )
        assert "emitted" in message

    def test_negative_threshold(self):
        self.rejected(self.session(), SuspendTrigger("nlj", "emitted", -1))

    def test_a_callable_is_a_type_error(self):
        session = self.session()
        with pytest.raises(TypeError):
            session.execute(suspend_when=lambda rt: True)
        assert session.status.value == "running"
