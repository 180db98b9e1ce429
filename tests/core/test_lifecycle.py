"""Unit tests for the execute/suspend/resume lifecycle."""

import gc
import math
import weakref

import pytest

from repro import (
    Database,
    QuerySession,
    QueryStatus,
    SuspendSpec,
    SuspendStrategy,
    SuspendTrigger,
)
from repro.common.errors import ReproError, StorageError
from repro.durability import ImageStore, codec2
from repro.engine.plan import (
    HashGroupAggSpec,
    NLJSpec,
    ScanSpec,
    SimpleHashJoinSpec,
    SortSpec,
)
from repro.engine.sort import TwoPhaseMergeSort
from repro.relational.expressions import EquiJoinCondition

from tests.conftest import make_small_db, tiny_nlj_plan, tiny_smj_plan


class TestExecute:
    def test_runs_to_completion(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        result = session.execute()
        assert result.status is QueryStatus.COMPLETED
        assert result.rows

    def test_max_rows_pauses(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        result = session.execute(max_rows=10)
        assert len(result.rows) == 10
        assert session.status is QueryStatus.RUNNING
        more = session.execute(max_rows=5)
        assert len(more.rows) == 5
        assert more.rows[0] != result.rows[0]

    def test_collect_false_counts_without_storing(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        result = session.execute(max_rows=10, collect=False)
        assert result.rows == []
        assert session.rows == []

    def test_elapsed_reports_virtual_time(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        result = session.execute(max_rows=10)
        assert result.elapsed > 0

    def test_cannot_execute_after_completion(self):
        db = make_small_db()
        session = QuerySession(db, ScanSpec("R"))
        session.execute()
        with pytest.raises(ReproError):
            session.execute()


class TestSuspendSpec:
    def test_defaults_are_unbudgeted_lp(self):
        spec = SuspendSpec()
        assert spec.strategy is SuspendStrategy.LP
        assert spec.budget == math.inf
        assert spec.plan is None
        assert spec.persist_to is None

    def test_strategy_strings_are_coerced(self):
        assert (
            SuspendSpec(strategy="all_dump").strategy
            is SuspendStrategy.ALL_DUMP
        )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            SuspendSpec(strategy="made_up")

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            SuspendSpec(budget=-1.0)

    def test_spec_drives_persistence(self, tmp_path):
        session = QuerySession(make_small_db(), tiny_nlj_plan())
        session.execute(max_rows=20)
        store = ImageStore(str(tmp_path))
        session.suspend(SuspendSpec(persist_to=store, image_id="spec-img"))
        assert session.last_image.image_id == "spec-img"
        assert store.manifest("spec-img")


class TestSuspendPhase:
    def test_suspend_releases_operators(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        session.execute(max_rows=10)
        session.suspend(SuspendSpec(strategy="all_dump"))
        assert session.status is QueryStatus.SUSPENDED
        assert session.runtime.ops == {}

    def test_cannot_suspend_twice(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        session.execute(max_rows=5)
        session.suspend()
        with pytest.raises(ReproError):
            session.suspend()

    def test_suspend_cost_recorded(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        session.execute(max_rows=5)
        session.suspend(SuspendSpec(strategy="all_dump"))
        assert session.last_suspend_cost > 0

    def test_goback_suspend_much_cheaper_than_dump(self):
        """The core Figure 8 suspend-time claim."""
        costs = {}
        for strategy in ("all_dump", "all_goback"):
            db = make_small_db()
            session = QuerySession(
                db, tiny_nlj_plan(selectivity=1.0, buffer_tuples=250)
            )
            session.execute(
                suspend_when=SuspendTrigger("nlj", "fill", 250)
            )
            session.suspend(SuspendSpec(strategy=strategy))
            costs[strategy] = session.last_suspend_cost
        assert costs["all_goback"] < costs["all_dump"] / 2

    def test_suspended_query_records_plans(self):
        db = make_small_db()
        plan = tiny_nlj_plan()
        session = QuerySession(db, plan)
        session.execute(max_rows=5)
        sq = session.suspend(SuspendSpec(strategy="all_dump"))
        assert sq.plan_spec == plan
        assert sq.suspend_plan.source == "all_dump"
        assert sq.root_rows_emitted == 5
        assert len(sq.entries) == 4


class TestResumePhase:
    def test_resume_continues_exactly(self):
        db = make_small_db()
        plan = tiny_nlj_plan()
        ref = QuerySession(make_small_db(), plan).execute().rows
        session = QuerySession(db, plan)
        first = session.execute(max_rows=33)
        sq = session.suspend(SuspendSpec(strategy="lp"))
        resumed = QuerySession.resume(db, sq)
        assert resumed.status is QueryStatus.RUNNING
        assert first.rows + resumed.execute().rows == ref

    def test_resume_cost_recorded(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        session.execute(max_rows=5)
        sq = session.suspend(SuspendSpec(strategy="all_dump"))
        resumed = QuerySession.resume(db, sq)
        assert resumed.last_resume_cost > 0

    def test_resume_twice_from_same_sq(self):
        """Suspend during resume: discard the half-resumed query and
        resume again later from the same SuspendedQuery (Section 3.3)."""
        db = make_small_db()
        plan = tiny_nlj_plan()
        ref = QuerySession(make_small_db(), plan).execute().rows
        session = QuerySession(db, plan)
        first = session.execute(max_rows=12)
        sq = session.suspend(SuspendSpec(strategy="lp"))
        discarded = QuerySession.resume(db, sq)
        del discarded
        resumed = QuerySession.resume(db, sq)
        assert first.rows + resumed.execute().rows == ref

    def test_resumed_lane_carries_prior_time_in_its_base(self, tmp_path):
        """In a fresh database the lane's counters restart at zero and
        its base holds the previous incarnations' time: the query clock
        is the image's ``query_clock`` plus this process's own events."""
        session = QuerySession(make_small_db(), tiny_nlj_plan())
        session.execute(max_rows=33)
        store = ImageStore(str(tmp_path))
        session.suspend(SuspendSpec(persist_to=store, image_id="img"))
        sq = store.load("img")
        assert sq.query_clock == session.query_now > 0
        db = make_small_db()
        resumed = QuerySession.resume(db, sq)
        lane = resumed.runtime.lane
        assert lane.clock.base == sq.query_clock
        assert lane.counters == db.disk.counters  # the only query on db
        resumed.execute(max_rows=10)
        assert lane.clock.base == sq.query_clock
        assert resumed.query_now == db.cost_model.elapsed(
            lane.counters, base=sq.query_clock
        )
        assert resumed.query_now == pytest.approx(
            sq.query_clock + db.cost_model.elapsed(lane.counters), rel=1e-12
        )

    def test_suspend_immediately_after_resume(self):
        db = make_small_db()
        plan = tiny_nlj_plan()
        ref = QuerySession(make_small_db(), plan).execute().rows
        session = QuerySession(db, plan)
        first = session.execute(max_rows=12)
        sq = session.suspend(SuspendSpec(strategy="all_goback"))
        resumed = QuerySession.resume(db, sq)
        sq2 = resumed.suspend(SuspendSpec(strategy="lp"))  # no execution in between
        final = QuerySession.resume(db, sq2)
        assert first.rows + final.execute().rows == ref


class TestStateStoreRelease:
    """A completed, closed query leaves nothing behind in the StateStore."""

    PLANS = (
        tiny_smj_plan(),  # two external sorts
        NLJSpec(  # NLJ over an external sort
            outer=SortSpec(
                ScanSpec("R"), key_columns=(0,), buffer_tuples=40, label="sort"
            ),
            inner=ScanSpec("S"),
            condition=EquiJoinCondition(0, 0, modulus=40),
            buffer_tuples=30,
            label="nlj",
        ),
    )

    def test_completed_sessions_free_their_sublists(self):
        db = make_small_db()
        before = len(db.state_store)
        for _ in range(3):
            for plan in self.PLANS:
                session = QuerySession(db, plan)
                session.execute()
                assert len(db.state_store) > before  # sublists on "disk"
                session.close()
                assert len(db.state_store) == before

    def test_suspended_payloads_live_until_the_query_completes(self):
        db = make_small_db()
        before = len(db.state_store)
        for plan in self.PLANS:
            ref = QuerySession(make_small_db(), plan).execute().rows
            session = QuerySession(db, plan)
            rows = session.execute(max_rows=25).rows
            sq = session.suspend(SuspendSpec(strategy="all_dump"))
            assert sq.referenced_handles()
            assert all(
                db.state_store.exists(key) for key in sq.referenced_handles()
            )
            resumed = QuerySession.resume(db, sq)
            sq.release()
            rows += resumed.execute().rows
            assert rows == ref
            resumed.close()
            assert len(db.state_store) == before


class TestEveryHolderKeepsOneCount:
    """An open session and an unreleased SuspendedQuery each keep one
    count on every payload they name; a payload goes with its last
    count. Eight sort sublists are the payloads here."""

    PLAN = SortSpec(ScanSpec("R"), key_columns=(1,), buffer_tuples=500)

    @staticmethod
    def db():
        return make_small_db(r_tuples=4000)

    def reference(self):
        return QuerySession(self.db(), self.PLAN).execute().rows

    def suspended(self, db, store=None):
        session = QuerySession(db, self.PLAN, name="q")
        rows = session.execute(max_rows=100).rows
        assert len(db.state_store) == 8
        sq = session.suspend(SuspendSpec(persist_to=store, image_id="img"))
        return rows, sq

    @staticmethod
    def assert_empty(db):
        state = db.state_store
        assert len(state) == 0 and state._holds == {} and state._origins == {}
        assert state._open_scopes == {}

    def test_two_in_place_resumes_of_one_query(self):
        db = self.db()
        rows, sq = self.suspended(db)
        first = QuerySession.resume(db, sq, name="q")
        second = QuerySession.resume(db, sq, name="q")
        assert rows + first.execute().rows == self.reference()
        first.close()
        assert rows + second.execute().rows == self.reference()
        second.close()
        sq.release()
        self.assert_empty(db)

    def test_closing_a_running_session_frees_its_sublists(self):
        """The primitive behind a scheduler's kill."""
        db = self.db()
        session = QuerySession(db, self.PLAN, name="q")
        session.execute(max_rows=100)
        assert len(db.state_store) == 8
        session.close()
        self.assert_empty(db)
        restarted = QuerySession(db, self.PLAN, name="q")
        assert restarted.execute().rows == self.reference()
        restarted.close()
        self.assert_empty(db)

    @pytest.mark.parametrize("end", ["discarded", "raised"])
    def test_an_image_resume_that_ends_early_keeps_the_query(
        self, tmp_path, monkeypatch, end
    ):
        store = ImageStore(str(tmp_path))
        saving = self.db()
        rows, sq = self.suspended(saving, store)
        sq.release()
        self.assert_empty(saving)
        db = self.db()
        loaded = store.load("img")
        if end == "discarded":
            QuerySession.resume(db, loaded, name="q").close()
        else:

            def fail(op, ctx):
                raise RuntimeError("injected resume failure")

            with monkeypatch.context() as patch:
                patch.setattr(TwoPhaseMergeSort, "do_resume", fail)
                with pytest.raises(RuntimeError, match="injected"):
                    QuerySession.resume(db, loaded, name="q")
        self.assert_empty(db)
        resumed = QuerySession.resume(db, loaded, name="q")
        assert rows + resumed.execute().rows == self.reference()
        resumed.close()
        loaded.release()
        self.assert_empty(db)

    def test_a_reload_into_the_saving_database_shares_its_payloads(
        self, tmp_path, monkeypatch
    ):
        store = ImageStore(str(tmp_path))
        db = self.db()
        rows, sq = self.suspended(db, store)
        loaded = store.load("img")
        decoded = []
        real = codec2.decode_bytes
        monkeypatch.setattr(
            codec2, "decode_bytes", lambda data: decoded.append(1) or real(data)
        )
        resumed = QuerySession.resume(db, loaded, name="q")
        sq.release()
        assert rows + resumed.execute().rows == self.reference()
        assert decoded == []  # every sublist was live: shared, not decoded
        resumed.close()
        loaded.release()
        self.assert_empty(db)

    def test_a_failed_constructor_closes_its_scope(self):
        """A plan that fails to instantiate leaves no open session
        behind: the scope its runtime opened is closed again."""
        db = make_small_db()
        plan = NLJSpec(
            ScanSpec("R"), ScanSpec("NOPE"), EquiJoinCondition(0, 0),
            buffer_tuples=10,
        )
        with pytest.raises(StorageError):
            QuerySession(db, plan, name="q")
        self.assert_empty(db)


class TestClosedSessionIsNotCyclicGarbage:
    """After ``close()`` nothing in the operator tree points back up, so
    dropping the session frees it — and the decoded rows its sort readers
    and the rows its hash partitions hold — by reference counting, with
    the collector off."""

    PLANS = [
        (tiny_smj_plan(), lambda s: s.op_named("sort_R")._readers[0]),
        (
            SimpleHashJoinSpec(
                build=ScanSpec("R"),
                probe=ScanSpec("S"),
                condition=EquiJoinCondition(0, 0),
            ),
            lambda s: s.root.build,
        ),
        (
            HashGroupAggSpec(ScanSpec("R"), (0,), "count", 1),
            lambda s: s.root.input,
        ),
    ]

    @pytest.mark.parametrize("end", ["close", "suspend"])
    def test_tree_dies_with_the_session(self, end):
        gc.disable()
        try:
            for plan, back_pointer in self.PLANS:
                session = QuerySession(make_small_db(), plan)
                session.execute(max_rows=5)
                refs = [
                    weakref.ref(session.root),
                    weakref.ref(back_pointer(session)),
                    weakref.ref(session.runtime),
                ]
                getattr(session, end)()
                del session
                assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_a_suspend_resume_cycle_leaves_no_cyclic_garbage(self):
        """The suspend-plan solve (cost model, frontiers) and the
        checkpoints' Theorem 1 check build no function-cell cycles: with
        the collector off, execute, suspend, resume and completion of a
        sort over a block NLJ leave none of their objects unreachable."""
        plan = SortSpec(
            tiny_nlj_plan(buffer_tuples=30), key_columns=(0,), buffer_tuples=40
        )
        forbidden = {
            "function",
            "cell",
            "ChainLink",
            "SuspendCostModel",
            "ContractGraph",
        }
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            db = make_small_db()
            session = QuerySession(db, plan, name="q")
            session.execute(max_rows=5)
            sq = session.suspend(SuspendSpec(strategy="lp"))
            resumed = QuerySession.resume(db, sq, name="q")
            sq.release()
            assert resumed.execute().status is QueryStatus.COMPLETED
            resumed.close()
            del session, sq, resumed
            gc.collect()
            leaked = sorted(
                {type(o).__name__ for o in gc.garbage} & forbidden
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []
