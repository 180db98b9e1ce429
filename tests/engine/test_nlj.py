"""Unit tests for block nested-loop join: execution, checkpoints, skipping."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    QuerySession,
    QueryStatus,
    SuspendSpec,
    SuspendTrigger,
)
from repro.common.errors import ReproError
from repro.durability.codec2 import encode_suspended_query
from repro.engine.nlj import PHASE_JOIN
from repro.engine.plan import FilterSpec, NLJSpec, ScanSpec, SortSpec
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import EquiJoinCondition, UniformSelect
from repro.workloads.plans import build_complex_plan

from tests.conftest import (
    make_small_db,
    reference_rows,
    suspend_resume_rows,
    tiny_nlj_plan,
)


def expected_nlj_output(db, selectivity, modulus, buffer_tuples):
    """Block-NLJ output order computed independently of the engine."""
    r_rows = [r for r in db.catalog.table("R").all_rows() if r[1] < selectivity]
    s_rows = list(db.catalog.table("S").all_rows())
    out = []
    for start in range(0, len(r_rows), buffer_tuples):
        block = r_rows[start : start + buffer_tuples]
        for s in s_rows:
            for r in block:
                if r[0] % modulus == s[0] % modulus:
                    out.append(r + s)
    return out


class TestBlockNLJExecution:
    def test_matches_independent_oracle(self):
        db = make_small_db()
        plan = tiny_nlj_plan(selectivity=0.5, buffer_tuples=40, modulus=40)
        rows = QuerySession(db, plan).execute().rows
        assert rows == expected_nlj_output(db, 0.5, 40, 40)

    def test_empty_outer_produces_nothing(self):
        db = make_small_db()
        plan = tiny_nlj_plan(selectivity=0.0)
        assert QuerySession(db, plan).execute().rows == []

    def test_buffer_smaller_than_outer_forces_multiple_passes(self):
        db = make_small_db()
        plan = tiny_nlj_plan(selectivity=1.0, buffer_tuples=50)
        rows = QuerySession(db, plan).execute().rows
        assert rows == expected_nlj_output(db, 1.0, 40, 50)

    def test_rejects_non_rewindable_inner(self):
        from repro.engine.plan import SimpleHashJoinSpec

        db = make_small_db()
        inner = SimpleHashJoinSpec(
            build=ScanSpec("S"),
            probe=ScanSpec("S"),
            condition=EquiJoinCondition(0, 0),
        )
        plan = NLJSpec(
            outer=ScanSpec("R"),
            inner=inner,
            condition=EquiJoinCondition(0, 0),
            buffer_tuples=10,
        )
        with pytest.raises(ReproError):
            QuerySession(db, plan)

    def test_rejects_zero_buffer(self):
        db = make_small_db()
        with pytest.raises(ValueError):
            QuerySession(db, tiny_nlj_plan(buffer_tuples=0))


class TestNLJCheckpoints:
    def test_checkpoints_at_minimal_heap_state_points(self):
        db = make_small_db()
        plan = tiny_nlj_plan(selectivity=1.0, buffer_tuples=100)
        session = QuerySession(db, plan)
        session.execute()
        nlj = session.op_named("nlj")
        graph = session.runtime.graph
        latest = graph.latest_checkpoint(nlj.op_id)
        # 300 outer tuples / 100 per pass = 3 passes; checkpoints at open
        # plus after each non-final pass.
        assert latest is not None
        assert latest.seq >= 3
        # Near-empty at minimal-heap-state points: only the pass counter.
        assert latest.payload == {"passes": 3}

    def test_initial_checkpoint_at_open(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        graph = session.runtime.graph
        assert graph.latest_checkpoint(session.op_named("nlj").op_id) is not None

    def test_heap_pages_tracks_buffer(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan(selectivity=1.0, buffer_tuples=150))
        session.execute(suspend_when=SuspendTrigger("nlj", "fill", 120))
        nlj = session.op_named("nlj")
        assert nlj.heap_tuples() == 120
        assert nlj.heap_pages() == 2  # 120 tuples at 100/page


class TestNLJSuspendResume:
    @pytest.mark.parametrize("strategy", ["all_dump", "all_goback", "lp"])
    @pytest.mark.parametrize("point", [1, 25, 150, 480])
    def test_equivalence(self, strategy, point):
        plan = tiny_nlj_plan()
        ref = reference_rows(make_small_db, plan)
        got = suspend_resume_rows(make_small_db, plan, point, strategy)
        if got is not None:
            assert got == ref

    def test_goback_skips_prior_join_output(self):
        """After a GoBack resume the next tuple is exactly the one after
        the suspend point — nothing is re-emitted (Section 3.3)."""
        plan = tiny_nlj_plan()
        db = make_small_db()
        session = QuerySession(db, plan)
        first = session.execute(max_rows=50)
        last_before = first.rows[-1]
        sq = session.suspend(SuspendSpec(strategy="all_goback"))
        resumed = QuerySession.resume(db, sq)
        after = resumed.execute(max_rows=1).rows[0]
        ref = reference_rows(make_small_db, plan)
        idx = ref.index(last_before)
        assert after == ref[idx + 1]

    def test_suspend_mid_fill_with_sort_inner(self):
        """Sort as NLJ inner (rewindable in merge phase) works across
        suspend/resume even when suspension lands before the sort ran."""

        def db_factory():
            db = Database()
            db.create_table("R", BASE_SCHEMA, generate_uniform_table(150, seed=1))
            db.create_table("S", BASE_SCHEMA, generate_uniform_table(80, seed=2))
            return db

        plan = NLJSpec(
            outer=FilterSpec(ScanSpec("R"), UniformSelect(1, 0.9), label="f"),
            inner=SortSpec(ScanSpec("S"), key_columns=(0,), buffer_tuples=30),
            condition=EquiJoinCondition(0, 0, modulus=20),
            buffer_tuples=60,
            label="nlj",
        )
        ref = reference_rows(db_factory, plan)
        for point in (1, 40, 200):
            got = suspend_resume_rows(db_factory, plan, point, "lp")
            if got is not None:
                assert got == ref

    @pytest.mark.parametrize("slice_rows", [88, 40])
    @pytest.mark.parametrize("seed", [4, 13])
    def test_goback_skips_a_short_final_pass(self, seed, slice_rows):
        """A GoBack to an older checkpoint skips whole passes by
        re-consuming their outer rows; the pass that exhausted the outer
        child is shorter than the buffer and must not be mistaken for a
        violated contract."""
        ref = QuerySession(*build_complex_plan(scale=400, seed=seed)).execute()
        db, plan = build_complex_plan(scale=400, seed=seed)
        session = QuerySession(db, plan)
        rows = []
        while True:
            rows.extend(session.execute(max_rows=slice_rows).rows)
            if session.status is QueryStatus.COMPLETED:
                break
            sq = session.suspend(SuspendSpec(budget=1e6))
            session = QuerySession.resume(db, sq)
        assert rows == ref.rows


class TestSuspendRaisedByTheInnerPull:
    """An ``emitted`` trigger on the inner scan, firing mid-pass under an
    emitting NLJ. Expected values were recorded from the per-row path at
    the parent of the change that deleted it; the image SHAs again when
    the codec's frame layer was deleted, and when sections became stored
    zlib streams with narrow int columns (layout 7), each time with the
    decoded control records checked identical.

    The 31st inner tuple matches nothing in the buffer, so the join pulls
    the inner child again and *that* call's entry poll raises: the NLJ
    must have settled the consume charge and written its cursor and
    inner tuple back before the pull (drop either and this fails). The
    30th tuple matches, so there the join hands its row up and the poll
    of its own next call raises.
    """

    def stopped_at(self, inner_tuples):
        db = make_small_db()
        plan = tiny_nlj_plan(buffer_tuples=12, modulus=40)
        session = QuerySession(db, plan)
        session.execute(
            suspend_when=SuspendTrigger("scan_S", "emitted", inner_tuples)
        )
        assert session.status is QueryStatus.SUSPEND_PENDING
        return db, session, session.op_named("nlj")

    def image_sha(self, session):
        """Digest of the control record. Re-pinned when the record gained
        ``key_counters`` (here ``{}``: nothing was dumped; the record
        without that field still hashes to the first pins,
        ``af60e95dbde7f073`` and ``33abca8a7928c8d3``), and when the codec
        stopped deflating (layout 6 pins: ``f9cd258d975e5609`` and
        ``09ea5151cf2e7a15``)."""
        sq = session.suspend(SuspendSpec(strategy="all_goback"))
        return hashlib.sha256(encode_suspended_query(sq)).hexdigest()[:16]

    def test_raised_between_two_inner_tuples(self):
        db, session, nlj = self.stopped_at(31)
        assert len(session.rows) == 9
        assert (nlj.cursor, nlj.inner_row) == (12, None)
        assert nlj.tally.cpu_tuples == 52
        assert session.op_named("scan_S").tally.cpu_tuples == 31
        assert repr(db.now) == "2.155"
        assert self.image_sha(session) == "43309482547d7e2c"

    def test_raised_after_a_match_was_handed_up(self):
        db, session, nlj = self.stopped_at(30)
        assert len(session.rows) == 8
        assert nlj.cursor == 6 and nlj.inner_row[2] == 29
        assert nlj.tally.cpu_tuples == 50
        assert repr(db.now) == "2.152"
        assert self.image_sha(session) == "6ea0423b1418016e"


class TestNLJOverNLJ:
    """A block NLJ whose outer child is another block NLJ — the paper's
    Figure 2 composed with itself — suspended and resumed between every
    slice. Two rules keep it right under GoBack (PROTOCOL §1): a
    contract carries the rows its signer still owed (after a resume that
    left the filter one saved row, the lower join's next pass-boundary
    contract used to drop it), and the lower join checkpoints at the end
    of its last pass too (a "dump to contract" used to restore a cursor
    over the discarded buffer). The first case is ROADMAP item 1's."""

    @pytest.mark.parametrize("slice_rows", [37, 150, 401])
    @pytest.mark.parametrize("strategy", ["all_dump", "all_goback", "lp"])
    @pytest.mark.parametrize(
        "lower, upper, modulus",
        [(30, 25, 7), (17, 9, 5), (40, 13, 3), (11, 31, 7)],
    )
    def test_slices_with_suspend_resume_between(
        self, lower, upper, modulus, strategy, slice_rows
    ):
        plan = NLJSpec(
            outer=tiny_nlj_plan(buffer_tuples=lower),
            inner=ScanSpec("S"),
            condition=EquiJoinCondition(0, 0, modulus=modulus),
            buffer_tuples=upper,
        )
        ref = reference_rows(make_small_db, plan)
        if (lower, upper, modulus) == (30, 25, 7):
            assert len(ref) == 21_575
        db = make_small_db()
        session = QuerySession(db, plan)
        rows = []
        while True:
            rows.extend(session.execute(max_rows=slice_rows).rows)
            if session.status is QueryStatus.COMPLETED:
                break
            sq = session.suspend(SuspendSpec(strategy=strategy))
            session = QuerySession.resume(db, sq)
        assert rows == ref


def nested_scan(buffer, inner_rows, condition, cursor, inner_row, splits):
    """The Section 2 inner loop, one comparison per buffered tuple: for
    each request size, the rows handed up and the ``(cursor, inner_row)``
    left behind, plus the CPU tuples charged (one per inner tuple
    consumed, one per row emitted). The buffer is the last pass's."""
    pulls = iter(inner_rows)
    calls, cpu, done = [], 0, False
    for n in splits:
        batch = []
        while not done and len(batch) < n:
            if inner_row is None:
                inner_row = next(pulls, None)
                if inner_row is None:
                    done = not batch  # the pass ends with nothing in hand
                    cursor = 0 if done else cursor
                    break
                cpu += 1
                cursor = 0
            while cursor < len(buffer) and len(batch) < n:
                outer_row = buffer[cursor]
                cursor += 1
                if condition.matches(outer_row, inner_row):
                    batch.append(outer_row + inner_row)
                    cpu += 1
            if len(batch) < n:
                inner_row = None
        calls.append((batch, cursor, inner_row))
    return calls, cpu


keyed_rows = st.lists(
    st.tuples(st.integers(-3, 3), st.floats(0, 1), st.integers(0, 99)),
    max_size=14,
)


class TestKeyedPass:
    """The keyed lookup is the nested scan: same rows in the same order,
    the same ``(cursor, inner_row)`` after every request, the same CPU
    tuples — from any point of a pass, under any request sizes."""

    @settings(max_examples=150, deadline=None)
    @given(
        buffer=keyed_rows.filter(bool),
        inner=keyed_rows,
        modulus=st.integers(0, 4),
        data=st.data(),
        splits=st.lists(st.integers(1, 9), min_size=1, max_size=12),
    )
    def test_keyed_pass_equals_the_nested_scan(
        self, buffer, inner, modulus, data, splits
    ):
        consumed = data.draw(st.integers(0, len(inner)), label="consumed")
        live = consumed > 0 and data.draw(st.booleans(), label="live")
        inner_row = inner[consumed - 1] if live else None
        cursor = data.draw(st.integers(0, len(buffer)), label="cursor")
        condition = EquiJoinCondition(0, 0, modulus=modulus)

        db = Database()
        db.create_table("R", BASE_SCHEMA, [])
        db.create_table("S", BASE_SCHEMA, inner)
        plan = NLJSpec(
            outer=ScanSpec("R"),
            inner=ScanSpec("S"),
            condition=condition,
            buffer_tuples=len(buffer),
            label="nlj",
        )
        nlj = QuerySession(db, plan).op_named("nlj")
        # A pass in progress: the buffer filled, the inner child past
        # ``consumed`` tuples, the outer child spent.
        nlj.buffer = list(buffer)
        nlj.outer_exhausted = True
        nlj.phase = PHASE_JOIN
        nlj.inner.rewind()
        for _ in range(consumed):
            nlj.inner.next()
        nlj.cursor, nlj.inner_row = cursor, inner_row

        got = []
        for n in splits:
            rows = nlj.next_batch(n)
            got.append((rows, nlj.cursor, nlj.inner_row))
        expected, cpu = nested_scan(
            buffer, inner[consumed:], condition, cursor, inner_row, splits
        )
        assert got == expected
        assert nlj.tally.cpu_tuples == cpu

    def test_heap_state_is_the_buffer_and_nothing_else(self):
        session = QuerySession(make_small_db(), tiny_nlj_plan(modulus=7))
        session.execute(max_rows=25)
        nlj = session.op_named("nlj")
        assert nlj.phase == PHASE_JOIN and nlj.buffer
        assert nlj._heap_state_payload() == nlj.buffer
        assert nlj.heap_tuples() == len(nlj.buffer)
