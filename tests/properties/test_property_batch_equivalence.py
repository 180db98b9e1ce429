"""Property: the vectorized batch path is bit-identical to the row path.

Hypothesis drives random plan shapes, data sizes, drain patterns,
scheduler quanta, and suspend points; the invariants are byte-for-byte
equality of output rows, virtual-clock totals, I/O counters, per-operator
work/emitted bookkeeping, and serialized suspend images — including a
suspend condition that fires mid-batch — plus conservation: the integer
events attributed to the operators add up to exactly what the query's
lane counted.

The row path is pinned through the dispatcher that selects it
(``Operator.next_batch``): an armed suspend condition that never fires,
or, under a scheduler, a tracer that samples ``next()`` spans.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.checkpoint as checkpoint_module
from repro import (
    Database,
    QueryScheduler,
    QuerySession,
    SchedulerConfig,
    SuspendSpec,
)
from repro.core.lifecycle import QueryStatus
from repro.durability.codec2 import encode_suspended_query
from repro.engine.plan import (
    FilterSpec,
    HashGroupAggSpec,
    MergeJoinSpec,
    NLJSpec,
    ProjectSpec,
    ScanSpec,
    SimpleHashJoinSpec,
    SortSpec,
)
from repro.obs.tracer import Tracer
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import EquiJoinCondition, UniformSelect

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PLAN_KINDS = ("sfp", "nlj", "smj", "shj", "agg")


def build_db(r_size, s_size, seed, pool_pages=0):
    db = Database(buffer_pool_pages=pool_pages)
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(r_size, seed=seed))
    db.create_table(
        "S", BASE_SCHEMA, generate_uniform_table(s_size, seed=seed + 1)
    )
    return db


def build_plan(kind, selectivity, buffer_tuples, modulus):
    filtered = FilterSpec(ScanSpec("R"), UniformSelect(1, selectivity))
    if kind == "sfp":
        return ProjectSpec(filtered, columns=(2, 0))
    if kind == "nlj":
        return NLJSpec(
            outer=filtered,
            inner=ScanSpec("S"),
            condition=EquiJoinCondition(0, 0, modulus=modulus),
            buffer_tuples=buffer_tuples,
        )
    if kind == "smj":
        return MergeJoinSpec(
            left=SortSpec(
                filtered, key_columns=(0,), buffer_tuples=buffer_tuples
            ),
            right=SortSpec(
                ScanSpec("S"), key_columns=(0,), buffer_tuples=buffer_tuples + 7
            ),
            condition=EquiJoinCondition(0, 0),
        )
    if kind == "shj":
        return SimpleHashJoinSpec(
            build=ScanSpec("S"),
            probe=filtered,
            condition=EquiJoinCondition(0, 0, modulus=modulus),
            num_partitions=4,
        )
    return HashGroupAggSpec(
        filtered,
        group_columns=(2,),
        agg_func="sum",
        agg_column=0,
        num_partitions=3,
    )


def reset_id_counters():
    """Checkpoint/contract ids are process-global; reset them so the two
    runs under comparison serialize with identical ids."""
    checkpoint_module._ckpt_ids = itertools.count(1)
    checkpoint_module._contract_ids = itertools.count(1)


def fingerprint(db, session):
    ops = {
        op_id: (repr(op.work), op.tuples_emitted)
        for op_id, op in sorted(session.runtime.ops.items())
    }
    return (repr(db.now), db.disk.counters.snapshot(), ops)


def never(rt):
    return False


def pin(batch):
    """``execute`` keywords selecting the batch path or the row path."""
    return {} if batch else {"suspend_when": never}


def events(counters):
    return (counters.pages_read, counters.pages_written, counters.cpu_tuples)


def assert_work_conserved(session):
    """Every event the lane counted is attributed to exactly one operator."""
    tallies = [events(op.tally) for op in session.runtime.ops.values()]
    lane = session.runtime.lane
    assert tuple(map(sum, zip(*tallies))) == events(lane.counters)


def run_drained(db, plan, batch, drains):
    session = QuerySession(db, plan)
    rows = []
    for drain in drains:
        if session.status is QueryStatus.COMPLETED:
            break
        rows.extend(session.execute(max_rows=drain, **pin(batch)).rows)
        assert_work_conserved(session)
    if session.status is not QueryStatus.COMPLETED:
        rows.extend(session.execute(**pin(batch)).rows)
    assert_work_conserved(session)
    return rows, fingerprint(db, session)


@SLOW
@given(
    kind=st.sampled_from(PLAN_KINDS),
    r_size=st.integers(40, 160),
    s_size=st.integers(30, 90),
    seed=st.integers(0, 10_000),
    selectivity=st.floats(0.05, 1.0),
    buffer_tuples=st.integers(5, 60),
    modulus=st.integers(5, 40),
    pool_pages=st.sampled_from([0, 0, 4]),
    drains=st.lists(st.integers(1, 200), max_size=4),
)
def test_batch_row_identical(
    kind,
    r_size,
    s_size,
    seed,
    selectivity,
    buffer_tuples,
    modulus,
    pool_pages,
    drains,
):
    plan = build_plan(kind, selectivity, buffer_tuples, modulus)
    ref_rows, ref_fp = run_drained(
        build_db(r_size, s_size, seed, pool_pages), plan, False, ()
    )
    got_rows, got_fp = run_drained(
        build_db(r_size, s_size, seed, pool_pages), plan, True, drains
    )
    assert got_rows == ref_rows
    assert got_fp == ref_fp


def run_scheduled(db, quantum_rows, batch, plans):
    tracer = None if batch else Tracer(next_sample_every=1_000_000)
    sched = QueryScheduler(
        db, SchedulerConfig(quantum_rows=quantum_rows, tracer=tracer)
    )
    for i, (name, plan) in enumerate(plans):
        sched.submit(name, plan, arrival_time=float(i))
    sched.run()
    return (
        {r.name: (r.rows, repr(r.stats.completed_at)) for r in sched.records},
        repr(db.now),
        db.disk.counters.snapshot(),
    )


@SLOW
@given(
    quantum_rows=st.integers(1, 150),
    seed=st.integers(0, 10_000),
    selectivity=st.floats(0.2, 1.0),
    buffer_tuples=st.integers(10, 50),
)
def test_batch_row_identical_under_scheduler_quanta(
    quantum_rows, seed, selectivity, buffer_tuples
):
    """Interleaved queries cut into quanta: both paths agree on every
    query's rows and completion time and on the shared clock."""
    plans = [
        (kind, build_plan(kind, selectivity, buffer_tuples, 15))
        for kind in PLAN_KINDS
    ]
    ref = run_scheduled(build_db(110, 60, seed), quantum_rows, False, plans)
    got = run_scheduled(build_db(110, 60, seed), quantum_rows, True, plans)
    assert got == ref


def run_suspended(db, plan, batch, trigger, strategy):
    reset_id_counters()
    session = QuerySession(db, plan)
    first = session.execute(suspend_when=trigger)
    if session.status is QueryStatus.COMPLETED:
        return first.rows, None, fingerprint(db, session)
    sq = session.suspend(SuspendSpec(strategy=strategy))
    image = encode_suspended_query(sq)
    resumed = QuerySession.resume(db, sq)
    rest = resumed.execute(**pin(batch))
    return first.rows + rest.rows, image, fingerprint(db, resumed)


@SLOW
@given(
    kind=st.sampled_from(PLAN_KINDS),
    seed=st.integers(0, 10_000),
    selectivity=st.floats(0.2, 1.0),
    buffer_tuples=st.integers(10, 50),
    fire_at=st.integers(1, 80),
    strategy=st.sampled_from(["all_dump", "all_goback", "lp"]),
)
def test_mid_batch_suspend_image_identical(
    kind, seed, selectivity, buffer_tuples, fire_at, strategy
):
    """A suspend condition firing mid-batch must leave the same image,
    clock, and output as the row path (where it fires between rows)."""
    plan = build_plan(kind, selectivity, buffer_tuples, 15)

    def trigger(rt):
        return rt.root().tuples_emitted >= fire_at

    ref = run_suspended(build_db(110, 60, seed), plan, False, trigger, strategy)
    got = run_suspended(build_db(110, 60, seed), plan, True, trigger, strategy)
    assert got[0] == ref[0]
    assert got[1] == ref[1]
    assert got[2] == ref[2]
