"""Property: the vectorized batch path is bit-identical to the row path.

Hypothesis drives random plan shapes, data sizes, drain patterns,
scheduler quanta, and suspend points; the invariants are byte-for-byte
equality of output rows, virtual-clock totals, I/O counters, per-operator
work/emitted bookkeeping, and serialized suspend images — including a
suspend condition that fires mid-batch — plus conservation: the integer
events attributed to the operators add up to exactly what the query's
lane counted.

The row path is pinned through the dispatcher that selects it
(``Operator.next_batch``): an armed suspend condition that never fires —
the one thing that selects it in the product — or, where no condition
can be armed (scheduler quanta, the run after a resume and the resume's
own roll-forward), the test-local :func:`row_path`, which swaps the
dispatcher for the per-row loop. Tracing selects nothing: the last
property runs every plan under ``Tracer(next_sample_every=N)`` and
demands the untraced run's rows, clock, counters, per-operator work and
image bytes.

Beyond one operator over a scan, the plans put a stateful child that
checkpoints mid-drain under every heap-drain site (sort buffer, NLJ
outer buffer, hash-join and hash-aggregate partitioning), so batches
that end at the child's checkpoint points are compared with per-row
pulls there too.
"""

import itertools
from contextlib import contextmanager

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
from repro.engine.base import Operator
from repro.engine.plan import (
    FilterSpec,
    GroupAggSpec,
    HashGroupAggSpec,
    HybridHashJoinSpec,
    IndexNLJSpec,
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

PLAN_KINDS = (
    # one operator over a scan(-filter) chain
    "sfp", "nlj", "smj", "shj", "agg",
    # a stateful heap child that checkpoints mid-drain, per drain site
    "sort_shj", "agg_hhj", "shj_sort", "nlj_sort", "nlj_shj",
    # default-path operators over a stream child
    "gagg", "inlj",
)


def build_db(r_size, s_size, seed, pool_pages=0):
    db = Database(buffer_pool_pages=pool_pages)
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(r_size, seed=seed))
    db.create_table(
        "S", BASE_SCHEMA, generate_uniform_table(s_size, seed=seed + 1)
    )
    db.create_index("S_key", "S", 0)
    return db


def build_plan(kind, selectivity, buffer_tuples, modulus):
    filtered = FilterSpec(ScanSpec("R"), UniformSelect(1, selectivity))
    if kind == "sfp":
        return ProjectSpec(filtered, columns=(2, 0))
    if kind in ("sort_shj", "nlj_shj"):
        shj = build_plan("shj", selectivity, buffer_tuples, modulus)
        if kind == "sort_shj":
            return SortSpec(shj, key_columns=(0,), buffer_tuples=buffer_tuples)
        return NLJSpec(
            outer=shj,
            inner=ScanSpec("S"),
            condition=EquiJoinCondition(0, 0, modulus=modulus),
            buffer_tuples=buffer_tuples,
        )
    if kind == "agg_hhj":
        return HashGroupAggSpec(
            HybridHashJoinSpec(
                build=ScanSpec("S"),
                probe=filtered,
                condition=EquiJoinCondition(0, 0, modulus=modulus),
                num_partitions=4,
                memory_partitions=1,
            ),
            group_columns=(2,),
            agg_func="sum",
            agg_column=0,
            num_partitions=3,
        )
    if kind in ("shj_sort", "nlj_sort", "gagg"):
        ordered = SortSpec(filtered, key_columns=(2,), buffer_tuples=buffer_tuples)
        if kind == "shj_sort":
            return SimpleHashJoinSpec(
                build=ordered,
                probe=ScanSpec("S"),
                condition=EquiJoinCondition(0, 0, modulus=modulus),
                num_partitions=4,
            )
        if kind == "nlj_sort":
            return NLJSpec(
                outer=ordered,
                inner=ScanSpec("S"),
                condition=EquiJoinCondition(0, 0, modulus=modulus),
                buffer_tuples=buffer_tuples + 3,
            )
        return GroupAggSpec(
            ordered, group_columns=(2,), agg_func="sum", agg_column=0
        )
    if kind == "inlj":
        return IndexNLJSpec(outer=filtered, index="S_key", outer_key_column=0)
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


@contextmanager
def row_path(pinned=True):
    """Pin every operator to the row path for the duration by swapping
    the dispatcher for the per-row loop it selects under an armed
    condition (so ``_drain``'s ``child.next_batch(n)`` is ``n`` polled
    ``next()`` calls too); ``pinned=False`` leaves the batch path."""
    dispatcher = Operator.next_batch
    if pinned:
        Operator.next_batch = Operator._next_batch_rowloop
    try:
        yield
    finally:
        Operator.next_batch = dispatcher


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
    sched = QueryScheduler(db, SchedulerConfig(quantum_rows=quantum_rows))
    for i, (name, plan) in enumerate(plans):
        sched.submit(name, plan, arrival_time=float(i))
    with row_path(not batch):
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
    kinds=st.lists(
        st.sampled_from(PLAN_KINDS), min_size=2, max_size=5, unique=True
    ),
)
def test_batch_row_identical_under_scheduler_quanta(
    quantum_rows, seed, selectivity, buffer_tuples, kinds
):
    """Interleaved queries cut into quanta: both paths agree on every
    query's rows and completion time and on the shared clock."""
    plans = [
        (kind, build_plan(kind, selectivity, buffer_tuples, 15))
        for kind in kinds
    ]
    ref = run_scheduled(build_db(110, 60, seed), quantum_rows, False, plans)
    got = run_scheduled(build_db(110, 60, seed), quantum_rows, True, plans)
    assert got == ref


def stop_keywords(stop):
    """``execute`` keywords for the first slice of a suspended run: an
    armed trigger on the root's output or on the query's CPU count (which
    fires anywhere — mid-build, mid-partitioning, mid-drain of a heap
    child), or an unarmed ``max_rows`` cut, the suspend a scheduler
    quantum or a token hop takes on the batch path."""
    how, n = stop
    if how == "max_rows":
        return {"max_rows": n}
    if how == "root_rows":
        return {"suspend_when": lambda rt: rt.root().tuples_emitted >= n}
    return {"suspend_when": lambda rt: rt.lane.counters.cpu_tuples >= 25 * n}


def run_suspended(db, plan, stop, strategy, tracer=None):
    reset_id_counters()
    session = QuerySession(db, plan, tracer=tracer)
    first = session.execute(**stop_keywords(stop))
    if session.status is QueryStatus.COMPLETED:
        return first.rows, None, fingerprint(db, session)
    sq = session.suspend(SuspendSpec(strategy=strategy))
    image = encode_suspended_query(sq)
    resumed = QuerySession.resume(db, sq, tracer=tracer)
    rest = resumed.execute()
    return first.rows + rest.rows, image, fingerprint(db, resumed)


STOPS = st.tuples(
    st.sampled_from(["root_rows", "cpu_tuples", "max_rows"]),
    st.integers(1, 80),
)
STRATEGIES = st.sampled_from(["all_dump", "all_goback", "lp"])


@SLOW
@given(
    kind=st.sampled_from(PLAN_KINDS),
    seed=st.integers(0, 10_000),
    selectivity=st.floats(0.2, 1.0),
    buffer_tuples=st.integers(10, 50),
    stop=STOPS,
    strategy=STRATEGIES,
)
def test_mid_batch_suspend_image_identical(
    kind, seed, selectivity, buffer_tuples, stop, strategy
):
    """A suspend — a condition firing mid-batch, or a ``max_rows`` cut on
    the batch path — must leave the same image as the row path (where it
    lands between rows), and the resume's batched roll-forward and the
    rest of the run the same clock and output."""
    plan = build_plan(kind, selectivity, buffer_tuples, 15)
    with row_path():
        ref = run_suspended(build_db(110, 60, seed), plan, stop, strategy)
    got = run_suspended(build_db(110, 60, seed), plan, stop, strategy)
    assert got[0] == ref[0]
    assert got[1] == ref[1]
    assert got[2] == ref[2]


@SLOW
@given(
    kind=st.sampled_from(PLAN_KINDS),
    seed=st.integers(0, 10_000),
    selectivity=st.floats(0.2, 1.0),
    buffer_tuples=st.integers(10, 50),
    stop=STOPS,
    strategy=STRATEGIES,
    sample_every=st.sampled_from([1, 64, 1_000_000]),
)
def test_tracing_is_observation_only(
    kind, seed, selectivity, buffer_tuples, stop, strategy, sample_every
):
    """``Tracer(next_sample_every=N)`` records the run it is given: rows,
    clock, I/O counters, per-operator work and the suspend image are the
    untraced run's. Both sides take the same path (the dispatcher ignores
    the tracer), so a difference can only be a charge or a state change
    made by the tracing itself."""
    plan = build_plan(kind, selectivity, buffer_tuples, 15)
    ref = run_suspended(build_db(110, 60, seed), plan, stop, strategy)
    tracer = Tracer(next_sample_every=sample_every)
    got = run_suspended(build_db(110, 60, seed), plan, stop, strategy, tracer)
    assert got == ref
    assert any(r["type"] == "op.next_batch" for r in tracer.records)
    assert any(r["type"] == "op.stats" for r in tracer.records)
