"""Property: batch size is invisible to everything the paper accounts for.

Hypothesis drives random plan shapes, data, drain patterns, typed suspend
triggers on any operator of the plan, and suspend strategies; the
invariant is that the same run with every ``next_batch`` request clamped
to one row — one poll, one production step per row — equals the
free-running run byte for byte: output rows, virtual-clock totals, I/O
counters, per-operator work/emitted bookkeeping and serialized suspend
images. A trigger on a leaf fires mid-build, mid-partitioning or
mid-drain of a heap child, so the stop lands inside every phase. Plus
conservation: the integer events attributed to the operators add up to
exactly what the query's lane counted. What the deleted per-row path
produced is pinned separately (``tests/engine/test_golden_row_path.py``).

Tracing selects nothing: the last property runs every plan under
``Tracer(next_sample_every=N)`` and demands the untraced run's rows,
clock, counters, per-operator work and image bytes.

Beyond one operator over a scan, the plans put a stateful child that
checkpoints mid-drain under every heap-drain site (sort buffer, NLJ
outer buffer, hash-join and hash-aggregate partitioning), so batches
that end at the child's checkpoint points are compared with one-row
pulls there too.
"""

import itertools
from contextlib import contextmanager

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.checkpoint as checkpoint_module
from repro import Database, QuerySession, SuspendSpec, SuspendTrigger
from repro.core.lifecycle import QueryStatus
from repro.durability.codec2 import encode_suspended_query
from repro.engine.base import Operator
from repro.engine.runtime import TRIGGER_COUNTERS, Runtime
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
    instantiate_plan,
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


def build_db(r_size, s_size, seed):
    db = Database()
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


@contextmanager
def one_row_requests():
    """Clamp every ``next_batch`` request — the driver's, a heap drain's —
    to one row for the duration."""
    free = Operator.next_batch
    Operator.next_batch = lambda op, max_rows: free(op, min(max_rows, 1))
    try:
        yield
    finally:
        Operator.next_batch = free


def events(counters):
    return (counters.pages_read, counters.pages_written, counters.cpu_tuples)


def assert_work_conserved(session):
    """Every event the lane counted is attributed to exactly one operator."""
    tallies = [events(op.tally) for op in session.runtime.ops.values()]
    lane = session.runtime.lane
    assert tuple(map(sum, zip(*tallies))) == events(lane.counters)


def stop_keywords(db, plan, stop):
    """``execute`` keywords for the slice that ends in the suspend: an
    unarmed ``max_rows`` cut (the suspend a scheduler quantum or a token
    hop takes), or a trigger on whichever operator and counter of this
    plan the drawn indexes select."""
    how, which, n = stop
    if how == "max_rows":
        return {"max_rows": n}
    runtime = Runtime(db)
    instantiate_plan(plan, runtime)
    ops = list(runtime.ops.values())
    op = ops[which % len(ops)]
    counters = [c for c, attr in TRIGGER_COUNTERS.items() if hasattr(op, attr)]
    counter = counters[which // len(ops) % len(counters)]
    return {"suspend_when": SuspendTrigger(op.name, counter, n)}


def run_suspended(db, plan, stop, strategy, tracer=None, drains=()):
    keywords = stop_keywords(db, plan, stop)
    reset_id_counters()
    session = QuerySession(db, plan, tracer=tracer)
    rows = []
    for drain in drains:
        if session.status is QueryStatus.COMPLETED:
            break
        rows.extend(session.execute(max_rows=drain).rows)
        assert_work_conserved(session)
    if session.status is not QueryStatus.COMPLETED:
        rows.extend(session.execute(**keywords).rows)
    assert_work_conserved(session)
    if session.status is QueryStatus.COMPLETED:
        return rows, None, None, fingerprint(db, session)
    at_stop = fingerprint(db, session)
    sq = session.suspend(SuspendSpec(strategy=strategy))
    image = encode_suspended_query(sq)
    resumed = QuerySession.resume(db, sq, tracer=tracer)
    rows.extend(resumed.execute().rows)
    return rows, at_stop, image, fingerprint(db, resumed)


STOPS = st.tuples(
    st.sampled_from(["trigger", "trigger", "max_rows"]),
    st.integers(0, 40),
    st.integers(0, 120),
)
STRATEGIES = st.sampled_from(["all_dump", "all_goback", "lp"])


@settings(SLOW, max_examples=60)
@given(
    kind=st.sampled_from(PLAN_KINDS),
    r_size=st.integers(40, 160),
    s_size=st.integers(30, 90),
    seed=st.integers(0, 10_000),
    selectivity=st.floats(0.05, 1.0),
    buffer_tuples=st.integers(5, 60),
    modulus=st.integers(5, 40),
    drains=st.lists(st.integers(1, 200), max_size=2),
    stop=STOPS,
    strategy=STRATEGIES,
)
def test_mid_batch_suspend_image_identical(
    kind,
    r_size,
    s_size,
    seed,
    selectivity,
    buffer_tuples,
    modulus,
    drains,
    stop,
    strategy,
):
    """Batch-size invariance: a run cut into slices, stopped by a trigger
    or a ``max_rows`` cut, suspended, resumed (a batched roll-forward)
    and finished is the same run when every request is for one row —
    the rows, the clock and bookkeeping at the stop and at the end, and
    the image."""
    plan = build_plan(kind, selectivity, buffer_tuples, modulus)
    with one_row_requests():
        ref = run_suspended(
            build_db(r_size, s_size, seed),
            plan, stop, strategy, drains=drains,
        )
    got = run_suspended(
        build_db(r_size, s_size, seed),
        plan, stop, strategy, drains=drains,
    )
    assert got == ref


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
