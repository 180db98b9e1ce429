"""The batch path's C-level passes against the row-at-a-time loops they
replaced (``tests/oracles.py``): the hash join's probe over its hit index,
the hash aggregate's per-function fold, and the fused scan→filter segment
over a compiled mask.

Each property runs one plan twice, once as it ships and once with the
oracle loops patched in, suspending under the drawn strategy and resuming
at every batch boundary, and demands the same rows, clock, disk counters,
operator tallies and control state after every batch. Every property
takes its example count from the active hypothesis profile (CI runs this
file under ``--hypothesis-profile=ci``, see ``tests/conftest.py``).
"""

import re
from contextlib import contextmanager
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Database, QuerySession, SuspendSpec, SuspendTrigger
from repro.core.lifecycle import QueryStatus
from repro.engine import filter as filter_module
from repro.engine import scan as scan_module
from repro.engine.hash_aggregate import HashGroupAggregate
from repro.engine.hash_join import SimpleHashJoin
from repro.engine.plan import (
    FilterSpec,
    HashGroupAggSpec,
    HybridHashJoinSpec,
    ProjectSpec,
    ScanSpec,
    SimpleHashJoinSpec,
)
from repro.relational.expressions import (
    AndPredicate,
    ColumnCompare,
    EquiJoinCondition,
    UniformSelect,
    ValueIn,
)
from repro.relational.schema import Schema

from tests.oracles import (
    row_fold_load_partition,
    row_fused_scan,
    row_probe_next_batch,
)

PROPERTY = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Bytes per tuple on a 20 000-byte page: 1, 2, 6 and 100 rows a page.
BYTES_PER_TUPLE = st.sampled_from([20_000, 7_000, 3_000, 200])
MAX_ROWS = st.sampled_from([1, 2, 17, 4096])
STRATEGY = st.sampled_from(["all_dump", "all_goback", "lp"])


@contextmanager
def row_loops():
    """Plans run inside use the parent's row-at-a-time loops."""
    with mock.patch.object(
        SimpleHashJoin, "_next_batch", row_probe_next_batch
    ), mock.patch.object(
        HashGroupAggregate, "_load_partition", row_fold_load_partition
    ), mock.patch.object(
        scan_module, "fused_scan", row_fused_scan
    ), mock.patch.object(filter_module, "fused_scan", row_fused_scan):
        yield


def batch_trace(tables, plan, max_rows, strategy, trigger=None):
    """Run ``plan`` over ``tables`` (name -> (bytes per tuple, rows)) in
    batches of ``max_rows``, suspending and resuming between every two
    (and at ``trigger``, armed for the first call): what the run looks
    like after each batch."""
    db = Database()
    for name, (bytes_per_tuple, rows) in tables.items():
        db.create_table(name, Schema.of(["a", "b", "c"], bytes_per_tuple), rows)
    session = QuerySession(db, plan)
    trace = []
    while True:
        batch = session.execute(max_rows=max_rows, suspend_when=trigger).rows
        trigger = None
        ops = [op for _, op in sorted(session.runtime.ops.items())]
        trace.append({
            "rows": repr(batch),  # tells -0.0 from 0.0, 1.0 from 1
            "now": repr(db.now),
            "disk": db.disk.counters.snapshot(),
            "ops": [
                (op.name, op.tuples_emitted, op.tally.snapshot(),
                 # a DumpHandle's store id counts the stores made so far
                 re.sub(r"store_id=\d+", "", repr(op.control_state())))
                for op in ops
            ],
        })
        if session.status is QueryStatus.COMPLETED:
            return trace
        sq = session.suspend(SuspendSpec(strategy=strategy))
        session = QuerySession.resume(db, sq)


def assert_matches_oracle(*args, **kwargs):
    got = batch_trace(*args, **kwargs)
    with row_loops():
        want = batch_trace(*args, **kwargs)
    assert got == want


# Keys with few distinct values so that rows match: an int column and a
# float column (equal floats and ints hash alike).
JOIN_ROW = st.tuples(
    st.integers(0, 6),
    st.sampled_from([0.0, 0.5, 1.5, 2.0, 4.25, 7.5]),
    st.integers(-2, 2),
)

#: Values to group, compare and sum: ints, and floats whose sums depend
#: on the order of addition and whose zeros compare equal but print apart.
FOLD_ROW = st.tuples(
    st.integers(0, 4),
    st.one_of(
        st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1e16]),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    ),
    st.integers(-3, 3),
)

SIMPLE_PREDICATE = st.one_of(
    st.builds(
        UniformSelect, st.just(1), st.sampled_from([0.0, 0.3, 0.7, 1.0])
    ),
    st.builds(
        ColumnCompare,
        st.sampled_from([0, 2]),
        st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
        st.integers(-2, 9),
    ),
    st.builds(
        ValueIn, st.just(0), st.frozensets(st.integers(0, 9), max_size=4)
    ),
)
PREDICATE = st.one_of(
    SIMPLE_PREDICATE,
    st.lists(SIMPLE_PREDICATE, min_size=2, max_size=3).map(
        lambda parts: AndPredicate(tuple(parts))
    ),
)


class TestProbeMatchesTheRowProbe:
    @PROPERTY
    @given(
        build=st.lists(JOIN_ROW, max_size=12),
        probe=st.lists(JOIN_ROW, max_size=24),
        build_bytes=BYTES_PER_TUPLE,
        probe_bytes=BYTES_PER_TUPLE,
        columns=st.tuples(st.sampled_from([0, 1]), st.sampled_from([0, 1])),
        modulus=st.sampled_from([0, 2, 3]),
        partitions=st.integers(1, 3),
        memory=st.integers(-1, 3),
        max_rows=MAX_ROWS,
        strategy=STRATEGY,
    )
    def test_every_batch_matches(
        self, build, probe, build_bytes, probe_bytes, columns, modulus,
        partitions, memory, max_rows, strategy,
    ):
        """``memory`` -1 is a simple hash join, 0.. a hybrid one with
        that many memory partitions."""
        condition = EquiJoinCondition(*columns, modulus=modulus)
        sides = dict(
            build=ScanSpec("B"), probe=ScanSpec("P"), condition=condition,
            num_partitions=partitions, label="join",
        )
        if memory < 0:
            plan = SimpleHashJoinSpec(**sides)
        else:
            plan = HybridHashJoinSpec(
                **sides, memory_partitions=min(memory, partitions)
            )
        tables = {"B": (build_bytes, build), "P": (probe_bytes, probe)}
        assert_matches_oracle(tables, plan, max_rows, strategy)


class TestFoldMatchesTheRowFold:
    @PROPERTY
    @given(
        rows=st.lists(FOLD_ROW, max_size=40),
        bytes_per_tuple=BYTES_PER_TUPLE,
        group_columns=st.sampled_from([(0,), (2,), (0, 2), (2, 0)]),
        agg_func=st.sampled_from(["sum", "min", "max", "count"]),
        agg_column=st.sampled_from([1, 2]),
        partitions=st.integers(1, 3),
        max_rows=MAX_ROWS,
        strategy=STRATEGY,
    )
    @example(  # min and max keep the first of equal values
        rows=[(0, 0.0, 0), (0, -0.0, 0)], bytes_per_tuple=200,
        group_columns=(0,), agg_func="min", agg_column=1, partitions=1,
        max_rows=4096, strategy="lp",
    )
    @example(
        rows=[(0, -0.0, 0), (0, 0.0, 0)], bytes_per_tuple=200,
        group_columns=(0,), agg_func="max", agg_column=1, partitions=1,
        max_rows=4096, strategy="lp",
    )
    @example(  # a float sum adds in arrival order
        rows=[(0, 0.1, 0), (0, 0.2, 0), (0, 0.3, 0)], bytes_per_tuple=200,
        group_columns=(0,), agg_func="sum", agg_column=1, partitions=1,
        max_rows=4096, strategy="lp",
    )
    def test_every_batch_matches(
        self, rows, bytes_per_tuple, group_columns, agg_func, agg_column,
        partitions, max_rows, strategy,
    ):
        plan = HashGroupAggSpec(
            ScanSpec("G"), group_columns=group_columns, agg_func=agg_func,
            agg_column=agg_column, num_partitions=partitions, label="agg",
        )
        tables = {"G": (bytes_per_tuple, rows)}
        assert_matches_oracle(tables, plan, max_rows, strategy)


class TestMaskMatchesTheRowFilter:
    @PROPERTY
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 9), st.floats(0, 1, exclude_max=True),
                st.integers(-2, 2),
            ),
            max_size=60,
        ),
        bytes_per_tuple=BYTES_PER_TUPLE,
        predicate=PREDICATE,
        project=st.booleans(),
        position=st.one_of(st.none(), st.integers(0, 60)),
        max_rows=MAX_ROWS,
        strategy=STRATEGY,
    )
    def test_every_batch_matches(
        self, rows, bytes_per_tuple, predicate, project, position,
        max_rows, strategy,
    ):
        """``position``, when drawn, arms a trigger on the scan for the
        first call: the segments then examine no more rows than are left
        before it."""
        plan = FilterSpec(ScanSpec("T", label="scan"), predicate, label="f")
        if project:
            plan = ProjectSpec(plan, columns=(2, 0), label="project")
        trigger = (
            None if position is None
            else SuspendTrigger("scan", "position", position)
        )
        tables = {"T": (bytes_per_tuple, rows)}
        assert_matches_oracle(
            tables, plan, max_rows, strategy, trigger=trigger
        )


def test_the_oracle_really_runs():
    """The patch reaches the probe, the fold and both callers of the
    fused loop; without it the hit index is built."""
    rows = [(k % 5, k / 4, k % 3) for k in range(40)]
    tables = {"B": (200, rows[:20]), "P": (7_000, rows)}
    join = SimpleHashJoinSpec(
        ScanSpec("B"), ScanSpec("P"), EquiJoinCondition(0, 0, modulus=3),
        num_partitions=2, label="join",
    )
    agg = HashGroupAggSpec(
        FilterSpec(ScanSpec("P"), UniformSelect(1, 5.0)), group_columns=(0,),
        agg_func="sum", agg_column=1, num_partitions=2, label="agg",
    )

    def started(plan):
        db = Database()
        for name, (bytes_per_tuple, table) in tables.items():
            db.create_table(
                name, Schema.of(["a", "b", "c"], bytes_per_tuple), table
            )
        session = QuerySession(db, plan)
        return session, session.execute(max_rows=5).rows

    def run(plan):
        session, out = started(plan)
        return out + session.execute().rows

    with row_loops():
        assert SimpleHashJoin._next_batch is row_probe_next_batch
        assert HashGroupAggregate._load_partition is row_fold_load_partition
        assert scan_module.fused_scan is row_fused_scan
        assert filter_module.fused_scan is row_fused_scan
        assert started(join)[0].op_named("join")._hit_index is None
        row_join, row_agg = run(join), run(agg)
    assert started(join)[0].op_named("join")._hit_index is not None
    pairs = sum(b[0] % 3 == p[0] % 3 for b in rows[:20] for p in rows)
    assert run(join) == row_join and len(row_join) == pairs
    assert run(agg) == row_agg and len(row_agg) == 5
