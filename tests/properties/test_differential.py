"""One differential harness: every execution mode against the uninterrupted run.

The paper's promise is that a resumed query continues exactly where it
stopped. Each mode runs a plan of the grammar in ``plans.py`` through one
**schedule** — one to three stops (a ``SuspendTrigger`` on any operator
and counter, or a ``max_rows`` cut), each followed by a suspend under
``all_dump``, ``all_goback`` or ``lp`` (in turn from a drawn list) with
an unbounded or finite budget, and a resume — and is checked against the
same plan run once, uninterrupted:

- *in place*: the rows; under ``all_dump`` alone also the lane's
  ``cpu_tuples`` counted while executing;
- *one-row requests* (every ``next_batch`` clamped to one row) and
  *traced*: the free-running run itself — rows, clock, ``IOCounters``,
  each operator's ``(emitted, tally)`` at every stop, and image bytes;
- *persisted* (saved with ``ImageStore``, a repeat as a delta, loaded
  into a fresh database): the rows, and the lane at every stop equals
  the in-place run's — a resume from an image charges what a resume in
  place charges;
- *token-hopped* (``QueryService``): the rows, and each hop's lane clock
  (its image's ``query_clock``) equals that of an in-place run cut at
  the same quantum;
- *folded*: each member's rows and lane equal its solo run's, and the
  split victim's images, first and repeat, the unfolded run's bytes;
- *sharded* (``SHARDABLE`` plans, 1-4 shards): the rows as a multiset;
  a cut at any pass boundary commits the same bytes twice and resumes to
  the uncut delivery.

Every mode ends with its last session closed and each SuspendedQuery
released, and then holds nothing (:func:`assert_nothing_held`).

Page counts are never compared across a suspend (a resumed scan re-reads
its page). Each ``@example`` pins a defect whatever hypothesis draws.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from typing import NamedTuple
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import QuerySession, SuspendSpec, SuspendTrigger
from repro.common.errors import SuspendBudgetInfeasibleError
from repro.core.costs import build_cost_model
from repro.core.lifecycle import QueryStatus
from repro.core.suspended_query import KIND_DUMP_TO_CONTRACT
from repro.durability import ImageStore
from repro.durability.codec2 import encode_suspended_query
from repro.engine.base import Operator
from repro.engine.plan import (
    FilterSpec,
    HashGroupAggSpec,
    IndexNLJSpec,
    MergeJoinSpec,
    NLJSpec,
    ProjectSpec,
    ScanSpec,
    SortSpec,
)
from repro.engine.runtime import TRIGGER_COUNTERS
from repro.fold.manager import FoldManager
from repro.obs.tracer import Tracer
from repro.relational.expressions import EquiJoinCondition, UniformSelect
from repro.serve import QueryService, ServeConfig
from repro.shard import ShardCoordinator

from tests.oracles import enumerate_valid_plans
from tests.properties.plans import SHARDABLE, Case, build_plan, cases, events

SLOW = settings(
    max_examples=45, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
NAME = "q0"


def examples(n: int) -> int:
    """``n`` at the default hypothesis profile, scaled with the active
    one (ten times under ``--hypothesis-profile=ci``)."""
    default = settings.get_profile("default").max_examples
    return n * settings().max_examples // default


class Schedule(NamedTuple):
    #: ``("trigger", which, n)`` or ``("max_rows", 0, n)`` each; the
    #: suspend after stop ``k`` uses ``strategies[k % len(strategies)]``.
    stops: tuple
    strategies: tuple = ("all_dump",)
    budget: float = math.inf


STOPS = st.one_of(
    st.tuples(st.just("trigger"), st.integers(0, 60), st.integers(0, 120)),
    st.tuples(st.just("max_rows"), st.just(0), st.integers(1, 150)),
)
schedules = st.builds(
    Schedule,
    stops=st.lists(STOPS, min_size=1, max_size=3).map(tuple),
    strategies=st.lists(
        st.sampled_from(["all_dump", "all_goback", "lp"]),
        min_size=1, max_size=3,
    ).map(tuple),
    budget=st.one_of(st.just(math.inf), st.floats(0.5, 50.0)),
)


def stop_keywords(session, stop) -> dict:
    """``execute`` keywords: a ``max_rows`` cut, or a trigger on the op and
    counter ``which`` selects (``position`` and ``emitted`` count on from
    where they stand, so a stop after a resume lies ahead)."""
    how, which, n = stop
    if how == "max_rows":
        return {"max_rows": n}
    ops = [op for _, op in sorted(session.runtime.ops.items())]
    op = ops[which % len(ops)]
    counters = [c for c, attr in TRIGGER_COUNTERS.items() if hasattr(op, attr)]
    counter = counters[which // len(ops) % len(counters)]
    if counter != "fill":
        value = getattr(op, TRIGGER_COUNTERS[counter])
        n += value() if callable(value) else value
    return {"suspend_when": SuspendTrigger(op.name, counter, n)}


def suspend(session, schedule, hop):
    strategy = schedule.strategies[hop % len(schedule.strategies)]
    try:
        return session.suspend(SuspendSpec(strategy, schedule.budget))
    except SuspendBudgetInfeasibleError:
        return session.suspend(SuspendSpec(strategy))


def lane_state(session):
    lane = session.runtime.lane
    return (repr(lane.now), lane.counters.snapshot())


def fingerprint(session, fresh):
    """Clock, I/O counters and each operator's bookkeeping; on a ``fresh``
    (never resumed) session the tallies must add up to the lane's."""
    ops = [op for _, op in sorted(session.runtime.ops.items())]
    tallies = [events(op.tally) for op in ops]
    lane = events(session.runtime.lane.counters)
    assert not fresh or tuple(map(sum, zip(*tallies))) == lane
    db = session.db
    return (
        repr(db.now),
        db.disk.counters.snapshot(),
        [(op.tuples_emitted, tally) for op, tally in zip(ops, tallies)],
    )


@dataclass
class Run:
    """Rows, lane ``cpu_tuples`` counted in ``execute``, :func:`lane_state`
    and :func:`fingerprint` at every stop and the end, and the images."""

    rows: list = field(default_factory=list)
    cpu: int = 0
    lanes: list = field(default_factory=list)
    trail: list = field(default_factory=list)
    images: list = field(default_factory=list)
    #: The database the run ended on.
    db: object = field(default=None, compare=False, repr=False)


def assert_nothing_held(db):
    """What a mode ends on once its last session is closed and each
    SuspendedQuery released: the state store holds no payload, holder
    count, origin, key counter or open scope."""
    state = db.state_store
    assert len(state) == 0
    assert (state._holds, state._origins, state._open_scopes) == ({}, {}, {})
    assert [scope for scope in state._counters if scope is not None] == []


def in_place(db, sq, hop, tracer):
    return QuerySession.resume(db, sq, name=NAME, tracer=tracer)


def plain(session, keywords):
    return session.execute(**keywords).rows


def run_schedule(case, schedule, resume=in_place, tracer=None, execute=plain,
                 session=None) -> Run:
    """Run ``case`` (or its opened ``session``) through ``schedule``,
    handing each suspended query to ``resume``; ``execute`` runs a slice."""
    if session is None:
        session = QuerySession(case.db(), case.plan, name=NAME, tracer=tracer)
    run = Run()
    for hop, stop in enumerate(schedule.stops + (None,)):
        keywords = {} if stop is None else stop_keywords(session, stop)
        counters = session.runtime.lane.counters
        before = counters.cpu_tuples
        run.rows += execute(session, keywords)
        run.cpu += counters.cpu_tuples - before
        run.lanes.append(lane_state(session))
        run.trail.append(fingerprint(session, fresh=not hop))
        if session.status is QueryStatus.COMPLETED:
            break
        sq = suspend(session, schedule, hop)
        run.images.append(encode_suspended_query(sq))
        db = session.db
        session = resume(db, sq, hop, tracer)
        sq.release()
        if session.db is not db:
            assert_nothing_held(db)
    session.close()
    assert session.memory_in_use() == 0
    run.db = session.db
    return run


def reference(case) -> Run:
    return run_schedule(case, Schedule(()))


#: Scan S's 31st row (op 7 % 4, counter 7 // 4: ``emitted``) matches
#: nothing, so the NLJ pulls again and the pull raises: the join must have
#: settled its consume charge first or the resumed cpu_tuples fall short.
SETTLE = Case(300, 200, 1, build_plan("nlj", 0.5, 12, 40)), Schedule(
    (("trigger", 7, 31),)
)
#: A ``fill`` stop on the merge join's left sort: its dumped buffer must
#: come back whole.
SORT_DUMP = Case(110, 60, 9, build_plan("smj", 0.45, 16, 15)), Schedule(
    (("trigger", 1, 11),)
)
#: An ``emitted`` stop on the index NLJ's outer scan: the join above it
#: must hand up one row per call while the trigger is armed.
CAP = Case(110, 60, 18, build_plan("inlj", 0.75, 23, 15)), Schedule(
    (("trigger", 5, 48),)
)
#: An NLJ below a sort rewinds its filtered inner at each pass: a
#: contract the filter signed before the rewind must not take the new
#: pass's first match as its saved row (it would be joined twice).
FILTER_REWIND = Case(30, 20, 0, SortSpec(NLJSpec(
    ScanSpec("R"), FilterSpec(ScanSpec("R"), UniformSelect(1, 1.0)),
    EquiJoinCondition(0, 0, 3), 5,
), (0,), 5)), Schedule((("trigger", 0, 1),), ("all_goback",))
#: A contract migrated to a hash aggregate's partition-boundary
#: checkpoint must roll forward past the finished partition, not replay
#: it (the third GoBack here lands on one).
AGG_BOUNDARY = Case(46, 73, 0, NLJSpec(
    ProjectSpec(HashGroupAggSpec(ScanSpec("S"), (0,), "count", 0, 3), (0,)),
    ScanSpec("R"), EquiJoinCondition(0, 0, 9), 5,
)), Schedule((("max_rows", 0, 94),) * 3, ("all_goback",))

#: A stateless project dumps to its contract under a GoBack NLJ: its
#: child must go back to where the contract's checkpoint saw it, not stay
#: where it stands (rows were lost). Two of the stop's twelve valid plans
#: do this, the optimizer's pick among them.
STATELESS_DUMP = Case(30, 20, 0, NLJSpec(
    NLJSpec(
        IndexNLJSpec(ProjectSpec(ScanSpec("R"), (0,)), "S_key", 0),
        ProjectSpec(ScanSpec("R"), (0,)), EquiJoinCondition(0, 0, 3), 5,
    ),
    SortSpec(ScanSpec("R"), (0,), 5), EquiJoinCondition(0, 0, 23), 5,
)), Schedule((("trigger", 5, 4),), ("lp",))


@settings(SLOW, max_examples=examples(45))
@given(case=cases(), schedule=schedules)
@example(*SETTLE)
@example(*SORT_DUMP)
@example(*CAP)
@example(*FILTER_REWIND)
@example(*AGG_BOUNDARY)
@example(*STATELESS_DUMP)
def test_in_place(case, schedule):
    check_in_place(case, schedule)


def nlj_over(outer, buffer_tuples):
    return NLJSpec(outer, ScanSpec("S"), EquiJoinCondition(0, 0, 3),
                   buffer_tuples)


#: A merge join whose left packets hold three rows (each R key meets three
#: S rows in the NLJ below the sort) under an NLJ buffer of two: the NLJ's
#: contracts are signed mid-packet.
NLJ_OVER_MERGE = nlj_over(MergeJoinSpec(
    SortSpec(NLJSpec(ScanSpec("R"), ScanSpec("S"), EquiJoinCondition(0, 0, 3),
                     10), (0,), 20),
    SortSpec(ScanSpec("S"), (0,), 7), EquiJoinCondition(0, 0),
), 2)


def cut(n):
    return Schedule((("max_rows", 0, n),))


#: ``(case, schedule, valid plans at the stop, the stateful operators some
#: plan suspends as a DumpState-to-contract entry)``. The hash-aggregate
#: stops pin a defect: a contract signed before the first partition load
#: has no heap, and the dump of partition 0's groups restored under it
#: emitted that partition twice.
EVERY_PLAN = (
    STATELESS_DUMP + (12, {"BlockNLJ"}),
    (Case(60, 40, 1, nlj_over(build_plan("shj", 0.5, 7, 3), 5)), cut(5), 6,
     {"SimpleHashJoin"}),
    (Case(60, 40, 1, nlj_over(build_plan("shj", 0.5, 7, 3), 5)), cut(29), 6,
     {"SimpleHashJoin"}),
    (Case(60, 40, 1, nlj_over(build_plan("agg", 0.5, 7, 3), 5)), cut(5), 6,
     {"HashGroupAggregate"}),
    (Case(60, 40, 1, nlj_over(build_plan("agg", 0.5, 7, 3), 5)), cut(13), 6,
     {"HashGroupAggregate"}),
    (Case(12, 9, 1, NLJ_OVER_MERGE), cut(5), 60,
     {"MergeJoin", "TwoPhaseMergeSort"}),
    (Case(12, 9, 1, NLJ_OVER_MERGE), cut(13), 60,
     {"MergeJoin", "TwoPhaseMergeSort"}),
)


def test_every_valid_plan_resumes_alike():
    """Not only the optimizer's pick: every valid suspend plan at each
    :data:`EVERY_PLAN` stop resumes to the uninterrupted rows, and the
    stops restore each stateful operator from a DumpState-to-contract
    entry."""
    reached = set()
    for case, schedule, count, to_contract in EVERY_PLAN:
        ref = reference(case).rows

        def at_stop():
            session = QuerySession(case.db(), case.plan, name=NAME)
            result = session.execute(
                **stop_keywords(session, schedule.stops[0])
            )
            return session, result.rows

        probe, _ = at_stop()
        stateful = {
            i: type(op).__name__
            for i, op in probe.runtime.ops.items() if op.STATEFUL
        }
        plans = list(enumerate_valid_plans(build_cost_model(probe.runtime)))
        assert len(plans) == count
        seen = set()
        for plan in plans:
            session, rows = at_stop()
            sq = session.suspend(SuspendSpec(plan=plan))
            seen |= {
                stateful[e.op_id] for e in sq.entries.values()
                if e.kind == KIND_DUMP_TO_CONTRACT and e.op_id in stateful
            }
            resumed = in_place(session.db, sq, 0, None)
            sq.release()
            rows += resumed.execute().rows
            assert rows == ref, plan.describe()
            resumed.close()
            assert_nothing_held(resumed.db)
        assert seen == to_contract
        reached |= seen
    assert reached == {
        "BlockNLJ", "TwoPhaseMergeSort", "SimpleHashJoin",
        "HashGroupAggregate", "MergeJoin",
    }


def check_in_place(case, schedule, ref=None):
    """The in-place mode: rows, and under ``all_dump`` alone the lane's
    ``cpu_tuples`` counted while executing."""
    ref = reference(case) if ref is None else ref
    run = run_schedule(case, schedule)
    assert run.rows == ref.rows
    assert_nothing_held(run.db)
    if set(schedule.strategies) == {"all_dump"}:
        assert run.cpu == ref.cpu


@settings(SLOW, max_examples=examples(25))
@given(case=cases(), schedule=schedules)
@example(*CAP)
def test_one_row_requests(case, schedule):
    free = run_schedule(case, schedule)
    batch = Operator.next_batch
    with mock.patch.object(
        Operator, "next_batch", lambda op, max_rows: batch(op, min(max_rows, 1))
    ):
        one_row = run_schedule(case, schedule)
    assert one_row == free
    assert free.rows == reference(case).rows
    assert_nothing_held(one_row.db)


@settings(SLOW, max_examples=15)
@given(case=cases(), schedule=schedules, every=st.sampled_from([1, 64, 10**6]))
def test_traced(case, schedule, every):
    free = run_schedule(case, schedule)
    tracer = Tracer(next_sample_every=every)
    traced = run_schedule(case, schedule, tracer=tracer)
    assert traced == free
    assert free.rows == reference(case).rows
    assert_nothing_held(traced.db)
    kinds = {record["type"] for record in tracer.records}
    assert "op.stats" in kinds
    assert "op.next_batch" in kinds or not free.rows


@settings(SLOW, max_examples=examples(20))
@given(case=cases(), schedule=schedules)
def test_persisted(case, schedule):
    with tempfile.TemporaryDirectory() as root:
        store = ImageStore(root)

        def through_store(db, sq, hop, tracer):
            base = f"hop{hop - 1}" if hop else None
            store.save(sq, db.state_store, f"hop{hop}", base_image_id=base)
            loaded = store.load(f"hop{hop}")
            resumed = in_place(case.db(), loaded, hop, tracer)
            loaded.release()
            return resumed

        run = run_schedule(case, schedule, resume=through_store)
        if len(run.images) > 1:
            assert store.info("hop1").base_image_id == "hop0"
    assert run.rows == reference(case).rows
    assert run.lanes == run_schedule(case, schedule).lanes
    assert_nothing_held(run.db)


@settings(SLOW, max_examples=examples(15))
@given(case=cases(), schedule=schedules)
def test_token_hopped(case, schedule):
    ref = reference(case).rows
    quantum = max(schedule.stops[0][2], len(ref) // 4 + 1)
    with tempfile.TemporaryDirectory() as root:
        spec = SuspendSpec(
            schedule.strategies[0], schedule.budget, persist_to=root
        )
        config = ServeConfig(quantum_rows=quantum, suspend=spec)
        service = QueryService(case.db(), config)
        result = service.begin(NAME, case.plan)
        rows, clocks = list(result.rows), []
        while not result.done:
            # Read before the next continue collects the hop's image.
            hop = service.image_store.load(result.image_id)
            clocks.append(hop.query_clock)
            result = service.continue_query(result.token)
            rows += result.rows
    assert rows == ref
    assert_nothing_held(service.db)
    cut = Schedule(
        (("max_rows", 0, quantum),) * len(clocks),
        schedule.strategies[:1],
        schedule.budget,
    )
    in_place_clocks = []

    def noting_clock(db, sq, hop, tracer):
        in_place_clocks.append(sq.query_clock)
        return in_place(db, sq, hop, tracer)

    run_schedule(case, cut, resume=noting_clock)
    assert clocks == in_place_clocks


@settings(SLOW, max_examples=20)
@given(case=cases(siblings=2), schedule=schedules, chunk=st.integers(5, 60))
@example(  # the victim and its hash-join sibling share build tables
    case=Case(80, 50, 3, build_plan("shj", 0.6, 0, 7), (
        build_plan("shj", 0.3, 0, 7), build_plan("sfp", 0.6, 0, 0),
    )),
    schedule=Schedule((("max_rows", 0, 20), ("max_rows", 0, 9))),
    chunk=10,
)
def test_folded(case, schedule, chunk):
    check_folded(case, schedule, chunk)


def check_folded(case, schedule, chunk):
    """The folded mode: ``case.plan`` (the victim) runs ``schedule``
    folded with ``case.siblings``, each executing ``chunk`` rows a turn."""
    unfolded = run_schedule(case, schedule)
    db = case.db()
    manager = FoldManager(db)
    names = [NAME] + [f"q{i}" for i in range(1, len(case.siblings) + 1)]
    victim, *siblings = [
        QuerySession(db, plan, name=name, fold=manager.admit(name, plan))
        for name, plan in zip(names, (case.plan,) + case.siblings)
    ]
    sibling_rows = [[] for _ in siblings]

    def interleaved(victim, keywords):
        rows, target = [], keywords.pop("max_rows", None)
        while True:
            want = chunk if target is None else min(chunk, target - len(rows))
            rows += victim.execute(max_rows=want, **keywords).rows
            for got, sibling in zip(sibling_rows, siblings):
                if sibling.status is not QueryStatus.COMPLETED:
                    got += sibling.execute(max_rows=chunk).rows
            if victim.status is not QueryStatus.RUNNING or len(rows) == target:
                return rows

    def split(db, sq, hop, tracer):
        manager.note_split(NAME)
        return in_place(db, sq, hop, tracer)

    folded = run_schedule(
        case, schedule, resume=split, execute=interleaved, session=victim
    )
    assert (folded.rows, folded.lanes, folded.images) == (
        unfolded.rows, unfolded.lanes, unfolded.images,
    )
    for got, sibling, name, plan in zip(
        sibling_rows, siblings, names[1:], case.siblings
    ):
        if sibling.status is not QueryStatus.COMPLETED:
            got += sibling.execute().rows
        solo = QuerySession(case.db(), plan, name=name)
        assert got == solo.execute().rows
        assert lane_state(sibling) == lane_state(solo)
        sibling.close()
    assert_nothing_held(db)


@settings(SLOW, max_examples=15)
@given(
    case=cases(depth=1, ops=SHARDABLE),
    shards=st.integers(1, 4),
    quantum=st.sampled_from([2, 8, 32]),
    schedule=schedules,
)
@example(  # a shuffle keyed modulo 7 over 3 shards
    case=Case(60, 40, 5, build_plan("shj", 0.8, 0, 7)),
    shards=3,
    quantum=8,
    schedule=Schedule((("max_rows", 0, 1),)),
)
def test_sharded(case, shards, quantum, schedule):
    check_sharded(case, shards, quantum, schedule.stops[0][2])


def check_sharded(case, shards, quantum, cut):
    """The sharded mode; with two passes or more, a cut after pass
    ``1 + cut % (passes - 1)``. Returns the uncut delivery."""

    def coordinator():
        return ShardCoordinator(
            case.db(), case.plan, num_shards=shards, quantum_rows=quantum
        )

    uncut, passes = coordinator(), 0
    while not uncut.done:
        uncut.run_pass()
        passes += 1
    full = list(uncut.output_rows)
    assert sorted(full) == sorted(reference(case).rows)
    for worker in uncut.workers:
        assert_nothing_held(worker.db)
    if passes < 2:
        return full

    def cut_at(boundary, root):
        """Rows delivered before the cut, and what it committed (every
        section's SHA-256 is in its image's manifest)."""
        coord = coordinator()
        for _ in range(boundary):
            coord.run_pass()
        before = list(coord.output_rows)
        coord.suspend_global(root, gid="cut")
        for worker in coord.workers:
            assert_nothing_held(worker.db)
        store = ImageStore(root)
        return before, [
            {**store.manifest(info.image_id), "created_ns": 0}
            for info in store.list_images()
        ]

    boundary = 1 + cut % (passes - 1)
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        before, committed = cut_at(boundary, a)
        assert cut_at(boundary, b) == (before, committed)  # deterministic
        resumed = ShardCoordinator.resume(case.db(), a, "cut")
        assert before + resumed.run() == full
        for worker in resumed.workers:
            assert_nothing_held(worker.db)
    return full
