"""Engine-level folding: per-query determinism under shared-work drains.

The invariants come straight from the fold contract: a folded member's
output rows, as-if-solo lane clock, lane counters, and serialized
suspend image are byte-identical to an unfolded run of the same query —
only the *global* disk traffic changes. Fold split on suspend is the
same property applied mid-flight.
"""

from repro import Database, QuerySession, SuspendSpec
from repro.core.lifecycle import QueryStatus
from repro.durability.codec2 import encode_suspended_query
from repro.engine.plan import (
    FilterSpec,
    HybridHashJoinSpec,
    ProjectSpec,
    ScanSpec,
    SimpleHashJoinSpec,
)
from repro.fold.manager import FoldManager
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import EquiJoinCondition, UniformSelect


def build_db(r_size=300, s_size=200):
    db = Database()
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(r_size, seed=1))
    db.create_table("S", BASE_SCHEMA, generate_uniform_table(s_size, seed=2))
    return db


def filter_plan(selectivity):
    return ProjectSpec(
        FilterSpec(ScanSpec("R"), UniformSelect(1, selectivity)),
        columns=(0, 2),
    )


def shj_plan(selectivity, hybrid=False):
    kwargs = {"memory_partitions": 2} if hybrid else {}
    cls = HybridHashJoinSpec if hybrid else SimpleHashJoinSpec
    return cls(
        build=ScanSpec("S"),
        probe=FilterSpec(ScanSpec("R"), UniformSelect(1, selectivity)),
        condition=EquiJoinCondition(0, 0, modulus=40),
        num_partitions=4,
        **kwargs,
    )


def lane_state(session):
    lane = session.runtime.lane
    return (repr(lane.now), lane.counters.snapshot())


def run_solo(plan, name):
    """One query alone on a fresh db: rows + lane fingerprint."""
    db = build_db()
    session = QuerySession(db, plan, name=name)
    rows = session.execute().rows
    return rows, lane_state(session), db.disk.counters.pages_read


def run_folded(plans, chunk=25):
    """All plans interleaved on one db under a FoldManager."""
    db = build_db()
    manager = FoldManager(db)
    sessions = []
    for i, plan in enumerate(plans):
        name = f"q{i}"
        binding = manager.admit(name, plan)
        assert binding is not None
        sessions.append(QuerySession(db, plan, name=name, fold=binding))
    rows = [[] for _ in sessions]
    live = list(range(len(sessions)))
    while live:
        for i in list(live):
            rows[i].extend(sessions[i].execute(max_rows=chunk).rows)
            if sessions[i].status is QueryStatus.COMPLETED:
                live.remove(i)
    lanes = [lane_state(s) for s in sessions]
    return rows, lanes, db.disk.counters.pages_read, manager


class TestSharedScanEquivalence:
    def test_folded_pair_matches_solo(self):
        plans = [filter_plan(0.5), filter_plan(0.3)]
        solo = [run_solo(p, f"q{i}") for i, p in enumerate(plans)]
        rows, lanes, pages, manager = run_folded(plans)
        for i in range(len(plans)):
            assert rows[i] == solo[i][0]
            assert lanes[i] == solo[i][1]
        # Shared drain: global reads well under the sum of solo runs.
        assert pages < sum(s[2] for s in solo)
        assert manager.stats.pages_absorbed > 0
        assert manager.stats.grafted == 2

    def test_identical_triple_reads_table_once(self):
        plans = [filter_plan(0.5) for _ in range(3)]
        solo_pages = run_solo(plans[0], "q0")[2]
        rows, lanes, pages, _ = run_folded(plans)
        assert rows[0] == rows[1] == rows[2]
        assert lanes[0] == lanes[1] == lanes[2]
        # Three grafted members cost (about) one solo drain, not three.
        assert pages <= solo_pages + 1

    def test_bytes_saved_reported(self):
        plans = [filter_plan(0.5), filter_plan(0.5)]
        _, _, _, manager = run_folded(plans)
        assert manager.bytes_saved() > 0


class TestFoldSplitOnSuspend:
    def run_solo_suspend(self, plan, point):
        db = build_db()
        session = QuerySession(db, plan, name="victim")
        first = session.execute(max_rows=point)
        sq = session.suspend(SuspendSpec(strategy="all_dump"))
        return first.rows, encode_suspended_query(sq)

    def run_folded_suspend(self, plan, sibling_plan, point, chunk=10):
        db = build_db()
        manager = FoldManager(db)
        victim = QuerySession(
            db, plan, name="victim", fold=manager.admit("victim", plan)
        )
        sibling = QuerySession(
            db,
            sibling_plan,
            name="sibling",
            fold=manager.admit("sibling", sibling_plan),
        )
        assert manager.is_grafted("victim")
        first = []
        while len(first) < point:
            first.extend(
                victim.execute(max_rows=min(chunk, point - len(first))).rows
            )
            sibling.execute(max_rows=chunk)
        sq = victim.suspend(SuspendSpec(strategy="all_dump"))
        manager.note_split("victim")
        return first, encode_suspended_query(sq), db, sibling, manager

    def test_victim_image_byte_identical_to_unfolded(self):
        plan = filter_plan(0.5)
        ref_rows, ref_image = self.run_solo_suspend(plan, 20)
        rows, image, db, sibling, manager = self.run_folded_suspend(
            plan, filter_plan(0.5), 20
        )
        assert rows == ref_rows
        assert image == ref_image
        assert manager.stats.splits == 1
        assert not manager.is_grafted("victim")
        assert manager.is_grafted("sibling")

    def test_victim_resumes_unfolded_and_completes(self):
        plan = filter_plan(0.5)
        solo_rows = run_solo(plan, "victim")[0]
        rows, image, db, sibling, manager = self.run_folded_suspend(
            plan, filter_plan(0.3), 20
        )
        from repro.durability.codec2 import decode_suspended_query

        resumed = QuerySession.resume(
            db, decode_suspended_query(image), name="victim"
        )
        rows = rows + resumed.execute().rows
        rest = sibling.execute().rows
        assert rows == solo_rows
        assert sibling.status is QueryStatus.COMPLETED


class TestSharedBuildEquivalence:
    def check(self, hybrid):
        plans = [shj_plan(0.4, hybrid), shj_plan(0.8, hybrid)]
        solo = [run_solo(p, f"q{i}") for i, p in enumerate(plans)]
        rows, lanes, pages, manager = run_folded(plans)
        for i in range(len(plans)):
            assert rows[i] == solo[i][0]
            assert lanes[i] == solo[i][1]
        assert manager.stats.build_hits > 0
        assert pages < sum(s[2] for s in solo)

    def test_simple_hash_join_shares_build_tables(self):
        self.check(hybrid=False)

    def test_hybrid_hash_join_shares_build_tables(self):
        self.check(hybrid=True)

    def test_different_build_sides_do_not_share(self):
        a = shj_plan(0.4)
        b = SimpleHashJoinSpec(
            build=FilterSpec(ScanSpec("S"), UniformSelect(1, 0.5)),
            probe=FilterSpec(ScanSpec("R"), UniformSelect(1, 0.4)),
            condition=EquiJoinCondition(0, 0, modulus=40),
            num_partitions=4,
        )
        solo = [run_solo(p, f"q{i}") for i, p in enumerate([a, b])]
        rows, lanes, _, manager = run_folded([a, b])
        assert rows[0] == solo[0][0] and rows[1] == solo[1][0]
        assert lanes[0] == solo[0][1] and lanes[1] == solo[1][1]
        assert manager.stats.build_hits == 0
