"""Query migration to a replica DBMS (the paper's Grid scenario)."""

import pickle

import pytest

from repro import QuerySession, SuspendSpec, SuspendTrigger
from repro.workloads import build_complex_plan, build_smj_s


class TestComplexPlanMigration:
    """The 10-operator plan carries disk-resident state (sort sublists,
    dumped buffers) that must travel inside the SuspendedQuery."""

    @pytest.mark.parametrize("strategy", ["all_dump", "lp"])
    def test_migrate_complex_plan(self, strategy):
        db, plan = build_complex_plan(scale=400)
        ref = QuerySession(*build_complex_plan(scale=400)).execute().rows

        session = QuerySession(db, plan)
        first = session.execute(
            suspend_when=SuspendTrigger("nlj0", "fill", 400)
        )
        sq = session.suspend(SuspendSpec(strategy=strategy))
        sq.export_payloads(db.state_store)
        wire = pickle.dumps(sq)

        replica = db.replicate()
        shipped = pickle.loads(wire)
        resumed = QuerySession.resume(replica, shipped)
        assert first.rows + resumed.execute().rows == ref

    def test_migration_charges_receiving_side(self):
        db, plan = build_smj_s(selectivity=0.5, scale=400)
        session = QuerySession(db, plan)
        session.execute(max_rows=50)
        sq = session.suspend(SuspendSpec(strategy="all_dump"))
        sq.export_payloads(db.state_store)

        replica = db.replicate()
        before = replica.disk.counters.pages_written
        QuerySession.resume(replica, pickle.loads(pickle.dumps(sq)))
        # Re-homing sublists + dumps writes pages on the replica.
        assert replica.disk.counters.pages_written > before

    def test_resume_in_place_still_works_after_export(self):
        """Exporting payloads must not break local resume."""
        db, plan = build_smj_s(selectivity=0.5, scale=400)
        ref = QuerySession(*build_smj_s(selectivity=0.5, scale=400)).execute().rows
        session = QuerySession(db, plan)
        first = session.execute(max_rows=40)
        sq = session.suspend(SuspendSpec(strategy="lp"))
        sq.export_payloads(db.state_store)
        resumed = QuerySession.resume(db, sq)
        assert first.rows + resumed.execute().rows == ref
