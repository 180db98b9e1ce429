"""Query migration to a replica DBMS (the paper's Grid scenario).

A suspended query travels as a durable image: ``ImageStore.save`` on the
source, ``load`` and ``QuerySession.resume`` on the target database.
"""

import pytest

from repro import ImageStore, QuerySession, SuspendSpec, SuspendTrigger
from repro.workloads import build_complex_plan, build_smj_s

from tests.conftest import resume_to_end


def ship(sq, db, root):
    """Commit ``sq`` as an image under ``root`` and load it back: what
    the receiving side holds."""
    store = ImageStore(str(root))
    store.save(sq, db.state_store, image_id="shipped")
    return store.load("shipped")


class TestComplexPlanMigration:
    """The 10-operator plan carries disk-resident state (sort sublists,
    dumped buffers) that must travel inside the image."""

    @pytest.mark.parametrize("strategy", ["all_dump", "lp"])
    def test_migrate_complex_plan(self, strategy, tmp_path):
        db, plan = build_complex_plan(scale=400)
        ref = QuerySession(*build_complex_plan(scale=400)).execute().rows

        session = QuerySession(db, plan)
        first = session.execute(
            suspend_when=SuspendTrigger("nlj0", "fill", 400)
        )
        sq = session.suspend(SuspendSpec(strategy=strategy))
        shipped = ship(sq, db, tmp_path)

        replica = db.replicate()
        resumed = QuerySession.resume(replica, shipped)
        assert first.rows + resumed.execute().rows == ref

    def test_migration_charges_as_in_place(self, tmp_path):
        db, plan = build_smj_s(selectivity=0.5, scale=400)
        session = QuerySession(db, plan)
        session.execute(max_rows=50)
        sq = session.suspend(SuspendSpec(strategy="all_dump"))
        shipped = ship(sq, db, tmp_path)

        replica = db.replicate()
        # Sublists and dumps are read back on the replica exactly as they
        # would be in place; the transfer itself is not a page write.
        assert resume_to_end(replica, shipped) == resume_to_end(db, sq)

    def test_resume_in_place_still_works_after_export(self, tmp_path):
        """Committing an image must not break local resume."""
        db, plan = build_smj_s(selectivity=0.5, scale=400)
        ref = QuerySession(*build_smj_s(selectivity=0.5, scale=400)).execute().rows
        session = QuerySession(db, plan)
        first = session.execute(max_rows=40)
        sq = session.suspend(SuspendSpec(strategy="lp"))
        ship(sq, db, tmp_path)
        resumed = QuerySession.resume(db, sq)
        assert first.rows + resumed.execute().rows == ref
