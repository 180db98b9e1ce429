"""Simulated-disk cost parity: an image changes no charge, either way.

The image is the durable form of bytes the simulation already charged
for — dump pages at dump time, the control record at suspend time — so
``suspend(persist_to=...)`` must produce byte-for-byte identical
IOCounters to a plain ``suspend()``, and a resume from the image must
charge what a resume in place of the same SuspendedQuery charges: it
reads the dumped pages back, and writes nothing.
"""

import dataclasses

import pytest

from repro.core.lifecycle import QuerySession
from repro.durability import ImageStore, build_recipe
from repro.core.lifecycle import SuspendSpec

from tests.conftest import resume_to_end

# Rows to emit before suspending — hashagg only produces 16 groups.
SHAPES = {"sort": 60, "hashjoin": 60, "hashagg": 6}


def run_suspend(recipe, rows, persist_to=None):
    db, plan = build_recipe(recipe)
    session = QuerySession(db, plan)
    session.execute(max_rows=rows)
    before = db.disk.counters.snapshot()
    session.suspend(SuspendSpec(persist_to=persist_to))
    delta = db.disk.counters.minus(before)
    return session, delta


class TestPersistParity:
    @pytest.mark.parametrize("recipe", sorted(SHAPES))
    def test_persisting_charges_same_io_as_plain_suspend(
        self, recipe, tmp_path
    ):
        rows = SHAPES[recipe]
        _, plain = run_suspend(recipe, rows=rows)
        session, persisted = run_suspend(
            recipe, rows=rows, persist_to=str(tmp_path)
        )
        assert session.last_image is not None
        assert dataclasses.asdict(persisted) == dataclasses.asdict(plain)

    def test_virtual_clock_parity(self, tmp_path):
        plain_session, _ = run_suspend("sort", rows=60)
        persist_session, _ = run_suspend(
            "sort", rows=60, persist_to=str(tmp_path)
        )
        assert persist_session.last_suspend_cost == pytest.approx(
            plain_session.last_suspend_cost
        )


class TestImportCharges:
    @pytest.mark.parametrize("recipe", sorted(SHAPES))
    def test_image_resume_charges_as_in_place(self, recipe, tmp_path):
        db, plan = build_recipe(recipe)
        session = QuerySession(db, plan)
        session.execute(max_rows=SHAPES[recipe])
        sq = session.suspend(SuspendSpec(persist_to=str(tmp_path)))
        info = session.last_image
        assert info.blob_pages > 0

        in_place = resume_to_end(db, sq)
        fresh_db, _ = build_recipe(recipe)
        loaded = ImageStore(str(tmp_path)).load(info.image_id)
        # The image's sections are the dumped pages: a resume reads them
        # back wherever it runs, and writes nothing.
        assert resume_to_end(fresh_db, loaded) == in_place
        assert in_place[1].pages_written == 0

    def test_in_process_resume_pays_no_import(self):
        db, plan = build_recipe("sort")
        session = QuerySession(db, plan)
        session.execute(max_rows=120)
        sq = session.suspend()
        before = db.disk.counters.snapshot()
        QuerySession.resume(db, sq)
        delta = db.disk.counters.minus(before)
        assert delta.pages_written == 0
