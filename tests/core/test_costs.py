"""Unit tests for the suspend-time cost model (chain links, c_{i,j})."""

import pytest

from repro import QuerySession, SuspendTrigger
from repro.core.costs import build_cost_model

from tests.conftest import make_small_db, tiny_nlj_plan, tiny_smj_plan


class TestChainLinks:
    def test_anchor_link_targets_latest_checkpoint(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        session.execute(max_rows=30)
        model = build_cost_model(session.runtime)
        nlj = session.op_named("nlj").op_id
        link = model.links[(nlj, nlj)]
        latest = session.runtime.graph.latest_checkpoint(nlj)
        assert link.fulfilling_ckpt_id == latest.ckpt_id

    def test_stream_child_gets_fresh_link_under_own_anchor(self):
        """Block NLJ's inner scan keeps its current position when the NLJ
        goes back to its own checkpoint — a zero-cost 'fresh' link."""
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan())
        session.execute(max_rows=30)
        model = build_cost_model(session.runtime)
        nlj = session.op_named("nlj").op_id
        inner = session.op_named("scan_S").op_id
        link = model.links[(inner, nlj)]
        assert link.fresh
        assert model.g_r[(inner, nlj)] <= 1.0  # reposition only

    def test_heap_child_redo_grows_with_scan_progress(self):
        """The scan's g^r is its exact redo: pages between the contract
        position and now — the 'online statistics' the paper leans on."""
        redos = []
        for fill in (30, 120):
            db = make_small_db()
            session = QuerySession(
                db, tiny_nlj_plan(selectivity=1.0, buffer_tuples=150)
            )
            session.execute(
                suspend_when=SuspendTrigger("nlj", "fill", fill)
            )
            model = build_cost_model(session.runtime)
            scan = session.op_named("scan_R").op_id
            nlj = session.op_named("nlj").op_id
            redos.append(model.g_r[(scan, nlj)])
        assert redos[1] > redos[0]

    def test_dump_cost_tracks_heap_pages(self):
        db = make_small_db()
        session = QuerySession(db, tiny_nlj_plan(selectivity=1.0, buffer_tuples=250))
        session.execute(
            suspend_when=SuspendTrigger("nlj", "fill", 250)
        )
        model = build_cost_model(session.runtime)
        nlj = session.op_named("nlj")
        write_cost = db.cost_model.page_write_cost
        assert model.d_s[nlj.op_id] >= nlj.heap_pages() * write_cost

    def test_cannot_dump_set_when_checkpoint_advanced(self):
        """Run long enough for the NLJ to checkpoint past the root-anchored
        contract: c_{i,j} must then force GoBack."""
        db = make_small_db()
        plan = tiny_smj_plan()
        session = QuerySession(db, plan)
        session.execute(max_rows=80)
        model = build_cost_model(session.runtime)
        mj = session.op_named("mj").op_id
        sort_r = session.op_named("sort_R").op_id
        link = model.links.get((sort_r, mj))
        if link is not None:
            latest = session.runtime.graph.latest_checkpoint(sort_r)
            fulfilling = session.runtime.graph.checkpoint(
                link.fulfilling_ckpt_id
            )
            expected = latest.seq > fulfilling.seq
            assert ((sort_r, mj) in model.cannot_dump_under) == expected

    def test_topology_reflects_plan(self):
        db = make_small_db()
        session = QuerySession(db, tiny_smj_plan())
        session.execute(max_rows=5)
        model = build_cost_model(session.runtime)
        topo = model.topology()
        assert topo.root_id() == session.root.op_id
        assert topo.height() == 4
