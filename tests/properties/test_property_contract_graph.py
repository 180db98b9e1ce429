"""Properties of contract-graph maintenance (Theorem 1, prune fixpoint)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QuerySession
from repro.core.checkpoint import Checkpoint, Contract
from repro.core.contract_graph import ContractGraph

from tests.conftest import make_small_db
from tests.properties.plans import build_db, build_plan

FAST = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@FAST
@given(
    kind=st.sampled_from(["nlj", "smj", "nlj_over_sort"]),
    seed=st.integers(0, 10_000),
    buffer_tuples=st.integers(5, 40),
    point=st.integers(1, 300),
)
def test_theorem1_bound_at_random_execution_points(
    kind, seed, buffer_tuples, point
):
    plan = build_plan(kind, 0.8, buffer_tuples, 15)
    db = build_db(130, 70, seed)
    session = QuerySession(db, plan)
    session.execute(max_rows=point)
    graph = session.runtime.graph
    graph.check_theorem1_bound(
        num_operators=len(session.runtime.ops),
        height=session.runtime.plan_height(),
    )


@FAST
@given(
    kind=st.sampled_from(["nlj", "smj"]),
    seed=st.integers(0, 10_000),
    point=st.integers(1, 200),
)
def test_prune_is_idempotent_and_preserves_latest(kind, seed, point):
    plan = build_plan(kind, 0.7, 20, 15)
    db = build_db(100, 60, seed)
    session = QuerySession(db, plan)
    session.execute(max_rows=point)
    graph = session.runtime.graph
    latest_before = {
        op_id: graph.latest_checkpoint(op_id).ckpt_id
        for op_id in session.runtime.ops
        if graph.latest_checkpoint(op_id) is not None
    }
    graph.prune()
    assert graph.prune() == 0  # fixpoint
    for op_id, ckpt_id in latest_before.items():
        assert graph.latest_checkpoint(op_id).ckpt_id == ckpt_id


@FAST
@given(
    num_ops=st.integers(2, 6),
    events=st.lists(st.integers(0, 5), min_size=1, max_size=40),
)
def test_synthetic_chain_graph_stays_bounded(num_ops, events):
    """Simulate a chain of operators checkpointing in random order; after
    pruning, the live graph respects the O(nh) bound."""
    graph = ContractGraph()
    latest = {}
    for op_id in reversed(range(num_ops)):  # leaves first
        ck = Checkpoint(
            op_id=op_id,
            seq=graph.next_seq(op_id),
            payload={},
            work_at=0.0,
            emitted_at=0,
        )
        graph.add_checkpoint(ck)
        latest[op_id] = ck
        if op_id + 1 < num_ops:
            graph.add_contract(
                Contract(
                    parent_op_id=op_id,
                    child_op_id=op_id + 1,
                    control={},
                    child_ckpt_id=latest[op_id + 1].ckpt_id,
                    anchor_ckpt_id=ck.ckpt_id,
                )
            )
    for event in events:
        op_id = event % num_ops
        ck = Checkpoint(
            op_id=op_id,
            seq=graph.next_seq(op_id),
            payload={},
            work_at=0.0,
            emitted_at=0,
        )
        graph.add_checkpoint(ck)
        latest[op_id] = ck
        if op_id + 1 < num_ops:
            graph.add_contract(
                Contract(
                    parent_op_id=op_id,
                    child_op_id=op_id + 1,
                    control={},
                    child_ckpt_id=latest[op_id + 1].ckpt_id,
                    anchor_ckpt_id=ck.ckpt_id,
                )
            )
        graph.prune()
        graph.check_theorem1_bound(num_operators=num_ops, height=num_ops)
