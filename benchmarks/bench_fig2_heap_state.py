"""Figure 2: heap state vs time for the two NLJs of the running example.

Reproduces the sawtooth of the paper's Figure 2: the child NLJ's outer
buffer fills and plateaus while it produces joins; the parent NLJ's buffer
fills from the child's output; each drop to zero is a minimal-heap-state
point where the operator checkpoints proactively.
"""

import pytest

from repro import Database, QuerySession, QueryStatus, SuspendTrigger
from repro.engine.plan import NLJSpec, ScanSpec
from repro.harness.report import format_table
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import EquiJoinCondition

from benchmarks.conftest import once, record_result


def running_example():
    """R |x| S |x| T with two block NLJs (the paper's Figure 1)."""
    db = Database()
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(600, seed=1))
    db.create_table("S", BASE_SCHEMA, generate_uniform_table(150, seed=2))
    db.create_table("T", BASE_SCHEMA, generate_uniform_table(150, seed=3))
    plan = NLJSpec(
        outer=NLJSpec(
            outer=ScanSpec("R", label="scan_R"),
            inner=ScanSpec("S", label="scan_S"),
            condition=EquiJoinCondition(0, 0, modulus=25),
            buffer_tuples=200,
            label="nlj1",
        ),
        inner=ScanSpec("T", label="scan_T"),
        condition=EquiJoinCondition(0, 0, modulus=25),
        buffer_tuples=300,
        label="nlj0",
    )
    return db, plan


def sample_on(scan, every):
    """Run the example, sampling both buffers each time ``scan`` has
    produced ``every`` more rows — by re-arming a trigger on it."""
    db, plan = running_example()
    session = QuerySession(db, plan)
    samples = []
    produced = every
    while True:
        session.execute(
            suspend_when=SuspendTrigger(scan, "emitted", produced),
            collect=False,
        )
        if session.status is QueryStatus.COMPLETED:
            return samples, session
        samples.append(
            {
                "time": round(db.now, 1),
                "nlj0_heap": session.op_named("nlj0").heap_tuples(),
                "nlj1_heap": session.op_named("nlj1").heap_tuples(),
            }
        )
        produced += every


def trace_heap_state():
    """One clock per phase: the scan of R moves while the child NLJ
    fills, the scan of S while it joins (and the parent fills), the scan
    of T while the parent joins. Runs are deterministic, so the three
    sampled runs merge into one timeline."""
    samples = []
    for scan, every in (("scan_R", 40), ("scan_S", 25), ("scan_T", 50)):
        sampled, session = sample_on(scan, every)
        samples.extend(sampled)
    samples.sort(key=lambda sample: sample["time"])
    graph = session.runtime.graph
    ckpts = {
        name: graph.latest_checkpoint(session.op_named(name).op_id).seq
        for name in ("nlj0", "nlj1")
    }
    return samples, ckpts


def test_fig2_sawtooth(benchmark):
    samples, ckpts = once(benchmark, trace_heap_state)
    text = format_table(
        samples[:60],
        title=(
            "Figure 2 - heap state vs virtual time for two NLJs "
            "(sampled; sawtooth = fills, plateaus, drops to zero)"
        ),
    )
    text += (
        f"\nproactive checkpoints taken: nlj0={ckpts['nlj0']}, "
        f"nlj1={ckpts['nlj1']} (one per minimal-heap-state point)"
    )
    record_result("fig2_heap_state", text)

    nlj1_values = [s["nlj1_heap"] for s in samples]
    # The child NLJ's heap rises to its buffer size and falls back (the
    # instantaneous zero between passes may land between samples; any
    # decrease proves a minimal-heap-state crossing).
    assert max(nlj1_values) == 200
    drops = sum(1 for a, b in zip(nlj1_values, nlj1_values[1:]) if b < a)
    assert drops >= 1
    # Each pass boundary produced a proactive checkpoint.
    assert ckpts["nlj1"] >= 2
