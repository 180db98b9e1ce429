"""Ablations: quantify the design choices DESIGN.md calls out.

Not figures from the paper, but direct tests of its design claims:

1. *Contract migration is crucial for sort* (Section 4): with migration
   disabled, a parent's contract stays pinned to the sort's phase-1
   start, so a GoBack during the merge phase redoes the whole build
   instead of repositioning cursors.
2. *Proactive checkpointing bounds GoBack cost*: with only the initial
   checkpoints (no minimal-heap-state checkpoints), GoBack redo grows
   with execution progress instead of staying bounded by one buffer
   refill.
3. *The Figure 8 crossover tracks the write/read cost ratio*: the
   all-DumpState/all-GoBack crossover selectivity is r/(w+r) up to CPU
   noise, so doubling the write cost moves it left.
"""

import pytest

from repro import SuspendTrigger
from repro.engine.config import EngineConfig
from repro.harness.experiments import (
    measure_suspend_overhead,
)
from repro.harness.report import format_table
from repro.storage.disk import IOCostModel
from repro.workloads import build_nlj_s, build_smj_s

from benchmarks.conftest import once, record_result

SCALE = 200


def ablate_contract_migration():
    rows = []
    factory = lambda: build_smj_s(selectivity=0.5, scale=SCALE)
    # Suspend right after the merge join's first output tuple: the only
    # contract the sorts hold was signed at query start (the merge join
    # has not reached a packet boundary yet). Migration re-pointed it to
    # the sorts' phase-boundary checkpoints as the build progressed;
    # without migration it still targets the empty initial checkpoint.
    trigger = SuspendTrigger("mj", "emitted", 1)
    for migration in (True, False):
        config = EngineConfig(contract_migration=migration)
        r = measure_suspend_overhead(
            factory, trigger, "all_goback", config=config
        )
        rows.append(
            {
                "contract_migration": "on" if migration else "off",
                "total_overhead": round(r.total_overhead, 1),
                "resume_cost": round(r.resume_cost, 1),
            }
        )
    return rows


def ablate_proactive_checkpointing():
    rows = []
    factory = lambda: build_nlj_s(selectivity=0.9, scale=SCALE)
    _, plan = factory()
    # Suspend during the third buffer fill: with proactive checkpointing
    # the fulfilling checkpoint is the last pass boundary; without it,
    # GoBack falls back to the initial checkpoint.
    trigger = SuspendTrigger("scan_R", "emitted", int(2.5 * plan.buffer_tuples / 0.9))
    for proactive in (True, False):
        config = EngineConfig(proactive_checkpointing=proactive)
        r = measure_suspend_overhead(
            factory, trigger, "all_goback", config=config
        )
        rows.append(
            {
                "proactive_checkpoints": "on" if proactive else "off",
                "total_overhead": round(r.total_overhead, 1),
                "resume_cost": round(r.resume_cost, 1),
            }
        )
    return rows


def crossover_for_ratio(write_cost):
    """Lowest swept selectivity where all-GoBack beats all-DumpState."""
    cost_model = IOCostModel(page_write_cost=write_cost)
    for sel in (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.7, 0.9):
        def factory():
            db, plan = build_nlj_s(selectivity=sel, scale=SCALE)
            db.cost_model.page_write_cost = write_cost
            return db, plan

        # Rebuild with the custom cost model (build_nlj_s constructs the
        # default Database; patch the write cost before any charging).
        _, plan = build_nlj_s(selectivity=sel, scale=SCALE)
        trigger = SuspendTrigger("nlj", "fill", plan.buffer_tuples // 2)
        dump = measure_suspend_overhead(factory, trigger, "all_dump")
        goback = measure_suspend_overhead(factory, trigger, "all_goback")
        if goback.total_overhead <= dump.total_overhead:
            return sel
    return 1.0


def ablate_cost_ratio():
    rows = []
    for write_cost in (1.5, 2.5, 5.0):
        crossover = crossover_for_ratio(write_cost)
        rows.append(
            {
                "write/read_ratio": write_cost,
                "predicted_r/(w+r)": round(1 / (1 + write_cost), 3),
                "measured_crossover_sel": crossover,
            }
        )
    return rows


def test_ablation_contract_migration(benchmark):
    rows = once(benchmark, ablate_contract_migration)
    text = format_table(
        rows,
        title=(
            "Ablation - contract migration (all-GoBack suspend right "
            "after the merge join's first output)"
        ),
    )
    record_result("ablation_contract_migration", text)
    on = next(r for r in rows if r["contract_migration"] == "on")
    off = next(r for r in rows if r["contract_migration"] == "off")
    # Without migration the whole build is redone: far costlier resume.
    assert off["total_overhead"] > on["total_overhead"] * 2


def test_ablation_proactive_checkpointing(benchmark):
    rows = once(benchmark, ablate_proactive_checkpointing)
    text = format_table(
        rows,
        title=(
            "Ablation - proactive checkpointing (all-GoBack suspend in "
            "the third NLJ pass)"
        ),
    )
    record_result("ablation_proactive_checkpointing", text)
    on = next(r for r in rows if r["proactive_checkpoints"] == "on")
    off = next(r for r in rows if r["proactive_checkpoints"] == "off")
    assert off["total_overhead"] > on["total_overhead"] * 1.5


def test_ablation_cost_ratio(benchmark):
    rows = once(benchmark, ablate_cost_ratio)
    text = format_table(
        rows,
        title=(
            "Ablation - Figure 8 crossover selectivity vs write/read "
            "cost ratio"
        ),
    )
    record_result("ablation_cost_ratio", text)
    crossovers = [r["measured_crossover_sel"] for r in rows]
    # Higher write cost makes dumping less attractive: crossover moves
    # left (GoBack wins earlier)... note w appears in DumpState's cost, so
    # larger w lowers r/(w+r) and the measured crossover must not rise.
    assert crossovers == sorted(crossovers, reverse=True)
    # Each measured crossover sits near (at or above, due to the CPU
    # charge) the predicted r/(w+r).
    for r in rows:
        assert r["measured_crossover_sel"] >= r["predicted_r/(w+r)"] - 0.05
        assert r["measured_crossover_sel"] <= r["predicted_r/(w+r)"] + 0.25
