"""Builders for the paper's query plans.

Each builder returns ``(db, plan_spec)`` — a freshly populated database
and the plan to run on it. Operator labels are stable so experiments can
address them (e.g. ``rt.op_named("nlj")``).

Paper parameters (Section 6.1/6.2), divided by ``scale``:

- NLJ_S (Figure 6): block NLJ over filter(scan R) with scan T inner;
  R has 2.2M tuples, the outer buffer holds 200,000.
- SMJ_S (Figure 7): merge join of sort(filter(scan R)) and sort(scan T);
  sort buffers hold 200,000 tuples.
- Figure 12 variant: R has ~3M tuples with skewed selectivity
  (0.1 for the first two-thirds, 0.9 after; effective ~0.385).
- Complex plan (Figure 11): 10 operators mixing NLJs, a merge join,
  sorts, a filter, and scans; R has 2.2M tuples, filter selectivity 0.1,
  NLJ/sort buffers 200,000.
- Left-deep NLJ plans (Figure 14 / Table 2): chains of block NLJs with
  scans at the leaves.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

from repro.core.lifecycle import QuerySession, QueryStatus
from repro.engine.plan import (
    FilterSpec,
    MergeJoinSpec,
    NLJSpec,
    PlanSpec,
    ScanSpec,
    SortSpec,
)
from repro.obs.tracer import NULL_TRACER, use_tracer
from repro.service.trace import ArrivalTrace, Workload
from repro.relational.datagen import (
    BASE_SCHEMA,
    FIGURE12_SKEW,
    SKEW_THRESHOLD,
    generate_skewed_table,
    generate_uniform_table,
)
from repro.relational.expressions import (
    ColumnCompare,
    EquiJoinCondition,
    UniformSelect,
)
from repro.storage.database import Database

#: Paper-scale constants (before division by ``scale``).
PAPER_R_TUPLES = 2_200_000
PAPER_SKEWED_R_TUPLES = 3_000_000
PAPER_BUFFER_TUPLES = 200_000
PAPER_INNER_TUPLES = 220_000


def _scaled(value: int, scale: int) -> int:
    return max(1, value // scale)


def build_nlj_s(
    selectivity: float,
    scale: int = 100,
    seed: int = 7,
    inner_tuples: Optional[int] = None,
) -> tuple[Database, PlanSpec]:
    """The NLJ_S plan of Figure 6 at 1/scale of the paper's size."""
    db = Database()
    r_n = _scaled(PAPER_R_TUPLES, scale)
    t_n = _scaled(
        inner_tuples if inner_tuples is not None else PAPER_INNER_TUPLES, scale
    )
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(r_n, seed=seed))
    db.create_table("T", BASE_SCHEMA, generate_uniform_table(t_n, seed=seed + 1))
    db.catalog.set_predicate_selectivity("R", "uniform", selectivity)
    plan = NLJSpec(
        outer=FilterSpec(
            ScanSpec("R", label="scan_R"),
            UniformSelect(1, selectivity),
            label="filter",
        ),
        inner=ScanSpec("T", label="scan_T"),
        condition=EquiJoinCondition(0, 0, modulus=1000),
        buffer_tuples=_scaled(PAPER_BUFFER_TUPLES, scale),
        label="nlj",
    )
    return db, plan


def build_smj_s(
    selectivity: float, scale: int = 100, seed: int = 11
) -> tuple[Database, PlanSpec]:
    """The SMJ_S plan of Figure 7 at 1/scale of the paper's size."""
    db = Database()
    r_n = _scaled(PAPER_R_TUPLES, scale)
    t_n = _scaled(PAPER_R_TUPLES, scale)
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(r_n, seed=seed))
    db.create_table("T", BASE_SCHEMA, generate_uniform_table(t_n, seed=seed + 1))
    db.catalog.set_predicate_selectivity("R", "uniform", selectivity)
    buffer = _scaled(PAPER_BUFFER_TUPLES, scale)
    plan = MergeJoinSpec(
        left=SortSpec(
            FilterSpec(
                ScanSpec("R", label="scan_R"),
                UniformSelect(1, selectivity),
                label="filter",
            ),
            key_columns=(0,),
            buffer_tuples=buffer,
            label="sort_R",
        ),
        right=SortSpec(
            ScanSpec("T", label="scan_T"),
            key_columns=(0,),
            buffer_tuples=buffer,
            label="sort_T",
        ),
        condition=EquiJoinCondition(0, 0),
        label="mj",
    )
    return db, plan


def build_skewed_nlj_s(
    scale: int = 100, seed: int = 13
) -> tuple[Database, PlanSpec]:
    """The Figure 12 setup: NLJ_S over the skewed 3M-tuple table.

    The filter keeps rows with ``u < 0.5``; the generator arranges ``u``
    so the first two-thirds of the table pass at rate 0.1 and the rest at
    0.9. The catalog records only the table-level effective selectivity,
    which is all the static optimizer gets to see.
    """
    db = Database()
    r_n = _scaled(PAPER_SKEWED_R_TUPLES, scale)
    t_n = _scaled(PAPER_INNER_TUPLES, scale)
    db.create_table(
        "R", BASE_SCHEMA, generate_skewed_table(r_n, FIGURE12_SKEW, seed=seed)
    )
    db.create_table("T", BASE_SCHEMA, generate_uniform_table(t_n, seed=seed + 1))
    effective = sum(r.fraction * r.selectivity for r in FIGURE12_SKEW)
    db.catalog.set_predicate_selectivity("R", "column_compare", effective)
    plan = NLJSpec(
        outer=FilterSpec(
            ScanSpec("R", label="scan_R"),
            ColumnCompare(1, "<", SKEW_THRESHOLD),
            label="filter",
        ),
        inner=ScanSpec("T", label="scan_T"),
        condition=EquiJoinCondition(0, 0, modulus=1000),
        buffer_tuples=_scaled(PAPER_BUFFER_TUPLES, scale),
        label="nlj",
    )
    return db, plan


def build_complex_plan(
    scale: int = 100,
    selectivity: float = 0.1,
    seed: int = 17,
) -> tuple[Database, PlanSpec]:
    """The 10-operator complex plan of Figure 11.

    Shape::

        NLJ0( NLJ1( Filter(Scan R), Scan T ),
              Sort( MJ( Sort(Scan S), Scan U ) ) )

    Ten operators: two block NLJs, a sort-merge join, two external sorts,
    a selectivity-0.1 filter, and four scans, with the paper's R size and
    200,000-tuple buffers (scaled). NLJ1's heap state is expensive to
    recompute (it sits right above the selective filter) while NLJ0's is
    cheap (its input replays from NLJ1's buffer and a small scan), so —
    as in the paper — the optimal suspend plan is a *hybrid*, not either
    purist extreme.
    """
    db = Database()
    r_n = _scaled(PAPER_R_TUPLES, scale)
    other_n = _scaled(PAPER_INNER_TUPLES, scale)
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(r_n, seed=seed))
    db.create_table("S", BASE_SCHEMA, generate_uniform_table(other_n, seed=seed + 1))
    db.create_table("T", BASE_SCHEMA, generate_uniform_table(other_n, seed=seed + 2))
    # U is stored in key order so the merge join can scan it directly.
    db.create_table(
        "U",
        BASE_SCHEMA,
        generate_uniform_table(other_n, seed=seed + 3, shuffle_keys=False),
    )
    db.catalog.set_predicate_selectivity("R", "uniform", selectivity)
    buffer = _scaled(PAPER_BUFFER_TUPLES, scale)
    nlj1 = NLJSpec(
        outer=FilterSpec(
            ScanSpec("R", label="scan_R"),
            UniformSelect(1, selectivity),
            label="filter",
        ),
        inner=ScanSpec("T", label="scan_T"),
        condition=EquiJoinCondition(0, 0, modulus=500),
        buffer_tuples=buffer,
        label="nlj1",
    )
    mj = MergeJoinSpec(
        left=SortSpec(
            ScanSpec("S", label="scan_S"),
            key_columns=(0,),
            buffer_tuples=buffer,
            label="sort_S",
        ),
        right=ScanSpec("U", label="scan_U"),
        condition=EquiJoinCondition(0, 0),
        label="mj",
    )
    nlj0 = NLJSpec(
        outer=nlj1,
        inner=SortSpec(mj, key_columns=(0,), buffer_tuples=buffer, label="sort_M"),
        condition=EquiJoinCondition(0, 0, modulus=500),
        buffer_tuples=buffer,
        label="nlj0",
    )
    return db, nlj0


def build_left_deep_nlj(
    buffer_tuples: Sequence[int] = (50_000, 100_000, 200_000),
    selectivity: float = 0.1,
    scale: int = 100,
    seed: int = 19,
) -> tuple[Database, PlanSpec]:
    """The Figure 14 plan: a left-deep chain of block NLJs over a filter.

    ``buffer_tuples`` gives each NLJ's outer buffer size bottom-up (the
    paper uses "different outer buffer sizes").
    """
    db = Database()
    r_n = _scaled(PAPER_R_TUPLES, scale)
    inner_n = _scaled(PAPER_INNER_TUPLES, scale)
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(r_n, seed=seed))
    db.catalog.set_predicate_selectivity("R", "uniform", selectivity)
    current: PlanSpec = FilterSpec(
        ScanSpec("R", label="scan_R"), UniformSelect(1, selectivity), label="filter"
    )
    key_col = 0
    for level, buf in enumerate(buffer_tuples):
        inner_name = f"I{level}"
        db.create_table(
            inner_name,
            BASE_SCHEMA,
            generate_uniform_table(inner_n, seed=seed + 1 + level),
        )
        current = NLJSpec(
            outer=current,
            inner=ScanSpec(inner_name, label=f"scan_{inner_name}"),
            condition=EquiJoinCondition(key_col, 0, modulus=400),
            buffer_tuples=_scaled(buf, scale),
            label=f"nlj{level}",
        )
        key_col = 0  # join on the leftmost column of the composite row
    return db, current


def build_nlj_chain(
    num_operators: int, scale: int = 2000, seed: int = 23
) -> tuple[Database, PlanSpec]:
    """Left-deep NLJ chains for Table 2 (optimizer timing).

    A plan with k operators has (k-1)/2 NLJ operators in a chain with
    table scans at the leaves — the paper's worst case for the number of
    MIP variables and constraints. ``num_operators`` must be odd.
    """
    if num_operators < 3 or num_operators % 2 == 0:
        raise ValueError("num_operators must be an odd integer >= 3")
    num_nljs = (num_operators - 1) // 2
    db = Database()
    base_n = _scaled(PAPER_R_TUPLES, scale)
    db.create_table("T0", BASE_SCHEMA, generate_uniform_table(base_n, seed=seed))
    current: PlanSpec = ScanSpec("T0", label="scan_T0")
    for level in range(num_nljs):
        name = f"T{level + 1}"
        db.create_table(
            name,
            BASE_SCHEMA,
            generate_uniform_table(base_n, seed=seed + 1 + level),
        )
        current = NLJSpec(
            outer=current,
            inner=ScanSpec(name, label=f"scan_{name}"),
            condition=EquiJoinCondition(0, 0, modulus=50),
            buffer_tuples=max(2, base_n // 4),
            label=f"nlj{level}",
        )
    return db, current


# ----------------------------------------------------------------------
# Arrival traces for the scheduler (repro.service)
# ----------------------------------------------------------------------

#: Section 1 trace sizes at ``scale=1`` (divided by ``scale``).
MIXED_FACTS_TUPLES = 20_000
MIXED_DIMS_TUPLES = 2_000
MIXED_HOT_TUPLES = 800
MIXED_BUFFER_TUPLES = 1_000


def _mixed_db_factory(scale: int, seed: int) -> Callable[[], Database]:
    def factory() -> Database:
        db = Database()
        db.create_table(
            "facts",
            BASE_SCHEMA,
            generate_uniform_table(_scaled(MIXED_FACTS_TUPLES, scale), seed=seed),
        )
        db.create_table(
            "dims",
            BASE_SCHEMA,
            generate_uniform_table(
                _scaled(MIXED_DIMS_TUPLES, scale), seed=seed + 1
            ),
        )
        db.create_table(
            "hot",
            BASE_SCHEMA,
            generate_uniform_table(
                _scaled(MIXED_HOT_TUPLES, scale), seed=seed + 2
            ),
        )
        return db

    return factory


def mixed_q_lo_plan(scale: int = 1) -> PlanSpec:
    """The long-running analytical join of the Section 1 scenario."""
    return NLJSpec(
        outer=FilterSpec(
            ScanSpec("facts", label="scan_facts"),
            UniformSelect(1, 0.2),
            label="filter",
        ),
        inner=ScanSpec("dims", label="scan_dims"),
        condition=EquiJoinCondition(0, 0, modulus=500),
        buffer_tuples=_scaled(MIXED_BUFFER_TUPLES, scale),
        label="q_lo_join",
    )


def mixed_q_hi_plan(scale: int = 1) -> PlanSpec:
    """The high-priority query: a quick sorted filter over ``hot``."""
    return SortSpec(
        FilterSpec(ScanSpec("hot"), UniformSelect(1, 0.5)),
        key_columns=(0,),
        buffer_tuples=_scaled(MIXED_BUFFER_TUPLES, scale),
        label="q_hi_sort",
    )


def _solo_profile(
    db: Database, plan: PlanSpec, quantum: int = 512
) -> tuple[float, int]:
    """(completion time, peak heap bytes) of an uninterrupted solo run.

    A calibration run made while the workload is built, not part of it:
    it runs untraced, so none of its records reach the process tracer.
    """
    with use_tracer(NULL_TRACER):
        session = QuerySession(db, plan)
        start = db.now
        peak = 0
        while True:
            result = session.execute(max_rows=quantum, collect=False)
            peak = max(peak, session.memory_in_use())
            if result.status is QueryStatus.COMPLETED:
                break
        session.close()
    return db.now - start, peak


def mixed_priority_trace(
    scale: int = 4,
    seed: int = 1,
    hi_arrival_fraction: float = 0.45,
) -> Workload:
    """The paper's Section 1 motivating scenario as an arrival trace.

    Q_lo (priority 0) arrives at time 0; Q_hi (priority 10) arrives at
    ``hi_arrival_fraction`` of Q_lo's calibrated solo runtime, when Q_lo
    is well into its work and holding its outer buffer. The memory budget
    is half of Q_lo's peak heap — guaranteeing pressure at Q_hi's arrival
    — and the suspend budget is 10% of Q_lo's solo runtime, mirroring the
    "small suspend budget" of the example this trace replaces.
    """
    factory = _mixed_db_factory(scale, seed)
    solo_time, peak = _solo_profile(factory(), mixed_q_lo_plan(scale))
    trace = ArrivalTrace(name="mixed")
    trace.add("q_lo", mixed_q_lo_plan(scale), arrival_time=0.0, priority=0)
    trace.add(
        "q_hi",
        mixed_q_hi_plan(scale),
        arrival_time=hi_arrival_fraction * solo_time,
        priority=10,
    )
    return Workload(
        name="mixed",
        db_factory=factory,
        trace=trace,
        memory_budget=max(1, peak // 2),
        suspend_budget=0.1 * solo_time,
        description=(
            "Section 1: high-priority Q_hi preempts the memory of the "
            "long-running analytical Q_lo"
        ),
    )


def burst_trace(
    scale: int = 4,
    seed: int = 1,
    num_queries: int = 5,
) -> Workload:
    """A staggered burst of mixed-priority queries over shared tables.

    Arrivals are spread deterministically (seeded) over the first 80% of
    the calibrated base runtime with priorities alternating 0/5/10, so a
    scheduler run exercises admission, repeated victim selection, and
    resume-under-subsequent-pressure — the paths the two-query mixed
    trace cannot reach.
    """
    factory = _mixed_db_factory(scale, seed)
    solo_time, peak = _solo_profile(factory(), mixed_q_lo_plan(scale))
    rng = random.Random(seed)
    trace = ArrivalTrace(name="burst")
    trace.add("q_0", mixed_q_lo_plan(scale), arrival_time=0.0, priority=0)
    for k in range(1, max(2, num_queries)):
        if k % 3 == 1:
            plan = mixed_q_hi_plan(scale)
            priority = 10
        elif k % 3 == 2:
            plan = SortSpec(
                FilterSpec(
                    ScanSpec("dims"), UniformSelect(1, 0.4 + 0.1 * (k % 2))
                ),
                key_columns=(0,),
                buffer_tuples=_scaled(MIXED_BUFFER_TUPLES, scale),
                label=f"sort_dims_{k}",
            )
            priority = 5
        else:
            plan = NLJSpec(
                outer=FilterSpec(
                    ScanSpec("hot"), UniformSelect(1, 0.3), label=f"f_{k}"
                ),
                inner=ScanSpec("dims"),
                condition=EquiJoinCondition(0, 0, modulus=300),
                buffer_tuples=_scaled(MIXED_BUFFER_TUPLES, scale),
                label=f"nlj_hot_{k}",
            )
            priority = 0
        trace.add(
            f"q_{k}",
            plan,
            arrival_time=rng.uniform(0.05, 0.8) * solo_time,
            priority=priority,
        )
    return Workload(
        name="burst",
        db_factory=factory,
        trace=trace,
        memory_budget=max(1, peak // 2),
        suspend_budget=0.1 * solo_time,
        description="staggered mixed-priority burst over shared tables",
    )


def sorted_join_plan(scale: int = 1) -> PlanSpec:
    """Block NLJ over an external sort: the canonical repeat-suspend
    victim — during the long emission phase its outer buffer is in
    memory while the sort's unconsumed sublists sit unchanged in the
    state store, so repeat suspends produce small delta images."""
    return NLJSpec(
        outer=SortSpec(
            FilterSpec(
                ScanSpec("facts", label="scan_facts"),
                UniformSelect(1, 0.8),
                label="filter",
            ),
            key_columns=(0,),
            buffer_tuples=_scaled(MIXED_BUFFER_TUPLES, scale),
            label="sort_facts",
        ),
        inner=ScanSpec("dims", label="scan_dims"),
        condition=EquiJoinCondition(0, 0, modulus=500),
        buffer_tuples=_scaled(MIXED_BUFFER_TUPLES, scale),
        label="q_nlj_sort",
    )


def serve_catalog(
    scale: int = 8, seed: int = 1
) -> tuple[Callable[[], Database], dict[str, PlanSpec]]:
    """The HTTP serving layer's named plans plus their database factory.

    The catalog reuses the scheduler workloads' plans over the mixed
    tables, at a default scale small enough that thousands of concurrent
    sessions stay cheap: ``mixed-join`` (the long analytical NLJ),
    ``hot-sort`` (the quick high-priority sort), and ``sorted-join``
    (the repeat-suspend victim whose continuations produce delta
    images). Server and load generator both draw from here so a token
    minted against one process resolves to the same plan in another.
    """
    catalog = {
        "mixed-join": mixed_q_lo_plan(scale),
        "hot-sort": mixed_q_hi_plan(scale),
        "sorted-join": sorted_join_plan(scale),
    }
    return _mixed_db_factory(scale, seed), catalog


def repeat_suspend_trace(
    scale: int = 1,
    seed: int = 1,
    arrival_fractions: tuple[float, ...] = (0.3, 0.6),
) -> Workload:
    """Repeatedly evict one long join over a sorted intermediate.

    The victim is a block NLJ whose outer is an external sort: during the
    (long) emission phase the NLJ holds its outer buffer in memory — so
    memory pressure can evict it — while the sort's unconsumed sublists
    sit unchanged in the state store. Each high-priority arrival forces
    another suspend of the same query, so this is the canonical workload
    for delta spill images: a repeat suspend re-dumps only the in-memory
    buffer and shares the sublist blobs with the previous image.
    """
    factory = _mixed_db_factory(scale, seed)
    victim_plan = sorted_join_plan(scale)
    solo_time, peak = _solo_profile(factory(), victim_plan)
    trace = ArrivalTrace(name="repeat-suspend")
    trace.add("q_nlj_sort", victim_plan, arrival_time=0.0, priority=0)
    for k, fraction in enumerate(arrival_fractions, start=1):
        trace.add(
            f"q_hi_{k}",
            mixed_q_hi_plan(scale),
            arrival_time=fraction * solo_time,
            priority=10,
        )
    return Workload(
        name="repeat-suspend",
        db_factory=factory,
        trace=trace,
        memory_budget=max(1, peak // 2),
        suspend_budget=0.2 * solo_time,
        description=(
            "staggered high-priority arrivals repeatedly evict one "
            "long external sort (the delta-image workload)"
        ),
    )


#: Trace-generator registry (the CLI's ``workload --trace`` choices).
TRACES: dict[str, Callable[..., Workload]] = {
    "mixed": mixed_priority_trace,
    "burst": burst_trace,
    "repeat-suspend": repeat_suspend_trace,
}
