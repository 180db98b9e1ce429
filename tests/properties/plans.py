"""Plans over ``R`` and ``S`` (``key``, a [0, 1) column ``u``,
``payload``; an index ``S_key`` on ``S.key``) for the differential
harness: the twelve fixed ``PLAN_KINDS`` of :func:`build_plan`, which
``tests/engine/make_golden.py`` pins byte for byte, and the hypothesis
grammar :func:`cases`, in which every operator may sit under every other
wherever ``engine/validate.py`` accepts the plan, to any depth.

A generated plan only has to run alike in every mode, not to mean
anything, so joins and groupings take any integer column at hand; join
moduli grow until a join stays under :data:`MAX_JOIN_ROWS` estimated
rows, and NLJ buffers until its rescans stay under :data:`MAX_NLJ_SCAN`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from hypothesis import strategies as st

from repro import Database
from repro.engine.aggregate import AGG_FUNCS as AGGS
from repro.engine.plan import (
    DupElimSpec,
    FilterSpec,
    GroupAggSpec,
    HashGroupAggSpec,
    HybridHashJoinSpec,
    IndexNLJSpec,
    MergeJoinSpec,
    NLJSpec,
    PlanSpec,
    ProjectSpec,
    ScanSpec,
    SimpleHashJoinSpec,
    SortSpec,
)
from repro.engine.validate import validate_plan_spec
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import EquiJoinCondition, UniformSelect

PLAN_KINDS = (
    # one operator over a scan(-filter) chain
    "sfp", "nlj", "smj", "shj", "agg",
    # a stateful heap child that checkpoints mid-drain, per drain site
    "sort_shj", "agg_hhj", "shj_sort", "nlj_sort", "nlj_shj",
    # default-path operators over a stream child
    "gagg", "inlj",
)


def build_db(r_size, s_size, seed):
    db = Database()
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(r_size, seed=seed))
    db.create_table(
        "S", BASE_SCHEMA, generate_uniform_table(s_size, seed=seed + 1)
    )
    db.create_index("S_key", "S", 0)
    return db


def build_plan(kind, selectivity, buffer_tuples, modulus):
    filtered = FilterSpec(ScanSpec("R"), UniformSelect(1, selectivity))
    if kind == "sfp":
        return ProjectSpec(filtered, columns=(2, 0))
    if kind in ("sort_shj", "nlj_shj"):
        shj = build_plan("shj", selectivity, buffer_tuples, modulus)
        if kind == "sort_shj":
            return SortSpec(shj, key_columns=(0,), buffer_tuples=buffer_tuples)
        return NLJSpec(
            outer=shj,
            inner=ScanSpec("S"),
            condition=EquiJoinCondition(0, 0, modulus=modulus),
            buffer_tuples=buffer_tuples,
        )
    if kind == "agg_hhj":
        return HashGroupAggSpec(
            HybridHashJoinSpec(
                build=ScanSpec("S"),
                probe=filtered,
                condition=EquiJoinCondition(0, 0, modulus=modulus),
                num_partitions=4,
                memory_partitions=1,
            ),
            group_columns=(2,),
            agg_func="sum",
            agg_column=0,
            num_partitions=3,
        )
    if kind in ("shj_sort", "nlj_sort", "gagg"):
        ordered = SortSpec(filtered, key_columns=(2,), buffer_tuples=buffer_tuples)
        if kind == "shj_sort":
            return SimpleHashJoinSpec(
                build=ordered,
                probe=ScanSpec("S"),
                condition=EquiJoinCondition(0, 0, modulus=modulus),
                num_partitions=4,
            )
        if kind == "nlj_sort":
            return NLJSpec(
                outer=ordered,
                inner=ScanSpec("S"),
                condition=EquiJoinCondition(0, 0, modulus=modulus),
                buffer_tuples=buffer_tuples + 3,
            )
        return GroupAggSpec(
            ordered, group_columns=(2,), agg_func="sum", agg_column=0
        )
    if kind == "inlj":
        return IndexNLJSpec(outer=filtered, index="S_key", outer_key_column=0)
    if kind == "nlj_over_sort":  # not golden: a sorted (rewindable) inner
        return NLJSpec(
            outer=filtered,
            inner=SortSpec(ScanSpec("S"), key_columns=(0,), buffer_tuples=23),
            condition=EquiJoinCondition(0, 0, modulus=modulus),
            buffer_tuples=buffer_tuples,
        )
    if kind == "nlj":
        return NLJSpec(
            outer=filtered,
            inner=ScanSpec("S"),
            condition=EquiJoinCondition(0, 0, modulus=modulus),
            buffer_tuples=buffer_tuples,
        )
    if kind == "smj":
        return MergeJoinSpec(
            left=SortSpec(
                filtered, key_columns=(0,), buffer_tuples=buffer_tuples
            ),
            right=SortSpec(
                ScanSpec("S"), key_columns=(0,), buffer_tuples=buffer_tuples + 7
            ),
            condition=EquiJoinCondition(0, 0),
        )
    if kind == "shj":
        return SimpleHashJoinSpec(
            build=ScanSpec("S"),
            probe=filtered,
            condition=EquiJoinCondition(0, 0, modulus=modulus),
            num_partitions=4,
        )
    return HashGroupAggSpec(
        filtered,
        group_columns=(2,),
        agg_func="sum",
        agg_column=0,
        num_partitions=3,
    )


def events(counters):
    return (counters.pages_read, counters.pages_written, counters.cpu_tuples)


#: Estimated output rows a generated join may reach.
MAX_JOIN_ROWS = 400
#: Estimated inner rows a generated block NLJ may scan over all passes.
MAX_NLJ_SCAN = 3000

OPERATORS = (
    "stream", "sort", "dup", "gagg", "hagg", "inlj", "nlj", "smj", "shj", "hhj",
)
#: What the shard planner accepts over scan pipelines.
SHARDABLE = ("hagg", "shj", "hhj")


@dataclass(frozen=True)
class Case:
    """A database recipe, a plan, and plans the folded mode runs beside."""

    r_size: int
    s_size: int
    seed: int
    plan: PlanSpec
    siblings: tuple = ()

    def db(self) -> Database:
        return build_db(self.r_size, self.s_size, self.seed)


@dataclass(frozen=True)
class Shape:
    """A subplan, its row width, integer columns, ``u`` column (if any)
    and an upper estimate of its rows."""

    spec: PlanSpec
    width: int
    ints: tuple
    u: Optional[int]
    rows: int

    def joined(self, spec, right: "Shape", rows: int) -> "Shape":
        u = self.u if right.u is None or self.u is not None else (
            right.u + self.width
        )
        ints = self.ints + tuple(c + self.width for c in right.ints)
        return Shape(spec, self.width + right.width, ints, u, rows)


@st.composite
def _pipeline(draw, sizes):
    """A scan under up to two filters and projections."""
    table = draw(st.sampled_from("RS"))
    shape = Shape(ScanSpec(table), 3, (0, 2), 1, sizes[table])
    for _ in range(draw(st.integers(0, 2))):
        shape = draw(_stream_over(shape))
    return shape


@st.composite
def _stream_over(draw, child: Shape):
    """A filter or a projection over ``child``."""
    if child.u is not None and draw(st.booleans()):
        predicate = UniformSelect(child.u, draw(st.floats(0.2, 1.0)))
        return replace(child, spec=FilterSpec(child.spec, predicate))
    order = draw(st.permutations(range(child.width)))
    columns = tuple(order[: draw(st.integers(1, child.width))])
    if not set(columns) & set(child.ints):
        columns += (child.ints[0],)
    return Shape(
        ProjectSpec(child.spec, columns),
        len(columns),
        tuple(i for i, c in enumerate(columns) if c in child.ints),
        columns.index(child.u) if child.u in columns else None,
        child.rows,
    )


def _sorted(draw, child: Shape, column: int) -> Shape:
    buffer_tuples = draw(st.integers(5, 40))
    return replace(child, spec=SortSpec(child.spec, (column,), buffer_tuples))


@st.composite
def _subplan(draw, sizes, depth, ops):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_pipeline(sizes))
    op = draw(st.sampled_from(ops))
    child = draw(_subplan(sizes, depth - 1, ops))

    def pick(values):
        return draw(st.sampled_from(values))

    if op == "stream":
        return draw(_stream_over(child))
    if op == "sort":
        return _sorted(draw, child, draw(st.integers(0, child.width - 1)))
    if op == "dup":
        return replace(child, spec=DupElimSpec(_sorted(draw, child, 0).spec))
    if op in ("gagg", "hagg"):
        group, column, func = pick(child.ints), pick(child.ints), pick(AGGS)
        spec = (
            GroupAggSpec(_sorted(draw, child, group).spec, (group,), func, column)
            if op == "gagg"
            else HashGroupAggSpec(
                child.spec, (group,), func, column, draw(st.integers(2, 4))
            )
        )
        return Shape(spec, 2, (0, 1), None, child.rows)
    if op == "inlj":
        spec = IndexNLJSpec(child.spec, "S_key", pick(child.ints))
        return child.joined(spec, Shape(None, 3, (0, 2), 1, 1), child.rows)
    if op == "nlj" and draw(st.booleans()):
        right = draw(_pipeline(sizes))  # a block NLJ's inner is rewindable
    else:
        right = draw(_subplan(sizes, depth - 1, ops))
        if op == "nlj":
            right = _sorted(draw, right, pick(right.ints))
    lcol, rcol = pick(child.ints), pick(right.ints)
    if op == "smj":
        spec = MergeJoinSpec(
            _sorted(draw, child, lcol).spec,
            _sorted(draw, right, rcol).spec,
            EquiJoinCondition(lcol, rcol),
        )
        rows = max(child.rows, right.rows, child.rows * right.rows // 60)
        return child.joined(spec, right, rows)
    product = child.rows * right.rows
    modulus = max(draw(st.integers(3, 40)), math.ceil(product / MAX_JOIN_ROWS))
    condition = EquiJoinCondition(lcol, rcol, modulus)
    partitions = draw(st.integers(2, 5))
    if op == "nlj":
        buffer_tuples = max(
            draw(st.integers(5, 40)), math.ceil(product / MAX_NLJ_SCAN)
        )
        spec = NLJSpec(child.spec, right.spec, condition, buffer_tuples)
    elif op == "shj":
        spec = SimpleHashJoinSpec(child.spec, right.spec, condition, partitions)
    else:
        spec = HybridHashJoinSpec(
            child.spec, right.spec, condition, partitions,
            draw(st.integers(1, partitions - 1)),
        )
    return child.joined(spec, right, max(1, product // modulus))


@st.composite
def cases(draw, depth=3, siblings=0, ops=OPERATORS):
    """A small database, a plan of up to ``depth`` operators above each
    scan pipeline and up to ``siblings`` more; ``depth=1, ops=SHARDABLE``
    is what the shard planner takes."""
    sizes = {"R": draw(st.integers(30, 120)), "S": draw(st.integers(20, 80))}
    count = 1 + draw(st.integers(min(1, siblings), siblings))
    plans = [draw(_subplan(sizes, depth, ops)).spec for _ in range(count)]
    for plan in plans:
        validate_plan_spec(plan)
    seed = draw(st.integers(0, 10_000))
    return Case(sizes["R"], sizes["S"], seed, plans[0], tuple(plans[1:]))
