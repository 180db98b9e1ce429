"""Execution-plan specifications.

A plan is a tree of small picklable spec dataclasses. The same spec tree
is instantiated at execute time and again at resume time (the paper
assumes the resumed query uses the same plan, Section 2), with operator
ids assigned deterministically in preorder so SuspendedQuery entries line
up across the two instantiations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.engine.aggregate import DuplicateEliminate, GroupAggregate
from repro.engine.hash_aggregate import HashGroupAggregate
from repro.engine.base import Operator
from repro.engine.exchange import PartitionedScan, ShuffleRead
from repro.engine.filter import Filter
from repro.engine.hash_join import HybridHashJoin, SimpleHashJoin
from repro.engine.index_nlj import IndexNLJ
from repro.engine.merge_join import MergeJoin
from repro.engine.nlj import BlockNLJ
from repro.engine.project import Project
from repro.engine.runtime import Runtime
from repro.engine.scan import IndexScan, TableScan
from repro.engine.sort import TwoPhaseMergeSort
from repro.relational.expressions import EquiJoinCondition, Predicate


@dataclass(frozen=True)
class ScanSpec:
    table: str
    label: Optional[str] = None

    @property
    def children(self):
        return ()


@dataclass(frozen=True)
class IndexScanSpec:
    index: str
    start_key: Optional[object] = None
    label: Optional[str] = None

    @property
    def children(self):
        return ()


@dataclass(frozen=True)
class PartitionedScanSpec:
    """Scan of one shard's partition of ``table`` (see ``repro.shard``).

    Inside a shard worker the partition is simply the shard-local heap
    file registered under the base table's name, so this instantiates as
    a :class:`~repro.engine.exchange.PartitionedScan` over that file.
    ``shard``/``num_shards`` are carried for provenance (labels, traces,
    and validating that a fragment runs on the shard it was planned for).
    """

    table: str
    shard: int = 0
    num_shards: int = 1
    label: Optional[str] = None

    @property
    def children(self):
        return ()


@dataclass(frozen=True)
class ShuffleReadSpec:
    """Scan of a materialized exchange channel on one shard.

    The shard coordinator freezes every row routed to this shard into a
    heap file named after the channel before the consuming fragment
    starts; this spec instantiates as a scan over that file.
    """

    channel: str
    shard: int = 0
    label: Optional[str] = None

    @property
    def children(self):
        return ()


@dataclass(frozen=True)
class FilterSpec:
    child: "PlanSpec"
    predicate: Predicate
    label: Optional[str] = None

    @property
    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class ProjectSpec:
    child: "PlanSpec"
    columns: tuple
    label: Optional[str] = None

    @property
    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class NLJSpec:
    outer: "PlanSpec"
    inner: "PlanSpec"
    condition: EquiJoinCondition
    buffer_tuples: int
    label: Optional[str] = None

    @property
    def children(self):
        return (self.outer, self.inner)


@dataclass(frozen=True)
class IndexNLJSpec:
    outer: "PlanSpec"
    index: str
    outer_key_column: int
    label: Optional[str] = None

    @property
    def children(self):
        return (self.outer,)


@dataclass(frozen=True)
class SortSpec:
    child: "PlanSpec"
    key_columns: tuple
    buffer_tuples: int
    label: Optional[str] = None

    @property
    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class MergeJoinSpec:
    left: "PlanSpec"
    right: "PlanSpec"
    condition: EquiJoinCondition
    label: Optional[str] = None

    @property
    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class SimpleHashJoinSpec:
    build: "PlanSpec"
    probe: "PlanSpec"
    condition: EquiJoinCondition
    num_partitions: int = 8
    label: Optional[str] = None

    @property
    def children(self):
        return (self.build, self.probe)


@dataclass(frozen=True)
class HybridHashJoinSpec:
    build: "PlanSpec"
    probe: "PlanSpec"
    condition: EquiJoinCondition
    num_partitions: int = 8
    memory_partitions: int = 2
    label: Optional[str] = None

    @property
    def children(self):
        return (self.build, self.probe)


@dataclass(frozen=True)
class GroupAggSpec:
    child: "PlanSpec"
    group_columns: tuple
    agg_func: str
    agg_column: int
    label: Optional[str] = None

    @property
    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class HashGroupAggSpec:
    child: "PlanSpec"
    group_columns: tuple
    agg_func: str
    agg_column: int
    num_partitions: int = 8
    label: Optional[str] = None

    @property
    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class DupElimSpec:
    child: "PlanSpec"
    label: Optional[str] = None

    @property
    def children(self):
        return (self.child,)


PlanSpec = Union[
    ScanSpec,
    PartitionedScanSpec,
    ShuffleReadSpec,
    IndexScanSpec,
    FilterSpec,
    ProjectSpec,
    NLJSpec,
    IndexNLJSpec,
    SortSpec,
    MergeJoinSpec,
    SimpleHashJoinSpec,
    HybridHashJoinSpec,
    GroupAggSpec,
    HashGroupAggSpec,
    DupElimSpec,
]


def plan_operator_count(spec: PlanSpec) -> int:
    """Number of operators in the plan tree."""
    return 1 + sum(plan_operator_count(c) for c in spec.children)


def plan_height(spec: PlanSpec) -> int:
    """Height of the plan tree."""
    if not spec.children:
        return 1
    return 1 + max(plan_height(c) for c in spec.children)


def _default_label(spec: PlanSpec, op_id: int) -> str:
    base = type(spec).__name__.removesuffix("Spec").lower()
    return f"{base}_{op_id}"


def instantiate_plan(spec: PlanSpec, runtime: Runtime) -> Operator:
    """Build the operator tree for ``spec``, assigning preorder op ids.

    When the runtime carries a fold binding, foldable nodes instantiate
    as their shared-work variants (``repro.engine.folded``): plain table
    scans graft onto the manager's per-table page producers, and hash
    joins get a build-side fingerprint so spilled partitions can adopt a
    sibling's hash table. The spec tree itself is never rewritten — the
    suspend image records the original plan, so resuming with or without
    a fold manager yields the same query.
    """
    counter = [0]
    fold = runtime.fold

    def build(node: PlanSpec) -> Operator:
        if not hasattr(node, "children"):
            raise TypeError(f"unknown plan spec node {type(node).__name__}")
        op_id = counter[0]
        counter[0] += 1
        name = node.label or _default_label(node, op_id)
        if isinstance(node, ScanSpec):
            table = runtime.db.catalog.table(node.table)
            if fold is not None:
                from repro.engine.folded import SharedScanLeaf

                producer = fold.manager.producer_for(table)
                return SharedScanLeaf(op_id, name, runtime, table, producer)
            return TableScan(op_id, name, runtime, table)
        if isinstance(node, PartitionedScanSpec):
            table = runtime.db.catalog.table(node.table)
            return PartitionedScan(
                op_id, name, runtime, table, node.shard, node.num_shards
            )
        if isinstance(node, ShuffleReadSpec):
            table = runtime.db.catalog.table(node.channel)
            return ShuffleRead(
                op_id, name, runtime, table, node.channel, node.shard
            )
        if isinstance(node, IndexScanSpec):
            index = runtime.db.catalog.index(node.index)
            return IndexScan(op_id, name, runtime, index, node.start_key)
        if isinstance(node, FilterSpec):
            child = build(node.child)
            return Filter(op_id, name, child, runtime, node.predicate)
        if isinstance(node, ProjectSpec):
            child = build(node.child)
            return Project(op_id, name, child, runtime, node.columns)
        if isinstance(node, NLJSpec):
            outer = build(node.outer)
            inner = build(node.inner)
            return BlockNLJ(
                op_id, name, outer, inner, runtime, node.condition,
                node.buffer_tuples,
            )
        if isinstance(node, IndexNLJSpec):
            outer = build(node.outer)
            index = runtime.db.catalog.index(node.index)
            return IndexNLJ(
                op_id, name, outer, runtime, index, node.outer_key_column
            )
        if isinstance(node, SortSpec):
            child = build(node.child)
            return TwoPhaseMergeSort(
                op_id, name, child, runtime, node.key_columns,
                node.buffer_tuples,
            )
        if isinstance(node, MergeJoinSpec):
            left = build(node.left)
            right = build(node.right)
            return MergeJoin(op_id, name, left, right, runtime, node.condition)
        if isinstance(node, SimpleHashJoinSpec):
            build_child = build(node.build)
            probe_child = build(node.probe)
            if fold is not None:
                from repro.engine.folded import FoldedSimpleHashJoin
                from repro.fold.fingerprint import build_side_fingerprint

                join = FoldedSimpleHashJoin(
                    op_id, name, build_child, probe_child, runtime,
                    node.condition, node.num_partitions,
                )
                join.bind_fold(fold, build_side_fingerprint(node))
                return join
            return SimpleHashJoin(
                op_id, name, build_child, probe_child, runtime,
                node.condition, node.num_partitions,
            )
        if isinstance(node, HybridHashJoinSpec):
            build_child = build(node.build)
            probe_child = build(node.probe)
            if fold is not None:
                from repro.engine.folded import FoldedHybridHashJoin
                from repro.fold.fingerprint import build_side_fingerprint

                join = FoldedHybridHashJoin(
                    op_id, name, build_child, probe_child, runtime,
                    node.condition, node.num_partitions,
                    node.memory_partitions,
                )
                join.bind_fold(fold, build_side_fingerprint(node))
                return join
            return HybridHashJoin(
                op_id, name, build_child, probe_child, runtime,
                node.condition, node.num_partitions, node.memory_partitions,
            )
        if isinstance(node, GroupAggSpec):
            child = build(node.child)
            return GroupAggregate(
                op_id, name, child, runtime, node.group_columns,
                node.agg_func, node.agg_column,
            )
        if isinstance(node, HashGroupAggSpec):
            child = build(node.child)
            return HashGroupAggregate(
                op_id, name, child, runtime, node.group_columns,
                node.agg_func, node.agg_column, node.num_partitions,
            )
        if isinstance(node, DupElimSpec):
            child = build(node.child)
            return DuplicateEliminate(op_id, name, child, runtime)
        raise TypeError(f"unknown plan spec node {type(node).__name__}")

    try:
        root = build(spec)
    finally:
        # A recursive closure is a reference cycle; this one would keep
        # the runtime (contract graph, lane) alive until a collection.
        build = None
    runtime.height = plan_height(spec)
    return root
