"""Reference implementations, for tests only.

The product ships one suspend-plan solver,
:func:`repro.core.optimizer.optimal_plan`. These are the independent
references it is checked against:

- :func:`mip_plan` builds the paper's zero-one program, Equations (1)-(8),
  as a sparse constraint matrix and solves it with HiGHS
  (:func:`solve_binary_program`, ``scipy.optimize.milp``);
- :func:`enumerate_valid_plans` / :func:`exhaustive_best_plan` walk every
  valid suspend plan (exponential; small plans only).

The external sort's heap merge is checked against the linear scan of
every sublist head it replaced: :func:`tuple_key` and
:func:`linear_scan_next_batch`. The batch path's C-level passes are
checked against the row-at-a-time loops they replaced: the hash join's
probe (:func:`row_probe_next_batch`), the hash aggregate's fold
(:func:`row_fold_load_partition`) and the fused scan→filter segment
(:func:`row_fused_scan`). ``HeapFile.bulk_load``'s page slicing is
checked against the row-at-a-time append it replaced
(:func:`row_bulk_load`).

numpy and scipy are test dependencies: nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from scipy import sparse
from scipy.optimize import LinearConstraint, milp

from repro.common.errors import SuspendBudgetInfeasibleError
from repro.core.costs import SuspendCostModel
from repro.core.optimizer import estimate_plan_cost
from repro.core.strategies import (
    OpDecision,
    Strategy,
    SuspendPlan,
    validate_suspend_plan,
)
from repro.engine.hash_join import PHASE_DONE, PHASE_PARTITION
from repro.engine.sort import PHASE_BUILD
from repro.relational.expressions import (
    compile_fold,
    compile_projection,
    compile_right_key,
)

#: Tolerance for treating an LP value as integral.
INT_TOL = 1e-6


@dataclass
class MIPResult:
    """Outcome of a solve. ``x`` is None when the program is infeasible."""

    x: Optional[np.ndarray]
    objective: float
    feasible: bool


def solve_binary_program(
    c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray
) -> MIPResult:
    """Solve min c@x, A_ub@x <= b_ub, x in {0,1}^n with HiGHS."""
    num_vars = len(c)
    if num_vars == 0:
        feasible = b_ub.size == 0 or bool(np.all(b_ub >= -INT_TOL))
        return MIPResult(x=np.zeros(0), objective=0.0, feasible=feasible)
    constraints = []
    if a_ub.size:
        constraints.append(
            LinearConstraint(a_ub, -np.inf * np.ones(len(b_ub)), b_ub)
        )
    res = milp(
        c,
        constraints=constraints,
        integrality=np.ones(num_vars),
        bounds=(0, 1),
    )
    if res.success:
        x = np.round(res.x)
        return MIPResult(x=x, objective=float(c @ x), feasible=True)
    return MIPResult(x=None, objective=math.inf, feasible=False)


def mip_plan(model: SuspendCostModel, budget: float = math.inf) -> SuspendPlan:
    """Solve the Section 5 MIP with HiGHS and decode the suspend plan."""
    pairs = sorted(model.links)
    index = {pair: k for k, pair in enumerate(pairs)}
    n = len(pairs)

    # Objective: constant Σ(d_s + d_r) plus per-variable deltas.
    c = np.zeros(n)
    for (i, j), k in index.items():
        c[k] = (
            model.g_s[(i, j)]
            + model.g_r[(i, j)]
            - model.d_s[i]
            - model.d_r[i]
        )

    coo_rows: list[int] = []
    coo_cols: list[int] = []
    coo_vals: list[float] = []
    rhs: list[float] = []

    def add_row(coeffs: dict[int, float], bound: float) -> None:
        row_idx = len(rhs)
        for k, v in coeffs.items():
            coo_rows.append(row_idx)
            coo_cols.append(k)
            coo_vals.append(v)
        rhs.append(bound)

    for i in model.op_ids:
        anchors = model.anchors_of(i)
        # (3): at most one anchor.
        if anchors:
            add_row({index[(i, j)]: 1.0 for j in anchors}, 1.0)
        parent = model.parent.get(i)
        if parent is None:
            continue
        parent_anchors = set(model.anchors_of(parent))
        for j in anchors:
            if j == i:
                # (5): own chain only under a dumping parent.
                coeffs = {index[(i, i)]: 1.0}
                for pj in parent_anchors:
                    coeffs[index[(parent, pj)]] = 1.0
                add_row(coeffs, 1.0)
            else:
                # (4): chain must pass through the parent.
                if (parent, j) in index:
                    add_row(
                        {index[(i, j)]: 1.0, index[(parent, j)]: -1.0}, 0.0
                    )
                else:
                    add_row({index[(i, j)]: 1.0}, 0.0)  # unreachable chain
        # (6): forced propagation when dumping is invalid under chain j.
        for pj in parent_anchors:
            if pj == parent and parent == i:
                continue
            if (i, pj) in model.cannot_dump_under:
                if (i, pj) in index:
                    add_row(
                        {
                            index[(parent, pj)]: 1.0,
                            index[(i, pj)]: -1.0,
                        },
                        0.0,
                    )
                else:
                    # The operator can neither dump nor join chain pj:
                    # the parent must not anchor there at all.
                    add_row({index[(parent, pj)]: 1.0}, 0.0)

    # (7): suspend budget.
    if budget != math.inf:
        coeffs = {}
        for (i, j), k in index.items():
            coeffs[k] = model.g_s[(i, j)] - model.d_s[i]
        bound = budget - sum(model.d_s.values())
        add_row(coeffs, bound)

    a_ub = sparse.csr_matrix(
        (coo_vals, (coo_rows, coo_cols)), shape=(len(rhs), n)
    )
    result = solve_binary_program(c, a_ub, np.array(rhs))
    if not result.feasible:
        raise SuspendBudgetInfeasibleError(
            f"no valid suspend plan fits within budget {budget}"
        )

    decisions: dict[int, OpDecision] = {}
    for i in model.op_ids:
        chosen = None
        for j in model.anchors_of(i):
            if result.x[index[(i, j)]] > 0.5:
                chosen = j
                break
        if chosen is None:
            decisions[i] = OpDecision.dump()
        else:
            decisions[i] = OpDecision.goback(chosen)
    plan = SuspendPlan(decisions=decisions, source="mip")
    validate_suspend_plan(plan, model.topology())
    return plan


def enumerate_valid_plans(model: SuspendCostModel) -> Iterator[SuspendPlan]:
    """Yield every valid suspend plan (exponential; small plans only)."""
    children_of: dict[Optional[int], list[int]] = {}
    for i in model.op_ids:
        children_of.setdefault(model.parent.get(i), []).append(i)
    root = children_of[None][0]

    def options(i: int, chain: Optional[int]) -> list[OpDecision]:
        opts = []
        if chain is None:
            opts.append(OpDecision.dump())
            if (i, i) in model.links:
                opts.append(OpDecision.goback(i))
        else:
            if (i, chain) in model.links:
                opts.append(OpDecision.goback(chain))
            if (i, chain) not in model.cannot_dump_under:
                opts.append(OpDecision.dump())
        return opts

    def assign(
        todo: list[tuple[int, Optional[int]]], acc: dict[int, OpDecision]
    ) -> Iterator[dict[int, OpDecision]]:
        if not todo:
            yield dict(acc)
            return
        (i, chain), rest = todo[0], todo[1:]
        for decision in options(i, chain):
            acc[i] = decision
            child_chain = (
                decision.goback_anchor
                if decision.strategy is Strategy.GOBACK
                else None
            )
            child_todo = [
                (child, child_chain) for child in children_of.get(i, [])
            ]
            yield from assign(child_todo + rest, acc)
            del acc[i]

    for decisions in assign([(root, None)], {}):
        if len(decisions) == len(model.op_ids):
            plan = SuspendPlan(decisions=decisions, source="exhaustive")
            validate_suspend_plan(plan, model.topology())
            yield plan


def exhaustive_best_plan(
    model: SuspendCostModel, budget: float = math.inf
) -> SuspendPlan:
    """Brute-force optimum over :func:`enumerate_valid_plans`."""
    best = None
    best_cost = math.inf
    for plan in enumerate_valid_plans(model):
        cost = estimate_plan_cost(plan, model)
        if cost.suspend > budget + 1e-9:
            continue
        if cost.total < best_cost - 1e-12:
            best_cost = cost.total
            best = plan
    if best is None:
        raise SuspendBudgetInfeasibleError(
            f"no valid suspend plan fits within budget {budget}"
        )
    return best


def tuple_key(*columns):
    """The generator-built sort key: a tuple of ``columns`` (a 1-tuple
    for one column), in place of ``operator.itemgetter(*columns)``."""

    def sort_key(row):
        return tuple(row[i] for i in columns)

    return sort_key


def linear_scan_next_batch(sort, max_rows: int) -> list:
    """``TwoPhaseMergeSort._next_batch`` as a scan of every sublist head
    per row: the minimum key wins, the lowest sublist on a tie. Only the
    sublist just advanced is re-peeked, at the top of the next iteration,
    so a page crossed by a batch's last row is charged by the next call.
    """
    if sort.phase == PHASE_BUILD:
        sort._run_build()
    readers = sort._readers
    sort_key = tuple_key(*sort.key_columns)
    out: list = []
    heads: list = []
    for r in readers:
        row = r.peek()  # may charge a page read
        heads.append((sort_key(row), row) if row is not None else None)
    dirty = -1
    need = max_rows
    while need > 0:
        if dirty >= 0:
            row = readers[dirty].peek()
            heads[dirty] = (sort_key(row), row) if row is not None else None
            dirty = -1
        best = None
        best_i = -1
        for i, h in enumerate(heads):
            if h is not None and (best is None or h[0] < best[0]):
                best = h
                best_i = i
        if best_i < 0:
            break
        out.append(best[1])
        readers[best_i].index += 1
        dirty = best_i
        need -= 1
    sort.tuples_emitted += len(out)
    sort.charge_cpu(2 * len(out))  # the merge charge + the wrapper charge
    return out


def row_probe_next_batch(join, max_rows: int) -> list:
    """``SimpleHashJoin._next_batch`` as a probe of one row at a time:
    each probe row's key is looked up in the hash table, a probe page is
    read where the cursor steps onto it, and a match list is emitted
    through ``_emit_matches`` before the probe moves on."""
    out: list = []
    if join.phase == PHASE_DONE:
        return out
    if join.phase == PHASE_PARTITION:
        join._run_partition_phase()
    disk = join.rt.disk
    right_key = compile_right_key(join.condition)
    need = max_rows
    crun = 0
    while need > 0:
        em = join._emit_matches
        if em is not None:
            pos = join._emit_pos
            avail = len(em) - pos
            if avail > 0:
                take = min(avail, need)
                probe_row = join._emit_probe_row
                out.extend([b + probe_row for b in em[pos:pos + take]])
                join._emit_pos = pos + take
                join.tuples_emitted += take
                crun += take
                need -= take
                if need == 0:
                    break
            join._emit_matches = None
        found = False
        if join.current_partition >= 0:
            probe_rows = join._probe_rows
            pos = join.probe_pos
            ht_get = join._hash_table.get
            mem = join._is_memory_partition(join.current_partition)
            tpp = join.probe.tuples_per_page
            while pos < len(probe_rows):
                probe_row = probe_rows[pos]
                pos += 1
                if not mem and pos % tpp == 1:
                    with join.attribute_work():
                        disk.read_pages(1)
                matches = ht_get(right_key(probe_row))
                if matches:
                    crun += 1  # the match charge
                    join._emit_matches = matches
                    join._emit_pos = 0
                    join._emit_probe_row = probe_row
                    found = True
                    break
            join.probe_pos = pos
        if found:
            continue
        if out:
            break
        if not join._advance_partition():
            join.phase = PHASE_DONE
            break
    join.charge_cpu(crun)
    return out


def row_fold_load_partition(agg, p: int) -> None:
    """``HashGroupAggregate._load_partition`` folding one row at a time
    through the compiled key and fold closures."""
    rows = agg.input.rows(p)
    pages = math.ceil(len(rows) / agg.input.tuples_per_page)
    with agg.attribute_work():
        agg.rt.disk.read_pages(pages)
    key_of = compile_projection(agg.group_columns)
    fold = compile_fold(agg.agg_func, agg.agg_column)
    aggregates: dict = {}
    get = aggregates.get
    for row in rows:
        key = key_of(row)
        aggregates[key] = fold(get(key), row)
    agg.charge_cpu(len(rows))
    agg._groups = [key + (value,) for key, value in aggregates.items()]
    agg.emit_idx = 0


def row_fused_scan(scan, filt, limit: int) -> list:
    """``repro.engine.scan.fused_scan`` testing the filter's predicate
    one row at a time, stopping at the ``limit``-th match."""
    controller = scan.rt.controller
    cursor = scan._cursor
    pred = filt.predicate.matches if filt is not None else None
    out: list = []
    need = limit
    while need > 0:
        room = sys.maxsize
        if controller.armed:
            room = controller.room(scan, "position", "emitted")
            if room < sys.maxsize:
                if out:
                    break
                controller.poll()
        page = cursor.loaded_page()
        if page is None:
            with scan.attribute_work():
                page = cursor.current_page()
            if page is None:
                break
        slot = cursor.slot
        if pred is None:
            rows = page[slot:slot + min(need, room)]
            examined = len(rows)
        else:
            rows = []
            examined = 0
            for row in page[slot:slot + room]:
                examined += 1
                if pred(row):
                    rows.append(row)
                    if len(rows) == need:
                        break
        cursor.advance(examined)
        scan.tuples_emitted += examined
        scan.charge_cpu(examined)
        if filt is not None:
            filt.tuples_emitted += len(rows)
            filt.charge_cpu(examined + len(rows))
        need -= len(rows)
        out += rows
    return out


def row_bulk_load(heapfile, rows) -> None:
    """``HeapFile.bulk_load`` one row at a time, as it was written
    before it cut pages by slicing."""
    for row in rows:
        if (
            not heapfile._pages
            or len(heapfile._pages[-1]) >= heapfile.tuples_per_page
        ):
            heapfile._pages.append([])
        heapfile._pages[-1].append(row)
        heapfile._num_tuples += 1
