"""Table 2: suspend-plan optimizer time vs plan size.

The paper: left-deep NLJ chains with table scans at the leaves — the
worst case for the number of MIP variables/constraints — timed at 11 to
101 operators (1.6 ms to 59 ms on their testbed). We report the same
series for the shipped solver: building the cost model from the live
runtime plus the exact tree DP over Pareto frontiers
(``optimizer.optimal_plan``), with the paper program's variable count
beside it. The expected *shape* is low-millisecond solves at small
plans growing polynomially with plan size, fast enough to run at
suspend time.
"""

import time

import pytest

from repro import QuerySession
from repro.core.costs import build_cost_model
from repro.core.optimizer import optimal_plan
from repro.harness import figures
from repro.harness.report import format_table
from repro.workloads import build_nlj_chain

from benchmarks.conftest import once, record_result

PLAN_SIZES = (11, 21, 41, 61, 81, 101)


def optimize_once(session):
    model = build_cost_model(session.runtime)
    plan = optimal_plan(model)
    return model, plan


def prepared_session(num_operators):
    db, plan = build_nlj_chain(num_operators)
    session = QuerySession(db, plan)
    session.execute(max_rows=2)  # populate buffers and checkpoints
    return session


@pytest.fixture(scope="module")
def table2_rows():
    return figures.table2_rows(PLAN_SIZES)


def test_table2_series(benchmark, table2_rows):
    once(benchmark, lambda: table2_rows)
    text = format_table(
        table2_rows,
        title="Table 2 - optimizer time vs plan size (left-deep NLJ chains)",
    )
    record_result("table2_optimizer_time", text)
    times = [r["optimize_ms"] for r in table2_rows]
    # Shape: monotone-ish growth, still sub-second at 101 operators.
    assert times[-1] > times[0]
    assert times[-1] < 5_000


@pytest.mark.parametrize("k", PLAN_SIZES)
def test_optimizer_time(benchmark, k, table2_rows):
    session = prepared_session(k)
    benchmark(lambda: optimize_once(session))
