"""Measuring suspend/resume overhead the way the paper does.

The two metrics of Section 6:

- *Total overhead time* — "the total amount of extra work done due to
  query suspend and resume". Measured here as the difference in simulated
  cost between (a) a run that suspends at the trigger, resumes, and
  continues to a milestone, and (b) an uninterrupted reference run to the
  same milestone. After the milestone both executions are identical, so
  the difference is exactly the extra work (suspend cost + resume cost +
  redone work - skipped work).
- *Total suspend time* — the simulated cost of the suspend phase alone
  (what the system pays before all resources are released).

The milestone is "the first root output tuple after the suspend point"
(or query completion when no such tuple exists), which keeps experiment
runtime small without altering either metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.errors import LifecycleError
from repro.core.lifecycle import (
    QuerySession,
    QueryStatus,
    SuspendSpec,
    SuspendStrategy,
)
from repro.core.strategies import SuspendPlan
from repro.engine.config import EngineConfig
from repro.engine.plan import PlanSpec
from repro.engine.runtime import SuspendTrigger
from repro.storage.database import Database

WorkloadFactory = Callable[[], tuple[Database, PlanSpec]]


@dataclass
class OverheadResult:
    """Outcome of one suspend/resume overhead measurement."""

    strategy: str
    suspend_cost: float
    resume_cost: float
    total_overhead: float
    reference_cost: float
    suspend_plan: SuspendPlan
    rows_before_suspend: int


def run_reference_to_milestone(
    db: Database,
    plan: PlanSpec,
    trigger: SuspendTrigger,
    milestone_rows: int = 1,
    config: Optional[EngineConfig] = None,
) -> tuple[float, int]:
    """Cost of an uninterrupted run to the milestone.

    Returns (simulated cost, rows produced up to the suspend point).
    """
    session = QuerySession(db, plan, config=config)
    start = db.now
    session.execute(suspend_when=trigger)
    rows_at_point = len(session.rows)
    if session.status is QueryStatus.SUSPEND_PENDING:
        session.status = QueryStatus.RUNNING
        session.execute(max_rows=milestone_rows)
    return db.now - start, rows_at_point


def measure_suspend_overhead(
    factory: WorkloadFactory,
    trigger: SuspendTrigger,
    strategy: str,
    budget: float = math.inf,
    milestone_rows: int = 1,
    config: Optional[EngineConfig] = None,
    reference_cost: Optional[float] = None,
) -> OverheadResult:
    """Measure suspend time and total overhead for one strategy.

    ``factory`` must return a *fresh* database and plan each call so the
    reference and experiment runs see identical physical state.
    ``reference_cost`` may be passed to reuse a previously measured
    reference (the factory must then be deterministic).
    """
    if reference_cost is None:
        db_ref, plan_ref = factory()
        reference_cost, _ = run_reference_to_milestone(
            db_ref, plan_ref, trigger, milestone_rows, config
        )

    db, plan = factory()
    session = QuerySession(db, plan, config=config)
    start = db.now
    result = session.execute(suspend_when=trigger)
    rows_before = len(session.rows)
    if session.status is not QueryStatus.SUSPEND_PENDING:
        raise LifecycleError(
            "suspend trigger never fired; the query ran to completion"
        )
    before_suspend = db.now
    sq = session.suspend(
        SuspendSpec(strategy=SuspendStrategy(strategy), budget=budget)
    )
    suspend_cost = db.now - before_suspend

    before_resume = db.now
    resumed = QuerySession.resume(db, sq, config=config)
    resume_cost = db.now - before_resume
    resumed.execute(max_rows=milestone_rows)
    total_cost = db.now - start

    return OverheadResult(
        strategy=strategy,
        suspend_cost=suspend_cost,
        resume_cost=resume_cost,
        total_overhead=total_cost - reference_cost,
        reference_cost=reference_cost,
        suspend_plan=sq.suspend_plan,
        rows_before_suspend=rows_before,
    )
