"""Quickstart: execute, suspend, and resume a query.

Builds a small database, runs a filtered nested-loop join, suspends it
mid-flight with the online (LP) suspend-plan optimizer, and resumes it —
demonstrating that the resumed query continues exactly where it stopped.

Run:  python examples/quickstart.py
"""

from repro import (
    Database,
    FilterSpec,
    NLJSpec,
    QuerySession,
    ScanSpec,
    SuspendSpec,
    SuspendStrategy,
    SuspendTrigger,
)
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import EquiJoinCondition, UniformSelect


def main():
    # 1. A database with two tables (loading is uncharged setup work).
    db = Database()
    db.create_table("orders", BASE_SCHEMA, generate_uniform_table(5_000, seed=1))
    db.create_table("parts", BASE_SCHEMA, generate_uniform_table(1_000, seed=2))

    # 2. A physical plan: NLJ( filter(scan orders), scan parts ).
    plan = NLJSpec(
        outer=FilterSpec(
            ScanSpec("orders", label="scan_orders"),
            UniformSelect(1, 0.4),
            label="filter",
        ),
        inner=ScanSpec("parts", label="scan_parts"),
        condition=EquiJoinCondition(0, 0, modulus=200),
        buffer_tuples=500,
        label="join",
    )

    # 3. Execute until the join's outer buffer is half full, then stop at
    # the next safe point (the paper's "suspend exception").
    session = QuerySession(db, plan)
    result = session.execute(
        suspend_when=SuspendTrigger("join", "fill", 250)
    )
    print(f"produced {len(result.rows)} rows before the suspend request")
    print(f"join buffer holds {session.op_named('join').buffer_fill()} tuples")

    # 4. Suspend. The online optimizer picks DumpState or GoBack per
    # operator from exact runtime state; all resources are then released.
    sq = session.suspend(SuspendSpec(strategy=SuspendStrategy.LP))
    print("\nchosen suspend plan:")
    print(sq.suspend_plan.describe({0: "join", 1: "filter",
                                    2: "scan_orders", 3: "scan_parts"}))
    print(f"suspend cost: {session.last_suspend_cost:.1f} simulated time units")

    # 5. Resume later: the next tuple is exactly the one after the last
    # delivered before suspension.
    resumed = QuerySession.resume(db, sq)
    print(f"resume cost: {resumed.last_resume_cost:.1f} simulated time units")
    rest = resumed.execute()
    total = len(result.rows) + len(rest.rows)
    print(f"\nresumed and finished: {len(rest.rows)} more rows, {total} total")

    # 6. Verify against an uninterrupted run.
    db2 = Database()
    db2.create_table("orders", BASE_SCHEMA, generate_uniform_table(5_000, seed=1))
    db2.create_table("parts", BASE_SCHEMA, generate_uniform_table(1_000, seed=2))
    reference = QuerySession(db2, plan).execute().rows
    assert result.rows + rest.rows == reference
    print("output verified identical to an uninterrupted run")


if __name__ == "__main__":
    main()
