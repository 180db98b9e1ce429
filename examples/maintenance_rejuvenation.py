"""Software rejuvenation: reboot the DBMS without losing running queries.

One of the paper's motivating settings (Section 1): enterprise systems
are rebooted on a schedule to cure resource leaks, and predicting query
completion times is hard — so in-flight queries must be suspended within
a deadline, the process restarted, and the queries resumed afterwards.

This example runs several analytical queries to different depths,
suspends all of them under a per-query suspend budget, commits each as a
durable suspend image (control record plus every payload it references:
self-contained), "reboots" into a fresh process image whose disk still
holds the database and the image root, and resumes every query to
completion from its image.

Run:  python examples/maintenance_rejuvenation.py
"""

import shutil
import tempfile

from repro import (
    Database,
    FilterSpec,
    GroupAggSpec,
    ImageStore,
    NLJSpec,
    QuerySession,
    ScanSpec,
    SortSpec,
    SuspendSpec,
    SuspendStrategy,
)
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import EquiJoinCondition, UniformSelect


def build_database():
    """The 'persistent disk': rebuilt identically across the reboot."""
    db = Database()
    db.create_table("sales", BASE_SCHEMA, generate_uniform_table(12_000, seed=21))
    db.create_table("stores", BASE_SCHEMA, generate_uniform_table(1_200, seed=22))
    return db


QUERIES = {
    "q_join": NLJSpec(
        outer=FilterSpec(ScanSpec("sales"), UniformSelect(1, 0.3), label="f1"),
        inner=ScanSpec("stores"),
        condition=EquiJoinCondition(0, 0, modulus=300),
        buffer_tuples=1_500,
        label="join",
    ),
    "q_agg": GroupAggSpec(
        child=SortSpec(
            FilterSpec(ScanSpec("sales"), UniformSelect(1, 0.5), label="f2"),
            key_columns=(0,),
            buffer_tuples=1_500,
            label="sort",
        ),
        group_columns=(0,),
        agg_func="count",
        agg_column=0,
        label="agg",
    ),
    "q_sort": SortSpec(
        FilterSpec(ScanSpec("sales"), UniformSelect(1, 0.8), label="f3"),
        key_columns=(1, 0),
        buffer_tuples=2_000,
        label="bigsort",
    ),
}

PROGRESS = {"q_join": 400, "q_agg": 300, "q_sort": 1_000}


def main():
    references = {
        name: QuerySession(build_database(), plan).execute().rows
        for name, plan in QUERIES.items()
    }

    # --- Before the maintenance window: queries are mid-flight. --------
    db = build_database()
    sessions = {}
    partials = {}
    for name, plan in QUERIES.items():
        session = QuerySession(db, plan)
        partials[name] = session.execute(max_rows=PROGRESS[name]).rows
        sessions[name] = session
    print("maintenance window opens; suspending in-flight queries:")

    # --- Suspend everything within a budget and commit the images. -----
    image_root = tempfile.mkdtemp(prefix="rejuvenation-images-")
    deadline_budget = 40.0
    for name, session in sessions.items():
        sq = session.suspend(
            SuspendSpec(strategy=SuspendStrategy.LP, budget=deadline_budget)
        )
        info = ImageStore(image_root).save(sq, db.state_store, image_id=name)
        print(
            f"  {name}: suspended in {session.last_suspend_cost:6.1f} units, "
            f"{info.total_bytes:,} bytes saved"
        )

    # --- Reboot: the old process image is gone. ------------------------
    del db, sessions
    print("rebooting the DBMS ...")
    fresh_db = build_database()
    images = ImageStore(image_root)

    # --- Resume every query on the rejuvenated instance. ---------------
    print("resuming:")
    for name in QUERIES:
        sq = images.load(name)
        resumed = QuerySession.resume(fresh_db, sq)
        rest = resumed.execute().rows
        combined = partials[name] + rest
        ok = combined == references[name]
        print(
            f"  {name}: +{len(rest)} rows after reboot "
            f"({'verified' if ok else 'MISMATCH'})"
        )
        assert ok
    print("all queries completed with no lost work across the reboot")
    shutil.rmtree(image_root)


if __name__ == "__main__":
    main()
