"""Sharded execution with a globally consistent suspend and resume.

Runs the shuffle-join and aggregation recipes on two shard workers, cuts
every shard at once halfway through the output (one consistent-cut shard
set committed to an image root), resumes from that cut, and checks two
things per recipe:

- ``cut_consistent``: the rows delivered before the cut plus the rows
  after the resume equal an uninterrupted sharded run, in order;
- ``output_equal``: the sharded output equals the single-engine run as a
  multiset.

Run:  python examples/sharded_cut.py
"""

import tempfile

from repro import QuerySession
from repro.durability import build_recipe
from repro.harness import format_table
from repro.shard import ShardCoordinator

SHARDS = 2
SCALE = 4
SEED = 1
#: A small quantum guarantees a pass boundary (a legal cut point)
#: mid-drain even for low-cardinality outputs like the aggregate.
QUANTUM = 4


def coordinator(recipe):
    db, plan = build_recipe(recipe, scale=SCALE, seed=SEED)
    return ShardCoordinator(
        db, plan, num_shards=SHARDS, quantum_rows=QUANTUM
    )


def main():
    table = []
    for recipe in ("hashjoin", "hashagg"):
        db, plan = build_recipe(recipe, scale=SCALE, seed=SEED)
        single_rows = QuerySession(db, plan, name=recipe).execute().rows
        single_time = db.now

        full = coordinator(recipe)
        full_rows = full.run()

        coord = coordinator(recipe)
        before = coord.run(max_rows=max(1, len(full_rows) // 2))
        assert not coord.done, f"{recipe} finished before the cut point"
        with tempfile.TemporaryDirectory() as root:
            report = coord.suspend_global(root)
            db, _ = build_recipe(recipe, scale=SCALE, seed=SEED)
            after = ShardCoordinator.resume(db, root, report.gid).run()

        table.append(
            {
                "recipe": recipe,
                "rows": len(full_rows),
                "single_time": round(single_time, 1),
                "sharded_time": round(full.global_now(), 1),
                "suspend_latency": round(report.latency, 1),
                "cut_consistent": "yes" if before + after == full_rows else "NO",
                "output_equal": (
                    "yes" if sorted(full_rows) == sorted(single_rows) else "NO"
                ),
            }
        )
    print(f"sharded workload: {SHARDS} shards, scale {SCALE}\n")
    print(format_table(table, title="sharded vs single-engine (virtual time)"))
    for row in table:
        assert row["cut_consistent"] == "yes", f"{row['recipe']}: cut diverged"
        assert row["output_equal"] == "yes", f"{row['recipe']}: output differs"


if __name__ == "__main__":
    main()
