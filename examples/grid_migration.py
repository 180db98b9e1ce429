"""Grid migration: suspend a query here, resume it in another process.

The paper's utility/Grid scenario (Section 1): when the owner of the
resources wants them back, the running query must release them quickly
and migrate elsewhere. A durable suspend image (`repro.durability`) is
the real-world version of that migration: node A commits the suspended
query — control record, suspend plan, every dumped payload — to a
checksummed on-disk image, and node B (a genuinely separate interpreter,
spawned here as a subprocess) rebuilds the same base tables from the
image's recipe metadata, loads the image, and finishes the query.

Run:  python examples/grid_migration.py
"""

import json
import os
import subprocess
import sys
import tempfile

from repro.core.lifecycle import QuerySession, SuspendSpec, SuspendStrategy
from repro.durability import ImageStore, build_recipe

RECIPE = "smj"  # sort-merge join: two external sorts' state in the image
ROWS_BEFORE_MIGRATION = 150


def main():
    # Reference output for verification.
    db, plan = build_recipe(RECIPE)
    reference = QuerySession(db, plan).execute().rows

    # Node A runs until the resource owner reclaims the machine.
    node_a, plan = build_recipe(RECIPE)
    session = QuerySession(node_a, plan)
    first = session.execute(max_rows=ROWS_BEFORE_MIGRATION)
    print(f"node A produced {len(first.rows)} rows; owner reclaims resources")

    # Suspend under a tight budget (migration must be quick) and commit
    # the result as a durable image; the recipe metadata lets any process
    # rebuild the identical base tables.
    image_root = tempfile.mkdtemp(prefix="grid-images-")
    session.suspend(
        SuspendSpec(
            strategy=SuspendStrategy.LP,
            budget=50.0,
            persist_to=image_root,
            image_meta={"recipe": RECIPE, "scale": 1, "seed": 0},
        )
    )
    info = session.last_image
    print(
        f"suspend cost {session.last_suspend_cost:.1f} units; image "
        f"{info.image_id} committed: {info.total_bytes:,} bytes on disk "
        f"({info.num_blobs} payload blobs, {info.blob_pages} pages)"
    )

    # Node B is a separate interpreter: resume from nothing but the image.
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "resume-image",
            "--images",
            image_root,
            "--id",
            info.image_id,
            "--json",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(out.stdout)
    rest = [tuple(r) for r in result["rows"]]
    print(
        f"node B (pid of a fresh interpreter) resume cost "
        f"{result['resume_cost']:.1f} units, finished with {len(rest)} more rows"
    )

    combined = first.rows + rest
    assert combined == reference, (
        f"migrated output diverged: {len(combined)} vs {len(reference)} rows"
    )
    print("combined output verified identical to an uninterrupted run")


if __name__ == "__main__":
    main()
