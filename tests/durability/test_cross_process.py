"""Cross-process round trips: suspend in one interpreter, resume in another.

This is the acceptance test for the durability subsystem: the CLI's
``suspend`` subcommand runs a recipe partway and commits an image in one
Python process; ``resume-image`` is then run in a *brand-new* interpreter
that rebuilds the recipe's database from the image metadata and finishes
the query. The concatenated output must equal an uninterrupted run —
for every stateful plan shape (external sort, hash join, hash
aggregation).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.lifecycle import QuerySession
from repro.durability import build_recipe
from tests.conftest import leave_torn_image

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

SHAPES = ("sort", "hashjoin", "hashagg")


def run_python(*argv: str) -> str:
    """Stdout of a fresh interpreter with this checkout on its path."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        REPO_SRC if not existing else REPO_SRC + os.pathsep + existing
    )
    out = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def run_cli(*argv: str) -> str:
    return run_python("-m", "repro.cli", *argv)


@pytest.mark.parametrize("recipe", SHAPES)
def test_cross_process_round_trip(recipe, tmp_path):
    db, plan = build_recipe(recipe)
    reference = QuerySession(db, plan).execute().rows
    rows_before = max(1, len(reference) // 4)

    suspended = json.loads(
        run_cli(
            "suspend",
            "--recipe",
            recipe,
            "--images",
            str(tmp_path),
            "--rows",
            str(rows_before),
            "--json",
        )
    )
    prefix = [tuple(r) for r in suspended["rows"]]
    assert len(prefix) == rows_before

    resumed = json.loads(
        run_cli(
            "resume-image",
            "--images",
            str(tmp_path),
            "--id",
            suspended["image_id"],
            "--json",
        )
    )
    rest = [tuple(r) for r in resumed["rows"]]
    assert prefix + rest == reference
    assert resumed["resume_cost"] > 0


def test_images_listing_and_recover_cli(tmp_path):
    suspended = json.loads(
        run_cli(
            "suspend",
            "--recipe",
            "sort",
            "--images",
            str(tmp_path),
            "--rows",
            "30",
            "--json",
        )
    )
    listing = json.loads(run_cli("images", "--images", str(tmp_path), "--json"))
    assert [i["image_id"] for i in listing["images"]] == [
        suspended["image_id"]
    ]
    assert listing["images"][0]["valid"]

    # Crash a commit next to it; the recover subcommand quarantines.
    leave_torn_image(tmp_path, "halfdone")
    report = json.loads(
        run_cli("images", "--images", str(tmp_path), "--recover", "--json")
    )
    assert report["committed"] == [suspended["image_id"]]
    assert report["torn"] == ["halfdone"]


#: Run in a fresh interpreter that has only ever *loaded* ``base``:
#: resume, run a little, commit a delta; print the delta's blob table.
DELTA_AFTER_LOAD = """
import json, sys
from repro.core.lifecycle import QuerySession, SuspendSpec
from repro.durability import ImageStore, build_recipe

store = ImageStore(sys.argv[1])
db, _ = build_recipe("hashjoin")
session = QuerySession.resume(db, store.load("base"), name="hashjoin")
rows = session.execute(max_rows=20).rows
session.suspend(
    SuspendSpec(persist_to=store, image_id="delta", base_image_id="base")
)
print(json.dumps({"blobs": store.manifest("delta")["blobs"], "rows": rows}))
"""


def test_mid_probe_hash_join_across_processes(tmp_path):
    """Partition sections are a pure function of the query: two processes
    write identical image bytes, and a third that only loaded the image
    references every one of them from its delta."""
    from repro.durability import ImageStore
    from repro.durability.format import CONTROL_NAME_V2

    prefixes = []
    for root in (tmp_path / "a", tmp_path / "b"):
        suspended = json.loads(
            run_cli(
                "suspend", "--recipe", "hashjoin", "--images", str(root),
                "--rows", "1500", "--id", "base", "--json",
            )
        )
        store = ImageStore(str(root))
        control = store.manifest("base")["files"][CONTROL_NAME_V2]
        with open(store.info("base").path, "rb") as fh:
            prefixes.append(fh.read(control["offset"] + control["bytes"]))
    assert prefixes[0] == prefixes[1] and prefixes[0]
    partitions = {
        b["key"] for b in store.manifest("base")["blobs"] if "/hj_" in b["key"]
    }
    assert len(partitions) >= 4

    delta = json.loads(
        run_python("-c", DELTA_AFTER_LOAD, str(tmp_path / "b"))
    )
    carried = [b for b in delta["blobs"] if "hj_" in b["key"]]
    assert carried and all(
        b.get("ref", {}).get("image_id") == "base" for b in carried
    )
    # Only heap state (the current partition's hash table) was written.
    assert len(delta["blobs"]) - len(carried) <= 1
    assert store.validate("delta") == []

    db, plan = build_recipe("hashjoin")
    reference = QuerySession(db, plan).execute().rows
    rest = QuerySession.resume(
        build_recipe("hashjoin")[0], store.load("delta")
    ).execute().rows
    got = [tuple(r) for r in suspended["rows"] + delta["rows"]] + rest
    assert got == reference
