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


def run_cli(*argv: str) -> str:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        REPO_SRC if not existing else REPO_SRC + os.pathsep + existing
    )
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


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
