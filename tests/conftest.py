"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro import Database, QuerySession, SuspendSpec
from repro.durability import (
    FaultInjector,
    ImageStore,
    InjectedCrash,
    build_recipe,
)
from repro.engine.plan import (
    FilterSpec,
    MergeJoinSpec,
    NLJSpec,
    ScanSpec,
    SortSpec,
)
from repro.relational.datagen import BASE_SCHEMA, generate_uniform_table
from repro.relational.expressions import EquiJoinCondition, UniformSelect

#: ``--hypothesis-profile=ci``: ten times hypothesis's default example
#: count, for the properties that take their count from the profile
#: (``tests/engine/test_compiled_passes.py``,
#: ``tests/durability/test_codec2.py``, and the persisted, token-hopped
#: and one-row-requests modes of ``tests/properties/test_differential.py``).
#: Tier-1 runs keep the default profile.
settings.register_profile(
    "ci", max_examples=10 * settings.get_profile("default").max_examples
)


def make_small_db(r_tuples: int = 300, s_tuples: int = 200) -> Database:
    """A database with two small deterministic tables R and S."""
    db = Database()
    db.create_table("R", BASE_SCHEMA, generate_uniform_table(r_tuples, seed=1))
    db.create_table("S", BASE_SCHEMA, generate_uniform_table(s_tuples, seed=2))
    return db


def tiny_nlj_plan(
    selectivity: float = 0.5, buffer_tuples: int = 40, modulus: int = 40
) -> NLJSpec:
    """NLJ(filter(scan R), scan S) used across the engine tests."""
    return NLJSpec(
        outer=FilterSpec(
            ScanSpec("R", label="scan_R"),
            UniformSelect(1, selectivity),
            label="filter",
        ),
        inner=ScanSpec("S", label="scan_S"),
        condition=EquiJoinCondition(0, 0, modulus=modulus),
        buffer_tuples=buffer_tuples,
        label="nlj",
    )


def tiny_smj_plan(selectivity: float = 0.6) -> MergeJoinSpec:
    """MJ(sort(filter(scan R)), sort(scan S)) on exact key equality."""
    return MergeJoinSpec(
        left=SortSpec(
            FilterSpec(
                ScanSpec("R", label="scan_R"),
                UniformSelect(1, selectivity),
                label="filter",
            ),
            key_columns=(0,),
            buffer_tuples=50,
            label="sort_R",
        ),
        right=SortSpec(
            ScanSpec("S", label="scan_S"),
            key_columns=(0,),
            buffer_tuples=60,
            label="sort_S",
        ),
        condition=EquiJoinCondition(0, 0),
        label="mj",
    )


def reference_rows(db_factory, plan) -> list:
    """Output of an uninterrupted run."""
    db = db_factory()
    return QuerySession(db, plan).execute().rows


def suspend_resume_rows(
    db_factory, plan, point: int, strategy: str, **suspend_kwargs
) -> list:
    """Output of run-to-point, suspend, resume, run-to-completion.

    Returns None when the query completed before the suspend point.
    """
    db = db_factory()
    session = QuerySession(db, plan)
    first = session.execute(max_rows=point)
    if session.status.value == "completed":
        return None
    sq = session.suspend(SuspendSpec(strategy=strategy, **suspend_kwargs))
    resumed = QuerySession.resume(db, sq)
    rest = resumed.execute()
    return first.rows + rest.rows


def resume_to_end(db, sq):
    """Resume ``sq`` on ``db`` and run it to the end: its rows and the
    ``IOCounters`` the resume and the run charged. A resume costs the
    same whether ``sq`` is the in-place query or its loaded image."""
    before = db.disk.counters.snapshot()
    session = QuerySession.resume(db, sq)
    rows = session.execute().rows
    session.close()
    return rows, db.disk.counters.minus(before)


def leave_torn_image(
    root, image_id: str = "torn", label: str = "control", recipe: str = "sort"
) -> None:
    """Crash a real image commit mid-write, through the fault injector.

    Leaves under ``root`` exactly what the commit protocol leaves when
    the process dies inside ``label`` (a blob, ``control``, ``manifest``
    or ``trailer``) — tests never fabricate torn images by file name.
    """
    db, plan = build_recipe(recipe)
    session = QuerySession(db, plan)
    session.execute(max_rows=50)
    sq = session.suspend()
    store = ImageStore(str(root), injector=FaultInjector.tearing(label))
    with pytest.raises(InjectedCrash):
        store.save(sq, db.state_store, image_id=image_id)


def record_device_calls(monkeypatch) -> list:
    """Patch ``os.fsync`` / ``os.replace`` to log ``"fsync"`` /
    ``"rename"`` into the returned list, in call order."""
    calls: list = []
    real_fsync, real_replace = os.fsync, os.replace
    monkeypatch.setattr(
        os, "fsync", lambda fd: (calls.append("fsync"), real_fsync(fd))[1]
    )
    monkeypatch.setattr(
        os,
        "replace",
        lambda a, b: (calls.append("rename"), real_replace(a, b))[1],
    )
    return calls


def flip_byte(store, image_id: str, name: str) -> None:
    """Corrupt one byte in the middle of a committed image's ``name``d
    file (a blob or the control record), located through the manifest."""
    manifest = store.manifest(image_id)
    entry = manifest["files"][name]
    with open(store.info(image_id).path, "r+b") as fh:
        fh.seek(entry["offset"] + entry["bytes"] // 2)
        byte = fh.read(1)
        fh.seek(-1, 1)
        fh.write(bytes([byte[0] ^ 0x40]))
