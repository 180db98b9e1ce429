"""Properties of the sharded execution subsystem.

1. Sharded output equals single-engine output (as a multiset, for any
   shard count) and delivery is deterministic for a fixed configuration.
2. A global suspend at *any* pass boundary resumes to delivery
   byte-identical to the uninterrupted sharded run, and the per-shard
   images (plus the shard-set) it commits are byte-deterministic: two
   identical runs cut at the same boundary produce identical bytes,
   modulo the commit time in each packed image's manifest.
"""

import hashlib
import json
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.lifecycle import QuerySession
from repro.durability import build_recipe
from repro.durability.format import IMAGE_SUFFIX, TRAILER
from repro.shard import ShardCoordinator

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_coordinator(recipe, shards, quantum_rows):
    db, plan = build_recipe(recipe, scale=4)
    return ShardCoordinator(
        db, plan, num_shards=shards, quantum_rows=quantum_rows
    )


def root_fingerprint(root):
    """Hash of every committed byte under an image root, keyed by path.

    A packed image's manifest carries the wall-clock commit time by
    design; it is the only field allowed to differ between identical
    runs (and with it the trailer's checksum of the manifest).
    """
    fingerprint = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith(IMAGE_SUFFIX):
                at, length, _, _ = TRAILER.unpack(data[-TRAILER.size :])
                doc = json.loads(data[at : at + length])
                doc.pop("created_ns")
                data = data[:at] + json.dumps(doc, sort_keys=True).encode()
            rel = os.path.relpath(path, root)
            fingerprint[rel] = hashlib.sha256(data).hexdigest()
    return fingerprint


@SLOW
@given(
    recipe=st.sampled_from(["hashjoin", "hashagg"]),
    shards=st.integers(min_value=1, max_value=5),
    quantum=st.sampled_from([4, 16, 64]),
)
def test_sharded_equals_single_engine(recipe, shards, quantum):
    db, plan = build_recipe(recipe, scale=4)
    single = sorted(QuerySession(db, plan).execute().rows)
    rows = make_coordinator(recipe, shards, quantum).run()
    assert sorted(rows) == single
    # Delivery is deterministic: a second identical run matches exactly.
    assert make_coordinator(recipe, shards, quantum).run() == rows


#: Quanta at which each recipe takes at least two passes on any shard
#: count (the scale-4 aggregate has 16 groups: at quantum 16 it finishes
#: in its first pass and has no boundary to cut at).
CUT_QUANTA = {"hashjoin": [4, 16], "hashagg": [1, 2, 4]}


@SLOW
@given(
    recipe=st.sampled_from(["hashjoin", "hashagg"]),
    shards=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_suspend_at_any_pass_boundary(recipe, shards, data, tmp_path_factory):
    quantum = data.draw(st.sampled_from(CUT_QUANTA[recipe]), label="quantum")
    uncut = make_coordinator(recipe, shards, quantum)
    passes = 0
    while not uncut.done:
        uncut.run_pass()
        passes += 1
    full = list(uncut.output_rows)
    # Every boundary before the pass that completes the query is a legal
    # cut point; draw one of those, never one to be filtered out.
    cut_pass = data.draw(st.integers(1, passes - 1), label="cut_pass")

    def run_to_boundary():
        coord = make_coordinator(recipe, shards, quantum)
        for _ in range(cut_pass):
            coord.run_pass()
        assert not coord.done
        return coord

    coord = run_to_boundary()
    before = list(coord.output_rows)

    root_a = str(tmp_path_factory.mktemp("cut-a"))
    coord.suspend_global(root_a, gid="prop")

    # Byte-determinism: the identical run cut at the identical boundary
    # commits identical bytes (modulo the manifest wall-clock stamp).
    twin = run_to_boundary()
    root_b = str(tmp_path_factory.mktemp("cut-b"))
    twin.suspend_global(root_b, gid="prop")
    assert root_fingerprint(root_a) == root_fingerprint(root_b)

    db, _ = build_recipe(recipe, scale=4)
    resumed = ShardCoordinator.resume(db, root_a, "prop")
    assert before + resumed.run() == full
