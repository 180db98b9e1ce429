"""Properties of the sharded execution subsystem on the ``hashjoin`` and
``hashagg`` recipes, through the sharded mode of the differential
harness (``test_differential.py``).

1. Sharded output equals single-engine output (as a multiset, for any
   shard count) and delivery is deterministic for a fixed configuration.
2. A global suspend at *any* pass boundary resumes to delivery
   byte-identical to the uninterrupted sharded run, and two identical
   runs cut at the same boundary commit identical bytes (modulo the
   commit time in each image's manifest).
"""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import build_recipe
from repro.shard import ShardCoordinator

from tests.properties.test_differential import SLOW, check_sharded


@dataclass(frozen=True)
class Recipe:
    """A recipe at scale 4 in the shape of a harness ``Case``."""

    name: str

    def db(self):
        return build_recipe(self.name, scale=4)[0]

    @property
    def plan(self):
        return build_recipe(self.name, scale=4)[1]


@settings(SLOW, max_examples=15)
@given(
    recipe=st.sampled_from(["hashjoin", "hashagg"]),
    shards=st.integers(min_value=1, max_value=5),
    quantum=st.sampled_from([4, 16, 64]),
)
def test_sharded_equals_single_engine(recipe, shards, quantum):
    case = Recipe(recipe)
    rows = check_sharded(case, shards, quantum, cut=0)
    # Delivery is deterministic: a second identical run matches exactly.
    again = ShardCoordinator(
        case.db(), case.plan, num_shards=shards, quantum_rows=quantum
    )
    assert again.run() == rows


#: Quanta at which each recipe takes at least two passes on any shard
#: count (the scale-4 aggregate has 16 groups: at quantum 16 it finishes
#: in its first pass and has no boundary to cut at).
CUT_QUANTA = {"hashjoin": [4, 16], "hashagg": [1, 2, 4]}


@settings(SLOW, max_examples=15)
@given(
    recipe=st.sampled_from(["hashjoin", "hashagg"]),
    shards=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_suspend_at_any_pass_boundary(recipe, shards, data):
    quantum = data.draw(st.sampled_from(CUT_QUANTA[recipe]), label="quantum")
    # ``cut`` picks any boundary before the pass that completes the query.
    cut = data.draw(st.integers(0, 10_000), label="cut")
    check_sharded(Recipe(recipe), shards, quantum, cut)
