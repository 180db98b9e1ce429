"""Unit tests for the tagged-JSON value codec."""

import json

import pytest

from repro.core.strategies import SuspendPlan
from repro.core.suspended_query import (
    KIND_DUMP,
    OpSuspendEntry,
    SuspendedQuery,
)
from repro.durability import codec
from repro.durability.codec import CodecError, decode_value, encode_value
from repro.engine.plan import FilterSpec, NLJSpec, ScanSpec, SortSpec
from repro.relational.expressions import (
    EquiJoinCondition,
    UniformSelect,
    ValueIn,
)
from repro.storage.statefile import DumpHandle


def roundtrip(value):
    encoded = encode_value(value)
    # Must survive actual JSON, not just the in-memory encoding.
    return decode_value(json.loads(json.dumps(encoded)))


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            3.25,
            "text",
            [1, "two", None],
            {"plain": {"nested": [1, 2]}},
        ],
    )
    def test_scalars_and_containers(self, value):
        assert roundtrip(value) == value

    def test_tuple_stays_tuple(self):
        value = (1, ("a", 2.5), [3, (4,)])
        result = roundtrip(value)
        assert result == value
        assert isinstance(result, tuple)
        assert isinstance(result[1], tuple)
        assert isinstance(result[2][1], tuple)

    def test_int_keyed_dict(self):
        value = {0: [(1, 2)], 3: [(4, 5)]}
        result = roundtrip(value)
        assert result == value
        assert all(isinstance(k, int) for k in result)

    def test_frozenset_and_set(self):
        assert roundtrip(frozenset({3, 1, 2})) == frozenset({1, 2, 3})
        result = roundtrip({"a", "b"})
        assert result == {"a", "b"}
        assert isinstance(result, set)

    def test_dollar_keyed_dict_not_confused_with_tags(self):
        value = {"$t": "sneaky", "x": 1}
        assert roundtrip(value) == value

    def test_handle_reference(self):
        handle = DumpHandle(store_id=7, key="dump_sort#3", pages=12)
        result = roundtrip(handle)
        assert isinstance(result, DumpHandle)
        assert (result.key, result.pages) == ("dump_sort#3", 12)
        # Decoded handles are unhomed until import_payloads re-homes them.
        assert result.store_id == -1

    def test_handles_nested_in_control_dicts(self):
        control = {"sublists": [DumpHandle(1, "a", 2), DumpHandle(1, "b", 3)]}
        result = roundtrip(control)
        assert [h.key for h in result["sublists"]] == ["a", "b"]

    def test_predicate_dataclasses(self):
        assert roundtrip(UniformSelect(1, 0.25)) == UniformSelect(1, 0.25)
        vi = ValueIn(0, frozenset({5, 7}))
        assert roundtrip(vi) == vi

    def test_unencodable_value_rejected(self):
        with pytest.raises(CodecError):
            encode_value(object())

    def test_unknown_class_rejected(self):
        with pytest.raises(CodecError):
            decode_value({"$t": "obj", "cls": "NoSuchSpec", "fields": {}})

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError):
            decode_value({"$t": "wat", "v": []})


def make_plan_spec():
    return NLJSpec(
        outer=FilterSpec(
            ScanSpec("R", label="scan_R"), UniformSelect(1, 0.5), label="f"
        ),
        inner=SortSpec(
            ScanSpec("S", label="scan_S"),
            key_columns=(0,),
            buffer_tuples=100,
            label="sort",
        ),
        condition=EquiJoinCondition(0, 0, modulus=40),
        buffer_tuples=50,
        label="nlj",
    )


class TestRecordCodecs:
    def test_plan_spec_roundtrip(self):
        spec = make_plan_spec()
        data = json.loads(json.dumps(codec.spec_to_dict(spec)))
        assert codec.spec_from_dict(data) == spec

    def test_referenced_handles_walks_nested_state(self):
        sq = SuspendedQuery(
            plan_spec=make_plan_spec(),
            suspend_plan=SuspendPlan(decisions={}, source="manual"),
        )
        sq.add_entry(
            OpSuspendEntry(
                op_id=0,
                kind=KIND_DUMP,
                target_control={"sublists": [DumpHandle(1, "sub#1", 2)]},
                dump_handle=DumpHandle(1, "dump#1", 3),
            )
        )
        assert set(sq.referenced_handles()) == {"sub#1", "dump#1"}
