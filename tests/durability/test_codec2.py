"""Codec v2 unit and property tests.

Round-trip identity over the full value domain, the columnar rows fast
path and its narrow int columns, the integrity of the one stored zlib
stream a value is (truncation, trailing bytes, a flipped byte: its frame
is zlib's own), and — the PROTOCOL.md §7 determinism rule extended to
image bytes — byte-identical re-encode, including across two interpreter
processes and across chunk sizes. The properties take their example
count from the active hypothesis profile (CI also runs this file under
``--hypothesis-profile=ci``, see ``tests/conftest.py``).
"""

import collections
import hashlib
import os
import pickle
import struct
import subprocess
import sys
import zlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.lifecycle import QuerySession
from repro.durability import build_recipe, codec2
from repro.durability.codec2 import (
    C_F64,
    C_GEN,
    C_I8,
    C_I16,
    C_I32,
    C_I64,
    DEFAULT_CHUNK_BYTES,
    T_OBJ,
    T_ROWS,
    T_SDEF,
    CodecError,
    decode_bytes,
    decode_suspended_query,
    encode_bytes,
    encode_suspended_query,
)
from repro.engine.plan import FilterSpec, NLJSpec, ScanSpec, SortSpec
from repro.relational.expressions import EquiJoinCondition, ValueIn
from repro.storage.statefile import DumpHandle

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def roundtrip(value):
    data = encode_bytes(value)
    return decode_bytes(data), data


def streamed(raw: bytes) -> bytes:
    """``raw`` value bytes as a stream :func:`decode_bytes` accepts."""
    return zlib.compress(raw, codec2.ZLIB_LEVEL)


def value_bytes(data: bytes) -> bytes:
    """The uncompressed value bytes of an encoded stream."""
    return zlib.decompress(data)


class TestValueRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**70,
            -(2**70),
            0.0,
            -0.5,
            1e300,
            "",
            "hello",
            "x" * 2000,  # beyond INTERN_MAX_BYTES: the long-string path
            [],
            [1, "two", None, 3.0],
            (1, 2),
            {"a": 1, "b": [2, 3]},
            {(1, 2): "tuple key", 7: "int key"},
            {1, 2, 3},
            frozenset({"a", "b"}),
            [[1], [2, [3, {"deep": (4,)}]]],
        ],
    )
    def test_scalar_and_container_identity(self, value):
        decoded, _ = roundtrip(value)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_bool_and_int_stay_distinct(self):
        decoded, _ = roundtrip([True, 1, False, 0])
        assert [type(v) for v in decoded] == [bool, int, bool, int]

    def test_dump_handle(self):
        decoded, _ = roundtrip(DumpHandle(store_id=3, key="sub#1", pages=9))
        assert decoded == DumpHandle(store_id=-1, key="sub#1", pages=9)

    def test_registered_dataclass(self):
        spec = SortSpec(ScanSpec("R"), key_columns=(0,), buffer_tuples=10)
        decoded, _ = roundtrip(spec)
        assert decoded == spec

    def test_plan_spec_roundtrip(self):
        """A whole plan tree with predicate dataclasses (a frozenset
        field included), as the shard cut and worker pipe carry it."""
        spec = NLJSpec(
            outer=FilterSpec(
                ScanSpec("R", label="scan_R"),
                ValueIn(0, frozenset({5, 7})),
                label="f",
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
        decoded, data = roundtrip(spec)
        assert decoded == spec
        assert encode_bytes(decoded) == data

    def test_unencodable_value_rejected(self):
        with pytest.raises(CodecError, match="cannot encode"):
            encode_bytes(object())

    def test_unknown_class_rejected(self):
        name = b"NoSuchSpec"
        raw = bytes([T_OBJ, T_SDEF, len(name)]) + name + bytes([0])
        with pytest.raises(CodecError, match="unknown class 'NoSuchSpec'"):
            decode_bytes(streamed(raw))

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError, match="unknown v2 value tag"):
            decode_bytes(streamed(bytes([200])))

    def test_string_interning_shrinks_repeats(self):
        repeated = ["the-same-label"] * 500
        raw = value_bytes(encode_bytes(repeated))
        # One SDEF carries the bytes; 499 SREFs are ~2 bytes each.
        assert len(raw) < 500 * len("the-same-label")


class TestColumnarRows:
    def test_i64_f64_str_rows(self):
        rows = [(i, i * 0.5, f"s{i % 3}") for i in range(100)]
        decoded, data = roundtrip(rows)
        assert decoded == rows
        assert all(type(r) is tuple for r in decoded)
        assert value_bytes(data)[0] == T_ROWS

    def test_rows_use_bulk_packs(self):
        rows = [(i, float(i)) for i in range(1000)]
        payload = value_bytes(encode_bytes(rows))
        # Two fixed-width column segments dominate: ~16 bytes per row,
        # nowhere near a per-cell tagged encoding.
        assert len(payload) < 1000 * 18

    def test_mixed_column_falls_back(self):
        rows = [(1, "a"), (2, "b"), ("three", "c"), (4, "d")]
        decoded, _ = roundtrip(rows)
        assert decoded == rows

    def test_huge_int_column_falls_back(self):
        rows = [(2**80 + i,) for i in range(8)]
        decoded, _ = roundtrip(rows)
        assert decoded == rows

    def test_bool_column_stays_bool(self):
        rows = [(True, 1), (False, 2), (True, 3), (False, 4)]
        decoded, _ = roundtrip(rows)
        assert decoded == rows
        assert type(decoded[0][0]) is bool

    def test_short_or_ragged_lists_take_generic_path(self):
        for value in ([(1,), (2,)], [(1,), (2, 3), (4,), (5,)]):
            decoded, _ = roundtrip(value)
            assert decoded == value


class TestNarrowIntColumns:
    """An all-int column is packed at the narrowest of 1, 2, 4 and 8
    bytes that holds its minimum and maximum; one past int64 is a
    per-cell column."""

    EDGES = [
        (-(2**7), 2**7 - 1, C_I8),
        (-(2**7) - 1, 0, C_I16),
        (0, 2**7, C_I16),
        (-(2**15), 2**15 - 1, C_I16),
        (-(2**15) - 1, 0, C_I32),
        (0, 2**15, C_I32),
        (-(2**31), 2**31 - 1, C_I32),
        (-(2**31) - 1, 0, C_I64),
        (0, 2**31, C_I64),
        (-(2**63), 2**63 - 1, C_I64),
        (-(2**63) - 1, 0, C_GEN),
        (0, 2**63, C_GEN),
    ]
    WIDTHS = {C_I8: 1, C_I16: 2, C_I32: 4, C_I64: 8}

    @pytest.mark.parametrize(
        "low, high, code", EDGES, ids=[f"{lo}..{hi}" for lo, hi, _ in EDGES]
    )
    def test_width_at_and_one_past_each_edge(self, low, high, code):
        rows = [(low,), (high,), (0,), (high,), (low,)]
        raw = value_bytes(encode_bytes(rows))
        assert raw[3] == code
        if code != C_GEN:
            # block tag, row count, arity, column code, then the column
            assert len(raw) == 4 + self.WIDTHS[code] * len(rows)
        decoded, _ = roundtrip(rows)
        assert decoded == rows
        assert all(type(v) is int for (v,) in decoded)

    def test_each_column_takes_its_own_width(self):
        rows = [(i, i * 100_000, -(2**40) * i, i * 0.5) for i in range(8)]
        raw = value_bytes(encode_bytes(rows))
        at, codes = 3, []
        for width in (1, 4, 8, 8):
            codes.append(raw[at])
            at += 1 + width * len(rows)
        assert codes == [C_I8, C_I32, C_I64, C_F64] and at == len(raw)
        assert decode_bytes(encode_bytes(rows)) == rows

    @pytest.mark.parametrize(
        "column",
        [[True, False, True, True], [True, 1, 0, False]],
        ids=["bool", "bool-and-int"],
    )
    def test_bool_column_takes_the_generic_code(self, column):
        rows = [(v,) for v in column]
        raw = value_bytes(encode_bytes(rows))
        assert raw[3] == C_GEN
        decoded, _ = roundtrip(rows)
        assert [type(v) for (v,) in decoded] == list(map(type, column))

    def test_unknown_column_code_rejected(self):
        raw = bytes([T_ROWS, 4, 1, 7]) + bytes(4)
        with pytest.raises(CodecError, match="unknown v2 column type 7"):
            decode_bytes(streamed(raw))

    def test_a_short_narrow_column_is_garbled(self):
        raw = bytes([T_ROWS, 4, 1, C_I16]) + bytes(7)
        with pytest.raises(CodecError, match="garbled"):
            decode_bytes(streamed(raw))


def big_rows() -> list:
    """A value whose encoding spans more than three chunks."""
    return [(i, float(i), f"payload-{i}") for i in range(40_000)]


def stored_blocks(data: bytes) -> list:
    """The payloads of the stored deflate blocks (RFC 1951 §3.2.4) of a
    zlib stream, checking each block's header and length complement,
    the stream's ``78 01`` header and its Adler-32 trailer."""
    assert data[:2] == b"\x78\x01"
    blocks, at, final = [], 2, False
    while not final:
        header = data[at]
        assert header in (0, 1)  # BTYPE 00 (stored); bit 0 is BFINAL
        final = header == 1
        length, complement = struct.unpack_from("<HH", data, at + 1)
        assert length ^ complement == 0xFFFF
        blocks.append(data[at + 5 : at + 5 + length])
        at += 5 + length
    assert data[at:] == zlib.adler32(b"".join(blocks)).to_bytes(4, "big")
    return blocks


class TestFrames:
    """A value's one frame is zlib's own (RFC 1950): a two-byte header,
    the deflate data (stored blocks, at level 0), an Adler-32 trailer.
    The codec adds no magic, frame header or CRC of its own (the image's
    manifest checks each section), and every damage to the stream is
    still a :class:`CodecError`."""

    def test_stream_magic_and_multiple_frames(self):
        """A value spanning three chunks: the sink receives it as it
        fills, one zlib stream (header ``78 01``: deflate format, level
        0) that round-trips."""
        rows = big_rows()
        chunks = []
        codec2.encode_to_stream(rows, chunks.append)
        data = b"".join(chunks)
        assert len(chunks) >= 3 and all(chunks)
        assert data[:2] == b"\x78\x01" and data == encode_bytes(rows)
        assert len(value_bytes(data)) >= 3 * DEFAULT_CHUNK_BYTES
        assert decode_bytes(data) == rows

    @pytest.mark.parametrize("chunk", [1, 4096, 100_000, 10**7])
    def test_chunk_size_never_moves_the_stored_blocks(self, chunk):
        """Stored blocks end where zlib's input calls end, so a value of
        several blocks is fed to it in fixed pieces: the encoder's chunk
        size changes when its buffer is handed on, never the bytes."""
        rows = big_rows()
        with mock.patch.object(codec2, "DEFAULT_CHUNK_BYTES", chunk):
            data = encode_bytes(rows)
        assert data == encode_bytes(rows)

    @pytest.mark.parametrize("n", [2000, 30_000], ids=["one-block", "chunked"])
    def test_stream_is_stored_value_bytes(self, n):
        """Every stream is stored, not deflated: zlib's two-byte header,
        the value bytes verbatim in stored blocks of five header bytes
        each, and the four-byte Adler-32 trailer — however repetitive
        the value."""
        rows = [(i % 5, 0.25, "label") for i in range(n)]
        data = encode_bytes(rows)
        raw = value_bytes(data)
        blocks = stored_blocks(data)
        assert b"".join(blocks) == raw
        assert len(data) == 2 + len(raw) + 5 * len(blocks) + 4
        assert (len(blocks) == 1) == (n == 2000)
        assert decode_bytes(data) == rows

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError, match="corrupt"):
            decode_bytes(b"NOPE" + encode_bytes([1, 2, 3])[4:])

    def test_crc_flip_detected(self):
        """A flipped byte anywhere: caught by the header check, the
        deflate decoder or the Adler-32 trailer."""
        data = encode_bytes({"k": list(range(50))})
        for at in (0, 1, len(data) // 2, len(data) - 1):
            flipped = bytearray(data)
            flipped[at] ^= 0xFF
            with pytest.raises(CodecError):
                decode_bytes(bytes(flipped))

    def test_truncation_detected_at_every_cut(self):
        data = encode_bytes([(i, float(i)) for i in range(64)])
        for cut in range(len(data)):
            with pytest.raises(CodecError):
                decode_bytes(data[:cut])

    def test_trailing_garbage_detected(self):
        """Bytes after the stream's end (which ``zlib.decompress`` would
        ignore), and value bytes after the value inside the stream."""
        data = encode_bytes("x")
        for damaged in (
            data + b"\x00",
            data + encode_bytes("y"),
            streamed(value_bytes(data) + b"\x00"),
        ):
            with pytest.raises(CodecError, match="trailing"):
                decode_bytes(damaged)


# ----------------------------------------------------------------------
# Property tests (PROTOCOL.md §7 determinism, extended to image bytes)
# ----------------------------------------------------------------------
#: Magnitude bits of the int column widths (8, 16, 32 and 64 bits), and
#: ints within a drawn one of them.
int_bits = st.sampled_from([7, 15, 31, 63])
narrow_ints = int_bits.flatmap(
    lambda bits: st.integers(-(2**bits), 2**bits - 1)
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=40),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=8),
        # row blocks whose int columns are drawn within one width
        int_bits.flatmap(
            lambda bits: st.lists(
                st.tuples(
                    st.integers(-(2**bits), 2**bits - 1),
                    st.integers(-(2**bits), 2**bits - 1),
                    st.floats(allow_nan=False),
                ),
                min_size=4,
                max_size=30,
            )
        ),
        st.dictionaries(
            st.one_of(scalars.filter(lambda v: v == v)), children, max_size=6
        ),
        st.sets(
            st.integers() | st.text(max_size=10), max_size=6
        ),
        st.builds(
            DumpHandle,
            store_id=st.just(1),
            key=st.text(max_size=12),
            pages=st.integers(0, 1000),
        ),
    ),
    max_leaves=40,
)

PROP = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def normalize_handles(value):
    """Decoded DumpHandles carry store_id=-1 (unresolved); mirror that."""
    if isinstance(value, DumpHandle):
        return DumpHandle(store_id=-1, key=value.key, pages=value.pages)
    if isinstance(value, dict):
        return {
            normalize_handles(k): normalize_handles(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        out = [normalize_handles(v) for v in value]
        return out if isinstance(value, list) else tuple(out)
    if isinstance(value, (set, frozenset)):
        rebuilt = {normalize_handles(v) for v in value}
        return rebuilt if isinstance(value, set) else frozenset(rebuilt)
    return value


@PROP
@given(value=values)
def test_property_roundtrip_identity_and_deterministic_reencode(value):
    data = encode_bytes(value)
    decoded = decode_bytes(data)
    assert decoded == normalize_handles(value)
    # Re-encoding the *decoded* value must reproduce the bytes exactly:
    # nothing about the trip through the codec may perturb the encoding.
    assert encode_bytes(decoded) == encode_bytes(normalize_handles(value))
    # And encoding is a pure function of the value.
    assert encode_bytes(value) == data


@PROP
@given(value=values, chunk=st.sampled_from([1, 64, 4096]))
def test_property_framing_never_changes_the_value(value, chunk):
    """Where the encoder cuts its buffer into chunks for zlib is
    invisible in the stream: any chunk size yields the same bytes, which
    decode to the value."""
    with mock.patch.object(codec2, "DEFAULT_CHUNK_BYTES", chunk):
        data = encode_bytes(value)
    assert data == encode_bytes(value)
    assert decode_bytes(data) == normalize_handles(value)


# ----------------------------------------------------------------------
# SuspendedQuery round trip + cross-process byte identity
# ----------------------------------------------------------------------
def make_suspended(recipe="sort", rows=150):
    db, plan = build_recipe(recipe)
    session = QuerySession(db, plan)
    session.execute(max_rows=rows)
    return session.suspend(), db


_ENCODE_SNIPPET = """
import hashlib
import pickle
from repro.core.lifecycle import QuerySession
from repro.durability import build_recipe
from repro.durability.codec2 import encode_bytes, encode_suspended_query
db, plan = build_recipe({recipe!r})
session = QuerySession(db, plan)
session.execute(max_rows={rows})
sq = session.suspend()
print(hashlib.sha256(encode_suspended_query(sq)).hexdigest())
with open({rows_file!r}, "rb") as fh:
    print(hashlib.sha256(encode_bytes(pickle.load(fh))).hexdigest())
"""


@pytest.mark.parametrize("recipe", ("sort", "hashjoin", "hashagg"))
def test_suspended_query_roundtrip(recipe):
    sq, _ = make_suspended(recipe, rows=6 if recipe == "hashagg" else 40)
    data = encode_suspended_query(sq)
    back = decode_suspended_query(data)
    assert back.root_rows_emitted == sq.root_rows_emitted
    assert back.suspended_at == sq.suspended_at
    assert set(back.entries) == set(sq.entries)
    assert back.suspend_plan.decisions == sq.suspend_plan.decisions
    for op_id, entry in sq.entries.items():
        other = back.entries[op_id]
        assert other.kind == entry.kind
        assert other.saved_rows == entry.saved_rows
    # Re-encode of the decoded structure is byte-identical.
    assert encode_suspended_query(back) == data


def test_cross_process_encode_is_byte_identical(tmp_path):
    """A control record, and a value spanning three chunks, encode to
    the same bytes in another interpreter."""
    sq, _ = make_suspended("sort", rows=150)
    rows = big_rows()
    local = [
        hashlib.sha256(data).hexdigest()
        for data in (encode_suspended_query(sq), encode_bytes(rows))
    ]
    rows_file = tmp_path / "rows.pickle"
    rows_file.write_bytes(pickle.dumps(rows))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        REPO_SRC if not existing else REPO_SRC + os.pathsep + existing
    )
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            _ENCODE_SNIPPET.format(
                recipe="sort", rows=150, rows_file=str(rows_file)
            ),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == local


# ----------------------------------------------------------------------
# The bytes themselves: a fast path may not change them
# ----------------------------------------------------------------------
Pair = collections.namedtuple("Pair", "a b")


def old_rows_shape(v: list) -> bool:
    """The row-block test as first written: one generator step per row."""
    if len(v) < codec2.ROWS_MIN or type(v[0]) is not tuple:
        return False
    arity = len(v[0])
    if not 1 <= arity <= codec2.ROWS_MAX_ARITY:
        return False
    return all(type(row) is tuple and len(row) == arity for row in v)


cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    narrow_ints,
    st.floats(allow_nan=False),
    st.text(max_size=4),
)
arities = st.sampled_from([0, 1, 2, 3, codec2.ROWS_MAX_ARITY, 65])
row_lists = st.one_of(
    # same-arity tuples around ROWS_MIN, one column type or mixed
    arities.flatmap(
        lambda n: st.lists(
            st.tuples(*[cells] * n) if n < 8 else st.just((1,) * n),
            min_size=0,
            max_size=codec2.ROWS_MIN + 2,
        )
    ),
    # ragged arity
    st.lists(st.lists(cells, max_size=3).map(tuple), max_size=7),
    # list rows, namedtuple rows and a mix of row kinds
    st.lists(
        st.one_of(
            st.tuples(cells, cells),
            st.lists(cells, min_size=2, max_size=2),
            st.builds(Pair, cells, cells),
        ),
        max_size=7,
    ),
)


@PROP
@given(rows=row_lists)
def test_property_rows_shape_agrees_with_its_first_definition(rows):
    assert codec2._rows_shape(rows) == old_rows_shape(rows)


def codec_corpus() -> list:
    """Fixed values over every encoder branch, row blocks above all:
    exactly ``ROWS_MIN`` rows and one fewer, arity 64 and 65, ragged,
    list rows, bool, None and mixed columns, each int width at its edges,
    int64 overflow, a block spanning several chunks, and three control
    records. (A namedtuple
    is no value of the codec's domain.)"""
    n = codec2.ROWS_MIN
    corpus = [
        None,
        True,
        -(2**70),
        2.5,
        "x" * 600,
        [(i, i * 0.5, f"s{i % 3}") for i in range(n)],
        [(i, float(i)) for i in range(n - 1)],
        [(i,) * 64 for i in range(n)],
        [(i,) * 65 for i in range(n)],
        [(1,), (2, 3), (4,), (5,), (6,)],
        [[1, 2], [3, 4], [5, 6], [7, 8]],
        [(i, (i, "p")) for i in range(n)],
        [(True, 1), (False, 2), (True, 3), (False, None)],
        [(None, i) for i in range(n)],
        [(i, float(i) if i % 2 else i, "s" if i % 3 else None) for i in range(9)],
        [(2**63 + i, -(2**63) - i) for i in range(n)],
        # one block per int width, both columns at its edges
        *(
            [(-bound + i, bound - 1 - i) for i in range(n)]
            for bound in (2**7, 2**15, 2**31, 2**63)
        ),
        [(i, i % 7 == 0, f"k{i % 50}", i / 3) for i in range(20_000)],
        [(), (), (), ()],
        {"rows": [(i, str(i)) for i in range(n)], "set": {3, 1, 2}},
        frozenset({"a", "b"}),
        DumpHandle(store_id=1, key="q/sort#1", pages=3),
        SortSpec(ScanSpec("R"), key_columns=(0,), buffer_tuples=10),
    ]
    corpus += [
        encode_suspended_query(make_suspended(recipe, rows=rows)[0])
        for recipe, rows in (("sort", 150), ("hashjoin", 40), ("hashagg", 6))
    ]
    return corpus


#: SHA-256 of :func:`codec_corpus`'s encodings, each length-prefixed,
#: recorded with the per-row walks of the encoder: a faster walk may not
#: change an image's bytes. Re-pinned since when the control record
#: gained ``key_counters`` (layout 5; without that field the corpus still
#: hashes to the first pin, ``0a6ddf97…81a191``), and when the streams
#: became stored and int columns narrow (layout 7; the layout-6 bytes,
#: pinned ``4970a6e1…143341``, decode to the same values).
CORPUS_SHA256 = (
    "9d2e645513e574c296e3a45a4011d7d2df8a4f6660dee3b389cf6692e8237896"
)


def test_corpus_bytes_are_pinned():
    digest = hashlib.sha256()
    for value in codec_corpus():
        data = value if isinstance(value, bytes) else encode_bytes(value)
        digest.update(len(data).to_bytes(8, "little") + data)
    assert digest.hexdigest() == CORPUS_SHA256
