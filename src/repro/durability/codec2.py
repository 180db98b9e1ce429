"""Codec v2: the binary columnar value codec.

The one value encoding in the repository: suspend images, the global cut
of a sharded query and the shard-worker pipe all carry codec-v2 bytes.
It is built for the suspend path's actual data: big, regular collections
of rows (saved rows, dumped heap state, sort sublists, hash partitions)
plus small irregular control dicts. Design points:

- **Columnar row blocks.** A list of same-arity tuples whose columns are
  uniformly typed (the common case for every dump payload) is encoded as
  typed column segments: one ``struct`` bulk pack per int/float64
  column instead of one dispatch per cell. An int column is packed at
  the narrowest of 1, 2, 4 or 8 bytes that holds its minimum and
  maximum (``C_I8``/``C_I16``/``C_I32``/``C_I64``). Mixed columns, and
  int columns outside int64, fall back to per-cell encoding inside the
  block, so the fast path never changes what round-trips.
- **String interning.** Every short string is written once (``SDEF``) and
  referenced by index afterwards (``SREF``); operator labels, dict keys,
  and dataclass field names collapse to one-byte varints.
- **One zlib stream, stored.** The value bytes run through one zlib
  compressor at level 0 a chunk at a time, so the encoder streams to
  disk and its peak buffered memory is about one chunk. Level 0 keeps
  zlib's frame — header, stored blocks, Adler-32 trailer, so a bad
  header, a flipped byte, a truncation or trailing bytes are still
  caught — and drops the deflate work: on ``image_cycle`` level 1 cost
  1.5 ms more encode per op (3.44 against 1.90 ms) to commit 28 KB fewer
  bytes (85 413 against 113 187; without the narrow int columns level 0
  commits 2.4 times level 1's bytes, and loading hashes every one). The
  codec neither frames nor checksums on its own: an image section is
  one such stream, and the packed file
  (:mod:`repro.durability.format`) records its size and SHA-256.
- **Determinism.** Encoding the same value twice — in the same or a
  different process — yields byte-identical output (PROTOCOL.md §7's
  determinism rule, extended to image bytes): dict order is insertion
  order (deterministic for everything the suspend path builds), set
  members are sorted by ``repr``, floats are packed exactly, and zlib
  runs at a fixed level and is fed fixed-size pieces (its stored-block
  boundaries follow its input calls), so the bytes do not depend on
  where the encoder cuts its buffer.

The value domain: scalars, lists, tuples, dicts with arbitrary keys,
sets/frozensets, :class:`DumpHandle` references (decoded unhomed, with
``store_id=-1``: the key in whichever state store reads it), and the
registered spec/predicate dataclasses. The encoding carries no version
stamp of its own: the image's ``layout_version`` covers it.

The class registry below is the codec's compatibility surface: renaming
a spec or predicate class breaks images already on disk.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from operator import itemgetter
from typing import Any, Callable, Optional

from repro.common.errors import ReproError
from repro.core.strategies import OpDecision, Strategy, SuspendPlan
from repro.core.suspended_query import OpSuspendEntry, SuspendedQuery
from repro.engine import plan as plan_module
from repro.relational import expressions as expr_module
from repro.storage.statefile import DumpHandle


class CodecError(ReproError):
    """Raised when a value cannot be encoded or decoded."""


#: Spec and predicate dataclasses a value may hold, by class name.
_DATACLASSES = {
    obj.__name__: obj
    for module in (plan_module, expr_module)
    for obj in vars(module).values()
    if isinstance(obj, type) and dataclasses.is_dataclass(obj)
}

#: Value bytes the encoder buffers before handing them to zlib; its peak
#: buffered memory is bounded by (roughly) one chunk.
DEFAULT_CHUNK_BYTES = 256 * 1024
#: zlib level: 0 stores the value bytes in zlib's frame (header, stored
#: blocks, Adler-32) without deflating them. Deflate cost a suspend more
#: encode time than its smaller sections saved.
ZLIB_LEVEL = 0
#: Value bytes per zlib call: at level 0 the stored blocks are cut where
#: zlib's input calls end, so it is always fed pieces of this size (and
#: the remainder at the end) whatever the encoder's chunk size.
ZLIB_FEED_BYTES = 64 * 1024

#: Strings longer than this are not interned (one-shot payloads would
#: only bloat the intern table).
INTERN_MAX_BYTES = 512

#: Value bytes :func:`record_key` inflates: ample for the short leading
#: fields of a record.
HEAD_BYTES = 4096

#: Minimum row count before a list of tuples becomes a columnar block.
ROWS_MIN = 4
ROWS_MAX_ARITY = 64

# Value tags ------------------------------------------------------------
T_NONE = 0
T_TRUE = 1
T_FALSE = 2
T_INT = 3
T_FLOAT = 4
T_SDEF = 5  # define a new interned string (implicitly assigns next id)
T_SREF = 6  # reference an interned string by id
T_SLONG = 7  # long string, never interned
T_LIST = 8
T_TUPLE = 9
T_DICT = 10
T_SET = 11
T_FSET = 12
T_HANDLE = 13
T_OBJ = 14
T_ROWS = 15  # columnar block: list of same-arity tuples

# Column types inside a T_ROWS block
C_GEN = 0
C_I64 = 1
C_F64 = 2
C_STR = 3
C_I8 = 4
C_I16 = 5
C_I32 = 6


def _zigzag(n: int) -> int:
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


def _unzigzag(u: int) -> int:
    return (u >> 1) if not (u & 1) else -((u + 1) >> 1)


class _Encoder:
    """Streaming value encoder: fills a buffer, feeds it through zlib into
    a sink."""

    __slots__ = ("buf", "sink", "zip", "strings")

    def __init__(self, sink: Callable[[bytes], None]):
        self.buf = bytearray()
        self.sink = sink
        self.zip = zlib.compressobj(ZLIB_LEVEL)
        self.strings: dict[str, int] = {}

    # -- low-level emitters -------------------------------------------
    def uvarint(self, n: int) -> None:
        buf = self.buf
        while True:
            b = n & 0x7F
            n >>= 7
            if n:
                buf.append(b | 0x80)
            else:
                buf.append(b)
                return

    def string(self, s: str) -> None:
        data = s.encode("utf-8")
        if len(data) > INTERN_MAX_BYTES:
            self.buf.append(T_SLONG)
            self.uvarint(len(data))
            self.buf += data
            return
        index = self.strings.get(s)
        if index is None:
            self.strings[s] = len(self.strings)
            self.buf.append(T_SDEF)
            self.uvarint(len(data))
            self.buf += data
        else:
            self.buf.append(T_SREF)
            self.uvarint(index)

    # -- output ------------------------------------------------------
    def _push(self, out: bytes) -> None:
        if out:
            self.sink(out)

    def _feed(self) -> None:
        """Hand zlib every whole ``ZLIB_FEED_BYTES`` piece of the buffer,
        one call each, and keep the remainder."""
        buf = self.buf
        end = len(buf) - len(buf) % ZLIB_FEED_BYTES
        with memoryview(buf) as view:
            for at in range(0, end, ZLIB_FEED_BYTES):
                self._push(self.zip.compress(view[at : at + ZLIB_FEED_BYTES]))
        del buf[:end]

    def maybe_flush(self) -> None:
        if len(self.buf) >= DEFAULT_CHUNK_BYTES:
            self._feed()

    def finish(self) -> None:
        self._feed()
        self._push(self.zip.compress(self.buf) + self.zip.flush())
        self.buf.clear()

    # -- values --------------------------------------------------------
    def value(self, v: Any) -> None:
        buf = self.buf
        t = type(v)
        if v is None:
            buf.append(T_NONE)
        elif t is bool:
            buf.append(T_TRUE if v else T_FALSE)
        elif t is int:
            buf.append(T_INT)
            self.uvarint(_zigzag(v))
        elif t is float:
            buf.append(T_FLOAT)
            buf += struct.pack("<d", v)
        elif t is str:
            self.string(v)
        elif t is list:
            if _rows_shape(v):
                self._rows(v)
            else:
                buf.append(T_LIST)
                self.uvarint(len(v))
                for item in v:
                    self.value(item)
                    self.maybe_flush()
        elif t is tuple:
            buf.append(T_TUPLE)
            self.uvarint(len(v))
            for item in v:
                self.value(item)
                self.maybe_flush()
        elif t is dict:
            buf.append(T_DICT)
            self.uvarint(len(v))
            for key, item in v.items():
                self.value(key)
                self.value(item)
                self.maybe_flush()
        elif t is set or t is frozenset:
            buf.append(T_SET if t is set else T_FSET)
            self.uvarint(len(v))
            for item in sorted(v, key=repr):
                self.value(item)
                self.maybe_flush()
        elif t is DumpHandle:
            buf.append(T_HANDLE)
            self.string(v.key)
            self.uvarint(v.pages)
        elif dataclasses.is_dataclass(v) and t.__name__ in _DATACLASSES:
            buf.append(T_OBJ)
            self.string(t.__name__)
            fields = dataclasses.fields(v)
            self.uvarint(len(fields))
            for f in fields:
                self.string(f.name)
                self.value(getattr(v, f.name))
                self.maybe_flush()
        elif isinstance(v, bool):  # bool subclasses (paranoia)
            buf.append(T_TRUE if v else T_FALSE)
        else:
            raise CodecError(
                f"cannot encode value of type {t.__name__!r} into an image"
            )

    def _rows(self, rows: list) -> None:
        """Columnar block: per-column typed segments, struct bulk packs.
        Each column is one C-level pass over the rows (``zip(*rows)``
        would pass every row as an argument and allocate per row)."""
        buf = self.buf
        buf.append(T_ROWS)
        self.uvarint(len(rows))
        arity = len(rows[0])
        self.uvarint(arity)
        for i in range(arity):
            values = tuple(map(itemgetter(i), rows))
            ctype, packed = _typed_column(values)
            buf.append(ctype)
            if packed is not None:
                buf += packed
            elif ctype == C_STR:
                for s in values:
                    self.string(s)
            else:
                for item in values:
                    self.value(item)
            self.maybe_flush()


def _rows_shape(v: list) -> bool:
    """Whether ``v`` qualifies for the columnar block encoding: at least
    ``ROWS_MIN`` exact tuples of one arity in ``[1, ROWS_MAX_ARITY]``,
    tested in two C-level passes (a hash partition is thousands of
    rows per save)."""
    if len(v) < ROWS_MIN or set(map(type, v)) != {tuple}:
        return False
    arities = set(map(len, v))
    return len(arities) == 1 and 1 <= arities.pop() <= ROWS_MAX_ARITY


#: Column type of a column whose cells all have exactly this type.
_COLUMN_TYPES = {int: C_I64, float: C_F64, str: C_STR}

#: ``struct`` format of each fixed-width column code.
_COLUMN_FORMATS = {C_I8: "b", C_I16: "h", C_I32: "i", C_I64: "q", C_F64: "d"}

#: Int column codes, narrowest first, each with the bound ``2**(bits - 1)``
#: its values lie within (``-bound <= v < bound``).
_INT_WIDTHS = ((C_I8, 2**7), (C_I16, 2**15), (C_I32, 2**31), (C_I64, 2**63))


def _typed_column(values: tuple) -> tuple[int, Optional[bytes]]:
    """Column type of ``values`` and, for a numeric column, its packed
    bytes. The cell types are collected in one C-level pass (a hash
    partition is tens of thousands of cells per save); an int column
    takes two more (``min``, ``max``) to pick the narrowest width that
    holds it, and a cell outside int64 demotes it to per-cell encoding."""
    kinds = set(map(type, values))
    ctype = _COLUMN_TYPES.get(kinds.pop(), C_GEN) if len(kinds) == 1 else C_GEN
    if ctype == C_I64:
        low, high = min(values), max(values)
        for code, bound in _INT_WIDTHS:
            if -bound <= low and high < bound:
                fmt = _COLUMN_FORMATS[code]
                return code, struct.pack(f"<{len(values)}{fmt}", *values)
        return C_GEN, None
    if ctype == C_F64:
        return C_F64, struct.pack(f"<{len(values)}d", *values)
    return ctype, None


class _Decoder:
    """Mirror of :class:`_Encoder` over one contiguous value buffer."""

    __slots__ = ("data", "pos", "strings")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.strings: list[str] = []

    def uvarint(self) -> int:
        data, pos = self.data, self.pos
        shift = 0
        result = 0
        while True:
            b = data[pos]
            pos += 1
            result |= (b & 0x7F) << shift
            if not (b & 0x80):
                break
            shift += 7
        self.pos = pos
        return result

    def _string_tail(self, tag: int) -> str:
        if tag == T_SREF:
            return self.strings[self.uvarint()]
        n = self.uvarint()
        raw = bytes(self.data[self.pos : self.pos + n])
        self.pos += n
        s = raw.decode("utf-8")
        if tag == T_SDEF:
            self.strings.append(s)
        return s

    def value(self) -> Any:
        tag = self.data[self.pos]
        self.pos += 1
        if tag == T_NONE:
            return None
        if tag == T_TRUE:
            return True
        if tag == T_FALSE:
            return False
        if tag == T_INT:
            return _unzigzag(self.uvarint())
        if tag == T_FLOAT:
            v = struct.unpack_from("<d", self.data, self.pos)[0]
            self.pos += 8
            return v
        if tag in (T_SDEF, T_SREF, T_SLONG):
            return self._string_tail(tag)
        if tag == T_LIST:
            return [self.value() for _ in range(self.uvarint())]
        if tag == T_TUPLE:
            return tuple(self.value() for _ in range(self.uvarint()))
        if tag == T_DICT:
            n = self.uvarint()
            out = {}
            for _ in range(n):
                key = self.value()
                out[key] = self.value()
            return out
        if tag == T_SET:
            return set(self.value() for _ in range(self.uvarint()))
        if tag == T_FSET:
            return frozenset(self.value() for _ in range(self.uvarint()))
        if tag == T_HANDLE:
            key_tag = self.data[self.pos]
            self.pos += 1
            key = self._string_tail(key_tag)
            return DumpHandle(store_id=-1, key=key, pages=self.uvarint())
        if tag == T_OBJ:
            name_tag = self.data[self.pos]
            self.pos += 1
            name = self._string_tail(name_tag)
            cls = _DATACLASSES.get(name)
            if cls is None:
                raise CodecError(f"image references unknown class {name!r}")
            fields = {}
            for _ in range(self.uvarint()):
                field_tag = self.data[self.pos]
                self.pos += 1
                fname = self._string_tail(field_tag)
                fields[fname] = self.value()
            return cls(**fields)
        if tag == T_ROWS:
            return self._rows()
        raise CodecError(f"unknown v2 value tag {tag!r}")

    def _rows(self) -> list:
        nrows = self.uvarint()
        arity = self.uvarint()
        columns = []
        for _ in range(arity):
            ctype = self.data[self.pos]
            self.pos += 1
            fmt = _COLUMN_FORMATS.get(ctype)
            if fmt is not None:
                packed = struct.Struct(f"<{nrows}{fmt}")
                col = packed.unpack_from(self.data, self.pos)
                self.pos += packed.size
            elif ctype == C_STR:
                col = []
                for _ in range(nrows):
                    tag = self.data[self.pos]
                    self.pos += 1
                    col.append(self._string_tail(tag))
            elif ctype == C_GEN:
                col = [self.value() for _ in range(nrows)]
            else:
                raise CodecError(f"unknown v2 column type {ctype!r}")
            columns.append(col)
        return list(zip(*columns))


# ----------------------------------------------------------------------
# Stream API
# ----------------------------------------------------------------------
def encode_to_stream(value: Any, sink: Callable[[bytes], None]) -> None:
    """Encode ``value`` as one zlib stream, pushing its chunks into
    ``sink`` as the encoder's buffer fills; peak buffered memory is
    bounded by roughly one chunk. Where the chunks split depends on the
    chunk size, the bytes they join into do not."""
    enc = _Encoder(sink)
    enc.value(value)
    enc.finish()


def encode_bytes(value: Any) -> bytes:
    """Encode ``value`` into one in-memory byte string."""
    chunks: list[bytes] = []
    encode_to_stream(value, chunks.append)
    return b"".join(chunks)


#: What decoding garbled value bytes can raise besides CodecError: a read
#: past the end, a bad UTF-8 string, an unhashable dict key or set item,
#: a wrong dataclass field, or runaway nesting.
_GARBLED = (IndexError, struct.error, ValueError, TypeError, RecursionError)


def decode_bytes(data: bytes) -> Any:
    """Decode one value from a stream produced by :func:`encode_bytes`.

    The stream must end exactly where ``data`` does: ``zlib.decompress``
    would silently ignore bytes after its end.
    """
    unzip = zlib.decompressobj()
    try:
        buffer = unzip.decompress(data)
    except zlib.error as exc:
        raise CodecError(f"corrupt v2 value stream: {exc}") from exc
    if not unzip.eof:
        raise CodecError("truncated v2 value stream")
    if unzip.unused_data:
        raise CodecError("trailing bytes after the v2 value stream")
    try:
        dec = _Decoder(buffer)
        value = dec.value()
    except _GARBLED as exc:
        raise CodecError(f"garbled v2 value stream: {exc}") from exc
    if dec.pos != len(buffer):
        raise CodecError("trailing bytes after v2 value")
    return value


def record_key(data: bytes) -> str:
    """The ``key`` field of the image blob record encoded in ``data``:
    the first entry of its dict, read from the stream's first
    ``HEAD_BYTES`` value bytes only (the payload comes after it)."""
    unzip = zlib.decompressobj()
    try:
        dec = _Decoder(unzip.decompress(data, HEAD_BYTES))
        if dec.data[0] != T_DICT:
            raise CodecError("v2 value stream does not hold a dict")
        dec.pos = 1
        if dec.uvarint() < 1 or dec.value() != "key":
            raise CodecError("v2 record does not lead with its key")
        key = dec.value()
    except (zlib.error, *_GARBLED) as exc:
        raise CodecError(f"unreadable v2 value stream head: {exc}") from exc
    if not isinstance(key, str):
        raise CodecError("v2 record key is not a string")
    return key


# ----------------------------------------------------------------------
# SuspendedQuery records (the v2 control file)
# ----------------------------------------------------------------------
def suspended_query_to_record(sq: SuspendedQuery) -> dict:
    """Raw-value control record; v2 needs no JSON tagging of values."""
    plan = sq.suspend_plan
    return {
        "plan_spec": sq.plan_spec,
        "suspend_plan": {
            "source": plan.source,
            "decisions": [
                (
                    op_id,
                    plan.decisions[op_id].strategy.value,
                    plan.decisions[op_id].goback_anchor,
                    tuple(plan.decisions[op_id].dump_children),
                )
                for op_id in sorted(plan.decisions)
            ],
        },
        "entries": [
            {
                "op": e.op_id,
                "kind": e.kind,
                "target_control": e.target_control,
                "ckpt_payload": e.ckpt_payload,
                "dump_handle": e.dump_handle,
                "current_control": e.current_control,
                "saved_rows": list(e.saved_rows),
            }
            for e in (sq.entries[op_id] for op_id in sorted(sq.entries))
        ],
        "root_rows_emitted": sq.root_rows_emitted,
        "suspended_at": sq.suspended_at,
        "query_clock": sq.query_clock,
        "key_counters": sq.key_counters,
    }


def suspended_query_from_record(record: dict) -> SuspendedQuery:
    plan_data = record["suspend_plan"]
    decisions = {
        op_id: OpDecision(
            strategy=Strategy(strategy),
            goback_anchor=anchor,
            dump_children=tuple(children),
        )
        for op_id, strategy, anchor, children in plan_data["decisions"]
    }
    sq = SuspendedQuery(
        plan_spec=record["plan_spec"],
        suspend_plan=SuspendPlan(
            decisions=decisions, source=plan_data["source"]
        ),
        root_rows_emitted=record["root_rows_emitted"],
        suspended_at=record["suspended_at"],
        query_clock=record["query_clock"],
        key_counters=record["key_counters"],
    )
    for item in record["entries"]:
        sq.add_entry(
            OpSuspendEntry(
                op_id=item["op"],
                kind=item["kind"],
                target_control=item["target_control"],
                ckpt_payload=item["ckpt_payload"],
                dump_handle=item["dump_handle"],
                current_control=item["current_control"],
                saved_rows=item["saved_rows"],
            )
        )
    return sq


def encode_suspended_query(sq: SuspendedQuery) -> bytes:
    """One-call control-record encode (tests and benchmarks)."""
    return encode_bytes(suspended_query_to_record(sq))


def decode_suspended_query(data: bytes) -> SuspendedQuery:
    return suspended_query_from_record(decode_bytes(data))
