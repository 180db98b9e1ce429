"""The tagged-JSON value codec.

Values JSON cannot represent faithfully (tuples, non-string dict keys,
frozensets, :class:`~repro.storage.statefile.DumpHandle` references,
the registered spec/predicate dataclasses) become ``{"$t": <tag>, ...}``
objects (:func:`encode_value` / :func:`decode_value`,
:func:`spec_to_dict` / :func:`spec_from_dict`). Plain strings, numbers,
booleans, ``None``, lists, and string-keyed dicts pass through
untouched. The shard layer ships plan specs to workers and into
``CHANNELS.json`` this way. Suspend images do not use it: their one
encoding is the binary codec v2 (:mod:`repro.durability.codec2`), which
shares the class registry below.

``DumpHandle`` values are encoded as ``(key, pages)`` references only —
their payloads are written as separate image blobs and re-homed into the
resuming process's :class:`~repro.storage.statefile.StateStore` via the
existing migration machinery (``SuspendedQuery.import_payloads``), which
charges the simulated-disk writes on the receiving side.

The registry below is the compatibility surface of both encodings:
renaming a spec or predicate class breaks shard manifests and images
already on disk.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.common.errors import ReproError
from repro.engine import plan as plan_module
from repro.relational import expressions as expr_module
from repro.storage.statefile import DumpHandle


class CodecError(ReproError):
    """Raised when a value cannot be encoded or decoded."""


def _registered_dataclasses() -> dict[str, type]:
    """Spec and predicate dataclasses allowed inside images, by name."""
    classes: dict[str, type] = {}
    for module in (plan_module, expr_module):
        for name in dir(module):
            obj = getattr(module, name)
            if isinstance(obj, type) and dataclasses.is_dataclass(obj):
                classes[obj.__name__] = obj
    return classes


_DATACLASSES = _registered_dataclasses()

_SCALARS = (str, int, float, bool, type(None))


def encode_value(value: Any) -> Any:
    """Encode an arbitrary image value into JSON-compatible data."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, DumpHandle):
        return {"$t": "handle", "key": value.key, "pages": value.pages}
    if isinstance(value, tuple):
        return {"$t": "tuple", "v": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, frozenset):
        return {"$t": "frozenset", "v": sorted_encoded(value)}
    if isinstance(value, set):
        return {"$t": "set", "v": sorted_encoded(value)}
    if isinstance(value, dict):
        if all(
            isinstance(k, str) and not k.startswith("$") for k in value
        ):
            return {k: encode_value(v) for k, v in value.items()}
        return {
            "$t": "dict",
            "v": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    cls = type(value)
    if dataclasses.is_dataclass(value) and cls.__name__ in _DATACLASSES:
        fields = {
            f.name: encode_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"$t": "obj", "cls": cls.__name__, "fields": fields}
    raise CodecError(
        f"cannot encode value of type {cls.__name__!r} into an image"
    )


def sorted_encoded(values) -> list:
    """Encode set members in a deterministic order (stable checksums)."""
    encoded = [encode_value(v) for v in values]
    return sorted(encoded, key=repr)


def decode_value(data: Any) -> Any:
    """Decode data produced by :func:`encode_value`.

    Decoded ``DumpHandle`` references carry ``store_id=-1``: they resolve
    to real payloads only after ``SuspendedQuery.import_payloads`` re-homes
    them into a live state store.
    """
    if isinstance(data, _SCALARS):
        return data
    if isinstance(data, list):
        return [decode_value(v) for v in data]
    if isinstance(data, dict):
        tag = data.get("$t")
        if tag is None:
            return {k: decode_value(v) for k, v in data.items()}
        if tag == "handle":
            return DumpHandle(
                store_id=-1, key=data["key"], pages=data["pages"]
            )
        if tag == "tuple":
            return tuple(decode_value(v) for v in data["v"])
        if tag == "frozenset":
            return frozenset(decode_value(v) for v in data["v"])
        if tag == "set":
            return set(decode_value(v) for v in data["v"])
        if tag == "dict":
            return {
                decode_value(k): decode_value(v) for k, v in data["v"]
            }
        if tag == "obj":
            cls = _DATACLASSES.get(data["cls"])
            if cls is None:
                raise CodecError(
                    f"image references unknown class {data['cls']!r}"
                )
            fields = {
                name: decode_value(v) for name, v in data["fields"].items()
            }
            return cls(**fields)
        raise CodecError(f"unknown value tag {tag!r}")
    raise CodecError(f"cannot decode value {data!r}")


# ----------------------------------------------------------------------
# Plan specs
# ----------------------------------------------------------------------
def spec_to_dict(spec) -> dict:
    """Encode a plan-spec tree (a registered spec dataclass)."""
    encoded = encode_value(spec)
    if not (isinstance(encoded, dict) and encoded.get("$t") == "obj"):
        raise CodecError(f"not a plan spec: {type(spec).__name__}")
    return encoded


def spec_from_dict(data: dict):
    """Decode a plan-spec tree encoded by :func:`spec_to_dict`."""
    spec = decode_value(data)
    if not dataclasses.is_dataclass(spec):
        raise CodecError("decoded plan spec is not a spec dataclass")
    return spec
