"""On-disk layout and commit protocol for durable suspend images.

One image is one **packed file** under the image root — the only layout
this build reads or writes (``LAYOUT_VERSION``)::

    <root>/<image_id>.rimg
        blob-0000 ...     # one codec-v2 value stream (zlib, stored) per
                          #   locally held payload, encoded or copied
        control           # the SuspendedQuery control record (codec v2)
        manifest          # JSON: per-file offset, size and SHA-256,
                          #   blob table, base image, metadata
        trailer           # fixed: manifest offset, length, CRC-32, magic

The parts (the manifest calls them "files") are written back to back
through one open ``<image_id>.rimg.tmp``, streamed in the codec's chunks
with a running SHA-256, then the whole file is flushed and ``fsync``-ed
**once**, atomically renamed to its final name, and the root directory
is ``fsync``-ed **once** so the rename is durable. The rename is the
commit point: a crash anywhere earlier leaves only a ``.rimg.tmp`` (a
*torn* image the recovery scan quarantines), a crash after it leaves a
complete, verifiable image. Two fsyncs per image however many payloads
it carries — the single sequentially written, checksummed checkpoint
file of main-memory recovery literature.

A reader trusts nothing before checking it: the trailer must carry the
magic, its offset and length must account for every byte of the file,
the manifest must match the trailer's CRC, the files must tile the space
before the manifest exactly, and each file is verified against its size
and SHA-256 before it is decoded. Those checks are the only framing
and integrity layer: a section is nothing but the codec's value stream.
Anything less is a torn image — and so is a well-formed file whose
manifest names a layout version other than this build's: that one stamp
covers the layout, the manifest schema and the value encoding, so any
format change bumps it, and an image in another format is rejected
whole, never half-read.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import zlib
from typing import Any, Callable, Iterator, Optional

from repro.common.errors import ReproError
from repro.durability.faults import NULL_INJECTOR, FaultInjector, InjectedCrash

#: Suffix of a packed image file; ``<image_id>.rimg`` under the root.
IMAGE_SUFFIX = ".rimg"
TMP_SUFFIX = ".tmp"
QUARANTINE_DIR = "quarantine"
#: Name of the control record inside a packed image.
CONTROL_NAME_V2 = "control"
BLOB_PREFIX = "blob-"
#: Torn-write labels of the two parts that are not manifested files.
MANIFEST_LABEL = "manifest"
TRAILER_LABEL = "trailer"

#: Version of the image layout, manifest schema and value encoding this
#: build reads and writes — the image's only format stamp. 5: a payload
#: keeps its key for life, and the control record carries key counters.
#: 6: a hash join's dumped hash table (``hash_rows``) is one row block.
#: 7: sections are stored (zlib level 0), and int columns are packed at
#: their narrowest width.
LAYOUT_VERSION = 7

#: manifest offset, manifest length, CRC-32 of (offset, length, manifest
#: bytes), magic — the last bytes of every packed image.
TRAILER = struct.Struct("<QQI8s")
TRAILER_MAGIC = b"RIMG2END"
_TRAILER_SPAN = struct.Struct("<QQ")


class ImageFormatError(ReproError):
    """Raised when an image fails validation."""


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fsync_dir(path: str) -> None:
    """Make directory-entry changes (renames, creates, unlinks) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_packed_image(
    root: str,
    image_id: str,
    files: "list[tuple[str, Callable[[Callable[[bytes], None]], None]]]",
    build_manifest: "Callable[[dict], dict]",
    injector: Optional[FaultInjector] = None,
) -> tuple[dict, int]:
    """Commit ``<root>/<image_id>.rimg``; returns ``(manifest, file size)``.

    ``files`` is ``[(name, producer)]`` in write order; ``producer(sink)``
    pushes chunks into the sink as it encodes, so peak memory stays
    bounded by one chunk and the SHA-256 the manifest needs is folded in
    on the way through. ``build_manifest(file_table)`` turns the finished
    ``name -> {offset, bytes, sha256}`` table into the manifest document.

    Crash points, in order: ``before:<name>`` ahead of each file,
    ``before:manifest``, ``written:image`` (temp file complete and
    durable, rename not yet done), ``renamed:image``, ``committed``. Torn
    writes: one opportunity per file (the write stops mid-chunk, inside
    the section's value stream), one inside the manifest, one inside the
    trailer. Every one of them leaves only the temp file behind.
    """
    injector = NULL_INJECTOR if injector is None else injector
    final_path = os.path.join(root, image_id + IMAGE_SUFFIX)
    tmp_path = final_path + TMP_SUFFIX
    table: dict[str, dict] = {}
    with open(tmp_path, "wb") as fh:

        def tear(label: str, data: bytes) -> None:
            # The crash struck mid-write: a prefix reaches the file,
            # then the process dies. The partial temp file stays behind.
            fh.write(data[: max(1, len(data) // 2)])
            fh.flush()
            os.fsync(fh.fileno())
            raise InjectedCrash(f"torn:{label}")

        offset = 0
        for name, producer in files:
            injector.point(f"before:{name}")
            torn = injector.wants_torn(name)
            digest = hashlib.sha256()
            size = 0

            def sink(chunk: bytes) -> None:
                nonlocal size
                if torn:
                    tear(name, chunk)
                fh.write(chunk)
                digest.update(chunk)
                size += len(chunk)

            producer(sink)
            if torn:
                # The producer offered no chunk to tear (empty stream).
                tear(name, b"")
            table[name] = {
                "offset": offset,
                "bytes": size,
                "sha256": digest.hexdigest(),
            }
            offset += size

        injector.point(f"before:{MANIFEST_LABEL}")
        manifest = build_manifest(table)
        data = dump_json(manifest)
        if injector.wants_torn(MANIFEST_LABEL):
            tear(MANIFEST_LABEL, data)
        fh.write(data)
        span = _TRAILER_SPAN.pack(offset, len(data))
        trailer = TRAILER.pack(
            offset, len(data), zlib.crc32(data, zlib.crc32(span)), TRAILER_MAGIC
        )
        if injector.wants_torn(TRAILER_LABEL):
            tear(TRAILER_LABEL, trailer)
        fh.write(trailer)
        fh.flush()
        os.fsync(fh.fileno())
    injector.point("written:image")
    os.replace(tmp_path, final_path)
    injector.point("renamed:image")
    fsync_dir(root)
    injector.point("committed")
    return manifest, offset + len(data) + TRAILER.size


def dump_json(value: Any) -> bytes:
    """Deterministic, compact JSON bytes (sorted keys, no whitespace, no
    float mangling). Without ``indent`` the json module's C encoder runs."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def parse_json(data: bytes, what: str) -> Any:
    """Decode JSON bytes; undecodable input is an :class:`ImageFormatError`
    naming ``what`` was being read."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ImageFormatError(f"unreadable JSON in {what}: {exc}") from exc


def read_manifest(path: str) -> dict:
    """Parse and structurally validate the manifest of the packed image
    at ``path``."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < TRAILER.size:
            raise ImageFormatError(f"{path}: too short to hold a trailer")
        fh.seek(size - TRAILER.size)
        offset, length, crc, magic = TRAILER.unpack(fh.read(TRAILER.size))
        if magic != TRAILER_MAGIC:
            raise ImageFormatError(f"{path}: no valid trailer")
        if offset + length + TRAILER.size != size:
            raise ImageFormatError(
                f"{path}: trailer does not account for the file's {size} bytes"
            )
        fh.seek(offset)
        data = fh.read(length)
    if len(data) != length or zlib.crc32(
        data, zlib.crc32(_TRAILER_SPAN.pack(offset, length))
    ) != crc:
        raise ImageFormatError(f"{path}: manifest fails its checksum")
    manifest = parse_json(data, path)
    validate_manifest_dict(manifest)
    # The files must tile [0, manifest offset) exactly: no gap can hide
    # unmanifested bytes and no two entries can claim the same range.
    end = 0
    for name, entry in sorted(
        manifest["files"].items(), key=lambda item: item[1]["offset"]
    ):
        if entry["offset"] != end:
            raise ImageFormatError(
                f"{path}: unmanifested bytes or overlap before {name!r}"
            )
        end += entry["bytes"]
    if end != offset:
        raise ImageFormatError(f"{path}: unmanifested bytes before the manifest")
    return manifest


def _check_file(name: str, data: bytes, entry: dict) -> bytes:
    if len(data) != entry["bytes"]:
        raise ImageFormatError(
            f"{name!r}: size {len(data)} != manifested {entry['bytes']}"
        )
    if sha256_hex(data) != entry["sha256"]:
        raise ImageFormatError(f"{name!r}: checksum mismatch")
    return data


@contextlib.contextmanager
def open_image(
    path: str, manifest: dict
) -> "Iterator[Callable[[str], bytes]]":
    """Yield ``read(name)`` over one image's manifested files.

    Every read verifies size and SHA-256 before returning the bytes;
    the reads are ranges of one open file.
    """

    def entry_of(name: str) -> dict:
        entry = manifest["files"].get(name)
        if entry is None:
            raise ImageFormatError(f"manifest has no entry for {name!r}")
        return entry

    try:
        fh = open(path, "rb")
    except FileNotFoundError as exc:
        raise ImageFormatError(f"missing image file {path!r}") from exc
    with fh:

        def read_range(name: str) -> bytes:
            entry = entry_of(name)
            fh.seek(entry["offset"])
            return _check_file(name, fh.read(entry["bytes"]), entry)

        yield read_range


def validate_manifest_dict(manifest: Any) -> None:
    """Structural checks on a parsed manifest (raises on problems)."""
    if not isinstance(manifest, dict):
        raise ImageFormatError("manifest is not a JSON object")
    version = manifest.get("layout_version")
    if version != LAYOUT_VERSION:
        raise ImageFormatError(
            f"unsupported layout version {version!r} "
            f"(this build reads version {LAYOUT_VERSION})"
        )
    for field in ("image_id", "files", "blobs", "control_file"):
        if field not in manifest:
            raise ImageFormatError(f"manifest lacks required field {field!r}")
    base = manifest.get("base_image_id")
    if base is not None and not isinstance(base, str):
        raise ImageFormatError("malformed base_image_id (must be a string)")
    required = {"offset", "sha256", "bytes"}
    for name, entry in manifest["files"].items():
        if not isinstance(entry, dict) or not required <= set(entry):
            raise ImageFormatError(f"malformed file entry for {name!r}")
    for blob in manifest["blobs"]:
        if (
            not isinstance(blob, dict)
            or "key" not in blob
            or not isinstance(blob.get("pages"), int)
        ):
            raise ImageFormatError("malformed blob entry in manifest")
        if "file" in blob:
            if (
                not isinstance(blob["file"], str)
                or blob["file"] not in manifest["files"]
            ):
                raise ImageFormatError(
                    f"blob {blob['key']!r} names a file the manifest lacks"
                )
        elif "ref" in blob:
            ref = blob["ref"]
            if not isinstance(ref, dict) or not all(
                isinstance(ref.get(part), str) for part in ("image_id", "file")
            ):
                raise ImageFormatError(
                    f"blob {blob['key']!r} has a malformed reference"
                )
        else:
            raise ImageFormatError(
                f"blob {blob['key']!r} has neither a local file nor a "
                "base-chain reference"
            )


def manifest_created_at(manifest: dict) -> float:
    """Commit wall-clock time, in seconds. Manifests record integer
    nanoseconds (``created_ns``) so the manifest's length — and with it
    the image's size — is the same in every run."""
    return manifest.get("created_ns", 0) / 1e9
