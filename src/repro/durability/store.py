"""The ImageStore: durable suspend images under one root directory.

Where the in-memory :class:`~repro.storage.statefile.StateStore` keeps
dump payloads as Python objects behind the *simulated* disk, the
ImageStore writes a complete, self-contained suspend image to a *real*
file so a suspended query can outlive its process — the paper's grid
migration, rolling upgrade, and scheduled-maintenance scenarios.

Responsibilities:

- :meth:`ImageStore.save` — export every payload a SuspendedQuery
  references (dumps, sort sublists, spilled hash partitions: one section
  each), encode the control record, and commit the image as one
  packed file with the protocol of :mod:`repro.durability.format`: one
  ``fsync`` of the file, one rename (the commit point), one ``fsync`` of
  the root. Each section is one value stream of the binary columnar
  codec (:mod:`repro.durability.codec2`); the manifest's
  ``layout_version`` is the image's one format stamp;
- **delta images** — ``save(..., base_image_id=...)`` commits only the
  payloads whose bytes are not already a section of an image in the base
  chain. The state store remembers, per key, the verified section a
  payload was loaded from or last committed to (its *origin*; any
  re-dump forgets it), so an unchanged payload becomes a manifest
  *reference* ``(image_id, file)`` to the ancestor that physically holds
  the bytes — in the saving process or any process that loaded the base.
  Resume materializes the base+delta chain transparently, and
  :meth:`delete_chain` / :meth:`gc` collect whole chains together;
- **copied sections** — a payload whose origin is a section outside the
  new image's chain (the chain a ``MAX_CHAIN`` rebase leaves behind, or
  the image a resumed query was loaded from) is written by copying the
  section's verified bytes, never decoded or re-encoded (a payload keeps
  the key its record embeds for life, so the copy is that record
  verbatim). A section that is gone or no longer verifies is encoded
  afresh instead;
- :meth:`ImageStore.save_many` — commit a batch of images (one memory-
  pressure event's victims) serially in request order, after every
  request in the batch has been checked;
- :meth:`ImageStore.load` — verify every section's checksum, decode the
  control record, and stage the payload sections *undecoded*, with the
  origin of each, for import (a resume from the image charges what a
  resume in place charges: the sections are the dumped pages, read back
  as the resumed query needs them; the state store decodes a payload
  when it is first read). The packed ``<id>.rimg`` with codec-v2
  sections is the only form read; any other layout stamp is a format
  error;
- :meth:`ImageStore.save_cut` / :meth:`load_cut` — a sharded query's
  global cut (:mod:`repro.shard.manifest`) as an image of its own: the
  coordinator record is its control section, it holds no payload
  section, and it is committed by the same path as every image;
- :meth:`ImageStore.recover` — the startup scan: classify every entry
  under the root as committed, torn, or orphaned, and quarantine the bad
  ones instead of crashing;
- :meth:`ImageStore.list_images` / :meth:`validate` / :meth:`delete` /
  :meth:`gc` — inventory management;
- the ledger (``TOKENS.json``) — the root's one metadata file: an
  append-only record of redeemed continuation tokens (:meth:`claim`) and
  GC pins (:meth:`pin` / :meth:`unpin`), appended under an exclusive
  ``flock`` so any number of store instances, in any number of
  processes, can share one root. A query name a record carries is
  spent for the root (:meth:`reserved`).
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import json
import os
import time
import uuid
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from repro.common.errors import ReproError
from repro.core.suspended_query import SuspendedQuery
from repro.durability import codec2
from repro.durability.faults import NULL_INJECTOR, FaultInjector
from repro.obs.tracer import NULL_TRACER
from repro.durability.format import (
    BLOB_PREFIX,
    CONTROL_NAME_V2,
    IMAGE_SUFFIX,
    LAYOUT_VERSION,
    QUARANTINE_DIR,
    TMP_SUFFIX,
    ImageFormatError,
    fsync_dir,
    manifest_created_at,
    open_image,
    read_manifest,
    write_packed_image,
)
from repro.storage.statefile import (
    DumpHandle,
    PayloadHold,
    PayloadOrigin,
    StagedPayload,
    StateStore,
)


class ImageNotFoundError(ReproError):
    """Raised when an image id does not name a committed image."""


#: Longest base+delta chain a save may produce: a save whose chain would
#: grow past it is promoted to a full image.
MAX_CHAIN = 8

#: Hard ceiling on base+delta chain traversal (cycle/corruption guard).
MAX_CHAIN_WALK = 64

#: The root's one metadata file: an append-only ledger, one compact JSON
#: record per line — a redeemed continuation token ``{"img", "q",
#: "token"}`` (see :mod:`repro.serve.tokens`), a GC pin ``{"pin", "release"}``
#: (a query's first pin adds its name, ``"q"``) or an unpin ``{"unpin"}``.
TOKENS_NAME = "TOKENS.json"

#: Image-metadata key set on a shard-set cut (:meth:`ImageStore.save_cut`):
#: its control section is a coordinator record, not a suspended query.
CUT_META_KEY = "shard_cut"


def _is_cut(manifest: dict) -> bool:
    return bool((manifest.get("meta") or {}).get(CUT_META_KEY))


def _held_sections(manifest: dict) -> dict[str, dict]:
    """``section -> {key, pages, sha256, bytes}`` for every payload an
    image physically holds (its references to ancestors excluded) — what
    a reference into, or a copy from, this image may name; ``key`` is the
    one the section's record embeds."""
    files = manifest["files"]
    return {
        blob["file"]: {
            "key": blob["key"],
            "pages": blob["pages"],
            "sha256": files[blob["file"]]["sha256"],
            "bytes": files[blob["file"]]["bytes"],
        }
        for blob in manifest["blobs"]
        if "file" in blob
    }


@dataclass(frozen=True)
class ImageInfo:
    """Summary of one committed image."""

    image_id: str
    path: str
    created_at: float
    meta: dict
    num_blobs: int
    blob_pages: int
    total_bytes: int
    #: For delta images: the image this one's references resolve into.
    base_image_id: Optional[str] = None
    #: Number of images in the base+delta chain, this one included.
    chain_length: int = 1
    #: Bytes this commit *reused* from ancestors instead of rewriting:
    #: the sections its ``num_blobs - local_blobs`` references name.
    reused_bytes: int = 0
    #: Size of the control section, and count and size of the payload
    #: sections the image physically holds.
    control_bytes: int = 0
    local_blobs: int = 0
    local_bytes: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class RecoveryReport:
    """What the startup scan found under an image root."""

    committed: list[str] = field(default_factory=list)
    torn: list[str] = field(default_factory=list)
    orphaned: list[str] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "committed": list(self.committed),
            "torn": list(self.torn),
            "orphaned": list(self.orphaned),
            "quarantined": list(self.quarantined),
        }


@dataclass
class SaveRequest:
    """One image commit, as submitted to :meth:`ImageStore.save_many`."""

    sq: SuspendedQuery
    store: StateStore
    image_id: Optional[str] = None
    meta: Optional[dict] = None
    base_image_id: Optional[str] = None


@dataclass
class _LocalBlob:
    """One payload section an image writes itself: ``payload`` encoded,
    or the verified section ``copy_of`` copied byte for byte."""

    name: str
    key: str
    pages: int
    payload: Any = None
    #: A section of another image that holds this payload's bytes;
    #: ``handle`` exports the payload in case the section no longer
    #: verifies when it is copied.
    copy_of: Optional[PayloadOrigin] = None
    handle: Optional[DumpHandle] = None


@dataclass
class _PreparedSave:
    """Snapshot of everything :meth:`ImageStore._write_image` needs."""

    image_id: str
    base_image_id: Optional[str]
    #: Images in the base+delta chain once this one commits.
    chain_length: int
    #: The payload sections the image writes (:class:`_LocalBlob`).
    local_blobs: list
    #: Manifest entries for payloads reused from the base chain.
    ref_blobs: list
    reused_bytes: int
    #: The control record: a SuspendedQuery's, or a shard-set cut's.
    control: dict
    #: The exporting StateStore: told, once the image is committed, which
    #: section now holds each locally written payload.
    store: Optional[StateStore]
    meta: dict


class ImageStore:
    """Durable suspend images under ``root``, one packed file per image.

    Images are written as ``<image_id>.rimg`` and nothing else under the
    root is read as an image. ``injector`` places crash points and torn
    writes inside a commit (the crash-matrix harness); without one the
    store shares :data:`~repro.durability.faults.NULL_INJECTOR`, which
    records nothing.
    """

    def __init__(
        self,
        root: str,
        injector: Optional[FaultInjector] = None,
    ):
        self.root = os.fspath(root)
        self.injector = NULL_INJECTOR if injector is None else injector
        # Manifests are immutable once committed, so they cache cleanly;
        # a hit still stats the image so deletions by other store
        # instances over the same root are noticed.
        self._manifest_cache: dict[str, dict] = {}
        # The ledger as folded so far: the offset just past the last
        # newline-terminated record read, and what the records say.
        self._ledger_offset = 0
        self._redeemed: set[str] = set()
        self._pinned: set[str] = set()
        self._queries: set[str] = set()
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def save(
        self,
        sq: SuspendedQuery,
        store: StateStore,
        image_id: Optional[str] = None,
        meta: Optional[dict] = None,
        tracer=None,
        base_image_id: Optional[str] = None,
    ) -> ImageInfo:
        """Commit a suspend image; returns its :class:`ImageInfo`.

        Payloads are exported from ``store`` without extra simulated-disk
        charges — their page writes were already paid when they were
        dumped, and the image is the durable representation of that same
        simulated disk. Blobs, control record, manifest and trailer are
        streamed into one temp file, fsynced once, and renamed; the
        rename is the commit point.

        With ``base_image_id`` set, payloads whose origin (see
        :meth:`StateStore.origin_of`) is a section of an image in the
        base chain are *referenced* instead of rewritten — a delta
        image. The base must stay on disk for the delta to load; use
        :meth:`delete_chain` / :meth:`gc` to collect chains together.
        When the chain has reached ``MAX_CHAIN`` images the save is
        promoted to a full one. A payload whose origin is a section of
        any other committed image is copied from it byte for byte, not
        re-encoded.
        """
        prep = self._prepare_save(
            SaveRequest(
                sq=sq,
                store=store,
                image_id=image_id,
                meta=meta,
                base_image_id=base_image_id,
            )
        )
        result = self._write_image(prep)
        return self._finish_save(prep, result, tracer)

    def save_many(
        self, requests: list[SaveRequest], tracer=None
    ) -> list[ImageInfo]:
        """Commit several images, serially and in request order.

        Every request is prepared (payload export, id allocation, delta
        planning) before the first byte is written, so a bad request
        rejects the whole batch with nothing on disk; trace/metric
        records are emitted after the last write. The produced bytes and
        records are identical to running :meth:`save` in a loop. The call
        returns after every image is durably committed.

        One exception to nothing-on-disk: a section to be copied from
        another image (see :meth:`save`) is read only when its image is
        written. If it no longer verifies then, its payload is exported
        and encoded instead; if that export fails too, that image's write
        raises :class:`ImageFormatError` naming both. Images earlier in
        the batch stay committed, and the failed one leaves only its temp
        file, which :meth:`recover` reports torn.
        """
        preps = [self._prepare_save(req) for req in requests]
        results = [self._write_image(prep) for prep in preps]
        return [
            self._finish_save(prep, result, tracer)
            for prep, result in zip(preps, results)
        ]

    def save_cut(
        self, record: dict, image_id: str, meta: Optional[dict] = None
    ) -> ImageInfo:
        """Commit a sharded query's global cut as an image.

        ``record`` (the coordinator record of :mod:`repro.shard.manifest`)
        is the control section and there is no payload section; the
        commit is :meth:`save`'s, so its rename is the cut's commit point.
        The image is marked ``CUT_META_KEY`` in its metadata, which is how
        :meth:`load` tells it from a suspended query.
        """
        self._check_new_id(image_id)
        prep = _PreparedSave(
            image_id=image_id,
            base_image_id=None,
            chain_length=1,
            local_blobs=[],
            ref_blobs=[],
            reused_bytes=0,
            control=record,
            store=None,
            meta={**(meta or {}), CUT_META_KEY: True},
        )
        return self._finish_save(prep, self._write_image(prep), None)

    def _check_new_id(self, image_id: str) -> None:
        if os.sep in image_id or image_id.startswith("."):
            raise ValueError(f"invalid image id {image_id!r}")
        if os.path.lexists(self._image_path(image_id)):
            raise ValueError(f"image {image_id!r} already exists")

    def _prepare_save(self, req: SaveRequest) -> _PreparedSave:
        image_id = req.image_id or f"img-{uuid.uuid4().hex[:12]}"
        self._check_new_id(image_id)

        base_image_id = req.base_image_id
        chain: list[str] = []
        if base_image_id is not None:
            chain = self.chain(base_image_id)
            if len(chain) >= MAX_CHAIN:
                # Rebase: a full image caps the resume/validate fan-out.
                base_image_id = None
                chain = []

        local_blobs = []
        ref_blobs = []
        reused_bytes = 0
        held: dict[str, dict] = {}  # origin image -> sections it holds
        handles = req.sq.referenced_handles()
        for key in sorted(handles):
            handle = handles[key]
            origin = req.store.origin_of(key)
            section = self._origin_section(origin, handle.pages, held)
            # Dump payloads are immutable once stored, and this one has
            # not been re-dumped since it was read from, or written to, a
            # section an image still holds with the same digest (an image
            # id reused for other bytes never matches): its bytes are
            # already durable, and the payload is not needed — a staged
            # one stays undecoded.
            if section is not None and origin.image_id in chain:
                # The image physically owning them is in the new image's
                # chain: reference it.
                ref_blobs.append(
                    {
                        "key": key,
                        "pages": handle.pages,
                        "ref": {
                            "image_id": origin.image_id,
                            "file": origin.section,
                        },
                    }
                )
                reused_bytes += section["bytes"]
                continue
            name = f"{BLOB_PREFIX}{len(local_blobs):04d}"
            if section is not None:
                # Outside the chain (a rebase, or a full save of a resumed
                # query): copy the section's bytes, not re-encode them.
                local_blobs.append(
                    _LocalBlob(
                        name, key, handle.pages, copy_of=origin, handle=handle
                    )
                )
            else:
                payload, pages = req.store.export_payload(handle)
                local_blobs.append(_LocalBlob(name, key, pages, payload))
        return _PreparedSave(
            image_id=image_id,
            base_image_id=base_image_id,
            chain_length=len(chain) + 1,
            local_blobs=local_blobs,
            ref_blobs=ref_blobs,
            reused_bytes=reused_bytes,
            control=codec2.suspended_query_to_record(req.sq),
            store=req.store,
            meta=dict(req.meta or {}),
        )

    def _origin_section(
        self, origin: Optional[PayloadOrigin], pages: int, held: dict
    ) -> Optional[dict]:
        """The section entry (:func:`_held_sections`) of ``origin`` if its
        image is still committed and holds it with the origin's digest and
        ``pages``; ``held`` caches each image's sections for one save."""
        if origin is None:
            return None
        if origin.image_id not in held:
            try:
                manifest = self.manifest(origin.image_id)
            except (ImageNotFoundError, ImageFormatError, OSError):
                manifest = {"blobs": [], "files": {}}  # gone or unreadable
            held[origin.image_id] = _held_sections(manifest)
        section = held[origin.image_id].get(origin.section)
        if (
            section is None
            or section["sha256"] != origin.sha256
            or section["pages"] != pages
        ):
            return None
        return section

    def _write_image(self, prep: _PreparedSave) -> dict:
        """Encode (or copy) and durably write one prepared image."""
        self.injector.point("begin")
        start = time.perf_counter()

        def build_manifest(table: dict) -> dict:
            blobs = [
                {"file": blob.name, "key": blob.key, "pages": blob.pages}
                for blob in prep.local_blobs
            ]
            blobs.extend(dict(entry) for entry in prep.ref_blobs)
            blobs.sort(key=lambda b: b["key"])
            return {
                "layout_version": LAYOUT_VERSION,
                "base_image_id": prep.base_image_id,
                "image_id": prep.image_id,
                "created_ns": time.time_ns(),
                "meta": prep.meta,
                "control_file": CONTROL_NAME_V2,
                "files": table,
                "blobs": blobs,
            }

        with self._readers() as reader_of:

            def produce(blob: _LocalBlob, sink) -> None:
                payload = blob.payload
                if blob.copy_of is not None:
                    origin = blob.copy_of
                    try:
                        # A verified read: size and SHA-256 checked first.
                        data = reader_of(origin.image_id)[1](origin.section)
                    except (ImageNotFoundError, ImageFormatError, OSError) as exc:
                        # Gone, or no longer verifies: never copy it.
                        try:
                            payload, _ = prep.store.export_payload(blob.handle)
                        except ReproError as export_exc:
                            raise ImageFormatError(
                                f"image {prep.image_id!r}: section "
                                f"{origin.section!r} of image "
                                f"{origin.image_id!r} no longer verifies "
                                f"({exc}), and payload {blob.key!r} cannot "
                                f"be exported instead: {export_exc}"
                            ) from export_exc
                    else:
                        sink(data)
                        return
                record = {"key": blob.key, "pages": blob.pages, "payload": payload}
                codec2.encode_to_stream(record, sink)

            files = [
                (blob.name, functools.partial(produce, blob))
                for blob in prep.local_blobs
            ]
            files.append(
                (
                    CONTROL_NAME_V2,
                    lambda sink: codec2.encode_to_stream(prep.control, sink),
                )
            )
            manifest, file_bytes = write_packed_image(
                self.root, prep.image_id, files, build_manifest, self.injector
            )
        control_bytes = manifest["files"][CONTROL_NAME_V2]["bytes"]
        total = sum(e["bytes"] for e in manifest["files"].values())
        return {
            "manifest": manifest,
            "file_bytes": file_bytes,
            "payload_bytes": total,
            "control_bytes": control_bytes,
            "blob_pages": sum(b["pages"] for b in manifest["blobs"]),
            "encode_seconds": time.perf_counter() - start,
        }

    def _finish_save(
        self, prep: _PreparedSave, result: dict, tracer
    ) -> ImageInfo:
        tracer = tracer if tracer is not None else NULL_TRACER
        manifest = result["manifest"]
        total = result["payload_bytes"]  # > 0: the control section counts
        delta_ratio = total / (total + prep.reused_bytes)
        if tracer.enabled:
            now = tracer.now()
            tracer.event(
                "image.commit_step",
                image_id=prep.image_id,
                step="blobs",
                files=len(manifest["blobs"]),
                pages=result["blob_pages"],
            )
            tracer.event(
                "image.commit_step",
                image_id=prep.image_id,
                step="control",
                bytes=result["control_bytes"],
            )
            # payload_bytes excludes the manifest (its
            # commit time differs between runs, and trace records must
            # stay byte-deterministic). encode_seconds is wall clock, so
            # it goes to the volatile metrics only, never into trace
            # records.
            tracer.event(
                "image.commit",
                ts=now,
                dur=0.0,
                image_id=prep.image_id,
                base_image_id=prep.base_image_id,
                num_blobs=len(manifest["blobs"]),
                reused_blobs=len(prep.ref_blobs),
                blob_pages=result["blob_pages"],
                payload_bytes=total,
                reused_bytes=prep.reused_bytes,
                delta_ratio=round(delta_ratio, 6),
            )
            metrics = tracer.metrics
            metrics.counter("image_commits_total").inc()
            metrics.counter("image_payload_bytes_total").inc(total)
            metrics.counter(
                "image_reused_bytes_total"
            ).inc(prep.reused_bytes)
            metrics.gauge("image_delta_ratio").set(round(delta_ratio, 6))
            metrics.histogram(
                "image_encode_seconds", volatile=True
            ).observe(result["encode_seconds"])
        # The manifest just written is the manifest on disk: remember it.
        self._manifest_cache[prep.image_id] = manifest
        # ... and every payload it wrote now lives in this image.
        for blob in prep.local_blobs:
            prep.store.committed_to(
                blob.key,
                PayloadOrigin(
                    prep.image_id,
                    blob.name,
                    manifest["files"][blob.name]["sha256"],
                ),
            )
        return self._image_info(
            manifest, result["file_bytes"], prep.chain_length, prep.reused_bytes
        )

    def _image_info(
        self, manifest: dict, total_bytes: int, chain_length: int, reused: int
    ) -> ImageInfo:
        files, blobs = manifest["files"], manifest["blobs"]
        local = [files[b["file"]]["bytes"] for b in blobs if "file" in b]
        return ImageInfo(
            image_id=manifest["image_id"],
            path=self._image_path(manifest["image_id"]),
            created_at=manifest_created_at(manifest),
            meta=manifest.get("meta", {}),
            num_blobs=len(blobs),
            blob_pages=sum(b["pages"] for b in blobs),
            total_bytes=total_bytes,
            base_image_id=manifest.get("base_image_id"),
            chain_length=chain_length,
            reused_bytes=reused,
            control_bytes=files[manifest["control_file"]]["bytes"],
            local_blobs=len(local),
            local_bytes=sum(local),
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _image_path(self, image_id: str) -> str:
        """Where the packed file of ``image_id`` lives (committed or not)."""
        return os.path.join(self.root, image_id + IMAGE_SUFFIX)

    def _locate(self, image_id: str) -> Optional[str]:
        """Path of a committed image's packed file, or None. Only a
        regular file is an image: a stray directory of that name is
        recover()'s to quarantine, not ours to open."""
        path = self._image_path(image_id)
        return path if os.path.isfile(path) else None

    def manifest(self, image_id: str) -> dict:
        """Parse and structurally validate an image's manifest."""
        path = self._locate(image_id)
        if path is None:
            self._manifest_cache.pop(image_id, None)
            raise ImageNotFoundError(f"no committed image {image_id!r}")
        cached = self._manifest_cache.get(image_id)
        if cached is not None:
            return cached
        manifest = read_manifest(path)
        if manifest["image_id"] != image_id:
            raise ImageFormatError(
                f"image {image_id!r} carries the manifest of "
                f"{manifest['image_id']!r}"
            )
        self._manifest_cache[image_id] = manifest
        return manifest

    def chain(self, image_id: str) -> list[str]:
        """The base+delta chain, tip first, ending at the full image."""
        chain, error = self._chain_in(image_id)
        if error is not None:
            raise error
        return chain

    def _chain_in(
        self, image_id: str, manifests: Optional[dict] = None
    ) -> tuple[list[str], Optional[ReproError]]:
        """The base+delta chain of ``image_id``, tip first, as far as it
        resolves through ``manifests`` (default: the images on disk), and
        the error that stopped it short of a full image, if any."""
        chain: list[str] = []
        current: Optional[str] = image_id
        while current is not None:
            if current in chain or len(chain) >= MAX_CHAIN_WALK:
                return chain, ImageFormatError(
                    f"image chain at {image_id!r} is cyclic or too deep"
                )
            chain.append(current)
            try:
                manifest = (
                    manifests[current] if manifests else self.manifest(current)
                )
            except KeyError:
                return chain, ImageNotFoundError(f"no image {current!r}")
            except (ImageNotFoundError, ImageFormatError) as exc:
                return chain, exc
            current = manifest.get("base_image_id")
        return chain, None

    @contextlib.contextmanager
    def _readers(self):
        """Yield ``reader_of(image_id) -> (manifest, read, held)``:
        verified reads over any image, one open file per image touched,
        and the payload sections it holds (:func:`_held_sections`)."""
        with contextlib.ExitStack() as stack:
            readers: dict[str, tuple] = {}

            def reader_of(image_id: str) -> tuple:
                if image_id not in readers:
                    manifest = self.manifest(image_id)
                    read = stack.enter_context(
                        open_image(self._image_path(image_id), manifest)
                    )
                    readers[image_id] = (
                        manifest,
                        read,
                        _held_sections(manifest),
                    )
                return readers[image_id]

            yield reader_of

    @staticmethod
    def _staged(data: bytes, fname: str, key: str, pages: int) -> StagedPayload:
        """The verified section bytes ``data`` as a payload the state
        store decodes on first read. A blob record embeds its payload's
        key, so it is cross-checked against the blob entry naming it
        (``key``, ``pages``) — at decode time, before the payload reaches
        any reader."""

        def decode():
            record = codec2.decode_bytes(data)
            fields = {"key", "pages", "payload"}
            if not isinstance(record, dict) or not fields <= set(record):
                raise ImageFormatError("malformed image blob record")
            if record["key"] != key or record["pages"] != pages:
                raise ImageFormatError(
                    f"blob {fname!r} does not match its manifest entry"
                )
            return record["payload"]

        return StagedPayload(decode)

    @staticmethod
    def _check_record_key(data: bytes, fname: str, key: str) -> None:
        """Raise unless the verified section ``data`` embeds ``key`` —
        what :meth:`_staged` checks at first read, for :meth:`validate`,
        from the head of the record without decoding its payload."""
        try:
            embedded = codec2.record_key(data)
        except codec2.CodecError as exc:
            raise ImageFormatError(f"blob {fname!r}: {exc}") from exc
        if embedded != key:
            raise ImageFormatError(
                f"blob {fname!r} does not match its manifest entry"
            )

    def load(self, image_id: str) -> SuspendedQuery:
        """Verify an image and stage it as a resumable SuspendedQuery.

        The control record is decoded here. Every payload section the
        image names — its own and, for a delta, those it references, each
        checked to be held with the same page count by an image of its
        base chain — is read and verified (size and SHA-256) before this
        returns, but not decoded: the query's ``payloads`` hold each as a
        :class:`~repro.storage.statefile.StagedPayload` with the section
        it is, and no count anywhere. Each ``QuerySession.resume`` of it
        imports them into the target database's state store uncharged,
        so it costs what a resume in place of the same query costs;
        the store decodes a payload when its handle is first read — a
        section the resumed query never dereferences costs no decode —
        and a malformed blob record raises :class:`ImageFormatError` then.
        """
        chain = self.chain(image_id)
        with self._readers() as reader_of:
            manifest, read, _ = reader_of(image_id)
            if _is_cut(manifest):
                raise ImageFormatError(
                    f"image {image_id!r} is a shard-set cut, not a suspended "
                    "query: resume it with ShardCoordinator.resume"
                )
            sq = codec2.decode_suspended_query(read(manifest["control_file"]))
            payloads: dict = {}
            for blob in manifest["blobs"]:
                if "file" in blob:
                    owner_id, fname = image_id, blob["file"]
                else:
                    owner_id = blob["ref"]["image_id"]
                    fname = blob["ref"]["file"]
                    self._check_ref(blob, chain, lambda i: reader_of(i)[2])
                _, read, held = reader_of(owner_id)
                payloads[blob["key"]] = (
                    self._staged(read(fname), fname, blob["key"], blob["pages"]),
                    blob["pages"],
                    PayloadOrigin(owner_id, fname, held[fname]["sha256"]),
                )
        sq.payloads = PayloadHold(payloads)
        return sq

    def load_cut(self, image_id: str) -> dict:
        """The verified, decoded coordinator record of the shard-set cut
        ``image_id`` (see :meth:`save_cut`); any other image is an
        :class:`ImageFormatError`."""
        with self._readers() as reader_of:
            manifest, read, _ = reader_of(image_id)
            if not _is_cut(manifest):
                raise ImageFormatError(
                    f"image {image_id!r} is not a shard-set cut"
                )
            return codec2.decode_bytes(read(manifest["control_file"]))

    @staticmethod
    def _check_ref(blob: dict, chain: list[str], held_of) -> None:
        """Raise unless a reference names a payload section held by an
        image of ``chain`` (``held_of(image_id)``: its
        :func:`_held_sections`) under the same key and page count.

        :meth:`gc` and :meth:`delete_chain` keep a tip's ``base_image_id``
        chain and nothing else, so bytes referenced from outside it would
        not survive the next collection.
        """
        ref = blob["ref"]
        if ref["image_id"] not in chain:
            raise ImageFormatError(
                f"reference into {ref['image_id']!r}, which is not in the "
                "image's base chain"
            )
        held = held_of(ref["image_id"]).get(ref["file"], {})
        if (held.get("key"), held.get("pages")) != (blob["key"], blob["pages"]):
            raise ImageFormatError(
                f"{ref['image_id']!r} holds no {blob['pages']}-page payload "
                f"section {ref['file']!r} of {blob['key']!r}"
            )

    def info(self, image_id: str) -> ImageInfo:
        manifest = self.manifest(image_id)
        base = manifest.get("base_image_id")
        reused = 0
        for blob in manifest["blobs"]:
            if "ref" in blob:
                try:
                    ref_manifest = self.manifest(blob["ref"]["image_id"])
                    reused += ref_manifest["files"][blob["ref"]["file"]][
                        "bytes"
                    ]
                except (ImageNotFoundError, ImageFormatError, KeyError):
                    pass  # validate() reports broken refs in detail
        chain, error = self._chain_in(image_id)
        chain_length = len(chain) if base and error is None else 1
        size = os.path.getsize(self._image_path(image_id))
        return self._image_info(manifest, size, chain_length, reused)

    def _image_ids(self) -> list[str]:
        """Ids of every packed image file under the root (one scan)."""
        return [
            name[: -len(IMAGE_SUFFIX)]
            for name in sorted(os.listdir(self.root))
            if name.endswith(IMAGE_SUFFIX)
        ]

    def _manifests(self) -> dict[str, dict]:
        """``image id -> manifest`` of every readable image: one root
        scan, and a cached manifest is trusted without touching its file
        (the scan just saw it). Unreadable ones are recover()'s job."""
        found: dict[str, dict] = {}
        for image_id in self._image_ids():
            manifest = self._manifest_cache.get(image_id)
            if manifest is None:
                try:
                    manifest = self.manifest(image_id)
                except ReproError:
                    continue
            found[image_id] = manifest
        return found

    def list_images(self) -> list[ImageInfo]:
        """Every committed image under the root, oldest first."""
        infos = []
        for image_id in self._manifests():
            try:
                infos.append(self.info(image_id))
            except ReproError:
                continue  # recover() deals with bad manifests
        infos.sort(key=lambda i: (i.created_at, i.image_id))
        return infos

    def validate(self, image_id: str) -> list[str]:
        """Full verification; returns a list of problems (empty = ok).

        Delta images additionally require every chain reference to
        resolve: the ancestor image must exist and be part of this
        image's base chain (the only images :meth:`gc` keeps for it), its
        manifest must hold the referenced section as a payload of the
        same page count, and the section must verify against the
        ancestor's checksums.
        """
        manifest, problems = self._own_problems(image_id)
        if manifest is None:
            return problems
        problems += self._link_problems(image_id)
        with self._readers() as reader_of:
            for blob in manifest["blobs"]:
                if "ref" not in blob:
                    continue
                ref = blob["ref"]
                try:
                    reader_of(ref["image_id"])[1](ref["file"])
                except (ImageNotFoundError, ImageFormatError) as exc:
                    problems.append(
                        f"unresolvable blob reference {blob['key']!r} -> "
                        f"{ref['image_id']}/{ref['file']}: {exc}"
                    )
        return problems

    def _own_problems(self, image_id: str) -> tuple[Optional[dict], list[str]]:
        """``image_id``'s manifest from disk (``None`` if unreadable) and
        the problems of its own files: all :meth:`validate` checks but
        the chain, each file read and hashed once."""
        # Validation is about what is on disk — bypass the cache.
        self._manifest_cache.pop(image_id, None)
        try:
            manifest = self.manifest(image_id)
        except ImageNotFoundError:
            return None, [f"image {image_id!r} not found"]
        except ImageFormatError as exc:
            return None, [str(exc)]
        problems: list[str] = []
        with self._readers() as reader_of:
            _, read, held = reader_of(image_id)
            for name in manifest["files"]:
                try:
                    data = read(name)
                    if name in held:
                        self._check_record_key(data, name, held[name]["key"])
                except ImageFormatError as exc:
                    problems.append(str(exc))
        return manifest, problems

    def _link_problems(
        self, image_id: str, manifests: Optional[dict] = None
    ) -> list[str]:
        """Problems of ``image_id``'s chain (through ``manifests``, or from
        disk) and references (:meth:`_check_ref`): manifests only."""
        chain, error = self._chain_in(image_id, manifests)
        if error is not None:
            return [f"broken image chain: {error}"]
        manifest_of = manifests.__getitem__ if manifests else self.manifest
        held = {iid: _held_sections(manifest_of(iid)) for iid in chain}
        problems = []
        for blob in manifest_of(image_id)["blobs"]:
            try:
                if "ref" in blob:
                    self._check_ref(blob, chain, held.__getitem__)
            except ImageFormatError as exc:
                problems.append(f"blob reference {blob['key']!r}: {exc}")
        return problems

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _remove(self, image_id: str) -> bool:
        """Unlink an image without syncing the root; returns whether
        anything was there."""
        self._manifest_cache.pop(image_id, None)
        try:
            os.unlink(self._image_path(image_id))
            return True
        except (FileNotFoundError, IsADirectoryError):
            return False

    def delete(self, image_id: str) -> None:
        if not self._remove(image_id):
            raise ImageNotFoundError(f"no image {image_id!r}")
        fsync_dir(self.root)

    def delete_chain(self, image_id: str) -> list[str]:
        """Delete an image together with its whole base+delta chain.

        The tip, its ancestors, and every delta built on top of any of
        them (a delta cannot survive its base) are removed with one scan
        of the root and one sync of it. Returns deleted ids, tip-most
        first.
        """
        manifests = self._manifests()
        dependents: dict[str, list] = {}
        for iid, manifest in manifests.items():
            base = manifest.get("base_image_id")
            if base is not None:
                dependents.setdefault(base, []).append(iid)
        doomed, _ = self._chain_in(image_id, manifests)
        seen = set(doomed)
        for iid in doomed:  # grows while iterating: transitive dependents
            for dep in dependents.get(iid, ()):
                if dep not in seen:
                    seen.add(dep)
                    doomed.append(dep)
        deleted = [iid for iid in doomed if self._remove(iid)]
        if deleted:
            fsync_dir(self.root)
        return deleted

    def gc(self, keep: Optional[set] = None) -> list[str]:
        """Delete committed images not in ``keep``; returns deleted ids.

        Chains are collected together: keeping a delta image implicitly
        keeps every ancestor it needs to load. Pinned images (see
        :meth:`pin` — an outstanding continuation token is the typical
        pinner) are protected the same way, chain included, without
        appearing in ``keep``.
        """
        manifests = self._manifests()
        protected: set[str] = set()
        for iid in set(keep or ()) | self.pins():
            protected.update(self._chain_in(iid, manifests)[0])
        oldest_first = sorted(
            manifests, key=lambda i: (manifest_created_at(manifests[i]), i)
        )
        deleted = [
            iid
            for iid in oldest_first
            if iid not in protected and self._remove(iid)
        ]
        if deleted:
            fsync_dir(self.root)
        return deleted

    # ------------------------------------------------------------------
    # The ledger: token redemptions and pins (token-aware GC)
    # ------------------------------------------------------------------
    def _catch_up(self, fd: int) -> int:
        """Fold the records appended since the last read (by any writer);
        returns the ledger's size. Only newline-terminated lines are
        records: a tail without one is an append still in progress, or
        a crash's torn fragment that the next append terminates."""
        start = self._ledger_offset
        size = os.fstat(fd).st_size
        data = os.pread(fd, size - start, start)
        complete = data.rfind(b"\n") + 1
        for line in data[:complete].split(b"\n"):
            try:
                record = json.loads(line)
                if "q" in record:
                    self._queries.add(record["q"])
                if "token" in record:
                    self._redeemed.add(record["token"])
                elif "pin" in record:
                    self._pinned.discard(record["release"])
                    self._pinned.add(record["pin"])
                elif "unpin" in record:
                    self._pinned.discard(record["unpin"])
            except (ValueError, KeyError, TypeError):
                # A terminated torn fragment: the redeem or pin it would
                # have recorded was never acknowledged.
                continue
        self._ledger_offset = start + complete
        return size

    def _append(self, record_for) -> bool:
        """Append ``record_for()`` to the ledger; returns whether it did.

        Under an exclusive ``flock``: catch up on other writers, ask
        ``record_for`` (``None`` = nothing to record), end a torn tail
        with a newline so it stays a line of its own, write and fsync
        the record. The first record also syncs the root, which makes
        the file's name durable.
        """
        with open(os.path.join(self.root, TOKENS_NAME), "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # released by the close
            size = self._catch_up(fh.fileno())
            record = record_for()
            if record is None:
                return False
            line = json.dumps(record, sort_keys=True, separators=(",", ":"))
            torn = b"\n" if size > self._ledger_offset else b""
            fh.write(torn + line.encode("utf-8") + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
            if size == 0:
                fsync_dir(self.root)
            self._catch_up(fh.fileno())
            return True

    def claim(self, image_id: str, query: str, token: str) -> bool:
        """Durably record the redeem of ``token``, which resumes
        ``image_id``; returns ``False`` if it was already redeemed, here
        or by any other store instance over this root. Raises
        :class:`ImageNotFoundError` (recording nothing) if the image is
        gone."""

        def record():
            if token in self._redeemed:
                return None
            self.manifest(image_id)
            return {"img": image_id, "q": query, "token": token}

        return self._append(record)

    def _read_ledger(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            with open(os.path.join(self.root, TOKENS_NAME), "rb") as fh:
                self._catch_up(fh.fileno())

    def pins(self) -> set[str]:
        """Image ids currently pinned against :meth:`gc`."""
        self._read_ledger()
        return set(self._pinned)

    def reserved(self, query: str) -> bool:
        """Whether a ledger record names the query ``query`` — its first
        pin or a redeem, by any store over this root. Such a name is
        spent: the images and tokens it would mint already existed."""
        self._read_ledger()
        return query in self._queries

    def pin(
        self,
        image_id: str,
        release: Optional[str] = None,
        query: Optional[str] = None,
    ) -> None:
        """Durably protect an image (and its chain) from :meth:`gc`.

        The pin names the tip only; :meth:`gc` expands it to the full
        base+delta chain at collection time, so re-pinning after a delta
        commit is not required for ancestors — only for the new tip.
        ``release`` names a pin to drop in the same ledger record (the
        tip the new image supersedes); a pin that changes nothing
        records nothing. ``query`` names the image's query; its first
        pin, the one releasing nothing, records the name, which reserves
        it for the root (:meth:`reserved`).
        Pinning a missing image raises :class:`ImageNotFoundError`.
        """
        self.manifest(image_id)  # existence + structural check

        def record():
            pinned = (self._pinned - {release}) | {image_id}
            if pinned == self._pinned:
                return None
            if query is None or release is not None:
                return {"pin": image_id, "release": release}
            return {"pin": image_id, "q": query, "release": None}

        self._append(record)

    def unpin(self, image_id: str) -> bool:
        """Drop a pin; returns whether it existed. Never raises on a
        missing image — unpinning is how a consumed token releases its
        image, which may already be gone."""
        return self._append(
            lambda: {"unpin": image_id} if image_id in self._pinned else None
        )

    # ------------------------------------------------------------------
    # Recovery scan
    # ------------------------------------------------------------------
    def recover(self, tracer=None) -> RecoveryReport:
        """Classify every root entry but the ledger; quarantine
        torn/orphaned ones.

        - *committed*: a packed ``<id>.rimg`` whose trailer and manifest
          parse and whose files all verify — safe to resume from; for
          delta images this includes every base-chain reference
          resolving;
        - *torn*: an interrupted, corrupted or unreadable commit — a
          ``.rimg.tmp`` left by a crash before the rename, a ``.rimg``
          with no valid trailer, a short manifest, a bad checksum or a
          layout/codec version other than this build's, or a delta whose
          chain is broken;
        - *orphaned*: anything else at the root — stray files and every
          directory (an image directory written by a pre-packed-layout
          build, or a shard-set directory written before the global cut
          became an image, included), and a ``PINS.json`` left by a
          build that kept pins in a document of their own.

        Images are reported by image id. Torn and orphaned entries are
        moved under ``<root>/quarantine/`` (never deleted: they are
        evidence), so a subsequent scan of the root sees only committed
        images. The scan itself never raises on bad content — that is
        its purpose.

        A crash mid-way through a *delta* commit quarantines only the
        torn tip: its base chain was committed earlier, still verifies,
        and remains resumable. A torn base takes its now-unresolvable
        deltas to quarantine on the same scan: every file is hashed once,
        then the chains are decided from the manifests
        (:meth:`_link_problems`).
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        # Quarantine moves entries without going through delete().
        self._manifest_cache.clear()
        entries: list[tuple] = []  # (name, label, status: None = an image)
        committed: dict[str, dict] = {}  # image id -> manifest
        for name in sorted(os.listdir(self.root)):
            if name in (QUARANTINE_DIR, TOKENS_NAME):
                continue
            label, status = name, "orphaned"
            if os.path.isdir(os.path.join(self.root, name)):
                pass
            elif name.endswith(IMAGE_SUFFIX):
                label, status = name[: -len(IMAGE_SUFFIX)], None
                manifest, problems = self._own_problems(label)
                if not problems:
                    committed[label] = manifest
            elif name.endswith(IMAGE_SUFFIX + TMP_SUFFIX):
                label = name[: -len(IMAGE_SUFFIX + TMP_SUFFIX)]
                status = "torn"
            entries.append((name, label, status))
        # Dropping an image strands deltas on it: sweep until stable.
        while stranded := [
            iid for iid in committed if self._link_problems(iid, committed)
        ]:
            for iid in stranded:
                del committed[iid]
        report = RecoveryReport()
        for name, label, status in entries:
            status = status or ("committed" if label in committed else "torn")
            getattr(report, status).append(label)
            if status != "committed":
                self._quarantine(name, report)
            if tracer.enabled:
                tracer.event(
                    "image.recover_entry", image_id=label, status=status
                )
        if tracer.enabled:
            tracer.event(
                "image.recover",
                committed=len(report.committed),
                torn=len(report.torn),
                orphaned=len(report.orphaned),
                quarantined=len(report.quarantined),
            )
        return report

    def _quarantine(self, name: str, report: RecoveryReport) -> None:
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        os.makedirs(qdir, exist_ok=True)
        target = os.path.join(qdir, name)
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = os.path.join(qdir, f"{name}.{suffix}")
        os.replace(os.path.join(self.root, name), target)
        fsync_dir(self.root)
        report.quarantined.append(os.path.relpath(target, self.root))
