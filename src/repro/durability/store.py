"""The ImageStore: durable suspend images under one root directory.

Where the in-memory :class:`~repro.storage.statefile.StateStore` keeps
dump payloads as Python objects behind the *simulated* disk, the
ImageStore writes a complete, self-contained suspend image to *real*
files so a suspended query can outlive its process — the paper's grid
migration, rolling upgrade, and scheduled-maintenance scenarios.

Responsibilities:

- :meth:`ImageStore.save` — export every payload a SuspendedQuery
  references, encode the control record, and commit the image with the
  atomic manifest protocol of :mod:`repro.durability.format`. New
  images are always written with the v2 binary columnar codec
  (:mod:`repro.durability.codec2`) and stamped ``codec_version: 2`` in
  the manifest;
- **delta images** — ``save(..., base_image_id=...)`` commits only the
  blobs whose ``(key, pages, generation)`` triple is not already
  persisted somewhere in the base image's chain; unchanged payloads
  become manifest *references* into the ancestor image. Resume
  materializes the base+delta chain transparently, and
  :meth:`delete_chain` / :meth:`gc` collect whole chains together;
- **parallel durable commit** — :meth:`save_many` serializes and fsyncs
  several victims' images on a bounded thread pool (``commit_workers``).
  A pure wall-clock optimization: on-disk bytes, virtual-clock charges,
  and trace/metric records are identical to the serial path, because
  exports happen up front on the calling thread and all tracing is
  emitted after the barrier, in submission order;
- :meth:`ImageStore.load` — verify checksums and reconstruct the
  SuspendedQuery with its payloads staged for import (the existing
  migration path charges the simulated-disk writes on resume, so cost
  accounting survives the process boundary). The manifest's
  ``codec_version`` picks the decoder, so legacy v1 tagged-JSON images
  (:mod:`repro.durability.codec`) stay readable;
- :meth:`ImageStore.recover` — the startup scan: classify every entry
  under the root as committed, torn, or orphaned, and quarantine the bad
  ones instead of crashing;
- :meth:`ImageStore.list_images` / :meth:`validate` / :meth:`delete` /
  :meth:`gc` — inventory management.
"""

from __future__ import annotations

import os
import shutil
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ReproError
from repro.core.suspended_query import SuspendedQuery
from repro.durability import codec, codec2
from repro.durability.codec2 import CODEC_V1, CODEC_V2
from repro.durability.faults import FaultInjector
from repro.obs.tracer import NULL_TRACER
from repro.durability.format import (
    BLOB_PREFIX,
    CHANNELS_NAME,
    CONTROL_NAME_V2,
    LAYOUT_VERSION,
    MANIFEST_NAME,
    QUARANTINE_DIR,
    SHARDSET_NAME,
    TMP_SUFFIX,
    ImageFormatError,
    atomic_write,
    atomic_write_stream,
    blob_filename,
    dump_json,
    fsync_dir,
    is_image_file,
    load_json,
    manifest_codec_version,
    read_file_checked,
    validate_manifest_dict,
)
from repro.storage.statefile import StateStore


class ImageNotFoundError(ReproError):
    """Raised when an image id does not name a committed image."""


#: Hard ceiling on base+delta chain traversal (cycle/corruption guard).
MAX_CHAIN_WALK = 64

#: Root-level file recording pinned image ids (one JSON document).
PINS_NAME = "PINS.json"

#: Root-level continuation-token ledger kept by the serving layer
#: (:class:`repro.serve.tokens.TokenManager`); named here so the
#: recovery scan knows it is store metadata, not an image.
TOKENS_NAME = "TOKENS.json"


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
    #: Which codec wrote the image (1 = tagged JSON, 2 = binary columnar).
    codec_version: int = CODEC_V1
    #: For delta images: the image this one's references resolve into.
    base_image_id: Optional[str] = None
    #: Number of images in the base+delta chain, this one included.
    chain_length: int = 1
    #: Bytes this commit *reused* from ancestors instead of rewriting.
    reused_bytes: int = 0

    def as_dict(self) -> dict:
        return {
            "image_id": self.image_id,
            "path": self.path,
            "created_at": self.created_at,
            "meta": self.meta,
            "num_blobs": self.num_blobs,
            "blob_pages": self.blob_pages,
            "total_bytes": self.total_bytes,
            "codec_version": self.codec_version,
            "base_image_id": self.base_image_id,
            "chain_length": self.chain_length,
            "reused_bytes": self.reused_bytes,
        }


@dataclass
class RecoveryReport:
    """What the startup scan found under an image root."""

    committed: list[str] = field(default_factory=list)
    torn: list[str] = field(default_factory=list)
    orphaned: list[str] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    #: Shard-set directories found at the root. They are not images; the
    #: scan leaves them in place for
    #: :func:`repro.shard.manifest.classify_shardsets` to judge.
    shardsets: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "committed": list(self.committed),
            "torn": list(self.torn),
            "orphaned": list(self.orphaned),
            "quarantined": list(self.quarantined),
            "shardsets": list(self.shardsets),
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
class _PreparedSave:
    """Main-thread snapshot of everything a worker needs to write."""

    image_id: str
    directory: str
    base_image_id: Optional[str]
    #: Local blobs to encode+write: (filename, key, pages, gen, payload).
    local_blobs: list
    #: Manifest entries for payloads reused from the base chain.
    ref_blobs: list
    reused_bytes: int
    sq: SuspendedQuery
    meta: dict
    #: Epoch of the exporting StateStore, recorded per blob so a later
    #: delta can prove its (key, pages, gen) triples are comparable.
    epoch: Optional[str] = None


class ImageStore:
    """Durable suspend images under ``root``, one directory per image.

    New images are written with codec v2; every image records its codec
    in the manifest, so a root may still hold legacy v1 images and they
    stay fully readable. ``commit_workers`` bounds the
    thread pool :meth:`save_many` uses for parallel durable commits
    (``<= 1`` means serial). ``max_chain`` caps base+delta chain length:
    a save whose chain would grow past it is promoted to a full image.
    """

    def __init__(
        self,
        root: str,
        injector: Optional[FaultInjector] = None,
        commit_workers: int = 0,
        max_chain: int = 8,
        compress: bool = True,
    ):
        self.root = os.fspath(root)
        self.injector = injector or FaultInjector()
        self.commit_workers = commit_workers
        self.max_chain = max(1, max_chain)
        self.compress = compress
        # Manifests are immutable once committed, so they cache cleanly;
        # a hit still stats the manifest file so deletions by other
        # store instances over the same root are noticed.
        self._manifest_cache: dict[str, dict] = {}
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
        simulated disk. The commit order is blobs, control record,
        manifest; the manifest rename is the commit point.

        With ``base_image_id`` set, payloads already persisted in the
        base chain (same key, pages, and state-store generation) are
        *referenced* instead of rewritten — a delta image. The base must
        stay on disk for the delta to load; use :meth:`delete_chain` /
        :meth:`gc` to collect chains together.
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
        """Commit several images, serializing+fsyncing them concurrently.

        Preparation (payload export, id allocation, delta planning) and
        all trace/metric emission happen on the calling thread in request
        order, so the produced bytes and records are identical to running
        :meth:`save` in a loop; only the encode and file I/O in between
        run on the pool. The call is a barrier: it returns after every
        image is durably committed. With ``commit_workers <= 1``, a
        single request, or any configured fault injection, the writes
        run serially (fault injection is ordering-sensitive).
        """
        preps = [self._prepare_save(req) for req in requests]
        faults_armed = bool(
            self.injector.crash_points or self.injector.torn_points
        )
        if self.commit_workers > 1 and len(preps) > 1 and not faults_armed:
            with ThreadPoolExecutor(
                max_workers=min(self.commit_workers, len(preps))
            ) as pool:
                results = list(pool.map(self._write_image, preps))
        else:
            results = [self._write_image(prep) for prep in preps]
        return [
            self._finish_save(prep, result, tracer)
            for prep, result in zip(preps, results)
        ]

    def _prepare_save(self, req: SaveRequest) -> _PreparedSave:
        image_id = req.image_id or f"img-{uuid.uuid4().hex[:12]}"
        if os.sep in image_id or image_id.startswith("."):
            raise ValueError(f"invalid image id {image_id!r}")
        directory = os.path.join(self.root, image_id)
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            raise ValueError(f"image {image_id!r} already exists")

        base_image_id = req.base_image_id
        persisted: dict[str, dict] = {}
        if base_image_id is not None:
            chain = self.chain(base_image_id)
            if len(chain) >= self.max_chain:
                # Rebase: a full image caps the resume/validate fan-out.
                base_image_id = None
            else:
                persisted = self._chain_blob_map(chain)

        local_blobs = []
        ref_blobs = []
        reused_bytes = 0
        handles = req.sq.referenced_handles()
        next_file = 0
        epoch = req.store.epoch
        for key in sorted(handles):
            handle = handles[key]
            payload, pages = req.store.export_payload(handle)
            gen = req.store.generation(key)
            prior = persisted.get(key)
            if (
                prior is not None
                and prior["pages"] == pages
                and prior.get("gen", -1) == gen
                and gen > 0
                # Keys and generations restart with every StateStore
                # instance, so the triple only proves byte-equality when
                # the base blob came from this same store (same epoch).
                # A fresh process resuming via token re-writes instead.
                and prior.get("epoch") == epoch
            ):
                # Dump payloads are immutable once stored; an identical
                # (key, pages, generation) triple in the base chain means
                # the bytes are already durable — reference, don't rewrite.
                ref_blobs.append(
                    {
                        "key": key,
                        "pages": pages,
                        "gen": gen,
                        "epoch": epoch,
                        "ref": {
                            "image_id": prior["image_id"],
                            "file": prior["file"],
                        },
                    }
                )
                reused_bytes += prior["bytes"]
            else:
                name = blob_filename(next_file)
                next_file += 1
                local_blobs.append((name, key, pages, gen, payload))
        return _PreparedSave(
            image_id=image_id,
            directory=directory,
            base_image_id=base_image_id,
            local_blobs=local_blobs,
            ref_blobs=ref_blobs,
            reused_bytes=reused_bytes,
            sq=req.sq,
            meta=dict(req.meta or {}),
            epoch=epoch,
        )

    def _write_image(self, prep: _PreparedSave) -> dict:
        """Encode and durably write one prepared image (worker-safe:
        touches only ``prep``, the injector, and the filesystem)."""
        injector = self.injector
        injector.point("begin")
        os.makedirs(prep.directory, exist_ok=True)
        start = time.perf_counter()

        files: dict[str, dict] = {}
        blobs: list[dict] = []
        total = 0
        blob_pages = 0
        for name, key, pages, gen, payload in prep.local_blobs:
            record = {"key": key, "pages": pages, "payload": payload}

            def produce(sink, record=record):
                codec2.encode_to_stream(record, sink, compress=self.compress)

            digest, nbytes = atomic_write_stream(
                prep.directory, name, produce, injector
            )
            files[name] = {"sha256": digest, "bytes": nbytes}
            blobs.append(
                {
                    "file": name,
                    "key": key,
                    "pages": pages,
                    "gen": gen,
                    "epoch": prep.epoch,
                }
            )
            blob_pages += pages
            total += nbytes
        for entry in prep.ref_blobs:
            blobs.append(dict(entry))
            blob_pages += entry["pages"]
        blobs.sort(key=lambda b: b["key"])

        record = codec2.suspended_query_to_record(prep.sq)

        def produce_control(sink, record=record):
            codec2.encode_to_stream(record, sink, compress=self.compress)

        digest, control_bytes = atomic_write_stream(
            prep.directory, CONTROL_NAME_V2, produce_control, injector
        )
        files[CONTROL_NAME_V2] = {"sha256": digest, "bytes": control_bytes}
        total += control_bytes
        blob_bytes = total - control_bytes

        manifest = {
            "layout_version": LAYOUT_VERSION,
            "format_version": codec2.V2_FORMAT_VERSION,
            "codec_version": CODEC_V2,
            "base_image_id": prep.base_image_id,
            "image_id": prep.image_id,
            "created_at": time.time(),
            "meta": prep.meta,
            "control_file": CONTROL_NAME_V2,
            "files": files,
            "blobs": blobs,
        }
        data = dump_json(manifest)
        atomic_write(prep.directory, MANIFEST_NAME, data, injector)
        fsync_dir(self.root)
        injector.point("committed")
        return {
            "manifest": manifest,
            "manifest_bytes": len(data),
            "payload_bytes": total,
            "blob_bytes": blob_bytes,
            "control_bytes": control_bytes,
            "blob_pages": blob_pages,
            "num_local_blobs": len(prep.local_blobs),
            "encode_seconds": time.perf_counter() - start,
        }

    def _finish_save(
        self, prep: _PreparedSave, result: dict, tracer
    ) -> ImageInfo:
        tracer = tracer if tracer is not None else NULL_TRACER
        manifest = result["manifest"]
        total = result["payload_bytes"]
        written = total
        delta_ratio = (
            written / (written + prep.reused_bytes)
            if (written + prep.reused_bytes) > 0
            else 1.0
        )
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
            # payload_bytes/bytes_written exclude the manifest: its
            # wall-clock created_at makes the manifest length vary
            # between runs, and trace records must stay byte-
            # deterministic. encode_seconds is wall clock, so it goes to
            # the volatile metrics only, never into trace records.
            tracer.event(
                "image.commit",
                ts=now,
                dur=0.0,
                image_id=prep.image_id,
                codec_version=CODEC_V2,
                base_image_id=prep.base_image_id,
                num_blobs=len(manifest["blobs"]),
                reused_blobs=len(prep.ref_blobs),
                blob_pages=result["blob_pages"],
                payload_bytes=total,
                bytes_written=written,
                reused_bytes=prep.reused_bytes,
                delta_ratio=round(delta_ratio, 6),
            )
            metrics = tracer.metrics
            metrics.counter("image_commits_total").inc()
            metrics.counter("image_payload_bytes_total").inc(total)
            metrics.counter("image_bytes_written_total").inc(written)
            metrics.counter(
                "image_reused_bytes_total"
            ).inc(prep.reused_bytes)
            metrics.gauge("image_delta_ratio").set(round(delta_ratio, 6))
            metrics.histogram(
                "image_encode_seconds", volatile=True
            ).observe(result["encode_seconds"])
        return ImageInfo(
            image_id=prep.image_id,
            path=prep.directory,
            created_at=manifest["created_at"],
            meta=manifest["meta"],
            num_blobs=len(manifest["blobs"]),
            blob_pages=result["blob_pages"],
            total_bytes=total + result["manifest_bytes"],
            codec_version=CODEC_V2,
            base_image_id=prep.base_image_id,
            chain_length=(
                1
                if prep.base_image_id is None
                else len(self.chain(prep.image_id))
            ),
            reused_bytes=prep.reused_bytes,
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _image_dir(self, image_id: str) -> str:
        return os.path.join(self.root, image_id)

    def manifest(self, image_id: str) -> dict:
        """Parse and structurally validate an image's manifest."""
        path = os.path.join(self._image_dir(image_id), MANIFEST_NAME)
        if not os.path.exists(path):
            self._manifest_cache.pop(image_id, None)
            raise ImageNotFoundError(f"no committed image {image_id!r}")
        cached = self._manifest_cache.get(image_id)
        if cached is not None:
            return cached
        manifest = load_json(path)
        validate_manifest_dict(manifest)
        self._manifest_cache[image_id] = manifest
        return manifest

    def chain(self, image_id: str) -> list[str]:
        """The base+delta chain, tip first, ending at the full image."""
        chain: list[str] = []
        current: Optional[str] = image_id
        while current is not None:
            if current in chain or len(chain) >= MAX_CHAIN_WALK:
                raise ImageFormatError(
                    f"image chain at {image_id!r} is cyclic or too deep"
                )
            chain.append(current)
            current = self.manifest(current).get("base_image_id")
        return chain

    def _chain_blob_map(self, chain: list[str]) -> dict[str, dict]:
        """Newest-wins map of every payload persisted along a chain:
        key -> {pages, gen, image_id (owner of the file), file, bytes}."""
        persisted: dict[str, dict] = {}
        for ancestor in reversed(chain):  # oldest first; tip overrides
            manifest = self.manifest(ancestor)
            for blob in manifest["blobs"]:
                if "file" in blob:
                    owner, fname = ancestor, blob["file"]
                    nbytes = manifest["files"][fname]["bytes"]
                else:
                    ref = blob["ref"]
                    owner, fname = ref["image_id"], ref["file"]
                    prior = persisted.get(blob["key"])
                    nbytes = prior["bytes"] if prior else 0
                persisted[blob["key"]] = {
                    "pages": blob["pages"],
                    "gen": blob.get("gen", -1),
                    "epoch": blob.get("epoch"),
                    "image_id": owner,
                    "file": fname,
                    "bytes": nbytes,
                }
        return persisted

    def _decode_control(self, manifest: dict, directory: str) -> SuspendedQuery:
        data = read_file_checked(directory, manifest["control_file"], manifest)
        if manifest_codec_version(manifest) == CODEC_V2:
            return codec2.decode_suspended_query(data)
        del data  # checksum verified above; reparse for clarity
        record = load_json(os.path.join(directory, manifest["control_file"]))
        return codec.suspended_query_from_dict(record)

    def _decode_blob(self, data: bytes, codec_version: int) -> dict:
        if codec_version == CODEC_V2:
            decoded = codec2.decode_bytes(data)
        else:
            import json

            decoded = json.loads(data.decode("utf-8"))
            decoded["payload"] = codec.decode_value(decoded["payload"])
        if not isinstance(decoded, dict) or not {
            "key",
            "pages",
            "payload",
        } <= set(decoded):
            raise ImageFormatError("malformed image blob record")
        return decoded

    def load(self, image_id: str) -> SuspendedQuery:
        """Verify and decode an image into a resumable SuspendedQuery.

        Every file is checksum-verified before anything is decoded; for
        delta images the base chain is walked and referenced blobs are
        verified against *their* owning image's manifest. The returned
        structure has its dump payloads staged in ``migrated_payloads``;
        ``QuerySession.resume`` imports them into the target database's
        state store, charging the page writes there exactly as a
        migration to a replica would.
        """
        manifest = self.manifest(image_id)
        directory = self._image_dir(image_id)
        sq = self._decode_control(manifest, directory)
        manifests: dict[str, dict] = {image_id: manifest}
        payloads: dict = {}
        for blob in manifest["blobs"]:
            if "file" in blob:
                owner_id, fname = image_id, blob["file"]
            else:
                ref = blob["ref"]
                owner_id, fname = ref["image_id"], ref["file"]
            owner_manifest = manifests.get(owner_id)
            if owner_manifest is None:
                owner_manifest = self.manifest(owner_id)
                manifests[owner_id] = owner_manifest
            owner_dir = self._image_dir(owner_id)
            data = read_file_checked(owner_dir, fname, owner_manifest)
            decoded = self._decode_blob(
                data, manifest_codec_version(owner_manifest)
            )
            if decoded["key"] != blob["key"] or decoded["pages"] != blob["pages"]:
                raise ImageFormatError(
                    f"blob {fname!r} does not match its manifest entry"
                )
            payloads[blob["key"]] = (decoded["payload"], blob["pages"])
        sq.migrated_payloads = payloads
        return sq

    def info(self, image_id: str) -> ImageInfo:
        manifest = self.manifest(image_id)
        directory = self._image_dir(image_id)
        total = sum(e["bytes"] for e in manifest["files"].values())
        total += os.path.getsize(os.path.join(directory, MANIFEST_NAME))
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
        try:
            chain_length = len(self.chain(image_id)) if base else 1
        except (ImageNotFoundError, ImageFormatError):
            chain_length = 1
        return ImageInfo(
            image_id=manifest["image_id"],
            path=directory,
            created_at=manifest.get("created_at", 0.0),
            meta=manifest.get("meta", {}),
            num_blobs=len(manifest["blobs"]),
            blob_pages=sum(b["pages"] for b in manifest["blobs"]),
            total_bytes=total,
            codec_version=manifest_codec_version(manifest),
            base_image_id=base,
            chain_length=chain_length,
            reused_bytes=reused,
        )

    def list_images(self) -> list[ImageInfo]:
        """Every committed image under the root, oldest first."""
        infos = []
        for name in sorted(os.listdir(self.root)):
            if name == QUARANTINE_DIR:
                continue
            if os.path.exists(
                os.path.join(self.root, name, MANIFEST_NAME)
            ):
                try:
                    infos.append(self.info(name))
                except (ImageFormatError, ReproError):
                    continue  # recover() deals with bad manifests
        infos.sort(key=lambda i: (i.created_at, i.image_id))
        return infos

    def validate(self, image_id: str) -> list[str]:
        """Full verification; returns a list of problems (empty = ok).

        Delta images additionally require every chain reference to
        resolve: the ancestor image must exist, its manifest must carry
        the referenced file, and the file must verify against the
        ancestor's checksums.
        """
        problems: list[str] = []
        # Validation is about what is on disk — bypass the cache.
        self._manifest_cache.pop(image_id, None)
        try:
            manifest = self.manifest(image_id)
        except ImageNotFoundError:
            return [f"image {image_id!r} not found"]
        except ImageFormatError as exc:
            return [str(exc)]
        directory = self._image_dir(image_id)
        for name in manifest["files"]:
            try:
                read_file_checked(directory, name, manifest)
            except ImageFormatError as exc:
                problems.append(str(exc))
        for name in os.listdir(directory):
            if name == MANIFEST_NAME:
                continue
            if name not in manifest["files"]:
                problems.append(f"unmanifested file {name!r} in image")
        if manifest.get("base_image_id") is not None:
            try:
                self.chain(image_id)
            except (ImageNotFoundError, ImageFormatError) as exc:
                problems.append(f"broken image chain: {exc}")
        for blob in manifest["blobs"]:
            if "ref" not in blob:
                continue
            ref = blob["ref"]
            try:
                ref_manifest = self.manifest(ref["image_id"])
                read_file_checked(
                    self._image_dir(ref["image_id"]), ref["file"], ref_manifest
                )
            except (ImageNotFoundError, ImageFormatError) as exc:
                problems.append(
                    f"unresolvable blob reference {blob['key']!r} -> "
                    f"{ref['image_id']}/{ref['file']}: {exc}"
                )
        return problems

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def delete(self, image_id: str) -> None:
        directory = self._image_dir(image_id)
        self._manifest_cache.pop(image_id, None)
        if not os.path.isdir(directory):
            raise ImageNotFoundError(f"no image directory {image_id!r}")
        shutil.rmtree(directory)
        fsync_dir(self.root)

    def dependents(self, image_id: str) -> list[str]:
        """Committed images whose ``base_image_id`` is ``image_id``."""
        out = []
        for info in self.list_images():
            if info.base_image_id == image_id:
                out.append(info.image_id)
        return out

    def delete_chain(self, image_id: str) -> list[str]:
        """Delete an image together with its whole base+delta chain.

        Ancestors still referenced by a surviving delta outside the
        chain are kept; everything else — the tip, its ancestors, and
        any dependents of the tip — is removed. Returns deleted ids,
        tip-most first.
        """
        try:
            chain = self.chain(image_id)
        except (ImageNotFoundError, ImageFormatError):
            chain = [image_id]
        doomed = set(chain)
        # Grow downward too: deltas built *on top of* any doomed image
        # cannot survive their base.
        grew = True
        while grew:
            grew = False
            for info in self.list_images():
                if (
                    info.base_image_id in doomed
                    and info.image_id not in doomed
                ):
                    doomed.add(info.image_id)
                    grew = True
        # Keep ancestors that some surviving delta still references.
        survivors = [
            info for info in self.list_images() if info.image_id not in doomed
        ]
        protected: set[str] = set()
        for info in survivors:
            try:
                protected.update(self.chain(info.image_id))
            except (ImageNotFoundError, ImageFormatError):
                continue
        deleted = []
        for iid in chain + sorted(doomed - set(chain)):
            if iid in protected:
                continue
            try:
                self.delete(iid)
                deleted.append(iid)
            except ImageNotFoundError:
                continue
        return deleted

    def gc(self, keep: Optional[set] = None) -> list[str]:
        """Delete committed images not in ``keep``; returns deleted ids.

        Chains are collected together: keeping a delta image implicitly
        keeps every ancestor it needs to load. Pinned images (see
        :meth:`pin` — an outstanding continuation token is the typical
        pinner) are protected the same way, chain included, without
        appearing in ``keep``.
        """
        keep = set(keep or ()) | self.pins()
        protected: set[str] = set()
        for iid in keep:
            try:
                protected.update(self.chain(iid))
            except (ImageNotFoundError, ImageFormatError):
                protected.add(iid)
        deleted = []
        for info in self.list_images():
            if info.image_id not in protected:
                self.delete(info.image_id)
                deleted.append(info.image_id)
        return deleted

    # ------------------------------------------------------------------
    # Pinning (token-aware GC)
    # ------------------------------------------------------------------
    def _pins_path(self) -> str:
        return os.path.join(self.root, PINS_NAME)

    def pins(self) -> set[str]:
        """Image ids currently pinned against :meth:`gc`."""
        path = self._pins_path()
        if not os.path.exists(path):
            return set()
        doc = load_json(path)
        return set(doc.get("pinned", []))

    def _write_pins(self, pinned: set) -> None:
        tmp = self._pins_path() + TMP_SUFFIX
        with open(tmp, "wb") as fh:
            fh.write(dump_json({"pinned": sorted(pinned)}))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._pins_path())
        fsync_dir(self.root)

    def pin(self, image_id: str) -> None:
        """Durably protect an image (and its chain) from :meth:`gc`.

        The pin names the tip only; :meth:`gc` expands it to the full
        base+delta chain at collection time, so re-pinning after a delta
        commit is not required for ancestors — only for the new tip.
        Pinning a missing image raises :class:`ImageNotFoundError`.
        """
        self.manifest(image_id)  # existence + structural check
        pinned = self.pins()
        if image_id not in pinned:
            pinned.add(image_id)
            self._write_pins(pinned)

    def unpin(self, image_id: str) -> bool:
        """Drop a pin; returns whether it existed. Never raises on a
        missing image — unpinning is how a consumed token releases its
        image, which may already be gone."""
        pinned = self.pins()
        if image_id not in pinned:
            return False
        pinned.discard(image_id)
        self._write_pins(pinned)
        return True

    # ------------------------------------------------------------------
    # Recovery scan
    # ------------------------------------------------------------------
    def recover(self, tracer=None) -> RecoveryReport:
        """Classify every root entry; quarantine torn/orphaned ones.

        - *committed*: a directory whose manifest parses and whose files
          all verify — safe to resume from; for delta images this
          includes every base-chain reference resolving;
        - *torn*: an interrupted or corrupted commit — a directory with
          image files (or temp files) but no valid, fully verified
          manifest, or a delta whose chain is broken;
        - *orphaned*: anything else at the root — stray files, empty or
          unrecognizable directories.

        Torn and orphaned entries are moved under ``<root>/quarantine/``
        (never deleted: they are evidence), so a subsequent scan of the
        root sees only committed images. The scan itself never raises on
        bad content — that is its purpose.

        A crash mid-way through a *delta* commit quarantines only the
        torn tip: its base chain was committed earlier, still verifies,
        and remains resumable. Deltas are scanned after their bases
        (chain walks look upward only), so a quarantined base also takes
        its now-unresolvable deltas to quarantine on the same scan or
        the next one.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        # Quarantine moves directories without going through delete().
        self._manifest_cache.clear()
        report = RecoveryReport()
        for name in sorted(os.listdir(self.root)):
            if name == QUARANTINE_DIR or name.startswith(
                (PINS_NAME, TOKENS_NAME)
            ):
                continue  # store metadata (or its tmp), not an image
            path = os.path.join(self.root, name)
            if not os.path.isdir(path):
                report.orphaned.append(name)
                self._quarantine(name, report)
                status = "orphaned"
            else:
                entries = os.listdir(path)
                if any(
                    e in (SHARDSET_NAME, CHANNELS_NAME)
                    or e.startswith((SHARDSET_NAME, CHANNELS_NAME))
                    for e in entries
                ):
                    # A shard-set directory (committed or torn): not an
                    # image. Its verdict — consistent cut or torn — is
                    # a cross-image judgement this per-image scan cannot
                    # make; repro.shard.manifest.classify_shardsets owns
                    # it.
                    report.shardsets.append(name)
                    if tracer.enabled:
                        tracer.event(
                            "image.recover_entry",
                            image_id=name,
                            status="shardset",
                        )
                    continue
                has_manifest = MANIFEST_NAME in entries
                has_image_files = any(
                    is_image_file(e) or e.endswith(TMP_SUFFIX)
                    for e in entries
                )
                if has_manifest and not self.validate(name):
                    report.committed.append(name)
                    status = "committed"
                elif has_image_files:
                    report.torn.append(name)
                    self._quarantine(name, report)
                    status = "torn"
                else:
                    report.orphaned.append(name)
                    self._quarantine(name, report)
                    status = "orphaned"
            if tracer.enabled:
                tracer.event(
                    "image.recover_entry", image_id=name, status=status
                )
        # A base quarantined on this pass strands deltas scanned before
        # it; sweep until the set of committed images is self-consistent.
        swept = True
        while swept:
            swept = False
            for name in list(report.committed):
                if self.validate(name):
                    report.committed.remove(name)
                    report.torn.append(name)
                    self._quarantine(name, report)
                    swept = True
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
