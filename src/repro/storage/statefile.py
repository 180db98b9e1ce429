"""State store: the disk area for DumpState dumps, sort sublists, hash
partitions, and the SuspendedQuery structure itself.

Dumping heap state charges page writes proportional to the state's size in
pages; reading it back charges page reads. The stored payload is kept as a
Python object (the "disk" is simulated), but all access is mediated by
handles so the charging discipline cannot be bypassed accidentally.

Beside the payloads the store keeps their *provenance*: for a payload
that was imported from, or has been committed to, a durable suspend image,
the image section that holds its bytes (:class:`PayloadOrigin`). It is
bookkeeping about real bytes only — nothing here is charged for it — and
is what lets a delta image reference an unchanged payload instead of
re-encoding it (``repro.durability.store``).

A payload imported from an image arrives *staged* (:class:`StagedPayload`)
and is decoded by the first read of its handle, so state a resume never
touches is never decoded; an import whose section the store already
holds under another live key shares that payload.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.common.errors import StorageError
from repro.storage.disk import SimulatedDisk


#: A key minted by ``import_payload``: ``[<scope>/]import_<key>#<n>``.
_IMPORTED_KEY = re.compile(r"^(?:[^/]*/)?import_(.*)#\d+$")


def import_prefix(key: str) -> str:
    """Fresh-key prefix for re-homing the payload stored under ``key``.

    Derived from the key the payload was *first* dumped under: a payload
    that has already been through an import (its key carries
    ``import_...#n``) is unwrapped first, so a query that hops through
    many images keeps keys of bounded length instead of one more
    ``<scope>/import_`` layer per hop — keys are serialized into every
    manifest, control record and blob header.
    """
    while (match := _IMPORTED_KEY.match(key)) is not None:
        key = match.group(1)
    return f"import_{key}"


@dataclass(frozen=True)
class DumpHandle:
    """Opaque reference to a stored payload and its size in pages."""

    store_id: int
    key: str
    pages: int


class PayloadOrigin(NamedTuple):
    """Where a payload's durable bytes already live: it is byte-for-byte
    the verified section ``section`` (SHA-256 ``sha256``) of the suspend
    image ``image_id``."""

    image_id: str
    section: str
    sha256: str


class StagedPayload:
    """A payload still in its encoded form, decoded at most once by the
    ``decode`` of whoever staged it (the store stays codec-agnostic). A
    ``decode`` that raises is tried — and fails — again on the next read."""

    __slots__ = ("_decode", "_payload")

    def __init__(self, decode: Callable[[], Any]):
        self._decode: Optional[Callable[[], Any]] = decode
        self._payload: Any = None

    def get(self) -> Any:
        if self._decode is not None:
            self._payload = self._decode()
            self._decode = None  # releases the staged bytes
        return self._payload


class StateStore:
    """Keyed object store with page-granular I/O charging.

    Three classes of content live here:

    - heap-state dumps made by the DumpState strategy at suspend time,
    - operator disk-resident state (sorted sublists, hash partitions),
      which the paper treats as immutable *materialization points*,
    - serialized SuspendedQuery structures.
    """

    _ids = itertools.count(1)

    def __init__(self, disk: SimulatedDisk):
        self._disk = disk
        self._store_id = next(self._ids)
        self._objects: dict[str, tuple[Any, int]] = {}
        self._key_seq = itertools.count(1)
        # Per-(scope, prefix) counters for query-scoped keys. Scoped keys
        # make the key sequence a query draws independent of how the
        # scheduler interleaves it with other queries — dump keys are
        # serialized into suspend images, so without scoping the image
        # bytes would depend on what *other* queries did first.
        self._scoped_seq: dict[tuple[str, str], itertools.count] = {}
        # Payload provenance: key -> the image section that already holds
        # this payload's bytes. Recorded when a payload is imported from a
        # verified section or has just been committed to one; dropped by
        # any dump to the key and by free. A delta suspend image references
        # such a payload in its base chain instead of re-encoding it. A
        # side table, not a DumpHandle field: handles are serialized into
        # control records, provenance must never change image bytes.
        self._origins: dict[str, PayloadOrigin] = {}
        # The reverse lookup: origin -> the live keys whose payload is
        # that section. They all share one payload object.
        self._holders: dict[PayloadOrigin, set[str]] = {}

    def fresh_key(self, prefix: str, scope: Optional[str] = None) -> str:
        """Generate a unique key with the given prefix.

        With a ``scope`` (normally the query's session name) the key is
        namespaced as ``scope/prefix#N`` with a counter private to that
        (scope, prefix) pair, so the keys one query draws are a pure
        function of its own dump sequence. Unscoped keys keep the legacy
        ``prefix#N`` format off a store-global counter.
        """
        if scope is None:
            return f"{prefix}#{next(self._key_seq)}"
        seq = self._scoped_seq.setdefault((scope, prefix), itertools.count(1))
        return f"{scope}/{prefix}#{next(seq)}"

    def dump(self, key: str, payload: Any, pages: int) -> DumpHandle:
        """Store ``payload`` under ``key``, charging ``pages`` page writes."""
        if pages < 0:
            raise ValueError(f"negative page count {pages}")
        self._disk.write_pages(pages)
        return self.materialized(key, payload, pages)

    def materialized(self, key: str, payload: Any, pages: int) -> DumpHandle:
        """Register under ``key`` state its owner has already written,
        and paid for, page by page (a hash partition's flushed blocks):
        nothing is charged here, and the owner keeps charging its own
        reads (see :meth:`peek`)."""
        self._objects[key] = (payload, pages)
        self._forget_origin(key)
        return DumpHandle(self._store_id, key, pages)

    def dump_tuples(
        self, key: str, rows: Sequence, tuples_per_page: int
    ) -> DumpHandle:
        """Store a tuple collection, charging writes for its size in pages."""
        if tuples_per_page <= 0:
            raise ValueError("tuples_per_page must be positive")
        pages = math.ceil(len(rows) / tuples_per_page) if rows else 0
        return self.dump(key, list(rows), pages)

    def _read(self, handle: DumpHandle) -> tuple[Any, int]:
        """``(payload, pages)`` behind ``handle``; a staged payload is
        decoded here, on its first read."""
        self._check_handle(handle)
        payload, pages = self._objects[handle.key]
        if type(payload) is StagedPayload:
            payload = payload.get()
        return payload, pages

    def load(self, handle: DumpHandle) -> Any:
        """Read back a payload, charging its size in page reads."""
        payload, pages = self._read(handle)
        self._disk.read_pages(pages)
        return payload

    def load_pages_range(self, handle: DumpHandle, first_page: int) -> Any:
        """Read back only pages ``[first_page, pages)`` of a tuple dump.

        Used when resume can skip a prefix of the dumped state (e.g. sort
        sublists already consumed). Returns the full payload but charges
        only the unread suffix.
        """
        payload, pages = self._read(handle)
        remaining = max(0, pages - first_page)
        self._disk.read_pages(remaining)
        return payload

    def peek(self, handle: DumpHandle) -> Any:
        """Read a payload without charging: for an operator that charges
        the pages itself, block by block as its cursor crosses them (sort
        sublists, spilled hash partitions), and for tests."""
        return self._read(handle)[0]

    def export_payload(self, handle: DumpHandle) -> tuple[Any, int]:
        """Return ``(payload, pages)`` for migration/persistence, uncharged.

        The page writes for this payload were already charged when it was
        dumped; exporting it (to a replica or a durable image) reads the
        *same* simulated-disk bytes, so charging again would double-count.
        The importing side pays for its own copy via :meth:`import_payload`.
        """
        return self._read(handle)

    def import_payload(
        self,
        key: str,
        payload: Any,
        pages: int,
        origin: Optional[PayloadOrigin] = None,
    ) -> DumpHandle:
        """Store a migrated payload under a fresh local key, charging the
        page writes — the receiving side of a migration pays the transfer.

        ``origin`` names the verified image section the payload is
        (``ImageStore.load`` supplies it, payload staged); see
        :meth:`origin_of`. If the store holds that section under another
        live key, the new key shares its payload, decoded or still
        staged, and ``payload`` is dropped. The charge is the same.
        """
        return self._import_as(
            self.fresh_key(import_prefix(key)), payload, pages, origin
        )

    def _import_as(
        self,
        key: str,
        payload: Any,
        pages: int,
        origin: Optional[PayloadOrigin],
    ) -> DumpHandle:
        for holder in self._holders.get(origin, ()):
            payload = self._objects[holder][0]
            break
        handle = self.dump(key, payload, pages)
        if origin is not None:
            self._set_origin(key, origin)
        return handle

    def _set_origin(self, key: str, origin: PayloadOrigin) -> None:
        self._forget_origin(key)
        self._origins[key] = origin
        self._holders.setdefault(origin, set()).add(key)

    def _forget_origin(self, key: str) -> None:
        origin = self._origins.pop(key, None)
        if origin is not None:
            holders = self._holders[origin]
            holders.discard(key)
            if not holders:
                del self._holders[origin]

    def free(self, handle: DumpHandle) -> None:
        """Release a payload. Freeing is not charged (deallocation)."""
        self._check_handle(handle)
        self.free_keys((handle.key,))

    def free_keys(self, keys) -> None:
        """Release the payloads under ``keys``; absent keys are skipped."""
        for key in keys:
            self._objects.pop(key, None)
            self._forget_origin(key)

    def origin_of(self, key: str) -> Optional[PayloadOrigin]:
        """The image section that holds ``key``'s payload, if one is known.

        Dump payloads are immutable once stored (the paper treats them as
        materialization points), so a payload that has not been re-dumped
        since it was loaded from, or committed to, a section is still that
        section byte for byte — the test the delta-image path uses to
        reference it instead of re-encoding it.
        """
        return self._origins.get(key)

    def committed_to(self, key: str, origin: PayloadOrigin) -> None:
        """Record that ``key``'s payload has just been durably committed
        as ``origin`` (``ImageStore`` calls this after a save)."""
        if key in self._objects:
            self._set_origin(key, origin)

    def exists(self, key: str) -> bool:
        return key in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def _check_handle(self, handle: DumpHandle) -> None:
        if handle.store_id != self._store_id:
            raise StorageError(
                f"handle {handle.key!r} belongs to a different state store"
            )
        if handle.key not in self._objects:
            raise StorageError(f"no payload stored under key {handle.key!r}")


class ScopedStateStore:
    """One query session's view of a :class:`StateStore`.

    Fresh keys are namespaced by ``scope`` (the session name; ``None``
    keeps the store-global sequence) so the dump keys a query draws —
    which end up serialized inside suspend images — depend only on its
    own dump sequence, never on scheduler interleaving. The view also
    remembers every key it drew or took over from the SuspendedQuery it
    was resumed from (``keys``), so a finished query can :meth:`release`
    its payloads. Everything else delegates to the underlying store;
    payloads remain shared (handles are interchangeable across views).
    """

    __slots__ = ("_base", "scope", "keys")

    def __init__(self, base: StateStore, scope: Optional[str]):
        self._base = base
        self.scope = scope
        self.keys: list[str] = []

    def fresh_key(self, prefix: str) -> str:
        key = self._base.fresh_key(prefix, scope=self.scope)
        self.keys.append(key)
        return key

    def release(self) -> None:
        """Free every payload stored under one of this view's keys."""
        self._base.free_keys(self.keys)
        self.keys.clear()

    def import_payload(
        self,
        key: str,
        payload: Any,
        pages: int,
        origin: Optional[PayloadOrigin] = None,
    ) -> DumpHandle:
        return self._base._import_as(
            self.fresh_key(import_prefix(key)), payload, pages, origin
        )

    def __getattr__(self, name):
        return getattr(self._base, name)
