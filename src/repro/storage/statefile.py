"""State store: the disk area for DumpState dumps, sort sublists, hash
partitions, and the SuspendedQuery structure itself.

Dumping heap state charges page writes proportional to the state's size in
pages; reading it back charges page reads. The stored payload is kept as a
Python object (the "disk" is simulated), but all access is mediated by
handles so the charging discipline cannot be bypassed accidentally.

Who holds a payload: an open session (its :class:`ScopedStateStore`)
or an unreleased suspended query (its :class:`PayloadHold`), each
keeping one count on every payload it names; a payload is freed when
its count reaches zero. A resume takes its counts through
:meth:`StateStore.import_payload`, live payload or staged one alike, and
for the same charge: none. Its pages were written when it was dumped;
what a resume pays is reading them back.

Beside the payloads the store keeps their *provenance*: for a payload
that was imported from, or has been committed to, a durable suspend image,
the image section that holds its bytes (:class:`PayloadOrigin`). It is
bookkeeping about real bytes only — nothing here is charged for it — and
is what lets a delta image reference an unchanged payload instead of
re-encoding it (``repro.durability.store``).

A payload keeps the key it was first dumped under for its whole life: an
import from an image stores it under that key again. It arrives *staged*
(:class:`StagedPayload`) and is decoded by the first read of its handle,
so state a resume never touches is never decoded; an import of a key the
store already holds for the same section shares that payload. A handle
decoded from an image (``store_id`` -1) names its key in whichever store
reads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.common.errors import StorageError
from repro.storage.disk import SimulatedDisk


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
        # Key counters per scope (see :meth:`fresh_key`): dump keys are
        # serialized into suspend images. A suspend carries its scope's
        # counters, a resume continues them, and they go when the scope's
        # last open session closes (:meth:`close_scope`).
        self._counters: dict[Optional[str], dict[str, int]] = {}
        self._open_scopes: dict[str, int] = {}  # scope -> open sessions
        # Payload provenance: key -> the image section that already holds
        # this payload's bytes. Recorded when a payload is imported from a
        # verified section or has just been committed to one; dropped by
        # any dump to the key and by free. A delta suspend image references
        # such a payload in its base chain instead of re-encoding it. A
        # side table, not a DumpHandle field: handles are serialized into
        # control records, provenance must never change image bytes.
        self._origins: dict[str, PayloadOrigin] = {}
        # key -> holders: open sessions and unreleased suspended queries
        # that name the payload (see the module docstring).
        self._holds: dict[str, int] = {}

    def fresh_key(self, prefix: str, scope: Optional[str] = None) -> str:
        """Generate a unique key with the given prefix.

        With a ``scope`` (normally the query's session name) the key is
        namespaced as ``scope/prefix#N`` with a counter private to that
        (scope, prefix) pair, so the keys one query draws are a pure
        function of its own dump sequence. Unscoped keys keep the legacy
        ``prefix#N`` format off a store-global counter. A live or held
        key is never drawn again.
        """
        counters = self._counters.setdefault(scope, {})
        slot = prefix if scope is not None else ""
        while True:
            n = counters[slot] = counters.get(slot, 0) + 1
            key = f"{prefix}#{n}" if scope is None else f"{scope}/{prefix}#{n}"
            if key not in self._objects and key not in self._holds:
                return key

    def key_counters(self, scope: Optional[str]) -> dict[str, int]:
        """``scope``'s key counters: ``{prefix: last n}``, or ``{"": n}``
        (the store-global counter) for ``None``."""
        return dict(self._counters.get(scope, ()))

    def carry_key_counters(
        self, scope: Optional[str], counters: dict[str, int]
    ) -> None:
        """Continue counters a suspend recorded: each becomes the larger
        of its live and its carried value."""
        live = self._counters.setdefault(scope, {})
        live.update((k, n) for k, n in counters.items() if n > live.get(k, 0))

    def open_scope(self, scope: Optional[str]) -> None:
        if scope is not None:
            self._open_scopes[scope] = self._open_scopes.get(scope, 0) + 1

    def close_scope(self, scope: Optional[str]) -> None:
        """A session of ``scope`` closed; with the last one, the scope's
        key counters go (its suspends recorded them)."""
        if scope is not None:
            self._open_scopes[scope] -= 1
            if not self._open_scopes[scope]:
                del self._open_scopes[scope]
                self._counters.pop(scope, None)

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
        self._origins.pop(key, None)
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
        dumped; exporting it (to a replica or a durable image) and
        importing it there (:meth:`import_payload`) move the *same*
        simulated-disk bytes, so charging either would double-count.
        """
        return self._read(handle)

    def hold(self, key: str) -> None:
        """Take one more count on ``key``'s payload."""
        self._holds[key] = self._holds.get(key, 0) + 1

    def import_payload(
        self,
        key: str,
        payload: Any = None,
        pages: int = 0,
        origin: Optional[PayloadOrigin] = None,
    ) -> DumpHandle:
        """One more count on ``key``'s payload: the live one without
        ``payload``, else ``payload`` registered under its own key as
        :meth:`materialized` does. Neither is charged: the pages were
        written when the payload was dumped. ``origin`` names the
        verified image section it is (see :meth:`origin_of`). A live
        ``key`` with an origin of the same SHA-256 is shared, decoded or
        still staged; any other live key raises StorageError."""
        live = self._objects.get(key)
        if payload is not None and live is not None:
            held = self._origins.get(key)
            if origin is None or held is None or held.sha256 != origin.sha256:
                raise StorageError(f"payload {key!r} is live with other bytes")
            payload = live[0]
        if payload is not None:
            self.materialized(key, payload, pages)
            if origin is not None:
                self._origins[key] = origin
        elif live is None:
            raise StorageError(f"no payload stored under key {key!r}")
        self.hold(key)
        return DumpHandle(self._store_id, key, self._objects[key][1])

    def free(self, handle: DumpHandle) -> None:
        """Drop one count on a payload. Freeing is not charged."""
        self._check_handle(handle)
        self.free_keys((handle.key,))

    def free_keys(self, keys) -> None:
        """Drop one count on each payload under ``keys``: a payload goes
        with its last count, or its first free if nobody holds it; absent
        keys are skipped."""
        for key in keys:
            count = self._holds.pop(key, 0) - 1
            if count > 0:
                self._holds[key] = count
                continue
            self._objects.pop(key, None)
            self._origins.pop(key, None)

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
            self._origins[key] = origin

    def exists(self, key: str) -> bool:
        return key in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def _check_handle(self, handle: DumpHandle) -> None:
        if handle.store_id not in (self._store_id, -1):
            raise StorageError(
                f"handle {handle.key!r} belongs to a different state store"
            )
        if handle.key not in self._objects:
            raise StorageError(f"no payload stored under key {handle.key!r}")


@dataclass
class PayloadHold:
    """A suspended query's payloads: key -> what a resume imports for it
    (:meth:`StateStore.import_payload`'s arguments). After a suspend each
    is live and held once in ``store``; after ``ImageStore.load`` each is
    a staged image section, held by nobody (``store`` None)."""

    entries: dict = field(default_factory=dict)
    store: Optional[StateStore] = None


class ScopedStateStore:
    """One query session's view of a :class:`StateStore`, and its hold.

    Fresh keys are namespaced by ``scope`` (the session name; ``None``
    keeps the store-global sequence) so the dump keys a query draws —
    which end up serialized inside suspend images — depend only on its
    own dump sequence, never on scheduler interleaving. The view holds
    one count on every key it drew or imported (``keys``) until a
    suspend hands them over or a close drops them. Everything else
    delegates to the underlying store; payloads remain shared (handles
    are interchangeable across views).
    """

    __slots__ = ("_base", "scope", "keys", "_open")

    def __init__(self, base: StateStore, scope: Optional[str]):
        self._base = base
        self.scope = scope
        self.keys: list[str] = []
        self._open = True
        base.open_scope(scope)  # closed by close()

    def fresh_key(self, prefix: str) -> str:
        key = self._base.fresh_key(prefix, scope=self.scope)
        self._base.hold(key)
        self.keys.append(key)
        return key

    def take(self, hold: PayloadHold) -> None:
        """A count of the view's own on every payload ``hold`` names."""
        for key, (payload, pages, origin) in hold.entries.items():
            self._base.import_payload(key, payload, pages, origin)
            self.keys.append(key)

    def hand_over(self) -> PayloadHold:
        """Move the view's counts into a new :class:`PayloadHold`."""
        live = (None, 0, None)  # nothing to import: a resume only counts
        hold = PayloadHold(dict.fromkeys(self.keys, live), self._base)
        self.keys = []
        return hold

    def release(self) -> None:
        """Drop the view's count on every payload it holds."""
        self._base.free_keys(self.keys)
        self.keys = []

    def close(self) -> None:
        """Release, and close the scope (once: the session is done)."""
        self.release()
        if self._open:
            self._open = False
            self._base.close_scope(self.scope)

    def __getattr__(self, name):
        return getattr(self._base, name)
