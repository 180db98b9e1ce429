"""The shard-set image: N per-shard images committed as one global cut.

Layout under an image root shared by every shard::

    <root>/<gid>--s0.rimg        # ordinary per-shard suspend images,
    <root>/<gid>--s1.rimg        #   committed by the normal ImageStore
    ...                          #   protocol (one packed file each)
    <root>/<gid>/
        CHANNELS.json            # channel + coordinator state, written
                                 #   with the atomic tmp/fsync/rename
                                 #   discipline, checksummed below
        SHARDSET.json            # written last; its rename is the
                                 #   *global* commit point

A shard-set is committed iff ``SHARDSET.json`` exists, parses, its
recorded checksum matches ``CHANNELS.json``, and every member image it
names verifies under the per-image protocol. Anything less is **torn**:
the cut never happened, and the member images that did commit are
*stranded* — individually valid but useless, because resuming a subset of
shards against a cut the others never joined would be silent corruption.
:func:`classify_shardsets` makes that judgement explicit; resume raises
:class:`~repro.common.errors.InconsistentCutError` instead of guessing.

``ImageStore.recover()`` deliberately skips shard-set directories (they
are not images) and reports them in ``RecoveryReport.shardsets``; run
:func:`classify_shardsets` after it to judge the cuts, on the same root.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import InconsistentCutError, ShardError
from repro.durability.faults import FaultInjector
from repro.durability.format import (
    CHANNELS_NAME,
    SHARDSET_NAME,
    atomic_write,
    dump_json,
    fsync_dir,
    load_json,
    sha256_hex,
)
from repro.durability.store import ImageStore

#: Version of the shard-set directory layout + SHARDSET.json schema.
SHARDSET_VERSION = 1

#: Member statuses a shard can hold at the cut.
MEMBER_RUNNING = "running"  # fragment mid-flight: has a per-shard image
MEMBER_DONE = "done"  # fragment already complete: nothing to restore


def shard_image_id(gid: str, shard: int) -> str:
    """Image id of shard ``shard``'s member image in shard-set ``gid``."""
    return f"{gid}--s{shard}"


def write_shardset(
    root: str,
    gid: str,
    channels_doc: dict,
    members: list,
    meta: Optional[dict] = None,
    injector: Optional[FaultInjector] = None,
) -> str:
    """Commit the shard-set directory for ``gid``; returns its path.

    Called *after* every member image committed. Writes the channel
    state, then the shard-set manifest whose rename is the global commit
    point — a crash between the two leaves a torn shard-set and N
    stranded member images, which is exactly what recovery classifies.
    """
    if os.sep in gid or gid.startswith("."):
        raise ShardError(f"invalid shard-set id {gid!r}")
    directory = os.path.join(root, gid)
    os.makedirs(directory, exist_ok=True)
    injector = injector or FaultInjector()
    injector.point("shardset:begin")
    channels_bytes = dump_json(channels_doc)
    atomic_write(directory, CHANNELS_NAME, channels_bytes, injector)
    doc = {
        "shardset_version": SHARDSET_VERSION,
        "gid": gid,
        "num_shards": len(members),
        "members": members,
        "channels_sha256": sha256_hex(channels_bytes),
        "channels_bytes": len(channels_bytes),
        "meta": meta or {},
    }
    atomic_write(directory, SHARDSET_NAME, dump_json(doc), injector)
    fsync_dir(root)
    injector.point("shardset:committed")
    return directory


def _check_members(doc: dict, store: ImageStore) -> list:
    """Problems with a shard-set's member images ([] = all verify)."""
    problems = []
    members = doc.get("members", [])
    if len(members) != doc.get("num_shards"):
        problems.append("member list does not match num_shards")
    for member in members:
        status = member.get("status")
        if status == MEMBER_DONE:
            continue
        if status != MEMBER_RUNNING:
            problems.append(
                f"shard {member.get('shard')}: unknown status {status!r}"
            )
            continue
        image_id = member.get("image_id")
        if not image_id:
            problems.append(f"shard {member.get('shard')}: no image id")
            continue
        member_problems = store.validate(image_id)
        problems.extend(
            f"member {image_id!r}: {p}" for p in member_problems
        )
    return problems


def _load_checked(root: str, gid: str) -> tuple:
    """Parse and fully verify shard-set ``gid``; raises on any defect."""
    directory = os.path.join(root, gid)
    manifest_path = os.path.join(directory, SHARDSET_NAME)
    if not os.path.exists(manifest_path):
        raise InconsistentCutError(
            f"shard-set {gid!r} has no committed manifest — the global "
            "suspend never reached its commit point"
        )
    doc = load_json(manifest_path)
    if not isinstance(doc, dict) or doc.get("shardset_version") != SHARDSET_VERSION:
        raise InconsistentCutError(
            f"shard-set {gid!r}: unsupported or malformed manifest"
        )
    channels_path = os.path.join(directory, CHANNELS_NAME)
    try:
        with open(channels_path, "rb") as fh:
            channels_bytes = fh.read()
    except FileNotFoundError:
        raise InconsistentCutError(
            f"shard-set {gid!r}: channel state file is missing"
        ) from None
    if len(channels_bytes) != doc.get("channels_bytes") or sha256_hex(
        channels_bytes
    ) != doc.get("channels_sha256"):
        raise InconsistentCutError(
            f"shard-set {gid!r}: channel state fails its checksum"
        )
    channels_doc = load_json(channels_path)
    return doc, channels_doc


def load_shardset(store: ImageStore, gid: str) -> tuple:
    """Load a committed shard-set: ``(shardset_doc, channels_doc)``.

    Verifies the manifest, the channel-state checksum, **and** every
    member image before returning; any defect raises
    :class:`InconsistentCutError` — a shard-set is all-or-nothing.
    """
    doc, channels_doc = _load_checked(store.root, gid)
    problems = _check_members(doc, store)
    if problems:
        raise InconsistentCutError(
            f"shard-set {gid!r} is not a consistent cut: "
            + "; ".join(problems)
        )
    return doc, channels_doc


@dataclass
class ShardSetRecovery:
    """What a shard-set scan found under an image root."""

    #: Fully verified global cuts, safe to resume.
    committed: list = field(default_factory=list)
    #: gid -> reason. The cut never committed (or fails verification).
    torn: dict = field(default_factory=dict)
    #: gid -> member image ids that committed under a gid with no
    #: committed shard-set: individually valid images belonging to an
    #: aborted global suspend. Never resumable as a cut; safe to delete.
    stranded: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "committed": list(self.committed),
            "torn": dict(self.torn),
            "stranded": {k: list(v) for k, v in self.stranded.items()},
        }


def classify_shardsets(store: ImageStore) -> ShardSetRecovery:
    """Judge every shard-set under ``store.root``: committed cut or torn.

    Run after ``store.recover()`` (which quarantines torn *member*
    images and skips shard-set directories). Every gid seen — via a
    shard-set directory or via a member image's ``shard_group`` metadata
    — ends up classified: a fully verified cut is ``committed``;
    everything else is ``torn`` with a reason, and its surviving member
    images are listed ``stranded``. Nothing is guessed and nothing is
    silently resumable.
    """
    report = ShardSetRecovery()
    gids = set()
    for name in sorted(os.listdir(store.root)):
        path = os.path.join(store.root, name)
        if not os.path.isdir(path):
            continue
        entries = os.listdir(path)
        if any(e.startswith((SHARDSET_NAME, CHANNELS_NAME)) for e in entries):
            gids.add(name)
    members_by_gid: dict = {}
    for info in store.list_images():
        gid = (info.meta or {}).get("shard_group")
        if gid is not None:
            members_by_gid.setdefault(gid, []).append(info.image_id)
            gids.add(gid)
    for gid in sorted(gids):
        try:
            doc, _ = _load_checked(store.root, gid)
            problems = _check_members(doc, store)
            if problems:
                raise InconsistentCutError("; ".join(problems))
        except Exception as exc:  # classification never raises on bad content
            report.torn[gid] = str(exc)
            if gid in members_by_gid:
                report.stranded[gid] = sorted(members_by_gid[gid])
            continue
        report.committed.append(gid)
    return report
