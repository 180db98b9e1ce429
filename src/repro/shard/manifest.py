"""The global cut: N per-shard images named by one more image.

Layout under an image root shared by every shard::

    <root>/<gid>--s0.rimg        # ordinary per-shard suspend images,
    <root>/<gid>--s1.rimg        #   committed by the normal ImageStore
    ...                          #   protocol (one packed file each)
    <root>/<gid>.rimg            # the cut, committed last

The cut is an ordinary packed image (:meth:`ImageStore.save_cut`) with no
payload section: its control section is the coordinator record — stage
index, finished fragments, delivered rows, plan spec, catalog, quantum,
trace id, channel buffers and the member list. Its rename is the *global*
commit point, and the recovery scan classifies it like any image.

A shard set is committed iff the cut image verifies and every running
member it names verifies and carries the cut's gid and its own shard
index in its ``shard_group`` / ``shard`` metadata. Anything less is
**torn**: the cut never happened (or names images of another cut), and
the member images that did commit are *stranded* — individually valid
but useless, because resuming a subset of shards against a cut the
others never joined would be silent corruption. :func:`classify_shardsets`
makes that judgement explicit; resume raises
:class:`~repro.common.errors.InconsistentCutError` instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import InconsistentCutError, ReproError
from repro.durability.store import (
    CUT_META_KEY,
    ImageNotFoundError,
    ImageStore,
)

#: Member statuses a shard can hold at the cut.
MEMBER_RUNNING = "running"  # fragment mid-flight: has a per-shard image
MEMBER_DONE = "done"  # fragment already complete: nothing to restore


def shard_image_id(gid: str, shard: int) -> str:
    """Image id of shard ``shard``'s member image in shard-set ``gid``."""
    return f"{gid}--s{shard}"


def _check_members(record: dict, store: ImageStore, gid: str) -> list:
    """Problems with a cut's member images ([] = all verify)."""
    problems = []
    members = record["members"]
    if [m["shard"] for m in members] != list(range(len(record["frag_done"]))):
        problems.append("member list does not match the shard count")
    for member in members:
        if member["status"] == MEMBER_DONE:
            continue
        image_id = member["image_id"]
        member_problems = store.validate(image_id)
        if not member_problems:
            meta = store.manifest(image_id).get("meta") or {}
            if (meta.get("shard_group"), meta.get("shard")) != (
                gid,
                member["shard"],
            ):
                member_problems = [
                    f"is shard {meta.get('shard')!r} of cut "
                    f"{meta.get('shard_group')!r}, not shard "
                    f"{member['shard']} of {gid!r}"
                ]
        problems.extend(f"member {image_id!r}: {p}" for p in member_problems)
    return problems


def load_cut(store: ImageStore, gid: str) -> dict:
    """The coordinator record of committed shard set ``gid``.

    Verifies the cut image **and** every running member before returning;
    any defect raises :class:`InconsistentCutError` — a shard set is
    all-or-nothing.
    """
    try:
        record = store.load_cut(gid)
    except ImageNotFoundError:
        raise InconsistentCutError(
            f"shard set {gid!r} has no committed cut image — the global "
            "suspend never reached its commit point"
        ) from None
    except ReproError as exc:
        raise InconsistentCutError(f"shard set {gid!r}: {exc}") from None
    problems = _check_members(record, store, gid)
    if problems:
        raise InconsistentCutError(
            f"shard set {gid!r} is not a consistent cut: "
            + "; ".join(problems)
        )
    return record


def _shard_sets(store: ImageStore) -> tuple[set, dict]:
    """``(cut image ids, gid -> member image ids)`` under the root."""
    cuts: set = set()
    members: dict = {}
    for info in store.list_images():
        if info.meta.get(CUT_META_KEY):
            cuts.add(info.image_id)
        elif "shard_group" in info.meta:
            members.setdefault(info.meta["shard_group"], []).append(
                info.image_id
            )
    return cuts, members


def names_shard_set(store: ImageStore, gid: str) -> bool:
    """Whether ``gid`` is a shard set's id — its cut committed or not."""
    cuts, members = _shard_sets(store)
    return gid in cuts or gid in members


@dataclass
class ShardSetRecovery:
    """What a shard-set scan found under an image root."""

    #: Fully verified global cuts, safe to resume.
    committed: list = field(default_factory=list)
    #: gid -> reason. The cut never committed (or fails verification).
    torn: dict = field(default_factory=dict)
    #: gid -> member image ids that committed under a gid with no
    #: committed cut: individually valid images belonging to an aborted
    #: global suspend. Never resumable as a cut; safe to delete.
    stranded: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "committed": list(self.committed),
            "torn": dict(self.torn),
            "stranded": {k: list(v) for k, v in self.stranded.items()},
        }


def classify_shardsets(store: ImageStore) -> ShardSetRecovery:
    """Judge every shard set under ``store.root``: committed cut or torn.

    ``store.recover()`` has already judged each image on its own; this is
    the judgement that spans images. Every gid seen — a cut image's id or
    a member image's ``shard_group`` — ends up classified: a cut that
    :func:`load_cut` accepts is ``committed``; everything else is
    ``torn`` with a reason, and its surviving member images are listed
    ``stranded``. Nothing is guessed and nothing is silently resumable.
    """
    report = ShardSetRecovery()
    cuts, members = _shard_sets(store)
    for gid in sorted(cuts | set(members)):
        try:
            load_cut(store, gid)
        except InconsistentCutError as exc:
            report.torn[gid] = str(exc)
            if gid in members:
                report.stranded[gid] = sorted(members[gid])
            continue
        report.committed.append(gid)
    return report
