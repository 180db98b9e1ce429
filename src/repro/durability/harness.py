"""Crash-matrix harness for the durable-image commit protocol.

The safety claim the subsystem makes is binary: a crash at *any* point
during ``ImageStore.save`` leaves either

- a **committed** image — the recovery scan accepts it, every checksum
  verifies, and it decodes into a resumable SuspendedQuery — or
- a **detected partial** — the recovery scan classifies it torn/orphaned
  and quarantines it.

What must never happen is *silent corruption*: the scan calling an image
committed that then fails validation or fails to load. This harness
proves the claim by enumeration: a clean save with a recorder injector
lists every crash point and torn-write opportunity the protocol actually
passes (so the matrix cannot drift out of sync with the code), then each
fault is injected into a fresh image root and the aftermath is put
through recovery and classified.

An image is one packed file (:func:`~repro.durability.format.
write_packed_image`): a torn write on a blob or the control record
truncates *inside its value stream*, one on the manifest truncates JSON
mid-document, one on the trailer leaves a file with no valid trailer.
All must classify as torn, never silently corrupt.

Given a ``base_image_id``, the same matrix runs on a **delta** commit:
the query is committed cleanly as the base, continued from it the way a
resumed process does (load, re-import the payloads), one payload is
re-dumped, and the fault strikes the *delta* commit — a delta whose
references rest on payload provenance carried across the load. The
claim strengthens: the delta is torn/quarantined as usual AND the base
image must remain committed and loadable — a crashed delta can never
take its chain down with it. With ``rebase`` as well, the struck commit
is instead a *full* image of that resumed query — what a ``MAX_CHAIN``
rebase writes: it copies the base's verified sections into itself (and
encodes the re-dumped one), and the base must survive it the same way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.suspended_query import SuspendedQuery
from repro.durability.faults import FaultInjector, InjectedCrash
from repro.durability.store import ImageStore
from repro.storage.statefile import StateStore

#: Crash points that fire only after the image's rename: the image is
#: already committed when the "crash" happens, so surviving is correct.
_POST_COMMIT_POINTS = ("renamed:image", "committed")


@dataclass(frozen=True)
class CrashOutcome:
    """What one injected fault left behind, after the recovery scan."""

    #: ``crash:<point>`` or ``torn:<file>``.
    fault: str
    #: Whether the injected crash actually fired during save.
    crashed: bool
    #: Recovery classification: committed / torn / orphaned / absent.
    classification: str
    #: For committed images: the image loaded and decoded fully.
    loaded: bool
    #: The failure the claim forbids: classified committed but broken.
    silent_corruption: bool
    detail: str = ""
    #: With a base commit: the pre-existing base image survived intact.
    base_intact: bool = True


def bump_one_generation(sq: SuspendedQuery, store: StateStore) -> None:
    """Re-dump one referenced payload so the next delta must rewrite it.

    The payload bytes are unchanged but the dump forgets where they were
    durable, which is exactly what a repeat suspend after more execution
    looks like to the delta planner — so the delta commit carries one
    local blob alongside its base-chain references.
    """
    handles = sq.referenced_handles()
    if not handles:
        return
    key = sorted(handles)[0]
    payload, pages = store.export_payload(handles[key])
    store.dump(key, payload, pages)


def _commit_base(
    sq: SuspendedQuery, store: StateStore, root: str, base_image_id: str
) -> SuspendedQuery:
    """Commit ``base_image_id`` and return the query as a resume from it
    holds it: loaded back, payloads re-imported under their keys with
    sections of the base as origins, one of them re-dumped. ``sq`` is
    released."""
    image_store = ImageStore(root)
    image_store.save(sq, store, image_id=base_image_id)
    resumed = image_store.load(base_image_id)
    resumed.hold_in(store)
    sq.release()
    bump_one_generation(resumed, store)
    return resumed


def enumerate_faults(
    sq: SuspendedQuery,
    store: StateStore,
    scratch_root: str,
    base_image_id: Optional[str] = None,
    rebase: bool = False,
) -> tuple[list[str], list[str]]:
    """Record every crash point and torn-write label one save passes
    (with ``base_image_id``: one delta commit against that base, or with
    ``rebase`` one full commit copying from it)."""
    if base_image_id is not None:
        sq = _commit_base(sq, store, scratch_root, base_image_id)
    recorder = FaultInjector()
    ImageStore(scratch_root, injector=recorder).save(
        sq,
        store,
        image_id="probe",
        base_image_id=None if rebase else base_image_id,
    )
    points = list(dict.fromkeys(recorder.observed_points))
    torn = list(dict.fromkeys(recorder.observed_torn))
    return points, torn


def _classify(report, image_id: str) -> str:
    if image_id in report.committed:
        return "committed"
    if image_id in report.torn:
        return "torn"
    if image_id in report.orphaned:
        return "orphaned"
    return "absent"


def _check_committed(
    survivor: ImageStore, sq: SuspendedQuery, image_id: str
) -> tuple[bool, bool, str]:
    """Validate+load a committed image; returns (loaded, silent, detail)."""
    problems = survivor.validate(image_id)
    if problems:
        return False, True, "; ".join(problems)
    try:
        recovered = survivor.load(image_id)
        return bool(recovered.entries) or not sq.entries, False, ""
    except Exception as exc:  # any load failure is corruption
        return False, True, str(exc)


def run_one_fault(
    sq: SuspendedQuery,
    store: StateStore,
    root: str,
    injector: FaultInjector,
    fault: str,
    base_image_id: Optional[str] = None,
    rebase: bool = False,
) -> CrashOutcome:
    """Inject one fault into a save under a fresh ``root``; classify.

    With ``base_image_id`` the query is first committed cleanly as that
    base and the fault strikes the delta commit against it (with
    ``rebase``: the full commit that copies the base's sections). Beyond
    the no-silent-corruption claim, the base must then survive every
    mid-chain crash: it was durable before the struck commit began, and
    nothing that commit does may disturb it.
    """
    if base_image_id is not None:
        sq = _commit_base(sq, store, root, base_image_id)
    crashed = False
    detail = ""
    try:
        ImageStore(root, injector=injector).save(
            sq,
            store,
            image_id="img",
            base_image_id=None if rebase else base_image_id,
        )
    except InjectedCrash as exc:
        crashed = True
        detail = str(exc)

    # A new process starts: scan the root with no injector configured.
    survivor = ImageStore(root)
    report = survivor.recover()
    classification = _classify(report, "img")

    loaded = False
    silent = False
    if classification == "committed":
        loaded, silent, problem = _check_committed(survivor, sq, "img")
        detail = problem or detail
        # A crash strictly before the image's rename must not leave a
        # committed image behind — that would mean the commit point leaked.
        post_commit = {f"crash:{p}" for p in _POST_COMMIT_POINTS}
        if crashed and fault not in post_commit:
            silent = True
            detail = detail or "pre-commit crash left a committed image"
    base_intact = True
    if base_image_id is not None:
        base_loaded, base_broken, base_problem = (
            _check_committed(survivor, sq, base_image_id)
            if base_image_id in report.committed
            else (False, True, "base image not committed after delta crash")
        )
        base_intact = base_loaded and not base_broken
        if not base_intact:
            silent = True
            detail = detail or base_problem
    return CrashOutcome(
        fault=fault,
        crashed=crashed,
        classification=classification,
        loaded=loaded,
        silent_corruption=silent,
        detail=detail,
        base_intact=base_intact,
    )


def run_crash_matrix(
    make_suspended: "Callable",
    root: str,
    base_image_id: Optional[str] = None,
) -> list[CrashOutcome]:
    """Run the full fault matrix; returns one outcome per fault.

    ``make_suspended()`` must return a fresh ``(sq, state_store)`` pair —
    fresh so each variant's save sees identical inputs regardless of what
    earlier variants did. Faults are enumerated from a clean recorder run,
    then each crash point and each torn-write label gets its own image
    root under ``root``. ``base_image_id`` sweeps a delta commit instead
    (see :func:`run_one_fault`).
    """
    sq, store = make_suspended()
    points, torn_labels = enumerate_faults(
        sq, store, os.path.join(root, "probe"), base_image_id
    )
    faults = [
        (f"crash-{i:02d}", FaultInjector.crashing_at(p), f"crash:{p}")
        for i, p in enumerate(points)
    ] + [
        (f"torn-{i:02d}", FaultInjector.tearing(lb), f"torn:{lb}")
        for i, lb in enumerate(torn_labels)
    ]
    outcomes: list[CrashOutcome] = []
    for name, injector, fault in faults:
        sq, store = make_suspended()
        outcomes.append(
            run_one_fault(
                sq,
                store,
                os.path.join(root, name),
                injector,
                fault=fault,
                base_image_id=base_image_id,
            )
        )
    return outcomes
