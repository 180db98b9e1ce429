"""Memory-pressure policies: what to do when a query needs memory.

The paper's Section 1 compares three ways of serving a high-priority
query while a long-running low-priority query holds the memory:

- ``kill-restart`` — kill the holders and rerun them from scratch later
  (their completed work is wasted);
- ``wait`` — make the incoming query wait until the holders finish
  (terrible high-priority latency);
- ``suspend-resume`` — suspend the holders within a suspend budget using
  the paper's machinery, run the incoming query, resume the holders.

A policy's :meth:`~PressurePolicy.make_room` is invoked by the
trace-replay scheduler right before a query is started or resumed (the
HTTP server never applies one: no other session is live across its
requests); it may suspend or kill
victims and returns ``True`` when the query may take the CPU now. Only
strictly lower-priority sessions are ever victimized — pressure from
equal-or-higher-priority holders always means waiting, under every
policy, so priority inversions cannot be manufactured by the policy
choice itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.scheduler import QueryRecord, QueryScheduler


def select_victims(
    candidates: list["QueryRecord"], excess: int, fold_manager=None
) -> list["QueryRecord"]:
    """Pick victims covering ``excess`` bytes: lowest priority first,
    largest memory first within a priority, name breaking ties.

    With a fold manager, ungrafted members go first within a priority:
    suspending a grafted query splits its fold (the survivors keep
    sharing, but the victim's future work is no longer absorbed), so
    equal-priority victims that share nothing are cheaper to evict.
    """

    def grafted(r: "QueryRecord") -> bool:
        return fold_manager is not None and fold_manager.is_grafted(r.name)

    ordered = sorted(
        candidates,
        key=lambda r: (r.priority, grafted(r), -r.memory_in_use(), r.name),
    )
    victims: list["QueryRecord"] = []
    freed = 0
    for record in ordered:
        if freed >= excess:
            break
        victims.append(record)
        freed += record.memory_in_use()
    return victims if freed >= excess else ordered


class PressurePolicy:
    """Base class; subclasses define one pressure-resolution behavior."""

    name = "abstract"

    def make_room(
        self, scheduler: "QueryScheduler", record: "QueryRecord"
    ) -> bool:
        """Try to free enough memory for ``record``; True = may run now."""
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


def _trace_pressure(scheduler, record, excess, victims, action) -> None:
    """Emit the victim-selection decision onto the scheduler's tracer."""
    tracer = scheduler.tracer
    if not tracer.enabled:
        return
    tracer.event(
        "sched.pressure",
        query=record.name,
        excess=excess,
        action=action,
        victims=[v.name for v in victims],
    )


class SuspendResumePolicy(PressurePolicy):
    """Suspend victims with the online optimizer; resume them later."""

    name = "suspend-resume"

    def make_room(self, scheduler, record):
        excess = scheduler.pressure_excess(record)
        if excess <= 0:
            return True
        victims = select_victims(
            scheduler.victim_candidates(record), excess,
            fold_manager=scheduler.fold_manager,
        )
        _trace_pressure(scheduler, record, excess, victims, "suspend")
        # One batch: the in-memory suspends run in victim order (virtual
        # clock unchanged vs. a loop), then the durable spill images
        # commit one after another when an image store is configured.
        scheduler.suspend_victims(victims)
        return scheduler.pressure_excess(record) <= 0


class KillRestartPolicy(PressurePolicy):
    """Kill victims outright; they restart from scratch when rescheduled."""

    name = "kill-restart"

    def make_room(self, scheduler, record):
        excess = scheduler.pressure_excess(record)
        if excess <= 0:
            return True
        victims = select_victims(
            scheduler.victim_candidates(record), excess,
            fold_manager=scheduler.fold_manager,
        )
        _trace_pressure(scheduler, record, excess, victims, "kill")
        for victim in victims:
            scheduler.kill_victim(victim)
        return scheduler.pressure_excess(record) <= 0


class WaitPolicy(PressurePolicy):
    """Never preempt: the incoming query waits for memory to clear."""

    name = "wait"

    def make_room(self, scheduler, record):
        excess = scheduler.pressure_excess(record)
        if excess > 0:
            _trace_pressure(scheduler, record, excess, [], "wait")
        return excess <= 0


POLICIES: dict[str, type[PressurePolicy]] = {
    policy.name: policy
    for policy in (SuspendResumePolicy, KillRestartPolicy, WaitPolicy)
}


def get_policy(policy: Union[str, PressurePolicy]) -> PressurePolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, PressurePolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; "
            f"expected one of {sorted(POLICIES)}"
        ) from None
