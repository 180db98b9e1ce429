"""Fault injection for the durable-image commit protocol.

The image writer threads every file operation through a
:class:`FaultInjector`, which can simulate a process crash at any named
*crash point* or a *torn write* (a partial file left behind by a crash
mid-``write``). A crash is modeled as :class:`InjectedCrash` unwinding out
of the writer: the files already durable stay exactly as a real crash
would leave them, and nothing is cleaned up.

The same injector doubles as a *recorder*: a clean run with a fresh
``FaultInjector()`` logs every crash point and every torn-write
opportunity it passed, which is how the fault harness enumerates the
full matrix without hard-coding the commit protocol's step list. A store
built without an injector gets the shared :data:`NULL_INJECTOR`, which
neither records nor crashes, so a long-running process keeps no log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.common.errors import ReproError


class InjectedCrash(ReproError):
    """The injected process crash: unwinds out of the image writer."""

    def __init__(self, point: str):
        super().__init__(f"injected crash at {point!r}")
        self.point = point


@dataclass
class FaultInjector:
    """Crash-point hooks and torn-write injection for image writes.

    Attributes:
        crash_points: crash-point names at which to raise
            :class:`InjectedCrash` (e.g. ``"written:control"``).
        torn_points: file labels whose *next* write is torn: only a prefix
            of the bytes reaches the file before the injected crash.
        observed_points: every crash point passed, in order (recorder).
        observed_torn: every file label that offered a torn write.
    """

    crash_points: set[str] = field(default_factory=set)
    torn_points: set[str] = field(default_factory=set)
    observed_points: list[str] = field(default_factory=list)
    observed_torn: list[str] = field(default_factory=list)

    @classmethod
    def crashing_at(cls, point: str) -> "FaultInjector":
        return cls(crash_points={point})

    @classmethod
    def tearing(cls, label: str) -> "FaultInjector":
        return cls(torn_points={label})

    def point(self, name: str) -> None:
        """Pass a crash point: record it, crash if configured to."""
        self.observed_points.append(name)
        if name in self.crash_points:
            raise InjectedCrash(name)

    def wants_torn(self, label: str) -> bool:
        """Record a torn-write opportunity; True if it should be taken."""
        self.observed_torn.append(label)
        return label in self.torn_points


class NullInjector(FaultInjector):
    """The production injector: passes every point, records nothing.

    A single shared instance (:data:`NULL_INJECTOR`) is the default of
    every store and writer.
    """

    def point(self, name: str) -> None:
        pass

    def wants_torn(self, label: str) -> bool:
        return False


NULL_INJECTOR = NullInjector()


def crash_variants(points: Iterable[str]) -> list[FaultInjector]:
    """One crashing injector per observed point (harness helper)."""
    return [FaultInjector.crashing_at(p) for p in dict.fromkeys(points)]


def torn_variants(labels: Iterable[str]) -> list[FaultInjector]:
    """One tearing injector per observed file label (harness helper)."""
    return [FaultInjector.tearing(lb) for lb in dict.fromkeys(labels)]
