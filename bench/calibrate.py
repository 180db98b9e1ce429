"""Reference work run between operations, to cancel machine drift.

The sandbox this benchmark runs in slows down and speeds up by tens of
percent over minutes (other tenants of the host), and differently for
different kinds of code: measured over ten minutes, a pure arithmetic
loop moved 6%, dict- and tuple-heavy interpreter work 11-18%, and a
small write + fsync + rename 36%. A run lasts half a minute, so no
within-run statistic can see that drift; it lands whole on the result.

So every round interleaves short *slices* of fixed reference work with
the timed operations — interpreter work shaped like the engine's
(filter, group and sort tuples) and, for the workloads that write
images, the store's own commit pattern (tmp write, fsync, rename,
directory fsync) — and every duration the round reports is divided by
``median slice time / reference slice time``: times are stated *at
reference speed*. The reference work is independent of the program
under test, so a change to the program moves the metrics and a change
of the machine's mood mostly does not. On the drift log above this
takes a serve-like operation's range from 26% to 6%. The speed factor
itself is reported (``harness.speed_factor``), so a reader can undo it.

The slice composition per workload mirrors that workload's measured
split between interpreter and device time; the reference times are
this repository's reference box on a quiet minute. Both are constants:
changing them redefines every time metric.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter_ns

_ROWS = [(i * 7919 % 10007, (i * 31 % 1000) / 1000.0, i) for i in range(4000)]
_PAGE = bytes(range(256)) * 16


def cpu_unit() -> None:
    """Filter, group and sort 4000 tuples (about 0.65 ms)."""
    kept = [row for row in _ROWS if row[1] < 0.5]
    groups: dict = {}
    for row in kept:
        groups.setdefault(row[0] % 64, []).append(row)
    kept.sort()


def device_unit(directory: str) -> None:
    """Commit 4 KiB the way the image store commits a file."""
    tmp = os.path.join(directory, "calibrate.tmp")
    with open(tmp, "wb") as fh:
        fh.write(_PAGE)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, os.path.join(directory, "calibrate.bin"))
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


#: workload -> (cpu units, device units, reference slice time in ns).
SLICES = {
    "serve_hops": (3, 2, 3_350_000),
    "image_cycle": (6, 1, 4_550_000),
    "engine_batch": (4, 0, 2_470_000),
    "engine_traced": (4, 0, 2_470_000),
}

#: A slice runs between operations once this much time has passed since
#: the last one (about 5% of a round goes to reference work).
INTERVAL_NS = 60_000_000


class Calibrator:
    """Runs the slices of one round and yields its speed factor."""

    def __init__(self, workload: str, directory: str):
        self.cpu_units, self.device_units, self.reference_ns = SLICES[workload]
        self.directory = directory
        self.slices: list[tuple[int, int]] = []  # (cpu ns, device ns)
        self._last = 0

    def maybe_slice(self) -> None:
        now = perf_counter_ns()
        if now - self._last < INTERVAL_NS:
            return
        for _ in range(self.cpu_units):
            cpu_unit()
        middle = perf_counter_ns()
        for _ in range(self.device_units):
            device_unit(self.directory)
        end = perf_counter_ns()
        self.slices.append((middle - now, end - middle))
        self._last = end

    def factor(self) -> float:
        """Median slice time over the reference: > 1 = a slow minute."""
        return (
            statistics.median(cpu + device for cpu, device in self.slices)
            / self.reference_ns
        )
