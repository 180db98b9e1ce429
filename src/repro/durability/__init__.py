"""Durable suspend images: on-disk persistence and crash recovery.

The rest of the system suspends and resumes queries against a *simulated*
disk inside one process. This package gives a suspended query a durable,
versioned, checksummed on-disk form — the suspend image — so it survives
process death and can be resumed by a different interpreter (the paper's
grid-migration and maintenance scenarios, taken to their logical end).

Layers, bottom up:

- :mod:`~repro.durability.faults` — crash-point hooks and torn-write
  injection, threaded through every file operation;
- :mod:`~repro.durability.codec2` — the v2 binary columnar codec
  (typed column segments, int columns at their narrowest width, string
  interning, one stored — level 0, not deflated — zlib stream per
  value, streamed in chunks), the one value codec: image sections and
  shard-worker messages alike. It only encodes values; it neither
  frames nor checksums them;
- :mod:`~repro.durability.format` — the packed one-file-per-image
  layout (sections, manifest with each section's size and SHA-256,
  trailer; one fsync + rename + dir-fsync per commit), its verified
  reader — the one image layout and the image's one format stamp
  (``LAYOUT_VERSION``);
- :mod:`~repro.durability.store` — the :class:`ImageStore`: save, load,
  list, validate, GC, the startup recovery scan with quarantine, and
  the root's one metadata file, an append-only ledger of token
  redemptions and GC pins.
  Every durable object is an image: a sharded query's global cut is
  one too (:meth:`ImageStore.save_cut`), committed by the same path;
- :mod:`~repro.durability.harness` — the crash-matrix harness proving no
  injected fault can produce silent corruption;
- :mod:`~repro.durability.recipes` — deterministic database+plan builders
  so a fresh process can rebuild the base tables an image expects.
"""

from repro.durability.codec2 import CodecError
from repro.durability.faults import (
    FaultInjector,
    InjectedCrash,
    crash_variants,
    torn_variants,
)
from repro.durability.format import LAYOUT_VERSION, ImageFormatError
from repro.durability.harness import (
    CrashOutcome,
    enumerate_faults,
    run_crash_matrix,
)
from repro.durability.recipes import RECIPES, build_recipe
from repro.durability.store import (
    ImageInfo,
    ImageNotFoundError,
    ImageStore,
    RecoveryReport,
    SaveRequest,
)

__all__ = [
    "LAYOUT_VERSION",
    "CodecError",
    "ImageFormatError",
    "ImageNotFoundError",
    "FaultInjector",
    "InjectedCrash",
    "crash_variants",
    "torn_variants",
    "ImageStore",
    "ImageInfo",
    "RecoveryReport",
    "SaveRequest",
    "CrashOutcome",
    "enumerate_faults",
    "run_crash_matrix",
    "RECIPES",
    "build_recipe",
]
