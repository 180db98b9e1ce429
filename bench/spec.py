"""The metric names the runner emits, and ``BENCHMARK.json`` beside them.

``BENCHMARK.json`` is the contract (names, units, bounds); the tables
here say how the runner computes each per-layer metric from recorded
spans and on which workloads it is meaningful. ``python3 -m bench list``
prints both side by side and fails when they disagree.
"""

from __future__ import annotations

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

ALL = ("serve_hops", "image_cycle", "engine_batch", "engine_traced")
DURABLE = ("serve_hops", "image_cycle")

#: End-to-end metric -> unit. Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "rows_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "first_ms_p50": "ms",
    "peak_rss_mb": "MiB",
}

#: Time layers: metric -> (span names whose self time it sums, workloads
#: it is reported on). Value = mean self time per operation, in ms.
LAYER_MS = {
    "serve.http.self_ms": (("serve.http",), ("serve_hops",)),
    "serve.service.self_ms": (("serve.service",), ("serve_hops",)),
    "serve.tokens.redeem_ms": (("serve.tokens.redeem",), ("serve_hops",)),
    "serve.tokens.issue_ms": (("serve.tokens.issue",), ("serve_hops",)),
    "serve.tokens.release_ms": (("serve.tokens.release",), ("serve_hops",)),
    "durability.store.save_ms": (("durability.store.save",), DURABLE),
    "durability.store.load_ms": (("durability.store.load",), DURABLE),
    "durability.store.pins_ms": (("durability.store.pins",), ("serve_hops",)),
    "durability.store.gc_ms": (("durability.store.gc",), DURABLE),
    "durability.codec2.encode_ms": (("durability.codec2.encode",), DURABLE),
    "durability.codec2.decode_ms": (("durability.codec2.decode",), DURABLE),
    "device.fsync_ms": (("device.fsync",), DURABLE),
    "device.rename_ms": (("device.rename",), DURABLE),
    "device.unlink_ms": (("device.unlink", "device.rmtree"), DURABLE),
    "core.lifecycle.suspend_ms": (("core.lifecycle.suspend",), DURABLE),
    "core.lifecycle.resume_ms": (("core.lifecycle.resume",), DURABLE),
    "core.optimizer.plan_ms": (("core.optimizer.plan",), DURABLE),
    "service.core.quantum_ms": (("service.core.quantum",), ("serve_hops",)),
    "service.core.suspend_victims_ms": (
        ("service.core.suspend_victims",),
        ("serve_hops",),
    ),
    "engine.execute_ms": (("engine.execute",), ALL),
}

#: Count layers: metric -> (span name, "calls" | "value", workloads).
#: Value = mean per operation over the round's count window.
LAYER_COUNTS = {
    "device.fsync_calls": ("device.fsync", "calls", DURABLE),
    "device.rename_calls": ("device.rename", "calls", DURABLE),
    "device.unlink_calls": ("device.unlink", "calls", DURABLE),
    "device.bytes_committed": ("device.rename", "value", DURABLE),
    "engine.execute_calls": ("engine.execute", "calls", ALL),
    "engine.rows": ("engine.execute", "value", ALL),
}

#: Counts the round takes itself (virtual clock, simulated-disk pages,
#: obs records), and whole-process / harness figures.
OTHER_LAYERS = {
    "storage.vclock_s": ("count", ALL),
    "storage.pages_read": ("count", ALL),
    "storage.pages_written": ("count", ALL),
    "obs.tracer.records": ("count", ("engine_traced",)),
    "obs.overhead_ratio": ("ratio", ("engine_traced",)),
    "process.cpu_ms_per_op": ("ms", ALL),
    "harness.reconcile_gap_ratio": ("ratio", ALL),
    "harness.trace_overhead_ratio": ("ratio", ALL),
    "harness.import_s": ("s", ALL),
    "harness.speed_factor": ("ratio", ALL),
}

#: Count metrics that must repeat exactly for a seed (``aa --counts``).
EXACT_COUNTS = tuple(LAYER_COUNTS) + (
    "storage.vclock_s",
    "storage.pages_read",
    "storage.pages_written",
    "obs.tracer.records",
)


def per_layer_units() -> dict:
    """Every per-layer metric the runner emits -> its unit."""
    units = {name: "ms" for name in LAYER_MS}
    units.update({name: "count" for name in LAYER_COUNTS})
    units.update({name: unit for name, (unit, _) in OTHER_LAYERS.items()})
    return units


def reported_on(name: str) -> tuple:
    """Workloads on which a metric is meaningful (elsewhere it reads 0)."""
    if name in END_TO_END:
        return ALL
    for table in (LAYER_MS, LAYER_COUNTS, OTHER_LAYERS):
        if name in table:
            return table[name][-1]
    raise KeyError(name)


def load() -> dict:
    """``BENCHMARK.json``, parsed."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(spec: dict) -> list[str]:
    """Every way the runner's names and ``BENCHMARK.json`` disagree."""
    problems = []
    for section, emitted in (
        ("end_to_end", END_TO_END),
        ("per_layer", per_layer_units()),
    ):
        listed = {m["name"]: m["unit"] for m in spec[section]}
        for name in sorted(set(emitted) - set(listed)):
            problems.append(f"{section}: runner emits unlisted {name}")
        for name in sorted(set(listed) - set(emitted)):
            problems.append(f"{section}: {name} is listed but never emitted")
        for name in sorted(set(listed) & set(emitted)):
            if listed[name] != emitted[name]:
                problems.append(
                    f"{section}: {name} unit {listed[name]!r} != "
                    f"runner's {emitted[name]!r}"
                )
    if [w["name"] for w in spec["workloads"]] != list(ALL):
        problems.append("workloads differ from the runner's")
    return problems
