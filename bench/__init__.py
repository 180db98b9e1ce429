"""The repository benchmark: four wall-clock workloads over the real stack.

``BENCHMARK.json`` at the repository root names the workloads, the
end-to-end metrics with their regression bounds, and the per-layer
metrics; this package is the only code that produces them. See
``bench/README.md`` for what each workload measures and why.

Nothing here is imported by ``src/repro`` and nothing under ``src/`` is
edited to be measured: the per-layer numbers come from wrapping the
program's public callables at run time (:mod:`bench.layers`).
"""
