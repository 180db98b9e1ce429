"""Smoke test of the benchmark itself: ``pytest bench/tests``.

Not part of tier-1 (``testpaths = ["tests"]`` does not collect it). Runs
every workload at about 1/20 size through the same command the
regression gate uses and checks the result contract, the names against
``BENCHMARK.json``, and the layer contrasts the workloads were chosen
for — which are counts, so they are exact, not statistical.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def smoke_results(trace: int) -> dict:
    proc = bench("--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def check_contract(results: dict, section: str) -> None:
    names = {m["name"]: m["unit"] for m in BENCH[section]}
    assert list(results) == WORKLOADS
    for workload, doc in results.items():
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] is True and doc["failed"] == 0, workload
        assert doc["attempted"] >= 1
        assert {
            name: m["unit"] for name, m in doc["metrics"].items()
        } == names


def test_list_agrees_with_runner():
    proc = bench("list")
    assert proc.returncode == 0, proc.stdout
    for section in ("end_to_end", "per_layer"):
        for metric in BENCH[section]:
            assert metric["name"] in proc.stdout


def test_smoke_end_to_end():
    results = smoke_results(trace=0)
    check_contract(results, "end_to_end")
    for doc in results.values():
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_smoke_per_layer_and_contrasts():
    results = smoke_results(trace=1)
    check_contract(results, "per_layer")

    def value(workload, name):
        return results[workload]["metrics"][name]["value"]

    for workload in WORKLOADS:
        assert value(workload, "harness.reconcile_gap_ratio") <= 0.10
        assert value(workload, "harness.trace_overhead_ratio") > 0
    assert value("serve_hops", "device.fsync_calls") > value(
        "image_cycle", "device.fsync_calls"
    )
    assert value("image_cycle", "device.bytes_committed") >= 20 * value(
        "serve_hops", "device.bytes_committed"
    )
    for workload in ("engine_batch", "engine_traced"):
        assert value(workload, "device.fsync_calls") == 0
        assert value(workload, "device.bytes_committed") == 0
    for workload in WORKLOADS:
        records = value(workload, "obs.tracer.records")
        assert (records > 0) == (workload == "engine_traced")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench",
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    proc = bench(
        "--workload", "serve_hops", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
