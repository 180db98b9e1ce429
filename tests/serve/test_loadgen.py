"""The load generator: report shape, determinism, and reproducibility."""

import pytest

from repro.cli import main
from repro.obs import Tracer
from repro.serve import run_loadgen


def test_loadgen_report(tmp_path):
    tracer = Tracer()
    report = run_loadgen(
        str(tmp_path), sessions=12, scale=16, quantum_rows=32, tracer=tracer
    )
    assert report["sessions"] == 12
    assert report["completed"] == 12
    # Every session that survived its opening quantum held a token at
    # once — that is the serving layer's concurrency.
    assert report["concurrent_peak"] >= 8
    assert report["requests"] > report["sessions"]

    latency = report["latency"]
    assert latency["count"] == report["requests"]
    assert 0 < latency["p50"] <= latency["p90"] <= latency["p99"]

    fairness = report["fairness"]
    assert 0 < fairness["jain_service_time"] <= 1
    # Identical plans get identical virtual-clock service: perfectly fair.
    assert all(v == 1.0 for v in fairness["per_plan"].values())

    assert report["determinism"]["ok"]
    assert report["determinism"]["divergent_sessions"] == []
    # Repeat suspends committed deltas, not full images — and deltas that
    # deserve the name: sorted-join's sublists are referenced in the base
    # chain, not rewritten, so most of what its hops carry is reused.
    images = report["images"]
    assert images["delta_commits"] > 0
    assert images["delta_commits"] == sum(
        h["commits"] for h in images["delta_hops"].values()
    )
    sorted_join = images["delta_hops"]["sorted-join"]
    assert sorted_join["commits"] > 0
    assert sorted_join["reused_bytes"] > sorted_join["written_bytes"] > 0
    assert sorted_join["reuse_ratio"] > 0.5

    # The SLO gauges landed in the tracer's registry.
    text = tracer.metrics.render_text()
    assert "serve_jain_index" in text
    assert "serve_latency_p99" in text


def test_loadgen_is_reproducible(tmp_path):
    a = run_loadgen(str(tmp_path / "a"), sessions=6, scale=16)
    b = run_loadgen(str(tmp_path / "b"), sessions=6, scale=16)
    assert a == b


def test_loadgen_single_plan_subset(tmp_path):
    report = run_loadgen(
        str(tmp_path),
        sessions=4,
        scale=16,
        plan_names=["sorted-join"],
    )
    assert report["plans"] == ["sorted-join"]
    assert report["determinism"]["ok"]
    assert report["fairness"]["jain_service_time"] == 1.0


def test_loadgen_twice_on_one_root_stops_before_the_second_run(
    tmp_path, capsys
):
    """The second run's session names were spent by the first: it stops
    with a one-line error naming one, having written nothing."""
    argv = ["loadgen", "--images", str(tmp_path), "--sessions", "4"]
    argv += ["--scale", "16"]
    assert main(argv) == 0
    assert "determinism: ok" in capsys.readouterr().out
    ledger = tmp_path / "TOKENS.json"
    before = ledger.read_bytes()
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    message = exit_info.value.code
    assert message.startswith("error: session 'c") and "\n" not in message
    assert "already served" in message
    assert ledger.read_bytes() == before
