"""The workload subcommand, in-process and as a real subprocess."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


class TestWorkloadCommand:
    def test_workload_compares_all_policies(self, capsys):
        assert main(["workload", "--trace", "mixed", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "suspend-resume" in out
        assert "kill-restart" in out
        assert "wait" in out
        assert "policy comparison" in out
        assert "memory-pressure timeline" in out

    def test_single_policy_skips_comparison_table(self, capsys):
        assert (
            main(["workload", "--policy", "wait", "--trace", "mixed"]) == 0
        )
        out = capsys.readouterr().out
        assert "policy wait - per-query latency" in out
        assert "policy comparison" not in out

    def test_unknown_trace_rejected(self):
        with pytest.raises(SystemExit):
            main(["workload", "--trace", "nope"])


class TestWorkloadSubprocess:
    def test_module_invocation_end_to_end(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "workload",
                "--trace",
                "mixed",
                "--seed",
                "1",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "suspend-resume" in proc.stdout
        assert "policy comparison" in proc.stdout
        # The motivating result survives the round trip: suspend-resume
        # ranks first in the comparison table (best-first ordering).
        table_lines = proc.stdout.splitlines()
        header = next(
            i
            for i, line in enumerate(table_lines)
            if line.startswith("policy comparison")
        )
        first_row = table_lines[header + 3]
        assert "suspend-resume" in first_row
