"""The single body of every operator reproduces, byte for byte, what the
deleted per-row path produced (see :mod:`tests.engine.make_golden`)."""

import json

import pytest

from tests.engine import make_golden

GOLDEN = json.loads(make_golden.GOLDEN.read_text())


def test_every_engine_case_matches_the_row_path():
    got = make_golden.engine_cases()
    assert got.keys() == GOLDEN["cases"].keys()
    wrong = [case for case in got if got[case] != GOLDEN["cases"][case]]
    assert not wrong, (wrong[:5], got[wrong[0]], GOLDEN["cases"][wrong[0]])


@pytest.mark.parametrize("name", make_golden.EXPERIMENTS)
def test_experiment_stdout_matches_the_row_path(name):
    assert make_golden.experiment_stdout(name) == GOLDEN["experiments"][name]
