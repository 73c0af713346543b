"""The benchmark's argument lists still run: every workload's commands, built
by bench/workloads.py at their self-test size, exit 0 through the CLI; the
deform workload's axis values and the sweep and verify workloads' output
files at seed 1 stay where they were; and a seed-1 sweep factors each
indicial matrix once per distinct square of its roots."""

import hashlib
import importlib.util
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from conemodes.cli import main

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "workloads.py")
_SPEC = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_commands_run(workload, tmp_path):
    spec = workloads.make_spec(workload, 1, tiny=True)
    for name, text in spec["files"].items():
        (tmp_path / name).write_text(text)
    for command in spec["commands"]:
        args = [arg.replace("{dir}", str(tmp_path)) for arg in command]
        result = CliRunner().invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output


# axis values of the deform workload at seed 1, as [re, im] per component of
# the one mode that carries any (scalar lambda = 0, p = 0); the p = -1 and
# co-closed p = 2 modes carry none
_DEFORM_AXIS_VALUES = {
    "induced.json": {"f": [0.40488273041647077, 0.0],
                     "g": [0.4048827304164708, 0.0],
                     "k1": [-0.33300352437574776, 0.0]},
    "induced_metric.json": {"f": [0.09529344948546631, 0.7659924919857193],
                            "g": [0.09529344948546632, 0.7659924919857194],
                            "k1": [0.09224062820238682, -0.8444663288285355]},
}


def _run_full_size(workload, tmp_path):
    """Run a workload's seed-1 commands at full size; the output directory."""
    spec = workloads.make_spec(workload, 1)
    for name, text in spec["files"].items():
        (tmp_path / name).write_text(text)
    for command in spec["commands"]:
        args = [arg.replace("{dir}", str(tmp_path)) for arg in command]
        assert CliRunner().invoke(main, args, catch_exceptions=False).exit_code == 0
    return tmp_path / "out"


def test_deform_axis_values_are_pinned(tmp_path):
    out = _run_full_size("deform", tmp_path)
    for name, want in _DEFORM_AXIS_VALUES.items():
        entries = json.loads((out / name).read_text())
        assert [e["induced"] for e in entries[1:]] == [{}, {}]
        got = entries[0]["induced"]
        assert entries[0]["mode"] == {"type": "scalar", "lambda": 0.0, "p": 0}
        assert set(got) == set(want)
        for comp, value in want.items():
            np.testing.assert_allclose(got[comp], value, rtol=1e-12, atol=1e-15)


# sha256 of the sweep workload's output files at seed 1; a change that means
# to move them updates these and says why
_SWEEP_OUTPUT_SHA256 = {
    "roots.csv": "e42cb445d0a3d981e17b34a5de0ffe165f965315a745b474b2df883c9fbef78e",
    "roots.json": "d213343cbb610c148f9306a37ad9226d7160e7c209bf43f574d6d6f4158d0034",
    "angle_sweep.csv": "3999729897565e7e368af23aa1cc9ca6806d6791e446cb7d2ae09fc0497c43a4",
}


def test_sweep_outputs_are_pinned(tmp_path):
    out = _run_full_size("sweep", tmp_path)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in _SWEEP_OUTPUT_SHA256}
    assert got == _SWEEP_OUTPUT_SHA256


# sha256 of the verify workload's output files at seed 1, as for the sweep
_VERIFY_OUTPUT_SHA256 = {
    "verify.json": "e99874fc9645e080d313eb23896dcabfc8c16d9243b522126bb561ff0a05d1b5",
    "energy_ratios.csv": "9b042c8270bf8eca550e5a1e181059b12cd687e30207251f5e60240391f3e7bd",
}


def test_verify_outputs_are_pinned(tmp_path):
    out = _run_full_size("verify", tmp_path)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in _VERIFY_OUTPUT_SHA256}
    assert got == _VERIFY_OUTPUT_SHA256


def test_sweep_factors_one_matrix_per_distinct_square(tmp_path, monkeypatch):
    # the seed-1 sweep's reports hold 2,280 roots, 1,145 distinct squares;
    # +kappa and -kappa share the one matrix of their square
    from conemodes import indicial

    sizes = []
    null_space = indicial.null_space

    def counted(matrices):
        sizes.append(len(matrices))
        return null_space(matrices)

    monkeypatch.setattr(indicial, "null_space", counted)
    _run_full_size("sweep", tmp_path)
    assert sum(sizes) == 1145
