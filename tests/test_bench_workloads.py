"""The benchmark's argument lists still run: every workload's commands, built
by bench/workloads.py at their self-test size, exit 0 through the CLI; and
the deform workload's axis values at seed 1 stay where they were."""

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


def test_deform_axis_values_are_pinned(tmp_path):
    spec = workloads.make_spec("deform", 1)
    for name, text in spec["files"].items():
        (tmp_path / name).write_text(text)
    for command in spec["commands"]:
        args = [arg.replace("{dir}", str(tmp_path)) for arg in command]
        assert CliRunner().invoke(main, args, catch_exceptions=False).exit_code == 0
    for name, want in _DEFORM_AXIS_VALUES.items():
        entries = json.loads((tmp_path / "out" / name).read_text())
        assert [e["induced"] for e in entries[1:]] == [{}, {}]
        got = entries[0]["induced"]
        assert entries[0]["mode"] == {"type": "scalar", "lambda": 0.0, "p": 0}
        assert set(got) == set(want)
        for comp, value in want.items():
            np.testing.assert_allclose(got[comp], value, rtol=1e-12, atol=1e-15)
