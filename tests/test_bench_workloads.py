"""The benchmark's argument lists still run: every workload's commands, built
by bench/workloads.py at their self-test size, exit 0 through the CLI."""

import importlib.util
import os

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
