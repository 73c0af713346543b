"""The benchmark's argument lists still run: every workload's commands, built
by bench/workloads.py at their self-test size, exit 0 through the CLI; the
benchmark's own output checks (bench/child.py) pass on each workload's
seed-1 outputs at full size; the deform workload's axis values and the output
files of all three workloads at seed 1 stay where they were; a seed-1 sweep
builds no mode system and reports each key once per table; and a seed-1
pass of any workload imports no module after the CLI."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from conemodes.cli import main

_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, os.path.join(_BENCH, filename))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("bench_workloads", "workloads.py")
child = _load("bench_child", "child.py")


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


# sha256 of the deform workload's output files at seed 1, next to the axis
# values above; a change that means to move them updates these and says why
_DEFORM_OUTPUT_SHA256 = {
    "angle_profile.csv": "bc0cb4790d0102d33a64e655b58d8dc1144021aef82150f4fae83ce42a1f50a1",
    "angle_report.json": "39c8a055c7b7cdadaff8fe8324600bec4988d72f15d97ba37b0dd28efabc11dd",
    "correction_block.csv": "9d07843807795123652e126bb667ab3d2211c645ac01808f65df7aec337877af",
    "induced.json": "65bcd8da3af55f701fdabcae75fae74f54348d75e7e71dabaf1abdcf8c6e40c1",
    "induced_metric.json": "91392b77d39208cc26207e00f5c8159fb1d2b645d1407dce9f73e026288fa781",
}


def test_deform_outputs_are_pinned(tmp_path):
    out = _run_full_size("deform", tmp_path)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in _DEFORM_OUTPUT_SHA256}
    assert got == _DEFORM_OUTPUT_SHA256


# sha256 of the sweep workload's output files at seed 1; a change that means
# to move them updates these and says why
_SWEEP_OUTPUT_SHA256 = {
    "roots.csv": "8cac9755d75f9fa6842add5036bbb6466e81dd30905a779dfaf2fbea57000456",
    "roots.json": "46cefd345a6e06df69450687bfa63931a95d654afe825abc47dad5998f86d2d4",
    "angle_sweep.csv": "3999729897565e7e368af23aa1cc9ca6806d6791e446cb7d2ae09fc0497c43a4",
}


def test_sweep_outputs_are_pinned(tmp_path):
    out = _run_full_size("sweep", tmp_path)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in _SWEEP_OUTPUT_SHA256}
    assert got == _SWEEP_OUTPUT_SHA256


# sha256 of the verify workload's output files at seed 1, as for the sweep
_VERIFY_OUTPUT_SHA256 = {
    "verify.json": "20f7b5b4d8676c2cc07db2acd0fac0bc63bab2650435b0b4c90330afe1970c51",
    "energy_ratios.csv": "fe4e71a3ec2e0f6ef4e3165b1ac39c1475bf5746ed26536c95ef11eac7f7c000",
}


def test_verify_outputs_are_pinned(tmp_path):
    out = _run_full_size("verify", tmp_path)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in _VERIFY_OUTPUT_SHA256}
    assert got == _VERIFY_OUTPUT_SHA256


def test_sweep_builds_no_mode_system(tmp_path, monkeypatch):
    # the root tables read every report off its key (family, kind, names, t)
    from conemodes import cli, frobenius, indicial, reduction

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a mode system")

    for module in (cli, frobenius, indicial, reduction):
        for name in ("oneform_system", "tensor_system"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    _run_full_size("sweep", tmp_path)


def test_sweep_reports_each_key_once_per_table(tmp_path, monkeypatch):
    # the modes m = +-1 share a key, so the root table has fewer distinct
    # keys than row groups, and the sweep fewer than row groups times angles
    from conemodes import indicial

    calls, entries = Counter(), Counter()
    report_at, table_entries = indicial.indicial_report_at, indicial._table_entries

    def counted_report(*key):
        calls[sys._getframe(1).f_code.co_name, key] += 1
        return report_at(*key)

    def counted_entries(*args):
        out = table_entries(*args)
        entries[sys._getframe(1).f_code.co_name] += len(out)
        return out

    monkeypatch.setattr(indicial, "indicial_report_at", counted_report)
    monkeypatch.setattr(indicial, "_table_entries", counted_entries)
    _run_full_size("sweep", tmp_path)
    assert set(calls.values()) == {1}
    tables = Counter(table for table, _ in calls)
    assert set(tables) == {"root_table_rows", "angle_sweep_rows"}
    angles = workloads.make_spec("sweep", 1)["check"]["count"]
    assert tables["root_table_rows"] < entries["root_table_rows"]
    assert tables["angle_sweep_rows"] < entries["angle_sweep_rows"] * angles


# a pass after `import conemodes.cli` in a fresh interpreter, printing the
# modules it imported; the first np.unique alone imports numpy.ma (18 ms cold)
_COLD_PASS = """
import importlib.util, os, sys, tempfile
spec_ = importlib.util.spec_from_file_location("w", os.path.join(sys.argv[1], "workloads.py"))
workloads = importlib.util.module_from_spec(spec_)
spec_.loader.exec_module(workloads)
from click.testing import CliRunner
import conemodes.cli as cli
spec, runner = workloads.make_spec(sys.argv[2], 1), CliRunner()
with tempfile.TemporaryDirectory() as tmp:
    for name, text in spec["files"].items():
        with open(os.path.join(tmp, name), "w") as fh:
            fh.write(text)
    before = set(sys.modules)
    for args in spec["commands"]:
        args = [arg.replace("{dir}", tmp) for arg in args]
        assert runner.invoke(cli.main, args).exit_code == 0
    print(" ".join(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_pass_imports_no_module_after_the_cli(workload):
    import conemodes

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(conemodes.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", _COLD_PASS, _BENCH, workload], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_checks_pass_at_full_size(workload, tmp_path):
    # every pass's share of the checks; a sweep column that check_sweep
    # cannot unpack would otherwise show only as failed benchmark operations
    spec = workloads.make_spec(workload, 1)
    out = _run_full_size(workload, tmp_path)
    for k in range(len(spec["check"].get("angles", [0]))):
        checks = child.run_checks(dict(spec, **{"pass": k}), str(out),
                                  [0] * len(spec["commands"]))
        assert checks.failures == []
        assert checks.attempted > len(spec["commands"])
