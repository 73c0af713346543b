"""Self-test of the benchmark at a tiny input size (about two minutes).

    python3 bench/selftest.py

Run from the root of a source checkout.  It checks that

* every end-to-end and per-layer metric named in BENCHMARK.json is
  reported, with the unit given there, on every workload;
* the untampered tiny outputs pass their checks;
* a tampered output is counted as a failed operation and named: a
  residual forced above tolerance (deform), a flipped log flag (sweep),
  a failing verification row (verify) and a non-zero exit code.

It also prints what the sweep check finds a few ulps below the full angle
2*pi, where float root clustering and the exact certificate disagree; that
is a known defect of the program, reported, not asserted.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from child import _bind, run_checks  # noqa: E402
from workloads import WORKLOADS, _model, make_spec  # noqa: E402


def _expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def check_metrics(declared):
    for wl in WORKLOADS:
        spec = make_spec(wl, seed=0, tiny=True)
        runs = run.measure(spec, 0.0, trace=True)
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            got = run.summarize(runs, trace)
            want = {m["name"]: m["unit"] for m in declared[key]}
            units = {nm: m["unit"] for nm, m in got["metrics"].items()}
            _expect(units == want, f"{wl} reports every {key} metric with its unit")
            _expect(all(isinstance(m["value"], (int, float))
                        for m in got["metrics"].values()),
                    f"{wl} {key} values are numbers")
        _expect(got["correct"] and got["failed"] == 0,
                f"{wl} tiny outputs pass their checks ({got['attempted']} ops)")


def _run_cli(spec, pass_dir):
    """Run a spec's commands in this process; return (out dir, exit codes)."""
    from click.testing import CliRunner

    import conemodes.cli as cli

    os.makedirs(pass_dir)
    for name, text in spec["files"].items():
        with open(os.path.join(pass_dir, name), "w") as fh:
            fh.write(text)
    codes = [CliRunner().invoke(cli.main, [_bind(a, pass_dir) for a in args]).exit_code
             for args in spec["commands"]]
    return os.path.join(pass_dir, "out"), codes


def _edit_json(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


def check_tampering():
    sys.path.insert(0, run.SRC)
    import numpy as np

    base = os.path.join(run.WORK, "tamper")

    spec = make_spec("deform", seed=0, tiny=True)
    out, codes = _run_cli(spec, os.path.join(base, "deform"))
    _expect(not run_checks(spec, out, codes).failures, "deform outputs check clean")
    _expect(len(run_checks(spec, out, [1] + codes[1:]).failures) == 1,
            "a non-zero exit code is one failed operation")
    _edit_json(os.path.join(out, "angle_report.json"),
               lambda d: d.update(normalization_max_residual=1e-3))
    failures = run_checks(spec, out, codes).failures
    _expect(len(failures) == 1 and "normalization" in failures[0],
            "a normalization residual above tolerance is one named failure")
    _edit_json(os.path.join(out, "induced_metric.json"),
               lambda d: d[0].update(boundary_residual=1.0))
    _expect(len(run_checks(spec, out, codes).failures) == 2,
            "a boundary residual above tolerance is counted too")

    spec = make_spec("sweep", seed=0, tiny=True)
    out, codes = _run_cli(spec, os.path.join(base, "sweep"))
    checks = run_checks(spec, out, codes)
    _expect(not checks.failures, f"sweep outputs match the exact certificate "
                                 f"({checks.attempted} systems)")
    path = os.path.join(out, "angle_sweep.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    c = spec["check"]
    checked = np.linspace(c["start"], c["stop"], c["count"])[c["angles"][0]]
    row = next(r for r in rows[1:] if r[0] == f"{checked:.12g}")
    row[7] = "false" if row[7] == "true" else "true"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    failures = run_checks(spec, out, codes).failures
    _expect(len(failures) == 1 and "exact" in failures[0],
            "a flipped log flag is one named failure")

    near = 2 * math.pi * (1 - 1e-15)
    spec["files"]["model.json"] = _model(near)
    spec["commands"][0][-3:] = [repr(near), repr(near), "1"]
    spec["check"].update(start=near, stop=near, count=1, angles=[0])
    out, codes = _run_cli(spec, os.path.join(base, "threshold"))
    checks = run_checks(spec, out, codes)
    print(f"note: at alpha = 2*pi*(1 - 1e-15) the sweep check counts "
          f"{len(checks.failures)}/{checks.attempted} failed operations "
          f"(float clustering vs exact certificate)")

    spec = make_spec("verify", seed=0, tiny=True)
    out, codes = _run_cli(spec, os.path.join(base, "verify"))
    _expect(not run_checks(spec, out, codes).failures, "verify outputs check clean")
    _edit_json(os.path.join(out, "verify.json"),
               lambda d: d["rows"][0].update({"pass": False}))
    failures = run_checks(spec, out, codes).failures
    _expect(len(failures) == 1 and failures[0].startswith("verify"),
            "a failing verification row is one named failure")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    run._prepare()
    try:
        check_metrics(declared)
        check_tampering()
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
