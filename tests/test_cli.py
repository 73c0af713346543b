"""End-to-end command-line tests via the click test runner."""

import csv
import hashlib
import io
import json
import math
import os
import string
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conemodes import cli, oracle
from conemodes.cli import main
from conemodes.geometry import ConeModel, CrossSection
from conemodes.indicial import root_table_rows
from conemodes.modes import ModeList, ScalarMode, mode_from_dict, mode_to_dict
from conemodes.oracle import ChartGrid, TubeChart


runner = CliRunner()


def write_model(tmp_path, angle=math.pi / 2, n=3, tube_radius=1.0, length=2.0):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "n": n, "angle": angle, "tube_radius": tube_radius,
        "cross_section": {"kind": "circle", "length": length}}))
    return str(path)


def write_modes(tmp_path, scalar=(), coclosed=(), tt=()):
    path = tmp_path / "modes.json"
    path.write_text(json.dumps({
        "scalar": [{"lambda": lam, "p": p} for lam, p in scalar],
        "coclosed": [{"mu": mu, "p": p} for mu, p in coclosed],
        "tt": [{"nu": nu, "p": p} for nu, p in tt]}))
    return str(path)


def invoke(args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def run_python(script, timeout=120):
    """Run a script in a fresh interpreter that imports this source tree."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestIndicial:
    def test_matches_library_tables(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "indicial", "--family", "both"])
        assert result.exit_code == 0

        model = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0,
                          cross_section=CrossSection("circle", 2.0))
        from conemodes.modes import circle_spectrum
        modes = circle_spectrum(model, m_max=1, p_max=2)
        expected = []
        for family in ("oneform", "tensor"):
            header, rows = root_table_rows(model, modes, family)
            expected.extend(rows)
        got_header, got_rows = read_csv(out / "roots.csv")
        assert got_header == header
        assert got_rows == [[str(c) for c in row] for row in expected]

        payload = json.loads((out / "roots.json").read_text())
        assert len(payload) == len(expected)
        assert payload[0]["family"] == expected[0][0]

    def test_three_rows_per_root_for_oneform_A(self, tmp_path):
        model_path = write_model(tmp_path)
        modes = write_modes(tmp_path, scalar=[(math.pi ** 2, 0),
                                              (math.pi ** 2, 1),
                                              (math.pi ** 2, 2)])
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--modes", modes,
                         "--out", str(out), "indicial", "--family", "oneform"])
        assert result.exit_code == 0
        _, rows = read_csv(out / "roots.csv")
        for p in ("0", "1", "2"):
            sub = [r for r in rows if r[2] == p]
            # every root vector has one slot per system component
            assert all(len(vec.split("|")) == 3
                       for r in sub for vec in r[-1].split(";"))
            assert sum(int(r[5]) for r in sub) == 6

    def test_empty_mode_list_gives_empty_table(self, tmp_path):
        model_path = write_model(tmp_path)
        modes = write_modes(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--modes", modes,
                         "--out", str(out), "indicial"])
        assert result.exit_code == 0
        header, rows = read_csv(out / "roots.csv")
        assert rows == []
        assert header[0] == "family"
        assert json.loads((out / "roots.json").read_text()) == []

    def test_full_angle_sets_log_flag(self, tmp_path):
        model_path = write_model(tmp_path, angle=2 * math.pi)
        modes = write_modes(tmp_path, scalar=[(0.0, 1)])
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--modes", modes,
                         "--out", str(out), "indicial", "--family", "oneform"])
        assert result.exit_code == 0
        _, rows = read_csv(out / "roots.csv")
        flagged = [r for r in rows if r[6] == "true"]
        assert flagged
        assert all(float(r[4]) == 0.0 for r in flagged)

    def test_angle_sweep_and_gnuplot(self, tmp_path):
        model_path = write_model(tmp_path)
        modes = write_modes(tmp_path, scalar=[(0.0, 1)])
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--modes", modes,
                         "--out", str(out), "--gnuplot",
                         "indicial", "--family", "oneform",
                         "--angle-sweep", "1.0", "3.0", "4"])
        assert result.exit_code == 0
        header, rows = read_csv(out / "angle_sweep.csv")
        assert header[0] == "angle"
        angles = sorted({float(r[0]) for r in rows})
        assert angles == pytest.approx(list(np.linspace(1.0, 3.0, 4)))
        # exponents move with the angle through gamma = 2 pi / alpha
        kappa_at = {ang: max(float(r[5]) for r in rows if float(r[0]) == ang)
                    for ang in angles}
        assert kappa_at[1.0] > kappa_at[3.0]
        script = (out / "roots.gp").read_text()
        assert "plot" in script and "angle_sweep.csv" in script

    def test_angle_sweep_rows_match_per_angle_tables(self, tmp_path):
        # pi/2 .. 2 pi in steps of pi/2 hits the critical angles 2 pi q / m;
        # the TT mode has no one-form rows, and lambda = 4 pi^2 comes twice
        lam = 4 * math.pi ** 2
        model_path = write_model(tmp_path)
        modes = write_modes(tmp_path, scalar=[(lam, 1), (lam, 1), (0.0, 0), (0.0, 2)],
                            coclosed=[(0.0, -1), (1.0, 0)], tt=[(2.0, 1)])
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--modes", modes, "--out", str(out),
                         "indicial", "--angle-sweep", repr(math.pi / 2),
                         repr(2 * math.pi), "4"])
        assert result.exit_code == 0
        header, rows = read_csv(out / "angle_sweep.csv")
        model = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0,
                          cross_section=CrossSection("circle", 2.0))
        with open(modes) as fh:
            mode_list = ModeList.from_json(fh.read())
        table_header, want = None, []
        for alpha in np.linspace(math.pi / 2, 2 * math.pi, 4):
            for family in ("oneform", "tensor"):
                table_header, part = root_table_rows(
                    replace(model, alpha=float(alpha)), mode_list, family)
                want.extend([f"{alpha:.12g}"] + row[:7] for row in part)
        assert header == ["angle"] + table_header[:7]
        assert rows == want
        assert {r[3] for r in rows} == {"-1", "0", "1", "2"}
        assert any(r[7] == "true" for r in rows)
        assert {r[2] for r in rows if r[1] == "oneform"} == {"A", "B", "C"}
        assert "D" in {r[2] for r in rows if r[1] == "tensor"}

    # sha256 of a both-family sweep of 200 angles across 2 pi, at alpha = 2 pi / 3
    # on the circle of length 2; a change that means to move them updates
    # these and says why
    _SWEEP_SHA256 = {
        "angle_sweep.csv": "ee05ece47d71403769cab3a476b60d32b778009810789075ae8a2d23ee59bc61",
        "roots.csv": "c33343689fabce00049155057a9ef02436839185342c9c63596b4b0edb65b85c",
        "roots.json": "3860e0b0aede49743e065a469e5c37f286dc12af7f8ec264e20e4150ace6f358",
    }

    def test_angle_sweep_outputs_are_pinned(self, tmp_path):
        model_path = write_model(tmp_path, angle=2 * math.pi / 3)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out), "indicial",
                         "--family", "both", "--angle-sweep", "0.3", "12.6", "200"])
        assert result.exit_code == 0, result.output
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in self._SWEEP_SHA256}
        assert got == self._SWEEP_SHA256

    def test_jobs_accepts_only_one(self, tmp_path):
        model_path = write_model(tmp_path)
        modes = write_modes(tmp_path, scalar=[(0.0, 1)])
        out = tmp_path / "out"
        args = ["--model", model_path, "--modes", modes, "--out", str(out)]
        result = invoke(args + ["--jobs", "2", "indicial"])
        assert result.exit_code == 2
        assert not out.exists() or os.listdir(out) == []
        assert invoke(args + ["--jobs", "1", "indicial"]).exit_code == 0
        assert "--jobs" not in invoke(["--help"]).output

    def test_bad_sweep_rejected(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        for sweep in (("-1", "2", "3"), ("2", "1", "3"), ("1", "inf", "3"),
                      ("nan", "2", "3"), ("1", "2", "0"), ("1", "2", "2.5")):
            result = invoke(["--model", model_path, "--out", str(out),
                             "indicial", "--angle-sweep", *sweep])
            assert result.exit_code == 2, sweep
            assert os.listdir(out) == [], sweep


def run_config(out_dir):
    return cli.RunConfig(model_path=None, modes_path=None, out_dir=str(out_dir), seed=0,
                         series_order=14, rtol=1e-11, nodes=200, residual_tol=1e-8,
                         gnuplot=False)


# the characters the table formatters emit: numbers in %g and complex
# notation, booleans, names, and the vectors' "|" and ";" separators
_CELLS = st.text(alphabet=string.digits + string.ascii_letters + ".+-|;j", max_size=6)


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 5))
    row = st.lists(_CELLS, min_size=width, max_size=width)
    return draw(row), draw(st.lists(row, max_size=8))


class TestCsvWriter:
    @given(_tables())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_match_csv_writer(self, tmp_path, table):
        # the file is replaced by every example, so one directory serves them all
        header, rows = table
        cfg = run_config(tmp_path)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        if len(header) == 1 and [""] in [header] + rows:
            # csv quotes a row's empty sole cell as ""
            with pytest.raises(ValueError):
                cfg.write_csv("t.csv", header, rows)
            return
        want = buf.getvalue().encode("utf-8")
        assert open(cfg.write_csv("t.csv", header, rows), "rb").read() == want
        lines = [",".join(row) for row in rows]
        assert open(cfg.write_csv("t.csv", header, lines, joined=True), "rb").read() == want

    @pytest.mark.parametrize("rows", [
        [["1", "2,5"]], [["1", 'a"b']], [["1", "2\r"]], [["1\n", "2"]],
        [["1", "2"], ["3"]], [["1", "2"], ["3", "4", "5"]],
        [["", ""], [","]],  # one cell short, one comma too many
    ])
    def test_guard_names_the_file_and_writes_nothing(self, tmp_path, rows):
        cfg = run_config(tmp_path / "out")
        with pytest.raises(ValueError, match="t.csv"):
            cfg.write_csv("t.csv", ["a", "b"], rows)
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("lines", [
        ["1,2,5"], ['1,a"b'], ["1,2\r"], ["1\n,2"], ["1,2", "3"], ["1,2", "3,4,5"],
    ])
    def test_guard_checks_joined_lines(self, tmp_path, lines):
        cfg = run_config(tmp_path / "out")
        with pytest.raises(ValueError, match="t.csv"):
            cfg.write_csv("t.csv", ["a", "b"], lines, joined=True)
        assert os.listdir(tmp_path / "out") == []

    def test_guard_checks_the_header(self, tmp_path):
        cfg = run_config(tmp_path)
        for header in (["a,b", "c"], ['"a"', "b"], [""], []):
            with pytest.raises(ValueError, match="t.csv"):
                cfg.write_csv("t.csv", header, [])
        assert os.listdir(tmp_path) == []


class TestReduce:
    def test_standard_angle_block(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "--tol-nodes", "60", "reduce", "--standard", "angle"])
        assert result.exit_code == 0
        header, rows = read_csv(out / "block_image.csv")
        assert header[0] == "r"
        assert len(rows) == 60
        payload = json.loads((out / "block_image.json").read_text())
        assert payload["family"] == "tensor"
        assert set(payload["image"]) == set(
            nm for nm in ("f", "g", "h", "k1"))

    def test_block_file_round_trip(self, tmp_path):
        from conemodes.reduction import ModeBlock, RadialProfile, block_to_dict
        model = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0,
                          cross_section=CrossSection("circle", 2.0))
        block = ModeBlock("tensor", ScalarMode(math.pi ** 2, 1), {
            name: RadialProfile.from_sympy(expr)
            for name, expr in [("f", "r**2"), ("g", "r"), ("h", "0"),
                               ("sigma", "r**3"), ("eta", "0"), ("k1", "1")]})
        block_path = tmp_path / "block.json"
        block_path.write_text(json.dumps(block_to_dict(model, block)))
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "--tol-nodes", "40", "reduce",
                         "--block-file", str(block_path)])
        assert result.exit_code == 0
        payload = json.loads((out / "block_image.json").read_text())
        assert payload["kind"] == "A"
        assert payload["mode"]["p"] == 1

    def test_list_profiles_rejected_without_output(self, tmp_path):
        # a list of profiles, a family that is neither oneform nor tensor, a
        # kind the mode does not generate, a k2 profile, which no n = 3
        # system carries, and two bad grids
        from conemodes.reduction import ModeBlock, RadialProfile, block_to_dict
        model_path = write_model(tmp_path)
        block = {"family": "tensor", "kind": "B",
                 "mode": {"type": "scalar", "lambda": 0.0, "p": 0},
                 "grid": [0.5, 1.0], "profiles": [0.3, 0.5]}
        bogus = dict(block, family="bogus", profiles={})
        model = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0,
                          cross_section=CrossSection("circle", 2.0))
        k2 = block_to_dict(model, ModeBlock("tensor", ScalarMode(math.pi ** 2, 1),
                                            {"k2": RadialProfile.monomial(1)}))
        # samples at r = 0.5 and 1 only, which the 1e-6 end of the grid is far from
        short = dict(block, profiles={"f": {"value_re": [1.0, 2.0], "value_im": [0.0, 0.0],
                                            "d1_re": [1.0, 1.0], "d1_im": [0.0, 0.0]}})
        arrays = {"value_re": [1.0] * 4, "value_im": [0.0] * 4,
                  "d1_re": [0.0] * 4, "d1_im": [0.0] * 4}
        unsorted = dict(block, grid=[1e-6, 0.7, 0.5, 1.0], profiles={"f": arrays})
        # a lambda = 0 scalar mode generates kind B, not A
        mismatched = dict(block, kind="A", profiles={})
        for i, (data, message) in enumerate([
                (block, "profiles must be a JSON object"),
                (bogus, "unknown block family 'bogus'"),
                (mismatched, "block kind 'A' does not match its mode"),
                (k2, "components ['k2'] are not active"),
                (short, "does not cover the sample grid"),
                (unsorted, "strictly increasing")]):
            block_path = tmp_path / f"block{i}.json"
            block_path.write_text(json.dumps(data))
            out = tmp_path / f"out{i}"
            result = invoke(["--model", model_path, "--out", str(out),
                             "reduce", "--block-file", str(block_path)])
            assert result.exit_code == 2
            assert message in result.output
            assert not out.exists() or os.listdir(out) == []

    def test_angle_gluing_loads_no_sympy(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        script = (
            "import sys\n"
            "from click.testing import CliRunner\n"
            "from conemodes.cli import main\n"
            f"args = ['--model', {model_path!r}, '--out', {str(out)!r},\n"
            "        'reduce', '--standard', 'angle_gluing']\n"
            "result = CliRunner().invoke(main, args)\n"
            "assert result.exit_code == 0, result.output\n"
            "print('sympy' in sys.modules)\n")
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
        assert (out / "block_image.json").exists()

    # sha256 of block.csv, block_image.csv and block_image.json for a standard
    # block and for a sampled block file, at the default 200 radii; a change
    # that means to move them updates these and says why
    _REDUCE_SHA256 = {
        "standard": {
            "block.csv": "7e500ac983fa5cd8002c8f5234163f97697427739e59854b17b65d00337b35c2",
            "block_image.csv": "85ce42760497e453d83c50a57bd427a88b092482f018a3fb2da93f56f15b56d7",
            "block_image.json": "9d7121cbd0a5597920406b0eb682c5afa42002bc4339e2253310b17e5675827e",
        },
        "block_file": {
            "block.csv": "c95b6ebb1d233bbd2449d93f049a20b6c4c7511ba75d0e1095b070fe86ef9328",
            "block_image.csv": "f9b3b806273625bdcb0ef144558520c685c13ea5331760163e5760859513cb70",
            "block_image.json": "ef52b4ebeaf3e0d5719b80c91a8aa938ffdb899cb3246175226facecf9485230",
        },
    }

    @pytest.mark.parametrize("case", ["standard", "block_file"])
    def test_reduce_outputs_are_pinned(self, tmp_path, case):
        from conemodes.reduction import ModeBlock, RadialProfile, block_to_dict
        model_path = write_model(tmp_path)
        if case == "standard":
            args = ["--standard", "angle"]
        else:
            model = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0,
                              cross_section=CrossSection("circle", 2.0))
            block = ModeBlock("oneform", ScalarMode(math.pi ** 2, 1), {
                "f": RadialProfile.monomial(2, 0.5) + RadialProfile.constant(-1.0),
                "g": RadialProfile.monomial(1, 2.0 + 1.0j),
                "omega": RadialProfile.monomial(3, -0.25)})
            block_path = tmp_path / "block.json"
            block_path.write_text(json.dumps(block_to_dict(model, block)))
            args = ["--block-file", str(block_path)]
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out), "reduce", *args])
        assert result.exit_code == 0, result.output
        want = self._REDUCE_SHA256[case]
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in want}
        assert got == want

    def test_requires_exactly_one_input(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out), "reduce"])
        assert result.exit_code == 2
        result = invoke(["--model", model_path, "--out", str(out), "reduce",
                         "--standard", "angle", "--block-file", "x.json"])
        assert result.exit_code == 2


class TestFrobenius:
    def test_series_payload_round_trips(self, tmp_path):
        model_path = write_model(tmp_path)
        modes = write_modes(tmp_path, scalar=[(0.0, 1)])
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--modes", modes,
                         "--out", str(out), "--tol-series-order", "8",
                         "frobenius", "--family", "oneform"])
        assert result.exit_code == 0
        payload = json.loads((out / "frobenius.json").read_text())
        assert payload and payload[0]["family"] == "oneform"
        from conemodes.frobenius import FrobeniusSeries
        branch = payload[0]["branches"][0]
        series = FrobeniusSeries.from_dict(branch["series"])
        assert series.kappa == pytest.approx(branch["exponent"])
        vals = series.evaluate(np.array([0.3, 0.5]))
        assert np.all(np.isfinite(vals))

    def test_bad_order_rejected(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "--tol-series-order", "0", "frobenius"])
        assert result.exit_code == 2

    # sha256 of frobenius.json for each family at --tol-series-order 8, on the
    # default circle spectrum; a change that means to move them updates these
    # and says why
    _FROBENIUS_SHA256 = {
        "oneform": "7fcc93e56d36bd5edda82ba4d774220fcd89750fadd93e991fe822aacfb16d08",
        "tensor": "6f629f5c077b6ea75f993e88fe36ba28c6378e9ca48bfdf8ce39cf03f033ef14",
    }

    @pytest.mark.parametrize("family", ["oneform", "tensor"])
    def test_series_payload_is_pinned(self, tmp_path, family):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "--tol-series-order", "8", "frobenius", "--family", family])
        assert result.exit_code == 0, result.output
        got = hashlib.sha256((out / "frobenius.json").read_bytes()).hexdigest()
        assert got == self._FROBENIUS_SHA256[family]


class TestSolve:
    def test_manufactured_round_trip(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "solve", "--family", "tensor",
                         "--mode-type", "scalar", "--mode-eig", "4.0",
                         "--mode-p", "1", "--boundary",
                         '{"f": 1.0, "g": [0.0, 0.5]}'])
        assert result.exit_code == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "unique"
        assert report["boundary_residual"] < 1e-9
        assert report["condition_number"] > 0
        assert report["error_estimate"] <= 1e-11
        assert "warning" not in result.output
        header, rows = read_csv(out / "solve_profiles.csv")
        assert header[0] == "r"
        boundary = rows[-1]
        i = header.index("f_re")
        assert float(boundary[i]) == pytest.approx(1.0, abs=1e-8)

    def test_unmet_rtol_exits_one_without_output(self, tmp_path):
        # just above float64 resolution: the step-doubling check cannot pass
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "--tol-rtol", "2.2205e-16", "solve", "--family", "tensor",
                         "--mode-type", "scalar", "--mode-eig", "4.0",
                         "--mode-p", "1", "--boundary", '{"f": 1.0}'])
        assert result.exit_code == 1
        assert "exceeds rtol" in result.output
        assert "Traceback" not in result.output
        assert os.listdir(out) == []

    def test_zero_data_gives_zero_solution(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "solve", "--family", "oneform",
                         "--mode-p", "1", "--boundary",
                         '{"f": 0.0, "g": 0.0}'])
        assert result.exit_code == 0
        _, rows = read_csv(out / "solve_profiles.csv")
        values = np.array([[float(c) for c in row[1:]] for row in rows])
        assert np.max(np.abs(values)) < 1e-12

    def test_wide_angle_warns_on_singular_matching(self, tmp_path):
        # gamma = 4/3 puts the p = 1 one-form exponent gap inside (0, 1)
        model_path = write_model(tmp_path, angle=3 * math.pi / 2)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "solve", "--family", "oneform",
                         "--mode-p", "1", "--boundary",
                         '{"f": 1.0, "g": 0.5}'])
        assert result.exit_code == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] != "unique"
        assert "warning" in result.output
        assert report["status"] in result.output

    def test_coclosed_mode_just_off_critical_angle_is_unique(self, tmp_path):
        # t = 4 up to 4e-12: the roots +-4 snap to t = 4, and their null
        # vectors must survive the matrix being built at the unsnapped t
        model_path = write_model(tmp_path, angle=math.pi / 2 * (1 + 1e-12))
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "solve", "--family", "oneform", "--mode-type", "coclosed",
                         "--mode-p", "1", "--solution-class", "l2",
                         "--boundary", '{"varpi": 1.0}'])
        assert result.exit_code == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "unique"
        assert report["boundary_residual"] < 1e-12

    def test_unknown_boundary_name_rejected(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "solve", "--family", "tensor",
                         "--boundary", '{"nope": 1.0}'])
        assert result.exit_code == 2

    def test_source_term_accepted(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "--gnuplot", "solve", "--family", "oneform",
                         "--mode-p", "0", "--boundary", '{"f": 0.2}',
                         "--source", '{"f": [[1.0, ["sh"]]]}'])
        assert result.exit_code == 0
        assert (out / "solve.gp").exists()
        report = json.loads((out / "solve_report.json").read_text())
        assert report["boundary_residual"] < 1e-9

    # sha256 of a solve whose complex source has terms of negative real part
    # on two rows, one of them singular at the axis; a change that means to
    # move them updates these and says why
    _SOURCE_SHA256 = {
        "solve_profiles.csv": "78d334533e462672e0fd49a6473f67c21a8893461de30fb0772bdcd1e1a6e538",
        "solve_report.json": "abd8628a399432926a56344d95bf4a04a4ff07a81323a06d5dd886786777077b",
    }

    def test_complex_source_outputs_are_pinned(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        source = json.dumps({"f": [["-0.5+1j", ["inv_th"]], [2.0, ["sh"]]],
                             "g": [["-1-0.5j", ["th"]]]})
        result = invoke(["--model", model_path, "--out", str(out),
                         "solve", "--family", "oneform", "--mode-p", "0",
                         "--boundary", '{"f": 0.2, "g": [0.0, 0.3]}',
                         "--source", source])
        assert result.exit_code == 0, result.output
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in self._SOURCE_SHA256}
        assert got == self._SOURCE_SHA256

    @pytest.mark.parametrize("source", ['{"f": [[1.0, ["nope"]]]}',
                                        '{"f": [[1.0, "sh"]]}',
                                        '[[1.0, ["sh"]]]'])
    def test_bad_source_rejected_without_output(self, tmp_path, source):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "solve", "--family", "oneform", "--mode-p", "0",
                         "--boundary", '{"f": 0.2}', "--source", source])
        assert result.exit_code == 2
        assert os.listdir(out) == []

    def test_solve_inside_the_snap_window(self, tmp_path):
        # p * gamma = 3 (1 - 1e-9) lies inside the merge tolerance of 3: the
        # system is built at 3, where its indicial roots are clustered
        model_path = write_model(tmp_path, angle=(2 * math.pi / 3) * (1 + 1e-9),
                                 length=1.0)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out), "solve",
                         "--family", "tensor", "--mode-p", "1", "--mode-eig", "4",
                         "--boundary", '{"f": 1}'])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "solve_report.json").read_text())
        assert report["status"] == "unique"
        assert report["boundary_residual"] < 1e-12

    def test_solve_just_outside_the_snap_window(self, tmp_path):
        # p * gamma = 3 (1 - 3e-9) is not snapped: no order of the recursion
        # is resonant, and the near-resonance shows in the conditioning of
        # the match and in its error estimate, with a warning, not as an error
        model_path = write_model(tmp_path, angle=(2 * math.pi / 3) * (1 + 3e-9),
                                 length=1.0)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out), "solve",
                         "--family", "tensor", "--mode-p", "1", "--mode-eig", "4",
                         "--solution-class", "l2", "--boundary", '{"f": 1}'])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "solve_report.json").read_text())
        assert report["condition_number"] > 1e6
        assert report["error_estimate"] >= report["condition_number"] * 2.2e-16
        assert "warning: the match holds to about" in result.output


class TestDeformAngle:
    def test_profile_and_induced_outputs(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "--tol-nodes", "120", "deform-angle"])
        assert result.exit_code == 0

        header, rows = read_csv(out / "angle_profile.csv")
        assert header == ["r", "f", "g", "f_plus_r_log_r"]
        # leading behaviour: f approaches -r log r near the axis
        small = [(float(r[0]), float(r[1])) for r in rows
                 if float(r[0]) < 1e-4]
        for r, f in small:
            assert f == pytest.approx(-r * math.log(r), rel=1e-3)

        report = json.loads((out / "angle_report.json").read_text())
        assert report["normalization_max_residual"] <= 1e-8
        assert report["leading_ratio_bound"] < 10.0
        assert set(report["boundary_values"]) == {"f", "g", "h", "k1"}

        induced = json.loads((out / "induced.json").read_text())
        for entry in induced:
            if entry["mode"]["p"] != 0 or entry["mode"].get("lambda", 1.0):
                assert entry["induced"] == {}
        core = [e for e in induced
                if e["mode"]["p"] == 0 and e["mode"].get("lambda") == 0.0]
        assert core and core[0]["induced"]

    def test_log_log_slope_matches_minus_r_log_r(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "--tol-nodes", "200", "--gnuplot", "deform-angle"])
        assert result.exit_code == 0
        _, rows = read_csv(out / "angle_profile.csv")
        pts = [(float(r[0]), abs(float(r[1]))) for r in rows
               if 1e-6 <= float(r[0]) <= 1e-3]
        logr = np.log([p[0] for p in pts])
        logf = np.log([p[1] for p in pts])
        slope = np.polyfit(logr, logf, 1)[0]
        # r log r on a log-log plot: slope 1 up to the slowly varying factor
        assert abs(slope - 1.0) < 0.1
        assert (out / "angle_profile.gp").exists()

    def test_both_tables_sample_the_tol_nodes_grid(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "--tol-nodes", "60", "deform-angle"])
        assert result.exit_code == 0, result.output
        _, profile = read_csv(out / "angle_profile.csv")
        _, block = read_csv(out / "correction_block.csv")
        assert len(profile) == len(block) == 60
        assert [row[0] for row in profile] == [row[0] for row in block]

    def test_bad_cutoff_rejected(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "deform-angle", "--cutoff", "0.5", "0.2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("order", ["-3", "0"])
    def test_bad_order_rejected_without_output(self, tmp_path, order):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "deform-angle", "--order", order])
        assert result.exit_code == 2
        assert os.listdir(out) == []

    @pytest.mark.parametrize("first", ["deform-angle", "induced-metric"])
    def test_exact_tables_built_once_across_commands(self, tmp_path, monkeypatch,
                                                     first):
        # deform-angle asks for longer Laurent data than induced-metric; in
        # either order every exact coefficient is computed once: a shorter
        # request reads the table, and a longer one only extends it
        from collections import defaultdict

        from conemodes import frobenius, geometry, reduction

        computed = defaultdict(list)
        terms = geometry._series_terms

        def counted(a, b, start, stop):
            computed[(a, b)].append((start, stop))
            return terms(a, b, start, stop)

        monkeypatch.setattr(geometry, "_SERIES_TABLES", {})
        monkeypatch.setattr(geometry, "_series_terms", counted)
        frobenius._coefficient_data.cache_clear()
        frobenius._laurent_data.cache_clear()
        reduction._series_table.cache_clear()
        model_path = write_model(tmp_path, angle=1.0, length=1.0)
        modes_path = write_modes(tmp_path, scalar=[(0.0, 0)], coclosed=[(0.0, 2)])
        bpath = tmp_path / "bvals.json"
        bpath.write_text(json.dumps([
            {"mode": {"type": "scalar", "lambda": 0.0, "p": 0},
             "values": {"f": 0.3, "g": 0.5, "h": 0.0, "k1": 0.2}},
            {"mode": {"type": "coclosed", "mu": 0.0, "p": 2},
             "values": {"sigma_bar": 0.1, "eta_bar": 0.4}}]))
        out = str(tmp_path / "out")
        commands = {
            "deform-angle": ["--model", model_path, "--modes", modes_path,
                             "--out", out, "--tol-nodes", "60", "deform-angle"],
            "induced-metric": ["--model", model_path, "--out", out,
                               "induced-metric", "--boundary-file", str(bpath)]}
        for name in sorted(commands, key=lambda c: c != first):
            assert invoke(commands[name]).exit_code == 0
        assert set(reduction._BASIS) <= set(computed)
        for pair, spans in computed.items():
            stops = [0] + [stop for _, stop in spans]
            assert [start for start, _ in spans] == stops[:-1], (pair, spans)
            assert len(geometry._SERIES_TABLES[pair]) == stops[-1]
        if first == "induced-metric":  # the longer request extended the tables
            assert any(len(spans) == 2 for spans in computed.values()), computed

    def test_only_the_potential_is_read_between_nodes(self, tmp_path, monkeypatch):
        # the per-mode solves read only endpoints and axis values, so of the
        # continuations a deform-angle run makes, only the potential's is
        # evaluated between its nodes, and only where its profiles are read:
        # once each for f and g on the output grid, the residual, the
        # correction block's rows and its boundary values (the leading-ratio
        # radii lie below the handoff, where the series is read)
        from conemodes import frobenius

        evaluated = []
        derive = frobenius._ode_derivatives

        def counted_derive(system, *args):
            evaluated.append(system)
            return derive(system, *args)

        monkeypatch.setattr(frobenius, "_ode_derivatives", counted_derive)
        model = ConeModel(3, 1.0, 1.0)
        deform = frobenius.angle_deformation_profile(model)
        deform.correction_block(cutoff=(0.25, 0.5))
        assert evaluated == []
        model_path = write_model(tmp_path, angle=1.0, length=1.0)
        modes_path = write_modes(tmp_path, scalar=[(0.0, 0), (0.0, -1)],
                                 coclosed=[(0.0, 2)])
        result = invoke(["--model", model_path, "--modes", modes_path,
                         "--out", str(tmp_path / "out"), "--tol-nodes", "60",
                         "deform-angle"])
        assert result.exit_code == 0
        assert [(s.family, s.kind, s.mode) for s in evaluated] == [
            ("oneform", "B", ScalarMode(0.0, 0))] * 4

    def test_tol_rtol_reaches_every_continuation(self, tmp_path, monkeypatch):
        # deform-angle and induced-metric hand --tol-rtol to the potential's
        # continuation and to every per-mode solve's
        from conemodes import frobenius

        seen = []
        integrate = frobenius.integrate_mode_ode

        def recorded(*args, **kwargs):
            seen.append((command, kwargs.get("rtol")))
            return integrate(*args, **kwargs)

        monkeypatch.setattr(frobenius, "integrate_mode_ode", recorded)
        model_path = write_model(tmp_path, angle=1.0, length=1.0)
        modes_path = write_modes(tmp_path, scalar=[(0.0, 0)], coclosed=[(0.0, 2)])
        bpath = tmp_path / "bvals.json"
        bpath.write_text(json.dumps([
            {"mode": {"type": "scalar", "lambda": 0.0, "p": 0},
             "values": {"f": 0.3, "g": 0.5, "h": 0.0, "k1": 0.2}},
            {"mode": {"type": "coclosed", "mu": 0.0, "p": 2},
             "values": {"sigma_bar": 0.1, "eta_bar": 0.4}}]))
        out = str(tmp_path / "out")
        for command, args in (
                ("deform-angle", ["--modes", modes_path, "--tol-nodes", "60",
                                  "deform-angle"]),
                ("induced-metric", ["induced-metric", "--boundary-file", str(bpath)])):
            result = invoke(["--model", model_path, "--out", out,
                             "--tol-rtol", "1e-9"] + args)
            assert result.exit_code == 0, result.output
        # the potential and two solves, then two solves
        assert [c for c, _ in seen] == ["deform-angle"] * 3 + ["induced-metric"] * 2
        assert all(rtol == 1e-9 for _, rtol in seen), seen


class TestInducedMetric:
    def test_reports_axis_values(self, tmp_path):
        model_path = write_model(tmp_path)
        bpath = tmp_path / "bvals.json"
        bpath.write_text(json.dumps([
            {"mode": {"type": "scalar", "lambda": 0.0, "p": 0},
             "values": {"f": 0.3, "g": 0.5, "h": 0.0, "k1": [0.2, 0.0]}},
            {"mode": {"type": "scalar", "lambda": 0.0, "p": 2},
             "values": {"f": 0.0, "g": 0.0, "h": 0.0, "k1": 0.0}}]))
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "induced-metric", "--boundary-file", str(bpath)])
        assert result.exit_code == 0
        payload = json.loads((out / "induced_metric.json").read_text())
        assert len(payload) == 2
        by_p = {e["mode"]["p"]: e for e in payload}
        assert by_p[0]["axis_regular"] is True
        assert by_p[0]["induced"]
        assert by_p[2]["induced"] == {}

    def test_library_model_and_modes_load_in_cli(self, tmp_path):
        model = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0,
                          cross_section=CrossSection("circle", 2.0))
        model_path = tmp_path / "model.json"
        model_path.write_text(model.to_json())
        out = tmp_path / "out"
        result = invoke(["--model", str(model_path), "--out", str(out),
                         "indicial", "--family", "oneform"])
        assert result.exit_code == 0
        from conemodes.modes import circle_spectrum
        _, expected = root_table_rows(
            model, circle_spectrum(model, m_max=1, p_max=2), "oneform")
        _, got = read_csv(out / "roots.csv")
        assert got == [[str(c) for c in row] for row in expected]

        mode = ScalarMode(0.0, 1)
        bpath = tmp_path / "bvals.json"
        bpath.write_text(json.dumps([{"mode": mode_to_dict(mode),
                                      "values": {"f": 0.5}}]))
        result = invoke(["--model", str(model_path), "--out", str(out),
                         "induced-metric", "--boundary-file", str(bpath)])
        assert result.exit_code == 0
        payload = json.loads((out / "induced_metric.json").read_text())
        assert [mode_from_dict(e["mode"]) for e in payload] == [mode]

    def test_bad_entry_rejected(self, tmp_path):
        model_path = write_model(tmp_path)
        bpath = tmp_path / "bvals.json"
        bpath.write_text(json.dumps([{"mode": {"type": "scalar"}}]))
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "induced-metric", "--boundary-file", str(bpath)])
        assert result.exit_code == 2

    def test_list_values_rejected_without_output(self, tmp_path):
        model_path = write_model(tmp_path)
        bpath = tmp_path / "bvals.json"
        bpath.write_text(json.dumps([
            {"mode": {"type": "scalar", "lambda": 0.0, "p": 0},
             "values": [0.3, 0.5]}]))
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "induced-metric", "--boundary-file", str(bpath)])
        assert result.exit_code == 2
        assert "values must be a JSON object" in result.output
        assert os.listdir(out) == []


class TestVerify:
    def test_verify_loads_no_sympy(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        script = (
            "import sys\n"
            "import conemodes.oracle\n"
            "after_import = 'sympy' in sys.modules\n"
            "from click.testing import CliRunner\n"
            "from conemodes.cli import main\n"
            f"args = ['--model', {model_path!r}, '--out', {str(out)!r},\n"
            "        'verify', '--cases', '1']\n"
            "result = CliRunner().invoke(main, args)\n"
            "assert result.exit_code == 0, result.output\n"
            "print(after_import, 'sympy' in sys.modules)\n")
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False"
        assert json.loads((out / "verify.json").read_text())["pass"] is True

    def test_identities_suite_passes(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "verify", "--suite", "identities", "--cases", "4"])
        assert result.exit_code == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["pass"] is True
        assert all(row["pass"] for row in payload["rows"])
        assert "pass" in result.output

    def test_oracle_suite_passes(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "verify", "--suite", "oracle", "--cases", "3"])
        assert result.exit_code == 0
        payload = json.loads((out / "verify.json").read_text())
        names = {row["identity"] for row in payload["rows"]}
        assert names == {f"{fam}_{kind}_operator_equivalence"
                         for fam in ("oneform", "tensor")
                         for kind in "ABC"}

    def test_energy_suite_writes_histogram_data(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "verify", "--suite", "energy", "--cases", "6"])
        assert result.exit_code == 0
        header, rows = read_csv(out / "energy_ratios.csv")
        assert header == ["case", "ratio"]
        assert len(rows) == 6
        assert all(float(r[1]) >= 1.0 for r in rows)

    def test_energy_ratios_are_pinned(self, tmp_path):
        # the seed fixes the draw order of supports, chains and phases
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out), "--seed", "5",
                         "verify", "--suite", "energy", "--cases", "3"])
        assert result.exit_code == 0
        _, rows = read_csv(out / "energy_ratios.csv")
        assert [float(r[1]) for r in rows] == pytest.approx(
            [556.913109018, 300.711978301, 623.342985523], rel=1e-9)

    def test_verify_pass_builds_one_chart_chain_per_grid(self, tmp_path, monkeypatch):
        # the benchmark's verify pass: 7 radius grids and 11 calls, each grid
        # with one long-double chain that later tables continue and none
        # starts over (the pointwise grid reserves its deepest level)
        calls = []
        levi_civita = oracle._levi_civita

        def counting(r, levels, name, chain=None):
            # r is kept, so the ids of the grids' radii stay distinct
            calls.append((r, levels, None if chain is None else len(chain["g"])))
            return levi_civita(r, levels, name, chain)

        monkeypatch.setattr(oracle, "_levi_civita", counting)
        model_path = write_model(tmp_path, angle=1.0, length=1.0)
        result = invoke(["--model", model_path, "--out", str(tmp_path / "out"),
                         "--seed", "1", "verify", "--cases", "3"])
        assert result.exit_code == 0
        assert len(calls) == 11
        grids = {id(r) for r, _, _ in calls}
        assert len(grids) == 7
        # one start per grid, and every later call continues its chain
        assert sum(have is None for _, _, have in calls) == len(grids)
        assert all(have is None or have >= levels for _, levels, have in calls)

    def test_oracle_suite_builds_each_mode_system_once(self, tmp_path, monkeypatch):
        # seed 1 draws 18 cases over 15 distinct (family, mode) pairs
        from conemodes import indicial, reduction

        builds = []
        for module in (cli, indicial, reduction):
            for name in ("oneform_system", "tensor_system"):
                if hasattr(module, name):
                    def counting(model, mode, _build=getattr(module, name), _name=name):
                        builds.append((_name, mode))
                        return _build(model, mode)

                    monkeypatch.setattr(module, name, counting)
        model_path = write_model(tmp_path, angle=1.0, length=1.0)
        result = invoke(["--model", model_path, "--out", str(tmp_path / "out"),
                         "--seed", "1", "verify", "--suite", "oracle", "--cases", "3"])
        assert result.exit_code == 0
        assert len(builds) == len(set(builds)) == 15

    def test_suite_named_twice_runs_once(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out), "verify",
                         "--suite", "energy", "--suite", "oracle", "--suite", "energy",
                         "--cases", "2"])
        assert result.exit_code == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["suites"] == ["energy", "oracle"]
        assert [row["identity"] for row in payload["rows"]].count(
            "einstein_operator_energy_bound") == 1
        assert len(read_csv(out / "energy_ratios.csv")[1]) == 2

    # sha256 of seed-1 outputs at the default case count, on the benchmark's
    # model; a change that means to move them updates these and says why
    _DEFAULT_CASES_SHA256 = {
        "verify.json": "0d4f4929c52271389d68e9b06e6d8e663b9fd053f9ef37ed2a657c71e9db347a",
        "energy_ratios.csv": "7b3f99e0df161803fb89cd0fb443b388dae9c6c966a537d809d2385117dd611f",
    }

    def test_default_case_count_outputs_are_pinned(self, tmp_path):
        model_path = write_model(tmp_path, angle=1.0, length=1.0)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out), "--seed", "1", "verify"])
        assert result.exit_code == 0, result.output
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in self._DEFAULT_CASES_SHA256}
        assert got == self._DEFAULT_CASES_SHA256

    def test_fault_injection_fails_with_exit_one(self, tmp_path, monkeypatch):
        class FaultGrid(ChartGrid):
            """Chart grid with the connection entry Gamma^1_01 scaled by 1 + 1e-4."""

            def _build(self, name, m):
                table = super()._build(name, m)
                if name == "gam":
                    table[:, list(zip(*self.support("gam"))).index((1, 0, 1))] *= 1.0 + 1e-4
                return table

        class FaultChart(TubeChart):
            def at(self, r):
                return FaultGrid(self, super().at(r).r)

        monkeypatch.setattr(cli, "TubeChart", FaultChart)
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "verify", "--suite", "oracle", "--cases", "2"])
        assert result.exit_code == 1
        payload = json.loads((out / "verify.json").read_text())
        assert payload["pass"] is False
        assert "FAIL" in result.output

    @pytest.mark.parametrize("n", [3, 4])
    def test_explicit_cross_section_rejected_without_output(self, tmp_path, n):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": n, "angle": 1.0, "tube_radius": 1.0,
                                    "cross_section": {"kind": "explicit"}}))
        out = tmp_path / "out"
        result = invoke(["--model", str(path), "--out", str(out), "verify"])
        assert result.exit_code == 2
        assert "coordinate chart" in result.output
        assert os.listdir(out) == []

    def test_seeded_runs_are_deterministic(self, tmp_path):
        # every suite reads its own stream off the seed: a repeat matches byte
        # for byte, and the next seed moves both files
        model_path = write_model(tmp_path)
        outs = []
        for name, seed in (("a", 11), ("b", 11), ("c", 12)):
            out = tmp_path / name
            result = invoke(["--model", model_path, "--out", str(out),
                             "--seed", str(seed), "verify", "--cases", "2"])
            assert result.exit_code == 0
            outs.append([(out / f).read_bytes()
                         for f in ("verify.json", "energy_ratios.csv")])
        assert outs[0] == outs[1]
        assert all(x != y for x, y in zip(outs[0], outs[2]))


class TestInputValidation:
    def test_missing_model(self, tmp_path):
        result = invoke(["--out", str(tmp_path / "o"), "indicial"])
        assert result.exit_code == 2

    def test_invalid_model_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        result = invoke(["--model", str(bad), "--out", str(tmp_path / "o"),
                         "indicial"])
        assert result.exit_code == 2

    def test_invalid_model_values(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 3, "angle": -1.0, "tube_radius": 1.0}))
        result = invoke(["--model", str(bad), "--out", str(tmp_path / "o"),
                         "indicial"])
        assert result.exit_code == 2

    def test_invalid_modes_file(self, tmp_path):
        model_path = write_model(tmp_path)
        bad = tmp_path / "modes.json"
        for entry in ({"p": 1}, {"lambda": 1.0, "p": True}, {"lambda": "1.0", "p": 1},
                      {"lambda": math.nan, "p": 1}):
            bad.write_text(json.dumps({"scalar": [entry]}))
            result = invoke(["--model", model_path, "--modes", str(bad),
                             "--out", str(tmp_path / "o"), "indicial"])
            assert result.exit_code == 2, entry

    def test_list_modes_file_rejected_without_output(self, tmp_path):
        model_path = write_model(tmp_path)
        bad = tmp_path / "modes.json"
        bad.write_text(json.dumps([{"lambda": 0.0, "p": 1}]))
        out = tmp_path / "o"
        result = invoke(["--model", model_path, "--modes", str(bad),
                         "--out", str(out), "indicial"])
        assert result.exit_code == 2
        assert "mode JSON must be an object" in result.output
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["angle", "tube_radius", "length"])
    def test_nonfinite_model_values_rejected_without_output(self, tmp_path, name,
                                                            value):
        model_path = write_model(tmp_path, **{name: value})
        out = tmp_path / "o"
        result = invoke(["--model", model_path, "--out", str(out), "indicial"])
        assert result.exit_code == 2
        assert "finite" in result.output
        assert not out.exists() or os.listdir(out) == []

    def test_nonfinite_numbers_rejected_without_output(self, tmp_path):
        model_path = write_model(tmp_path)
        bpath = tmp_path / "bvals.json"
        bpath.write_text('[{"mode": {"type": "scalar", "lambda": 0.0, "p": 0}, '
                         '"values": {"f": [0.5, Infinity]}}]')
        huge = "1" + "0" * 400  # a JSON integer beyond float range
        runs = [["solve", "--family", "oneform", "--boundary", '{"f": NaN}'],
                ["solve", "--family", "oneform", "--boundary",
                 '{"f": [0.5, %s]}' % huge],
                ["solve", "--family", "oneform", "--boundary", '{"f": 0.5}',
                 "--source", '{"f": [[-Infinity, ["inv_th"]]]}'],
                ["solve", "--family", "oneform", "--boundary", '{"f": 0.5}',
                 "--source", '{"f": [[%s, ["inv_th"]]]}' % huge],
                ["induced-metric", "--boundary-file", str(bpath)]]
        for k, args in enumerate(runs):
            out = tmp_path / f"out{k}"
            result = invoke(["--model", model_path, "--out", str(out)] + args)
            assert result.exit_code == 2, args
            assert os.listdir(out) == [], args

    def test_nonpositive_tolerances(self, tmp_path):
        model_path = write_model(tmp_path)
        result = invoke(["--model", model_path, "--out", str(tmp_path / "o"),
                         "--tol-rtol", "-1e-9", "indicial"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("rtol", ["inf", "nan"])
    def test_nonfinite_rtol_rejected_without_output(self, tmp_path, rtol):
        model_path = write_model(tmp_path)
        out = tmp_path / "o"
        result = invoke(["--model", model_path, "--out", str(out),
                         "--tol-rtol", rtol, "deform-angle"])
        assert result.exit_code == 2
        assert "--tol-rtol" in result.output
        assert not out.exists() or os.listdir(out) == []

    def test_rtol_below_float_resolution_rejected(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "o"
        result = invoke(["--model", model_path, "--out", str(out),
                         "--tol-rtol", "1e-18", "solve", "--family", "tensor",
                         "--boundary", '{"f": 1.0}'])
        assert result.exit_code == 2
        assert "--tol-rtol" in result.output
        assert not out.exists() or os.listdir(out) == []

    def test_negative_seed_rejected_without_output(self, tmp_path):
        # random.Random(-1) would silently draw the stream of seed 1
        model_path = write_model(tmp_path)
        out = tmp_path / "o"
        result = invoke(["--model", model_path, "--out", str(out),
                         "--seed", "-1", "verify", "--cases", "1"])
        assert result.exit_code == 2
        assert "--seed" in result.output
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("args,option", [
        (["--tol-series-order", "0", "indicial"], "--tol-series-order"),
        (["--tol-nodes", "3", "reduce", "--standard", "angle"], "--tol-nodes"),
        (["deform-angle", "--order", "0"], "--order"),
        (["deform-angle", "--order", "-3"], "--order"),
        (["verify", "--cases", "0"], "--cases"),
    ])
    def test_integer_ranges_rejected_without_output(self, tmp_path, args, option):
        model_path = write_model(tmp_path)
        out = tmp_path / "o"
        result = invoke(["--model", model_path, "--out", str(out)] + args)
        assert result.exit_code == 2
        assert option in result.output
        assert not out.exists() or os.listdir(out) == []

    def test_no_partial_files_on_error(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        result = invoke(["--model", model_path, "--out", str(out),
                         "solve", "--family", "tensor",
                         "--boundary", '{"nope": 1.0}'])
        assert result.exit_code == 2
        assert not os.path.exists(out / "solve_profiles.csv")
        assert not os.path.exists(out / "solve_report.json")
        leftovers = [p for p in os.listdir(out)] if out.exists() else []
        assert all(not p.endswith(".tmp") for p in leftovers)


class TestRuntimeImports:
    def test_cli_paths_load_no_scipy(self, tmp_path):
        model_path = write_model(tmp_path)
        modes = write_modes(tmp_path, scalar=[(0.0, 0)])
        bpath = tmp_path / "bvals.json"
        bpath.write_text(json.dumps([
            {"mode": {"type": "scalar", "lambda": 0.0, "p": 0},
             "values": {"f": 0.3, "g": 0.5, "h": 0.0, "k1": [0.2, 0.0]}}]))
        common = ["--model", model_path, "--out", str(tmp_path / "out")]
        commands = [
            ["indicial", "--family", "both", "--angle-sweep", "1.0", "3.0", "3"],
            ["--modes", modes, "--tol-nodes", "120", "deform-angle"],
            ["induced-metric", "--boundary-file", str(bpath)],
            ["solve", "--family", "tensor", "--mode-type", "scalar",
             "--mode-eig", "4.0", "--mode-p", "1", "--boundary", '{"f": 1.0}'],
            ["verify", "--cases", "1"],
        ]
        script = (
            "import sys\n"
            "from click.testing import CliRunner\n"
            "from conemodes.cli import main\n"
            "loaded = ['import'] if 'scipy' in sys.modules else []\n"
            f"for args in {commands!r}:\n"
            f"    result = CliRunner().invoke(main, {common!r} + args)\n"
            "    assert result.exit_code == 0, (args, result.output)\n"
            "    if 'scipy' in sys.modules and not loaded:\n"
            "        loaded.append(args[-1])\n"
            "print(loaded)\n")
        proc = run_python(script, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_exact_certificate_and_sweep_run_without_sympy(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "out"
        script = (
            "import sys\n"
            "sys.modules['sympy'] = None  # any sympy import now fails\n"
            "from fractions import Fraction\n"
            "from click.testing import CliRunner\n"
            "from conemodes.cli import main\n"
            "from conemodes.indicial import exact_indicial_analysis\n"
            "rows = exact_indicial_analysis('tensor', 'C', ('sigma_bar', 'eta_bar'), Fraction(1))\n"
            "assert [log for *_, log in rows] == [False, True, False], rows\n"
            f"args = ['--model', {model_path!r}, '--out', {str(out)!r},\n"
            "        'indicial', '--angle-sweep', '0.5', '6', '2']\n"
            "result = CliRunner().invoke(main, args)\n"
            "assert result.exit_code == 0, (result.output, result.exception)\n")
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert (out / "angle_sweep.csv").exists()
