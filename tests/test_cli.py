"""End-to-end command-line tests via the click test runner."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from conemodes import cli
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
        block = ModeBlock("tensor", "A", ScalarMode(math.pi ** 2, 1), {
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
        # k2 profile, which no n = 3 system carries, and two bad grids
        from conemodes.reduction import ModeBlock, RadialProfile, block_to_dict
        model_path = write_model(tmp_path)
        block = {"family": "tensor", "kind": "B",
                 "mode": {"type": "scalar", "lambda": 0.0, "p": 0},
                 "grid": [0.5, 1.0], "profiles": [0.3, 0.5]}
        bogus = dict(block, family="bogus", profiles={})
        model = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0,
                          cross_section=CrossSection("circle", 2.0))
        k2 = block_to_dict(model, ModeBlock("tensor", "A", ScalarMode(math.pi ** 2, 1),
                                            {"k2": RadialProfile.monomial(1)}))
        # samples at r = 0.5 and 1 only, which the 1e-6 end of the grid is far from
        short = dict(block, profiles={"f": {"value_re": [1.0, 2.0], "value_im": [0.0, 0.0],
                                            "d1_re": [1.0, 1.0], "d1_im": [0.0, 0.0]}})
        arrays = {"value_re": [1.0] * 4, "value_im": [0.0] * 4,
                  "d1_re": [0.0] * 4, "d1_im": [0.0] * 4}
        unsorted = dict(block, grid=[1e-6, 0.7, 0.5, 1.0], profiles={"f": arrays})
        for i, (data, message) in enumerate([
                (block, "profiles must be a JSON object"),
                (bogus, "unknown block family 'bogus'"),
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
                         "--out", str(out), "frobenius",
                         "--family", "oneform", "--order", "8"])
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
                         "frobenius", "--order", "0"])
        assert result.exit_code == 2


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
        reduction._basis_series.cache_clear()
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

    def test_interpolants_set_up_only_when_read(self, tmp_path, monkeypatch):
        # the per-mode solves read only endpoints and axis values, so of the
        # continuation interpolants a deform-angle run builds, only the
        # levels 0..2 of the potential's f and g, which its residual reads,
        # are ever set up; the potential's profiles are built once
        from conemodes import frobenius, geometry

        built, set_up = [], []
        build, setup = geometry.cubic_hermite, geometry._hermite_coefficients

        def counted_build(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        def counted_setup(*args):
            set_up.append(args)
            return setup(*args)

        monkeypatch.setattr(frobenius, "cubic_hermite", counted_build)
        monkeypatch.setattr(geometry, "_hermite_coefficients", counted_setup)
        model_path = write_model(tmp_path, angle=1.0, length=1.0)
        modes_path = write_modes(tmp_path, scalar=[(0.0, 0), (0.0, -1)],
                                 coclosed=[(0.0, 2)])
        result = invoke(["--model", model_path, "--modes", modes_path,
                         "--out", str(tmp_path / "out"), "--tol-nodes", "60",
                         "deform-angle"])
        assert result.exit_code == 0
        assert len(set_up) == 6, len(set_up)
        # four levels per component: the potential's two, once each, and
        # every solve column's
        assert len(built) > 8 and len(built) % 4 == 0


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
            [305.499843787, 643.218595068, 548.503000872], rel=1e-9)

    def test_fault_injection_fails_with_exit_one(self, tmp_path, monkeypatch):
        class FaultGrid(ChartGrid):
            """Chart grid with the connection entry Gamma^1_01 scaled by 1 + 1e-4."""

            def _build(self, name, m):
                table = super()._build(name, m)
                if name == "gam":
                    table[:, 1, 0, 1] *= 1.0 + 1e-4
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

    def test_seeded_runs_are_deterministic(self, tmp_path):
        model_path = write_model(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = invoke(["--model", model_path, "--out", str(out),
                             "--seed", "11", "verify", "--suite", "oracle",
                             "--cases", "2"])
            assert result.exit_code == 0
            outs.append((out / "verify.json").read_text())
        assert outs[0] == outs[1]


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

    def test_rtol_below_float_resolution_rejected(self, tmp_path):
        model_path = write_model(tmp_path)
        out = tmp_path / "o"
        result = invoke(["--model", model_path, "--out", str(out),
                         "--tol-rtol", "1e-18", "solve", "--family", "tensor",
                         "--boundary", '{"f": 1.0}'])
        assert result.exit_code == 2
        assert "--tol-rtol" in result.output
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
