"""One benchmark pass in a fresh interpreter.

    python3 bench/child.py SPEC RESULT SPAWN_T MODE K

MODE is ``pass``, ``trace`` or ``setup``; K numbers the run's passes.  SPAWN_T is the parent's
``time.perf_counter()`` taken just before it started this process; on
Linux that clock is system-wide, so ``setup_s`` counts interpreter start,
``import conemodes.cli`` and the workload's one-off build.  The pass runs
the CLI in-process through click's ``CliRunner``.  Peak RSS is sampled when
the pass ends, before the output checks import anything more (the sweep
check loads sympy).  The checks run untimed and count every command that
fails and every output that does not hold up as a failed operation.
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import sys
import time


def _bind(arg: str, pass_dir: str) -> str:
    return arg.replace("{dir}", pass_dir)


def _digits(residual: float, tol: float) -> float:
    return 16.0 if residual == 0 else math.log10(tol / residual)


class Checks:
    """Operations attempted and failed, with a name for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.residuals = []
        self.figures = {}  # accuracy figures the commands print

    def expect(self, ok: bool, name: str):
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def check_sweep(spec, out_dir, checks):
    """Re-derive one sampled swept angle with the exact certificate.

    Each mode system at that angle is one operation: its roots'
    multiplicities and log flags must equal ``exact_indicial_analysis`` at
    the exact binary value of t = p * gamma.  The relative gap between each
    printed root and the exact one feeds ``accuracy_digits``.
    """
    from fractions import Fraction

    import numpy as np

    from conemodes.geometry import ConeModel, CrossSection
    from conemodes.indicial import exact_indicial_analysis, system_for_mode
    from conemodes.modes import CoclosedMode, circle_spectrum

    c = spec["check"]
    rows = {}
    with open(os.path.join(out_dir, "angle_sweep.csv"), newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for angle, fam, kind, p, lam, kappa, mult, log in reader:
            rows.setdefault((angle, fam, kind, p, lam), []).append(
                (kappa, int(mult), log == "true"))
    angles = np.linspace(c["start"], c["stop"], int(c["count"]))
    # pass k of a run checks the k-th angle of the seeded sample
    idx = c["angles"][spec.get("pass", 0) % len(c["angles"])]
    alpha = float(angles[idx])
    model = ConeModel(3, alpha, 1.0, CrossSection("circle", 1.0))
    exact_cache = {}
    # modes m = +-1 share a table key, so rows are consumed in order
    cursor = {}
    for fam in ("oneform", "tensor"):
        for mode in circle_spectrum(model, m_max=1, p_max=2):
            system = system_for_mode(model, mode, fam)
            lam = mode.mu if isinstance(mode, CoclosedMode) else mode.lam
            key = (f"{alpha:.12g}", fam, system.kind, str(mode.p), f"{lam:.12g}")
            ekey = (fam, system.kind, system.names, Fraction(mode.p * system.gamma))
            if ekey not in exact_cache:
                exact_cache[ekey] = exact_indicial_analysis(*ekey)
            exact = exact_cache[ekey]
            at = cursor.get(key, 0)
            got = rows.get(key, [])[at:at + len(exact)]
            cursor[key] = at + len(exact)
            ok = len(got) == len(exact) and all(
                g[1] == e[1] and g[2] == e[3] for g, e in zip(got, exact))
            checks.expect(ok, f"sweep alpha={alpha!r} {fam} {system.kind} "
                              f"p={mode.p} lambda={lam:.6g}: (multiplicity, "
                              f"log) {[(g[1], g[2]) for g in got]} != exact "
                              f"{[(e[1], e[3]) for e in exact]}")
            for g, e in zip(got, exact):
                gap = abs(Fraction(float(g[0])) - e[0]) / max(1, abs(e[0]))
                checks.residuals.append(float(gap))
    extra = (sum(len(v) for k, v in rows.items() if k[0] == f"{alpha:.12g}")
             - sum(min(at, len(rows.get(k, []))) for k, at in cursor.items()))
    checks.expect(extra == 0, f"sweep alpha={alpha!r}: {extra} unexpected rows")




def check_deform(spec, out_dir, checks):
    """Normalization residual and boundary residuals within tolerance."""
    tol = spec["tol"]
    with open(os.path.join(out_dir, "angle_report.json")) as fh:
        report = json.load(fh)
    norm = report["normalization_max_residual"]
    checks.figures.update(normalization=norm,
                          leading_ratio=report["leading_ratio_bound"])
    checks.expect(norm <= tol, f"deform normalization residual {norm:.3e} > {tol:g}")
    checks.residuals.append(norm)
    with open(os.path.join(out_dir, "induced.json")) as fh:
        induced = json.load(fh)
    checks.expect(len(induced) == spec["check"]["modes"],
                  f"deform-angle solved {len(induced)} of "
                  f"{spec['check']['modes']} modes")
    with open(os.path.join(out_dir, "induced_metric.json")) as fh:
        solves = json.load(fh)
    checks.expect(len(solves) == spec["check"]["modes"],
                  f"induced-metric solved {len(solves)} of "
                  f"{spec['check']['modes']} modes")
    for entry in solves:
        if entry["status"] not in ("unique", "non_unique"):
            continue
        res = entry["boundary_residual"]
        checks.expect(res <= tol, f"induced-metric {entry['mode']} boundary "
                                  f"residual {res:.3e} > {tol:g}")
        checks.residuals.append(res)


def check_verify(spec, out_dir, checks):
    """Every verification row must pass."""
    with open(os.path.join(out_dir, "verify.json")) as fh:
        payload = json.load(fh)
    checks.figures["max_rel_residual"] = max(
        row["max_rel_residual"] for row in payload["rows"])
    for row in payload["rows"]:
        checks.expect(bool(row["pass"]), f"verify {row['identity']} residual "
                                         f"{row['max_rel_residual']:.3e} failed")
        checks.residuals.append(row["max_rel_residual"])


CHECKS = {"sweep": check_sweep, "deform": check_deform, "verify": check_verify}


def run_checks(spec, out_dir, exit_codes) -> Checks:
    checks = Checks()
    for k, code in enumerate(exit_codes):
        checks.expect(code == 0, f"{spec['workload']} command {k} exit code {code}")
    try:
        CHECKS[spec["workload"]](spec, out_dir, checks)
    except (OSError, KeyError, ValueError) as exc:
        checks.expect(False, f"{spec['workload']} outputs unreadable: {exc!r}")
    return checks


def _setup(spec) -> float:
    """Input-independent build every fresh process pays before its pass.

    For ``verify`` that is the symbolic chart tables, forced through the
    public chart API; the other workloads need nothing beyond the import.
    """
    if spec["workload"] != "verify":
        return 0.0
    from conemodes.geometry import ConeModel, CrossSection
    from conemodes.oracle import TubeChart

    t0 = time.perf_counter()
    TubeChart(ConeModel(3, 1.0, 1.0, CrossSection("circle", 1.0))).metric(0.5)
    return time.perf_counter() - t0


def _layer_metrics(spec, tracer, summary, run_s, figures) -> dict:
    def grp(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    obs = tracer.observed
    cmd = [summary[g] for g in summary if g.startswith("cli.cmd")]
    rhs, pot, integ = grp("reduction.rhs"), grp("reduction.potential_at"), \
        grp("frobenius.integrate")
    matched = [b for b in obs["bvp"] if b[0] in ("unique", "non_unique")]
    out = {
        "geometry.series_mul.calls": grp("geometry.series_mul")["calls"],
        "geometry.series_mul.s": grp("geometry.series_mul")["s"],
        "reduction.system_build.calls": grp("reduction.system_build")["calls"],
        "reduction.system_build.s": grp("reduction.system_build")["s"],
        "reduction.laurent_potential.calls": grp("reduction.laurent_potential")["calls"],
        "reduction.laurent_potential.s": grp("reduction.laurent_potential")["s"],
        "indicial.report.calls": grp("indicial.report")["calls"],
        "indicial.report.self_s": grp("indicial.report")["self_s"],
        "indicial.rows": obs["indicial.rows"],
        "reduction.potential_at.calls": pot["calls"],
        "reduction.potential_at.us_per_call":
            1e6 * pot["s"] / pot["calls"] if pot["calls"] else 0.0,
        "reduction.rhs.calls": rhs["calls"],
        "reduction.rhs.s": rhs["s"],
        "frobenius.series.calls": grp("frobenius.series")["calls"],
        "frobenius.series.self_s": grp("frobenius.series")["self_s"],
        "frobenius.integrate.calls": integ["calls"],
        "frobenius.integrate.self_s": integ["self_s"],
        "frobenius.nfev_per_integrate":
            rhs["calls"] / integ["calls"] if integ["calls"] else 0.0,
        "frobenius.bvp.calls": grp("frobenius.bvp")["calls"],
        "frobenius.bvp.self_s": grp("frobenius.bvp")["self_s"],
        "frobenius.angle_profile.s": grp("frobenius.angle_profile")["s"],
        "frobenius.normalization_residual": figures.get("normalization", 0.0),
        "frobenius.leading_ratio_bound": figures.get("leading_ratio", 0.0),
        "frobenius.max_boundary_residual": max((b[2] for b in matched), default=0.0),
        # a rank-deficient match has an infinite condition number; JSON has no inf
        "frobenius.max_condition_number": max(
            (b[1] for b in matched if math.isfinite(b[1])), default=0.0),
        "oracle.identity_suite.self_s": grp("oracle.identity_suite")["self_s"],
        "oracle.field_ops.calls": grp("oracle.field_ops")["calls"],
        "oracle.field_ops.s": grp("oracle.field_ops")["s"],
        "reduction.from_sympy.calls": grp("reduction.from_sympy")["calls"],
        "reduction.from_sympy.s": grp("reduction.from_sympy")["s"],
        "reduction.apply.calls": grp("reduction.apply")["calls"],
        "reduction.apply.s": grp("reduction.apply")["s"],
        "oracle.max_rel_residual": figures.get("max_rel_residual", 0.0),
        "cli.write.s": grp("cli.write")["s"],
        "cli.bytes_written": obs["cli.bytes_written"],
        "cli.other_self_s": sum(g["self_s"] for g in cmd),
        "modes.count": spec["modes"],
        "trace.run_s": run_s,
        "trace.layer_top_s": summary["_layer_top_s"],
    }
    return out


def main(argv):
    spec_path, result_path, spawn_t, mode, k = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    spec["pass"] = int(k)
    pass_dir = os.path.dirname(os.path.abspath(result_path))

    t0 = time.perf_counter()
    from click.testing import CliRunner

    import conemodes.cli as cli
    import_s = time.perf_counter() - t0

    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    chart_s = _setup(spec)
    setup_s = time.perf_counter() - float(spawn_t)
    result = {"setup_s": setup_s, "import_s": import_s, "chart_build_s": chart_s,
              "sympy_loaded": int("sympy" in sys.modules)}
    if mode == "setup":
        with open(result_path, "w") as fh:
            json.dump(result, fh)
        return

    for name, text in spec["files"].items():
        with open(os.path.join(pass_dir, name), "w") as fh:
            fh.write(text)
    runner = CliRunner()
    exit_codes = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for i, args in enumerate(spec["commands"]):
        args = [_bind(a, pass_dir) for a in args]
        if tracer is None:
            res = runner.invoke(cli.main, args)
        else:
            with tracer.span(f"cli.cmd{i}"):
                res = runner.invoke(cli.main, args)
        exit_codes.append(res.exit_code)
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            print(f"command {i} raised {res.exception!r}", file=sys.stderr)
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out_dir = os.path.join(pass_dir, "out")
    t0 = time.perf_counter()
    checks = run_checks(spec, out_dir, exit_codes)
    check_s = time.perf_counter() - t0
    tol = spec["tol"]
    digits = min((_digits(r, tol) for r in checks.residuals), default=0.0)
    result.update({"run_s": run_s, "cpu_s": cpu_s, "peak_rss_mb": rss_mb,
                   "accuracy_digits": digits, "check_s": check_s,
                   "attempted": checks.attempted, "failures": checks.failures})
    if tracer is not None:
        from spans import summarize

        layers = _layer_metrics(spec, tracer, summarize(tracer), run_s,
                                checks.figures)
        layers.update({"oracle.chart_build_s": chart_s,
                       "setup.import_s": import_s,
                       "setup.sympy_loaded": result["sympy_loaded"]})
        result["layers"] = layers
        tracer.dump(spec["spans_path"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
