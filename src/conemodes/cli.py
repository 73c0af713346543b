"""Command-line front end: model ingestion, analysis runs, report emission.

Commands read a model (and optionally a mode list) from JSON files, run one
analysis, and write plot-ready CSV plus machine-readable JSON into the
output directory. Outputs are deterministic for a fixed seed, and every
file is written atomically after the computation finishes, so no partial
artifacts survive an error.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import tempfile
from dataclasses import dataclass

import click
import numpy as np

from conemodes import oracle
from conemodes.frobenius import (
    FrobeniusError,
    admissible_branches,
    angle_deformation_profile,
    branch_series,
    induced_singular_deformation,
    solve_mode_bvp,
)
from conemodes.geometry import ConeModel, DomainError, RadialProfile
from conemodes.indicial import angle_sweep_rows, root_table_rows, system_for_mode
from conemodes.modes import (
    CoclosedMode,
    ModeList,
    ScalarMode,
    TTMode,
    circle_spectrum,
    mode_from_dict,
    mode_to_dict,
)
from conemodes.oracle import (
    TubeChart,
    apply_L_coords,
    apply_P_coords,
    block_components,
    block_field,
)
from conemodes.reduction import (
    ModeBlock,
    RadialExpr,
    apply_L_oneform,
    apply_P_tensor,
    block_csv_rows,
    block_from_dict,
    log_grid,
    standard_deformation_block,
    system_names,
    _exponents,
)


class InputError(click.ClickException):
    exit_code = 2


class _Main(click.Group):
    """The command group; a failed series or continuation exits 1 with its
    message, not a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except FrobeniusError as exc:
            raise click.ClickException(str(exc)) from exc


@dataclass
class RunConfig:
    """Paths, tolerances and reproducibility knobs shared by all commands."""

    model_path: str | None
    modes_path: str | None
    out_dir: str
    seed: int
    series_order: int
    rtol: float
    nodes: int
    residual_tol: float
    gnuplot: bool

    def __post_init__(self):
        if not (0 < self.rtol < np.inf and self.residual_tol > 0):
            raise InputError("tolerances must be positive, and --tol-rtol finite")
        if self.rtol < np.finfo(float).eps:
            raise InputError("--tol-rtol below float64 resolution (2.2e-16) "
                             "cannot be met")
        try:
            os.makedirs(self.out_dir, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create output dir: {exc}") from exc
        if not os.access(self.out_dir, os.W_OK):
            raise InputError(f"output dir not writable: {self.out_dir}")

    def load_model(self) -> ConeModel:
        if self.model_path is None:
            raise InputError("this command needs --model")
        try:
            return ConeModel.from_dict(_read_json(self.model_path))
        except ValueError as exc:
            raise InputError(f"bad model file: {exc}") from exc

    def load_modes(self, model: ConeModel) -> ModeList:
        if self.modes_path is None:
            if model.cross_section.kind == "circle":
                return circle_spectrum(model, m_max=1, p_max=2)
            raise InputError("this command needs --modes for an explicit "
                             "cross-section")
        try:
            with open(self.modes_path, encoding="utf-8") as fh:
                return ModeList.from_json(fh.read())
        except OSError as exc:
            raise InputError(f"cannot read modes file: {exc}") from exc
        except ValueError as exc:
            raise InputError(f"bad modes file: {exc}") from exc

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def write_text(self, name: str, text: str) -> str:
        out = self.path(name)
        fd, tmp = tempfile.mkstemp(dir=self.out_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return out

    def write_json(self, name: str, payload) -> str:
        return self.write_text(name, json.dumps(payload, indent=2) + "\n")

    def write_csv(self, name: str, header, rows) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return self.write_text(name, buf.getvalue())


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def _parse_complex(value, what: str) -> complex:
    if isinstance(value, (int, float)):
        parts = [value]
    elif (isinstance(value, list) and len(value) == 2
            and all(isinstance(x, (int, float)) for x in value)):
        parts = value
    else:
        raise InputError(f"{what} must be a number or [re, im] pair")
    # Python's json reads NaN and Infinity as floats, and integers of any size
    try:
        z = complex(*parts)
    except OverflowError as exc:
        raise InputError(f"{what} must be finite") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InputError(f"{what} must be finite")
    return z


def _gnuplot_script(csv_name: str, title: str, columns, logx: bool) -> str:
    lines = ["set datafile separator ','", f"set title '{title}'", "set key left"]
    if logx:
        lines.append("set logscale x")
    plots = [f"'{csv_name}' using 1:{col} with lines title '{label}'"
             for col, label in columns]
    lines.append("plot " + ", \\\n     ".join(plots))
    return "\n".join(lines) + "\n"


@click.group(cls=_Main)
@click.option("--model", "model_path", type=click.Path(), default=None,
              help="model JSON: n, angle, tube_radius, cross_section")
@click.option("--modes", "modes_path", type=click.Path(), default=None,
              help="mode list JSON (defaults to the circle spectrum)")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".",
              help="output directory")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="seed of verify's random cases")
@click.option("--tol-series-order", "series_order", type=click.IntRange(min=1),
              default=14, show_default=True, help="Frobenius truncation order")
@click.option("--tol-rtol", "rtol", type=float, default=1e-11,
              show_default=True,
              help="continuation error bound (step-doubling estimate)")
@click.option("--tol-nodes", "nodes", type=click.IntRange(min=4), default=200,
              show_default=True,
              help="radial sample count of reduce's outputs and of "
                   "deform-angle's profile and residual checks")
@click.option("--tol-residual", "residual_tol", type=float, default=1e-8,
              show_default=True, help="verification residual threshold")
# accepts only the `--jobs 1` that bench/workloads.py passes, its one caller
@click.option("--jobs", type=click.IntRange(1, 1), hidden=True, expose_value=False)
@click.option("--gnuplot", is_flag=True, help="also write gnuplot scripts")
@click.pass_context
def main(ctx, **kwargs):
    """Mode analysis of deformation operators on hyperbolic cone tubes."""
    ctx.obj = RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# indicial


@main.command()
@click.option("--family", type=click.Choice(["oneform", "tensor", "both"]),
              default="both", show_default=True)
@click.option("--angle-sweep", nargs=3, type=float, default=None,
              help="START STOP COUNT: exponent curves over the cone angle")
@click.pass_obj
def indicial(cfg: RunConfig, family: str, angle_sweep):
    """Indicial root tables (CSV + JSON), optionally swept over the angle.

    roots.csv/json list every root with its eigenvectors at the model's
    angle.  --angle-sweep adds angle_sweep.csv: the angle and the first
    seven columns of each root row at COUNT angles from START to STOP,
    without branch classes or vectors.  Its exponents depend on the angle
    only through t = p * 2 pi / angle, so every distinct (family, kind,
    components, t) is reported once per run.
    """
    if angle_sweep is not None:
        start, stop, count = angle_sweep
        if not (all(math.isfinite(x) for x in angle_sweep) and 0 < start <= stop
                and count >= 1 and count.is_integer()):
            raise InputError("angle sweep needs finite 0 < START <= STOP and "
                             "an integer COUNT >= 1")
    model = cfg.load_model()
    modes = cfg.load_modes(model)
    families = ["oneform", "tensor"] if family == "both" else [family]

    header, rows = None, []
    for fam in families:
        head, part = root_table_rows(model, modes, fam)
        header = head
        rows.extend(part)

    payload = [dict(zip(header, row)) for row in rows]
    files = [cfg.write_csv("roots.csv", header, rows),
             cfg.write_json("roots.json", payload)]

    if angle_sweep is not None:
        files.append(cfg.write_csv("angle_sweep.csv", *angle_sweep_rows(
            model, modes, families, np.linspace(start, stop, int(count)))))

    if cfg.gnuplot:
        files.append(cfg.write_text("roots.gp", _gnuplot_script(
            "angle_sweep.csv" if angle_sweep is not None else "roots.csv",
            "indicial exponents", [(6 if angle_sweep is not None else 5,
                                    "kappa")], logx=False)))
    click.echo(f"indicial: {len(rows)} roots -> {', '.join(files)}")


# ---------------------------------------------------------------------------
# reduce


@main.command()
@click.option("--block-file", type=click.Path(), default=None,
              help="sampled block JSON (mode, kind, component arrays)")
@click.option("--standard",
              type=click.Choice(["angle", "locus_metric", "angle_gluing"]),
              default=None, help="use a built-in deformation germ instead")
@click.pass_obj
def reduce(cfg: RunConfig, block_file, standard):
    """Apply the reduced radial operator to a mode block and emit samples."""
    model = cfg.load_model()
    if (block_file is None) == (standard is None):
        raise InputError("pass exactly one of --block-file / --standard")
    grid = log_grid(model, num=cfg.nodes)
    if standard is not None:
        block = standard_deformation_block(model, standard)
    else:
        data = _read_json(block_file)
        try:
            block = block_from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad block file: {exc}") from exc
        lo, hi = data["grid"][0], data["grid"][-1]
        if not lo <= grid.min() <= grid.max() <= hi:
            raise InputError(f"bad block file: its grid [{lo:.6g}, {hi:.6g}] does not "
                             f"cover the sample grid [{grid.min():.6g}, {grid.max():.6g}]")

    apply = apply_L_oneform if block.family == "oneform" else apply_P_tensor
    try:
        image = apply(model, block, grid)
    except (ValueError, DomainError) as exc:
        raise InputError(str(exc)) from exc

    head, rows = block_csv_rows(model, block, grid)
    names = sorted(image)
    image_head = ["r"]
    for nm in names:
        image_head += [f"{nm}_re", f"{nm}_im"]
    image_rows = []
    for i, r in enumerate(grid):
        row = [f"{r:.12g}"]
        for nm in names:
            row += [f"{image[nm][i].real:.12g}", f"{image[nm][i].imag:.12g}"]
        image_rows.append(row)

    files = [
        cfg.write_csv("block.csv", head, rows),
        cfg.write_csv("block_image.csv", image_head, image_rows),
        cfg.write_json("block_image.json", {
            "family": block.family, "kind": block.kind,
            "mode": mode_to_dict(block.mode),
            "grid": [float(r) for r in grid],
            "image": {nm: [[v.real, v.imag] for v in image[nm]]
                      for nm in names}}),
    ]
    click.echo(f"reduce: {block.family} kind {block.kind} -> {', '.join(files)}")


# ---------------------------------------------------------------------------
# frobenius


@main.command("frobenius")
@click.option("--family", type=click.Choice(["oneform", "tensor"]),
              default="tensor", show_default=True)
@click.option("--solution-class", type=click.Choice(["strong", "l2"]),
              default="strong", show_default=True)
@click.option("--order", type=click.IntRange(min=1), default=None,
              help="series order (defaults to --tol-series-order)")
@click.pass_obj
def frobenius_cmd(cfg: RunConfig, family, solution_class, order):
    """Frobenius series of every admissible branch of the listed modes."""
    model = cfg.load_model()
    modes = cfg.load_modes(model)
    order = cfg.series_order if order is None else order

    def expand(mode):
        if family == "oneform" and isinstance(mode, TTMode):
            return None
        system = system_for_mode(model, mode, family)
        entry = {"family": family, "kind": system.kind,
                 "mode": mode_to_dict(mode), "branches": []}
        for branch in admissible_branches(system, solution_class):
            ser = branch_series(system, branch, order)
            entry["branches"].append({"type": branch[0], "exponent": branch[1],
                                      "series": ser.to_dict()})
        return entry

    payload = [e for e in map(expand, modes) if e is not None]
    out = cfg.write_json("frobenius.json", payload)
    total = sum(len(e["branches"]) for e in payload)
    click.echo(f"frobenius: {total} branches over {len(payload)} systems -> {out}")


# ---------------------------------------------------------------------------
# solve


@main.command()
@click.option("--family", type=click.Choice(["oneform", "tensor"]), required=True)
@click.option("--mode-type", type=click.Choice(["scalar", "coclosed", "tt"]),
              default="scalar", show_default=True)
@click.option("--mode-p", type=int, default=0, show_default=True)
@click.option("--mode-eig", type=float, default=0.0, show_default=True,
              help="cross-section eigenvalue of the mode")
@click.option("--boundary", required=True,
              help="JSON object: component -> value or [re, im]")
@click.option("--solution-class", type=click.Choice(["strong", "l2"]),
              default="strong", show_default=True)
@click.option("--source", default=None,
              help="JSON: component -> [[coeff, [radial factor names]], ...]")
@click.pass_obj
def solve(cfg: RunConfig, family, mode_type, mode_p, mode_eig, boundary,
          solution_class, source):
    """Dirichlet solve for one mode; profile CSV plus residual report."""
    model = cfg.load_model()
    try:
        mode = mode_from_dict({"type": mode_type, "lambda": mode_eig,
                               "mu": mode_eig, "nu": mode_eig, "p": mode_p})
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    try:
        bdata = json.loads(boundary)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid boundary JSON: {exc}") from exc
    if not isinstance(bdata, dict):
        raise InputError("boundary must be a JSON object")
    bvals = {k: _parse_complex(v, f"boundary[{k}]") for k, v in bdata.items()}

    source_map = None
    if source is not None:
        try:
            sdata = json.loads(source)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid source JSON: {exc}") from exc
        if not isinstance(sdata, dict):
            raise InputError("source must be a JSON object")
        source_map = {}
        for name, terms in sdata.items():
            try:
                terms = tuple((complex(c), _exponents(factors)) for c, factors in terms)
            except KeyError as exc:
                raise InputError(f"bad source term for {name}: unknown radial "
                                 f"factor {exc.args[0]!r}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"bad source term for {name}: {exc}") from exc
            if not all(np.isfinite(c) for c, _ in terms):
                raise InputError(f"bad source term for {name}: coefficients "
                                 "must be finite")
            source_map[name] = RadialExpr(terms)

    try:
        result = solve_mode_bvp(model, mode, family, bvals,
                                solution_class=solution_class,
                                source=source_map, order=cfg.series_order,
                                rtol=cfg.rtol)
    except (ValueError, DomainError) as exc:
        raise InputError(str(exc)) from exc

    head, rows = block_csv_rows(model, result.block())
    report = result.summary()
    report["handoff"] = result.handoff
    files = [cfg.write_csv("solve_profiles.csv", head, rows),
             cfg.write_json("solve_report.json", report)]
    if cfg.gnuplot:
        cols = [(2 * i + 2, nm) for i, nm in enumerate(result.system.names)]
        files.append(cfg.write_text("solve.gp", _gnuplot_script(
            "solve_profiles.csv", "mode profiles", cols, logx=True)))

    if result.status != "unique":
        click.echo(f"warning: matching is {result.status} "
                   f"({len(result.null_combinations)} null combination(s), "
                   f"condition number {result.condition_number:.3g})", err=True)
    if result.error_estimate > cfg.rtol:
        click.echo(f"warning: the match holds to about {result.error_estimate:.1e} "
                   f"relative, not rtol {cfg.rtol:.1e} (condition number "
                   f"{result.condition_number:.3g})", err=True)
    click.echo(f"solve: status {result.status}, boundary residual "
               f"{result.boundary_residual:.3e} -> {', '.join(files)}")


# ---------------------------------------------------------------------------
# deform-angle


def _axis_coefficients(res) -> dict:
    """A solve's induced axis coefficients as [re, im] pairs, those of
    modulus at most 1e-12 left out."""
    return {nm: [v.real, v.imag] for nm, v in res.axis_values.items() if abs(v) > 1e-12}


@main.command("deform-angle")
@click.option("--cutoff", nargs=2, type=float, default=None,
              help="C0 C1: gauge cutoff radii (defaults to 0.25a 0.5a)")
@click.option("--order", type=click.IntRange(min=1), default=None,
              help="series order (defaults to max(16, --tol-series-order))")
@click.pass_obj
def deform_angle(cfg: RunConfig, cutoff, order):
    """Cone-angle deformation: potential profile, correction block, residuals."""
    model = cfg.load_model()
    order = max(16, cfg.series_order) if order is None else order
    a = model.tube_radius
    if cutoff is not None and not (0 < cutoff[0] < cutoff[1] <= a):
        raise InputError("cutoff needs 0 < C0 < C1 <= tube radius")
    cut = tuple(cutoff) if cutoff is not None else (0.25 * a, 0.5 * a)

    deform = angle_deformation_profile(model, order=order, rtol=cfg.rtol)
    grid = np.geomspace(1e-6, a, cfg.nodes)
    memo = {}  # f and g share the continuation's one evaluation on the grid
    f, g = (prof.jet(grid, 0, memo)[0] for prof in (deform.f_profile, deform.g_profile))
    defect = f + grid * np.log(grid)

    small = grid[grid <= 1e-2]
    ratio = float(np.max(np.abs(deform.f_profile(small) + small * np.log(small))
                         / (small ** 3 * np.abs(np.log(small)))))
    mid = grid[grid >= 1e-4]
    normalization = float(np.max(deform.residual(mid)))

    block = deform.correction_block(cutoff=cut)
    bvals = deform.boundary_values(cutoff=cut)
    head, rows = block_csv_rows(model, block)

    modes = cfg.load_modes(model)
    # the angle deformation's trace feeds the scalar (0, 0) mode; every other
    # mode gets zero data, the default of each component the solve leaves out
    boundary_data = {mode: dict(bvals) if isinstance(mode, ScalarMode)
                     and mode.lam == 0 and mode.p == 0 else {}
                     for mode in modes if not isinstance(mode, TTMode)}
    solves = induced_singular_deformation(model, boundary_data, order=order,
                                          rtol=cfg.rtol)
    induced = []
    for mode, res in solves.items():
        induced.append({"mode": mode_to_dict(mode), "status": res.status,
                        "axis_regular": res.axis_regular,
                        "induced": _axis_coefficients(res)})

    profile_rows = [[f"{r:.12g}", f"{fv.real:.12g}", f"{gv.real:.12g}",
                     f"{dv.real:.12g}"]
                    for r, fv, gv, dv in zip(grid, f, g, defect)]
    files = [
        cfg.write_csv("angle_profile.csv",
                      ["r", "f", "g", "f_plus_r_log_r"], profile_rows),
        cfg.write_csv("correction_block.csv", head, rows),
        cfg.write_json("angle_report.json", {
            "series_order": order,
            "cutoff": list(cut),
            "leading_ratio_bound": ratio,
            "normalization_max_residual": normalization,
            "boundary_values": {k: [v.real, v.imag] for k, v in bvals.items()},
        }),
        cfg.write_json("induced.json", induced),
    ]
    if cfg.gnuplot:
        files.append(cfg.write_text("angle_profile.gp", _gnuplot_script(
            "angle_profile.csv", "angle deformation potential",
            [(2, "f"), (4, "f + r log r")], logx=True)))
    click.echo(f"deform-angle: normalization residual {normalization:.3e}, "
               f"leading ratio bound {ratio:.3g} -> {', '.join(files)}")


# ---------------------------------------------------------------------------
# induced-metric


@main.command("induced-metric")
@click.option("--boundary-file", required=True, type=click.Path(),
              help="JSON list of {mode: {...}, values: {component: value}}")
@click.option("--solution-class", type=click.Choice(["strong", "l2"]),
              default="strong", show_default=True)
@click.pass_obj
def induced_metric(cfg: RunConfig, boundary_file, solution_class):
    """Axis limits of per-mode Dirichlet solves: the induced locus data."""
    model = cfg.load_model()
    entries = _read_json(boundary_file)
    if not isinstance(entries, list):
        raise InputError("boundary file must be a JSON list")
    boundary_data = {}
    for entry in entries:
        try:
            mode = mode_from_dict(entry["mode"])
            values = entry["values"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad boundary entry: {exc}") from exc
        if not isinstance(values, dict):
            raise InputError("bad boundary entry: values must be a JSON object")
        values = {k: _parse_complex(v, f"values[{k}]") for k, v in values.items()}
        boundary_data[mode] = values

    try:
        solves = induced_singular_deformation(model, boundary_data,
                                              solution_class=solution_class,
                                              order=cfg.series_order,
                                              rtol=cfg.rtol)
    except (ValueError, DomainError) as exc:
        raise InputError(str(exc)) from exc
    payload = []
    for mode, res in solves.items():
        payload.append({
            "mode": mode_to_dict(mode),
            "status": res.status,
            "axis_regular": res.axis_regular,
            "boundary_residual": res.boundary_residual,
            "induced": _axis_coefficients(res),
        })
    out = cfg.write_json("induced_metric.json", payload)
    regular = sum(1 for e in payload if e["axis_regular"])
    click.echo(f"induced-metric: {regular}/{len(payload)} modes axis-regular "
               f"-> {out}")


# ---------------------------------------------------------------------------
# verify


def _random_polynomial_profiles(rng, names):
    out = {}
    for name in names:
        c0, c1, c2 = (float(f"{rng.gauss(0.0, 1.0):.6f}") for _ in range(3))
        out[name] = (RadialProfile.constant(c0) + RadialProfile.monomial(1, c1)
                     + RadialProfile.monomial(2, c2))
    return out


def _equivalence_suite(model, chart, n_cases, seed, tol):
    rng = random.Random(seed)
    length = model.cross_section.length
    rows = []
    r = np.linspace(0.1, model.tube_radius, 16)
    grid = chart.at(r)  # the coordinate side of every case
    specs = [("oneform", "A"), ("oneform", "B"), ("oneform", "C"),
             ("tensor", "A"), ("tensor", "B"), ("tensor", "C")]
    # bound per call: bench/spans.py rebinds these names in this module
    operators = {"oneform": (apply_L_coords, apply_L_oneform),
                 "tensor": (apply_P_coords, apply_P_tensor)}
    for family, kind in specs:
        worst = 0.0
        for _ in range(n_cases):
            p = rng.randrange(4)
            if kind == "A":
                m = rng.randrange(1, 3)
                mode = ScalarMode((2 * math.pi * m / length) ** 2, p)
            elif kind == "B":
                mode = ScalarMode(0.0, p)
            else:
                mode = CoclosedMode(0.0, p)
            profiles = _random_polynomial_profiles(rng, system_names(family, model.n, mode))
            blk = ModeBlock(family, mode, profiles)
            coords, reduced = operators[family]
            got = block_components(coords(block_field(chart, blk)), kind, grid)
            ref = reduced(model, blk, r)
            scale = max(np.max(np.abs(v)) for v in ref.values())
            err = max(np.max(np.abs(got[nm] - ref[nm])) for nm in ref) / scale
            worst = max(worst, err)
        rows.append({"identity": f"{family}_{kind}_operator_equivalence",
                     "n_cases": n_cases, "max_rel_residual": float(worst),
                     "pass": bool(worst <= tol)})
    return rows


@main.command()
@click.option("--suite", "suites", multiple=True,
              type=click.Choice(["identities", "oracle", "energy"]),
              help="suites to run (default: all)")
@click.option("--cases", type=click.IntRange(min=1), default=20, show_default=True)
@click.pass_context
def verify(ctx, suites, cases):
    """Run verification suites; nonzero exit when any residual is above tol.

    With --seed S, the identities, oracle and energy suites draw their cases
    from `random.Random` seeded S, S + 1 and S + 2.
    """
    cfg: RunConfig = ctx.obj
    model = cfg.load_model()
    try:
        chart = TubeChart(model)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    suites = tuple(suites) or ("identities", "oracle", "energy")
    tol = cfg.residual_tol

    rows = []
    files = []
    if "identities" in suites:
        rows.extend(oracle.identity_suite(model, n_cases=cases, seed=cfg.seed,
                                          tol=tol))
    if "oracle" in suites:
        rows.extend(_equivalence_suite(model, chart, cases, cfg.seed + 1, tol))
    if "energy" in suites:
        ratios = oracle.energy_ratios(chart, random.Random(cfg.seed + 2), cases)
        bound = model.n - 2
        violation = max(0.0, (bound - min(ratios)) / bound)
        rows.append({"identity": "einstein_operator_energy_bound",
                     "n_cases": cases, "max_rel_residual": float(violation),
                     "pass": bool(violation == 0.0)})
        files.append(cfg.write_csv(
            "energy_ratios.csv", ["case", "ratio"],
            [[i, f"{v:.12g}"] for i, v in enumerate(ratios)]))

    ok = all(row["pass"] for row in rows)
    files.insert(0, cfg.write_json("verify.json",
                                   {"suites": list(suites), "pass": ok,
                                    "rows": rows}))
    width = max(len(row["identity"]) for row in rows)
    for row in rows:
        status = "pass" if row["pass"] else "FAIL"
        click.echo(f"{row['identity']:<{width}}  {row['max_rel_residual']:.3e}"
                   f"  {status}")
    click.echo(("verify: all suites passed -> " if ok else
                "verify: FAILURES -> ") + ", ".join(files))
    if not ok:
        ctx.exit(1)


if __name__ == "__main__":
    main()
