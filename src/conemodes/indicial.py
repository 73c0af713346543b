"""Indicial analysis of the reduced systems at the cone axis.

Substituting X = r^kappa v into a reduced system -X'' - q X' + V X with
r q -> 1 and r^2 V -> W0 as r -> 0 leaves the indicial equation

    (W0 - kappa^2 I) v = 0.

The admissible exponents are therefore plus/minus square roots of the
eigenvalues of W0, and every block's W0 is built from shifted copies of the
mode frequency t = p * gamma, so the exponent multiset has the closed form
{ +-(t + offset) } with small integer offsets fixed by the block kind.

A repeated exponent whose eigenspace is smaller than its multiplicity forces
ln(r) factors in the local solution basis; that deficiency is computed here
both in floating point (from `ModeSystem.w0`, read off the pencil with no
series table) and exactly over the rationals when t is rational, which is
how the log locus is certified on a parameter grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from conemodes.geometry import ConeModel
from conemodes.modes import CoclosedMode, Mode, ScalarMode, TTMode
from conemodes.reduction import ModeSystem, oneform_system, tensor_system

__all__ = [
    "SOLUTION_CLASSES",
    "classify_exponent",
    "IndicialRoot",
    "IndicialReport",
    "indicial_matrix",
    "closed_root_multiset",
    "indicial_report",
    "exact_indicial_analysis",
    "angle_admissibility",
    "system_for_mode",
    "root_table_rows",
]

SOLUTION_CLASSES = ("l2", "l12", "strong")


def classify_exponent(kappa: float, carries_log: bool) -> dict:
    """Admissibility of a local branch r^kappa (times ln r when flagged).

    "l2": square-integrable against the tube weight near the axis.
    "l12": value and first covariant derivative square-integrable.
    "strong": additionally second derivatives, the class in which the
    small-angle solvability statement holds mode by mode.
    """
    if carries_log:
        return {
            "l2": kappa > -1,
            "l12": kappa > 0,
            "strong": kappa > 1,
        }
    return {
        "l2": kappa > -1,
        "l12": kappa >= 0,
        "strong": kappa == 0 or kappa >= 1,
    }


# ---------------------------------------------------------------------------
# root structure


_OFFSETS = {
    ("oneform", "A"): lambda names: [0, 1, -1],
    ("oneform", "B"): lambda names: [1, -1],
    ("oneform", "C"): lambda names: [0],
    ("tensor", "A"): lambda names: [0, 2, -2, 1, -1, 0] + ([0] if "k2" in names else []),
    ("tensor", "B"): lambda names: [0, 2, -2, 0],
    ("tensor", "C"): lambda names: [1, -1] + ([0] if "k3" in names else []),
    ("tensor", "D"): lambda names: [0],
}


def closed_root_multiset(family: str, kind: str, names, t):
    """All 2k indicial exponents, one plus/minus pair per component."""
    offsets = _OFFSETS[(family, kind)](tuple(names))
    roots = []
    for o in offsets:
        roots.append(t + o)
        roots.append(-(t + o))
    return sorted(roots)


def indicial_matrix(system: ModeSystem, kappa: float) -> np.ndarray:
    return system.w0 - (kappa ** 2) * np.eye(system.arity)


@dataclass(frozen=True)
class IndicialRoot:
    """One exponent: its det multiplicity, eigenvectors, and branch flags."""

    value: float
    multiplicity: int
    vectors: tuple
    log_required: bool

    @property
    def nullity(self) -> int:
        return len(self.vectors)

    @property
    def in_l2(self) -> bool:
        return classify_exponent(self.value, False)["l2"]

    @property
    def in_l12(self) -> bool:
        return classify_exponent(self.value, self.log_required)["l12"]

    def branch_count(self, solution_class: str) -> int:
        """Local solutions at this exponent admitted by the class: the
        eigenvector branches are log-free, the remaining multiplicity
        carries ln r."""
        pure = classify_exponent(self.value, False)[solution_class]
        logful = classify_exponent(self.value, True)[solution_class]
        count = self.nullity if pure else 0
        if self.multiplicity > self.nullity and logful:
            count += self.multiplicity - self.nullity
        return count


@dataclass(frozen=True)
class IndicialReport:
    family: str
    kind: str
    names: tuple
    p_gamma: float
    roots: tuple

    @property
    def arity(self) -> int:
        return len(self.names)

    def root(self, value: float, tol: float = 1e-8) -> IndicialRoot:
        for root in self.roots:
            if abs(root.value - value) <= tol:
                return root
        raise KeyError(f"no indicial root near {value}")

    @property
    def has_log_root(self) -> bool:
        return any(r.log_required for r in self.roots)


def null_space(matrix: np.ndarray, rtol: float = 1e-10):
    u, s, vh = np.linalg.svd(matrix)
    if s.size == 0:
        return ()
    tol = max(s[0] * rtol, 1e-12)
    vecs = [tuple(np.conj(vh[i])) for i in range(len(s)) if s[i] < tol]
    return tuple(vecs)


def indicial_report(system: ModeSystem, rtol: float = 1e-10) -> IndicialReport:
    """Cluster the closed-form exponent multiset and attach eigenvectors."""
    t = system.mode.p * system.gamma
    multiset = closed_root_multiset(system.family, system.kind, system.names, t)
    tol = 1e-9 * (abs(t) + 3.0)
    clusters = []
    for value in multiset:
        if clusters and abs(value - clusters[-1][0]) <= tol:
            clusters[-1][1] += 1
        else:
            clusters.append([value, 1])
    w0 = system.w0
    roots = []
    for value, mult in clusters:
        # roots are +-(t + integer), so distinct roots meet only at a
        # half-integer, and the classification thresholds are integers: a
        # label within the merge tolerance of a half-integer takes that
        # value, so an ulp change of the angle cannot move it across one
        half = round(2 * value) / 2
        if abs(value - half) <= tol:
            value = half
        m = w0 - (value ** 2) * np.eye(system.arity)
        vecs = null_space(m, rtol)
        roots.append(IndicialRoot(
            value=float(value),
            multiplicity=mult,
            vectors=vecs,
            log_required=len(vecs) < mult,
        ))
    roots.sort(key=lambda root: -root.value)
    return IndicialReport(system.family, system.kind, system.names, t, tuple(roots))


# ---------------------------------------------------------------------------
# exact rational certification


def _exact_w0(family: str, kind: str, names, t):
    import sympy as sp

    tt = sp.Rational(t.numerator, t.denominator)
    I = sp.I
    if family == "oneform":
        if kind == "A":
            return sp.Matrix([
                [1 + tt**2, 2 * I * tt, 0],
                [-2 * I * tt, 1 + tt**2, 0],
                [0, 0, tt**2],
            ])
        if kind == "B":
            return sp.Matrix([
                [1 + tt**2, 2 * I * tt],
                [-2 * I * tt, 1 + tt**2],
            ])
        return sp.Matrix([[tt**2]])
    if kind in ("A", "B"):
        rows = [
            [tt**2 + 2, -2, 2 * I * tt],
            [-2, tt**2 + 2, -2 * I * tt],
            [-4 * I * tt, 4 * I * tt, tt**2 + 4],
        ]
        if kind == "A":
            block = sp.zeros(len(names), len(names))
            block[0:3, 0:3] = sp.Matrix(rows)
            block[3, 3] = tt**2 + 1
            block[3, 4] = 2 * I * tt
            block[4, 3] = -2 * I * tt
            block[4, 4] = tt**2 + 1
            block[5, 5] = tt**2
            if "k2" in names:
                block[6, 6] = tt**2
            return block
        block = sp.zeros(4, 4)
        block[0:3, 0:3] = sp.Matrix(rows)
        block[3, 3] = tt**2
        return block
    if kind == "C":
        k = len(names)
        block = sp.zeros(k, k)
        block[0, 0] = tt**2 + 1
        block[0, 1] = 2 * I * tt
        block[1, 0] = -2 * I * tt
        block[1, 1] = tt**2 + 1
        if "k3" in names:
            block[2, 2] = tt**2
        return block
    return sp.Matrix([[tt**2]])


def exact_indicial_analysis(family: str, kind: str, names, t: Fraction):
    """Exact multiplicity/nullity/log data for rational mode frequency.

    Returns a list of (kappa: Fraction, multiplicity, nullity, log_required)
    sorted by descending exponent.  All arithmetic is exact, so the log locus
    this reports is a certificate, not a numerical observation.
    """
    import sympy as sp

    t = Fraction(t)
    multiset = closed_root_multiset(family, kind, tuple(names), t)
    clusters: dict[Fraction, int] = {}
    for val in multiset:
        clusters[val] = clusters.get(val, 0) + 1
    w0 = _exact_w0(family, kind, tuple(names), t)
    out = []
    for kappa, mult in sorted(clusters.items(), reverse=True):
        kk = sp.Rational(kappa.numerator, kappa.denominator)
        m = w0 - kk**2 * sp.eye(w0.shape[0])
        nullity = w0.shape[0] - m.rank()
        out.append((kappa, mult, nullity, nullity < mult))
    return out


# ---------------------------------------------------------------------------
# admissibility at a given cone angle


def system_for_mode(model: ConeModel, mode: Mode, family: str) -> ModeSystem:
    """The reduced system a mode generates, block kind inferred."""
    if isinstance(mode, ScalarMode):
        kind = "A" if mode.lam > 0 else "B"
    elif isinstance(mode, CoclosedMode):
        kind = "C"
    elif isinstance(mode, TTMode):
        if family == "oneform":
            raise ValueError("one-form blocks carry scalar or co-closed modes only")
        kind = "D"
    else:
        raise TypeError(f"unsupported mode {mode!r}")
    if family == "oneform":
        return oneform_system(model, mode, kind)
    if family == "tensor":
        return tensor_system(model, mode, kind)
    raise ValueError(f"unknown family {family!r}")


def angle_admissibility(model: ConeModel, mode: Mode, family: str = "tensor",
                        solution_class: str = "strong") -> dict:
    """Branch bookkeeping for boundary solvability of one mode.

    counts how many local branches at the axis the chosen class admits; a
    deficit against the block arity means the boundary matching problem is
    singular in that class, a surplus means non-uniqueness.
    """
    if solution_class not in SOLUTION_CLASSES:
        raise ValueError(f"unknown solution class {solution_class!r}")
    system = system_for_mode(model, mode, family)
    report = indicial_report(system)
    branches = []
    count = 0
    for root in report.roots:
        c = root.branch_count(solution_class)
        if c:
            branches.append({"kappa": root.value, "count": c,
                             "log_required": root.log_required})
            count += c
    return {
        "family": family,
        "kind": system.kind,
        "arity": system.arity,
        "solution_class": solution_class,
        "branches": branches,
        "count": count,
        "deficit": system.arity - count,
        "has_log_root": report.has_log_root,
    }


# ---------------------------------------------------------------------------
# tabulation


_TABLE_HEADER = ["family", "kind", "p", "lambda_like", "kappa", "multiplicity",
                 "log_required", "in_l2", "in_l12", "vectors"]


def _mode_eigdata(mode: Mode):
    if isinstance(mode, ScalarMode):
        return mode.lam
    if isinstance(mode, CoclosedMode):
        return mode.mu
    return mode.nu


def _format_vector(v) -> str:
    return "|".join(f"{c.real:.12g}{c.imag:+.12g}j" for c in v)


def root_table_rows(model: ConeModel, modes, family: str):
    """Header and rows of the indicial root table over a mode list."""
    rows = []
    for mode in modes:
        if family == "oneform" and isinstance(mode, TTMode):
            continue
        system = system_for_mode(model, mode, family)
        report = indicial_report(system)
        for root in report.roots:
            rows.append([
                family,
                system.kind,
                str(mode.p),
                f"{_mode_eigdata(mode):.12g}",
                f"{root.value:.12g}",
                str(root.multiplicity),
                str(root.log_required).lower(),
                str(root.in_l2).lower(),
                str(root.in_l12).lower(),
                ";".join(_format_vector(v) for v in root.vectors),
            ])
    return list(_TABLE_HEADER), rows
