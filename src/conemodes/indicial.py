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
how the log locus is certified on a parameter grid.  The exact rank over
Q(i) of A + iB (A, B rational) is half the rank over Q of the real matrix
[[A, -B], [B, A]], a Fraction elimination.  Roots can meet only at a
half-integer t, so both paths take a t within the merge tolerance
1e-9 (|t| + 3) of a half-integer at that half-integer.
"""

from __future__ import annotations

from collections import Counter
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


# rank cut of `null_space`: singular values below max(1e-10 s_max, 1e-12) are null
_NULL_RTOL = 1e-10


def null_space(matrices: np.ndarray):
    """Null vectors of each matrix of an (N, k, k) stack, from one SVD call."""
    _, s, vh = np.linalg.svd(matrices)
    null = s < np.maximum(s[:, :1] * _NULL_RTOL, 1e-12)
    return tuple(tuple(tuple(np.conj(v)) for v, z in zip(rows, mask) if z)
                 for rows, mask in zip(vh, null))


def _snap(t):
    """t, or the half-integer within the merge tolerance 1e-9 (|t| + 3) of it.

    Roots are +-(t + integer), so distinct roots meet only at a half-integer
    t, and the classification thresholds are integers: snapping there means
    an ulp change of the angle cannot split a root or move it across one.
    """
    half = type(t)(round(2 * t)) / 2
    return half if abs(t - half) <= 1e-9 * (abs(t) + 3.0) else t


def _root_clusters(family: str, kind: str, names, t):
    """Distinct exponents at a snapped t, descending, with multiplicities."""
    counts = Counter(closed_root_multiset(family, kind, tuple(names), t))
    return sorted(counts.items(), reverse=True)


def indicial_report(system: ModeSystem) -> IndicialReport:
    """Cluster the closed-form exponent multiset and attach eigenvectors."""
    t = system.mode.p * system.gamma
    clusters = _root_clusters(system.family, system.kind, system.names, _snap(t))
    squares = np.array([value ** 2 for value, _ in clusters])[:, None, None]
    nulls = null_space(system.w0 - squares * np.eye(system.arity))
    roots = tuple(IndicialRoot(float(value), mult, vecs, len(vecs) < mult)
                  for (value, mult), vecs in zip(clusters, nulls))
    return IndicialReport(system.family, system.kind, system.names, t, roots)


# ---------------------------------------------------------------------------
# exact rational certification


def _exact_w0(family: str, kind: str, names, t: Fraction):
    """W0 = A + iB at rational t as the Fraction matrices (A, B).

    Typed by hand from the block formulas, not read off the pencil: W0 is a
    direct sum of the scalar block t^2, the pair block [[1 + t^2, 2it],
    [-2it, 1 + t^2]] and, for tensor kinds A and B, the 3x3 block of
    (f, g, h).
    """
    s = t * t
    scalar = ([[s]], [[0]])
    pair = ([[1 + s, 0], [0, 1 + s]], [[0, 2 * t], [-2 * t, 0]])
    triple = ([[s + 2, -2, 0], [-2, s + 2, 0], [0, 0, s + 4]],
              [[0, 0, 2 * t], [0, 0, -2 * t], [-4 * t, 4 * t, 0]])
    if family == "oneform":
        blocks = {"A": [pair, scalar], "B": [pair], "C": [scalar]}[kind]
    else:
        blocks = {"A": [triple, pair, scalar] + [scalar] * ("k2" in names),
                  "B": [triple, scalar],
                  "C": [pair] + [scalar] * ("k3" in names),
                  "D": [scalar]}[kind]
    k = len(names)
    a, b = ([[Fraction(0)] * k for _ in range(k)] for _ in range(2))
    at = 0
    for block in blocks:
        for out, part in ((a, block[0]), (b, block[1])):
            for i, row in enumerate(part):
                out[at + i][at:at + len(row)] = map(Fraction, row)
        at += len(block[0])
    return a, b


def _rank(rows) -> int:
    """Rank over Q of a list of Fraction rows, by elimination in place."""
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / top[col]
            if f:
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def exact_indicial_analysis(family: str, kind: str, names, t: Fraction):
    """Exact multiplicity/nullity/log data for rational mode frequency.

    Returns a list of (kappa: Fraction, multiplicity, nullity, log_required)
    sorted by descending exponent.  All arithmetic is exact, so the log locus
    this reports is a certificate, not a numerical observation.

    The rank over Q(i) of M = W0 - kappa^2 I = A + iB is half the rank over
    Q of the real matrix [[A, -B], [B, A]], which is similar to M (+) conj(M).
    A t within the merge tolerance of a half-integer is certified at that
    half-integer, as `indicial_report` clusters it.
    """
    t = _snap(Fraction(t))
    a, b = _exact_w0(family, kind, tuple(names), t)
    k = len(a)
    out = []
    for kappa, mult in _root_clusters(family, kind, names, t):
        shifted = [[x - kappa * kappa if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(a)]
        realified = ([ra + [-x for x in rb] for ra, rb in zip(shifted, b)]
                     + [rb + ra for ra, rb in zip(shifted, b)])
        nullity = k - _rank(realified) // 2
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
