"""Indicial analysis of the reduced systems at the cone axis.

Substituting X = r^kappa v into a reduced system -X'' - q X' + V X with
r q -> 1 and r^2 V -> W0 as r -> 0 leaves the indicial equation

    (W0 - kappa^2 I) v = 0.

In the real frame of `ModeSystem` every block's W0 is (tI + O)^2 at the mode
frequency t = p gamma, with O the integer theta-coupling matrix of its
components (`reduction.theta_coupling`).  O is diagonalizable over Q with
the small integer eigenvalues `_OFFSETS` fixed by the block kind, so

    W0 - kappa^2 I = (tI + O - kappa)(tI + O + kappa),

the exponents are the closed-form multiset { +-(t + o) }.  One pass
(`_clusters`) groups the labels (sign, o) by sign (t + o) into the roots of
the float report and the exact certificate alike.  A root's multiplicity is
its number of labels; its null space, the same at every t, is the sum of the
eigenspaces E(o) of O over the distinct o among its labels: its vectors.  A
repeated exponent whose eigenspace is smaller than its multiplicity forces
ln(r) factors in the local solution basis, and that happens only where both
signs of one o meet, at kappa = 0.  The same eigenbasis of O (`_eigenbasis`)
serves the Frobenius recursion, which alone also reads its inverse.

A report depends on the mode only through (family, kind, component names,
t): not on the cross-section eigenvalue, not on n, and not on any pencil.
Roots can meet only at a half-integer t, so a report takes a t within the
merge tolerance 1e-9 (|t| + 3) of a half-integer at that half-integer.  The
log locus is certified exactly over the rationals when t is rational: the
nullities are ranks of W0 typed by hand (`exact_indicial_analysis`).
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from conemodes.geometry import ConeModel
from conemodes.modes import CoclosedMode, Mode, ScalarMode, TTMode
from conemodes.reduction import (
    ModeSystem,
    _frame,
    _snap,
    mode_kind,
    oneform_system,
    system_names,
    tensor_system,
    theta_coupling,
)

__all__ = [
    "SOLUTION_CLASSES",
    "classify_exponent",
    "IndicialRoot",
    "IndicialReport",
    "closed_root_multiset",
    "indicial_report",
    "indicial_report_at",
    "exact_indicial_analysis",
    "system_for_mode",
    "root_table_rows",
    "angle_sweep_rows",
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
    """All 2k exponents +-(t + o), sorted: the tests' reference for roots."""
    return sorted(x for o in _OFFSETS[(family, kind)](tuple(names)) for x in (t + o, -(t + o)))


@dataclass(frozen=True)
class IndicialRoot:
    """One exponent: its labels (sign, o), one per exponent of the closed
    multiset it clusters, its named eigenvectors, and branch flags."""

    value: float
    labels: tuple
    vectors: tuple

    @property
    def multiplicity(self) -> int:
        return len(self.labels)

    @property
    def nullity(self) -> int:
        return len(self.vectors)

    @property
    def log_required(self) -> bool:
        return self.nullity < self.multiplicity

    @property
    def in_l2(self) -> bool:
        return classify_exponent(self.value, False)["l2"]

    @property
    def in_l12(self) -> bool:
        return classify_exponent(self.value, self.log_required)["l12"]

    def branches(self, solution_class: str) -> list:
        """(kind, seed vector) of each local solution at this exponent that
        the class admits: a log-free "power" branch per eigenvector, and,
        when a log is required, a "log" branch per eigenvector.  Logs occur
        only at kappa = 0, where both signs of each o meet, so the log
        branches fill the multiplicity exactly.  A class outside
        `SOLUTION_CLASSES` raises ValueError."""
        if solution_class not in SOLUTION_CLASSES:
            raise ValueError(f"unknown solution class {solution_class!r}; "
                             f"expected one of {SOLUTION_CLASSES}")
        out = []
        if classify_exponent(self.value, False)[solution_class]:
            out += [("power", vec) for vec in self.vectors]
        if self.log_required and classify_exponent(self.value, True)[solution_class]:
            out += [("log", vec) for vec in self.vectors]
        return out


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
        """The root nearest to `value`; KeyError when none is within tol."""
        nearest = min(self.roots, key=lambda root: abs(root.value - value))
        if not abs(nearest.value - value) <= tol:
            raise KeyError(f"no indicial root near {value}")
        return nearest

    @property
    def has_log_root(self) -> bool:
        return any(r.log_required for r in self.roots)


@functools.lru_cache(maxsize=None)
def _labels(family: str, kind: str, names: tuple) -> tuple:
    """(sign, o) of each exponent sign (t + o), in `_OFFSETS` order, +1 first."""
    return tuple((sign, o) for o in _OFFSETS[(family, kind)](names) for sign in (1, -1))


def _clusters(family: str, kind: str, names: tuple, t):
    """(value, labels) of each distinct exponent at a snapped t, descending.
    A value is the first of its labels' exponents, so kappa = 0 is +0.0."""
    groups = {}  # an update keeps the first key of equal values
    for label in _labels(family, kind, names):
        value = label[0] * (t + label[1])
        groups[value] = groups.get(value, ()) + (label,)
    return sorted(groups.items(), reverse=True)


@functools.lru_cache(maxsize=None)
def _eigenbasis(family: str, kind: str, names: tuple):
    """O's eigenbasis in the frame, read-only: the offset o of each column,
    and V, whose columns stack E(o) over the distinct o in `_OFFSETS` order,
    each E(o) the last count(o) right singular vectors of O - oI."""
    k, O = len(names), theta_coupling(family, names)
    counts = Counter(_OFFSETS[(family, kind)](names))  # in `_OFFSETS` order
    V = np.concatenate([np.linalg.svd(O - o * np.eye(k))[2][k - c:]
                        for o, c in counts.items()]).T
    basis = np.repeat(list(counts), list(counts.values())), V
    for x in basis:
        x.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=None)
def _vectors(family: str, kind: str, names: tuple, labels: tuple) -> tuple:
    """A root's vectors: E(o) named (conj(d) v) over its labels' distinct o."""
    offsets, V = _eigenbasis(family, kind, names)
    named = list(zip(offsets.tolist(),
                     (V.T * _frame(family, names).conj()).astype(complex).tolist()))
    return tuple(tuple(v) for o in dict.fromkeys(o for _, o in labels)
                 for p, v in named if p == o)


def indicial_report_at(family: str, kind: str, names, t) -> IndicialReport:
    """The report at frequency t: the labels clustered at the snapped t
    (`_clusters`), each root with its labels and vectors (`_vectors`)."""
    names = tuple(names)
    return IndicialReport(family, kind, names, t, tuple(
        IndicialRoot(float(value), labels, _vectors(family, kind, names, labels))
        for value, labels in _clusters(family, kind, names, _snap(t))))


def indicial_report(system: ModeSystem) -> IndicialReport:
    """The report of one system's key (see `indicial_report_at`)."""
    return indicial_report_at(system.family, system.kind, system.names,
                              system.mode.p * system.gamma)


# ---------------------------------------------------------------------------
# exact rational certification


def _exact_w0(family: str, kind: str, names, t: Fraction):
    """W0 at rational t in the real frame of `ModeSystem`, as Fraction rows.

    Typed by hand from the block formulas, not read off the pencil: W0 is a
    direct sum of the scalar block t^2, the pair block [[1 + t^2, 2t],
    [2t, 1 + t^2]] and, for tensor kinds A and B, the block of (f, g, h).
    """
    s = t * t
    scalar = [[s]]
    pair = [[1 + s, 2 * t], [2 * t, 1 + s]]
    triple = [[s + 2, -2, 2 * t], [-2, s + 2, -2 * t], [4 * t, -4 * t, s + 4]]
    if family == "oneform":
        blocks = {"A": [pair, scalar], "B": [pair], "C": [scalar]}[kind]
    else:
        blocks = {"A": [triple, pair, scalar] + [scalar] * ("k2" in names),
                  "B": [triple, scalar],
                  "C": [pair] + [scalar] * ("k3" in names),
                  "D": [scalar]}[kind]
    k = len(names)
    w0 = [[Fraction(0)] * k for _ in range(k)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            w0[at + i][at:at + len(row)] = map(Fraction, row)
        at += len(block)
    return w0


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

    The roots and multiplicities are the report's clusters (`_clusters`) at
    the Fraction t; each W0 - kappa^2 I is ranked in the real frame
    (`_exact_w0`), similar to the named matrix over Q(i).  A t within the
    merge tolerance of a half-integer is certified at that half-integer.
    """
    names, t = tuple(names), _snap(Fraction(t))
    w0 = _exact_w0(family, kind, names, t)
    out = []
    for kappa, labels in _clusters(family, kind, names, t):
        shifted = [[x - kappa * kappa if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(w0)]
        nullity = len(w0) - _rank(shifted)
        out.append((kappa, len(labels), nullity, nullity < len(labels)))
    return out


# ---------------------------------------------------------------------------
# systems by family


def system_for_mode(model: ConeModel, mode: Mode, family: str) -> ModeSystem:
    """The reduced system a mode generates in a family."""
    if family == "oneform":
        return oneform_system(model, mode)
    return tensor_system(model, mode)


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
    # + 0.0 prints a zero part of either sign as 0
    return "|".join(f"{c.real + 0.0:.12g}{c.imag + 0.0:+.12g}j" for c in v)


def _table_entries(model: ConeModel, modes, families) -> list:
    """(family, p, kind, names, leading cells family to lambda_like) per row
    group of the tables over `families`; one-forms carry no TT mode."""
    entries = []
    for family in families:
        for mode in modes:
            if not (family == "oneform" and isinstance(mode, TTMode)):
                kind = mode_kind(mode, family)
                lead = [family, kind, str(mode.p), f"{_mode_eigdata(mode):.12g}"]
                names = system_names(family, model.n, mode)
                entries.append((family, mode.p, kind, names, lead))
    return entries


def _root_cells(report: IndicialReport, full: bool = True) -> list:
    """Per root, the table columns kappa, multiplicity and log_required,
    then, when full, in_l2, in_l12 and the vectors: every column that
    depends on the report alone."""
    return [[f"{root.value:.12g}",
             str(root.multiplicity),
             str(root.log_required).lower()]
            + ([str(root.in_l2).lower(),
                str(root.in_l12).lower(),
                ";".join(_format_vector(v) for v in root.vectors)] if full else [])
            for root in report.roots]


def root_table_rows(model: ConeModel, modes, family: str):
    """Header and rows of the indicial root table over a mode list, each
    distinct key reported once (the modes m = +-1 of a circle share one)."""
    cells, rows = {}, []  # key -> root columns
    for _, p, kind, names, lead in _table_entries(model, modes, [family]):
        key = (family, kind, names, p * model.gamma)
        if key not in cells:
            cells[key] = _root_cells(indicial_report_at(*key))
        rows.extend(lead + root for root in cells[key])
    return list(_TABLE_HEADER), rows


def angle_sweep_rows(model: ConeModel, modes, families, angles):
    """Header and lines of the root table swept over cone angles.

    Each line is one row's cells joined by ",": the angle, then the first
    seven columns of the `root_table_rows` row at that angle, with no branch
    classes and no vectors.  A report depends only on (family, kind, names,
    t = p gamma), so each distinct key is reported, and its root cells
    joined, once per call, however many modes and angles share it; each row
    group's leading cells are joined once per call too.
    """
    entries = [(family, p, kind, names, ",".join(lead))
               for family, p, kind, names, lead in _table_entries(model, modes, families)]
    cells = {}  # key -> one string of root columns per root, for this call only
    lines = []
    for alpha in angles:
        gamma, label = replace(model, alpha=float(alpha)).gamma, f"{alpha:.12g},"
        for family, p, kind, names, lead in entries:
            key = (family, kind, names, p * gamma)
            if key not in cells:
                report = indicial_report_at(*key)
                cells[key] = [",".join(root) for root in _root_cells(report, full=False)]
            prefix = f"{label}{lead},"
            lines.extend([prefix + root for root in cells[key]])
    return ["angle"] + _TABLE_HEADER[:7], lines
