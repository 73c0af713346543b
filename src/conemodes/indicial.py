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
how the log locus is certified on a parameter grid; both read the real W0 of
the frame of `ModeSystem`.  Roots can meet only at a half-integer t, so both
paths take a t within the merge tolerance 1e-9 (|t| + 3) of a half-integer at
that half-integer.

The float path is batched: `indicial_reports` stacks the shifted matrices
W0 - kappa^2 I of any number of systems, one per distinct kappa^2, and takes
the null vectors of each arity from one SVD call.  Every system is built at
the snapped t, so its matrices need no wider rank cut.  W0 depends on the
mode only through (family, kind, component names, t = p gamma), the key of a
report: not on the cross-section eigenvalue and not on n.  `angle_sweep_rows`
reports each key once per sweep.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from conemodes.geometry import ConeModel
from conemodes.modes import CoclosedMode, Mode, ScalarMode, TTMode
from conemodes.reduction import (
    ModeSystem,
    _snap,
    mode_kind,
    oneform_system,
    system_names,
    tensor_system,
)

__all__ = [
    "SOLUTION_CLASSES",
    "classify_exponent",
    "IndicialRoot",
    "IndicialReport",
    "indicial_matrix",
    "closed_root_multiset",
    "indicial_report",
    "indicial_reports",
    "exact_indicial_analysis",
    "angle_admissibility",
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
    """One exponent: its det multiplicity, named eigenvectors, and branch flags."""

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
        """The root nearest to `value`; KeyError when none is within tol."""
        nearest = min(self.roots, key=lambda root: abs(root.value - value))
        if not abs(nearest.value - value) <= tol:
            raise KeyError(f"no indicial root near {value}")
        return nearest

    @property
    def has_log_root(self) -> bool:
        return any(r.log_required for r in self.roots)


# rank cut of `null_space`: singular values below max(1e-10 s_max, 1e-12)
# are null
_NULL_RTOL = 1e-10


def null_space(matrices: np.ndarray):
    """Null vectors of each matrix of an (N, k, k) stack, from one SVD call."""
    _, s, vh = np.linalg.svd(matrices)
    cut = np.maximum(s[:, :1] * _NULL_RTOL, 1e-12)
    null = s < cut
    return tuple(tuple(tuple(np.conj(v)) for v, z in zip(rows, mask) if z)
                 for rows, mask in zip(vh, null))


def _root_clusters(family: str, kind: str, names, t):
    """Distinct exponents at a snapped t, descending, with multiplicities."""
    counts = Counter(closed_root_multiset(family, kind, tuple(names), t))
    return sorted(counts.items(), reverse=True)


def indicial_reports(systems) -> list:
    """One report per system, in order: the closed-form exponent multiset
    clustered at the snapped t, with eigenvectors attached.

    The matrix W0 - kappa^2 I depends on kappa only through kappa^2, so each
    system stacks one matrix per distinct square, and +kappa and -kappa
    share its null vectors; the matrices of all systems of one arity go
    through one `null_space` call, one SVD per distinct kappa^2.  Each
    system's pencil is built at the snapped t (see `oneform_system`), where
    the clustered roots are exact.  The matrices are framed and real; their
    null vectors v are handed out named, as conj(d) v.
    """
    systems = list(systems)
    ts = [s.mode.p * s.gamma for s in systems]
    clusters = [_root_clusters(s.family, s.kind, s.names, _snap(t))
                for s, t in zip(systems, ts)]
    by_arity = {}
    for i, system in enumerate(systems):
        by_arity.setdefault(system.arity, []).append(i)
    nulls = [None] * len(systems)
    for k, members in by_arity.items():
        squares = [list(dict.fromkeys(value ** 2 for value, _ in clusters[i]))
                   for i in members]
        found = iter(null_space(np.concatenate(
            [systems[i].w0 - np.array(sq)[:, None, None] * np.eye(k)
             for i, sq in zip(members, squares)])))
        for i, sq in zip(members, squares):
            named = [complex(x) for x in systems[i].frame.conj()]
            by_square = {square: tuple(tuple(map(complex.__mul__, named, v)) for v in vecs)
                         for square, vecs in zip(sq, found)}
            nulls[i] = [by_square[value ** 2] for value, _ in clusters[i]]
    return [IndicialReport(s.family, s.kind, s.names, t,
                           tuple(IndicialRoot(float(value), mult, vecs, len(vecs) < mult)
                                 for (value, mult), vecs in zip(cluster, null)))
            for s, t, cluster, null in zip(systems, ts, clusters, nulls)]


def indicial_report(system: ModeSystem) -> IndicialReport:
    """The report of one system (see `indicial_reports`)."""
    return indicial_reports([system])[0]


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

    W0 - kappa^2 I is ranked in the real frame (`_exact_w0`), similar to the
    named matrix over Q(i).  A t within the merge tolerance of a half-integer
    is certified at that half-integer, as `indicial_report` clusters it.
    """
    t = _snap(Fraction(t))
    w0 = _exact_w0(family, kind, tuple(names), t)
    out = []
    for kappa, mult in _root_clusters(family, kind, names, t):
        shifted = [[x - kappa * kappa if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(w0)]
        nullity = len(w0) - _rank(shifted)
        out.append((kappa, mult, nullity, nullity < mult))
    return out


# ---------------------------------------------------------------------------
# admissibility at a given cone angle


def system_for_mode(model: ConeModel, mode: Mode, family: str) -> ModeSystem:
    """The reduced system a mode generates, block kind inferred."""
    kind = mode_kind(mode, family)
    if family == "oneform":
        return oneform_system(model, mode, kind)
    return tensor_system(model, mode, kind)


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
    # + 0.0 prints a zero part of either sign as 0
    return "|".join(f"{c.real + 0.0:.12g}{c.imag + 0.0:+.12g}j" for c in v)


def _table_modes(modes, family: str):
    """The modes a family's table covers: one-forms carry no TT mode."""
    return [mode for mode in modes
            if not (family == "oneform" and isinstance(mode, TTMode))]


def _mode_cells(family: str, kind: str, mode: Mode) -> list:
    """The leading table columns, family to lambda_like."""
    return [family, kind, str(mode.p), f"{_mode_eigdata(mode):.12g}"]


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
    """Header and rows of the indicial root table over a mode list."""
    systems = [system_for_mode(model, mode, family)
               for mode in _table_modes(modes, family)]
    rows = [_mode_cells(family, system.kind, system.mode) + cells
            for system, report in zip(systems, indicial_reports(systems))
            for cells in _root_cells(report)]
    return list(_TABLE_HEADER), rows


def angle_sweep_rows(model: ConeModel, modes, families, angles):
    """Header and rows of the root table swept over cone angles.

    Each row is the angle, then the first seven columns of the
    `root_table_rows` row at that angle: no branch classes, no vectors.  A
    report depends only on (family, kind, names, t = p gamma), so each
    distinct key is reported once per call, however many modes and angles
    share it; the keys first met at one angle are reported together.
    """
    entries = []
    for family in families:
        for mode in _table_modes(modes, family):
            kind = mode_kind(mode, family)
            entries.append((family, mode, kind, system_names(family, kind, model.n, mode),
                            _mode_cells(family, kind, mode)))
    cells = {}  # key -> root columns, for this call only
    rows = []
    for alpha in angles:
        at = replace(model, alpha=float(alpha))
        keys = [(family, kind, names, mode.p * at.gamma)
                for family, mode, kind, names, _ in entries]
        fresh = {}
        for key, (family, mode, *_) in zip(keys, entries):
            if key not in cells and key not in fresh:
                fresh[key] = system_for_mode(at, mode, family)
        for key, report in zip(fresh, indicial_reports(fresh.values())):
            cells[key] = _root_cells(report, full=False)
        label = f"{alpha:.12g}"
        rows.extend([label] + lead + root
                    for key, (*_, lead) in zip(keys, entries) for root in cells[key])
    return ["angle"] + _TABLE_HEADER[:7], rows
