"""Independent coordinate tensor calculus on the explicit three-dimensional tube.

Everything here lives in the chart (r, theta, s) with metric
diag(1, sinh^2 r, cosh^2 r): Christoffel symbols, curvature and all
operators come from that metric by the textbook Levi-Civita sums, never
from the mode-reduced radial systems. Agreement between the two routes is
established by the test suite, not assumed.

Fields keep the single-mode structure profile(r) * exp(i(p*gamma*theta + k*s)),
so angular derivatives are exact multiplications. A field is one dense jet
tensor (levels x chart.dim^rank components x radii): a leaf reads its
components' `geometry.RadialProfile` jets, so a reduced block's profiles
enter as they are, and each operator is one node over the dense jets of its
operands and of the chart. `TubeChart.at(r)`, the chart on one radius grid,
holds its dense metric, connection and curvature arrays; a suite or a
quadrature builds one per grid and evaluates all its fields on it.

A reduced one-form or tensor mode block enters as `block_field` and comes
back as `block_components`; both read one table, `_SLOTS`, which names the
coordinate slot and the constant times sh^a ch^b that carry each component.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from conemodes.geometry import (ConeModel, DomainError, RadialProfile, gauss_legendre,
                                jet_reciprocal, leibniz)

__all__ = [
    "TubeChart",
    "ChartGrid",
    "OracleField",
    "christoffel_coords",
    "covariant_derivative",
    "adjoint_divergence",
    "rough_laplacian",
    "codifferential",
    "exterior_d",
    "delta_star",
    "trace",
    "bianchi_beta",
    "ricci_action",
    "d_nabla",
    "delta_nabla",
    "apply_L_coords",
    "apply_P_coords",
    "linearized_einstein",
    "metric_field",
    "scalar_field",
    "block_field",
    "block_components",
    "tube_inner_product",
    "tube_norm",
    "cross_section_normalizer",
    "bump_chain",
    "poly_chain",
    "fd_chain",
    "energy_ratios",
    "identity_suite",
]


def _trig_chain(start: int, depth: int = 8) -> RadialProfile:
    # start 0 -> sinh, 1 -> cosh; the chain alternates
    fns = [(np.sinh if (start + k) % 2 == 0 else np.cosh) for k in range(depth + 1)]
    return RadialProfile(*[lambda r, f=f: f(np.asarray(r, dtype=float)).astype(complex)
                          for f in fns])


_SH = _trig_chain(0)
_CH = _trig_chain(1)


def poly_chain(coeffs, depth: int = 5) -> RadialProfile:
    """Polynomial radial profile from ascending coefficients."""
    c = np.asarray(coeffs, dtype=complex)
    fns = []
    for _ in range(depth + 1):
        fns.append(lambda r, c=c.copy(): npoly.polyval(np.asarray(r, dtype=float), c))
        c = npoly.polyder(c) if len(c) > 1 else np.zeros(1, dtype=complex)
    return RadialProfile(*fns)


def bump_chain(inner: float, outer: float, order: int = 4,
               amplitude: complex = 1.0, depth: int = 5) -> RadialProfile:
    """Compactly supported polynomial bump on (inner, outer), C^(order-1)."""
    if not 0 <= inner < outer:
        raise ValueError("need 0 <= inner < outer")
    x = npoly.polyfromroots([0.0] * order + [1.0] * order)  # x^k (x-1)^k
    c = x * amplitude * (-1) ** order * 4.0 ** order  # peak height |amplitude|
    scale = 1.0 / (outer - inner)
    fns = []
    for k in range(depth + 1):
        def call(r, c=c.copy(), k=k):
            r = np.asarray(r, dtype=float)
            u = (r - inner) * scale
            vals = npoly.polyval(u, c) * scale ** k
            return np.where((u > 0) & (u < 1), vals, 0.0).astype(complex)
        fns.append(call)
        c = npoly.polyder(c)
    return RadialProfile(*fns)


def _central_differences(values: Callable, r, step: float, m: int) -> np.ndarray:
    """Levels 0..m <= 3 at the radii r by O(step^2) central differences of one
    `values` call on r + i*step stacked first: i = 0, then 1, -1, then 2, -2."""
    h, n = step, 1 if m == 0 else 3 if m < 3 else 5
    f = values(r + h * np.array([0.0, 1.0, -1.0, 2.0, -2.0][:n]).reshape((n,) + (1,) * r.ndim))
    levels = [f[0]]
    if m >= 1:
        levels.append((f[1] - f[2]) / (2 * h))
    if m >= 2:
        levels.append((f[1] - 2 * f[0] + f[2]) / h ** 2)
    if m >= 3:
        levels.append((f[3] - 2 * f[1] + 2 * f[2] - f[4]) / (2 * h ** 3))
    return np.array(levels)


def fd_chain(fn: Callable, step: float, depth: int = 3) -> RadialProfile:
    """Derivative chain built by central differences of a value closure.

    The secondary verification path: all radial derivatives are O(step^2)
    finite differences, so identity residuals shrink at second order.  A jet
    calls `fn` once, through the stencil the finite-difference chart uses too
    (`_central_differences`); a chain's value is read from a sub-memo of the
    jet's memo, so fd chains of one graph evaluated together share it.
    """
    if depth > 3:
        raise ValueError("finite-difference chain supports depth <= 3")
    prof = fn if isinstance(fn, RadialProfile) else RadialProfile(fn)

    def node(r, m, memo):
        def values(rs):
            return prof.jet(rs, 0, memo.setdefault(("fd", step, len(rs)), {}))[0].astype(complex)
        return _central_differences(values, np.asarray(r, dtype=float), step, m)

    return RadialProfile(node=node, depth=depth)


# ---------------------------------------------------------------------------
# the chart: metric, connection and curvature by the Levi-Civita sums


def _diagonal_matrix(d) -> np.ndarray:
    """The jet [:, a, b] of a diagonal matrix from its diagonal [:, a]."""
    out = np.zeros(d.shape[:2] + d.shape[1:], d.dtype)
    out[:, range(d.shape[1]), range(d.shape[1])] = d
    return out


def _gradient(t) -> np.ndarray:
    """d_e of a chart jet at [:, e]: the shifted jet at e = r, else 0."""
    out = np.zeros((len(t) - 1, t.shape[1]) + t.shape[1:], t.dtype)
    out[:, 0] = t[1:]
    return out


def _permuted(t, *perm):
    """A dense jet with index s of the result read from slot perm[s] of t."""
    n = len(perm)
    return t.transpose((0,) + tuple(1 + p for p in perm) + tuple(range(1 + n, t.ndim)))


def _levi_civita(r, m: int, name: str) -> np.ndarray:
    """Levels 0..m of the chart table `name` (see `ChartGrid`) in long double:
    near the axis R_0101 = -sinh^2 r cancels terms of size cosh^2 r, which in
    float64 costs verify up to 0.7 accuracy digits.  g is diagonal, so a sum
    over an index of g or g^-1 keeps one term; the k sum runs in order."""
    x = np.asarray(r, dtype=np.longdouble)
    levels = m + 1 + {"gam": 1, "riem_low": 2}.get(name, 0)  # Gamma, R take derivatives
    s, c = np.sinh(x), np.cosh(x)
    sh = np.array([(s, c)[k % 2] for k in range(levels)])
    ch = np.array([(c, s)[k % 2] for k in range(levels)])
    one = np.array([np.full_like(s, k == 0) for k in range(levels)])
    g = np.stack([one, leibniz(sh, sh), leibniz(ch, ch)], axis=1)
    ginv = jet_reciprocal(g)
    if name in ("g", "ginv"):
        return g if name == "g" else ginv
    # Gamma^a_bc = 1/2 g^aa (d_b g_ac + d_c g_ab - d_a g_bc)
    dg = _gradient(_diagonal_matrix(g))
    gam = 0.5 * leibniz(ginv[:, :, None, None],
                        _permuted(dg, 1, 0, 2) + _permuted(dg, 1, 2, 0) - dg)
    if name == "gam":
        return gam
    # R^a_bcd = d_c Gamma^a_db + sum_k Gamma^a_ck Gamma^k_db, less each term with c
    # and d swapped; one a at a time, which bounds the memory
    dgam, gam, dim = _gradient(gam), gam[:-1], len(g[0])
    low = []
    for a in range(dim):
        d = _permuted(dgam[:, :, a], 2, 0, 1)  # [:, b, c, d]
        quad = (leibniz(gam[:, a, None, :, None, k], gam[:, k].swapaxes(1, 2)[:, :, None])
                for k in range(dim))
        riem = d - d.swapaxes(2, 3) + sum(q - q.swapaxes(2, 3) for q in quad)
        low.append(leibniz(g[:, a, None, None, None], riem))  # R_abcd = g_aa R^a_bcd
    return np.stack(low, axis=1)


class ChartGrid:
    """The chart's dense jet tables on one radius grid.

    `jet(name, m)` is levels 0..m of a table, shape (m+1,) + indices + r.shape:
    "g" and "ginv" are the diagonals g_aa and g^aa [:, a], "gam" is Gamma^c_ab
    [:, c, a, b], "riem_low" R_abcd and "curv" [:, a, c, b, d] R_acbd g^cc g^dd.
    A table is computed when first read and again only for a deeper level.
    """

    def __init__(self, chart: "TubeChart", r):
        self.chart, self.r, self._tables = chart, r, {}

    def jet(self, name: str, m: int) -> np.ndarray:
        have = self._tables.get(name)
        if have is None or len(have) <= m:
            if m > self.chart.depth:
                raise ValueError(f"jet level {m} is past the chart's depth {self.chart.depth}")
            have = self._tables[name] = self._build(name, m)
        return have[:m + 1]

    def _build(self, name: str, m: int) -> np.ndarray:
        if name == "curv":
            ginv = self.jet("ginv", m)
            return leibniz(leibniz(self._build("riem_low", m), ginv[:, None, :, None, None]),
                           ginv[:, None, None, None, :])
        if self.chart.fd_step is None:
            return _levi_civita(self.r, m, name).astype(complex)
        # the level-0 table on the stacked shifted radii, differenced
        return _central_differences(
            lambda rs: np.moveaxis(_levi_civita(rs, 0, name)[0].astype(complex),
                                   -1 - self.r.ndim, 0), self.r, self.chart.fd_step, m)


@dataclass(frozen=True)
class TubeChart:
    """Coordinate chart (r, theta, s) on the tube of an n = 3 model.

    `at(r)` is the chart on one radius grid.  Fields on it carry at most
    `depth` levels: 6, or 3 with `fd_step` set, when every radial derivative
    of the chart tables is an O(step^2) central difference and mode fields
    should use `fd_chain` profiles, so the whole pipeline sits on that path.
    """

    model: ConeModel
    fd_step: Optional[float] = None

    def __post_init__(self):
        if self.model.n != 3:
            raise ValueError("the coordinate chart exists only at n = 3")
        cs = self.model.cross_section
        if cs is None or cs.kind != "circle":
            raise ValueError("the coordinate chart needs a circle cross-section")

    @property
    def dim(self) -> int:
        return self.model.n

    @property
    def gamma(self) -> float:
        return self.model.gamma

    @property
    def angle(self) -> float:
        return self.model.alpha

    @property
    def length(self) -> float:
        return self.model.cross_section.length

    @property
    def depth(self) -> int:
        """Deepest jet level that the chart serves and fields on it carry."""
        return 6 if self.fd_step is None else 3

    def at(self, r) -> ChartGrid:
        """The chart on the radii r, of any shape.  With `fd_step` set the
        stencil reads r - 2 fd_step, so every r must exceed 2 fd_step."""
        r = np.asarray(r, dtype=float)
        if not np.all(r > 0):
            raise DomainError("coordinate radius must be positive")
        if self.fd_step is not None and not np.all(r > 2 * self.fd_step):
            raise DomainError("finite-difference stencil needs radii above 2 * fd_step")
        return ChartGrid(self, r)

    def metric(self, r):
        return _diagonal_matrix(self.at(r).jet("g", 0))[0]

    def inverse_metric(self, r):
        return _diagonal_matrix(self.at(r).jet("ginv", 0))[0]

    def ricci(self, r):
        """Ric_bd = g^aa R_abad, summed over a in order."""
        grid = self.at(r)
        low, ginv = grid.jet("riem_low", 0)[0], grid.jet("ginv", 0)[0]
        return sum(ginv[a] * low[a, :, a] for a in range(self.dim))


def _on_grid(chart: TubeChart, r) -> ChartGrid:  # r itself, or the chart on radii r
    return r if isinstance(r, ChartGrid) else chart.at(np.atleast_1d(r))


def christoffel_coords(chart: TubeChart, r):
    """All Christoffel symbols, Gamma^c_ab at [c, a, b], shape (dim,)*3 + r.shape."""
    return chart.at(r).jet("gam", 0)[0]


# ---------------------------------------------------------------------------
# mode fields


@dataclass
class OracleField:
    """Single-mode tensor field: a dense radial jet times a fixed phase.

    A leaf maps index tuples to radial profiles; an operator node holds
    node(grid, m, memo), the field's jet from its operands' jets and the
    `ChartGrid` tables.  `dense(grid, m, memo)` gives levels 0..m <= depth of
    every component as one array of shape (m+1,) + (dim,)*rank + grid.r.shape,
    kept in the memo (one per grid) under the field.  The phase
    exp(i(angular*theta + axial*s)) is common to every component, so theta
    and s derivatives are exact multiplications.
    """

    chart: TubeChart
    rank: int
    components: Mapping[tuple, RadialProfile] = field(default_factory=dict)
    angular: float = 0.0
    axial: float = 0.0
    node: Optional[Callable] = None
    depth: Optional[int] = field(init=False, default=None)

    def __post_init__(self):
        for idx in self.components:
            if len(idx) != self.rank or not all(0 <= i < self.chart.dim for i in idx):
                raise ValueError(f"bad component index {idx} for rank {self.rank}")
        self.depth = min((p.depth for p in self.components.values()
                          if not p.is_zero), default=self.chart.depth)

    def dense(self, grid: ChartGrid, m: int, memo: dict) -> np.ndarray:
        have = memo.get(id(self))
        if have is None or len(have) <= m:
            if m > self.depth:
                raise ValueError(f"jet level {m} is past the field's depth {self.depth}")
            if self.node is not None:
                have = self.node(grid, m, memo)
            else:
                have = np.zeros((m + 1,) + (grid.chart.dim,) * self.rank + grid.r.shape,
                                dtype=complex)
                for idx, prof in self.components.items():
                    if not prof.is_zero:
                        have[(slice(None),) + idx] = prof.jet(grid.r, m, memo)
            memo[id(self)] = have
        return have[:m + 1]

    def values(self, r, memo: Optional[dict] = None):
        """Radial coefficients at the radii or `ChartGrid` r; phase excluded."""
        return self.dense(_on_grid(self.chart, r), 0, {} if memo is None else memo)[0].copy()

    def evaluate(self, r, theta: float = 0.0, s: float = 0.0):
        phase = np.exp(1j * (self.angular * theta + self.axial * s))
        return self.values(r) * phase

    def _node(self, node, depth: int, rank: Optional[int] = None,
              angular: Optional[float] = None,
              axial: Optional[float] = None) -> "OracleField":
        """A node of this field's rank and mode unless given, capped at the chart's depth."""
        out = OracleField(self.chart, self.rank if rank is None else rank,
                          angular=self.angular if angular is None else angular,
                          axial=self.axial if axial is None else axial, node=node)
        out.depth = min(depth, self.chart.depth)
        return out

    def _map(self, fn, *others, **overrides) -> "OracleField":
        """The node fn(jet of self, jets of others), level by level; the
        `overrides` (rank, angular, axial) go on to `_node`."""
        fields = (self,) + others
        return self._node(lambda grid, m, memo: fn(*[f.dense(grid, m, memo) for f in fields]),
                          min(f.depth for f in fields), **overrides)

    def __neg__(self):
        return self._map(np.negative)

    def __rmul__(self, c: complex):
        return self._map(lambda t: c * t)

    def __add__(self, other: "OracleField"):
        if (self.rank != other.rank or self.angular != other.angular
                or self.axial != other.axial):
            raise ValueError("can only add fields of the same rank and mode")
        return self._map(np.add, other)

    def __sub__(self, other: "OracleField"):
        return self + (-other)

    def __mul__(self, other: "OracleField"):
        if self.rank != 0:
            raise ValueError("only rank-0 fields multiply other fields")
        return self._map(lambda s, t: leibniz(
            s.reshape(s.shape[:1] + (1,) * other.rank + s.shape[1:]), t), other,
            rank=other.rank, angular=self.angular + other.angular,
            axial=self.axial + other.axial)


def scalar_field(chart: TubeChart, profile: RadialProfile,
                 angular: float = 0.0, axial: float = 0.0) -> OracleField:
    return OracleField(chart, 0, {(): profile}, angular, axial)


def metric_field(chart: TubeChart) -> OracleField:
    return OracleField(chart, 2,
                       node=lambda grid, m, memo: _diagonal_matrix(grid.jet("g", m)))


# ---------------------------------------------------------------------------
# operators: one dense node each


def covariant_derivative(fld: OracleField) -> OracleField:
    """Levi-Civita derivative; the new index comes first."""
    if fld.rank > 3:
        raise ValueError("covariant derivative supports rank <= 3 inputs")
    if fld.depth < 1:
        raise ValueError("derivative chain exhausted")

    def node(grid, m, memo):
        t = fld.dense(grid, m + 1, memo)
        gam, dim = grid.jet("gam", m), grid.chart.dim
        out = np.stack([t[1:], (1j * fld.angular) * t[:-1], (1j * fld.axial) * t[:-1]],
                       axis=1)
        # subtract Gamma^c_(a, idx_i) T(idx with c in slot i), in the order (i, c)
        for i in range(fld.rank):
            g = gam.reshape((m + 1, dim, dim) + (1,) * i + (dim,)
                            + (1,) * (fld.rank - 1 - i) + grid.r.shape)
            src = np.moveaxis(t[:-1], 1 + i, 1)
            for c in range(dim):
                out -= leibniz(g[:, c], np.expand_dims(src[:, c], (1, 2 + i)))
        return out

    return fld._node(node, fld.depth - 1, fld.rank + 1)


def _contract(fld: OracleField, sign: int) -> OracleField:
    """sign * g^aa fld_aa..., summed over a in order."""
    def node(grid, m, memo):
        t = fld.dense(grid, m, memo)
        ginv = grid.jet("ginv", m)
        out = np.zeros_like(t[:, 0, 0])
        for a in range(grid.chart.dim):
            term = leibniz(ginv[:, a].reshape(out.shape[:1] + (1,) * (fld.rank - 2)
                                              + grid.r.shape), t[:, a, a])
            out += term if sign > 0 else -term
        return out

    return fld._node(node, fld.depth, fld.rank - 2)


def adjoint_divergence(fld: OracleField) -> OracleField:
    """Formal adjoint of the gradient: contracts away the first index."""
    if fld.rank < 1:
        raise ValueError("needs at least one index")
    return _contract(covariant_derivative(fld), -1)


def rough_laplacian(fld: OracleField) -> OracleField:
    return adjoint_divergence(covariant_derivative(fld))


def codifferential(fld: OracleField) -> OracleField:
    """Divergence-type codifferential on forms and symmetric tensors."""
    return adjoint_divergence(fld)


def exterior_d(fld: OracleField) -> OracleField:
    if fld.rank > 2:
        raise ValueError("exterior derivative implemented for rank <= 2")
    D = covariant_derivative(fld)
    if fld.rank == 0:
        return D
    if fld.rank == 1:
        return D._map(lambda t: t - _permuted(t, 1, 0))
    return D._map(lambda t: t + _permuted(t, 2, 0, 1) + _permuted(t, 1, 2, 0))


def delta_star(oneform: OracleField) -> OracleField:
    """Symmetrized gradient of a one-form."""
    if oneform.rank != 1:
        raise ValueError("needs a one-form")
    return covariant_derivative(oneform)._map(lambda t: 0.5 * (t + _permuted(t, 1, 0)))


def trace(fld: OracleField) -> OracleField:
    if fld.rank != 2:
        raise ValueError("trace is defined on rank-2 fields")
    return _contract(fld, 1)


def bianchi_beta(h: OracleField) -> OracleField:
    """Divergence plus half the gradient of the trace."""
    if h.rank != 2:
        raise ValueError("needs a symmetric 2-tensor")
    return codifferential(h) + 0.5 * exterior_d(trace(h))


def ricci_action(h: OracleField) -> OracleField:
    """Curvature action out_ab = R_acbd g^cc g^dd h_cd, summed over (c, d) in order."""
    if h.rank != 2:
        raise ValueError("needs a rank-2 field")

    def node(grid, m, memo):
        t = h.dense(grid, m, memo)
        terms = leibniz(grid.jet("curv", m), t[:, None, :, None, :])
        out = np.zeros_like(t)
        for c, d in itertools.product(range(grid.chart.dim), repeat=2):
            out += terms[:, :, c, :, d]
        return out

    return h._node(node, h.depth)


def d_nabla(fld: OracleField) -> OracleField:
    """Exterior covariant derivative on cotangent-valued forms.

    Rank 1 is the zero-form case (plain gradient); rank 2 antisymmetrizes
    the derivative index against the first slot, keeping the last slot as
    the value index.
    """
    if fld.rank == 1:
        return covariant_derivative(fld)
    if fld.rank != 2:
        raise ValueError("d_nabla handles rank 1 and 2 inputs")
    return covariant_derivative(fld)._map(lambda t: t - _permuted(t, 1, 0, 2))


def delta_nabla(fld: OracleField) -> OracleField:
    """Adjoint of d_nabla: contracts the leading form index."""
    if fld.rank not in (2, 3):
        raise ValueError("delta_nabla handles rank 2 and 3 inputs")
    return adjoint_divergence(fld)


def apply_L_coords(oneform: OracleField) -> OracleField:
    """Rough Laplacian plus (n - 1) on one-forms, in coordinates."""
    return rough_laplacian(oneform) + float(oneform.chart.dim - 1) * oneform


def apply_P_coords(h: OracleField) -> OracleField:
    """Rough Laplacian minus twice the curvature action, in coordinates."""
    return rough_laplacian(h) - 2.0 * ricci_action(h)


def linearized_einstein(h: OracleField) -> OracleField:
    """Second variation of the normalized Einstein functional."""
    return (rough_laplacian(h) - 2.0 * ricci_action(h)
            - 2.0 * delta_star(bianchi_beta(h)))


# ---------------------------------------------------------------------------
# frame block conversions: one slot table, read both ways
#
# _SLOTS[family, kind] has one row (name, idx, c, a, b) per component: slot idx
# holds c sh^a ch^b times the profile, so the cross-section slots are the
# per-radius orthonormal ones of the radial systems.  A mixed tensor slot is
# the coefficient of a symmetrized product of slot covectors, so it holds 1/2
# of it in each index order; the scalar-gradient slots (omega, sigma, eta)
# carry the i of the axial phase, whose wavenumber is +sqrt(lam).  k2, k3 and
# kind D have no realization on a circle.

_ONEFORM_B = (("f", (0,), 1, 0, 0), ("g", (1,), 1, 1, 0))
_TENSOR_B = (("f", (0, 0), 1, 0, 0), ("g", (1, 1), 1, 2, 0), ("k1", (2, 2), 1, 0, 2),
             ("h", (0, 1), 0.5, 1, 0))
_SLOTS = {
    ("oneform", "A"): _ONEFORM_B + (("omega", (2,), 1j, 0, 1),),
    ("oneform", "B"): _ONEFORM_B,
    ("oneform", "C"): (("varpi", (2,), 1, 0, 1),),
    ("tensor", "A"): _TENSOR_B + (("sigma", (0, 2), 0.5j, 0, 1), ("eta", (1, 2), 0.5j, 1, 1)),
    ("tensor", "B"): _TENSOR_B,
    ("tensor", "C"): (("sigma_bar", (0, 2), 0.5, 0, 1), ("eta_bar", (1, 2), 0.5, 1, 1)),
}


def _slots(family, kind) -> tuple:
    if (family, kind) not in _SLOTS:
        raise ValueError(f"no n = 3 realization for {family} blocks of kind {kind}")
    return _SLOTS[family, kind]


def block_field(chart: TubeChart, block) -> OracleField:
    """Coordinate realization of a one-form or symmetric 2-tensor mode block;
    the components k2 and k3 must be absent or zero."""
    rows = _slots(block.family, block.kind)
    for dead in ("k2", "k3"):
        if not block.component(dead).is_zero:
            raise ValueError(f"component {dead} has no realization on a circle")
    comps = {}
    for name, idx, c, a, b in rows:
        prof = block.component(name)
        if not prof.is_zero:
            comps[idx] = comps[idx[::-1]] = c * (math.prod([_SH] * a + [_CH] * b) * prof)
    axial = math.sqrt(block.mode.lam) if block.kind == "A" else 0.0
    rank = 1 if block.family == "oneform" else 2
    return OracleField(chart, rank, comps, block.mode.p * chart.gamma, axial)


def block_components(fld: OracleField, kind: str, r) -> dict:
    """Frame block components of a coordinate one-form or 2-tensor of the
    given kind, sampled at radii (or on a `ChartGrid` of the field's chart)."""
    rows = _slots({1: "oneform", 2: "tensor"}.get(fld.rank), kind)
    grid = _on_grid(fld.chart, r)
    vals = fld.values(grid)
    sh, ch = np.sinh(grid.r), np.cosh(grid.r)
    return {name: vals[idx] / (c * sh ** a * ch ** b) for name, idx, c, a, b in rows}


# ---------------------------------------------------------------------------
# quadrature


def tube_inner_product(u: OracleField, v: OracleField, inner: float = 0.0,
                       outer: Optional[float] = None, num: int = 160) -> complex:
    """Hermitian tube inner product of two single-mode fields.

    Distinct modes are orthogonal by the exact phase integrals; matching
    modes reduce to a radial Gauss-Legendre quadrature with the volume
    weight sinh(r)cosh(r) and transverse measure angle * length.
    """
    if u.rank != v.rank:
        raise ValueError("rank mismatch")
    if u.angular != v.angular or u.axial != v.axial:
        return 0j
    chart = u.chart
    a = chart.model.tube_radius if outer is None else outer
    x, w = gauss_legendre(num)
    grid = chart.at(0.5 * (a + inner) + 0.5 * (a - inner) * x)
    r, w = grid.r, 0.5 * (a - inner) * w
    memo = {}  # shared, so tube_norm(u) evaluates u once
    uv, vv = u.dense(grid, 0, memo)[0], v.dense(grid, 0, memo)[0]
    ginv = grid.jet("ginv", 0)[0]
    dens = np.zeros_like(r, dtype=complex)
    for idx in itertools.product(range(chart.dim), repeat=u.rank):
        fac = np.ones_like(r, dtype=complex)
        for i in idx:
            fac = fac * ginv[i]
        dens = dens + fac * uv[idx] * np.conj(vv[idx])
    dens = dens * np.sinh(r) * np.cosh(r)
    return complex(np.sum(w * dens) * chart.angle * chart.length)


def tube_norm(u: OracleField, inner: float = 0.0, outer: Optional[float] = None,
              num: int = 160) -> float:
    return math.sqrt(max(tube_inner_product(u, u, inner, outer, num).real, 0.0))


def cross_section_normalizer(model: ConeModel) -> float:
    """Scale giving the boundary cross-section mode phases unit L^2 norm."""
    a = model.tube_radius
    vol = math.sinh(a) * math.cosh(a) * model.alpha * model.cross_section.length
    return 1.0 / math.sqrt(vol)


# ---------------------------------------------------------------------------
# identity suite


def _rel_residual(x: OracleField, y: OracleField, grid: ChartGrid) -> float:
    memo = {}
    xv, yv = x.dense(grid, 0, memo)[0], y.dense(grid, 0, memo)[0]
    scale = np.max(np.abs(xv)) + np.max(np.abs(yv))
    if scale == 0:
        return 0.0
    return float(np.max(np.abs(xv - yv)) / scale)


def _random_oneform(chart, rng, chains):
    return OracleField(chart, 1, {(a,): chains[a] for a in range(chart.dim)},
                       angular=float(rng.integers(0, 4)) * chart.gamma,
                       axial=2 * math.pi * float(rng.integers(-2, 3)) / chart.length)


def _random_tensor(chart, rng, chains):
    comps = {}
    k = 0
    for a in range(chart.dim):
        for b in range(a, chart.dim):
            c = chains[k % len(chains)]
            comps[(a, b)] = c
            if a != b:
                comps[(b, a)] = c
            k += 1
    return OracleField(chart, 2, comps,
                       angular=float(rng.integers(0, 4)) * chart.gamma,
                       axial=2 * math.pi * float(rng.integers(-2, 3)) / chart.length)


def _random_twoform(chart, rng, chains):
    comps = {}
    for k, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
        c = chains[k % len(chains)]
        comps[(a, b)] = c
        comps[(b, a)] = -c
    return OracleField(chart, 2, comps,
                       angular=float(rng.integers(0, 4)) * chart.gamma,
                       axial=2 * math.pi * float(rng.integers(-2, 3)) / chart.length)


def _suite_chains(rng, fd_step, count: int = 3):
    def one():
        p = poly_chain(rng.normal(size=4) + 1j * rng.normal(size=4))
        return p if fd_step is None else fd_chain(p, fd_step)
    return [one() for _ in range(count)]


def _bump_case(rng, model, fd_step, count: int = 3):
    # shared support per case keeps quadrature panels aligned with the
    # piecewise boundary, so Gauss-Legendre stays spectrally accurate
    a = model.tube_radius
    lo = rng.uniform(0.1, 0.35) * a
    hi = rng.uniform(0.6, 0.9) * a
    bump = bump_chain(lo, hi, order=4)
    chains = []
    for _ in range(count):
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        c = bump * poly_chain(coeffs)
        chains.append(c if fd_step is None else fd_chain(c, fd_step))
    return chains, lo, hi


def energy_ratios(chart: TubeChart, rng, n_cases: int) -> list:
    """Rayleigh quotients <P h, h> / |h|^2 of random bump-supported tensors.

    The Einstein operator P is bounded below by n - 2 on compactly supported
    symmetric tensors of the hyperbolic tube; each case draws its support,
    six component chains and the mode phases from `rng`.
    """
    ratios = []
    for _ in range(n_cases):
        chains, lo, hi = _bump_case(rng, chart.model, chart.fd_step, 6)
        h = _random_tensor(chart, rng, chains)
        num = tube_inner_product(apply_P_coords(h), h, lo, hi).real
        ratios.append(num / tube_norm(h, lo, hi) ** 2)
    return ratios


def identity_suite(model: ConeModel, n_cases: int = 50, seed: int = 0,
                   tol: float = 1e-8, fd_step: Optional[float] = None) -> list:
    """Residual report for the operator identities of the hyperbolic tube.

    Differential identities are checked pointwise on random polynomial
    mode fields, all on one chart grid; integral identities use compact bump
    fields and the tube quadrature. Passing `fd_step` swaps every radial
    derivative for an O(step^2) central difference, the secondary path.
    """
    chart = TubeChart(model, fd_step=fd_step)
    rng = np.random.default_rng(seed)
    n = chart.dim
    a = model.tube_radius
    grid = chart.at(np.linspace(0.15 * a, 0.9 * a, 40))
    report = []

    def add(name, cases, residual):
        report.append({"identity": name, "n_cases": cases,
                       "max_rel_residual": float(residual),
                       "pass": bool(residual <= tol)})

    res = 0.0
    for _ in range(n_cases):
        h = _random_tensor(chart, rng, _suite_chains(rng, fd_step, 6))
        lhs = ricci_action(h)
        rhs = h - trace(h) * metric_field(chart)
        res = max(res, _rel_residual(lhs, rhs, grid))
    add("curvature_action_hyperbolic", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        w = _random_oneform(chart, rng, _suite_chains(rng, fd_step))
        lhs = exterior_d(codifferential(w)) + codifferential(exterior_d(w))
        rhs = rough_laplacian(w) - float(n - 1) * w
        res = max(res, _rel_residual(lhs, rhs, grid))
    add("weitzenboeck_oneform", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        w = _random_oneform(chart, rng, _suite_chains(rng, fd_step))
        lhs = 2.0 * bianchi_beta(delta_star(w))
        rhs = rough_laplacian(w) + float(n - 1) * w
        res = max(res, _rel_residual(lhs, rhs, grid))
    add("gauge_composition_oneform", n_cases, res)

    res = 0.0
    cases = max(4, n_cases // 10)
    for _ in range(cases):
        chains, lo, hi = _bump_case(rng, model, fd_step)
        w = _random_oneform(chart, rng, chains)
        # two-form norms here contract both index slots, so the
        # half-normalized form statement picks up another factor 1/2
        lhs = tube_norm(delta_star(w), lo, hi) ** 2
        rhs = (tube_norm(codifferential(w), lo, hi) ** 2
               + 0.25 * tube_norm(exterior_d(w), lo, hi) ** 2
               + (n - 1) * tube_norm(w, lo, hi) ** 2)
        res = max(res, abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
    add("symmetrized_gradient_energy", cases, res)

    res = 0.0
    for _ in range(n_cases):
        w2 = _random_twoform(chart, rng, _suite_chains(rng, fd_step))
        lhs = rough_laplacian(w2)
        rhs = (exterior_d(codifferential(w2)) + codifferential(exterior_d(w2))
               + float(2 * (n - 2)) * w2)
        res = max(res, _rel_residual(lhs, rhs, grid))
    add("weitzenboeck_twoform", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        w = _random_oneform(chart, rng, _suite_chains(rng, fd_step))
        lhs = rough_laplacian(delta_star(w))
        rhs = (2.0 * delta_star(w)
               + 2.0 * (codifferential(w) * metric_field(chart))
               + delta_star(rough_laplacian(w) + float(n - 1) * w))
        res = max(res, _rel_residual(lhs, rhs, grid))
    add("laplacian_gauge_commutation", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        h = _random_tensor(chart, rng, _suite_chains(rng, fd_step, 6))
        lhs = rough_laplacian(h)
        rhs = (delta_nabla(d_nabla(h)) + d_nabla(delta_nabla(h))
               + float(n) * h - trace(h) * metric_field(chart))
        res = max(res, _rel_residual(lhs, rhs, grid))
    add("weitzenboeck_tensor_hyperbolic", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        h = _random_tensor(chart, rng, _suite_chains(rng, fd_step, 6))
        out = bianchi_beta(linearized_einstein(h))
        scale = np.max(np.abs(bianchi_beta(rough_laplacian(h)).values(grid)))
        res = max(res, float(np.max(np.abs(out.values(grid))) / scale))
    add("linearized_bianchi", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        w = _random_oneform(chart, rng, _suite_chains(rng, fd_step))
        lhs = trace(delta_star(w))
        rhs = -1.0 * codifferential(w)
        res = max(res, _rel_residual(lhs, rhs, grid))
    add("trace_intertwine", n_cases, res)

    res = 0.0
    for _ in range(cases):
        chains, lo, hi = _bump_case(rng, model, fd_step, 6)
        w = _random_oneform(chart, rng, chains[:3])
        v0 = OracleField(chart, 1, {(a,): c for a, c in enumerate(chains[3:])},
                         w.angular, w.axial)
        v = covariant_derivative(v0)
        lhs = tube_inner_product(w, adjoint_divergence(v), lo, hi)
        rhs = tube_inner_product(covariant_derivative(w), v, lo, hi)
        res = max(res, abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
    add("adjoint_pairing", cases, res)

    worst = min(energy_ratios(chart, rng, n_cases))
    res = max(0.0, (n - 2) - worst) / (n - 2)
    report.append({"identity": "einstein_operator_positivity", "n_cases": n_cases,
                   "max_rel_residual": float(res), "pass": bool(res == 0.0)})

    return report
