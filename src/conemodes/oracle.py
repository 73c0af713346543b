"""Independent coordinate tensor calculus on the explicit three-dimensional tube.

Everything here lives in the chart (r, theta, s) described once, by the metric
diagonal diag(1, sinh^2 r, cosh^2 r) in `_METRIC`: Christoffel symbols, curvature,
all operators, the volume weight and the frame slots come from that table, never
from the mode-reduced radial systems. Agreement between the two routes is
established by the test suite, not assumed.

Fields keep the single-mode structure profile(r) * exp(i(p*gamma*theta + k*s)),
so angular derivatives are exact multiplications. A field is one dense jet
tensor (levels x chart.dim^rank components x radii): a leaf reads its
components' `geometry.RadialProfile` jets, so a reduced block's profiles
enter as they are, and each operator is one node over the dense jets of its
operands and of the chart. `TubeChart.at(r)`, the chart on one radius grid,
holds its dense metric, connection and curvature arrays, read off one
Levi-Civita chain g -> g^-1 -> Gamma -> R; a contraction against one runs
over its support, the entries that are not exact zeros.  A suite evaluates its
pointwise fields on one grid, and consecutive quadratures on one support share
the chart's last grid.

A reduced one-form or tensor mode block enters as `block_field` and comes
back as `block_components`; both read one table, `_SLOTS`, which names the
coordinate slot and the constant that carry each component.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
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
    "bump_chain",
    "poly_chain",
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


def _horner(x, c):
    """npoly.polyval(x, c) for one coefficient vector, in its operation order."""
    acc = c[-1] + x * 0
    for ck in c[-2::-1]:
        acc = ck + acc * x
    return acc


def _derivatives(c, depth: int) -> list:
    """Ascending coefficients of c and its first `depth` derivatives, rounded
    as npoly.polyder rounds them."""
    out = [c]
    for _ in range(depth):
        c = c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(1, c.dtype)
        out.append(c)
    return out


def poly_chain(coeffs, depth: int = 5) -> RadialProfile:
    """Polynomial radial profile from ascending coefficients."""
    return RadialProfile(*[lambda r, c=c: _horner(np.asarray(r, dtype=float), c)
                           for c in _derivatives(np.array(coeffs, dtype=complex), depth)])


def bump_chain(inner: float, outer: float, order: int = 4,
               amplitude: complex = 1.0, depth: int = 5) -> RadialProfile:
    """Compactly supported polynomial bump on (inner, outer), C^(order-1)."""
    if not 0 <= inner < outer:
        raise ValueError("need 0 <= inner < outer")
    x = npoly.polyfromroots([0.0] * order + [1.0] * order)  # x^k (x-1)^k
    c = x * amplitude * (-1) ** order * 4.0 ** order  # peak height |amplitude|
    scale = 1.0 / (outer - inner)

    def call(r, c, k):
        u = (np.asarray(r, dtype=float) - inner) * scale
        return np.where((u > 0) & (u < 1), _horner(u, c) * scale ** k, 0.0).astype(complex)
    return RadialProfile(*[functools.partial(call, c=c, k=k)
                           for k, c in enumerate(_derivatives(c, depth))])


# ---------------------------------------------------------------------------
# the chart: metric, connection and curvature by the Levi-Civita sums

# The one description of the chart: per coordinate (r, theta, s), its metric
# diagonal entry g_ee = sh^a ch^b as the exponent pair (a, b).  The chart has
# as many coordinates as entries; r is radial, the rest carry the phase.
_METRIC = ((0, 0), (2, 0), (0, 2))


def _sqrt_metric(idx=range(len(_METRIC))) -> tuple:
    """(a, b) with sh^a ch^b the product of sqrt(g_ee) over the indices e;
    over every index that is sqrt(det g), the volume weight."""
    return tuple(sum(_METRIC[e][k] for e in idx) // 2 for k in (0, 1))


def _diagonal_matrix(d) -> np.ndarray:
    """The jet [:, a, b] of a diagonal matrix from its diagonal [:, a]."""
    out = np.zeros(d.shape[:2] + d.shape[1:], d.dtype)
    out[:, range(d.shape[1]), range(d.shape[1])] = d
    return out


def _derivative(t, factors) -> np.ndarray:
    """d_e of a jet at [:, e]: the shifted jet at e = r, and at each phase
    coordinate its factor i * wavenumber (0 for every chart table) times the jet."""
    return np.stack([t[1:]] + [c * t[:-1] for c in factors], axis=1)


def _layers(*targets) -> list:
    """Selections splitting a support into layers of distinct targets: layer k
    holds the k-th entry of every target, in support order, so one fancy-index
    update per layer, layer after layer, adds each target's terms in the order
    np.add.at would.  Distinct targets make one layer, selected by a slice."""
    count, layer = {}, []
    for key in zip(*(t.tolist() for t in targets)):
        count[key] = count.get(key, -1) + 1
        layer.append(count[key])
    if max(layer, default=0) == 0:
        return [slice(None)]
    layer = np.array(layer)
    return [np.flatnonzero(layer == k) for k in range(layer.max() + 1)]


def _permuted(t, *perm):
    """A dense jet with index s of the result read from slot perm[s] of t."""
    n = len(perm)
    return t.transpose((0,) + tuple(1 + p for p in perm) + tuple(range(1 + n, t.ndim)))


def _levi_civita(r, levels: int, name: str, chain: Optional[dict] = None) -> dict:
    """Chart tables g, ginv, gam, riem_low (see `ChartGrid`) in long double, through
    `name`, from `levels` levels of g; a `chain` with as many is continued.  Near
    the axis R_0101 = -sinh^2 r cancels terms of size cosh^2 r, which in float64
    costs verify up to 0.7 accuracy digits.  g is diagonal, so a sum over an index
    of g or g^-1 keeps one term; the k sum runs in order and skips each k whose
    factor Gamma^a_.k or Gamma^k_.. vanishes at every level and radius."""
    if chain is None or len(chain["g"]) < levels:
        x = np.asarray(r, dtype=np.longdouble)
        s, c = np.sinh(x), np.cosh(x)
        sh = np.array([(s, c)[k % 2] for k in range(levels)])
        ch = np.array([(c, s)[k % 2] for k in range(levels)])
        one = np.array([np.full_like(s, k == 0) for k in range(levels)])
        g = np.stack([functools.reduce(leibniz, [sh] * a + [ch] * b, one) for a, b in _METRIC],
                     axis=1)
        chain = {"g": g, "ginv": jet_reciprocal(g)}
    g, ginv, no_phase = chain["g"], chain["ginv"], (0,) * (len(_METRIC) - 1)
    if name in ("gam", "riem_low") and "gam" not in chain:
        # Gamma^a_bc = 1/2 g^aa (d_b g_ac + d_c g_ab - d_a g_bc)
        dg = _derivative(_diagonal_matrix(g), no_phase)
        chain["gam"] = 0.5 * leibniz(ginv[:, :, None, None],
                                     _permuted(dg, 1, 0, 2) + _permuted(dg, 1, 2, 0) - dg)
    if name == "riem_low" and name not in chain:
        # R^a_bcd = d_c Gamma^a_db + sum_k Gamma^a_ck Gamma^k_db, less each term with
        # c and d swapped; one a at a time, which bounds the memory
        dgam, gam, dim = _derivative(chain["gam"], no_phase), chain["gam"][:-1], len(g[0])
        low = []
        for a in range(dim):
            d = _permuted(dgam[:, :, a], 2, 0, 1)  # [:, b, c, d]
            quad = (leibniz(gam[:, a, None, :, None, k], gam[:, k].swapaxes(1, 2)[:, :, None])
                    for k in range(dim) if gam[:, a, :, k].any() and gam[:, k].any())
            riem = d - d.swapaxes(2, 3) + sum(q - q.swapaxes(2, 3) for q in quad)
            low.append(leibniz(g[:, a, None, None, None], riem))  # R_abcd = g_aa R^a_bcd
        chain[name] = np.stack(low, axis=1)
    return chain


class ChartGrid:
    """The chart's dense jet tables on one radius grid.

    `jet(name, m)` is levels 0..m of a table, shape (m+1,) + indices + r.shape:
    "g" and "ginv" are the diagonals g_aa and g^aa [:, a], "gam" is Gamma^c_ab
    [:, c, a, b], "riem_low" R_abcd and "curv" [:, a, c, b, d] R_acbd g^cc g^dd.
    `_build` makes a table when first read and again only for a deeper level,
    off the grid's one `_levi_civita` chain: a later table continues it, a
    deeper level starts it over.

    `support(name)` is a table's support, read off the table and kept until the
    table is rebuilt: most entries of "gam", "riem_low" and "curv" are exact
    zeros at every level, so the contractions against them run over the
    support only.
    """

    def __init__(self, chart: "TubeChart", r):
        self.chart, self.r, self._tables, self._chain, self._supports = chart, r, {}, None, {}

    def jet(self, name: str, m: int) -> np.ndarray:
        have = self._tables.get(name)
        if have is None or len(have) <= m:
            if m > self.chart.depth:
                raise ValueError(f"jet level {m} is past the chart's depth {self.chart.depth}")
            have = self._tables[name] = self._build(name, m)
            self._supports.pop(name, None)
        return have[:m + 1]

    def support(self, name: str) -> tuple:
        """Index arrays, in C order, of the entries of table `name` that are
        non-zero at some level and radius of the table as built (level 0 if it
        is not built yet); read its jet first to cover that jet's levels."""
        have = self._supports.get(name)
        if have is None:
            t = self._tables.get(name)
            t = self.jet(name, 0) if t is None else t
            radii = tuple(range(t.ndim - self.r.ndim, t.ndim))
            have = self._supports[name] = np.nonzero(t.any(axis=(0,) + radii))
        return have

    def _build(self, name: str, m: int) -> np.ndarray:
        if name == "curv":
            # R_acbd g^cc g^dd on the support of R_abcd, exact zeros elsewhere
            low, ginv = self.jet("riem_low", m), self.jet("ginv", m)
            idx = (slice(None),) + self.support("riem_low")
            out = np.zeros_like(low)
            out[idx] = leibniz(leibniz(low[idx], ginv[:, idx[2]]), ginv[:, idx[4]])
            return out
        # off the long-double chain, with levels of g to spare for the derivatives
        need = m + 1 + {"gam": 1, "riem_low": 2}.get(name, 0)
        if self._chain is None or len(self._chain["g"]) < need or name not in self._chain:
            self._chain = _levi_civita(self.r, need, name, self._chain)
        return self._chain[name][:m + 1].astype(complex)


@dataclass(frozen=True)
class TubeChart:
    """Coordinate chart (r, theta, s) on the tube of an n = 3 model, read
    from `_METRIC`, the one place that describes it.

    `at(r)` is the chart on one radius grid.  Fields on it carry at most
    `depth` levels.
    """

    model: ConeModel
    _last: Optional[ChartGrid] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.model.n != len(_METRIC):
            raise ValueError(f"the coordinate chart exists only at n = {len(_METRIC)}")
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

    depth = 6  # deepest jet level that the chart serves and fields on it carry

    def at(self, r) -> ChartGrid:
        """The chart on the radii r, of any shape; the last grid is kept and
        returned again for equal radii."""
        r, last = np.array(r, dtype=float), self._last
        if last is not None and np.array_equal(last.r, r):
            return last
        if not np.all(r > 0):
            raise DomainError("coordinate radius must be positive")
        object.__setattr__(self, "_last", ChartGrid(self, r))
        return self._last

    def metric(self, r):
        return _diagonal_matrix(self.at(r).jet("g", 0))[0]

    def ricci(self, r):
        """Ric_bd = g^aa R_abad, summed over a in order."""
        grid = self.at(r)
        low, ginv = grid.jet("riem_low", 0)[0], grid.jet("ginv", 0)[0]
        return sum(ginv[a] * low[a, :, a] for a in range(self.dim))


def _on_grid(chart: TubeChart, r) -> ChartGrid:  # r itself, or the chart on radii r
    return r if isinstance(r, ChartGrid) else chart.at(np.atleast_1d(r))


# ---------------------------------------------------------------------------
# mode fields


@dataclass(eq=False)
class OracleField:
    """Single-mode tensor field: a dense radial jet times a fixed phase.

    A leaf maps index tuples to radial profiles; an operator node holds
    node(grid, m, memo), the field's jet from its operands' jets and the
    `ChartGrid` tables.  `dense(grid, m, memo)` gives levels 0..m <= depth of
    every component as one array of shape (m+1,) + (dim,)*rank + grid.r.shape,
    kept in the memo under the field itself (fields hash by identity).  A memo
    belongs to one grid and keeps its keys alive, so fields evaluated through
    it one after another never read each other's jets.  The phase
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
        have = memo.get(self)
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
            memo[self] = have
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
        gam = grid.jet("gam", m)
        c, a, b = grid.support("gam")
        g = gam[:, c, a, b].reshape((m + 1, len(c)) + (1,) * (fld.rank - 1) + grid.r.shape)
        out = _derivative(t, (1j * fld.angular, 1j * fld.axial))
        # subtract Gamma^c_(a, idx_i) T(idx with c in slot i), in the order (i, c), over
        # the support (c, a, b) of Gamma: an entry off it would subtract only zeros.
        # Slot i trades places with the first slot in t and in out alike.
        layers = _layers(a, b)
        for i in range(fld.rank):
            term, view = leibniz(g, t[:-1].swapaxes(1, 1 + i)[:, c]), out.swapaxes(2, 2 + i)
            for sel in layers:
                view[:, a[sel], b[sel]] -= term[:, sel]
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
        t, curv = h.dense(grid, m, memo), grid.jet("curv", m)
        a, c, b, d = idx = grid.support("curv")
        # each out_ab adds its terms in the order (c, d), over the support of the
        # table: an entry off it would add only zeros
        out, term = np.zeros_like(t), leibniz(curv[(slice(None),) + idx], t[:, c, d])
        for sel in _layers(a, b):
            out[:, a[sel], b[sel]] += term[:, sel]
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
# _SLOTS[family, kind] has one row (name, idx, c) per component: slot idx holds c
# times the profile times sqrt(g_ee) for each index e, so the cross-section slots
# are the per-radius orthonormal ones of the radial systems.  A mixed tensor slot
# is the coefficient of a symmetrized product of slot covectors, so it holds 1/2
# of it in each index order; the scalar-gradient slots (omega, sigma, eta) carry
# the i of the axial phase, whose wavenumber is +sqrt(lam).  k2, k3 and kind D
# have no realization on a circle.

_ONEFORM_B = (("f", (0,), 1), ("g", (1,), 1))
_TENSOR_B = (("f", (0, 0), 1), ("g", (1, 1), 1), ("k1", (2, 2), 1), ("h", (0, 1), 0.5))
_SLOTS = {
    ("oneform", "A"): _ONEFORM_B + (("omega", (2,), 1j),),
    ("oneform", "B"): _ONEFORM_B,
    ("oneform", "C"): (("varpi", (2,), 1),),
    ("tensor", "A"): _TENSOR_B + (("sigma", (0, 2), 0.5j), ("eta", (1, 2), 0.5j)),
    ("tensor", "B"): _TENSOR_B,
    ("tensor", "C"): (("sigma_bar", (0, 2), 0.5), ("eta_bar", (1, 2), 0.5)),
}


def _slots(family, kind) -> tuple:
    if (family, kind) not in _SLOTS:
        raise ValueError(f"no n = 3 realization for {family} blocks of kind {kind}")
    return tuple(row + _sqrt_metric(row[1]) for row in _SLOTS[family, kind])


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
                       outer: Optional[float] = None, num: int = 160,
                       memo: Optional[dict] = None) -> complex:
    """Hermitian tube inner product of two single-mode fields over the radii
    0 <= inner < outer <= tube radius (the default).

    Distinct modes are orthogonal by the exact phase integrals; matching
    modes reduce to a radial Gauss-Legendre quadrature with the volume
    weight sqrt(det g) and transverse measure angle * length.

    Quadratures on one support that pass one `memo` evaluate each field they
    share once.  A memo belongs to the chart grid of its first quadrature; on
    another grid (other radii, or the chart's grid rebuilt) it raises ValueError.
    """
    if u.rank != v.rank:
        raise ValueError("rank mismatch")
    chart, tube = u.chart, u.chart.model.tube_radius
    a = tube if outer is None else outer
    if not 0 <= inner < a <= tube:
        raise DomainError(f"support ({inner}, {a}) is not in the tube of radius {tube}")
    if u.angular != v.angular or u.axial != v.axial:
        return 0j
    x, w = gauss_legendre(num)
    grid = chart.at(0.5 * (a + inner) + 0.5 * (a - inner) * x)
    r, w = grid.r, 0.5 * (a - inner) * w
    memo = {} if memo is None else memo  # shared, so tube_norm(u) evaluates u once
    if memo.setdefault("grid", grid) is not grid:
        raise ValueError("a memo serves only the chart grid it was first used on")
    uv, vv = u.dense(grid, 0, memo)[0], v.dense(grid, 0, memo)[0]
    ginv = grid.jet("ginv", 0)[0]
    dens = np.zeros_like(r, dtype=complex)
    for idx in itertools.product(range(chart.dim), repeat=u.rank):
        fac = np.ones_like(r, dtype=complex)
        for i in idx:
            fac = fac * ginv[i]
        dens = dens + fac * uv[idx] * np.conj(vv[idx])
    a, b = _sqrt_metric()
    dens = dens * np.sinh(r) ** a * np.cosh(r) ** b
    return complex(np.sum(w * dens) * chart.angle * chart.length)


def tube_norm(u: OracleField, inner: float = 0.0, outer: Optional[float] = None,
              num: int = 160, memo: Optional[dict] = None) -> float:
    """sqrt(<u, u>) by `tube_inner_product`, whose `memo` it takes."""
    return math.sqrt(max(tube_inner_product(u, u, inner, outer, num, memo).real, 0.0))


# ---------------------------------------------------------------------------
# identity suite


def _rel_residual(x: OracleField, y: OracleField, grid: ChartGrid) -> float:
    memo = {}
    xv, yv = x.dense(grid, 0, memo)[0], y.dense(grid, 0, memo)[0]
    scale = np.max(np.abs(xv)) + np.max(np.abs(yv))
    if scale == 0:
        return 0.0
    return float(np.max(np.abs(xv - yv)) / scale)


def _random_mode(chart, rng, rank, comps):
    return OracleField(chart, rank, comps,
                       angular=float(rng.randrange(4)) * chart.gamma,
                       axial=2 * math.pi * float(rng.randrange(-2, 3)) / chart.length)


def _random_oneform(chart, rng, chains):
    return _random_mode(chart, rng, 1, {(a,): chains[a] for a in range(chart.dim)})


def _random_tensor(chart, rng, chains, sign: int = 1):
    """A symmetric (sign 1) or antisymmetric (sign -1) 2-tensor; chains cycle
    over the index pairs a <= b, or a < b."""
    pairs = (itertools.combinations_with_replacement if sign > 0
             else itertools.combinations)(range(chart.dim), 2)
    comps = {}
    for k, (a, b) in enumerate(pairs):
        c = comps[(a, b)] = chains[k % len(chains)]
        if a != b:
            comps[(b, a)] = c if sign > 0 else -c
    return _random_mode(chart, rng, 2, comps)


def _complex_normals(rng, size: int) -> np.ndarray:
    # real parts first, then imaginary parts
    x = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * size)])
    return x[:size] + 1j * x[size:]


def _suite_chains(rng, count: int = 3):
    return [poly_chain(_complex_normals(rng, 4)) for _ in range(count)]


def _bump_case(rng, model, count: int = 3):
    # shared support per case keeps quadrature panels aligned with the
    # piecewise boundary, so Gauss-Legendre stays spectrally accurate
    a = model.tube_radius
    lo = rng.uniform(0.1, 0.35) * a
    hi = rng.uniform(0.6, 0.9) * a
    bump = bump_chain(lo, hi, order=4)
    chains = [bump * poly_chain(_complex_normals(rng, 3)) for _ in range(count)]
    return chains, lo, hi


def energy_ratios(chart: TubeChart, rng: random.Random, n_cases: int) -> list:
    """Rayleigh quotients <P h, h> / |h|^2 of random bump-supported tensors.

    The Einstein operator P is bounded below by n - 2 on compactly supported
    symmetric tensors of the hyperbolic tube.  Each case draws from `rng`, in
    order: the support (lo, hi) by `uniform`, as fractions in [0.1, 0.35] and
    [0.6, 0.9] of the tube radius; six component chains, each the bump times a
    quadratic whose three complex coefficients are six `gauss` normals (real
    parts first); then the mode phases by `randrange`, the angular multiple
    of gamma in 0..3 and the axial wave number in -2..2.
    """
    if n_cases < 1:
        raise ValueError("n_cases must be positive")
    ratios = []
    for _ in range(n_cases):
        chains, lo, hi = _bump_case(rng, chart.model, 6)
        h, memo = _random_tensor(chart, rng, chains), {}
        num = tube_inner_product(apply_P_coords(h), h, lo, hi, memo=memo).real
        ratios.append(num / tube_norm(h, lo, hi, memo=memo) ** 2)
    return ratios


def identity_suite(model: ConeModel, n_cases: int = 50, seed: int = 0,
                   tol: float = 1e-8) -> list:
    """Residual report for the operator identities of the hyperbolic tube.

    Differential identities are checked pointwise on random polynomial
    mode fields, all on one chart grid; integral identities use compact bump
    fields and the tube quadrature.

    The cases are drawn from one `random.Random(seed)`, identity after
    identity in report order.  A pointwise case draws its component chains
    first (six for a symmetric tensor, three for a one-form or two-form),
    each a cubic whose four complex coefficients are eight `gauss` normals
    (real parts first), and then the mode phases by `randrange`: the angular
    multiple of gamma in 0..3 and the axial wave number in -2..2.  A bump
    case draws as `energy_ratios` does: the support by `uniform`, then its
    chains (three, or six for the adjoint pairing) of three complex
    coefficients, then the phases.
    """
    if n_cases < 1:
        raise ValueError("n_cases must be positive")
    chart = TubeChart(model)
    rng = random.Random(seed)
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
        h = _random_tensor(chart, rng, _suite_chains(rng, 6))
        lhs = ricci_action(h)
        rhs = h - trace(h) * metric_field(chart)
        res = max(res, _rel_residual(lhs, rhs, grid))
    add("curvature_action_hyperbolic", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        w = _random_oneform(chart, rng, _suite_chains(rng))
        lhs = exterior_d(codifferential(w)) + codifferential(exterior_d(w))
        rhs = rough_laplacian(w) - float(n - 1) * w
        res = max(res, _rel_residual(lhs, rhs, grid))
    add("weitzenboeck_oneform", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        w = _random_oneform(chart, rng, _suite_chains(rng))
        lhs = 2.0 * bianchi_beta(delta_star(w))
        rhs = rough_laplacian(w) + float(n - 1) * w
        res = max(res, _rel_residual(lhs, rhs, grid))
    add("gauge_composition_oneform", n_cases, res)

    res = 0.0
    cases = max(4, n_cases // 10)
    for _ in range(cases):
        chains, lo, hi = _bump_case(rng, model)
        w, memo = _random_oneform(chart, rng, chains), {}
        # two-form norms here contract both index slots, so the
        # half-normalized form statement picks up another factor 1/2
        lhs = tube_norm(delta_star(w), lo, hi, memo=memo) ** 2
        rhs = (tube_norm(codifferential(w), lo, hi, memo=memo) ** 2
               + 0.25 * tube_norm(exterior_d(w), lo, hi, memo=memo) ** 2
               + (n - 1) * tube_norm(w, lo, hi, memo=memo) ** 2)
        res = max(res, abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
    add("symmetrized_gradient_energy", cases, res)

    res = 0.0
    for _ in range(n_cases):
        w2 = _random_tensor(chart, rng, _suite_chains(rng), -1)
        lhs = rough_laplacian(w2)
        rhs = (exterior_d(codifferential(w2)) + codifferential(exterior_d(w2))
               + float(2 * (n - 2)) * w2)
        res = max(res, _rel_residual(lhs, rhs, grid))
    add("weitzenboeck_twoform", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        w = _random_oneform(chart, rng, _suite_chains(rng))
        lhs = rough_laplacian(delta_star(w))
        rhs = (2.0 * delta_star(w)
               + 2.0 * (codifferential(w) * metric_field(chart))
               + delta_star(rough_laplacian(w) + float(n - 1) * w))
        res = max(res, _rel_residual(lhs, rhs, grid))
    add("laplacian_gauge_commutation", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        h = _random_tensor(chart, rng, _suite_chains(rng, 6))
        lhs = rough_laplacian(h)
        rhs = (delta_nabla(d_nabla(h)) + d_nabla(delta_nabla(h))
               + float(n) * h - trace(h) * metric_field(chart))
        res = max(res, _rel_residual(lhs, rhs, grid))
    add("weitzenboeck_tensor_hyperbolic", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        h, memo = _random_tensor(chart, rng, _suite_chains(rng, 6)), {}
        out = bianchi_beta(linearized_einstein(h))
        scale = np.max(np.abs(bianchi_beta(rough_laplacian(h)).values(grid, memo)))
        res = max(res, float(np.max(np.abs(out.values(grid, memo))) / scale))
    add("linearized_bianchi", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        w = _random_oneform(chart, rng, _suite_chains(rng))
        lhs = trace(delta_star(w))
        rhs = -1.0 * codifferential(w)
        res = max(res, _rel_residual(lhs, rhs, grid))
    add("trace_intertwine", n_cases, res)

    res = 0.0
    for _ in range(cases):
        chains, lo, hi = _bump_case(rng, model, 6)
        w = _random_oneform(chart, rng, chains[:3])
        v0 = OracleField(chart, 1, {(a,): c for a, c in enumerate(chains[3:])},
                         w.angular, w.axial)
        v, memo = covariant_derivative(v0), {}
        lhs = tube_inner_product(w, adjoint_divergence(v), lo, hi, memo=memo)
        rhs = tube_inner_product(covariant_derivative(w), v, lo, hi, memo=memo)
        res = max(res, abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
    add("adjoint_pairing", cases, res)

    return report
