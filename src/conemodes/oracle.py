"""Independent coordinate tensor calculus on the explicit three-dimensional tube.

Everything here lives in the chart (r, theta, s) with metric
diag(1, sinh^2 r, cosh^2 r): Christoffel symbols, curvature and all
operators come from that metric by the textbook Levi-Civita sums, taken
on the same radial chains as the fields, never from the mode-reduced
radial systems. Agreement between the two routes is established by the
test suite, not assumed.

Fields keep the single-mode structure profile(r) * exp(i(p*gamma*theta + k*s)),
so angular derivatives are exact multiplications. A field is one dense jet
tensor (levels x components x radii): a leaf reads its components'
`geometry.RadialProfile` jets, so a reduced block's profiles enter as they
are, and each operator is one node over the dense jets of its operands and
of the chart. The chart tables stay `RadialProfile`s built from the metric
alone, so the oracle stays independent of the reduced systems.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from conemodes.geometry import (ConeModel, DomainError, RadialProfile, gauss_legendre,
                                leibniz)

__all__ = [
    "TubeChart",
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
    "oneform_field",
    "tensor_field",
    "oneform_components",
    "tensor_components",
    "tube_inner_product",
    "tube_norm",
    "cross_section_normalizer",
    "bump_chain",
    "poly_chain",
    "fd_chain",
    "energy_ratios",
    "identity_suite",
]

_DIM = 3


def _trig_chain(start: int, dtype=float, depth: int = 8) -> RadialProfile:
    # start 0 -> sinh, 1 -> cosh; the chain alternates
    fns = [(np.sinh if (start + k) % 2 == 0 else np.cosh) for k in range(depth + 1)]
    out = np.result_type(complex, dtype)
    return RadialProfile(*[lambda r, f=f: f(np.asarray(r, dtype=dtype)).astype(out)
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


def fd_chain(fn: Callable, step: float, depth: int = 3) -> RadialProfile:
    """Derivative chain built by central differences of a value closure.

    The secondary verification path: all radial derivatives are O(step^2)
    finite differences, so identity residuals shrink at second order.  A
    jet calls `fn` once, on the shifted grids it needs stacked into one array.
    When `fn` is itself a chain, its value is read from a sub-memo of the
    jet's memo, so fd chains of one graph evaluated together share it.
    """
    if depth > 3:
        raise ValueError("finite-difference chain supports depth <= 3")
    h = step
    shifts = np.array([0.0, h, -h, 2 * h, -2 * h])

    def node(r, m, memo):
        r = np.asarray(r, dtype=float)
        n = 1 if m == 0 else 3 if m < 3 else 5
        rs = r + shifts[:n].reshape((n,) + (1,) * r.ndim)
        if isinstance(fn, RadialProfile):
            f = fn.jet(rs, 0, memo.setdefault(("fd", h, n), {}))[0].astype(complex)
        else:
            f = np.asarray(fn(rs), dtype=complex)
        levels = [f[0]]
        if m >= 1:
            levels.append((f[1] - f[2]) / (2 * h))
        if m >= 2:
            levels.append((f[1] - 2 * f[0] + f[2]) / h ** 2)
        if m >= 3:
            levels.append((f[3] - 2 * f[1] + 2 * f[2] - f[4]) / (2 * h ** 3))
        return np.array(levels)

    return RadialProfile(node=node, depth=depth)


# ---------------------------------------------------------------------------
# chart tables, built once from the metric by the Levi-Civita sums on chains


@functools.lru_cache(maxsize=1)
def _chart_tables():
    # long double leaves: near the axis R^1_010 = csch^2 - coth^2 cancels terms
    # of size 1/r^2, which in float64 costs verify up to 0.7 accuracy digits
    sh, ch = _trig_chain(0, np.longdouble), _trig_chain(1, np.longdouble)
    zero, idx = RadialProfile.zero(), range(_DIM)
    diag = [RadialProfile.constant(1.0), sh * sh, ch * ch]
    g = [[diag[a] if a == b else zero for b in idx] for a in idx]
    ginv = [[diag[a].reciprocal() if a == b else zero for b in idx] for a in idx]

    def dx(chain, b):  # the metric depends on r alone
        return chain.derivative() if b == 0 else zero

    gam = {(a, b, c): 0.5 * sum((ginv[a][d] * (dx(g[d][c], b) + dx(g[d][b], c)
                                               - dx(g[b][c], d)) for d in idx), zero)
           for a, b, c in itertools.product(idx, repeat=3)}
    riem = {(a, b, c, c): zero for a, b, c in itertools.product(idx, repeat=3)}
    for a, b, c, d in itertools.product(idx, repeat=4):
        if c < d:  # antisymmetric in (c, d), so R^a_bcc is exactly zero
            quad = sum((gam[(a, c, k)] * gam[(k, d, b)] - gam[(a, d, k)] * gam[(k, c, b)]
                        for k in idx), zero)
            riem[(a, b, c, d)] = dx(gam[(a, d, b)], c) - dx(gam[(a, c, b)], d) + quad
            riem[(a, b, d, c)] = -riem[(a, b, c, d)]
    riem_low = {(a, b, c, d): sum((g[a][e] * riem[(e, b, c, d)] for e in idx), zero)
                for a, b, c, d in riem}
    ricci = [sum((riem[(a, b, a, b)] for a in idx), zero) for b in idx]

    def entry(e):  # cast back to complex128 for the field arithmetic
        return e if e.is_zero else RadialProfile(
            node=lambda r, m, memo: e.jet(r, m, memo).astype(complex), depth=e.depth)

    return {
        "g": [entry(g[a][a]) for a in idx],
        "ginv": [entry(ginv[a][a]) for a in idx],
        "gam": {k: entry(e) for k, e in gam.items() if not e.is_zero},
        "riem_low": {k: entry(e) for k, e in riem_low.items() if not e.is_zero},
        "ricci": [entry(e) for e in ricci],
    }


@functools.lru_cache(maxsize=8)
def _fd_tables(step: float):
    base = _chart_tables()

    def wrap(ch):
        return ch if ch.is_zero else fd_chain(ch, step)

    return {
        "g": [wrap(c) for c in base["g"]],
        "ginv": [wrap(c) for c in base["ginv"]],
        "gam": {k: wrap(c) for k, c in base["gam"].items()},
        "riem_low": {k: wrap(c) for k, c in base["riem_low"].items()},
        "ricci": [wrap(c) for c in base["ricci"]],
    }


@dataclass(frozen=True)
class TubeChart:
    """Coordinate chart (r, theta, s) on the tube of an n = 3 model.

    With `fd_step` set, every radial derivative of the chart tables is
    replaced by an O(step^2) central difference; mode fields built for
    such a chart should use `fd_chain` profiles so the whole pipeline
    sits on the finite-difference verification path.
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
    def gamma(self) -> float:
        return self.model.gamma

    @property
    def angle(self) -> float:
        return self.model.alpha

    @property
    def length(self) -> float:
        return self.model.cross_section.length

    def _check(self, r):
        r = np.asarray(r, dtype=float)
        if not np.all(r > 0):
            raise DomainError("coordinate radius must be positive")
        return r

    def _table(self):
        return _chart_tables() if self.fd_step is None else _fd_tables(self.fd_step)

    @property
    def depth(self) -> int:
        """Deepest jet level that every chart table carries."""
        tab = self._table()
        return min(p.depth for p in (*tab["ginv"], *tab["gam"].values(),
                                     *tab["riem_low"].values()))

    def _diagonal(self, name: str, r):
        r = self._check(r)
        out = np.zeros((_DIM, _DIM) + r.shape, dtype=complex)
        for a, prof in enumerate(self._table()[name]):
            out[a, a] = prof(r)
        return out

    def metric(self, r):
        return self._diagonal("g", r)

    def inverse_metric(self, r):
        return self._diagonal("ginv", r)

    def metric_profile(self, a: int) -> RadialProfile:
        return self._table()["g"][a]

    def ricci(self, r):
        return self._diagonal("ricci", r)


def christoffel_coords(chart: TubeChart, r):
    """All Christoffel symbols, Gamma^c_ab at [c, a, b], shape (3, 3, 3) + r.shape."""
    return _chart_jet(chart, "gam", chart._check(r), 0, {})[0]


# ---------------------------------------------------------------------------
# mode fields


def _chart_jet(chart: TubeChart, name: str, r, m: int, memo: dict) -> np.ndarray:
    """Levels 0..m of a dense chart table, built once per memo from the chart
    profiles: "ginv" [:, a] is g^aa, "gam" [:, c, a, b] is Gamma^c_ab,
    "riem_low" is R_abcd and "curv" [:, a, c, b, d] is R_acbd g^cc g^dd."""
    key = ("chart", name, chart.fd_step)
    have = memo.get(key)
    if have is None or len(have) <= m:
        tab = chart._table()
        if name == "curv":
            ginv = _chart_jet(chart, "ginv", r, m, memo)
            have = leibniz(leibniz(_chart_jet(chart, "riem_low", r, m, memo),
                                   ginv[:, None, :, None, None]),
                           ginv[:, None, None, None, :])
        elif name == "ginv":
            have = np.stack([p.jet(r, m, memo) for p in tab["ginv"]], axis=1)
        else:
            rank = 3 if name == "gam" else 4  # "riem_low"
            have = np.zeros((m + 1,) + (_DIM,) * rank + r.shape, dtype=complex)
            for idx, prof in tab[name].items():
                have[(slice(None),) + idx] = prof.jet(r, m, memo)
        memo[key] = have
    return have[:m + 1]


@dataclass
class OracleField:
    """Single-mode tensor field: a dense radial jet times a fixed phase.

    A leaf maps index tuples to radial profiles; an operator node holds
    node(r, m, memo), the field's jet from its operands' jets and the chart
    tables.  `dense(r, m, memo)` gives levels 0..m <= depth of every component
    as one array of shape (m+1,) + (3,)*rank + r.shape, kept in the memo under
    the field.  The phase exp(i(angular*theta + axial*s)) is common to every
    component, so theta and s derivatives are exact multiplications.
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
            if len(idx) != self.rank or not all(0 <= i < _DIM for i in idx):
                raise ValueError(f"bad component index {idx} for rank {self.rank}")
        if self.node is None:
            self.depth = min((p.depth for p in self.components.values()
                              if not p.is_zero), default=self.chart.depth)

    def dense(self, r, m: int, memo: dict) -> np.ndarray:
        have = memo.get(id(self))
        if have is None or len(have) <= m:
            if m > self.depth:
                raise ValueError(f"jet level {m} is past the field's depth {self.depth}")
            if self.node is not None:
                have = self.node(r, m, memo)
            else:
                have = np.zeros((m + 1,) + (_DIM,) * self.rank + r.shape, dtype=complex)
                for idx, prof in self.components.items():
                    if not prof.is_zero:
                        have[(slice(None),) + idx] = prof.jet(r, m, memo)
            memo[id(self)] = have
        return have[:m + 1]

    def values(self, r, memo: Optional[dict] = None):
        """Radial coefficient array, shape (3,)*rank + r.shape; phase excluded."""
        r = self.chart._check(np.atleast_1d(r))
        return self.dense(r, 0, {} if memo is None else memo)[0].copy()

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
        return self._node(lambda r, m, memo: fn(*[f.dense(r, m, memo) for f in fields]),
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
                       {(a, a): chart.metric_profile(a) for a in range(_DIM)})


# ---------------------------------------------------------------------------
# operators: one dense node each


def covariant_derivative(fld: OracleField) -> OracleField:
    """Levi-Civita derivative; the new index comes first."""
    if fld.rank > 3:
        raise ValueError("covariant derivative supports rank <= 3 inputs")
    if fld.depth < 1:
        raise ValueError("derivative chain exhausted")

    def node(r, m, memo):
        t = fld.dense(r, m + 1, memo)
        gam = _chart_jet(fld.chart, "gam", r, m, memo)
        out = np.stack([t[1:], (1j * fld.angular) * t[:-1], (1j * fld.axial) * t[:-1]],
                       axis=1)
        # subtract Gamma^c_(a, idx_i) T(idx with c in slot i), in the order (i, c)
        for i in range(fld.rank):
            g = gam.reshape((m + 1, _DIM, _DIM) + (1,) * i + (_DIM,)
                            + (1,) * (fld.rank - 1 - i) + r.shape)
            src = np.moveaxis(t[:-1], 1 + i, 1)
            for c in range(_DIM):
                out -= leibniz(g[:, c], np.expand_dims(src[:, c], (1, 2 + i)))
        return out

    return fld._node(node, fld.depth - 1, fld.rank + 1)


def _contract(fld: OracleField, sign: int) -> OracleField:
    """sign * g^aa fld_aa..., summed over a = 0..2 in order."""
    def node(r, m, memo):
        t = fld.dense(r, m, memo)
        ginv = _chart_jet(fld.chart, "ginv", r, m, memo)
        out = np.zeros_like(t[:, 0, 0])
        for a in range(_DIM):
            term = leibniz(ginv[:, a].reshape(out.shape[:1] + (1,) * (fld.rank - 2)
                                              + r.shape), t[:, a, a])
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


def _permuted(t, *perm):
    """A dense jet with index s of the result read from slot perm[s] of t."""
    n = len(perm)
    return t.transpose((0,) + tuple(1 + p for p in perm) + tuple(range(1 + n, t.ndim)))


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

    def node(r, m, memo):
        t = h.dense(r, m, memo)
        terms = leibniz(_chart_jet(h.chart, "curv", r, m, memo), t[:, None, :, None, :])
        out = np.zeros_like(t)
        for c, d in itertools.product(range(_DIM), repeat=2):
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
    return rough_laplacian(oneform) + float(_DIM - 1) * oneform


def apply_P_coords(h: OracleField) -> OracleField:
    """Rough Laplacian minus twice the curvature action, in coordinates."""
    return rough_laplacian(h) - 2.0 * ricci_action(h)


def linearized_einstein(h: OracleField) -> OracleField:
    """Second variation of the normalized Einstein functional."""
    return (rough_laplacian(h) - 2.0 * ricci_action(h)
            - 2.0 * delta_star(bianchi_beta(h)))


# ---------------------------------------------------------------------------
# frame block conversions

_I = 1j


def _axial_wavenumber(mode, sign: int) -> float:
    lam = getattr(mode, "lam", 0.0)
    return sign * math.sqrt(lam) if lam > 0 else 0.0


def oneform_field(chart: TubeChart, block, axial_sign: int = 1) -> OracleField:
    """Coordinate realization of a one-form mode block.

    Cross-section slots are the per-radius orthonormal ones, matching the
    radial systems: the scalar-gradient slot realizes as i*sign*cosh(r)*ds
    and the co-closed slot as cosh(r)*ds.
    """
    mode = block.mode
    angular = mode.p * chart.gamma
    comps = {}
    if block.kind in ("A", "B"):
        axial = _axial_wavenumber(mode, axial_sign)
        f = block.component("f")
        g = block.component("g")
        if not f.is_zero:
            comps[(0,)] = f
        if not g.is_zero:
            comps[(1,)] = _SH * g
        if block.kind == "A":
            w = block.component("omega")
            if not w.is_zero:
                comps[(2,)] = (_I * axial_sign) * (_CH * w)
    else:
        axial = 0.0
        vp = block.component("varpi")
        if not vp.is_zero:
            comps[(2,)] = _CH * vp
    return OracleField(chart, 1, comps, angular, axial)


def tensor_field(chart: TubeChart, block, axial_sign: int = 1) -> OracleField:
    """Coordinate realization of a symmetric 2-tensor mode block.

    Mixed components are coefficients of symmetrized products of the
    orthonormal slot covectors, hence the factor 1/2 on each index order.
    Slots whose cross-section normalizer vanishes on a one-dimensional
    cross-section (k2, k3) must be absent or zero; kind D has no
    realization at all.
    """
    mode = block.mode
    if block.kind == "D":
        raise ValueError("trace-free transverse blocks have no n = 3 realization")
    probe = chart.model.tube_radius * np.array([0.2, 0.5, 0.9])
    for dead in ("k2", "k3"):
        prof = block.profiles.get(dead)
        if prof is not None and np.max(np.abs(prof(probe))) > 0:
            raise ValueError(f"component {dead} has no realization on a circle")
    angular = mode.p * chart.gamma
    comps: dict = {}

    def put(idx, chain):
        if not chain.is_zero:
            comps[idx] = comps[idx] + chain if idx in comps else chain

    if block.kind in ("A", "B"):
        axial = _axial_wavenumber(mode, axial_sign)
        put((0, 0), block.component("f"))
        put((1, 1), _SH * _SH * block.component("g"))
        put((2, 2), _CH * _CH * block.component("k1"))
        h = 0.5 * (_SH * block.component("h"))
        put((0, 1), h)
        put((1, 0), h)
        if block.kind == "A":
            sig = (0.5j * axial_sign) * (_CH * block.component("sigma"))
            eta = (0.5j * axial_sign) * (_SH * _CH * block.component("eta"))
            put((0, 2), sig)
            put((2, 0), sig)
            put((1, 2), eta)
            put((2, 1), eta)
    else:
        axial = 0.0
        sig = 0.5 * (_CH * block.component("sigma_bar"))
        eta = 0.5 * (_SH * _CH * block.component("eta_bar"))
        put((0, 2), sig)
        put((2, 0), sig)
        put((1, 2), eta)
        put((2, 1), eta)
    return OracleField(chart, 2, comps, angular, axial)


def oneform_components(chart: TubeChart, fld: OracleField, kind: str, r,
                       axial_sign: int = 1):
    """Frame block components of a coordinate one-form, sampled at radii."""
    r = chart._check(np.atleast_1d(r))
    vals = fld.values(r)
    sh, ch = np.sinh(r), np.cosh(r)
    if kind in ("A", "B"):
        out = {"f": vals[0], "g": vals[1] / sh}
        if kind == "A":
            out["omega"] = vals[2] / (_I * axial_sign * ch)
        return out
    return {"varpi": vals[2] / ch}


def tensor_components(chart: TubeChart, fld: OracleField, kind: str, r,
                      axial_sign: int = 1):
    """Frame block components of a coordinate 2-tensor, sampled at radii."""
    r = chart._check(np.atleast_1d(r))
    vals = fld.values(r)
    sh, ch = np.sinh(r), np.cosh(r)
    if kind in ("A", "B"):
        out = {"f": vals[0, 0], "g": vals[1, 1] / sh ** 2,
               "h": 2.0 * vals[0, 1] / sh, "k1": vals[2, 2] / ch ** 2}
        if kind == "A":
            out["sigma"] = 2.0 * vals[0, 2] / (_I * axial_sign * ch)
            out["eta"] = 2.0 * vals[1, 2] / (_I * axial_sign * sh * ch)
        return out
    if kind == "C":
        return {"sigma_bar": 2.0 * vals[0, 2] / ch,
                "eta_bar": 2.0 * vals[1, 2] / (sh * ch)}
    raise ValueError("no n = 3 realization for this kind")


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
    r = chart._check(0.5 * (a + inner) + 0.5 * (a - inner) * x)
    w = 0.5 * (a - inner) * w
    memo = {}  # shared, so tube_norm(u) evaluates u once
    uv, vv = u.dense(r, 0, memo)[0], v.dense(r, 0, memo)[0]
    ginv = _chart_jet(chart, "ginv", r, 0, memo)[0]
    dens = np.zeros_like(r, dtype=complex)
    for idx in itertools.product(range(_DIM), repeat=u.rank):
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


def _rel_residual(x: OracleField, y: OracleField, r) -> float:
    memo = {}
    xv, yv = x.dense(r, 0, memo)[0], y.dense(r, 0, memo)[0]
    scale = np.max(np.abs(xv)) + np.max(np.abs(yv))
    if scale == 0:
        return 0.0
    return float(np.max(np.abs(xv - yv)) / scale)


def _random_oneform(chart, rng, chains):
    return OracleField(chart, 1, {(a,): chains[a] for a in range(_DIM)},
                       angular=float(rng.integers(0, 4)) * chart.gamma,
                       axial=2 * math.pi * float(rng.integers(-2, 3)) / chart.length)


def _random_tensor(chart, rng, chains):
    comps = {}
    k = 0
    for a in range(_DIM):
        for b in range(a, _DIM):
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
    mode fields; integral identities use compact bump fields and the tube
    quadrature. Passing `fd_step` swaps every radial derivative for an
    O(step^2) central difference, the secondary verification path.
    """
    chart = TubeChart(model, fd_step=fd_step)
    rng = np.random.default_rng(seed)
    n = _DIM
    a = model.tube_radius
    r_grid = np.linspace(0.15 * a, 0.9 * a, 40)
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
        res = max(res, _rel_residual(lhs, rhs, r_grid))
    add("curvature_action_hyperbolic", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        w = _random_oneform(chart, rng, _suite_chains(rng, fd_step))
        lhs = exterior_d(codifferential(w)) + codifferential(exterior_d(w))
        rhs = rough_laplacian(w) - float(n - 1) * w
        res = max(res, _rel_residual(lhs, rhs, r_grid))
    add("weitzenboeck_oneform", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        w = _random_oneform(chart, rng, _suite_chains(rng, fd_step))
        lhs = 2.0 * bianchi_beta(delta_star(w))
        rhs = rough_laplacian(w) + float(n - 1) * w
        res = max(res, _rel_residual(lhs, rhs, r_grid))
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
        res = max(res, _rel_residual(lhs, rhs, r_grid))
    add("weitzenboeck_twoform", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        w = _random_oneform(chart, rng, _suite_chains(rng, fd_step))
        lhs = rough_laplacian(delta_star(w))
        rhs = (2.0 * delta_star(w)
               + 2.0 * (codifferential(w) * metric_field(chart))
               + delta_star(rough_laplacian(w) + float(n - 1) * w))
        res = max(res, _rel_residual(lhs, rhs, r_grid))
    add("laplacian_gauge_commutation", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        h = _random_tensor(chart, rng, _suite_chains(rng, fd_step, 6))
        lhs = rough_laplacian(h)
        rhs = (delta_nabla(d_nabla(h)) + d_nabla(delta_nabla(h))
               + float(n) * h - trace(h) * metric_field(chart))
        res = max(res, _rel_residual(lhs, rhs, r_grid))
    add("weitzenboeck_tensor_hyperbolic", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        h = _random_tensor(chart, rng, _suite_chains(rng, fd_step, 6))
        out = bianchi_beta(linearized_einstein(h))
        scale = np.max(np.abs(bianchi_beta(rough_laplacian(h)).values(r_grid)))
        res = max(res, float(np.max(np.abs(out.values(r_grid))) / scale))
    add("linearized_bianchi", n_cases, res)

    res = 0.0
    for _ in range(n_cases):
        w = _random_oneform(chart, rng, _suite_chains(rng, fd_step))
        lhs = trace(delta_star(w))
        rhs = -1.0 * codifferential(w)
        res = max(res, _rel_residual(lhs, rhs, r_grid))
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
