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
operands and of the chart.  A field has one covariant-derivative node, and a
demand pass before each evaluation sets the deepest level every node is read
at, so each is evaluated once.  `TubeChart.at(r)`, the chart on one radius
grid, holds the metric diagonals and, over their supports only (the entries
that are not identically zero), the connection and curvature tables, read
off one Levi-Civita chain g -> g^-1 -> Gamma -> R.

A field may stack cases on an axis before the radii.  The identity suite
evaluates each identity once for all of its cases: the pointwise ones on
one row of radii, the integral ones on one grid of per-case quadrature
nodes.

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
    """Ascending coefficients of c (along its first axis) and its first `depth`
    derivatives, rounded as npoly.polyder rounds them."""
    out = [c]
    for _ in range(depth):
        c = (c[1:] * np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1)) if len(c) > 1
             else np.zeros((1,) + c.shape[1:], c.dtype))
        out.append(c)
    return out


def poly_chain(coeffs, depth: int = 5) -> RadialProfile:
    """Polynomial radial profile from ascending coefficients along the first
    axis of `coeffs`.  Further axes stack cases, which broadcast against the
    radii: coefficients of shape (terms, cases, 1) give jets of shape
    (levels, cases, num) on radii of shape (1, num)."""
    return RadialProfile(*[lambda r, c=c: _horner(np.asarray(r, dtype=float), c)
                           for c in _derivatives(np.array(coeffs, dtype=complex), depth)])


def bump_chain(inner, outer, order: int = 4,
               amplitude: complex = 1.0, depth: int = 5) -> RadialProfile:
    """Compactly supported polynomial bump on (inner, outer), C^(order-1).

    `inner` and `outer` may be arrays of per-case supports, of shape
    (cases, 1), which broadcast against the radii as `poly_chain`'s cases do.
    """
    if not np.all((0 <= inner) & (inner < outer)):
        raise ValueError("need 0 <= inner < outer")
    x = npoly.polyfromroots([0.0] * order + [1.0] * order)  # x^k (x-1)^k
    c = x * amplitude * (-1) ** order * 4.0 ** order  # peak height |amplitude|
    scale = 1.0 / (np.asarray(outer, dtype=float) - inner)
    # scale ** k case by case, by Python's pow: numpy's array power rounds otherwise
    powers = [np.reshape([s ** k for s in scale.ravel().tolist()], scale.shape)
              for k in range(depth + 1)]

    def call(r, c, k):
        u = (np.asarray(r, dtype=float) - inner) * scale
        return np.where((u > 0) & (u < 1), _horner(u, c) * powers[k], 0.0).astype(complex)
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


@functools.cache
def _layers(name: str, *slots) -> list:
    """Selections splitting the support of table `name` into layers of
    distinct targets, a target being the entry's indices at `slots`: layer k
    holds the k-th entry of every target, in support order, so one
    fancy-index update per layer, layer after layer, adds each target's terms
    in the order np.add.at would.  Distinct targets make one layer, selected
    by a slice."""
    count, layer = {}, []
    for key in zip(*(_supports()[name][s].tolist() for s in slots)):
        count[key] = count.get(key, -1) + 1
        layer.append(count[key])
    if max(layer, default=0) == 0:
        return [slice(None)]
    layers = [np.flatnonzero(np.array(layer) == k) for k in range(max(layer) + 1)]
    for sel in layers:  # shared by every caller
        sel.flags.writeable = False
    return layers


def _permuted(t, *perm):
    """A dense jet with index s of the result read from slot perm[s] of t."""
    n = len(perm)
    return t.transpose((0,) + tuple(1 + p for p in perm) + tuple(range(1 + n, t.ndim)))


_NO_PHASE = (0,) * (len(_METRIC) - 1)  # the chart tables' wavenumbers


def _metric_jet(x, levels: int) -> np.ndarray:
    """Levels 0..levels-1 of the diagonal g_aa [:, a] at the radii x, in x's dtype."""
    s, c = np.sinh(x), np.cosh(x)
    sh = np.array([(s, c)[k % 2] for k in range(levels)])
    ch = np.array([(c, s)[k % 2] for k in range(levels)])
    one = np.array([np.full_like(s, k == 0) for k in range(levels)])
    return np.stack([functools.reduce(leibniz, [sh] * a + [ch] * b, one) for a, b in _METRIC],
                    axis=1)


def _christoffel(g, ginv, support) -> np.ndarray:
    """Gamma^c_ab = 1/2 g^cc (d_a g_cb + d_b g_ca - d_c g_ab) at the index
    triples (c, a, b) of `support`, [:, entry], from the diagonals' jets."""
    c, a, b = support
    dg = _derivative(g, _NO_PHASE)  # d_e g_xx at [:, e, x], then an exact zero at x = dim
    dg = np.concatenate([dg, np.zeros_like(dg[:, :, :1])], axis=2)

    def d(e, x, y):  # d_e g_xy, read as a dense table holds it
        return dg[:, e, np.where(x == y, x, len(_METRIC))]

    return 0.5 * leibniz(ginv[:, c], d(a, c, b) + d(b, c, a) - d(c, a, b))


def _riemann(g, gam, gam_support, support) -> np.ndarray:
    """R_abcd = g_aa R^a_bcd at the index quadruples (a, b, c, d) of `support`,
    [:, entry], from the jets of g and of Gamma on `gam_support`.

    R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + sum_k (Gamma^a_ck Gamma^k_db -
    Gamma^a_dk Gamma^k_cb); the k sum runs in order and skips each k with no
    entry Gamma^a_.k or no entry Gamma^k_.. on the support.  An entry off the
    support reads as the exact zero a dense table holds there."""
    keys = list(zip(*(i.tolist() for i in gam_support)))
    row = {key: i for i, key in enumerate(keys)}

    def rows(*idx):  # rows of Gamma entries; the appended zero row for one off the support
        cols = [i.tolist() for i in np.broadcast_arrays(*idx)]
        return np.array([row.get(key, len(row)) for key in zip(*cols)], dtype=np.intp)

    gam = np.concatenate([gam, np.zeros_like(gam[:, :1])], axis=1)
    dgam, gam = _derivative(gam, _NO_PHASE), gam[:-1]
    a, b, c, d = support
    riem = dgam[:, c, rows(a, d, b)] - dgam[:, d, rows(a, c, b)]
    quad, upper, last = np.zeros_like(riem), {x for x, _, _ in keys}, {(x, z) for x, _, z in keys}
    for k in range(len(_METRIC)):
        sel = np.flatnonzero([k in upper and (ai, k) in last for ai in a.tolist()])
        if len(sel):
            ak, bk, ck, dk = (i[sel] for i in support)
            quad[:, sel] += (leibniz(gam[:, rows(ak, ck, k)], gam[:, rows(k, dk, bk)])
                             - leibniz(gam[:, rows(ak, dk, k)], gam[:, rows(k, ck, bk)]))
    return leibniz(g[:, a], riem + quad)


@functools.cache
def _supports() -> dict:
    """The index arrays, in C order, of the entries of "gam", "riem_low" and
    "curv" (that of "riem_low") that are not identically zero: read once, off
    a build of every entry at two radii.  The entries are analytic in r, so
    one that vanishes at level 0 on an interval vanishes at every level;
    level 0 at two radii stands in for that."""
    dim, out = len(_METRIC), {}
    g = _metric_jet(np.array([0.4, 0.9], dtype=np.longdouble), 3)
    every = [tuple(np.array(i) for i in zip(*itertools.product(range(dim), repeat=rank)))
             for rank in (3, 4)]
    gam = _christoffel(g, jet_reciprocal(g), every[0])
    keep = gam.any(axis=(0, 2))
    out["gam"] = tuple(i[keep] for i in every[0])
    low = _riemann(g, gam[:, keep], out["gam"], every[1])
    out["riem_low"] = out["curv"] = tuple(i[low.any(axis=(0, 2))] for i in every[1])
    for support in out.values():  # shared by every caller
        for i in support:
            i.flags.writeable = False
    return out


def _levi_civita(r, levels: int, name: str, chain: Optional[dict] = None) -> dict:
    """Chart tables g, ginv, gam, riem_low (see `ChartGrid`) in long double, through
    `name`, from `levels` levels of g; a `chain` with as many is continued.  Near
    the axis R_0101 = -sinh^2 r cancels terms of size cosh^2 r, which in float64
    costs verify up to 0.7 accuracy digits."""
    if chain is None or len(chain["g"]) < levels:
        g = _metric_jet(np.asarray(r, dtype=np.longdouble), levels)
        chain = {"g": g, "ginv": jet_reciprocal(g)}
    if name in ("gam", "riem_low") and "gam" not in chain:
        chain["gam"] = _christoffel(chain["g"], chain["ginv"], _supports()["gam"])
    if name == "riem_low" and name not in chain:
        chain[name] = _riemann(chain["g"], chain["gam"], _supports()["gam"], _supports()[name])
    return chain


class ChartGrid:
    """The chart's jet tables on one radius grid.

    `jet(name, m)` is levels 0..m of a table, shape (m+1, entries) + r.shape.
    "g" and "ginv" hold the diagonals g_aa and g^aa at entry a.  "gam"
    (Gamma^c_ab, indexed (c, a, b)), "riem_low" (R_abcd) and "curv"
    (R_acbd g^cc g^dd, indexed (a, c, b, d)) hold the entries of
    `support(name)`, in its order: every other entry is an exact zero at
    every level and radius, so these tables are built and contracted over
    their support only.  `_build` makes a table when first read and again
    only for a deeper level, off the grid's one `_levi_civita` chain: a later
    table continues it, a deeper level starts it over.
    """

    def __init__(self, chart: "TubeChart", r):
        self.chart, self.r, self._tables, self._chain = chart, r, {}, None

    def jet(self, name: str, m: int) -> np.ndarray:
        have = self._tables.get(name)
        if have is None or len(have) <= m:
            if m > self.chart.depth:
                raise ValueError(f"jet level {m} is past the chart's depth {self.chart.depth}")
            have = self._tables[name] = self._build(name, m)
        return have[:m + 1]

    @staticmethod
    def support(name: str) -> tuple:
        """Index arrays, in C order, of the entries that table "gam",
        "riem_low" or "curv" holds; the same on every grid."""
        return _supports()[name]

    def _build(self, name: str, m: int) -> np.ndarray:
        if name == "curv":
            # R_acbd g^cc g^dd on the support of R_abcd
            low, ginv = self.jet("riem_low", m), self.jet("ginv", m)
            _, c, _, d = self.support(name)
            return leibniz(leibniz(low, ginv[:, c]), ginv[:, d])
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
        low = np.zeros((self.dim,) * 4 + grid.r.shape, dtype=complex)
        low[grid.support("riem_low")] = grid.jet("riem_low", 0)[0]
        ginv = grid.jet("ginv", 0)[0]
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
    `ChartGrid` tables, and lists its `operands` as (field, level offset)
    pairs: a covariant derivative reads its operand one level deeper, every
    other node at its own level.  `dense(grid, m, memo)` gives levels
    0..m <= depth of every component as one array of shape
    (m+1,) + (dim,)*rank + the broadcast shape of grid.r, the phases and the
    profiles' jets, kept in the memo under the field itself (fields hash by
    identity).  A memo belongs to one grid and keeps its keys alive, so
    fields evaluated through it one after another never read each other's
    jets; `values` and the quadratures first set, in one demand pass, the
    deepest level each node is read at, so each node is evaluated once.

    The phase exp(i(angular*theta + axial*s)) is common to every component,
    so theta and s derivatives are exact multiplications.  A field may stack
    cases: `angular` and `axial` of shape (cases, 1), and profiles whose jets
    carry the same case axis (`poly_chain`, `bump_chain`), broadcast against
    radii of shape (1, num) or (cases, num); every case is evaluated as it
    would be on its own.
    """

    chart: TubeChart
    rank: int
    components: Mapping[tuple, RadialProfile] = field(default_factory=dict)
    angular: float = 0.0
    axial: float = 0.0
    node: Optional[Callable] = None
    depth: Optional[int] = field(init=False, default=None)
    operands: tuple = field(init=False, default=())
    _nabla: Optional["OracleField"] = field(init=False, default=None, repr=False)

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
            top = max(m, memo.get(_DEMAND, {}).get(self, m))
            if self.node is not None:
                have = self.node(grid, top, memo)
            else:
                jets = [(idx, prof.jet(grid.r, top, memo))
                        for idx, prof in self.components.items() if not prof.is_zero]
                shape = np.broadcast_shapes(grid.r.shape, np.shape(self.angular),
                                            np.shape(self.axial),
                                            *(jet.shape[1:] for _, jet in jets))
                have = np.zeros((top + 1,) + (grid.chart.dim,) * self.rank + shape,
                                dtype=complex)
                for idx, jet in jets:
                    have[(slice(None),) + idx] = jet
            memo[self] = have
        return have[:m + 1]

    def values(self, r, memo: Optional[dict] = None):
        """Radial coefficients at the radii or `ChartGrid` r; phase excluded."""
        grid = _on_grid(self.chart, r)
        return _level_zero((self,), grid, {} if memo is None else memo)[0].copy()

    def evaluate(self, r, theta: float = 0.0, s: float = 0.0):
        phase = np.exp(1j * (self.angular * theta + self.axial * s))
        return self.values(r) * phase

    def _node(self, node, depth: int, operands: tuple, rank: Optional[int] = None,
              angular: Optional[float] = None,
              axial: Optional[float] = None) -> "OracleField":
        """A node over `operands`, of this field's rank and mode unless given,
        capped at the chart's depth."""
        out = OracleField(self.chart, self.rank if rank is None else rank,
                          angular=self.angular if angular is None else angular,
                          axial=self.axial if axial is None else axial, node=node)
        out.depth, out.operands = min(depth, self.chart.depth), operands
        return out

    def _map(self, fn, *others, **overrides) -> "OracleField":
        """The node fn(jet of self, jets of others), level by level; the
        `overrides` (rank, angular, axial) go on to `_node`."""
        fields = (self,) + others
        return self._node(lambda grid, m, memo: fn(*[f.dense(grid, m, memo) for f in fields]),
                          min(f.depth for f in fields), tuple((f, 0) for f in fields),
                          **overrides)

    def __neg__(self):
        return self._map(np.negative)

    def __rmul__(self, c: complex):
        return self._map(lambda t: c * t)

    def __add__(self, other: "OracleField"):
        if (self.rank != other.rank or not _same(self.angular, other.angular)
                or not _same(self.axial, other.axial)):
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


_DEMAND = "demand"  # the memo key of the levels set by the last demand pass


def _same(x, y):
    """Whether two phases agree: scalars, or per-case arrays in every case."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return bool(np.all(np.equal(x, y)))
    return x == y


def _demand(roots) -> dict:
    """The deepest level each node under `roots` is read at, the roots at
    level 0: a node's operand is read at the node's level plus its offset."""
    order, seen = [], set()

    def visit(f):  # operands before the nodes that read them
        if f not in seen:
            seen.add(f)
            for op, _ in f.operands:
                visit(op)
            order.append(f)

    for f in roots:
        visit(f)
    level = dict.fromkeys(roots, 0)
    for f in reversed(order):
        for op, offset in f.operands:
            level[op] = max(level.get(op, 0), level[f] + offset)
    return level


def _level_zero(fields, grid: ChartGrid, memo: dict) -> list:
    """Level 0 of each field on the grid, through one memo and one demand pass."""
    memo[_DEMAND] = _demand(fields)
    return [f.dense(grid, 0, memo)[0] for f in fields]


def scalar_field(chart: TubeChart, profile: RadialProfile,
                 angular: float = 0.0, axial: float = 0.0) -> OracleField:
    return OracleField(chart, 0, {(): profile}, angular, axial)


def metric_field(chart: TubeChart) -> OracleField:
    return OracleField(chart, 2,
                       node=lambda grid, m, memo: _diagonal_matrix(grid.jet("g", m)))


# ---------------------------------------------------------------------------
# operators: one dense node each


def covariant_derivative(fld: OracleField) -> OracleField:
    """Levi-Civita derivative; the new index comes first.  A field has one
    derivative node, which every call on it returns."""
    if fld._nabla is not None:
        return fld._nabla
    if fld.rank > 3:
        raise ValueError("covariant derivative supports rank <= 3 inputs")
    if fld.depth < 1:
        raise ValueError("derivative chain exhausted")

    def node(grid, m, memo):
        t = fld.dense(grid, m + 1, memo)
        c, a, b = grid.support("gam")
        g = grid.jet("gam", m).reshape((m + 1, len(c)) + (1,) * (fld.rank - 1) + grid.r.shape)
        out = _derivative(t, (1j * fld.angular, 1j * fld.axial))
        # subtract Gamma^c_(a, idx_i) T(idx with c in slot i), in the order (i, c), over
        # the support (c, a, b) of Gamma: an entry off it would subtract only zeros.
        # Slot i trades places with the first slot in t and in out alike.
        for i in range(fld.rank):
            term, view = leibniz(g, t[:-1].swapaxes(1, 1 + i)[:, c]), out.swapaxes(2, 2 + i)
            for sel in _layers("gam", 1, 2):
                view[:, a[sel], b[sel]] -= term[:, sel]
        return out

    fld._nabla = fld._node(node, fld.depth - 1, ((fld, 1),), fld.rank + 1)
    return fld._nabla


def _contract(fld: OracleField, sign: int) -> OracleField:
    """sign * g^aa fld_aa..., summed over a in order."""
    def node(grid, m, memo):
        t, ginv, dim = fld.dense(grid, m, memo), grid.jet("ginv", m), grid.chart.dim
        terms = leibniz(ginv.reshape(ginv.shape[:2] + (1,) * (fld.rank - 2) + grid.r.shape),
                        t[:, range(dim), range(dim)])
        out = np.zeros_like(t[:, 0, 0])
        for a in range(dim):
            out += terms[:, a] if sign > 0 else -terms[:, a]
        return out

    return fld._node(node, fld.depth, ((fld, 0),), fld.rank - 2)


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
        a, c, b, d = grid.support("curv")
        # each out_ab adds its terms in the order (c, d), over the support of the
        # table: an entry off it would add only zeros
        out, term = np.zeros_like(t), leibniz(curv, t[:, c, d])
        for sel in _layers("curv", 0, 2):
            out[:, a[sel], b[sel]] += term[:, sel]
        return out

    return h._node(node, h.depth, ((h, 0),))


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


def tube_inner_product(u: OracleField, v: OracleField, inner=0.0, outer=None,
                       num: int = 160, memo: Optional[dict] = None):
    """Hermitian tube inner product of two single-mode fields over the radii
    0 <= inner < outer <= tube radius (the default).

    Distinct modes are orthogonal by the exact phase integrals; matching
    modes reduce to a radial Gauss-Legendre quadrature with the volume
    weight sqrt(det g) and transverse measure angle * length.

    Fields that stack cases take per-case supports: `inner` and `outer` of
    shape (cases, 1) put each case's nodes on one row of a (cases, num)
    grid.  With a case axis in the fields or the supports the result is the
    array of per-case products, shape (cases,), each as its case would give
    on its own (0 for a case whose modes differ); without one, a complex.

    Quadratures on one support that pass one `memo` evaluate each field they
    share once.  A memo belongs to the chart grid of its first quadrature; on
    another grid (other radii, or the chart's grid rebuilt) it raises ValueError.
    """
    if u.rank != v.rank:
        raise ValueError("rank mismatch")
    chart, tube = u.chart, u.chart.model.tube_radius
    a = tube if outer is None else outer
    if not np.all((0 <= inner) & (inner < a) & (a <= tube)):
        raise DomainError(f"support ({inner}, {a}) is not in the tube of radius {tube}")
    same = np.logical_and(np.equal(u.angular, v.angular), np.equal(u.axial, v.axial))
    if same.ndim == 0 and not same:
        return 0j
    x, w = gauss_legendre(num)
    grid = chart.at(0.5 * (a + inner) + 0.5 * (a - inner) * x)
    r, w = grid.r, 0.5 * (a - inner) * w
    memo = {} if memo is None else memo  # shared, so tube_norm(u) evaluates u once
    if memo.setdefault("grid", grid) is not grid:
        raise ValueError("a memo serves only the chart grid it was first used on")
    uv, vv = _level_zero((u, v), grid, memo)
    ginv = grid.jet("ginv", 0)[0]
    fac = np.ones_like(r, dtype=complex)
    for k in range(u.rank):  # fac[idx] = g^(idx_0 idx_0) * ... * g^(idx_k idx_k), in slot order
        fac = np.expand_dims(fac, k) * ginv.reshape((1,) * k + ginv.shape)
    terms, dens = fac * uv * np.conj(vv), np.zeros_like(r, dtype=complex)
    for term in terms.reshape((-1,) + terms.shape[u.rank:]):  # idx in C order
        dens = dens + term
    a, b = _sqrt_metric()
    dens = dens * np.sinh(r) ** a * np.cosh(r) ** b
    out = np.sum(w * dens, axis=-1) * chart.angle * chart.length
    if same.ndim:
        out = np.where(same[..., 0], out, 0j)
    return complex(out) if out.ndim == 0 else out


def tube_norm(u: OracleField, inner=0.0, outer=None, num: int = 160,
              memo: Optional[dict] = None):
    """sqrt(<u, u>) by `tube_inner_product`, whose `memo` and per-case
    supports it takes: a float, or an array of per-case norms."""
    ip = tube_inner_product(u, u, inner, outer, num, memo)
    if isinstance(ip, complex):
        return math.sqrt(max(ip.real, 0.0))
    return np.sqrt(np.maximum(ip.real, 0.0))


# ---------------------------------------------------------------------------
# identity suite


def _case_max(v) -> np.ndarray:
    """max |v| of each case, the case axis next to the radius axis."""
    return np.max(np.abs(v), axis=tuple(range(v.ndim - 2)) + (-1,))


def _rel_residuals(x: OracleField, y: OracleField, grid: ChartGrid) -> list:
    """max |x - y| / (max |x| + max |y|) per case, 0 where both vanish."""
    xv, yv = _level_zero((x, y), grid, {})
    scales = (_case_max(xv) + _case_max(yv)).tolist()
    return [0.0 if s == 0 else e / s for e, s in zip(_case_max(xv - yv).tolist(), scales)]


def _norms(fields, lo, hi) -> list:
    """Per-case tube norms of fields on one support, through one memo."""
    memo = {}
    return [tube_norm(f, lo, hi, memo=memo).tolist() for f in fields]


def _random_oneform(chart, chains, angular, axial):
    return OracleField(chart, 1, {(a,): chains[a] for a in range(chart.dim)}, angular, axial)


def _random_tensor(chart, chains, angular, axial, sign: int = 1):
    """A symmetric (sign 1) or antisymmetric (sign -1) 2-tensor; chains cycle
    over the index pairs a <= b, or a < b."""
    pairs = (itertools.combinations_with_replacement if sign > 0
             else itertools.combinations)(range(chart.dim), 2)
    comps = {}
    for k, (a, b) in enumerate(pairs):
        c = comps[(a, b)] = chains[k % len(chains)]
        if a != b:
            comps[(b, a)] = c if sign > 0 else -c
    return OracleField(chart, 2, comps, angular, axial)


def _complex_normals(rng, size: int) -> np.ndarray:
    # real parts first, then imaginary parts
    x = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * size)])
    return x[:size] + 1j * x[size:]


def _phases(chart, rng) -> tuple:
    """A case's mode: the angular multiple of gamma in 0..3, then the axial
    wave number in -2..2."""
    return (float(rng.randrange(4)) * chart.gamma,
            2 * math.pi * float(rng.randrange(-2, 3)) / chart.length)


def _polynomial_case(chart, rng, count: int) -> tuple:
    """Coefficients of `count` cubic chains, then the phases."""
    return ([_complex_normals(rng, 4) for _ in range(count)],) + _phases(chart, rng)


def _bump_case(chart, rng, count: int) -> tuple:
    """A support shared by the case's chains, which keeps the quadrature
    panels aligned with the piecewise boundary so Gauss-Legendre stays
    spectrally accurate; the coefficients of `count` quadratic factors of the
    bump; then the phases."""
    a = chart.model.tube_radius
    lo = rng.uniform(0.1, 0.35) * a
    hi = rng.uniform(0.6, 0.9) * a
    return (lo, hi, [_complex_normals(rng, 3) for _ in range(count)]) + _phases(chart, rng)


def _stacked(cases) -> list:
    """Per-case draws stacked entry by entry, the case axis before a unit
    radius axis: numbers become (cases, 1), coefficient lists
    (count, terms, cases, 1)."""
    return [np.moveaxis(np.array(entry), 0, -1)[..., None] for entry in zip(*cases)]


def _bump_chains(lo, hi, coeffs) -> list:
    bump = bump_chain(lo, hi, order=4)
    return [bump * poly_chain(c) for c in coeffs]


def energy_ratios(chart: TubeChart, rng: random.Random, n_cases: int) -> list:
    """Rayleigh quotients <P h, h> / |h|^2 of random bump-supported tensors.

    The Einstein operator P is bounded below by n - 2 on compactly supported
    symmetric tensors of the hyperbolic tube.  Each case draws from `rng`, in
    order: the support (lo, hi) by `uniform`, as fractions in [0.1, 0.35] and
    [0.6, 0.9] of the tube radius; six component chains, each the bump times a
    quadratic whose three complex coefficients are six `gauss` normals (real
    parts first); then the mode phases by `randrange`, the angular multiple
    of gamma in 0..3 and the axial wave number in -2..2.  The cases run one
    at a time, which bounds the memory of their rank-4 second derivatives.
    """
    if n_cases < 1:
        raise ValueError("n_cases must be positive")
    ratios = []
    for _ in range(n_cases):
        lo, hi, coeffs, angular, axial = _bump_case(chart, rng, 6)
        h, memo = _random_tensor(chart, _bump_chains(lo, hi, coeffs), angular, axial), {}
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

    Each identity is evaluated once for all of its cases, stacked on a case
    axis: the pointwise ones on one row of 40 radii, the integral ones on
    one grid of each case's quadrature nodes.  A row reports the largest of
    its per-case residuals, each as its case gives it on its own.
    """
    if n_cases < 1:
        raise ValueError("n_cases must be positive")
    chart = TubeChart(model)
    rng = random.Random(seed)
    n = chart.dim
    a = model.tube_radius
    grid = chart.at(np.linspace(0.15 * a, 0.9 * a, 40)[None])
    cases = max(4, n_cases // 10)
    report = []

    def add(name, count, residuals):
        res = 0.0
        for x in residuals:
            res = max(res, x)
        report.append({"identity": name, "n_cases": count,
                       "max_rel_residual": float(res),
                       "pass": bool(res <= tol)})

    def polynomial(count):  # chains, angular, axial of the n_cases cases
        coeffs, angular, axial = _stacked([_polynomial_case(chart, rng, count)
                                           for _ in range(n_cases)])
        return [poly_chain(c) for c in coeffs], angular, axial

    def bumps(count):  # chains, lo, hi, angular, axial of the bump cases
        lo, hi, coeffs, angular, axial = _stacked([_bump_case(chart, rng, count)
                                                   for _ in range(cases)])
        return _bump_chains(lo, hi, coeffs), lo, hi, angular, axial

    h = _random_tensor(chart, *polynomial(6))
    add("curvature_action_hyperbolic", n_cases,
        _rel_residuals(ricci_action(h), h - trace(h) * metric_field(chart), grid))

    w = _random_oneform(chart, *polynomial(3))
    lhs = exterior_d(codifferential(w)) + codifferential(exterior_d(w))
    rhs = rough_laplacian(w) - float(n - 1) * w
    add("weitzenboeck_oneform", n_cases, _rel_residuals(lhs, rhs, grid))

    w = _random_oneform(chart, *polynomial(3))
    lhs = 2.0 * bianchi_beta(delta_star(w))
    rhs = rough_laplacian(w) + float(n - 1) * w
    add("gauge_composition_oneform", n_cases, _rel_residuals(lhs, rhs, grid))

    chains, lo, hi, angular, axial = bumps(3)
    w = _random_oneform(chart, chains, angular, axial)
    # two-form norms here contract both index slots, so the
    # half-normalized form statement picks up another factor 1/2
    norms = _norms((delta_star(w), codifferential(w), exterior_d(w), w), lo, hi)
    res = []
    for sym, cod, ext, w0 in zip(*norms):
        lhs = sym ** 2
        rhs = cod ** 2 + 0.25 * ext ** 2 + (n - 1) * w0 ** 2
        res.append(abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
    add("symmetrized_gradient_energy", cases, res)

    w2 = _random_tensor(chart, *polynomial(3), -1)
    lhs = rough_laplacian(w2)
    rhs = (exterior_d(codifferential(w2)) + codifferential(exterior_d(w2))
           + float(2 * (n - 2)) * w2)
    add("weitzenboeck_twoform", n_cases, _rel_residuals(lhs, rhs, grid))

    w = _random_oneform(chart, *polynomial(3))
    lhs = rough_laplacian(delta_star(w))
    rhs = (2.0 * delta_star(w)
           + 2.0 * (codifferential(w) * metric_field(chart))
           + delta_star(rough_laplacian(w) + float(n - 1) * w))
    add("laplacian_gauge_commutation", n_cases, _rel_residuals(lhs, rhs, grid))

    h = _random_tensor(chart, *polynomial(6))
    lhs = rough_laplacian(h)
    rhs = (delta_nabla(d_nabla(h)) + d_nabla(delta_nabla(h))
           + float(n) * h - trace(h) * metric_field(chart))
    add("weitzenboeck_tensor_hyperbolic", n_cases, _rel_residuals(lhs, rhs, grid))

    h = _random_tensor(chart, *polynomial(6))
    scale, out = _level_zero((bianchi_beta(rough_laplacian(h)),
                              bianchi_beta(linearized_einstein(h))), grid, {})
    add("linearized_bianchi", n_cases,
        [float(o / s) for o, s in zip(_case_max(out), _case_max(scale))])

    w = _random_oneform(chart, *polynomial(3))
    add("trace_intertwine", n_cases,
        _rel_residuals(trace(delta_star(w)), -1.0 * codifferential(w), grid))

    chains, lo, hi, angular, axial = bumps(6)
    w = _random_oneform(chart, chains[:3], angular, axial)
    v0 = OracleField(chart, 1, {(a,): c for a, c in enumerate(chains[3:])},
                     w.angular, w.axial)
    v, memo = covariant_derivative(v0), {}
    lhs = tube_inner_product(w, adjoint_divergence(v), lo, hi, memo=memo).tolist()
    rhs = tube_inner_product(covariant_derivative(w), v, lo, hi, memo=memo).tolist()
    add("adjoint_pairing", cases, [abs(x - y) / (abs(x) + abs(y)) for x, y in zip(lhs, rhs)])

    return report
