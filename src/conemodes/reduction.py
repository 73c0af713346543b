"""Mode reduction of the deformation operators on the tube.

A one-form on the tube decomposes per cross-section mode into radial profiles
against the lifted basis covectors; symmetric 2-tensors likewise.  On each
mode the relevant operators become systems of radial ODEs

    (O X)_i = -X_i'' - q(r) X_i' + sum_j V_ij(r) X_j,
    q(r) = 1/th(r) + (n-2) th(r),

with every potential a constant pencil over seven fixed radial products,

    V(r) = sum_b C_b phi_b(r),
    phi_b in (1, inv_th^2, th^2, inv_sh_sq, inv_ch_sq, sh_th_inv, th*inv_ch).

Each phi_b, like every radial coefficient, is a monomial sh^a ch^b, so the
basis is the seven exponent pairs (0, 0), (-2, 2), (2, -2), (-2, 0), (0, -2),
(-2, 1), (1, -2), and q is the two pairs (-1, 1) and (1, -1), with the
integer coefficients 1 and n - 2.  The builders write each operator entry
straight into the matrices C_b, one coefficient per named basis slot (one,
it2, th2, s2, c2, sti, thc in the order above), each taken to the real
frame D C_b D^-1 where it is real, so that float64 pencil is the only form
of a system's potential.  The sti slot, the terms of first order in
d/dtheta, is written whole from one integer matrix per block, the
theta-coupling O (`theta_coupling`): it is 2 p gamma O, the it2 slot is
O^2, and so W0 = (tI + O)^2 at t = p gamma.
Pointwise values and both radial derivatives of V and q come from the one
monomial evaluator of :mod:`conemodes.geometry`.  Their Laurent data, and
those of every radial expression, are read off one table per set of pairs
(`_series_table`), which rounds each exact coefficient of the geometry's
series once.

This module owns those systems: it applies them pointwise, forms the
first-order gradient/exterior-derivative displays for one-form blocks,
computes weighted tube norms by Gauss-Legendre quadrature, and produces the
standard singular deformation blocks (cone angle, locus metric, gluing).
Every unknown is a :class:`ModeBlock`: a family ("oneform" or "tensor"), a
mode and component profiles.  Its kind (below) is read off the mode by
`mode_kind`, the one rule for it, and its component names from one table per
family and kind.  The components are
:class:`conemodes.geometry.RadialProfile` jets, and `ModeSystem.apply` reads
levels 0..2 of every component through one shared memo, so components built
from a common profile evaluate it once.  The indicial matrix
W0 = lim r^2 V is the leading matrix of `ModeSystem.laurent_potential`, the
one the Frobenius recursion reads.

One-form block kinds: A (scalar mode with gradient part: f, g, omega),
B (scalar mode, eigenvalue 0: f, g), C (co-closed mode: varpi).
Tensor block kinds: A (scalar mode, eigenvalue > 0: f, g, h, sigma, eta, k1
and k2 when the dimension admits it), B (scalar mode, eigenvalue 0: f, g, h,
k1), C (co-closed mode: sigma_bar, eta_bar and k3 when mu + n - 3 > 0),
D (trace-free transverse mode: k4).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from conemodes.geometry import (
    ConeModel,
    DomainError,
    RADIAL_FUNCTIONS,
    RadialProfile,
    gauss_legendre,
    sinh_cosh_series,
    sinh_cosh_values,
)
from conemodes.modes import (
    CoclosedMode,
    Mode,
    ScalarMode,
    TTMode,
    active_tensor_families,
    mode_from_dict,
    mode_to_dict,
)

__all__ = [
    "RadialExpr",
    "ModeBlock",
    "ModeSystem",
    "mode_kind",
    "system_names",
    "theta_coupling",
    "oneform_system",
    "tensor_system",
    "apply_L_oneform",
    "apply_P_tensor",
    "grad_oneform",
    "ext_d_oneform",
    "trace_tensor_mode",
    "scalar_mode_operator",
    "l2_norm_tube",
    "QuadratureConvergenceError",
    "standard_deformation_block",
    "log_grid",
    "component_weights",
    "block_to_dict",
    "block_from_dict",
    "block_csv_rows",
    "sample_csv_rows",
]


# ---------------------------------------------------------------------------
# radial coefficient algebra


@functools.lru_cache(maxsize=64)
def _series_table(pairs: tuple, lead: int, order: int) -> np.ndarray:
    """S[j, b]: coefficient of r^(lead + j) in sh^a ch^e, (a, e) = pairs[b],
    j = 0..order-1, each rounded once from the exact series table; read-only.
    `lead` is at most every a."""
    out = np.zeros((order, len(pairs)))
    for b, (a, e) in enumerate(pairs):
        if a - lead < order:
            out[a - lead:, b] = [float(x) for x in
                                 sinh_cosh_series(a, e, order - (a - lead)).coeffs]
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class RadialExpr:
    """Linear combination of radial monomials sh^a ch^b.

    terms[k] = (coefficient, (a, b)); the pair (0, 0) is the constant
    function 1.  Radial expressions spell out the scalar mode operator's
    potential and the source terms of inhomogeneous problems.
    """

    terms: tuple

    def __call__(self, r, derivative: int = 0):
        """Value, or the radial derivative of the given order, at radii r."""
        r = np.asarray(r, dtype=float)
        acc = np.zeros(r.shape, dtype=complex)
        terms = [(c, pair) for c, pair in self.terms if c != 0]
        if terms:
            values = sinh_cosh_values([pair for _, pair in terms], r, derivative)
            for (c, _), v in zip(terms, values):
                acc = acc + c * v
        return acc if acc.shape else acc[()]

    def __add__(self, other: "RadialExpr") -> "RadialExpr":
        return RadialExpr(self.terms + other.terms)

    def __mul__(self, scalar) -> "RadialExpr":
        return RadialExpr(tuple((c * scalar, pair) for c, pair in self.terms))

    __rmul__ = __mul__

    def laurent(self, order: int):
        """(lead, c): the lowest power `lead` of any term and the complex
        coefficients c[j] of r^(lead + j), j = 0..order-1.  Each term is read
        off `_series_table` and added on its own powers only."""
        lead = min((a for _, (a, _) in self.terms), default=0)
        table = _series_table(tuple(pair for _, pair in self.terms), lead, order)
        acc = np.zeros(order, dtype=complex)
        for b, (c, (a, _)) in enumerate(self.terms):
            if c != 0 and a - lead < order:
                acc[a - lead:] += table[a - lead:, b] * c
        return lead, acc


def _exponents(names) -> tuple:
    """Exponent pair (a, b) of a product of named radial functions; an
    unknown name raises KeyError."""
    pairs = [RADIAL_FUNCTIONS[name] for name in names]
    return sum(a for a, _ in pairs), sum(b for _, b in pairs)


def _ex(*names) -> RadialExpr:
    return RadialExpr(((1.0 + 0j, _exponents(names)),))


def log_grid(model: ConeModel, num: int = 200, inner: float = 1e-6) -> np.ndarray:
    """Default radial sample grid: log-spaced from `inner` to the tube radius."""
    return np.geomspace(inner, model.tube_radius, num)


# ---------------------------------------------------------------------------
# mode blocks

_COMPONENTS = {
    "oneform": {"A": ("f", "g", "omega"), "B": ("f", "g"), "C": ("varpi",)},
    "tensor": {
        "A": ("f", "g", "h", "sigma", "eta", "k1", "k2"),
        "B": ("f", "g", "h", "k1"),
        "C": ("sigma_bar", "eta_bar", "k3"),
        "D": ("k4",),
    },
}
# theta-odd: d/dtheta = i p gamma couples them to the rest by imaginary entries
_THETA_ODD = {"oneform": ("g",), "tensor": ("h", "eta", "eta_bar")}


@functools.lru_cache(maxsize=None)
def _frame(family: str, names: tuple) -> np.ndarray:
    """d of the real frame D = diag(d): i on the theta-odd components, else 1."""
    d = np.array([1j if nm in _THETA_ODD[family] else 1.0 for nm in names])
    d.flags.writeable = False
    return d


# The non-zero entries of O, the theta-coupling in the frame: the direct sum
# of [[0, 1], [1, 0]] on each (even, odd) pair and of [[0, 0, 1], [0, 0, -1],
# [2, -2, 0]] on the tensor (f, g, h).
_COUPLING = {
    "oneform": {("f", "g"): 1, ("g", "f"): 1},
    "tensor": {("f", "h"): 1, ("g", "h"): -1, ("h", "f"): 2, ("h", "g"): -2,
               ("sigma", "eta"): 1, ("eta", "sigma"): 1,
               ("sigma_bar", "eta_bar"): 1, ("eta_bar", "sigma_bar"): 1},
}


@functools.lru_cache(maxsize=None)
def theta_coupling(family: str, names: tuple) -> np.ndarray:
    """O over the components `names`, read-only float64 in the frame; the
    builders add 2 p gamma O to a zero sti slot, so its zeros read +0.0."""
    O = np.array([[_COUPLING[family].get((row, col), 0) for col in names]
                  for row in names], dtype=float)
    O.flags.writeable = False
    return O


def mode_kind(mode: Mode, family: str) -> str:
    """The block kind a mode generates in a family."""
    if family not in _COMPONENTS:
        raise ValueError(f"unknown family {family!r}")
    if isinstance(mode, ScalarMode):
        return "A" if mode.lam > 0 else "B"
    if isinstance(mode, CoclosedMode):
        return "C"
    if isinstance(mode, TTMode):
        if family == "oneform":
            raise ValueError("one-form blocks carry scalar or co-closed modes only")
        return "D"
    raise TypeError(f"unsupported mode {mode!r}")


# optional tensor components and the cross-section family each needs
_OPTIONAL = {"k2": "b", "k3": "c"}


def system_names(family: str, n: int, mode: Mode) -> tuple:
    """The components of a mode's reduced system: the names of the kind the
    mode generates, less the tensor ones whose cross-section family is
    inactive at this n and mode."""
    names = _COMPONENTS[family][mode_kind(mode, family)]
    if family == "oneform":
        return names
    fams = active_tensor_families(n, mode)
    return tuple(nm for nm in names if nm not in _OPTIONAL or _OPTIONAL[nm] in fams)


@dataclass(frozen=True)
class ModeBlock:
    """The radial profiles of one mode of a one-form ("oneform") or
    symmetric 2-tensor ("tensor") field; a missing component is zero.  The
    block kind is read off the mode by `mode_kind`."""

    family: str
    mode: Mode
    profiles: Mapping[str, RadialProfile] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _COMPONENTS:
            raise ValueError(f"unknown block family {self.family!r}")
        extra = set(self.profiles) - set(self.names)
        if extra:
            raise ValueError(f"components {sorted(extra)} not in kind {self.kind}")

    @property
    def kind(self) -> str:
        return mode_kind(self.mode, self.family)

    @property
    def names(self) -> tuple:
        """Every component name of the block's family and kind, in order."""
        return _COMPONENTS[self.family][self.kind]

    def component(self, name: str) -> RadialProfile:
        return self.profiles.get(name, RadialProfile.zero())


def component_weights(family: str, names) -> np.ndarray:
    """Pointwise norm weights of block components.

    Diagonal-slot components weigh 1; components multiplying a symmetrized
    product of two orthonormal covectors weigh 1/2.
    """
    half = {"h", "sigma", "eta", "sigma_bar", "eta_bar"}
    if family == "oneform":
        return np.ones(len(names))
    return np.array([0.5 if n in half else 1.0 for n in names])


# ---------------------------------------------------------------------------
# the reduced operator systems


# The exponent pairs (a, b) of the seven radial products sh^a ch^b every
# potential entry is a combination of: 1, inv_th^2, th^2, inv_sh_sq,
# inv_ch_sq, sh_th_inv and th*inv_ch, and the slot names the builders
# write them by.
_BASIS = ((0, 0), (-2, 2), (2, -2), (-2, 0), (0, -2), (-2, 1), (1, -2))
_SLOTS = ("one", "it2", "th2", "s2", "c2", "sti", "thc")
# The drift q = inv_th + (n - 2) th: the pairs of inv_th and th, with the
# coefficients 1 and n - 2.
_DRIFT = ((-1, 1), (1, -1))


def _drift_at(n: int, r, derivative: int = 0):
    """q(r) or its radial derivative of the given order, as v0 + (n - 2) v1."""
    v0, v1 = sinh_cosh_values(_DRIFT, r, derivative)
    return v0 + (n - 2) * v1


def _pencil_writer(family: str, names):
    """A zero float64 pencil over the components `names`, and put(row, col,
    **slots), which adds each keyword's coefficient times d_row conj(d_col) to
    the entry (row, col) of the basis slot it names; a name outside `_SLOTS`
    or a coefficient the frame leaves imaginary raises ValueError."""
    idx = {nm: i for i, nm in enumerate(names)}
    d = [complex(x) for x in _frame(family, tuple(names))]
    pencil = np.zeros((len(_BASIS), len(names), len(names)))

    def put(row, col, **slots):
        unit = d[idx[row]] * d[idx[col]].conjugate()
        for slot, c in slots.items():
            if slot not in _SLOTS:
                raise ValueError(f"{slot!r} is not a potential basis slot")
            framed = c * unit
            if framed.imag:
                raise ValueError(f"{family} entry ({row}, {col}) is not real in its frame")
            pencil[_SLOTS.index(slot), idx[row], idx[col]] += framed.real

    return pencil, put


@dataclass(frozen=True)
class ModeSystem:
    """One mode's radial ODE system for a deformation operator.

    X is taken in the real frame D = diag(d), d_j = +i on the theta-odd
    components and 1 on the others, which absorbs d/dtheta = i p gamma.
    ``pencil`` holds the read-only float64 matrices D C_b D^-1, shape
    (7, k, k), of D V(r) D^-1 = sum_b D C_b D^-1 phi_b(r), the one form every
    method reads.  It is fixed by the other fields, so it takes no part in
    equality or hashing.
    """

    family: str
    kind: str
    mode: Mode
    n: int
    gamma: float
    names: tuple
    pencil: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        if self.pencil.dtype != np.float64:
            raise ValueError(f"{self.family} pencil is not float64 in its frame")

    @property
    def arity(self) -> int:
        return len(self.names)

    @property
    def frame(self) -> np.ndarray:
        """d: i on the theta-odd components, 1 on the others."""
        return _frame(self.family, self.names)

    def to_frame(self, x, axis: int = -1):
        """D x over the components along `axis`, float64 when that is exact."""
        x = np.moveaxis(np.moveaxis(np.asarray(x), axis, -1) * self.frame, -1, axis)
        return x if x.imag.any() else x.real

    def drift_at(self, r, derivative: int = 0):
        """q(r) or its radial derivative of the given order."""
        return _drift_at(self.n, r, derivative)

    def potential_at(self, r, derivative: int = 0):
        """Framed V(r) or its radial derivative of the given order, shape
        (k, k) + r.shape."""
        phi = sinh_cosh_values(_BASIS, r, derivative)
        k = self.arity
        V = self.pencil.reshape(len(_BASIS), k * k).T @ phi.reshape(len(_BASIS), -1)
        return V.reshape((k, k) + phi.shape[1:])

    def apply(self, block, r):
        """Pointwise operator value on the block's profiles at radii r; a
        non-zero profile of a component the system lacks raises ValueError.
        The jets enter the frame and the rows leave it exactly (times +-1, +-i)."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise DomainError("operator application needs r > 0")
        inactive = [nm for nm, prof in block.profiles.items()
                    if nm not in self.names and not prof.is_zero]
        if inactive:
            raise ValueError(f"components {sorted(inactive)} are not active in "
                             f"this mode's system at n = {self.n}")
        memo = {}  # shared, so components built from one profile read it once
        d = self.frame
        jets = [dj * block.component(nm).jet(r, 2, memo) for dj, nm in zip(d, self.names)]
        q = self.drift_at(r)
        V = self.potential_at(r)
        out = {}
        for i, name in enumerate(self.names):
            acc = -jets[i][2] - q * jets[i][1]
            for j in range(self.arity):
                acc = acc + V[i, j] * jets[j][0]
            out[name] = d[i].conjugate() * acc
        return out

    def rhs_first_order(self, r, y, source=None):
        """First-order form for integrators: y = [X, X'] stacked along axis 0,
        X of shape (k,) or (k, columns), and O X = source(r), all framed."""
        k = self.arity
        X, dX = y[:k], y[k:]
        # O X = -X'' - q X' + V X = src  =>  X'' = -q X' + V X - src
        ddX = self.potential_at(r) @ X - self.drift_at(r) * dX
        if source is not None:
            ddX = ddX - source(r)
        return np.concatenate([dX, ddX])

    def laurent_drift(self, order: int) -> np.ndarray:
        """q_j of r q(r) = sum_j q_j r^j, j = 0..order-1 (q_0 = 1, even j
        only), float64: the two pairs' columns of `_series_table` summed as
        v0 + (n - 2) v1, the order `drift_at` sums them in."""
        v0, v1 = _series_table(_DRIFT, -1, order).T
        return v0 + (self.n - 2) * v1

    def laurent_potential(self, order: int):
        """Framed W_j matrices: r^2 V(r) = sum_j W_j r^j, j = 0..order-1,
        from the basis columns of `_series_table`."""
        return list(np.einsum("jb,bik->jik", _series_table(_BASIS, -2, order),
                              self.pencil))


def _merge_tol(t):
    """The merge tolerance 1e-9 (|t| + 3) of indicial roots at frequency t."""
    return 1e-9 * (abs(t) + 3.0)


def _snap(t):
    """t, or the half-integer within the merge tolerance of it.

    Roots are +-(t + integer), so distinct roots meet only at a half-integer
    t, and the classification thresholds are integers: snapping there means
    an ulp change of the angle cannot split a root or move it across one.
    """
    half = type(t)(round(2 * t)) / 2
    return half if abs(t - half) <= _merge_tol(t) else t


def oneform_system(model: ConeModel, mode: Mode) -> ModeSystem:
    """Reduced system of the one-form operator (connection Laplacian + (n-1))."""
    n, g = model.n, model.gamma
    pg = _snap(mode.p * g)  # the t whose roots `indicial_report` clusters
    pg2 = pg * pg
    kind = mode_kind(mode, "oneform")
    names = system_names("oneform", n, mode)
    pencil, put = _pencil_writer("oneform", names)
    pencil[_SLOTS.index("sti")] += 2.0 * pg * theta_coupling("oneform", names)
    if kind in ("A", "B"):
        lam = mode.lam
        rootl = math.sqrt(lam)
        put("f", "f", it2=1.0, th2=float(n - 2), s2=pg2, c2=lam, one=n - 1)
        put("g", "g", it2=1.0, s2=pg2, c2=lam, one=n - 1)
        if kind == "A":
            put("f", "omega", thc=-2.0 * rootl)
            put("omega", "f", thc=-2.0 * rootl)
            put("omega", "omega", th2=1.0, s2=pg2, c2=lam + n - 3, one=n - 1)
    else:
        put("varpi", "varpi", th2=1.0, s2=pg2, c2=mode.mu, one=n - 1)
    pencil.flags.writeable = False
    return ModeSystem("oneform", kind, mode, n, g, names, pencil)


def tensor_system(model: ConeModel, mode: Mode) -> ModeSystem:
    """Reduced system of the trace-coupled tensor operator (connection
    Laplacian minus twice the curvature action)."""
    n, g = model.n, model.gamma
    pg = _snap(mode.p * g)  # the t whose roots `indicial_report` clusters
    pg2 = pg * pg
    kind = mode_kind(mode, "tensor")
    names = system_names("tensor", n, mode)
    pencil, put = _pencil_writer("tensor", names)
    pencil[_SLOTS.index("sti")] += 2.0 * pg * theta_coupling("tensor", names)

    if kind in ("A", "B"):
        lam = mode.lam
        rootl = math.sqrt(lam)
        rn2 = math.sqrt(n - 2)
        put("f", "f", it2=2.0, th2=2.0 * (n - 2), s2=pg2, c2=lam)
        put("f", "g", one=2.0, it2=-2.0)
        put("f", "k1", one=2.0 * rn2, th2=-2.0 * rn2)
        put("g", "f", one=2.0, it2=-2.0)
        put("g", "g", it2=2.0, s2=pg2, c2=lam)
        put("g", "k1", one=2.0 * rn2)
        put("h", "h", it2=4.0, th2=float(n - 2), s2=pg2, c2=lam, one=-2.0)
        put("k1", "f", one=2.0 * rn2, th2=-2.0 * rn2)
        put("k1", "g", one=2.0 * rn2)
        put("k1", "k1", th2=2.0, s2=pg2, c2=lam, one=-2.0 + 2.0 * (n - 2))
        if kind == "A":
            blam = math.sqrt(lam / (n - 2))
            put("f", "sigma", thc=-2.0 * rootl)
            put("h", "eta", thc=-2.0 * rootl)
            put("sigma", "sigma", it2=1.0, th2=float(n + 1), s2=pg2,
                c2=lam + n - 3, one=-2.0)
            put("sigma", "f", thc=-4.0 * rootl)
            put("sigma", "k1", thc=4.0 * blam)
            put("eta", "eta", it2=1.0, th2=1.0, s2=pg2, c2=lam + n - 3, one=-2.0)
            put("eta", "h", thc=-2.0 * rootl)
            put("k1", "sigma", thc=2.0 * blam)
            if "k2" in names:
                cb = math.sqrt(n - 3) * math.sqrt(lam / (n - 2) + 1.0)
                put("sigma", "k2", thc=-4.0 * cb)
                put("k2", "sigma", thc=-2.0 * cb)
                put("k2", "k2", th2=2.0, s2=pg2, c2=lam + 2.0 * (n - 2), one=-2.0)
    elif kind == "C":
        mu = mode.mu
        put("sigma_bar", "sigma_bar", it2=1.0, th2=float(n + 1), s2=pg2, c2=mu,
            one=-2.0)
        put("eta_bar", "eta_bar", it2=1.0, th2=1.0, s2=pg2, c2=mu, one=-2.0)
        if "k3" in names:
            cc = math.sqrt((mu + n - 3) / 2.0)
            put("sigma_bar", "k3", thc=-4.0 * cc)
            put("k3", "sigma_bar", thc=-2.0 * cc)
            put("k3", "k3", th2=2.0, s2=pg2, c2=mu + n - 1, one=-2.0)
    else:
        put("k4", "k4", th2=2.0, s2=pg2, c2=mode.nu, one=-2.0)
    pencil.flags.writeable = False
    return ModeSystem("tensor", kind, mode, n, g, names, pencil)


def apply_L_oneform(model: ConeModel, block: ModeBlock, r):
    """Pointwise value of the one-form operator on the block at radii r."""
    if block.family != "oneform":
        raise ValueError(f"the one-form operator needs a oneform block, not {block.family}")
    r = _check_radii(model, r)
    return oneform_system(model, block.mode).apply(block, r)


def apply_P_tensor(model: ConeModel, block: ModeBlock, r):
    """Pointwise value of the tensor operator on the block at radii r."""
    if block.family != "tensor":
        raise ValueError(f"the tensor operator needs a tensor block, not {block.family}")
    r = _check_radii(model, r)
    return tensor_system(model, block.mode).apply(block, r)


def _check_radii(model, r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("operator application needs r > 0")
    if np.any(r > model.tube_radius):
        raise DomainError("radius outside the tube")
    return r


# ---------------------------------------------------------------------------
# first-order displays on one-form blocks


def grad_oneform(model: ConeModel, block: ModeBlock, r):
    """Frame components of the covariant derivative of a one-form block.

    Keys name the output slot: "er_eth" is the e^r (x) e^theta component's
    radial coefficient, "metric_trace" multiplies the lifted cross-section
    metric, "sym_grad_phi" multiplies the symmetrized cross-section gradient
    of the mode one-form, "nabla_varphi" the full cross-section derivative.
    """
    r = _check_radii(model, r)
    ish = 1.0 / np.sinh(r)
    ith = 1.0 / np.tanh(r)
    th = np.tanh(r)
    ipg = 1j * block.mode.p * model.gamma
    out = {}
    if block.kind in ("A", "B"):
        f, g = block.component("f"), block.component("g")
        fv, gv = f(r), g(r)
        out["er_er"] = f.d1(r)
        out["er_eth"] = g.d1(r)
        out["eth_er"] = ipg * ish * fv - ith * gv
        out["eth_eth"] = ith * fv + ipg * ish * gv
        out["metric_trace"] = th * fv
        if block.kind == "A":
            lam = block.mode.lam
            rl_ch = math.sqrt(lam) / np.cosh(r)
            w = block.component("omega")
            wv = w(r)
            out["er_phi"] = w.d1(r)
            out["eth_phi"] = ipg * ish * wv
            out["phi_er"] = rl_ch * fv - th * wv
            out["phi_eth"] = rl_ch * gv
            out["sym_grad_phi"] = wv
    else:
        vp = block.component("varpi")
        vv = vp(r)
        out["er_varphi"] = vp.d1(r)
        out["eth_varphi"] = ipg * ish * vv
        out["varphi_er"] = -th * vv
        out["nabla_varphi"] = vv
    return out


def ext_d_oneform(model: ConeModel, block: ModeBlock, r):
    """Frame components of the exterior derivative of a one-form block."""
    r = _check_radii(model, r)
    ish = 1.0 / np.sinh(r)
    ith = 1.0 / np.tanh(r)
    th = np.tanh(r)
    ipg = 1j * block.mode.p * model.gamma
    out = {}
    if block.kind in ("A", "B"):
        f, g = block.component("f"), block.component("g")
        fv, gv = f(r), g(r)
        out["er_eth"] = g.d1(r) + ith * gv - ipg * ish * fv
        if block.kind == "A":
            lam = block.mode.lam
            rl_ch = math.sqrt(lam) / np.cosh(r)
            w = block.component("omega")
            wv = w(r)
            out["er_phi"] = w.d1(r) + th * wv - rl_ch * fv
            out["eth_phi"] = ipg * ish * wv - rl_ch * gv
    else:
        vp = block.component("varpi")
        vv = vp(r)
        out["er_varphi"] = vp.d1(r) + th * vv
        out["eth_varphi"] = ipg * ish * vv
        out["d_varphi"] = vv
    return out


# ---------------------------------------------------------------------------
# traces


def trace_tensor_mode(model: ConeModel, block: ModeBlock) -> RadialProfile:
    """Scalar mode profile of the metric trace of a tensor block."""
    if block.kind in ("C", "D"):
        return RadialProfile.zero()
    rn2 = math.sqrt(model.n - 2)
    return (block.component("f") + block.component("g")
            + rn2 * block.component("k1"))


def scalar_mode_operator(model: ConeModel, mode: ScalarMode,
                         profile: RadialProfile, r, shift: float):
    """Reduced scalar Laplace-type operator with zeroth-order shift.

    Value of -t'' - q t' + ((p*gamma)^2/sh^2 + lambda/ch^2) t + shift * t,
    the operator the trace of a tensor block must satisfy when the block is
    in the kernel of the deformation operator.
    """
    r = _check_radii(model, r)
    pg = mode.p * model.gamma
    q = _drift_at(model.n, r)
    pot = ((pg * pg) * _ex("inv_sh_sq") + mode.lam * _ex("inv_ch_sq"))(r)
    t = profile.jet(r, 2, {})
    return -t[2] - q * t[1] + (pot + shift) * t[0]


# ---------------------------------------------------------------------------
# weighted tube quadrature


class QuadratureConvergenceError(RuntimeError):
    """Gauss-Legendre refinement disagreed beyond tolerance."""

    def __init__(self, coarse, fine, rtol):
        super().__init__(
            f"tube quadrature did not settle: {coarse!r} vs {fine!r} at rtol {rtol}")
        self.coarse = coarse
        self.fine = fine


def _tube_weight(model: ConeModel, r):
    a = model.tube_radius
    return (np.sinh(r) / math.sinh(a)) * (np.cosh(r) / math.cosh(a)) ** (model.n - 2)


def l2_norm_tube(model: ConeModel, block_or_profiles, inner_cutoff: float = 0.0,
                 num_nodes: int = 200, rtol: float = 1e-9,
                 weights=None) -> float:
    """Weighted squared tube norm of block components by Gauss-Legendre.

    Integrates sum_i w_i |c_i(r)|^2 * (sh(r)/sh(a)) (ch(r)/ch(a))^(n-2)
    over [inner_cutoff, a].  Component weights default to 1; pass `weights`
    to use the symmetrized-slot convention.  Non-convergence between the
    requested node count and a finer rule raises, never returns silently.
    """
    if isinstance(block_or_profiles, ModeBlock):
        names = block_or_profiles.names
        profiles = [block_or_profiles.component(nm) for nm in names]
        if isinstance(weights, str):
            if weights != "symmetrized":
                raise ValueError(f"unknown weight convention {weights!r}")
            weights = component_weights(block_or_profiles.family, names)
    else:
        profiles = list(block_or_profiles)
        if isinstance(weights, str):
            raise ValueError("named weight conventions need a block, not raw profiles")
    if weights is None:
        weights = np.ones(len(profiles))
    a = model.tube_radius
    lo = float(inner_cutoff)
    if not (0.0 <= lo < a):
        raise ValueError("inner cutoff must lie in [0, tube radius)")

    def integrate(nn):
        x, w = gauss_legendre(nn)
        r = 0.5 * (a - lo) * (x + 1.0) + lo
        scale = 0.5 * (a - lo)
        dens = np.zeros_like(r)
        for wt, p in zip(weights, profiles):
            dens = dens + wt * np.abs(p(r)) ** 2
        return float(np.sum(w * dens * _tube_weight(model, r)) * scale)

    coarse = integrate(num_nodes)
    fine = integrate(int(num_nodes * 1.6) + 8)
    tol = rtol * max(1.0, abs(fine))
    if abs(fine - coarse) > tol:
        raise QuadratureConvergenceError(coarse, fine, rtol)
    return fine


# ---------------------------------------------------------------------------
# standard singular deformations


def standard_deformation_block(model: ConeModel, kind: str):
    """Mode block of a standard deformation germ near the singular locus.

    "angle": the cone-angle change, the squared-sinh theta form (profile 1 on
    the theta-theta frame slot).  "locus_metric": a constant change of the
    cross-section metric (constant trace-slot profile).  "angle_gluing": the
    unit gluing form r^2 dtheta sym omega with omega the parallel co-closed
    one-form, profile r^2/(sh ch) on the theta-cross slot.
    """
    if kind == "angle":
        return ModeBlock("tensor", ScalarMode(0.0, 0), {"g": RadialProfile.constant(1.0)})
    if kind == "locus_metric":
        return ModeBlock("tensor", ScalarMode(0.0, 0), {"k1": RadialProfile.constant(1.0)})
    if kind == "angle_gluing":
        prof = RadialProfile.monomial(2) * RadialProfile.from_expr(_ex("inv_sh", "inv_ch"))
        return ModeBlock("tensor", CoclosedMode(0.0, 0), {"eta_bar": prof})
    raise ValueError(f"unknown standard deformation {kind!r}")


# ---------------------------------------------------------------------------
# block serialization


def block_to_dict(model: ConeModel, block, grid=None) -> dict:
    """Sampled JSON form of a block: mode, kind, per-component value arrays."""
    if grid is None:
        grid = log_grid(model)
    grid = np.asarray(grid, dtype=float)
    comps = {}
    for name in block.names:
        if name not in block.profiles:
            continue
        value, d1 = block.profiles[name].jet(grid, 1, {})
        comps[name] = {
            "value_re": value.real.tolist(),
            "value_im": value.imag.tolist(),
            "d1_re": d1.real.tolist(),
            "d1_im": d1.imag.tolist(),
        }
    return {
        "family": block.family,
        "kind": block.kind,
        "mode": mode_to_dict(block.mode),
        "grid": grid.tolist(),
        "profiles": comps,
    }


def block_from_dict(d: dict):
    """Rebuild a block from its sampled JSON form (grid-interpolated); the
    form's kind must be the one its mode generates."""
    mode = mode_from_dict(d["mode"])
    grid = np.asarray(d["grid"], dtype=float)
    if not (grid.ndim == 1 and grid.size >= 2 and np.isfinite(grid).all()
            and (np.diff(grid) > 0).all()):
        raise ValueError("block grid must be finite and strictly increasing, "
                         "with at least 2 points")
    if not isinstance(d["profiles"], dict):
        raise ValueError("block profiles must be a JSON object")
    profiles = {}
    for name, c in d["profiles"].items():
        parts = [np.asarray(c[k]) for k in ("value_re", "value_im", "d1_re", "d1_im")]
        if any(x.shape != grid.shape for x in parts):
            raise ValueError(f"profile {name} arrays must have the grid's length")
        profiles[name] = RadialProfile.from_grid(grid, parts[0] + 1j * parts[1],
                                                 parts[2] + 1j * parts[3])
    block = ModeBlock(d["family"], mode, profiles)
    if d["kind"] != block.kind:
        raise ValueError(f"block kind {d['kind']!r} does not match its mode, "
                         f"which generates kind {block.kind}")
    return block


def sample_csv_rows(grid, samples):
    """Plot-ready rows: header then (r, name_re, name_im, ...) per radius, for
    the complex samples on the grid of each name in `samples`, in its order."""
    header = ["r"]
    for nm in samples:
        header += [f"{nm}_re", f"{nm}_im"]
    vals = list(samples.values())
    rows = []
    for i, r in enumerate(grid):
        row = [f"{r:.12g}"]
        for v in vals:
            row += [f"{v[i].real:.12g}", f"{v[i].imag:.12g}"]
        rows.append(row)
    return header, rows


def block_csv_rows(model: ConeModel, block, grid=None):
    """`sample_csv_rows` of the block's profiles, in component order, on the
    grid (default `log_grid`)."""
    if grid is None:
        grid = log_grid(model)
    grid = np.asarray(grid, dtype=float)
    memo = {}  # shared, so components built from one profile read it once
    return sample_csv_rows(grid, {nm: block.profiles[nm].jet(grid, 0, memo)[0]
                                  for nm in block.names if nm in block.profiles})
