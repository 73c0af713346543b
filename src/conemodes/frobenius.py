"""Series solutions, continuation, and boundary matching for mode ODEs.

The radial systems produced by :mod:`conemodes.reduction` have a regular
singular point at the cone axis.  This module constructs Frobenius series
(with logarithmic branches where the indicial structure forces them),
continues them outward to the tube boundary, and solves Dirichlet problems
there within a prescribed solution class.  A series recursion solves every
order in the eigenbasis V of the theta-coupling O, W0 = (tI + O)^2, and
factors no matrix per order: order m is V diag((t + o)^2 - (s0 + m)^2) V^-1,
resonant (and may force ln r terms) on the columns o where s0 + m = +-(t + o).

The continuation ODE y' = M(r) y + f(r), y = (X, X'), is linear, so it is
propagated by 6-stage Gauss-Legendre collocation (A-stable, order 12; Hairer
and Wanner, Solving ODEs II, IV.5) with numpy alone: every step of the
geometric output grid becomes one affine map, and all maps are built by
one batched linear solve.  A step-doubling estimate (Hairer, Norsett and
Wanner, Solving ODEs I, II.4) sizes the steps: every interval takes 1, 2,
4, ... substeps until each column's local errors, each relative to the
column's size so far and summed over the grid, are at most ``rtol``.  All
admissible branches of a mode and its particular solution are continued
together, as the columns of one matrix state pushed through the same maps.
Each column is normalized by its largest value at the handoff, so a steep
branch r^kappa starts at size one.

Series and continued solutions hand out each component as a
:class:`conemodes.geometry.RadialProfile` with three derivatives, and a
solution on the whole tube is one jet node that reads the series below the
handoff and the continuation above it, so derivatives of a solution (and of
its products, as in the cone-angle correction block) come from the profile
algebra rather than from hand-written product rules.  Between its nodes a
continued solution is not interpolated: a jet steps out of the node below
by the same Gauss-Legendre maps, for every column at once, and reads levels
2..3 off the ODE, only when a profile is first evaluated at those radii.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .geometry import ConeModel, DomainError, RadialProfile, gauss_legendre
from .indicial import _eigenbasis, indicial_report, system_for_mode
from .modes import Mode, ScalarMode
from .reduction import (
    ModeBlock,
    ModeSystem,
    RadialExpr,
    oneform_system,
    _ex,
    _merge_tol,
    _snap,
)

__all__ = [
    "FrobeniusError",
    "FrobeniusSeries",
    "frobenius_series",
    "branch_series",
    "inhomogeneous_series",
    "ContinuedSolution",
    "integrate_mode_ode",
    "ModeBVPResult",
    "solve_mode_bvp",
    "AngleDeformation",
    "angle_deformation_profile",
    "induced_singular_deformation",
]

# relative obstruction threshold deciding solvable resonance vs log branch
_SOLVE_TOL = 1e-9
# Gauss-Legendre stages of the continuation (order 2 * _STAGES) and the most
# substeps per output interval the step-doubling check may ask for
_STAGES = 6
_MAX_SUBSTEPS = 32
# geometric nodes of the continuation's output grid, by default
_GRID_NODES = 25
_EPS = np.finfo(float).eps


class FrobeniusError(RuntimeError):
    """Series construction or continuation failed."""


# ---------------------------------------------------------------------------
# series container


@dataclass(frozen=True, eq=False)
class FrobeniusSeries:
    """Truncated expansion sum_m v_m r^(kappa+m) (+ log r * companion).

    ``coefficients[m]`` is the vector v_m over ``names``, one row of a
    read-only complex array of shape (order + 1, arity).  When a logarithmic
    branch is present, ``log_coefficients[m]`` holds the companion vector
    u_m multiplying r^(kappa+m) log r, in an array of the same shape.
    """

    kappa: float
    names: tuple
    coefficients: np.ndarray
    log_coefficients: Optional[np.ndarray] = None

    def __post_init__(self):
        for x in (self.coefficients, self.log_coefficients):
            if x is not None:
                x.flags.writeable = False

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def arity(self) -> int:
        return len(self.names)

    @property
    def has_log(self) -> bool:
        return self.log_coefficients is not None

    def evaluate(self, r, derivative: int = 0):
        """Componentwise values of the d-th derivative, shape (arity,) + r.shape."""
        if derivative not in (0, 1, 2, 3):
            raise ValueError("derivative order must be 0..3")
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        rr = np.atleast_1d(r)
        if np.any(rr <= 0):
            raise DomainError("series evaluation needs r > 0")
        V, U = self.coefficients, self.log_coefficients
        kap = self.kappa
        m = np.arange(V.shape[0])
        e = kap + m
        if derivative == 0:
            wv, wu_extra = np.ones_like(e), np.zeros_like(e)
        elif derivative == 1:
            wv, wu_extra = e, np.ones_like(e)
        elif derivative == 2:
            wv, wu_extra = e * (e - 1), 2 * e - 1
        else:
            wv, wu_extra = e * (e - 1) * (e - 2), 3 * e * (e - 1) - 3 * e + 2
        out = _power_sum(wv[:, None] * V, rr) * rr ** (kap - derivative)
        if U is not None:
            lg = np.log(rr)
            out = out + rr ** (kap - derivative) * (
                _power_sum(wu_extra[:, None] * U, rr)
                + lg * _power_sum(wv[:, None] * U, rr)
            )
        return out[:, 0] if scalar else out

    def profile(self, name: str) -> RadialProfile:
        """One component as a profile with three derivatives.  Every component
        reads one jet memo entry, keyed by the series, holding the levels of
        all components, so each level is evaluated once per memo."""
        i = self.names.index(name)

        def node(r, m, memo):
            have = memo.get(self, ())
            if len(have) <= m:
                have = np.array([*have, *(self.evaluate(r, k)
                                          for k in range(len(have), m + 1))])
                memo[self] = have
            return have[:m + 1, i]

        return RadialProfile(node=node, depth=3)

    def profiles(self) -> dict:
        return {name: self.profile(name) for name in self.names}

    def to_dict(self) -> dict:
        def pack(mat):
            return [[[z.real, z.imag] for z in row] for row in mat]

        U = self.log_coefficients
        return {
            "kappa": self.kappa,
            "names": list(self.names),
            "coefficients": pack(self.coefficients),
            "log_coefficients": None if U is None else pack(U),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FrobeniusSeries":
        def unpack(rows):
            return np.array([[complex(re, im) for re, im in row] for row in rows])

        logs = payload.get("log_coefficients")
        return cls(
            kappa=float(payload["kappa"]),
            names=tuple(payload["names"]),
            coefficients=unpack(payload["coefficients"]),
            log_coefficients=None if logs is None else unpack(logs),
        )


def _power_sum(C, r):
    # Horner evaluation of sum_m C[m] r^m, C shape (M+1, k), result (k, len(r))
    acc = np.zeros((C.shape[1], r.size), dtype=complex)
    for row in C[::-1]:
        acc = acc * r + row[:, None]
    return acc


# ---------------------------------------------------------------------------
# recursion engine


@functools.lru_cache(maxsize=128)
def _laurent_data(system: ModeSystem, order: int):
    """Read-only float64 q_j of r q(r), shape (order+1,), and framed W_j."""
    drift = system.laurent_drift(order + 1)
    q = np.array([complex(drift.coefficient(j)) for j in range(order + 1)]).real
    W = np.asarray(system.laurent_potential(order + 1))
    q.flags.writeable = W.flags.writeable = False
    return q, W


@functools.lru_cache(maxsize=None)
def _eigenbasis_inverse(family: str, kind: str, names: tuple) -> np.ndarray:
    """V^-1 of O's eigenbasis V (`indicial._eigenbasis`), read-only, once per
    key: the recursion is its only reader, so no indicial report pays it."""
    V_inv = np.linalg.inv(_eigenbasis(family, kind, names)[1])
    V_inv.flags.writeable = False
    return V_inv


@functools.lru_cache(maxsize=128)
def _coefficient_data(system: ModeSystem, s0: float, order: int):
    """Read-only data of the recursion at exponent s0, built once per (system,
    s0, order): q_j, K, W_0 - s0^2 I, V, V^-1 and, per order m, its resonant
    columns, 1 / d_o(m) (0 on them) and whether one has t + o == 0."""
    q, W = _laurent_data(system, order)
    offsets, V = _eigenbasis(system.family, system.kind, system.names)
    V_inv = _eigenbasis_inverse(system.family, system.kind, system.names)
    t = _snap(system.mode.p * system.gamma)
    eye, m_all = np.eye(system.arity), np.arange(order + 1)
    s, e = (s0 + m_all)[:, None], t + offsets
    resonant = np.minimum(np.abs(s - e), np.abs(s + e)) <= _merge_tol(t)
    inv_d = np.divide(1.0, (e - s) * (e + s), out=np.zeros(resonant.shape),
                      where=~resonant)
    K = (q * (s - m_all))[..., None, None] * eye - W
    data = (q, K, W[0] - s0 * s0 * eye, V, V_inv, resonant, inv_d,
            (resonant & (e == 0)).any(axis=1))
    for x in data:
        x.flags.writeable = False
    return data


def _norm(x) -> float:
    return float(np.sqrt(np.vdot(x, x).real))


def _series_engine(system, s0, order, seed=None, log_seed=None, source=None):
    """Run the coefficient recursion; returns arrays (v, u), u None without logs.

    It runs in the real frame of `ModeSystem`: the named seeds and source rows
    (order+1, k) enter as d x, and v, u are float64 unless one is complex
    there.  Multiplying the system by r^2 gives coefficient equations A_m v_m
    = sum_{j=1..m} K[m, j] v_{m-j} + source_m, A_m = W_0 - (s0+m)^2 I, K[m, j]
    = q_j (s0+m-j) I - W_j.  In O's eigenbasis (`indicial._eigenbasis`) A_m
    = V diag(d_o(m)) V^-1, d_o(m) = (t + o - s)(t + o + s) at s = s0 + m, so
    x = V (y / d) from y = V^-1 b, with x = 0 on the resonant columns, where s
    is within the merge tolerance of +-(t + o).  There b is in the range
    exactly when beta = y_res vanishes; the power part absorbs a non-zero
    beta into a log companion V_res (-beta / 2s) in the null space, and the
    companion's own, or one at t + o == 0, raises (iterated logarithm).
    """
    q, K, a0, V, V_inv, resonant, inv_d, zero = _coefficient_data(system, s0, order)
    seed, log_seed, source = data = [x if x is None else system.to_frame(x)
                                     for x in (seed, log_seed, source)]
    dtype = np.result_type(float, *[x for x in data if x is not None])
    v, u = np.zeros((2, order + 1, system.arity), dtype)

    def history(seq, m):
        return np.einsum("jab,jb->a", K[m, 1:m + 1], seq[:m][::-1])

    def seeded(x, rhs, message):
        # the seed x, once it satisfies the leading-order equation A_0 x = rhs
        if _norm(a0 @ x - rhs) > 1e-8 * (_norm(x) + _norm(rhs) + 1.0):
            raise FrobeniusError(message)
        return x

    def solve(m, rhs, companion=False):
        # A_m x = rhs in O's eigenbasis, after a resonant order has tested
        # beta and absorbed it into u[m] (power part only)
        nonlocal log_active
        y = V_inv @ rhs
        beta = y[resonant[m]]
        if _norm(beta) > _SOLVE_TOL * (_norm(rhs) + 1.0):
            if companion or zero[m]:
                raise FrobeniusError(
                    f"{'log companion' if companion else 'exponent-0'} recursion hits an "
                    f"unsolvable resonance at order {m}: iterated logarithm not supported")
            u[m] += V[:, resonant[m]] @ (-beta / (2.0 * (s0 + m)))
            log_active = True
        return V @ (y * inv_d[m])

    log_active = log_seed is not None
    for m in range(order + 1):
        if log_active:
            u[m] = (seeded(log_seed, 0.0, "log seed must lie in the indicial null space")
                    if m == 0 else solve(m, history(u, m), companion=True))
        rhs = history(v, m)
        if source is not None:
            rhs = rhs + source[m]
        if log_active:
            rhs = rhs + 2.0 * (s0 + m) * u[m] + q[1:m + 1] @ u[:m][::-1]
        v[m] = (seeded(seed, rhs, "seed vector does not satisfy the leading-order equation")
                if m == 0 and seed is not None else solve(m, rhs))
    return v, (u if u.any() else None)


def _series(system: ModeSystem, s0, order: int, **data) -> FrobeniusSeries:
    """`_series_engine` at exponent s0, its coefficients named back: conj(d) v."""
    v, u = (x if x is None else np.asarray(x * system.frame.conj(), dtype=complex)
            for x in _series_engine(system, float(s0), order, **data))
    return FrobeniusSeries(float(s0), system.names, v, u)


def frobenius_series(system: ModeSystem, kappa: float, vector=None,
                     log_vector=None, order: int = 12) -> FrobeniusSeries:
    """Homogeneous series branch at the indicial exponent ``kappa``.

    ``vector`` seeds the power branch; ``log_vector`` seeds a logarithmic
    branch (exponent-zero roots).  With neither given the indicial null
    vector is used, which requires a one-dimensional null space.
    """
    if vector is None and log_vector is None:
        root = indicial_report(system).root(kappa)
        if root.nullity != 1:
            raise FrobeniusError(
                f"exponent {kappa} has null space of dimension {root.nullity}; "
                "pass an explicit seed vector")
        vector = root.vectors[0]
    return _series(system, kappa, order, seed=vector, log_seed=log_vector)


def inhomogeneous_series(system: ModeSystem, source: Mapping[str, RadialExpr],
                         order: int = 12) -> FrobeniusSeries:
    """Particular series for O X = S with radial-expression source rows.

    The leading exponent is read off from the source; resonances against
    indicial roots are absorbed into a log companion, with the power part
    normalized to have no coordinate on the resonant eigenspaces of O.
    """
    unknown = set(source) - set(system.names)
    if unknown:
        raise ValueError(f"source names {sorted(unknown)} not in system")
    # the recursion reads orders 0..order
    rows = {system.names.index(name): expr.laurent(order + 1) for name, expr in source.items()}
    if not rows:
        raise ValueError("source must have at least one nonzero row")
    s0 = min(ser.leading for ser in rows.values()) + 2
    terms = np.zeros((order + 1, system.arity), dtype=complex)
    for i, ser in rows.items():
        terms[:, i] = [complex(ser.coefficient(s0 - 2 + m)) for m in range(order + 1)]
    return _series(system, s0, order, source=terms)


# ---------------------------------------------------------------------------
# outward continuation


@dataclass
class ContinuedSolution:
    """``series`` continued over the grid [handoff, r_end] as column ``column``
    of the states one `integrate_mode_ode` call continued together;
    ``frame_endpoint`` is D times the endpoint, as the continuation held it,
    and ``error_estimate`` this column's summed local error estimate,
    relative to its size, plus one rounding unit: the number held to
    ``rtol``.
    ``between(r)`` gives the named levels 0..3 of every such column at any
    radii, shape (4, arity, columns) + r.shape."""

    system: ModeSystem
    series: FrobeniusSeries
    grid: np.ndarray
    values: np.ndarray  # (arity, N)
    d1: np.ndarray
    frame_endpoint: np.ndarray
    column: int
    error_estimate: float
    between: Callable = field(repr=False, compare=False)

    @property
    def endpoint(self):
        return self.values[:, -1]

    def profile(self, name: str) -> RadialProfile:
        """One component on the whole tube with three derivatives: the series
        below the handoff grid[0], the continuation from it on.

        There every column's levels are read at once per jet memo, the memo
        keyed by ``between``: levels 0..1 step out of the node below by the
        maps the continuation used (at a node, no step), so they are the
        continuation's own solution, and levels 2..3 follow from the ODE.
        """
        i, c, between = self.system.names.index(name), self.column, self.between

        def node(r, m, memo):
            if between not in memo:
                memo[between] = between(r)
            return memo[between][:m + 1, i, c]

        continued = RadialProfile(node=node, depth=3)
        return _piecewise(self.series.profile(name), continued, self.grid[0])

    def profiles(self) -> dict:
        return {name: self.profile(name) for name in self.system.names}


def _auto_handoff(r_end: float) -> float:
    # inside the series' convergence disk, outside the steep indicial spread
    return min(0.1, 0.125 * r_end)


@functools.lru_cache(maxsize=None)
def _gauss_tableau(stages: int):
    """Nodes c, weights b and matrix A of the s-stage Gauss-Legendre
    collocation method on [0, 1]; A_ij integrates the j-th Lagrange basis
    polynomial of the nodes from 0 to c_i."""
    x, w = gauss_legendre(stages)
    c, b = 0.5 * (x + 1.0), 0.5 * w
    powers = np.arange(1, stages + 1)
    A = (c[:, None] ** powers / powers) @ np.linalg.inv(np.vander(c, increasing=True))
    for arr in (c, b, A):
        arr.flags.writeable = False
    return c, b, A


def _step_maps(system: ModeSystem, t0, t1, source) -> np.ndarray:
    """One Gauss-Legendre step over each interval [t0[n], t1[n]] as augmented
    affine maps.

    Map n sends (X, X', 1) at t0[n] to (X, X', 1) at t1[n], shape
    (len(t0), 2k + 1, 2k + 1), with X and V in the real frame of
    `ModeSystem`; a step of length 0 is the identity.  The unknowns are the
    stage values Z_i of X''; the stages of X' and X are X' + h (A Z)_i and
    X + h c_i X' + h^2 (A^2 Z)_i, so the collocation conditions Z_i = V_i X_i
    - q_i X'_i - S_i are one sk x sk linear system per step, solved for all
    steps at once.  ``source(r)`` gives D S at radii of any shape as (k,) +
    r.shape, or is None; the maps are float64 unless it is complex.
    """
    c, b, A = _gauss_tableau(_STAGES)
    k, s = system.arity, _STAGES
    h = t1 - t0
    r = t0[:, None] + h[:, None] * c
    V = np.moveaxis(system.potential_at(r), (0, 1), (2, 3))  # (N, s, k, k)
    q = system.drift_at(r)
    S = 0.0 if source is None else -np.moveaxis(source(r), 0, -1)
    eye = np.eye(k)
    # block (i, l) of M is (delta_il + h A_il q_i) I - h^2 (A^2)_il V_i
    M = np.einsum("il,niab->nialb", -(A @ A), (h * h)[:, None, None, None] * V)
    diag = h[:, None, None] * A * q[:, :, None] + np.eye(s)
    for a in range(k):
        M[:, :, a, :, a] += diag
    R = np.zeros((h.size, s, k, 2 * k + 1), dtype=np.result_type(V, S))
    R[..., :k] = V
    R[..., k:2 * k] = (h[:, None] * c)[..., None, None] * V - q[..., None, None] * eye
    R[..., -1] = S
    Z = np.linalg.solve(M.reshape(h.size, s * k, s * k),
                        R.reshape(h.size, s * k, 2 * k + 1)).reshape(R.shape)
    P = np.zeros((h.size, 2 * k + 1, 2 * k + 1), dtype=R.dtype)
    P[:, :k, :k] = P[:, k:2 * k, k:2 * k] = eye
    P[:, :k, k:2 * k] = h[:, None, None] * eye
    P[:, -1, -1] = 1.0
    P[:, :k] += (h * h)[:, None, None] * np.tensordot(b @ A, Z, axes=(0, 1))
    P[:, k:2 * k] += h[:, None, None] * np.tensordot(b, Z, axes=(0, 1))
    return P


def _substep_maps(system: ModeSystem, t0, t1, source, log_m: int) -> np.ndarray:
    """The map over each interval [t0[n], t1[n]] as 2^log_m equal steps, each
    interval's last step ending exactly on t1[n], composed in order."""
    m = 2 ** log_m
    nodes = t0[:, None] + (t1 - t0)[:, None] * (np.arange(m + 1) / m)
    nodes[:, -1] = t1
    P = _step_maps(system, nodes[:, :-1].ravel(), nodes[:, 1:].ravel(), source)
    for _ in range(log_m):  # halve the number of maps, composing neighbours
        P = P[1::2] @ P[0::2]
    return P


def _propagate(P, y0):
    Y = np.empty((P.shape[0] + 1,) + y0.shape, dtype=np.result_type(P, y0))
    Y[0] = y = y0
    for n, Pn in enumerate(P, 1):
        Y[n] = y = Pn @ y
    return Y


def _continue(system: ModeSystem, grid, y0, source, rtol: float):
    """Augmented states at the grid nodes, shape (len(grid), 2k + 1, nb), in
    the real frame of `_step_maps` (real when ``y0`` and the maps are), log2
    of the substeps per interval they took, and each column's error estimate.

    Every interval takes m Gauss-Legendre substeps, m = 1, 2, 4, ..., 32.
    The check builds the same maps over pairs of intervals, an odd count
    pairing its last interval with the one before, so every interval is
    checked: a step of order 2s has local error ~ h^(2s+1), so
    |coarse - fine| / (2^2s - 1) estimates the local error of the fine maps
    over each pair.  Each is taken relative to the column's largest value up
    to that pair's end, not over the whole grid: an error made near the
    handoff grows with a steep column from there, so the column's size at
    the end would make it read r^kappa times too small.  Summed over the
    pairs, plus one unit of rounding (no state is closer than that), they
    must not exceed ``rtol`` (|D x| = |x|); m doubles while they do.
    """
    k, n = system.arity, grid.size - 1
    first = np.minimum(np.arange(0, n, 2), n - 2)  # the first interval of each pair
    for log_m in range(_MAX_SUBSTEPS.bit_length()):
        fine = _substep_maps(system, grid[:-1], grid[1:], source, log_m)
        Y = _propagate(fine, y0)
        coarse = _substep_maps(system, grid[first], grid[first + 2], source, log_m)
        diff = (coarse - fine[first + 1] @ fine[first]) @ Y[first]
        size = np.maximum.accumulate(np.max(np.abs(Y[:, :2 * k]), axis=1), axis=0)
        local = (np.max(np.abs(diff[:, :2 * k]), axis=1)
                 / (size[first + 2] * (2.0 ** (2 * _STAGES) - 1)))
        est = np.sum(local, axis=0) + _EPS
        worst = np.argmax(est)
        if est[worst] <= rtol:
            return Y, log_m, est
    raise FrobeniusError(
        f"continuation error estimate {est[worst]:.3g} exceeds rtol {rtol:.3g} "
        f"at r = {grid[first[np.argmax(local[:, worst])]]:.6g} with {_MAX_SUBSTEPS} "
        "substeps per interval; raise num or rtol")


def integrate_mode_ode(system: ModeSystem, series, handoff: float, r_end: float,
                       source: Optional[Mapping[str, RadialExpr]] = None,
                       num: int = _GRID_NODES, rtol: float = 1e-11):
    """Continue series solutions from the handoff radius out to ``r_end``.

    ``series`` is one FrobeniusSeries, giving one ContinuedSolution, or a
    sequence of them, giving one ContinuedSolution per series.  A sequence is
    continued as one matrix ODE: the series are the columns of a (2k, nb)
    state, propagated by the same step maps.  When ``source`` is given, the
    same map of radial-expression rows that `inhomogeneous_series` takes,
    the last series is the particular solution and its column alone is fed
    the source.

    The output grid has ``num`` geometric nodes; each interval takes m
    6-stage Gauss-Legendre steps (order 12), m = 1, 2, 4, ..., 32, the same
    m everywhere, refined until each column's step-doubling estimates of the
    local error, each relative to the column's largest value up to its
    radius and summed over the grid, are at most ``rtol`` (FrobeniusError
    when 32 substeps per interval do not reach it; ``rtol`` must be finite
    and > 0).  Every ContinuedSolution records its column's summed estimate
    (``error_estimate``).
    The steps run in the real frame of `ModeSystem`, d_j = +i on the
    theta-odd components: series data and source enter as D X and D S (a
    homogeneous column is real there), and D^-1 names the nodal states and
    every level between the nodes (`ContinuedSolution.profile`).  Each
    column is divided by its largest value at the handoff and scaled back
    afterwards (its source by the same factor), so a branch r^kappa with
    large kappa starts at size one.

    Handing off deep inside the singular region loses accuracy: error at
    radius r0 feeds the steepest homogeneous mode with weight
    ~ r0^(-spread).  Keep the handoff near 0.1 and raise the series order
    instead when more interior accuracy is needed.
    """
    if not 0 < handoff < r_end:
        raise DomainError("need 0 < handoff < r_end")
    if handoff < 1e-8:
        raise DomainError(
            "handoff radius below 1e-8; evaluate the series directly there instead")
    if num < 3:
        raise ValueError("the step-doubling check needs num >= 3")
    if not (np.isfinite(rtol) and rtol > 0):
        raise ValueError(f"rtol must be a finite number > 0, not {rtol!r}")
    single = isinstance(series, FrobeniusSeries)
    columns = [series] if single else list(series)
    k, nb = system.arity, len(columns)
    y0 = system.to_frame(np.stack([[ser.evaluate(handoff), ser.evaluate(handoff, 1)]
                                   for ser in columns], axis=-1), axis=1).reshape(2 * k, nb)
    scale = np.max(np.abs(y0), axis=0)
    scale[scale == 0.0] = 1.0
    src_rows = [(system.names.index(name), expr) for name, expr in (source or {}).items()]
    src = None
    if src_rows:
        def src(r):
            out = np.zeros((k,) + r.shape, dtype=complex)
            for i, expr in src_rows:
                out[i] = expr(r) / scale[-1]
            return system.to_frame(out, axis=0)

    grid = np.geomspace(handoff, r_end, num)
    grid[0], grid[-1] = handoff, r_end
    start = np.concatenate([y0 / scale, np.zeros((1, nb))])
    start[-1, -1] = 1.0 if src_rows else 0.0
    Y, log_m, est = _continue(system, grid, start, src, rtol)
    X, dX = (Y[:, a:a + k] * scale for a in (0, k))  # (N, k, nb), in the frame
    values, d1 = (np.moveaxis(a * system.frame.conj()[:, None], 0, -1) for a in (X, dX))
    between = functools.partial(_between, system, grid, Y, scale, src, src_rows, log_m)
    out = [ContinuedSolution(system, ser, grid, values[:, c], d1[:, c], X[-1, :, c], c,
                             float(est[c]), between)
           for c, ser in enumerate(columns)]
    return out[0] if single else out


def _between(system: ModeSystem, grid, Y, scale, source, src_rows, log_m: int, r):
    """Named levels 0..3 of every column at the radii r, shape (4, k, nb) +
    r.shape.  Levels 0..1 take the 2^log_m substeps the check settled on out
    of the node below each radius (none at a node, which keeps its state);
    levels 2..3 are the ODE there (`_ode_derivatives`)."""
    k, rr = system.arity, np.ravel(r)
    below = np.clip(np.searchsorted(grid, rr, side="right") - 1, 0, grid.size - 1)
    state = _substep_maps(system, grid[below], rr, source, log_m) @ Y[below]
    X, dX = state[:, :k] * scale, state[:, k:2 * k] * scale
    levels = np.stack([X, dX, *_ode_derivatives(system, rr, X, dX, src_rows)])
    levels = np.moveaxis(levels * system.frame.conj()[:, None], 1, -1)  # (4, k, nb, R)
    return levels.reshape(levels.shape[:3] + np.shape(r))


def _ode_derivatives(system: ModeSystem, r, X, dX, src_rows):
    """Framed d2 and d3 of every column at the radii r, each of X's shape
    (len(r), k, nb), from the ODE X'' = -q X' + V X - S and its derivative."""
    q, qp = (system.drift_at(r, d)[:, None, None] for d in range(2))
    V, Vp = (np.moveaxis(system.potential_at(r, d), -1, 0) for d in range(2))
    S = np.zeros((2,) + X.shape, dtype=complex)
    for i, expr in src_rows:
        S[:, :, i, -1] = [expr(r, d) for d in range(2)]
    S, Sp = system.to_frame(S, axis=-2)
    d2 = -q * dX + V @ X - S
    return d2, -qp * dX - q * d2 + Vp @ X + V @ dX - Sp


def _piecewise(inner: RadialProfile, outer: RadialProfile, cut: float) -> RadialProfile:
    """`inner` below the cut, `outer` from it on.  Each side is read only on
    its own radii, through a sub-memo of the jet's memo shared by every switch
    at this cut."""
    def node(r, m, memo):
        r = np.asarray(r, dtype=float)
        below = r < cut
        out = np.empty((m + 1,) + r.shape, dtype=complex)
        for side, prof, on in (("below", inner, below), ("above", outer, ~below)):
            if on.any():
                out[:, on] = prof.jet(r[on], m, memo.setdefault((side, cut), {}))
        return out

    return RadialProfile(node=node, depth=min(inner.depth, outer.depth))


# ---------------------------------------------------------------------------
# boundary-value solving


@dataclass
class ModeBVPResult:
    """Dirichlet solve within a solution class; see ``status`` for solvability.

    ``branch_exponents`` lists the admissible branches as (kind, exponent)
    pairs in the order matching ``coefficients``.  ``axis_values`` holds the
    r -> 0 limits of the components (the exponent-zero branch content);
    ``axis_regular`` is False when an active branch diverges at the axis.
    ``error_estimate`` is the matched solution's relative error to first
    order: the largest continued column's ``error_estimate`` times the
    condition number of the singular values the match solved on.  Rounding
    alone puts it at that condition number times 2.2e-16, whatever the grid.
    """

    system: ModeSystem
    solution_class: str
    status: str
    branch_exponents: tuple
    coefficients: np.ndarray
    condition_number: float
    boundary_residual: float
    error_estimate: float
    profiles: dict
    axis_values: dict
    axis_regular: bool
    null_combinations: tuple
    handoff: float

    def block(self):
        return ModeBlock(self.system.family, self.system.mode, dict(self.profiles))

    def summary(self) -> dict:
        return {
            "family": self.system.family,
            "kind": self.system.kind,
            "solution_class": self.solution_class,
            "status": self.status,
            "branches": [[kind, kap] for kind, kap in self.branch_exponents],
            "coefficients": [[z.real, z.imag] for z in self.coefficients],
            "condition_number": self.condition_number,
            "boundary_residual": self.boundary_residual,
            "error_estimate": self.error_estimate,
            "axis_regular": self.axis_regular,
            "axis_values": {k: [v.real, v.imag] for k, v in self.axis_values.items()},
        }


def admissible_branches(system: ModeSystem, solution_class: str):
    """(kind, exponent, seed vector) triples admitted by the solution class,
    root by root as `IndicialRoot.branches` admits them."""
    return [(kind, root.value, vec) for root in indicial_report(system).roots
            for kind, vec in root.branches(solution_class)]


def branch_series(system: ModeSystem, branch, order: int) -> FrobeniusSeries:
    """The series of one `admissible_branches` entry (kind, exponent, seed):
    a power branch's seed is its v_0, a log branch's its companion's u_0."""
    kind, kappa, vec = branch
    seed = "vector" if kind == "power" else "log_vector"
    return frobenius_series(system, kappa, order=order, **{seed: vec})


def solve_mode_bvp(model: ConeModel, mode: Mode, family: str,
                   boundary: Mapping[str, complex],
                   solution_class: str = "strong",
                   source: Optional[Mapping[str, RadialExpr]] = None,
                   order: int = 14, handoff: Optional[float] = None,
                   num: int = _GRID_NODES, rtol: float = 1e-11) -> ModeBVPResult:
    """Match admissible interior branches to Dirichlet data at the tube edge.

    The boundary map sends branch coefficients to component values at
    r = tube_radius.  A square well-conditioned map gives status "unique";
    fewer branches than components reports "deficient" (residual shows
    whether this particular data is still attainable), more branches or a
    rank drop reports "non_unique" with the null combinations.  One SVD of
    the map decides its rank, gives the least-squares coefficients on the
    singular values above the rank cut, and spans the null combinations.
    Every branch is a series of ``order`` continued from ``handoff`` by
    `integrate_mode_ode` on ``num`` nodes to ``rtol``.
    """
    system = system_for_mode(model, mode, family)
    unknown = set(boundary) - set(system.names)
    if unknown:
        raise ValueError(f"boundary names {sorted(unknown)} not in system")
    a = model.tube_radius
    if handoff is None:
        handoff = _auto_handoff(a)
    k = system.arity
    branches = admissible_branches(system, solution_class)
    nb = len(branches)

    columns = [branch_series(system, branch, order) for branch in branches]
    pser = None
    if source:
        pser = inhomogeneous_series(system, source, order=order)
        columns.append(pser)
    conts = integrate_mode_ode(system, columns, handoff, a, source=source,
                               num=num, rtol=rtol) if columns else []
    col_profiles = [cont.profiles() for cont in conts]

    # the particular column's axis value; a kappa = 0 particular series
    # never carries ln r at order 0 (the recursion raises on that resonance)
    axis, regular = np.zeros(k, dtype=complex), pser is None or pser.kappa >= 0
    if pser is not None and pser.kappa == 0:
        axis = pser.coefficients[0]

    # matched in the real frame on the continuation's framed endpoints: D B is
    # float64 for homogeneous columns, and D times real data is real there
    bvec = np.array([complex(boundary.get(nm, 0.0)) for nm in system.names])
    target = system.to_frame(bvec) - (0.0 if pser is None else conts[-1].frame_endpoint)
    if nb:
        B = np.stack([cont.frame_endpoint for cont in conts[:nb]], axis=1)
        u, sv, vh = np.linalg.svd(B)
        rank = int(np.sum(sv > 1e-10 * max(sv[0], 1.0)))
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        coeffs = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ target) / sv[:rank])
        residual = float(np.linalg.norm(B @ coeffs - target))
        nulls = tuple(tuple(row) for row in vh[rank:].conj())
    else:
        rank, cond, residual = 0, np.inf, float(np.linalg.norm(target))
        coeffs, nulls = np.zeros(0, dtype=complex), ()
    # a column's relative error moves the coefficients by up to the condition
    # of the singular values they were solved on times it
    solved_cond = float(sv[0] / sv[rank - 1]) if rank else 1.0
    error = solved_cond * max((cont.error_estimate for cont in conts), default=0.0)
    if rank == nb == k:
        status = "unique"
    elif rank == k:
        status = "non_unique"
    elif rank == nb:
        status = "deficient"
    else:
        status = "deficient_non_unique"

    profiles = {}
    for name in system.names:
        prof = RadialProfile.zero() if pser is None else col_profiles[-1][name]
        for c, bp in zip(coeffs, col_profiles):  # the nb branch columns
            prof = prof + c * bp[name]
        profiles[name] = prof

    for c, ser, (kind, kappa, _) in zip(coeffs, columns, branches):
        if kind == "power" and kappa == 0:
            axis = axis + c * ser.coefficients[0]
        elif abs(c) > 1e-9 and (kappa < 0 or (kappa == 0 and kind == "log")):
            regular = False
    axis_values = {name: complex(axis[i]) for i, name in enumerate(system.names)}

    return ModeBVPResult(
        system=system,
        solution_class=solution_class,
        status=status,
        branch_exponents=tuple((kind, kappa) for kind, kappa, _ in branches),
        coefficients=coeffs,
        condition_number=cond,
        boundary_residual=residual,
        error_estimate=error,
        profiles=profiles,
        axis_values=axis_values,
        axis_regular=regular,
        null_combinations=nulls,
        handoff=handoff,
    )


def induced_singular_deformation(model: ConeModel, boundary_data: Mapping,
                                 solution_class: str = "strong",
                                 order: int = 14, handoff: Optional[float] = None,
                                 num: int = _GRID_NODES, rtol: float = 1e-11) -> dict:
    """Per-mode Dirichlet solves extracting the axis limits of the components.

    ``boundary_data`` maps tensor modes to component values at the tube edge.
    The axis limits of the cross-section slots (the exponent-zero branch
    content) are what survives at the singular locus; only p = 0 modes can
    carry them when no indicial root sits at zero for p != 0.  The other
    arguments go to `solve_mode_bvp`.
    """
    results = {}
    for mode, bvals in boundary_data.items():
        results[mode] = solve_mode_bvp(
            model, mode, "tensor", bvals, solution_class=solution_class,
            order=order, handoff=handoff, num=num, rtol=rtol)
    return results


# ---------------------------------------------------------------------------
# cone-angle deformation


# septic smoothstep: C^3, so the cutoff keeps three exact derivatives
_SMOOTH = np.array([-20.0, 70.0, -84.0, 35.0, 0.0, 0.0, 0.0, 0.0])
_SMOOTH_DERIVS = [np.polyder(_SMOOTH, k) for k in (1, 2, 3)]


def _cutoff_derivatives(c0: float, c1: float):
    """chi and chi', chi'', chi''' closures; 1 below c0, 0 above c1."""
    if not 0 < c0 < c1:
        raise DomainError("cutoff needs 0 < c0 < c1")
    w = c1 - c0

    def value(r):
        r = np.asarray(r, dtype=float)
        x = np.clip((r - c0) / w, 0.0, 1.0)
        return 1.0 - np.polyval(_SMOOTH, x)

    def deriv(k):
        poly, scale = _SMOOTH_DERIVS[k - 1], w ** (-k)

        def call(r):
            r = np.asarray(r, dtype=float)
            x = (r - c0) / w
            inside = (x > 0.0) & (x < 1.0)
            return np.where(inside, -np.polyval(poly, np.clip(x, 0.0, 1.0)) * scale, 0.0)

        return call

    return value, deriv(1), deriv(2), deriv(3)


@dataclass
class AngleDeformation:
    """Radial data of the cone-angle deformation family near the axis.

    ``continuation.series`` expands the distinguished gauge potential f with
    f = -r log r + r^3 (c + c' log r) + ...; the potential solves
    O f = 2 / tanh r in the scalar p = 0 one-form system, normalized to carry
    no admissible homogeneous component at the leading orders.
    """

    model: ConeModel
    continuation: ContinuedSolution

    @functools.cached_property
    def f_profile(self) -> RadialProfile:
        return self.continuation.profile("f")

    @functools.cached_property
    def g_profile(self) -> RadialProfile:
        return self.continuation.profile("g")

    def residual(self, radii) -> np.ndarray:
        """Max componentwise defect of O X = (2/tanh r, 0) at the radii."""
        radii = np.asarray(radii, dtype=float)
        system = self.continuation.system
        block = ModeBlock("oneform", system.mode,
                          {"f": self.f_profile, "g": self.g_profile})
        out = system.apply(block, radii)
        res_f = np.abs(out["f"] - 2.0 / np.tanh(radii))
        res_g = np.abs(out["g"])
        return np.maximum(res_f, res_g)

    def correction_block(self, cutoff=None) -> ModeBlock:
        """Deformation tensor h0 - delta*(chi f e^r) in cross-section slots.

        ``cutoff=(c0, c1)`` multiplies the gauge potential by a C^3 bump that
        is 1 below c0 and 0 above c1; None keeps the raw potential.
        """
        n = self.model.n
        f = self.f_profile
        if cutoff is not None:
            f = RadialProfile(*_cutoff_derivatives(*cutoff)) * f
        th = RadialProfile.from_expr(_ex("th"))
        inv_th = RadialProfile.from_expr(_ex("inv_th"))
        profiles = {
            "f": -1.0 * f.derivative(),
            "g": RadialProfile.constant(1.0) - f * inv_th,
            "k1": -np.sqrt(n - 2) * (f * th),
        }
        return ModeBlock("tensor", ScalarMode(0.0, 0), profiles)

    def boundary_values(self, cutoff=None) -> dict:
        """Component trace of the deformation tensor at the tube edge."""
        a = self.model.tube_radius
        if cutoff is None:
            cutoff = (0.25 * a, 0.5 * a)
        block, r, memo = self.correction_block(cutoff=cutoff), np.asarray(a, dtype=float), {}
        return {name: complex(block.component(name).jet(r, 0, memo)[0])
                for name in ("f", "g", "h", "k1")}


def angle_deformation_profile(model: ConeModel, order: int = 16,
                              handoff: Optional[float] = None,
                              num: int = _GRID_NODES,
                              rtol: float = 1e-11) -> AngleDeformation:
    """Solve the gauge potential ODE for the cone-angle deformation: its
    particular series of ``order`` continued from ``handoff`` by
    `integrate_mode_ode` on ``num`` nodes to ``rtol``."""
    system = oneform_system(model, ScalarMode(0.0, 0))
    if handoff is None:
        handoff = _auto_handoff(model.tube_radius)
    source = {"f": 2.0 * _ex("inv_th")}
    series = inhomogeneous_series(system, source, order=order)
    cont = integrate_mode_ode(system, series, handoff, model.tube_radius,
                              source=source, num=num, rtol=rtol)
    return AngleDeformation(model=model, continuation=cont)
