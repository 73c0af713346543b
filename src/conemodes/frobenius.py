"""Series solutions, continuation, and boundary matching for mode ODEs.

The radial systems produced by :mod:`conemodes.reduction` have a regular
singular point at the cone axis.  This module constructs Frobenius series
(with logarithmic branches where the indicial structure forces them),
continues them outward to the tube boundary, and solves Dirichlet problems
there within a prescribed solution class.  One series recursion factors the
indicial matrices of all its orders in one batched SVD.

The continuation ODE y' = M(r) y + f(r), y = (X, X'), is linear, so it is
propagated by 4-stage Gauss-Legendre collocation (A-stable, order 8; Hairer
and Wanner, Solving ODEs II, IV.5) with numpy alone: every step of the
geometric output grid becomes one affine map, all maps are built by one
batched linear solve, and a step-doubling estimate checks each result
against ``rtol``.  All admissible branches of a mode and its particular
solution are continued together, as the columns of one matrix state pushed
through the same maps.  Each column is normalized by its largest value at
the handoff, so a steep branch r^kappa starts at size one.

Series and continued solutions hand out each component as a
:class:`conemodes.geometry.RadialProfile` with three derivatives, and a
solution on the whole tube is one jet node that reads the series below the
handoff and the continuation above it, so derivatives of a solution (and of
its products, as in the cone-angle correction block) come from the profile
algebra rather than from hand-written product rules.  A continued
solution reads its nodal d2..d4 off the ODE only when a profile level that
needs them is first evaluated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .geometry import ConeModel, DomainError, RadialProfile, cubic_hermite, gauss_legendre
from .indicial import classify_exponent, indicial_report, system_for_mode
from .modes import Mode, ScalarMode
from .reduction import (
    ModeBlock,
    ModeSystem,
    RadialExpr,
    component_weights,
    oneform_system,
    _ex,
)

__all__ = [
    "FrobeniusError",
    "FrobeniusSeries",
    "frobenius_series",
    "inhomogeneous_series",
    "series_block",
    "ContinuedSolution",
    "integrate_mode_ode",
    "ModeBVPResult",
    "solve_mode_bvp",
    "AngleDeformation",
    "angle_deformation_profile",
    "induced_singular_deformation",
]

# rank cut for detecting resonant orders, relative to the largest singular value
_RANK_TOL = 1e-8
# relative obstruction threshold deciding solvable resonance vs log branch
_SOLVE_TOL = 1e-9
# Gauss-Legendre stages of the continuation (order 2 * _STAGES) and the most
# substeps per output interval the step-doubling check may ask for
_STAGES = 4
_MAX_SUBSTEPS = 8
_EPS = np.finfo(float).eps


class FrobeniusError(RuntimeError):
    """Series construction or continuation failed."""


# ---------------------------------------------------------------------------
# series container


@dataclass(frozen=True)
class FrobeniusSeries:
    """Truncated expansion sum_m v_m r^(kappa+m) (+ log r * companion).

    ``coefficients[m]`` is the vector v_m over ``names``.  When a logarithmic
    branch is present, ``log_coefficients[m]`` holds the companion vector u_m
    multiplying r^(kappa+m) log r.
    """

    kappa: float
    names: tuple
    coefficients: tuple
    log_coefficients: Optional[tuple] = None

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def arity(self) -> int:
        return len(self.names)

    @property
    def has_log(self) -> bool:
        return self.log_coefficients is not None

    def _arrays(self):
        V = np.asarray(self.coefficients, dtype=complex)
        U = None
        if self.log_coefficients is not None:
            U = np.asarray(self.log_coefficients, dtype=complex)
        return V, U

    def evaluate(self, r, derivative: int = 0):
        """Componentwise values of the d-th derivative, shape (arity,) + r.shape."""
        if derivative not in (0, 1, 2, 3):
            raise ValueError("derivative order must be 0..3")
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        rr = np.atleast_1d(r)
        if np.any(rr <= 0):
            raise DomainError("series evaluation needs r > 0")
        V, U = self._arrays()
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
        """One component as a profile with three derivatives."""
        i = self.names.index(name)
        return RadialProfile(*[lambda r, k=k: self.evaluate(r, k)[i] for k in range(4)])

    def profiles(self) -> dict:
        return {name: self.profile(name) for name in self.names}

    def to_dict(self) -> dict:
        def pack(mat):
            return [[[z.real, z.imag] for z in row] for row in mat]

        V, U = self._arrays()
        return {
            "kappa": self.kappa,
            "names": list(self.names),
            "coefficients": pack(V),
            "log_coefficients": None if U is None else pack(U),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FrobeniusSeries":
        def unpack(rows):
            return tuple(tuple(complex(re, im) for re, im in row) for row in rows)

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
def _coefficient_data(system: ModeSystem, order: int):
    """Read-only float64 q_j of r q(r), shape (order+1,), and framed W_j."""
    drift = system.laurent_drift(order + 1)
    q = np.array([complex(drift.coefficient(j)) for j in range(order + 1)]).real
    W = np.asarray(system.laurent_potential(order + 1))
    q.flags.writeable = W.flags.writeable = False
    return q, W


def _series_engine(system, s0, order, seed=None, log_seed=None, source=None):
    """Run the coefficient recursion; returns arrays (v, u), u None without logs.

    It runs in the real frame of `ModeSystem`: the named seeds and source rows
    (order+1, k) enter as d x, and v, u are float64 unless one is complex
    there.  Multiplying the system by r^2 gives coefficient equations A_m v_m
    = sum_{j=1..m} K[m, j] v_{m-j} + source_m, A_m = W_0 - (s0+m)^2 I, K[m, j]
    = q_j (s0+m-j) I - W_j.  One batched SVD of every A_m gives each order's
    rank under the `_RANK_TOL` cut and, at full rank, x = Vh^T (U^T b / sigma).
    At resonant orders obstructions are absorbed into a log-companion series,
    seeded inside the null space so that the shifted right-hand side lands in
    the range.
    """
    k = system.arity
    q, W = _coefficient_data(system, order)
    seed, log_seed, source = data = [x if x is None else system.to_frame(x)
                                     for x in (seed, log_seed, source)]
    wdiag = np.asarray(component_weights(system.family, system.names), float)
    eye = np.eye(k)
    m_all = np.arange(order + 1)
    s_all = s0 + m_all
    A = W[0] - (s_all * s_all)[:, None, None] * eye
    left, sv, vh = np.linalg.svd(A)
    ranks = np.sum(sv > _RANK_TOL * np.maximum(sv[:, :1], 1.0), axis=1)
    K = (q * (s_all[:, None] - m_all))[..., None, None] * eye - W
    v = np.zeros((order + 1, k), np.result_type(float, *[x for x in data if x is not None]))
    u = np.zeros_like(v)

    def history(seq, m):
        return np.einsum("jab,jb->a", K[m, 1:m + 1], seq[:m][::-1])

    def factor_solve(m, rhs):
        return vh[m].T @ ((left[m].T @ rhs) / sv[m])

    log_active = log_seed is not None
    for m in range(order + 1):
        s, rank = s_all[m], ranks[m]
        if log_active:
            if m == 0:
                u[0] = log_seed
                if np.linalg.norm(A[0] @ u[0]) > 1e-8 * (np.linalg.norm(u[0]) + 1.0):
                    raise FrobeniusError(
                        "log seed must lie in the indicial null space")
            elif rank == k:
                u[m] = factor_solve(m, history(u, m))
            else:
                u[m] = _resonant_solve(A[m], history(u, m), m, "log companion")
        rhs = history(v, m)
        if source is not None:
            rhs = rhs + source[m]
        if log_active:
            rhs = rhs + 2.0 * s * u[m] + q[1:m + 1] @ u[:m][::-1]
        if m == 0 and seed is not None:
            v[0] = seed
            if np.linalg.norm(A[0] @ v[0] - rhs) > 1e-8 * (
                    np.linalg.norm(v[0]) + np.linalg.norm(rhs) + 1.0):
                raise FrobeniusError(
                    "seed vector does not satisfy the leading-order equation")
        elif rank == k:
            v[m] = factor_solve(m, rhs)
        else:
            null = vh[m, rank:].T
            beta = (wdiag[:, None] * null).T @ rhs
            if np.linalg.norm(beta) <= _SOLVE_TOL * (np.linalg.norm(rhs) + 1.0):
                v[m] = _min_norm(A[m], rhs)
            else:
                if abs(s) < 1e-12:
                    raise FrobeniusError(
                        f"obstruction at order {m} with exponent 0: "
                        "iterated logarithm not supported")
                gram = (wdiag[:, None] * null).T @ null
                shift = null @ np.linalg.solve(gram, -beta / (2.0 * s))
                u[m] += shift
                v[m] = _min_norm(A[m], rhs + 2.0 * s * shift)
                log_active = True
    return v, (u if u.any() else None)


def _series(system: ModeSystem, s0, order: int, **data) -> FrobeniusSeries:
    """`_series_engine` at exponent s0, its coefficients named back: conj(d) v."""
    v, u = (x if x is None else tuple(map(tuple, x * system.frame.conj()))
            for x in _series_engine(system, float(s0), order, **data))
    return FrobeniusSeries(float(s0), system.names, v, u)


def _min_norm(A, rhs):
    return np.linalg.lstsq(A, rhs, rcond=_RANK_TOL)[0]


def _resonant_solve(A, rhs, m, what):
    x = _min_norm(A, rhs)
    if np.linalg.norm(A @ x - rhs) > _SOLVE_TOL * (np.linalg.norm(rhs) + 1.0):
        raise FrobeniusError(
            f"{what} recursion hits an unsolvable resonance at order {m}: "
            "iterated logarithm not supported")
    return x


def frobenius_series(system: ModeSystem, kappa: float, vector=None,
                     log_vector=None, order: int = 12) -> FrobeniusSeries:
    """Homogeneous series branch at the indicial exponent ``kappa``.

    ``vector`` seeds the power branch; ``log_vector`` seeds a logarithmic
    branch (exponent-zero roots).  With neither given the indicial null
    vector is used, which requires a one-dimensional null space.
    """
    if vector is None and log_vector is None:
        report = indicial_report(system)
        root = report.root(kappa)
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
    normalized to have no component along the homogeneous null directions.
    """
    unknown = set(source) - set(system.names)
    if unknown:
        raise ValueError(f"source names {sorted(unknown)} not in system")
    rows = {}
    leads = []
    for name, expr in source.items():
        ser = expr.laurent(order + 1)  # the recursion reads orders 0..order
        rows[system.names.index(name)] = ser
        leads.append(ser.leading)
    if not rows:
        raise ValueError("source must have at least one nonzero row")
    s0 = min(leads) + 2
    terms = np.zeros((order + 1, system.arity), dtype=complex)
    for i, ser in rows.items():
        terms[:, i] = [complex(ser.coefficient(s0 - 2 + m)) for m in range(order + 1)]
    return _series(system, s0, order, source=terms)


def series_block(system: ModeSystem, series: FrobeniusSeries):
    """Wrap series profiles as the matching mode block."""
    return ModeBlock(system.family, system.kind, system.mode, series.profiles())


# ---------------------------------------------------------------------------
# outward continuation


@dataclass
class ContinuedSolution:
    """Grid solution on [handoff, r_end] with ODE-exact nodal derivatives;
    ``higher()`` gives d2..d4, shape (3, arity, N), computed on first use."""

    system: ModeSystem
    grid: np.ndarray
    values: np.ndarray  # (arity, N)
    d1: np.ndarray
    higher: Callable = field(repr=False, compare=False)

    d2 = property(lambda self: self.higher()[0])
    d3 = property(lambda self: self.higher()[1])
    d4 = property(lambda self: self.higher()[2])

    @property
    def endpoint(self):
        return self.values[:, -1]

    def profile(self, name: str) -> RadialProfile:
        """One component as a profile with three derivatives.

        Level k, built when first evaluated, is the cubic Hermite interpolant
        of the nodal pair (d_k, d_k+1), with d_0 the values, so each level
        keeps quartic-order accuracy. Near the handoff the nodal d3 and d4
        carry the propagator's error times V' ~ r^-3 and V'' ~ r^-4: for the
        angle-potential system at the defaults, against a 6-stage reference
        with 4 substeps per interval, the nodal values are within 3e-15
        relative on r < 0.2, d3 within 2e-13 and d4 within 1e-11, so levels
        2 and 3, read from them, are that much less accurate than the values.
        """
        i, interpolants = self.system.names.index(name), {}
        nodal = ("values", "d1", "d2", "d3", "d4")

        def level(k, r):
            if k not in interpolants:
                interpolants[k] = cubic_hermite(self.grid, getattr(self, nodal[k])[i],
                                                getattr(self, nodal[k + 1])[i])
            return interpolants[k](r)

        return RadialProfile(*[functools.partial(level, k) for k in range(4)])

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


def _step_maps(system: ModeSystem, t, source) -> np.ndarray:
    """One Gauss-Legendre step per interval of ``t`` as augmented affine maps.

    Map n sends (X, X', 1) at t[n] to (X, X', 1) at t[n+1], shape
    (len(t) - 1, 2k + 1, 2k + 1), with X and V in the real frame of
    `ModeSystem`.  The unknowns are the stage values Z_i of X''; the stages
    of X' and X are X' + h (A Z)_i and X + h c_i X' + h^2 (A^2 Z)_i, so the
    collocation conditions Z_i = V_i X_i - q_i X'_i - S_i are one sk x sk
    linear system per step, solved for all steps at once.  ``source(r)``
    gives D S at radii of any shape as (k,) + r.shape, or is None; the maps
    are float64 unless it is complex.
    """
    c, b, A = _gauss_tableau(_STAGES)
    k, s = system.arity, _STAGES
    h = np.diff(t)
    r = t[:-1, None] + h[:, None] * c
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


def _subdivide(t, m: int):
    # m equal substeps in every interval of t, keeping its nodes exactly
    inner = t[:-1, None] + np.diff(t)[:, None] * (np.arange(m) / m)
    return np.append(inner.ravel(), t[-1])


def _compose_pairs(P, times: int):
    # halve the number of maps `times` times, composing neighbours
    for _ in range(times):
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
    the real frame of `_step_maps`: real when ``y0`` and the maps are.

    Every interval takes m Gauss-Legendre substeps, m = 1, 2, 4, 8.  The
    check builds the same maps over pairs of intervals: a step of order 8
    has local error ~ h^9, so |coarse - fine| / (2^8 - 1) estimates the
    local error of the fine maps over each pair.  Relative to each column's
    largest value, plus one unit of rounding (no state is closer than that),
    it must not exceed ``rtol`` (|D x| = |x|); m doubles while it does.
    """
    k, npairs = system.arity, (grid.size - 1) // 2
    for log_m in range(_MAX_SUBSTEPS.bit_length()):
        fine = _compose_pairs(_step_maps(system, _subdivide(grid, 2 ** log_m),
                                         source), log_m)
        Y = _propagate(fine, y0)
        coarse = _compose_pairs(_step_maps(
            system, _subdivide(grid[:2 * npairs + 1:2], 2 ** log_m), source), log_m)
        diff = (coarse - fine[1::2][:npairs] @ fine[0::2][:npairs]) @ Y[:-1:2][:npairs]
        size = np.max(np.abs(Y[:, :2 * k]), axis=(0, 1))
        est = np.max(np.abs(diff[:, :2 * k]), axis=1) / (size * 255.0) + _EPS
        worst = np.unravel_index(np.argmax(est), est.shape)
        if est[worst] <= rtol:
            return Y
    raise FrobeniusError(
        f"continuation error estimate {est[worst]:.3g} exceeds rtol {rtol:.3g} "
        f"at r = {grid[2 * worst[0]]:.6g} with {_MAX_SUBSTEPS} substeps per "
        "interval; raise num or rtol")


def integrate_mode_ode(system: ModeSystem, series, handoff: float, r_end: float,
                       source_profiles: Optional[Mapping[str, RadialProfile]] = None,
                       num: int = 400, rtol: float = 1e-11):
    """Continue series solutions from the handoff radius out to ``r_end``.

    ``series`` is one FrobeniusSeries, giving one ContinuedSolution, or a
    sequence of them, giving one ContinuedSolution per series.  A sequence is
    continued as one matrix ODE: the series are the columns of a (2k, nb)
    state, propagated by the same step maps.  When ``source_profiles`` is
    given, the last series is the particular solution and its column alone
    is fed the source.

    The output grid has ``num`` geometric nodes; each interval takes one or
    more 4-stage Gauss-Legendre steps (order 8), refined until the
    step-doubling estimate of the local error is at most ``rtol`` relative
    to each column's largest value (FrobeniusError when 8 substeps per
    interval do not reach it; ``rtol`` must be finite and > 0).  The steps
    run in the real frame of `ModeSystem`, d_j = +i on the theta-odd
    components: series data and source enter as D X and D S (a homogeneous
    column is real there), and D^-1 names the nodal states and d2..d4, read
    off the ODE for all columns at once when one column first asks.  Each
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
    src_rows = [(system.names.index(name), prof)
                for name, prof in (source_profiles or {}).items()]
    src = None
    if src_rows:
        def src(r):
            out = np.zeros((k,) + r.shape, dtype=complex)
            for i, prof in src_rows:
                out[i] = prof(r) / scale[-1]
            return system.to_frame(out, axis=0)

    grid = np.geomspace(handoff, r_end, num)
    grid[0], grid[-1] = handoff, r_end
    start = np.concatenate([y0 / scale, np.zeros((1, nb))])
    start[-1, -1] = 1.0 if src_rows else 0.0
    Y = _continue(system, grid, start, src, rtol)[:, :2 * k] * scale
    X, dX = Y[:, :k], Y[:, k:]  # (N, k, nb), in the frame
    higher = functools.cache(functools.partial(_ode_derivatives, system, grid, X, dX,
                                               src_rows))
    values, d1 = (np.moveaxis(a * system.frame.conj()[:, None], 0, -1) for a in (X, dX))
    out = [ContinuedSolution(system, grid, values[:, c], d1[:, c],
                             lambda c=c: higher()[..., c].swapaxes(-1, -2))
           for c in range(nb)]
    return out[0] if single else out


def _ode_derivatives(system: ModeSystem, grid, X, dX, src_rows):
    """Named d2, d3, d4 of every column at the nodes, shape (3, N, k, nb),
    from the framed ODE X'' = -q X' + V X - S and its first two derivatives."""
    q, qp, qpp = (system.drift_at(grid, d)[:, None, None] for d in range(3))
    V, Vp, Vpp = (np.moveaxis(system.potential_at(grid, d), -1, 0) for d in range(3))
    S = np.zeros((3,) + X.shape, dtype=complex)
    for i, prof in src_rows:
        S[:, :, i, -1] = prof.jet(grid, 2, {})
    S, Sp, Spp = system.to_frame(S, axis=-2)
    d2 = -q * dX + V @ X - S
    d3 = -qp * dX - q * d2 + Vp @ X + V @ dX - Sp
    d4 = -qpp * dX - 2 * qp * d2 - q * d3 + Vpp @ X + 2 * (Vp @ dX) + V @ d2 - Spp
    return np.stack([d2, d3, d4]) * system.frame.conj()[:, None]


def _piecewise(inner: RadialProfile, outer: RadialProfile, cut: float) -> RadialProfile:
    """`inner` below the cut, `outer` from it on.  Each side is read on the
    grid clipped to its side, through a sub-memo of the jet's memo shared by
    every switch at this cut."""
    def node(r, m, memo):
        r = np.asarray(r, dtype=float)
        lo = inner.jet(np.minimum(r, cut), m, memo.setdefault(("below", cut), {}))
        hi = outer.jet(np.maximum(r, cut), m, memo.setdefault(("above", cut), {}))
        return np.where(r < cut, lo, hi)

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
    """

    system: ModeSystem
    solution_class: str
    status: str
    branch_exponents: tuple
    coefficients: np.ndarray
    condition_number: float
    boundary_residual: float
    profiles: dict
    axis_values: dict
    axis_regular: bool
    null_combinations: tuple
    handoff: float

    def block(self):
        return ModeBlock(self.system.family, self.system.kind, self.system.mode,
                         dict(self.profiles))

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
            "axis_regular": self.axis_regular,
            "axis_values": {k: [v.real, v.imag] for k, v in self.axis_values.items()},
        }


def admissible_branches(system: ModeSystem, solution_class: str):
    """(kind, exponent, seed vector) triples admitted by the solution class."""
    report = indicial_report(system)
    out = []
    for root in report.roots:
        if classify_exponent(root.value, False)[solution_class]:
            for vec in root.vectors:
                out.append(("power", root.value, tuple(vec)))
        if root.log_required and classify_exponent(root.value, True)[solution_class]:
            for vec in root.vectors:
                out.append(("log", root.value, tuple(vec)))
    return out


def solve_mode_bvp(model: ConeModel, mode: Mode, family: str,
                   boundary: Mapping[str, complex],
                   solution_class: str = "strong",
                   source: Optional[Mapping[str, RadialExpr]] = None,
                   order: int = 14, handoff: Optional[float] = None,
                   num: int = 400, rtol: float = 1e-11) -> ModeBVPResult:
    """Match admissible interior branches to Dirichlet data at the tube edge.

    The boundary map sends branch coefficients to component values at
    r = tube_radius.  A square well-conditioned map gives status "unique";
    fewer branches than components reports "deficient" (residual shows
    whether this particular data is still attainable), more branches or a
    rank drop reports "non_unique" with the null combinations.
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

    series = [frobenius_series(system, kappa, order=order,
                               vector=vec if kind == "power" else None,
                               log_vector=vec if kind == "log" else None)
              for kind, kappa, vec in branches]
    branch_axis = [np.asarray(ser.coefficients[0], dtype=complex)
                   if kind == "power" and kappa == 0 else None
                   for ser, (kind, kappa, _) in zip(series, branches)]
    pser, sprofs = None, None
    if source:
        pser = inhomogeneous_series(system, source, order=order)
        sprofs = {nm: RadialProfile.from_expr(ex) for nm, ex in source.items()}
    columns = series + ([pser] if pser is not None else [])
    conts = integrate_mode_ode(system, columns, handoff, a, source_profiles=sprofs,
                               num=num, rtol=rtol) if columns else []
    col_profiles = [
        {name: _piecewise(ser.profile(name), cont.profile(name), handoff)
         for name in system.names}
        for ser, cont in zip(columns, conts)]
    branch_profiles = col_profiles[:nb]

    part_profiles = None
    part_end = np.zeros(k, dtype=complex)
    part_axis = np.zeros(k, dtype=complex)
    part_regular = True
    if pser is not None:
        part_profiles = col_profiles[-1]
        part_end = conts[-1].endpoint
        if pser.kappa < 0:
            part_regular = False
        elif pser.kappa == 0:
            part_axis = np.asarray(pser.coefficients[0], dtype=complex)
            if pser.has_log and np.any(np.abs(pser.log_coefficients[0]) > 1e-14):
                part_regular = False

    bvec = np.array([complex(boundary.get(nm, 0.0)) for nm in system.names])
    target = bvec - part_end
    if nb:
        B = np.stack([cont.endpoint for cont in conts[:nb]], axis=1)
        _, sv, vh = np.linalg.svd(B)
        rank = int(np.sum(sv > 1e-10 * max(sv[0], 1.0)))
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        coeffs = np.linalg.lstsq(B, target, rcond=1e-12)[0]
        residual = float(np.linalg.norm(B @ coeffs - target))
        nulls = tuple(tuple(row) for row in vh[rank:].conj())
    else:
        rank, cond, residual = 0, np.inf, float(np.linalg.norm(target))
        coeffs, nulls = np.zeros(0, dtype=complex), ()
    if rank == nb == k:
        status = "unique"
    elif rank == k:
        status = "non_unique"
    elif rank == nb:
        status = "deficient"
    else:
        status = "deficient_non_unique"

    profiles = {}
    for i, name in enumerate(system.names):
        prof = RadialProfile.zero() if part_profiles is None else part_profiles[name]
        for c, bp in zip(coeffs, branch_profiles):
            prof = prof + c * bp[name]
        profiles[name] = prof

    axis = part_axis.copy()
    regular = part_regular
    for c, (kind, kappa, _), v0 in zip(coeffs, branches, branch_axis):
        if v0 is not None:
            axis = axis + c * v0
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
        profiles=profiles,
        axis_values=axis_values,
        axis_regular=regular,
        null_combinations=nulls,
        handoff=handoff,
    )


def induced_singular_deformation(model: ConeModel, boundary_data: Mapping,
                                 solution_class: str = "strong",
                                 order: int = 14, handoff: Optional[float] = None,
                                 num: int = 400, rtol: float = 1e-11) -> dict:
    """Per-mode Dirichlet solves extracting the axis limits of the components.

    ``boundary_data`` maps tensor modes to component values at the tube edge.
    The axis limits of the cross-section slots (the exponent-zero branch
    content) are what survives at the singular locus; only p = 0 modes can
    carry them when no indicial root sits at zero for p != 0.
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

    ``series`` expands the distinguished gauge potential f with
    f = -r log r + r^3 (c + c' log r) + ...; the potential solves
    O f = 2 / tanh r in the scalar p = 0 one-form system, normalized to carry
    no admissible homogeneous component at the leading orders.
    """

    model: ConeModel
    system: ModeSystem
    series: FrobeniusSeries
    continuation: ContinuedSolution
    handoff: float

    def _profile(self, name: str) -> RadialProfile:
        # the series inside the handoff, the continuation outside it
        return _piecewise(self.series.profile(name),
                          self.continuation.profile(name), self.handoff)

    @functools.cached_property
    def f_profile(self) -> RadialProfile:
        return self._profile("f")

    @functools.cached_property
    def g_profile(self) -> RadialProfile:
        return self._profile("g")

    def residual(self, radii) -> np.ndarray:
        """Max componentwise defect of O X = (2/tanh r, 0) at the radii."""
        radii = np.asarray(radii, dtype=float)
        block = ModeBlock("oneform", self.system.kind, self.system.mode,
                          {"f": self.f_profile, "g": self.g_profile})
        out = self.system.apply(block, radii)
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
        return ModeBlock("tensor", "B", ScalarMode(0.0, 0), profiles)

    def boundary_values(self, cutoff=None) -> dict:
        """Component trace of the deformation tensor at the tube edge."""
        a = self.model.tube_radius
        if cutoff is None:
            cutoff = (0.25 * a, 0.5 * a)
        block = self.correction_block(cutoff=cutoff)
        return {name: complex(block.component(name)(a))
                for name in ("f", "g", "h", "k1")}


def angle_deformation_profile(model: ConeModel, order: int = 16,
                              handoff: Optional[float] = None,
                              num: int = 600, rtol: float = 1e-11) -> AngleDeformation:
    """Solve the gauge potential ODE for the cone-angle deformation."""
    system = oneform_system(model, ScalarMode(0.0, 0), "B")
    if handoff is None:
        handoff = _auto_handoff(model.tube_radius)
    source = {"f": 2.0 * _ex("inv_th")}
    series = inhomogeneous_series(system, source, order=order)
    cont = integrate_mode_ode(
        system, series, handoff, model.tube_radius,
        source_profiles={"f": RadialProfile.from_expr(source["f"])},
        num=num, rtol=rtol)
    return AngleDeformation(model=model, system=system, series=series,
                            continuation=cont, handoff=handoff)
