"""Tube geometry of a hyperbolic cone manifold.

The tube around the singular locus carries the metric

    dr^2 + sinh(r)^2 dtheta^2 + cosh(r)^2 g_S

with theta periodic of period alpha (the cone angle) and g_S the metric of
the (n-2)-dimensional cross-section.  Everything downstream (mode reduction,
indicial systems, series solvers) consumes two things from this module: the
radial coefficient functions and the `RadialProfile` jets built on them.

Every radial coefficient is a monomial sh(r)^a ch(r)^b with small integer
exponents, so the exponent pair (a, b) is its whole representation.  One
evaluator, `sinh_cosh_values`, gives values and derivatives of any pairs:
by ch^2 = 1 + sh^2 each derivative is again a sum of monomials.  One builder,
`sinh_cosh_series`, gives the exact Laurent series over `fractions.Fraction`
as r^a (sh/r)^a ch^b from the sinh/cosh Maclaurin coefficients, cached per
pair.  `RADIAL_FUNCTIONS` names nine pairs for the operator formulas.

Every field the package handles is a radial function with a few of its
derivatives, and `RadialProfile` is the one type for it: the reduced blocks,
the Frobenius and continued solutions and the coordinate oracle's fields
are all built from it.  A profile is evaluated as a jet:
`profile.jet(r, m, memo)` is levels 0..m at the radii as one array, read
once per operand and kept in `memo` under id(profile), so one evaluation
computes every shared node and leaf level once.  A memo serves one radius
grid and only while its trees are alive: make a fresh one per evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "DomainError",
    "LaurentSeries",
    "RadialFunction",
    "RADIAL_FUNCTIONS",
    "radial_series",
    "RadialProfile",
    "leibniz",
    "jet_reciprocal",
    "cubic_hermite",
    "sinh_cosh_values",
    "sinh_cosh_series",
    "CrossSection",
    "ConeModel",
    "gauss_legendre",
]


class DomainError(ValueError):
    """Raised when a radial argument leaves the tube domain 0 < r <= a."""


# ---------------------------------------------------------------------------
# exact series arithmetic


@dataclass(frozen=True)
class LaurentSeries:
    """Finite Laurent series sum_k coeffs[k] * r**(leading + k).

    Coefficients are exact (`Fraction`, or complex for downstream assembled
    data).  A series with M coefficients represents the function modulo
    O(r**(leading + M)).
    """

    leading: int
    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty series")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def trimmed(self) -> "LaurentSeries":
        k = 0
        while k < len(self.coeffs) - 1 and self.coeffs[k] == 0:
            k += 1
        return LaurentSeries(self.leading + k, self.coeffs[k:])

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        # both factors are truncations; the product keeps the shorter length
        out = [Fraction(0)] * min(len(self.coeffs), len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j < len(out):
                    out[i + j] = out[i + j] + a * b
        return LaurentSeries(self.leading + other.leading, tuple(out))

    def reciprocal(self) -> "LaurentSeries":
        s = self.trimmed()
        c0 = s.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("series has no invertible leading coefficient")
        m = len(s.coeffs)
        inv = [Fraction(0)] * m
        inv[0] = Fraction(1) / c0 if isinstance(c0, Fraction) else 1 / c0
        for k in range(1, m):
            acc = sum(s.coeffs[j] * inv[k - j] for j in range(1, k + 1))
            inv[k] = -inv[0] * acc
        return LaurentSeries(-s.leading, tuple(inv))

    def derivative(self) -> "LaurentSeries":
        out = [ (self.leading + k) * c for k, c in enumerate(self.coeffs) ]
        return LaurentSeries(self.leading - 1, tuple(out))

    def coefficient(self, power: int):
        k = power - self.leading
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        acc = np.zeros_like(r, dtype=complex)
        for k, c in enumerate(self.coeffs):
            acc = acc + complex(c) * r ** (self.leading + k)
        if np.all(np.abs(acc.imag) == 0.0):
            acc = acc.real
        return acc if acc.shape else acc[()]

    def parity(self) -> int | None:
        """+1 if only even powers carry nonzero coefficients, -1 odd, None mixed."""
        seen = {(self.leading + k) % 2 for k, c in enumerate(self.coeffs) if c != 0}
        if seen == {0}:
            return 1
        if seen == {1}:
            return -1
        if not seen:
            return 1
        return None


# ---------------------------------------------------------------------------
# sinh^a cosh^b monomials


def _require_positive(r):
    r = np.asarray(r, dtype=float)
    if np.count_nonzero(r <= 0.0):
        raise DomainError("radial coordinate must satisfy r > 0")
    return r


@lru_cache(maxsize=None)
def _derivative_terms(a: int, b: int, derivative: int) -> tuple:
    """The derivative of sh^a ch^b as terms (k, p, q) of k sh^p ch^q.

    (sh^p ch^q)' = p sh^(p-1) ch^(q-1) + (p+q) sh^(p+1) ch^(q-1) uses
    ch^2 = 1 + sh^2, so every level is again a sum of monomials: coth' comes
    out as -sh^-2, not as the cancelling 1 - coth^2.  Terms with a zero
    coefficient are dropped, so a pair with a >= 0 never meets a negative
    power of sh.
    """
    if derivative < 0:
        raise ValueError("derivative order must be nonnegative")
    if derivative == 0:
        return ((1, a, b),)
    acc = {}
    for k, p, q in _derivative_terms(a, b, derivative - 1):
        acc[p - 1] = acc.get(p - 1, 0) + k * p
        acc[p + 1] = acc.get(p + 1, 0) + k * (p + q)
    return tuple((k, p, b - derivative) for p, k in sorted(acc.items()) if k)


def sinh_cosh_values(pairs, r, derivative: int = 0) -> np.ndarray:
    """sh(r)^a ch(r)^b, or its derivative of the given order, for each
    exponent pair (a, b); shape (len(pairs),) + r.shape, from one sinh/cosh
    evaluation.  A pair with a < 0 is singular at the axis, and then r <= 0
    raises DomainError."""
    pairs = tuple(pairs)
    if any(a < 0 for a, _ in pairs):
        r = _require_positive(r)
    else:
        r = np.asarray(r, dtype=float)
    s, c = np.sinh(r), np.cosh(r)
    out = np.zeros((len(pairs),) + r.shape)
    for i, (a, b) in enumerate(pairs):
        for k, p, q in _derivative_terms(a, b, derivative):
            out[i] += k * s ** p * c ** q
    return out


def _unit_power(series: LaurentSeries, e: int) -> LaurentSeries:
    # series starts with 1 at r^0, so every power keeps its length
    base = series if e >= 0 else series.reciprocal()
    out = LaurentSeries(0, (Fraction(1),) + (Fraction(0),) * (series.order - 1))
    for _ in range(abs(e)):
        out = out * base
    return out


def _series_table(a: int, b: int, order: int) -> LaurentSeries:
    sh_r = tuple(Fraction(1, math.factorial(k + 1)) if k % 2 == 0 else Fraction(0)
                 for k in range(order))
    ch = tuple(Fraction(1, math.factorial(k)) if k % 2 == 0 else Fraction(0)
               for k in range(order))
    unit = _unit_power(LaurentSeries(0, sh_r), a) * _unit_power(LaurentSeries(0, ch), b)
    return LaurentSeries(a, unit.coeffs)


_SERIES_TABLES: dict = {}


def sinh_cosh_series(a: int, b: int, order: int) -> LaurentSeries:
    """The first `order` exact Laurent coefficients of sh^a ch^b, from r^a.

    sh^a ch^b = r^a (sh/r)^a ch^b, and (sh/r) and ch are power series that
    start with 1, so products and reciprocals of `order`-term truncations
    are exact to `order` terms.  One table is kept per pair; it is rebuilt
    only when a longer one is asked for.
    """
    table = _SERIES_TABLES.get((a, b))
    if table is None or table.order < order:
        table = _SERIES_TABLES[(a, b)] = _series_table(a, b, order)
    return table if table.order == order else LaurentSeries(a, table.coeffs[:order])


# ---------------------------------------------------------------------------
# named radial coefficient functions


@dataclass(frozen=True)
class RadialFunction:
    """A named radial coefficient sh(r)^a ch(r)^b."""

    name: str
    a: int
    b: int

    @property
    def leading(self) -> int:
        return self.a

    @property
    def parity(self) -> int:
        return -1 if self.a % 2 else 1

    @property
    def singular(self) -> bool:
        return self.a < 0

    def __call__(self, r):
        return sinh_cosh_values(((self.a, self.b),), r)[0]

    def d1(self, r):
        return sinh_cosh_values(((self.a, self.b),), r, 1)[0]

    def d2(self, r):
        return sinh_cosh_values(((self.a, self.b),), r, 2)[0]

    def series(self, order: int) -> LaurentSeries:
        if order < 2:
            raise ValueError("need order >= 2")
        return sinh_cosh_series(self.a, self.b, order)


RADIAL_FUNCTIONS: dict[str, RadialFunction] = {
    fn.name: fn for fn in (
        RadialFunction("sh", 1, 0),
        RadialFunction("ch", 0, 1),
        RadialFunction("th", 1, -1),
        RadialFunction("inv_th", -1, 1),
        RadialFunction("inv_sh", -1, 0),
        RadialFunction("inv_sh_sq", -2, 0),
        RadialFunction("inv_ch", 0, -1),
        RadialFunction("inv_ch_sq", 0, -2),
        RadialFunction("sh_th_inv", -2, 1),
    )
}


def radial_series(name: str, order: int) -> LaurentSeries:
    """First `order` Laurent coefficients of the named radial function."""
    if name not in RADIAL_FUNCTIONS:
        raise KeyError(f"unknown radial function {name!r}")
    return RADIAL_FUNCTIONS[name].series(order)


# ---------------------------------------------------------------------------
# radial profiles

# derivatives carried by the closed-form constructors
_DEPTH = 8


def _zero_fn(r):
    return np.zeros_like(np.asarray(r, dtype=complex))


class RadialProfile:
    """Complex radial function carrying its derivatives down to a fixed depth.

    A leaf holds one closure per level. A node holds node(r, m, memo), its
    jet of levels 0..m computed from its operands' jets: sums, negations,
    scalar multiples, Leibniz products and derivatives (the shifted jet).
    Calling a profile, `d1` and `d2` each read one level through a fresh
    memo.
    """

    __slots__ = ("_leaf", "_node", "depth", "is_zero", "_grid")

    def __init__(self, *fns, is_zero: bool = False, node: Optional[Callable] = None,
                 depth: int = 0):
        if not fns and node is None:
            raise ValueError("need at least the value closure")
        self._leaf, self._node, self.is_zero = fns, node, is_zero
        self.depth = len(fns) - 1 if fns else depth
        self._grid = None

    @property
    def fns(self) -> tuple:
        return self._leaf or tuple(lambda r, k=k: self.jet(r, k, {})[k]
                                   for k in range(self.depth + 1))

    def __call__(self, r):
        return self.jet(np.asarray(r, dtype=float), 0, {})[0]

    def d1(self, r):
        return self.jet(np.asarray(r, dtype=float), 1, {})[1]

    def d2(self, r):
        return self.jet(np.asarray(r, dtype=float), 2, {})[2]

    def jet(self, r, m: int, memo: dict) -> np.ndarray:
        """Levels 0..m <= depth at the radii, shape (m+1,) + r.shape, kept in `memo`."""
        have = memo.get(id(self), ())
        if len(have) <= m:
            if m > self.depth:
                raise ValueError(f"jet level {m} is past the profile's depth {self.depth}")
            if self._node is not None:
                have = self._node(r, m, memo)
            else:  # a leaf computes only the levels not yet in the memo
                new = [f(r) for f in self._leaf[len(have):m + 1]]
                have = np.array([*have, *new], dtype=np.result_type(complex, *new))
            memo[id(self)] = have
        return have[:m + 1]

    def derivative(self) -> "RadialProfile":
        if self.is_zero:
            return self
        if self.depth == 0:
            raise ValueError("derivative chain exhausted")
        if self._leaf and all(f is _zero_fn for f in self._leaf[1:]):  # a constant
            return RadialProfile.zero(self.depth - 1)
        return RadialProfile(node=lambda r, m, memo: self.jet(r, m + 1, memo)[1:],
                             depth=self.depth - 1)

    def __neg__(self):
        if self.is_zero:
            return self
        return RadialProfile(node=lambda r, m, memo: -self.jet(r, m, memo),
                             depth=self.depth)

    def __add__(self, other):
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return RadialProfile(node=lambda r, m, memo: (self.jet(r, m, memo)
                                                      + other.jet(r, m, memo)),
                             depth=min(self.depth, other.depth))

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, c: complex):
        if self.is_zero or c == 0:
            return RadialProfile.zero(self.depth)
        if c == 1:
            return self
        return RadialProfile(node=lambda r, m, memo: c * self.jet(r, m, memo),
                             depth=self.depth)

    def __mul__(self, other):
        if not isinstance(other, RadialProfile):
            return self.__rmul__(other)
        if self.is_zero or other.is_zero:
            return RadialProfile.zero(min(self.depth, other.depth))

        return RadialProfile(node=lambda r, m, memo: leibniz(self.jet(r, m, memo),
                                                             other.jet(r, m, memo)),
                             depth=min(self.depth, other.depth))

    @classmethod
    def zero(cls, depth: int = _DEPTH) -> "RadialProfile":
        return _zero_profile(depth)

    @classmethod
    def constant(cls, c: complex, depth: int = _DEPTH) -> "RadialProfile":
        if c == 0:
            return cls.zero(depth)
        return cls(lambda r, c=c: np.full_like(np.asarray(r, dtype=complex), c),
                   *([_zero_fn] * depth))

    @classmethod
    def monomial(cls, k: float, c=1.0) -> "RadialProfile":
        """c r^k; level j is c k (k-1) ... (k-j+1) r^(k-j)."""
        def level(j):
            coef = c
            for i in range(j):
                coef = coef * (k - i)
            if j and coef == 0:
                return _zero_fn
            return lambda r: coef * r ** (k - j)

        return cls(*[level(j) for j in range(_DEPTH + 1)])

    @classmethod
    def from_expr(cls, expr) -> "RadialProfile":
        """Profile of a radial expression, levels from `expr(r, derivative=k)`."""
        return cls(*[partial(expr, derivative=k) for k in range(_DEPTH + 1)])

    @classmethod
    def from_sympy(cls, expr_text: str) -> "RadialProfile":
        """Profile of a sympy expression in r, levels 0-2 by symbolic
        differentiation.  sympy is not a runtime dependency: this needs the
        `test` extra.  Nothing in the package calls it; it stays as the tests'
        symbolic reference for profiles, and bench/spans.py times it by name."""
        import sympy as sp

        r = sp.symbols("r", positive=True)
        e = sp.sympify(expr_text, locals={"r": r, "I": sp.I})
        fns = [sp.lambdify(r, sp.diff(e, r, k), modules="numpy") for k in range(3)]

        def wrap(fn):
            def call(x):
                x = np.asarray(x, dtype=float)
                out = np.asarray(fn(x), dtype=complex)
                return np.broadcast_to(out, x.shape).copy() if out.shape != x.shape else out
            return call

        return cls(*[wrap(f) for f in fns])

    @classmethod
    def from_grid(cls, r_grid, values, d1=None) -> "RadialProfile":
        """Cubic Hermite interpolant of samples on an increasing grid, with
        two derivatives.  It reproduces the given d1 array at the nodes;
        without one, d1 is the second-order difference of the values."""
        r_grid = np.asarray(r_grid, dtype=float)
        values = np.asarray(values, dtype=complex)
        d1 = np.gradient(values, r_grid) if d1 is None else np.asarray(d1, dtype=complex)
        prof = cls(*[cubic_hermite(r_grid, values, d1, derivative=k) for k in range(3)])
        prof._grid = (r_grid, values, d1)
        return prof

    def consistency_residual(self) -> float:
        """Max relative mismatch between the derivative array and a central
        difference of the value array on the stored grid (grid profiles only)."""
        if self._grid is None:
            raise ValueError("consistency check applies to grid-sampled profiles")
        r, v, d1 = self._grid
        if len(r) < 3:
            return 0.0
        fd = (v[2:] - v[:-2]) / (r[2:] - r[:-2])
        scale = np.max(np.abs(d1)) or 1.0
        return float(np.max(np.abs(fd - d1[1:-1])) / scale)


def leibniz(a, b) -> np.ndarray:
    """Jet of a product from its factors' jets (level axis first, the rest
    broadcast): level k is sum_j C(k, j) a_j b_(k-j), summed over j = 0..k in
    order, which fixes the rounding."""
    return np.array([sum(math.comb(k, j) * a[j] * b[k - j] for j in range(k + 1))
                     for k in range(min(len(a), len(b)))])


def jet_reciprocal(f) -> np.ndarray:
    """Jet of 1 / f from the jet of f (level axis first), level by level:
    q_k = -q_0 sum_{j>=1} C(k, j) f_j q_(k-j), summed over j in order."""
    q = [1 / f[0]]
    for k in range(1, len(f)):
        q.append(-q[0] * sum(math.comb(k, j) * f[j] * q[k - j] for j in range(1, k + 1)))
    return np.array(q)


@lru_cache(maxsize=None)
def _zero_profile(depth: int) -> RadialProfile:
    return RadialProfile(*([_zero_fn] * (depth + 1)), is_zero=True)


def cubic_hermite(r_grid, values, slopes, derivative: int = 0) -> Callable:
    """The piecewise cubic through (r_grid, values) with the given slopes at
    the increasing nodes, or its first or second derivative, as a vectorized
    callable.  A point on an interior node takes the piece to its right, and
    outside the grid the end pieces extend.  The piece coefficients are set
    up on the first evaluation, so an interpolant never read costs nothing."""
    x = np.asarray(r_grid, dtype=float)
    setup = lru_cache(1)(partial(_hermite_coefficients, x, values, slopes, derivative))

    def call(r):
        coef = setup()
        r = np.asarray(r, dtype=float)
        i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, x.size - 2)
        u = r - x[i]
        acc = coef[-1][i]
        for cj in coef[-2::-1]:
            acc = acc * u + cj[i]
        return acc

    return call


def _hermite_coefficients(x, values, slopes, derivative: int) -> list:
    """Ascending power coefficients in u = r - x[i] on each piece i."""
    y, m = np.asarray(values, dtype=complex), np.asarray(slopes, dtype=complex)
    dx = np.diff(x)
    secant = np.diff(y) / dx
    bend = (m[:-1] + m[1:] - 2.0 * secant) / dx
    coef = [y[:-1], m[:-1], (secant - m[:-1]) / dx - bend, bend / dx]
    for _ in range(derivative):
        coef = [j * cj for j, cj in enumerate(coef[1:], 1)]
    return coef


# ---------------------------------------------------------------------------
# cone model


@dataclass(frozen=True)
class CrossSection:
    """Spectral source for the cross-section.

    kind "circle" (n = 3, closed geodesic of the given length) produces the
    full mode spectrum; kind "explicit" defers to a user-supplied mode list.
    """

    kind: str
    length: float | None = None

    def __post_init__(self):
        if self.kind not in ("circle", "explicit"):
            raise ValueError(f"unknown cross-section kind {self.kind!r}")
        if self.kind == "circle":
            if self.length is None or not (math.isfinite(self.length)
                                           and self.length > 0):
                raise ValueError("circle cross-section needs a finite positive length")

    def to_dict(self) -> dict:
        if self.kind == "circle":
            return {"kind": "circle", "length": self.length}
        return {"kind": "explicit"}

    @classmethod
    def from_dict(cls, d: dict) -> "CrossSection":
        return cls(kind=d["kind"], length=d.get("length"))


@dataclass(frozen=True)
class ConeModel:
    """Cone-manifold tube data: dimension, cone angle, tube radius, cross-section."""

    n: int
    alpha: float
    tube_radius: float
    cross_section: CrossSection = field(
        default_factory=lambda: CrossSection("explicit"))

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ValueError("dimension n must be an integer >= 3")
        object.__setattr__(self, "n", int(self.n))
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("cone angle must be finite and positive")
        if not (math.isfinite(self.tube_radius) and self.tube_radius > 0):
            raise ValueError("tube radius must be finite and positive")
        if self.cross_section.kind == "circle" and self.n != 3:
            raise ValueError("circle cross-section only makes sense for n = 3")

    @property
    def gamma(self) -> float:
        return 2.0 * math.pi / self.alpha

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "alpha": self.alpha,
                "tube_radius": self.tube_radius,
                "cross_section": self.cross_section.to_dict(),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ConeModel":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, d) -> "ConeModel":
        """Model from its JSON object.  The cone angle is read from "alpha"
        (as written by `to_json`) or "angle"; a missing cross-section means
        an explicit one.  Malformed input raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError("model JSON must be an object")
        if "alpha" in d and "angle" in d and d["alpha"] != d["angle"]:
            raise ValueError("model JSON gives two different cone angles")
        try:
            cs = d.get("cross_section")
            return cls(
                n=d["n"],
                alpha=float(d["alpha"] if "alpha" in d else d["angle"]),
                tube_radius=float(d["tube_radius"]),
                cross_section=(CrossSection.from_dict(cs) if cs
                               else CrossSection("explicit")),
            )
        except KeyError as exc:
            raise ValueError(f"model JSON missing field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"malformed model JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# quadrature


@lru_cache(maxsize=None)
def gauss_legendre(num: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per size."""
    x, w = leggauss(num)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w
