"""Tube geometry of a hyperbolic cone manifold.

The tube around the singular locus carries the metric

    dr^2 + sinh(r)^2 dtheta^2 + cosh(r)^2 g_S

with theta periodic of period alpha (the cone angle) and g_S the metric of
the (n-2)-dimensional cross-section.  Everything downstream (mode reduction,
indicial systems, series solvers) consumes two things from this module: exact
Laurent expansions of the radial coefficient functions at r = 0, and the
connection coefficients of the orthonormal tube frame.

Radial coefficient functions are registered by name; each carries a float
evaluator with two derivatives, a definite parity, and an exact Laurent
series over `fractions.Fraction` generated from the sinh/cosh Maclaurin
coefficients (never typed in by hand).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "DomainError",
    "LaurentSeries",
    "RadialFunction",
    "RADIAL_FUNCTIONS",
    "radial_series",
    "CrossSection",
    "ConeModel",
    "FrameConnection",
    "frame_connection_table",
    "gauss_legendre",
    "SIGMA_TOKEN",
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

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        lead = min(self.leading, other.leading)
        # both series are truncations; the sum is only valid to the shorter reach
        reach = min(self.leading + len(self.coeffs), other.leading + len(other.coeffs))
        out = [Fraction(0)] * (reach - lead)
        for src in (self, other):
            for k, c in enumerate(src.coeffs):
                pos = src.leading + k - lead
                if pos < len(out):
                    out[pos] = out[pos] + c
        return LaurentSeries(lead, tuple(out))

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            lead = self.leading + other.leading
            reach = min(
                self.leading + len(self.coeffs) + other.leading,
                other.leading + len(other.coeffs) + self.leading,
            )
            out = [Fraction(0)] * (reach - lead)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    if i + j < len(out):
                        out[i + j] = out[i + j] + a * b
            return LaurentSeries(lead, tuple(out))
        return LaurentSeries(self.leading, tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

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


def _sh_series(n: int) -> LaurentSeries:
    coeffs = [Fraction(0)] * n
    for k in range(0, n, 2):
        coeffs[k] = Fraction(1, math.factorial(k + 1))
    return LaurentSeries(1, tuple(coeffs))


def _ch_series(n: int) -> LaurentSeries:
    coeffs = [Fraction(0)] * n
    for k in range(0, n, 2):
        coeffs[k] = Fraction(1, math.factorial(k))
    return LaurentSeries(0, tuple(coeffs))


# ---------------------------------------------------------------------------
# named radial coefficient functions

_sh = np.sinh
_ch = np.cosh
_th = np.tanh


def _require_positive(r):
    r = np.asarray(r, dtype=float)
    if np.count_nonzero(r <= 0.0):
        raise DomainError("radial coordinate must satisfy r > 0")
    return r


@dataclass(frozen=True)
class RadialFunction:
    """Named radial coefficient with evaluator, two derivatives and exact series."""

    name: str
    leading: int
    parity: int  # +1 even, -1 odd
    singular: bool
    _val: Callable
    _d1: Callable
    _d2: Callable
    _series: Callable

    def __call__(self, r):
        r = _require_positive(r) if self.singular else np.asarray(r, dtype=float)
        return self._val(r)

    def d1(self, r):
        r = _require_positive(r) if self.singular else np.asarray(r, dtype=float)
        return self._d1(r)

    def d2(self, r):
        r = _require_positive(r) if self.singular else np.asarray(r, dtype=float)
        return self._d2(r)

    def series(self, order: int) -> LaurentSeries:
        if order < 2:
            raise ValueError("need order >= 2")
        return self._series(order)


def _series_factory(builder: Callable[[int], LaurentSeries]):
    @lru_cache(maxsize=None)
    def cached(order: int) -> LaurentSeries:
        # build with slack so reciprocals and products keep full reach
        work = order + 6
        s = builder(work)
        s = s.trimmed()
        return LaurentSeries(s.leading, s.coeffs[:order])

    return cached


RADIAL_FUNCTIONS: dict[str, RadialFunction] = {}


def _register(name, leading, parity, singular, val, d1, d2, builder):
    fn = RadialFunction(name, leading, parity, singular, val, d1, d2,
                        _series_factory(builder))
    RADIAL_FUNCTIONS[name] = fn
    return fn


_register(
    "sh", 1, -1, False,
    _sh, _ch, _sh,
    lambda n: _sh_series(n + 1),
)
_register(
    "ch", 0, 1, False,
    _ch, _sh, _ch,
    lambda n: _ch_series(n),
)
_register(
    "th", 1, -1, False,
    _th,
    lambda r: 1.0 / _ch(r) ** 2,
    lambda r: -2.0 * _th(r) / _ch(r) ** 2,
    lambda n: _sh_series(n + 2) * _ch_series(n + 2).reciprocal(),
)
_register(
    "inv_th", -1, -1, True,
    lambda r: _ch(r) / _sh(r),
    lambda r: -1.0 / _sh(r) ** 2,
    lambda r: 2.0 * _ch(r) / _sh(r) ** 3,
    lambda n: _ch_series(n + 2) * _sh_series(n + 2).reciprocal(),
)
_register(
    "inv_sh", -1, -1, True,
    lambda r: 1.0 / _sh(r),
    lambda r: -_ch(r) / _sh(r) ** 2,
    lambda r: (_ch(r) ** 2 + 1.0) / _sh(r) ** 3,
    lambda n: _sh_series(n + 2).reciprocal(),
)
_register(
    "inv_sh_sq", -2, 1, True,
    lambda r: 1.0 / _sh(r) ** 2,
    lambda r: -2.0 * _ch(r) / _sh(r) ** 3,
    lambda r: (4.0 * _ch(r) ** 2 + 2.0) / _sh(r) ** 4,
    lambda n: (_sh_series(n + 3) * _sh_series(n + 3)).reciprocal(),
)
_register(
    "inv_ch", 0, 1, False,
    lambda r: 1.0 / _ch(r),
    lambda r: -_sh(r) / _ch(r) ** 2,
    lambda r: (2.0 * _sh(r) ** 2 - _ch(r) ** 2) / _ch(r) ** 3,
    lambda n: _ch_series(n + 2).reciprocal(),
)
_register(
    "inv_ch_sq", 0, 1, False,
    lambda r: 1.0 / _ch(r) ** 2,
    lambda r: -2.0 * _sh(r) / _ch(r) ** 3,
    lambda r: (6.0 * _sh(r) ** 2 - 2.0 * _ch(r) ** 2) / _ch(r) ** 4,
    lambda n: (_ch_series(n + 2) * _ch_series(n + 2)).reciprocal(),
)
_register(
    "sh_th_inv", -2, 1, True,
    lambda r: _ch(r) / _sh(r) ** 2,
    lambda r: (_sh(r) ** 2 - 2.0 * _ch(r) ** 2) / _sh(r) ** 3,
    lambda r: _ch(r) * (6.0 * _ch(r) ** 2 - 5.0 * _sh(r) ** 2) / _sh(r) ** 4,
    lambda n: _ch_series(n + 3) * (_sh_series(n + 3) * _sh_series(n + 3)).reciprocal(),
)


def radial_series(name: str, order: int) -> LaurentSeries:
    """First `order` Laurent coefficients of the named radial function."""
    if name not in RADIAL_FUNCTIONS:
        raise KeyError(f"unknown radial function {name!r}")
    return RADIAL_FUNCTIONS[name].series(order)


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
# frame connection

SIGMA_TOKEN = "nabla_S"  # opaque stand-in for the intrinsic cross-section part


@dataclass(frozen=True)
class FrameConnection:
    """Covariant derivatives of the coframe (e^r, e^th, e^j) along the frame.

    entries[(x, y)] is the list of terms of the derivative of covector y in
    the direction of frame vector x; a term is ("e^r"|"e^th"|"e^j", value) or
    (SIGMA_TOKEN, None) for the intrinsic cross-section contribution.  Pairs
    with no entry are zero.
    """

    r: float
    entries: dict

    def coefficient(self, x: str, y: str, z: str) -> float:
        for name, value in self.entries.get((x, y), ()):
            if name == z:
                return value
        return 0.0

    def has_sigma_part(self, x: str, y: str) -> bool:
        return any(name == SIGMA_TOKEN for name, _ in self.entries.get((x, y), ()))


def frame_connection_table(model: ConeModel, r: float) -> FrameConnection:
    """All nonzero frame connection coefficients of the tube metric at radius r."""
    rr = float(r)
    if rr <= 0.0:
        raise DomainError("frame connection needs r > 0")
    if rr > model.tube_radius:
        raise DomainError("radius outside the tube")
    cth = 1.0 / math.tanh(rr)
    th = math.tanh(rr)
    entries = {
        ("e_th", "e^r"): (("e^th", cth),),
        ("e_th", "e^th"): (("e^r", -cth),),
        ("e_j", "e^r"): (("e^j", th),),
        ("e_j", "e^j"): (("e^r", -th), (SIGMA_TOKEN, None)),
    }
    return FrameConnection(rr, entries)


@lru_cache(maxsize=None)
def gauss_legendre(num: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per size."""
    x, w = leggauss(num)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w
