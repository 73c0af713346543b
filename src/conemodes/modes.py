"""Cross-section mode data.

Fourier analysis on the tube splits every field into modes indexed by a
theta-frequency p (integer; the physical frequency is p * gamma) and a
cross-section eigenvalue: scalar eigenfunctions (eigenvalue lambda >= 0,
gradient one-form present when lambda > 0), co-closed eigen one-forms
(eigenvalue mu), and trace-free transverse eigen 2-tensors (eigenvalue nu).

For n = 3 the cross-section is a circle and the spectrum is explicit; for
higher dimensions mode data is synthetic user input.  The first-order
calculus of the lifted basis fields (gradients, divergences, symmetrized
gradients, traces) closes over a finite relation table whose coefficients
are all of the form constant * cosh(r)**k; that table is what the mode
reduction of the operators consumes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "UnsupportedCrossSectionError",
    "ScalarMode",
    "CoclosedMode",
    "TTMode",
    "Mode",
    "mode_to_dict",
    "mode_from_dict",
    "ModeList",
    "circle_spectrum",
    "active_tensor_families",
    "BasisRelation",
    "basis_relation_table",
]


class UnsupportedCrossSectionError(ValueError):
    """The requested spectrum needs a cross-section this model does not have."""


@dataclass(frozen=True)
class ScalarMode:
    """Scalar cross-section eigenvalue lambda with theta-frequency p."""

    lam: float
    p: int

    def __post_init__(self):
        if not self.lam >= 0:  # NaN too, which fits no block kind
            raise ValueError("scalar eigenvalue must be nonnegative")
        if int(self.p) != self.p:
            raise ValueError("theta-frequency must be an integer")

    def conjugate(self) -> "ScalarMode":
        return ScalarMode(self.lam, -self.p)


@dataclass(frozen=True)
class CoclosedMode:
    """Co-closed eigen one-form on the cross-section."""

    mu: float
    p: int

    def __post_init__(self):
        if int(self.p) != self.p:
            raise ValueError("theta-frequency must be an integer")

    def conjugate(self) -> "CoclosedMode":
        return CoclosedMode(self.mu, -self.p)


@dataclass(frozen=True)
class TTMode:
    """Trace-free divergence-free eigen 2-tensor on the cross-section."""

    nu: float
    p: int

    def __post_init__(self):
        if int(self.p) != self.p:
            raise ValueError("theta-frequency must be an integer")

    def conjugate(self) -> "TTMode":
        return TTMode(self.nu, -self.p)


Mode = Union[ScalarMode, CoclosedMode, TTMode]


def mode_to_dict(mode: Mode) -> dict:
    """Typed JSON form of a mode; `mode_from_dict` reads it back."""
    if isinstance(mode, ScalarMode):
        return {"type": "scalar", "lambda": mode.lam, "p": mode.p}
    if isinstance(mode, CoclosedMode):
        return {"type": "coclosed", "mu": mode.mu, "p": mode.p}
    if isinstance(mode, TTMode):
        return {"type": "tt", "nu": mode.nu, "p": mode.p}
    raise TypeError(f"not a mode: {mode!r}")


def mode_from_dict(d) -> Mode:
    """Mode from its typed JSON form; a malformed entry raises ValueError."""
    try:
        kind, p = d["type"], d["p"]
        types = {"scalar": ("lambda", ScalarMode), "coclosed": ("mu", CoclosedMode),
                 "tt": ("nu", TTMode)}
        if kind not in types:
            raise ValueError(f"unknown mode type {kind!r}")
        key, cls = types[kind]
        eig = d[key]
        if isinstance(p, bool) or int(p) != p:
            raise ValueError(f"theta-frequency must be an integer, got {p!r}")
        if isinstance(eig, bool) or not math.isfinite(eig):
            raise ValueError(f"{key} must be a finite number, got {eig!r}")
        return cls(float(eig), int(p))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad mode entry {d!r}: {exc!r}") from exc


@dataclass(frozen=True)
class ModeList:
    scalar: tuple = ()
    coclosed: tuple = ()
    tt: tuple = ()

    def __iter__(self):
        yield from self.scalar
        yield from self.coclosed
        yield from self.tt

    def to_json(self) -> str:
        """One list per mode group, its entries the typed form less "type"."""
        return json.dumps({group: [{k: v for k, v in mode_to_dict(m).items() if k != "type"}
                                   for m in getattr(self, group)]
                           for group in ("scalar", "coclosed", "tt")}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ModeList":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("mode JSON must be an object")
        return cls(**{group: tuple(mode_from_dict(dict(m, type=group) if isinstance(m, dict) else m)
                                   for m in d.get(group, ()))
                      for group in ("scalar", "coclosed", "tt")})


def circle_spectrum(model, m_max: int, p_max: int) -> ModeList:
    """Full mode list of a circle cross-section of the model, n = 3 only.

    Scalar eigenfunctions exp(2*pi*i*m*s/l) give lambda = (2*pi*m/l)^2; the
    only co-closed one-forms on a circle are the parallel ones (mu = 0);
    there are no trace-free transverse 2-tensors in one cross-section
    dimension.
    """
    if model.n != 3 or model.cross_section.kind != "circle":
        raise UnsupportedCrossSectionError(
            "explicit spectrum only available for the n = 3 circle cross-section")
    if m_max < 0 or p_max < 0:
        raise ValueError("mode bounds must be nonnegative")
    length = model.cross_section.length
    scalar = tuple(
        ScalarMode((2.0 * math.pi * m / length) ** 2, p)
        for m in range(-m_max, m_max + 1)
        for p in range(-p_max, p_max + 1)
    )
    coclosed = tuple(CoclosedMode(0.0, p) for p in range(-p_max, p_max + 1))
    return ModeList(scalar=scalar, coclosed=coclosed, tt=())


def active_tensor_families(n: int, mode: Mode) -> frozenset:
    """Cross-section tensor families a normalized block can carry.

    Families with vanishing normalizers are removed outright: b needs
    n > 3, c needs mu + n - 3 > 0, d needs a genuine trace-free subbundle
    (n > 3).
    """
    if isinstance(mode, ScalarMode):
        fams = {"a"}
        if n > 3:
            fams.add("b")
        return frozenset(fams)
    if isinstance(mode, CoclosedMode):
        return frozenset({"c"}) if mode.mu + n - 3 > 0 else frozenset()
    if isinstance(mode, TTMode):
        return frozenset({"d"}) if n > 3 else frozenset()
    raise TypeError(f"not a mode: {mode!r}")


@dataclass(frozen=True)
class BasisRelation:
    """One first-order relation between lifted basis fields.

    The coefficient is constant * cosh(r)**ch_power; every relation in the
    closed calculus of the lifted basis has this shape.
    """

    source: str
    op: str
    target: str
    constant: complex
    ch_power: int = 0

    def coefficient(self, r):
        return self.constant * np.cosh(r) ** self.ch_power


def _sqrt(x: float) -> float:
    if x < 0:
        raise ValueError("negative normalizer")
    return math.sqrt(x)


def basis_relation_table(model, mode: Mode) -> tuple:
    """Complete relation table for the basis fields lifted from this mode.

    Operations: theta_derivative, radial_derivative, laplace_cross (scalar
    Laplacian), rough_cross (connection Laplacian), grad_cross, div_cross,
    sym_grad_cross, trace_cross, times_metric.  Targets name basis fields or
    "zero".
    """
    n = model.n
    ipg = 1j * mode.p * model.gamma
    rows: list[BasisRelation] = []
    fams = active_tensor_families(n, mode)

    if isinstance(mode, ScalarMode):
        lam = mode.lam
        rows += [
            BasisRelation("psi", "radial_derivative", "zero", 0.0),
            BasisRelation("psi", "theta_derivative", "psi", ipg),
            BasisRelation("psi", "laplace_cross", "psi", lam),
            BasisRelation("psi", "times_metric", "a", _sqrt(n - 2), -2),
        ]
        if lam > 0:
            rows += [
                BasisRelation("psi", "grad_cross", "phi", _sqrt(lam), -1),
                BasisRelation("phi", "theta_derivative", "phi", ipg),
                BasisRelation("phi", "rough_cross", "phi", lam + n - 3),
                BasisRelation("phi", "div_cross", "psi", _sqrt(lam), 1),
                BasisRelation("phi", "sym_grad_cross", "a",
                              -_sqrt(lam / (n - 2)), -1),
            ]
            if "b" in fams:
                rows.append(BasisRelation(
                    "phi", "sym_grad_cross", "b",
                    _sqrt(n - 3) * _sqrt(lam / (n - 2) + 1), -1))
        else:
            rows.append(BasisRelation("psi", "grad_cross", "zero", 0.0))
        rows += [
            BasisRelation("a", "theta_derivative", "a", ipg),
            BasisRelation("a", "rough_cross", "a", lam),
            BasisRelation("a", "trace_cross", "psi", _sqrt(n - 2), 2),
            BasisRelation("a", "div_cross", "phi" if lam > 0 else "zero",
                          -_sqrt(lam / (n - 2)), 1),
        ]
        if "b" in fams:
            rows += [
                BasisRelation("b", "theta_derivative", "b", ipg),
                BasisRelation("b", "rough_cross", "b", lam + 2 * (n - 2)),
                BasisRelation("b", "div_cross", "phi" if lam > 0 else "zero",
                              _sqrt(n - 3) * _sqrt(lam / (n - 2) + 1), 1),
                BasisRelation("b", "trace_cross", "zero", 0.0),
            ]
        return tuple(rows)

    if isinstance(mode, CoclosedMode):
        mu = mode.mu
        rows += [
            BasisRelation("varphi", "theta_derivative", "varphi", ipg),
            BasisRelation("varphi", "rough_cross", "varphi", mu),
            BasisRelation("varphi", "div_cross", "zero", 0.0),
        ]
        if "c" in fams:
            rows += [
                BasisRelation("varphi", "sym_grad_cross", "c",
                              _sqrt((mu + n - 3) / 2), -1),
                BasisRelation("c", "theta_derivative", "c", ipg),
                BasisRelation("c", "rough_cross", "c", mu + n - 1),
                BasisRelation("c", "div_cross", "varphi",
                              _sqrt((mu + n - 3) / 2), 1),
                BasisRelation("c", "trace_cross", "zero", 0.0),
            ]
        else:
            rows.append(BasisRelation("varphi", "sym_grad_cross", "zero", 0.0))
        return tuple(rows)

    if isinstance(mode, TTMode):
        rows += [
            BasisRelation("d", "theta_derivative", "d", ipg),
            BasisRelation("d", "rough_cross", "d", mode.nu),
            BasisRelation("d", "div_cross", "zero", 0.0),
            BasisRelation("d", "trace_cross", "zero", 0.0),
        ]
        return tuple(rows)

    raise TypeError(f"not a mode: {mode!r}")
