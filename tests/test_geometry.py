from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.special import roots_legendre
from hypothesis import strategies as st

from conemodes import geometry
from conemodes.geometry import (
    RADIAL_FUNCTIONS,
    ConeModel,
    CrossSection,
    DomainError,
    LaurentSeries,
    gauss_legendre,
    sinh_cosh_series,
    sinh_cosh_values,
)
from conemodes.reduction import _BASIS

FUNCTION_NAMES = sorted(RADIAL_FUNCTIONS)


def value(name, r, derivative=0):
    return sinh_cosh_values([RADIAL_FUNCTIONS[name]], r, derivative)[0]


def series(name, order):
    return sinh_cosh_series(*RADIAL_FUNCTIONS[name], order)


def test_registry_has_the_nine_names():
    assert FUNCTION_NAMES == sorted(
        ["sh", "ch", "th", "inv_th", "inv_sh", "inv_sh_sq",
         "inv_ch", "inv_ch_sq", "sh_th_inv"]
    )


def test_th_series_first_five_coefficients():
    s = series("th", 5)
    assert s.leading == 1
    assert s.coeffs == (Fraction(1), Fraction(0), Fraction(-1, 3),
                        Fraction(0), Fraction(2, 15))


def test_inv_th_leading_order():
    s = series("inv_th", 1 + 3)
    assert s.leading == -1
    assert s.coeffs[0] == 1


def test_inv_sh_sq_laurent_data():
    s = series("inv_sh_sq", 4)
    assert s.leading == -2
    assert s.coeffs == (Fraction(1), Fraction(0), Fraction(-1, 3), Fraction(0))


def test_leading_orders_in_allowed_window():
    for name, (a, _) in RADIAL_FUNCTIONS.items():
        assert a in (-2, -1, 0, 1)
        assert series(name, 6).leading == a


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_series_matches_evaluator_near_zero(name):
    r = 1e-3
    for order in (10, 12, 15):
        approx = complex(series(name, order)(r)).real
        exact = float(value(name, r))
        assert approx == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_series_has_definite_parity(name):
    a, _ = RADIAL_FUNCTIONS[name]
    assert series(name, 12).parity() == (-1) ** a


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_evaluator_derivatives_by_central_difference(name):
    r = np.array([0.3, 0.7, 1.1, 1.9])
    h = 1e-5
    d1_fd = (value(name, r + h) - value(name, r - h)) / (2 * h)
    d2_fd = (value(name, r + h) - 2 * value(name, r) + value(name, r - h)) / h**2
    np.testing.assert_allclose(value(name, r, 1), d1_fd, rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(value(name, r, 2), d2_fd, rtol=1e-4, atol=1e-4)


_MP_REFERENCE = {
    "sh": lambda r: mp.sinh(r),
    "ch": lambda r: mp.cosh(r),
    "th": lambda r: mp.tanh(r),
    "inv_th": lambda r: mp.coth(r),
    "inv_sh": lambda r: 1 / mp.sinh(r),
    "inv_sh_sq": lambda r: 1 / mp.sinh(r) ** 2,
    "inv_ch": lambda r: 1 / mp.cosh(r),
    "inv_ch_sq": lambda r: 1 / mp.cosh(r) ** 2,
    "sh_th_inv": lambda r: mp.cosh(r) / mp.sinh(r) ** 2,
}


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_truncation_error_slope(name):
    # M odd makes the first dropped slot parity-forbidden, so the remainder
    # scales like r**(leading + M + 1); measured in high precision because
    # the remainder sits far below float64 noise on this radius window
    M = 5
    s = series(name, M)
    mp.mp.dps = 50
    logs_r, logs_e = [], []
    for expo in (-4.0, -3.5, -3.0, -2.5, -2.0):
        r = mp.mpf(10) ** expo
        approx = mp.mpf(0)
        for k, c in enumerate(s.coeffs):
            approx += mp.mpf(c.numerator) / c.denominator * r ** (s.leading + k)
        err = abs(approx - _MP_REFERENCE[name](r))
        assert err > 0
        logs_r.append(float(mp.log(r)))
        logs_e.append(float(mp.log(err)))
    slope = np.polyfit(logs_r, logs_e, 1)[0]
    assert slope == pytest.approx(RADIAL_FUNCTIONS[name][0] + M + 1, abs=0.2)


def test_singular_functions_reject_nonpositive_radius():
    for name in ("inv_th", "inv_sh", "inv_sh_sq", "sh_th_inv"):
        with pytest.raises(DomainError):
            value(name, 0.0)
        with pytest.raises(DomainError):
            value(name, -1.0)


@given(st.integers(min_value=2, max_value=14))
@settings(max_examples=20, deadline=None)
def test_series_length_contract(order):
    for name in FUNCTION_NAMES:
        s = series(name, order)
        assert len(s.coeffs) == order


@given(
    st.floats(min_value=1e-4, max_value=1e-2),
    st.sampled_from(FUNCTION_NAMES),
)
@settings(max_examples=60, deadline=None)
def test_series_approximates_evaluator_property(r, name):
    got = complex(series(name, 12)(r)).real
    assert got == pytest.approx(float(value(name, r)), rel=1e-10)


def _truncated_power(unit, e, order):
    # e-th power of a series starting with 1 by repeated truncated products;
    # the reciprocal comes from long division
    base = unit
    if e < 0:
        inv = [Fraction(1)] + [Fraction(0)] * (order - 1)
        for k in range(1, order):
            inv[k] = -sum(unit.coeffs[j] * inv[k - j] for j in range(1, k + 1))
        base = LaurentSeries(0, tuple(inv))
    out = LaurentSeries(0, (Fraction(1),) + (Fraction(0),) * (order - 1))
    for _ in range(abs(e)):
        out = out * base
    return out


def test_series_tables_match_truncated_products(monkeypatch):
    # every exact table, grown by successive longer requests, equals
    # r^a (sh/r)^a ch^b multiplied out from the Maclaurin coefficients
    monkeypatch.setattr(geometry, "_SERIES_TABLES", {})
    monkeypatch.setattr(geometry, "_POWER_TABLES", {})
    order = 40
    sh_r = LaurentSeries(0, tuple(Fraction(1, math.factorial(k + 1)) if k % 2 == 0
                                  else Fraction(0) for k in range(order)))
    ch = LaurentSeries(0, tuple(Fraction(1, math.factorial(k)) if k % 2 == 0
                                else Fraction(0) for k in range(order)))
    for a, b in sorted(set(RADIAL_FUNCTIONS.values()) | set(_BASIS)):
        want = (_truncated_power(sh_r, a, order) * _truncated_power(ch, b, order)).coeffs
        for m in (1, 7, 16, order):
            got = sinh_cosh_series(a, b, m)
            assert got.leading == a and got.coeffs == want[:m], (a, b, m)
    for bad in (0, -1):  # a built table must not be sliced from the end
        with pytest.raises(ValueError):
            sinh_cosh_series(0, 1, bad)


# --- series arithmetic sanity ---------------------------------------------


def test_series_product_against_identity():
    sh = series("sh", 10)
    inv_sh = series("inv_sh", 10)
    prod = sh * inv_sh
    assert prod.leading == 0
    assert prod.coeffs[0] == 1
    assert all(c == 0 for c in prod.coeffs[1:8])


def test_series_derivative_matches_evaluator():
    th = series("th", 12)
    dth = th.derivative()
    r = 1e-3
    assert complex(dth(r)).real == pytest.approx(float(value("th", r, 1)), rel=1e-12)


# --- cone model -------------------------------------------------------------


def test_model_gamma_alpha_product():
    m = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0,
                  cross_section=CrossSection("circle", 2 * math.pi))
    assert m.gamma * m.alpha == pytest.approx(2 * math.pi, rel=1e-15)


def test_model_json_round_trip():
    m = ConeModel(n=3, alpha=1.25, tube_radius=0.8,
                  cross_section=CrossSection("circle", 3.5))
    m2 = ConeModel.from_json(m.to_json())
    assert m2 == m
    m = ConeModel(n=5, alpha=2.0, tube_radius=1.0,
                  cross_section=CrossSection("explicit"))
    assert ConeModel.from_json(m.to_json()) == m


def test_model_validation():
    with pytest.raises(ValueError):
        ConeModel(n=2, alpha=1.0, tube_radius=1.0)
    with pytest.raises(ValueError):
        ConeModel(n=3, alpha=-1.0, tube_radius=1.0)
    with pytest.raises(ValueError):
        ConeModel(n=3, alpha=1.0, tube_radius=0.0)
    with pytest.raises(ValueError):
        ConeModel(n=4, alpha=1.0, tube_radius=1.0,
                  cross_section=CrossSection("circle", 1.0))
    with pytest.raises(ValueError):
        CrossSection("circle")


def test_model_json_missing_field():
    with pytest.raises(ValueError):
        ConeModel.from_json('{"n": 3, "alpha": 1.0}')


def test_model_dict_reads_either_angle_key():
    m = ConeModel(n=3, alpha=1.25, tube_radius=0.8)
    assert ConeModel.from_dict({"n": 3, "angle": 1.25, "tube_radius": 0.8}) == m
    assert ConeModel.from_dict({"n": 3, "alpha": 1.25, "angle": 1.25,
                                "tube_radius": 0.8}) == m
    with pytest.raises(ValueError):
        ConeModel.from_dict({"n": 3, "alpha": 1.25, "angle": 1.0, "tube_radius": 0.8})
    with pytest.raises(ValueError):
        ConeModel.from_dict([3, 1.25, 0.8])


def test_gauss_legendre_nodes_are_cached_and_read_only():
    x, w = gauss_legendre(37)
    assert gauss_legendre(37)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0


@pytest.mark.parametrize("num", [4, 37])
def test_gauss_legendre_integrates_monomials_exactly(num):
    x, w = gauss_legendre(num)
    for p in range(2 * num):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        assert abs(np.sum(w * x ** p) - exact) <= 1e-14


@pytest.mark.parametrize("num", [4, 37, 160, 200])
def test_gauss_legendre_agrees_with_scipy(num):
    # 160 and 200 are the default sizes of the oracle and reduction quadratures
    x, w = gauss_legendre(num)
    want_x, want_w = roots_legendre(num)
    assert np.max(np.abs(x - want_x)) <= 4e-16
    assert np.max(np.abs(w - want_w)) <= 1e-12 * np.max(want_w)
