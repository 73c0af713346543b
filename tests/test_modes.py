from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemodes.geometry import ConeModel, CrossSection
from conemodes.modes import (
    BasisRelation,
    CoclosedMode,
    ModeList,
    ScalarMode,
    TTMode,
    UnsupportedCrossSectionError,
    active_tensor_families,
    basis_relation_table,
    circle_spectrum,
    mode_from_dict,
    mode_to_dict,
)


def circle_model(length=2 * math.pi, alpha=math.pi / 2):
    return ConeModel(n=3, alpha=alpha, tube_radius=1.0,
                     cross_section=CrossSection("circle", length))


def test_circle_spectrum_counts():
    ml = circle_spectrum(circle_model(), m_max=2, p_max=1)
    assert len(ml.scalar) == 15
    assert len(ml.coclosed) == 3
    assert ml.tt == ()


def test_circle_spectrum_eigenvalues():
    ml = circle_spectrum(circle_model(length=3.0), m_max=1, p_max=0)
    lams = sorted(m.lam for m in ml.scalar)
    w = (2 * math.pi / 3.0) ** 2
    assert lams == pytest.approx([0.0, w, w])
    assert all(m.mu == 0.0 for m in ml.coclosed)


def test_circle_spectrum_rejects_other_cross_sections():
    m = ConeModel(n=4, alpha=1.0, tube_radius=1.0,
                  cross_section=CrossSection("explicit"))
    with pytest.raises(UnsupportedCrossSectionError):
        circle_spectrum(m, 1, 1)
    m3 = ConeModel(n=3, alpha=1.0, tube_radius=1.0,
                   cross_section=CrossSection("explicit"))
    with pytest.raises(UnsupportedCrossSectionError):
        circle_spectrum(m3, 1, 1)


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
@settings(max_examples=25, deadline=None)
def test_circle_spectrum_conjugation_closed(m_max, p_max):
    ml = circle_spectrum(circle_model(), m_max=m_max, p_max=p_max)
    scalar = set(ml.scalar)
    assert {m.conjugate() for m in ml.scalar} == scalar
    assert {m.conjugate() for m in ml.coclosed} == set(ml.coclosed)


def test_mode_validation():
    with pytest.raises(ValueError):
        ScalarMode(-1.0, 0)
    with pytest.raises(ValueError):
        ScalarMode(1.0, 0.5)
    CoclosedMode(-2.0, 1)  # synthetic input allowed


def test_gradient_family_flag():
    assert ScalarMode(2.0, 1).has_gradient_oneform
    assert not ScalarMode(0.0, 1).has_gradient_oneform


def test_active_tensor_families():
    assert active_tensor_families(5, ScalarMode(2.0, 0)) == {"a", "b"}
    assert active_tensor_families(3, ScalarMode(2.0, 0)) == {"a"}
    assert active_tensor_families(3, CoclosedMode(0.0, 1)) == frozenset()
    assert active_tensor_families(4, CoclosedMode(0.0, 1)) == {"c"}
    assert active_tensor_families(4, CoclosedMode(-1.0, 1)) == frozenset()
    assert active_tensor_families(3, TTMode(1.0, 0)) == frozenset()
    assert active_tensor_families(6, TTMode(1.0, 0)) == {"d"}


def test_mode_list_json_round_trip():
    ml = ModeList(
        scalar=(ScalarMode(0.0, 0), ScalarMode(4.0, -2)),
        coclosed=(CoclosedMode(1.5, 1),),
        tt=(TTMode(3.0, 0),),
    )
    parsed = ModeList.from_json(ml.to_json())
    assert parsed == ml
    data = json.loads(ml.to_json())
    assert set(data) == {"scalar", "coclosed", "tt"}
    assert data["scalar"][1] == {"lambda": 4.0, "p": -2}


def test_mode_list_json_missing_field():
    # entries are read by mode_from_dict: a boolean frequency and a string
    # eigenvalue are malformed, not coerced
    for bad in ('{"scalar": [{"p": 0}]}', '{"scalar": [{"lambda": 1.0, "p": true}]}',
                '{"coclosed": [{"mu": "1.5", "p": 0}]}', '{"tt": [[3.0, 0]]}'):
        with pytest.raises(ValueError):
            ModeList.from_json(bad)


def test_mode_dict_round_trip_and_errors():
    for mode in (ScalarMode(4.0, -2), CoclosedMode(1.5, 1), TTMode(3.0, 0)):
        assert mode_from_dict(json.loads(json.dumps(mode_to_dict(mode)))) == mode
    assert mode_to_dict(ScalarMode(4.0, -2)) == {"type": "scalar", "lambda": 4.0, "p": -2}
    for bad in ({"type": "scalar", "p": 0}, {"type": "cone", "mu": 1.0, "p": 0},
                {"type": "tt", "nu": 1.0, "p": 0.5}, {"type": "scalar", "lambda": -1.0, "p": 0},
                {"type": "coclosed", "mu": float("inf"), "p": 0}, ["scalar", 0]):
        with pytest.raises(ValueError):
            mode_from_dict(bad)


# --- relation table ---------------------------------------------------------


def _find(rows, source, op, target=None):
    hits = [
        r for r in rows
        if r.source == source and r.op == op
        and (target is None or r.target == target)
    ]
    return hits


def model_n(n, alpha=math.pi / 2):
    cs = CrossSection("circle", 2 * math.pi) if n == 3 else CrossSection("explicit")
    return ConeModel(n=n, alpha=alpha, tube_radius=1.0, cross_section=cs)


def test_relation_table_scalar_coefficients():
    mode = ScalarMode(2.0, 1)
    rows = basis_relation_table(model_n(4), mode)
    (grad,) = _find(rows, "psi", "grad_cross")
    assert grad.target == "phi"
    assert grad.constant == pytest.approx(math.sqrt(2.0))
    assert grad.ch_power == -1
    (tr,) = _find(rows, "a", "trace_cross")
    assert tr.target == "psi"
    assert tr.constant == pytest.approx(math.sqrt(2.0))
    assert tr.ch_power == 2
    (to_b,) = _find(rows, "phi", "sym_grad_cross", "b")
    assert to_b.constant == pytest.approx(math.sqrt(1.0) * math.sqrt(2.0))
    (to_a,) = _find(rows, "phi", "sym_grad_cross", "a")
    assert to_a.constant == pytest.approx(-1.0)


def test_relation_table_drops_b_at_n3():
    rows = basis_relation_table(model_n(3), ScalarMode(2.0, 0))
    assert not _find(rows, "phi", "sym_grad_cross", "b")
    assert not any(r.source == "b" for r in rows)


def test_relation_table_zero_eigenvalue_drops_gradient():
    rows = basis_relation_table(model_n(3), ScalarMode(0.0, 2))
    (grad,) = _find(rows, "psi", "grad_cross")
    assert grad.target == "zero"
    assert not any(r.source == "phi" for r in rows)


def test_relation_table_coclosed_families():
    rows = basis_relation_table(model_n(4), CoclosedMode(1.0, 1))
    (sg,) = _find(rows, "varphi", "sym_grad_cross")
    assert sg.target == "c"
    assert sg.constant == pytest.approx(math.sqrt((1.0 + 1.0) / 2))
    rows0 = basis_relation_table(model_n(3), CoclosedMode(0.0, 1))
    (sg0,) = _find(rows0, "varphi", "sym_grad_cross")
    assert sg0.target == "zero"


def test_relation_table_theta_derivative_uses_gamma():
    m = model_n(3, alpha=math.pi / 2)  # gamma = 4
    rows = basis_relation_table(m, ScalarMode(1.0, 2))
    (dth,) = _find(rows, "psi", "theta_derivative")
    assert dth.constant == pytest.approx(8j)


@given(
    st.floats(min_value=0.1, max_value=9.0),
    st.integers(min_value=3, max_value=7),
)
@settings(max_examples=40, deadline=None)
def test_commutation_identity_on_table(lam, n):
    # the connection Laplacian eigenvalue of the gradient one-form must be
    # the scalar eigenvalue shifted by n - 3
    mode = ScalarMode(lam, 0)
    rows = basis_relation_table(model_n(n), mode)
    (eig,) = _find(rows, "phi", "rough_cross")
    assert eig.constant == pytest.approx(lam + (n - 3), rel=1e-12)


@given(st.floats(min_value=0.0, max_value=5.0), st.integers(min_value=4, max_value=6))
@settings(max_examples=30, deadline=None)
def test_divergence_pairing_symmetry(lam, n):
    # div is minus the adjoint of sym_grad on the cross-section: the product
    # of the two coefficients relating phi and a (resp. b) must be symmetric
    # up to the metric factors, which here reduces to equal magnitudes
    mode = ScalarMode(lam, 1)
    rows = basis_relation_table(model_n(n), mode)
    if lam > 0:
        (down,) = _find(rows, "phi", "sym_grad_cross", "a")
        (up,) = _find(rows, "a", "div_cross")
        assert abs(down.constant) == pytest.approx(abs(up.constant), rel=1e-12)
        (down_b,) = _find(rows, "phi", "sym_grad_cross", "b")
        (up_b,) = _find(rows, "b", "div_cross")
        assert abs(down_b.constant) == pytest.approx(abs(up_b.constant), rel=1e-12)


def test_relation_coefficient_evaluates_with_ch_power():
    rel = BasisRelation("psi", "grad_cross", "phi", 2.0, -1)
    assert rel.coefficient(0.0) == pytest.approx(2.0)
    assert rel.coefficient(1.0) == pytest.approx(2.0 / math.cosh(1.0))
