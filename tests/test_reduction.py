import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline

from conemodes.geometry import ConeModel, CrossSection, DomainError, cubic_hermite
from conemodes.modes import CoclosedMode, ScalarMode, TTMode
from conemodes.reduction import (
    ModeBlock,
    ModeSystem,
    QuadratureConvergenceError,
    RadialExpr,
    RadialProfile,
    _exponents,
    _snap,
    apply_L_oneform,
    apply_P_tensor,
    block_csv_rows,
    block_from_dict,
    block_to_dict,
    component_weights,
    ext_d_oneform,
    grad_oneform,
    l2_norm_tube,
    log_grid,
    mode_kind,
    oneform_system,
    scalar_mode_operator,
    standard_deformation_block,
    system_names,
    tensor_system,
    trace_tensor_mode,
)

MODEL3 = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0)
MODEL4 = ConeModel(n=4, alpha=math.pi / 2, tube_radius=1.0)

TANH1 = 0.7615941559557649
SINH1 = 1.1752011936438014
COTH1 = 1.3130352854993313


def spelled(*terms):
    # radial expression from (coefficient, names of the factors) terms
    return RadialExpr(tuple((c, _exponents(names)) for c, names in terms))


def expr_profile(*terms):
    return RadialProfile.from_expr(spelled(*terms))


# ---------------------------------------------------------------------------
# profiles


def test_profile_monomial_derivatives():
    p = RadialProfile.monomial(6, 2j)
    r = np.array([0.3, 0.9])
    assert np.allclose(p(r), 2j * r**6)
    assert np.allclose(p.d1(r), 12j * r**5)
    assert np.allclose(p.d2(r), 60j * r**4)


def test_profile_algebra():
    p = RadialProfile.monomial(2) + 3.0 * RadialProfile.constant(1.0)
    r = np.array([0.5, 1.0])
    assert np.allclose(p(r), r**2 + 3.0)
    assert np.allclose(p.d2(r), 2.0)
    q = p - RadialProfile.monomial(2)
    assert np.allclose(q(r), 3.0)


def test_from_expr_derivatives_match_fd():
    p = expr_profile((1.5, ("sh", "ch")), (2j, ("th", "th", "inv_ch")))
    r = np.linspace(0.2, 1.0, 7)
    h = 1e-5
    fd1 = (p(r + h) - p(r - h)) / (2 * h)
    fd2 = (p.d1(r + h) - p.d1(r - h)) / (2 * h)
    assert np.max(np.abs(p.d1(r) - fd1)) < 1e-8
    assert np.max(np.abs(p.d2(r) - fd2)) < 1e-8


def test_from_sympy_profile():
    p = RadialProfile.from_sympy("r**2/(sinh(r)*cosh(r))")
    assert p(1.0) == pytest.approx(1.0 / (SINH1 * math.cosh(1.0)), rel=1e-12)
    h = 1e-5
    fd = (p(1.0 + h) - p(1.0 - h)) / (2 * h)
    assert p.d1(1.0) == pytest.approx(complex(fd), rel=1e-8)


def test_grid_profile_consistency():
    r = np.linspace(0.1, 1.0, 400)
    vals = np.sinh(r) * np.exp(1j * r)
    d1 = np.cosh(r) * np.exp(1j * r) + 1j * vals
    p = RadialProfile.from_grid(r, vals, d1)
    assert p.consistency_residual() < 1e-4
    mid = 0.5 * (r[10] + r[11])
    assert abs(p(mid) - np.sinh(mid) * np.exp(1j * mid)) < 1e-9
    bad = RadialProfile.from_grid(r, vals, np.zeros_like(d1))
    assert bad.consistency_residual() > 0.1
    with pytest.raises(ValueError):
        RadialProfile.monomial(2).consistency_residual()


def test_cubic_hermite_matches_scipy():
    rng = np.random.default_rng(7)
    x = np.geomspace(0.1, 1.0, 23)
    y = rng.normal(size=x.size) + 1j * rng.normal(size=x.size)
    m = 3.0 * (rng.normal(size=x.size) + 1j * rng.normal(size=x.size))
    mids = 0.5 * (x[1:] + x[:-1])
    outside = np.array([0.01, 0.09, 1.0 + 1e-9, 1.2])
    r = np.concatenate([x, mids, x[:-1] + 0.1 * np.diff(x), outside])
    spline = CubicHermiteSpline(x, y, m)
    for d in range(3):
        want = spline.derivative(d)(r) if d else spline(r)
        got = cubic_hermite(x, y, m, derivative=d)(r)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # a profile from the grid reproduces the given node data
    prof = RadialProfile.from_grid(x, y, m)
    assert np.max(np.abs(prof(x) - y)) <= 1e-15 * np.max(np.abs(y))
    assert np.max(np.abs(prof.d1(x) - m)) <= 1e-13 * np.max(np.abs(m))


# ---------------------------------------------------------------------------
# block construction rules


def test_block_kind_validation():
    with pytest.raises(ValueError):
        ModeBlock("oneform", "A", ScalarMode(0.0, 0))
    with pytest.raises(ValueError):
        ModeBlock("oneform", "B", ScalarMode(2.0, 0))
    with pytest.raises(ValueError):
        ModeBlock("tensor", "C", ScalarMode(1.0, 0))
    with pytest.raises(ValueError):
        ModeBlock("tensor", "D", CoclosedMode(0.0, 0))
    with pytest.raises(ValueError):
        ModeBlock("oneform", "B", ScalarMode(0.0, 0),
                  {"omega": RadialProfile.constant(1.0)})
    with pytest.raises(ValueError, match="family"):
        ModeBlock("bogus", "B", ScalarMode(0.0, 0))
    # each operator takes only blocks of its own family
    tensor_b = ModeBlock("tensor", "B", ScalarMode(0.0, 0),
                         {"f": RadialProfile.constant(1.0)})
    oneform_b = ModeBlock("oneform", "B", ScalarMode(0.0, 0),
                          {"f": RadialProfile.constant(1.0)})
    with pytest.raises(ValueError, match="oneform block"):
        apply_L_oneform(MODEL3, tensor_b, 0.5)
    with pytest.raises(ValueError, match="tensor block"):
        apply_P_tensor(MODEL3, oneform_b, 0.5)
    # a component the n = 3 system lacks is rejected, not read as zero
    with pytest.raises(ValueError, match="k2"):
        apply_P_tensor(MODEL3, ModeBlock("tensor", "A", ScalarMode(1.0, 0),
                                         {"k2": RadialProfile.constant(1.0)}), 0.5)
    with pytest.raises(ValueError, match="k3"):
        apply_P_tensor(MODEL3, ModeBlock("tensor", "C", CoclosedMode(0.0, 0),
                                         {"k3": RadialProfile.constant(1.0)}), 0.5)


def test_missing_components_read_as_zero():
    b = ModeBlock("tensor", "B", ScalarMode(0.0, 0),
                  {"g": RadialProfile.constant(1.0)})
    assert np.allclose(b.component("f")(np.array([0.5])), 0.0)


# ---------------------------------------------------------------------------
# operator values, frozen


def test_oneform_coclosed_constant_value():
    # flat co-closed profile: potential th^2 + (n-1) at mu = 0, p = 0
    block = ModeBlock("oneform", "C", CoclosedMode(0.0, 0),
                      {"varpi": RadialProfile.constant(1.0)})
    out = apply_L_oneform(MODEL3, block, 1.0)
    assert out["varpi"] == pytest.approx(2.5800256583859739, abs=1e-12)


def test_tensor_tt_constant_value():
    block = ModeBlock("tensor", "D", TTMode(0.0, 0),
                      {"k4": RadialProfile.constant(1.0)})
    out = apply_P_tensor(MODEL3, block, 1.0)
    assert out["k4"] == pytest.approx(-0.8399486832280521, abs=1e-12)


def test_tensor_indicial_vector_cancellation():
    """Leading exponent pg + 2 with vector (-1, 1, 2i) kills the r^(kappa-2)
    term; the image decays two orders faster than a generic profile."""
    mode = ScalarMode(2.0, 1)
    kappa = MODEL3.gamma * mode.p + 2  # = 6
    block = ModeBlock("tensor", "A", mode, {
        "f": RadialProfile.monomial(kappa, -1.0),
        "g": RadialProfile.monomial(kappa, 1.0),
        "h": RadialProfile.monomial(kappa, 2j),
    })
    radii = np.array([1e-3, 3e-3, 1e-2])
    out = apply_P_tensor(MODEL3, block, radii)
    err = np.max(np.abs(np.stack(list(out.values()))), axis=0)
    slope = np.polyfit(np.log(radii), np.log(err), 1)[0]
    assert abs(slope - kappa) < 0.3
    generic_scale = radii ** (kappa - 2)
    assert np.all(err < 1e-2 * generic_scale)


def test_apply_domain_checks():
    block = ModeBlock("oneform", "C", CoclosedMode(0.0, 0),
                      {"varpi": RadialProfile.constant(1.0)})
    with pytest.raises(DomainError):
        apply_L_oneform(MODEL3, block, 0.0)
    with pytest.raises(DomainError):
        apply_L_oneform(MODEL3, block, 1.5)


def test_apply_linearity():
    mode = ScalarMode(2.0, 1)
    u = {"f": expr_profile((1.0, ("sh",))), "g": expr_profile((1j, ("sh", "sh")))}
    v = {"f": expr_profile((2.0, ("th",))), "omega": expr_profile((1.0, ("sh", "inv_ch")))}
    r = np.linspace(0.2, 1.0, 5)
    a, b = 2.0 - 1j, 0.5j
    combo = {k: a * u.get(k, RadialProfile.zero()) + b * v.get(k, RadialProfile.zero())
             for k in ("f", "g", "omega")}
    out_u = apply_L_oneform(MODEL3, ModeBlock("oneform", "A", mode, u), r)
    out_v = apply_L_oneform(MODEL3, ModeBlock("oneform", "A", mode, v), r)
    out_c = apply_L_oneform(MODEL3, ModeBlock("oneform", "A", mode, combo), r)
    for k in out_c:
        assert np.max(np.abs(out_c[k] - a * out_u[k] - b * out_v[k])) < 1e-12


def test_apply_evaluates_each_leaf_level_once():
    # f, g and k1 built from one profile, as the angle correction block is
    expr = spelled((0.5, ("sh", "ch")), (0.25j, ("sh",)))
    calls = {}

    def level(k):
        def call(r):
            calls[k] = calls.get(k, 0) + 1
            return expr(r, derivative=k)
        return call

    leaf = RadialProfile(*[level(k) for k in range(4)])
    block = ModeBlock("tensor", "B", ScalarMode(0.0, 0), {
        "f": -1.0 * leaf.derivative(),
        "g": RadialProfile.constant(1.0) - leaf * expr_profile((1.0, ("inv_th",))),
        "k1": -math.sqrt(MODEL4.n - 2) * (leaf * expr_profile((1.0, ("th",)))),
    })
    r = np.linspace(0.2, 0.9, 7)
    out = tensor_system(MODEL4, ScalarMode(0.0, 0), "B").apply(block, r)
    assert all(np.all(np.isfinite(v)) for v in out.values())
    assert calls == {0: 1, 1: 1, 2: 1, 3: 1}


def test_conjugation_intertwines_sign_of_p():
    mode = ScalarMode(3.0, 2)
    profs = {
        "f": expr_profile((1 + 2j, ("sh",))),
        "g": expr_profile((0.5j, ("sh", "ch"))),
        "omega": expr_profile((1.0, ("sh", "inv_ch"))),
    }
    conj_profs = {k: RadialProfile(
        lambda r, p=p: np.conj(p(r)),
        lambda r, p=p: np.conj(p.d1(r)),
        lambda r, p=p: np.conj(p.d2(r))) for k, p in profs.items()}
    r = np.linspace(0.2, 1.0, 5)
    out = apply_L_oneform(MODEL3, ModeBlock("oneform", "A", mode, profs), r)
    out_conj = apply_L_oneform(
        MODEL3, ModeBlock("oneform", "A", mode.conjugate(), conj_profs), r)
    for k in out:
        assert np.max(np.abs(np.conj(out[k]) - out_conj[k])) < 1e-11


# ---------------------------------------------------------------------------
# formal self-adjointness in the weighted mode inner product


@pytest.mark.parametrize("family,kind,mode,n", [
    ("oneform", "A", ScalarMode(2.5, 1), 3),
    ("oneform", "B", ScalarMode(0.0, 2), 4),
    ("oneform", "C", CoclosedMode(1.5, 1), 3),
    ("tensor", "A", ScalarMode(2.5, 1), 5),
    ("tensor", "A", ScalarMode(4.0, 2), 3),
    ("tensor", "B", ScalarMode(0.0, 1), 4),
    ("tensor", "C", CoclosedMode(2.0, 1), 4),
    ("tensor", "C", CoclosedMode(0.5, 1), 3),
    ("tensor", "D", TTMode(3.0, 1), 5),
])
def test_potential_hermitian_in_weighted_product(family, kind, mode, n):
    model = ConeModel(n=n, alpha=2 * math.pi / 3, tube_radius=1.0)
    sysfun = oneform_system if family == "oneform" else tensor_system
    system = sysfun(model, mode, kind)
    w = component_weights(family, system.names)
    r = np.linspace(0.15, 1.0, 9)
    V = system.potential_at(r)
    k = system.arity
    for i in range(k):
        for j in range(k):
            lhs = w[i] * V[i, j]
            rhs = np.conj(w[j] * V[j, i])
            assert np.max(np.abs(lhs - rhs)) < 1e-11, (system.names[i], system.names[j])


def test_trace_intertwines_scalar_operator():
    """The metric trace of the tensor operator's value is the shifted scalar
    operator on the block's trace profile, identically in r."""
    mode = ScalarMode(2.0, 1)
    profs = {
        "f": expr_profile((1.0, ("sh", "sh"))),
        "g": expr_profile((1.0 + 1j, ("sh", "ch"))),
        "h": expr_profile((2j, ("sh", "sh"))),
        "sigma": expr_profile((1.0, ("sh", "sh", "sh"))),
        "eta": expr_profile((-1.0, ("sh", "sh", "th"))),
        "k1": expr_profile((0.7, ("ch", "ch"))),
        "k2": expr_profile((1.3, ("sh", "ch"))),
    }
    block = ModeBlock("tensor", "A", mode, profs)
    r = np.linspace(0.1, 1.0, 12)
    out = apply_P_tensor(MODEL4, block, r)
    rn2 = math.sqrt(MODEL4.n - 2)
    traced = out["f"] + out["g"] + rn2 * out["k1"]
    tr_prof = trace_tensor_mode(MODEL4, block)
    expected = scalar_mode_operator(MODEL4, mode, tr_prof, r,
                                    shift=2.0 * (MODEL4.n - 1))
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(traced - expected)) < 1e-9 * max(scale, 1.0)


def test_trace_vanishes_on_coclosed_and_tt():
    b = ModeBlock("tensor", "C", CoclosedMode(0.0, 0),
                  {"eta_bar": RadialProfile.constant(1.0)})
    assert np.allclose(trace_tensor_mode(MODEL3, b)(np.array([0.5])), 0.0)
    assert trace_tensor_mode(
        MODEL4, ModeBlock("tensor", "D", TTMode(1.0, 0),
                          {"k4": RadialProfile.constant(1.0)}))(0.7) == 0


# ---------------------------------------------------------------------------
# first-order displays


def test_grad_oneform_radial_example():
    block = ModeBlock("oneform", "B", ScalarMode(0.0, 0),
                      {"f": RadialProfile.constant(1.0)})
    out = grad_oneform(MODEL3, block, 1.0)
    assert out["eth_eth"] == pytest.approx(COTH1, abs=1e-12)
    assert out["er_er"] == pytest.approx(0.0, abs=1e-15)
    assert out["metric_trace"] == pytest.approx(TANH1, abs=1e-12)


def test_ext_d_oneform_frozen_value():
    model = ConeModel(n=3, alpha=math.pi, tube_radius=1.0)  # gamma = 2
    block = ModeBlock("oneform", "B", ScalarMode(0.0, 1),
                      {"f": RadialProfile.constant(1.0)})
    out = ext_d_oneform(model, block, 1.0)
    assert out["er_eth"] == pytest.approx(-2j / SINH1, abs=1e-12)


def test_ext_d_kills_gradients():
    # block of d(u psi) for u = sh^2: f = u', g = i p gamma u / sh, omega = sqrt(lam) u / ch
    model = ConeModel(n=3, alpha=3 * math.pi / 2, tube_radius=1.0)
    lam, p = 3.0, 2
    u_f = expr_profile((2.0, ("sh", "ch")))
    u_g = expr_profile((1j * p * model.gamma, ("sh",)))
    u_w = expr_profile((math.sqrt(lam), ("sh", "sh", "inv_ch")))
    block = ModeBlock("oneform", "A", ScalarMode(lam, p),
                      {"f": u_f, "g": u_g, "omega": u_w})
    r = np.linspace(0.05, 1.0, 20)
    out = ext_d_oneform(model, block, r)
    for key, vals in out.items():
        assert np.max(np.abs(vals)) < 1e-10, key


def test_antisymmetrized_grad_is_half_ext_d():
    model = ConeModel(n=3, alpha=3 * math.pi / 2, tube_radius=1.0)
    block = ModeBlock("oneform", "A", ScalarMode(2.0, 1), {
        "f": expr_profile((1.0, ("sh", "ch"))),
        "g": expr_profile((1j, ("sh", "sh"))),
        "omega": expr_profile((0.5, ("sh", "inv_ch"))),
    })
    r = np.array([0.3, 0.7, 1.0])
    gr = grad_oneform(model, block, r)
    dd = ext_d_oneform(model, block, r)
    for anti, pair in [("er_eth", ("er_eth", "eth_er")),
                       ("er_phi", ("er_phi", "phi_er")),
                       ("eth_phi", ("eth_phi", "phi_eth"))]:
        lhs = 0.5 * (gr[pair[0]] - gr[pair[1]])
        assert np.max(np.abs(lhs - 0.5 * dd[anti])) < 1e-12


def test_grad_coclosed_slots():
    block = ModeBlock("oneform", "C", CoclosedMode(0.0, 1),
                      {"varpi": RadialProfile.constant(2.0)})
    out = grad_oneform(MODEL3, block, 1.0)
    assert out["varphi_er"] == pytest.approx(-2.0 * TANH1, abs=1e-12)
    assert out["eth_varphi"] == pytest.approx(2j * MODEL3.gamma / SINH1, abs=1e-12)
    assert out["nabla_varphi"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# weighted tube quadrature


def test_norm_constant_profile_frozen():
    val = l2_norm_tube(MODEL3, [RadialProfile.constant(1.0)])
    assert val == pytest.approx(0.3807970779778824, abs=1e-12)


def test_norm_block_with_symmetrized_weights():
    b = ModeBlock("tensor", "C", CoclosedMode(0.0, 0),
                  {"eta_bar": RadialProfile.constant(1.0)})
    full = l2_norm_tube(MODEL3, b)
    half = l2_norm_tube(MODEL3, b, weights="symmetrized")
    assert half == pytest.approx(0.5 * full, rel=1e-12)
    assert full == pytest.approx(0.3807970779778824, abs=1e-12)


def test_norm_divergent_profile_raises():
    with pytest.raises(QuadratureConvergenceError):
        l2_norm_tube(MODEL3, [RadialProfile.monomial(-1)])


def test_norm_log_divergence_rate():
    # |r^-1|^2 against the weight integrates like |log eps|
    p = RadialProfile.monomial(-1)
    vals = [l2_norm_tube(MODEL3, [p], inner_cutoff=eps, num_nodes=800, rtol=1e-5)
            for eps in (1e-2, 1e-3, 1e-4)]
    d1 = vals[1] - vals[0]
    d2 = vals[2] - vals[1]
    assert d2 == pytest.approx(d1, rel=0.1)


def test_norm_cutoff_validation():
    with pytest.raises(ValueError):
        l2_norm_tube(MODEL3, [RadialProfile.constant(1.0)], inner_cutoff=2.0)
    with pytest.raises(ValueError):
        l2_norm_tube(MODEL3, [RadialProfile.constant(1.0)], weights="bogus")


# ---------------------------------------------------------------------------
# standard deformation blocks


def test_angle_block():
    b = standard_deformation_block(MODEL3, "angle")
    assert b.kind == "B" and b.mode == ScalarMode(0.0, 0)
    assert np.allclose(b.component("g")(np.array([0.2, 0.9])), 1.0)
    assert set(b.profiles) == {"g"}


def test_locus_metric_block():
    b = standard_deformation_block(MODEL4, "locus_metric")
    assert set(b.profiles) == {"k1"}
    assert np.allclose(b.component("k1")(np.array([0.5])), 1.0)


def test_angle_gluing_block():
    b = standard_deformation_block(MODEL3, "angle_gluing")
    assert b.kind == "C" and b.mode == CoclosedMode(0.0, 0)
    prof = b.component("eta_bar")
    assert prof(1.0) == pytest.approx(1.0 / (SINH1 * math.cosh(1.0)), rel=1e-12)
    # r^2/(sh ch) -> r as r -> 0
    assert prof(1e-4) == pytest.approx(1e-4, rel=1e-6)


def test_angle_gluing_derivatives_match_sympy_profile():
    prof = standard_deformation_block(MODEL3, "angle_gluing").component("eta_bar")
    ref = RadialProfile.from_sympy("r**2/(sinh(r)*cosh(r))")
    r = log_grid(MODEL3)
    for got, want in ((prof(r), ref(r)), (prof.d1(r), ref.d1(r)),
                      (prof.d2(r), ref.d2(r))):
        # both lose digits of d2 to cancellation as r -> 0
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-8


def test_unknown_standard_block():
    with pytest.raises(ValueError):
        standard_deformation_block(MODEL3, "twist")


# ---------------------------------------------------------------------------
# exact series data off the systems


@pytest.mark.parametrize("family,kind,mode,model", [
    ("oneform", "A", ScalarMode(2.5, 1), MODEL3),
    ("oneform", "C", CoclosedMode(1.0, -2), MODEL4),
    ("tensor", "A", ScalarMode(3.0, 2), MODEL4),
    ("tensor", "B", ScalarMode(0.0, 0), MODEL3),
    ("tensor", "C", CoclosedMode(0.5, 1), MODEL4),
])
def test_w0_is_leading_laurent_matrix(family, kind, mode, model):
    build = oneform_system if family == "oneform" else tensor_system
    system = build(model, mode, kind)
    w0, lead = system.w0, system.laurent_potential(1)[0]
    assert np.array_equal(w0, lead)
    assert np.array_equal(np.signbit(w0.view(float)), np.signbit(lead.view(float)))


def test_tensor_indicial_matrix_frozen():
    system = tensor_system(MODEL4, ScalarMode(2.0, 1), "A")
    assert system.names == ("f", "g", "h", "sigma", "eta", "k1", "k2")
    W = system.laurent_potential(2)
    pg2 = 16.0
    expected = np.zeros((7, 7), dtype=complex)
    expected[0, 0] = 2 + pg2
    expected[0, 1] = -2
    expected[0, 2] = 8j
    expected[1, 0] = -2
    expected[1, 1] = 2 + pg2
    expected[1, 2] = -8j
    expected[2, 0] = -16j
    expected[2, 1] = 16j
    expected[2, 2] = 4 + pg2
    expected[3, 3] = 1 + pg2
    expected[3, 4] = 8j
    expected[4, 3] = -8j
    expected[4, 4] = 1 + pg2
    expected[5, 5] = pg2
    expected[6, 6] = pg2
    # the pencil is D W D^-1, d_j = i on the theta-odd h and eta
    d = np.array([1, 1, 1j, 1, 1j, 1, 1])
    framed = expected * np.outer(d, d.conj())
    assert not framed.imag.any() and W[0].dtype == np.float64
    assert np.max(np.abs(W[0] - framed.real)) < 1e-14
    assert np.max(np.abs(W[1])) == 0.0


def test_oneform_indicial_matrix_frozen():
    system = oneform_system(MODEL3, ScalarMode(2.0, 1), "A")
    W0 = system.laurent_potential(1)[0]
    pg = 4.0
    expected = np.array([
        [1 + pg**2, 2j * pg, 0],
        [-2j * pg, 1 + pg**2, 0],
        [0, 0, pg**2],
    ])
    # the pencil is D W0 D^-1, d_j = i on the theta-odd g
    d = np.array([1, 1j, 1])
    framed = expected * np.outer(d, d.conj())
    assert not framed.imag.any() and W0.dtype == np.float64
    assert np.max(np.abs(W0 - framed.real)) < 1e-14


def test_laurent_partial_sums_track_potential():
    system = tensor_system(MODEL3, ScalarMode(2.0, 1), "A")
    W = system.laurent_potential(8)
    r = 1e-2
    V = system.potential_at(np.array([r]))[:, :, 0]
    approx = sum(Wj * r**j for j, Wj in enumerate(W))
    assert np.max(np.abs(approx - r**2 * V)) < 1e-12


def test_pencil_rejects_slot_outside_basis():
    from conemodes.reduction import _pencil_writer
    pencil, put = _pencil_writer("oneform", ("f", "omega"))
    put("omega", "f", thc=2.0)
    assert pencil.shape == (7, 2, 2) and pencil[6, 1, 0] == 2.0
    assert np.count_nonzero(pencil) == 1
    with pytest.raises(ValueError, match="basis slot"):
        put("f", "f", sh_ch=1.0)


# Reference for the slot pencils: the builders as they were spelled before,
# one radial expression per entry, compiled into the basis matrices by
# matching each term's exponent pair.

def _ref_ex(*names):
    return RadialExpr(((1.0 + 0j, _exponents(names)),))


def _ref_const(c):
    return RadialExpr(((complex(c), (0, 0)),))


_REF_ZERO = RadialExpr(())
_IT2 = _ref_ex("inv_th", "inv_th")
_TH2 = _ref_ex("th", "th")
_S2 = _ref_ex("inv_sh_sq")
_C2 = _ref_ex("inv_ch_sq")
_STI = _ref_ex("sh_th_inv")
_THC = _ref_ex("th", "inv_ch")


def _ref_compile(table):
    from conemodes.reduction import _BASIS
    k = len(table)
    pencil = np.zeros((len(_BASIS), k, k), dtype=complex)
    for i, row in enumerate(table):
        for j, expr in enumerate(row):
            for c, pair in expr.terms:
                pencil[_BASIS.index(pair), i, j] += c
    return pencil


def _ref_oneform_pencil(model, mode, kind):
    n = model.n
    pg = _snap(mode.p * model.gamma)
    k = len(system_names("oneform", kind, n, mode))
    V = [[_REF_ZERO] * k for _ in range(k)]
    if kind in ("A", "B"):
        lam = mode.lam
        rootl = math.sqrt(lam)
        V[0][0] = (_IT2 + float(n - 2) * _TH2 + (pg * pg) * _S2
                   + lam * _C2 + _ref_const(n - 1))
        V[0][1] = (2j * pg) * _STI
        V[1][0] = (-2j * pg) * _STI
        V[1][1] = _IT2 + (pg * pg) * _S2 + lam * _C2 + _ref_const(n - 1)
        if kind == "A":
            V[0][2] = (-2.0 * rootl) * _THC
            V[2][0] = (-2.0 * rootl) * _THC
            V[2][2] = (_TH2 + (pg * pg) * _S2 + (lam + n - 3) * _C2
                       + _ref_const(n - 1))
    else:
        V[0][0] = _TH2 + (pg * pg) * _S2 + mode.mu * _C2 + _ref_const(n - 1)
    return _ref_compile(V)


def _ref_tensor_pencil(model, mode, kind):
    n = model.n
    pg = _snap(mode.p * model.gamma)
    names = system_names("tensor", kind, n, mode)
    idx = {nm: i for i, nm in enumerate(names)}
    V = [[_REF_ZERO] * len(names) for _ in names]
    G = (pg * pg) * _S2

    def put(a, b, expr):
        V[idx[a]][idx[b]] = expr

    if kind in ("A", "B"):
        lam = mode.lam
        rootl = math.sqrt(lam)
        rn2 = math.sqrt(n - 2)
        lam_c2 = lam * _C2 if lam else _REF_ZERO
        put("f", "f", 2.0 * _IT2 + (2.0 * (n - 2)) * _TH2 + G + lam_c2)
        put("f", "g", _ref_const(2.0) + (-2.0) * _IT2)
        put("f", "h", (2j * pg) * _STI)
        put("f", "k1", rn2 * (_ref_const(2.0) + (-2.0) * _TH2))
        put("g", "f", _ref_const(2.0) + (-2.0) * _IT2)
        put("g", "g", 2.0 * _IT2 + G + lam_c2)
        put("g", "h", (-2j * pg) * _STI)
        put("g", "k1", _ref_const(2.0 * rn2))
        put("h", "f", (-4j * pg) * _STI)
        put("h", "g", (4j * pg) * _STI)
        put("h", "h", 4.0 * _IT2 + float(n - 2) * _TH2 + G + lam_c2 + _ref_const(-2.0))
        put("k1", "f", (2.0 * rn2) * (_ref_const(1.0) + (-1.0) * _TH2))
        put("k1", "g", _ref_const(2.0 * rn2))
        put("k1", "k1", 2.0 * _TH2 + G + lam_c2 + _ref_const(-2.0 + 2.0 * (n - 2)))
        if kind == "A":
            blam = math.sqrt(lam / (n - 2))
            put("f", "sigma", (-2.0 * rootl) * _THC)
            put("h", "eta", (-2.0 * rootl) * _THC)
            put("sigma", "sigma", _IT2 + float(n + 1) * _TH2 + G
                + (lam + n - 3) * _C2 + _ref_const(-2.0))
            put("sigma", "f", (-4.0 * rootl) * _THC)
            put("sigma", "eta", (2j * pg) * _STI)
            put("sigma", "k1", (4.0 * blam) * _THC)
            put("eta", "eta", _IT2 + _TH2 + G + (lam + n - 3) * _C2 + _ref_const(-2.0))
            put("eta", "h", (-2.0 * rootl) * _THC)
            put("eta", "sigma", (-2j * pg) * _STI)
            put("k1", "sigma", (2.0 * blam) * _THC)
            if "k2" in idx:
                cb = math.sqrt(n - 3) * math.sqrt(lam / (n - 2) + 1.0)
                put("sigma", "k2", (-4.0 * cb) * _THC)
                put("k2", "sigma", (-2.0 * cb) * _THC)
                put("k2", "k2", 2.0 * _TH2 + G + (lam + 2.0 * (n - 2)) * _C2
                    + _ref_const(-2.0))
    elif kind == "C":
        mu = mode.mu
        put("sigma_bar", "sigma_bar", _IT2 + float(n + 1) * _TH2 + G + mu * _C2
            + _ref_const(-2.0))
        put("sigma_bar", "eta_bar", (2j * pg) * _STI)
        put("eta_bar", "sigma_bar", (-2j * pg) * _STI)
        put("eta_bar", "eta_bar", _IT2 + _TH2 + G + mu * _C2 + _ref_const(-2.0))
        if "k3" in idx:
            cc = math.sqrt((mu + n - 3) / 2.0)
            put("sigma_bar", "k3", (-4.0 * cc) * _THC)
            put("k3", "sigma_bar", (-2.0 * cc) * _THC)
            put("k3", "k3", 2.0 * _TH2 + G + (mu + n - 1) * _C2 + _ref_const(-2.0))
    else:
        put("k4", "k4", 2.0 * _TH2 + G + mode.nu * _C2 + _ref_const(-2.0))
    return _ref_compile(V)


def _ref_frame(family, names):
    # d of the real frame, typed from the theta-odd components
    odd = {"oneform": ("g",), "tensor": ("h", "eta", "eta_bar")}[family]
    return np.array([1j if nm in odd else 1.0 for nm in names])


def test_slot_pencils_equal_the_spelled_reference_bitwise():
    # n = 3..5, both families, kinds A-D, p = -3..3 and eigenvalues 0, 0.5,
    # 4, 4 pi^2 and 2.3 (so k2 and k3 occur), at angles that put p gamma on
    # and off the half-integers; the bit patterns include signs of zero.
    # The pencil is D ref D^-1, real in the frame.
    angles = (0.3, 1.0, math.pi / 2, 2 * math.pi / 3, math.pi, 2 * math.pi, 5.0)
    eigs = (0.0, 0.5, 4.0, 4 * math.pi ** 2, 2.3)
    builders = {"oneform": (oneform_system, _ref_oneform_pencil),
                "tensor": (tensor_system, _ref_tensor_pencil)}
    kinds, count = set(), 0
    for n in (3, 4, 5):
        for alpha in angles:
            model = ConeModel(n=n, alpha=alpha, tube_radius=1.0)
            for p in range(-3, 4):
                for e in eigs:
                    for mode in (ScalarMode(e, p), CoclosedMode(e, p), TTMode(e, p)):
                        for family, (build, reference) in builders.items():
                            if family == "oneform" and isinstance(mode, TTMode):
                                continue
                            kind = mode_kind(mode, family)
                            system = build(model, mode, kind)
                            got = system.pencil
                            d = _ref_frame(family, system.names)
                            want = reference(model, mode, kind) * np.outer(d, d.conj())
                            assert not want.imag.any()
                            want = want.real
                            assert got.shape == want.shape
                            assert np.array_equal(got.view(np.uint64),
                                                  want.view(np.uint64)), \
                                (family, kind, n, alpha, mode)
                            kinds.add((family, kind, got.shape[1]))
                            count += 1
    assert count == 3675
    assert {("tensor", "A", 7), ("tensor", "C", 3), ("tensor", "C", 2)} <= kinds


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_system_is_real_in_its_frame(n):
    # both families, kinds A-D, p = -2..3 and eigenvalues including 0, so
    # k2 (n >= 4) and k3 (mu + n - 3 > 0) occur; d/dtheta = i p gamma is the
    # only imaginary entry, and d_j = i on the theta-odd components absorbs
    # it: the pencil is stored float64, and named back, conj(D) C_b D, it is
    # imaginary exactly on the entries that couple odd and even components
    model = ConeModel(n=n, alpha=1.3, tube_radius=1.0)
    modes = [mode for p in range(-2, 4)
             for mode in (ScalarMode(0.0, p), ScalarMode(2.5, p), CoclosedMode(0.0, p),
                          CoclosedMode(3.0, p), TTMode(0.0, p), TTMode(4.0, p))]
    builders = (("oneform", oneform_system), ("tensor", tensor_system))
    systems = [build(model, mode, mode_kind(mode, family))
               for mode in modes for family, build in builders
               if not (family == "oneform" and isinstance(mode, TTMode))]
    r = np.array([0.05, 0.3, 0.9])
    for system in systems:
        assert system.pencil.dtype == np.float64 and not system.pencil.flags.writeable
        d = system.frame
        assert np.array_equal(d, _ref_frame(system.family, system.names))
        odd = d.imag != 0
        mixed = odd[:, None] != odd[None, :]
        named = system.pencil * np.outer(d.conj(), d)
        assert not named.real[:, mixed].any() and not named.imag[:, ~mixed].any()
        assert system.potential_at(r).dtype == np.float64
    assert {s.kind for s in systems} == {"A", "B", "C", "D"}
    names = {name for s in systems for name in s.names}
    assert "k3" in names and ("k2" in names) == (n >= 4)
    assert any((s.pencil * np.outer(s.frame.conj(), s.frame)).imag.any() for s in systems)


def test_pencil_not_real_in_its_frame_is_rejected():
    from conemodes.reduction import _pencil_writer
    pencil, put = _pencil_writer("tensor", ("sigma_bar", "eta_bar"))
    put("sigma_bar", "eta_bar", sti=2j)  # imaginary named, real in the frame
    assert pencil[5, 0, 1] == 2.0
    with pytest.raises(ValueError, match="frame"):
        put("sigma_bar", "eta_bar", sti=2.0)
    with pytest.raises(ValueError, match="frame"):
        put("sigma_bar", "sigma_bar", one=1j)
    s = tensor_system(MODEL3, CoclosedMode(1.0, 2), "C")
    with pytest.raises(ValueError, match="frame"):
        ModeSystem(s.family, s.kind, s.mode, s.n, s.gamma, s.names, 1j * s.pencil)


def _named_apply(model, family, block, r):
    """The operator on the block from the spelled named pencil, summed as
    `ModeSystem.apply` sums it: -X_i'' - q X_i' + sum_j V_ij X_j, with the
    real and imaginary parts of V each summed over the basis as
    `ModeSystem.potential_at` sums the framed pencil (a complex product
    may accumulate in another order)."""
    from conemodes.geometry import sinh_cosh_values
    from conemodes.reduction import _BASIS, _drift
    reference = _ref_oneform_pencil if family == "oneform" else _ref_tensor_pencil
    pencil = reference(model, block.mode, block.kind)
    names = system_names(family, block.kind, model.n, block.mode)
    k = len(names)
    phi = sinh_cosh_values(_BASIS, r).reshape(len(_BASIS), -1)
    V = sum(part(pencil).reshape(len(_BASIS), k * k).T @ phi * unit
            for part, unit in ((np.real, 1), (np.imag, 1j))).reshape((k, k) + r.shape)
    q = np.real(_drift(model.n)(r))
    memo = {}
    jets = [block.component(name).jet(r, 2, memo) for name in names]
    out = {}
    for i, name in enumerate(names):
        acc = -jets[i][2] - q * jets[i][1]
        for j in range(k):
            acc = acc + V[i, j] * jets[j][0]
        out[name] = acc
    return out


def test_apply_matches_the_named_reference_bitwise():
    # n = 3..5, kinds A-D, p = -2..3, random complex polynomial jets: apply
    # frames the jets by +-1 and +-i and names its output back, so it equals
    # the named pencil's sum bit for bit, up to signs of zero
    rng = np.random.default_rng(5)
    r = np.geomspace(0.02, 1.0, 9)
    count = 0
    for n in (3, 4, 5):
        model = ConeModel(n=n, alpha=1.3, tube_radius=1.0)
        for p in range(-2, 4):
            for mode, families in ((ScalarMode(2.5, p), ("oneform", "tensor")),
                                   (ScalarMode(0.0, p), ("oneform", "tensor")),
                                   (CoclosedMode(1.5, p), ("oneform", "tensor")),
                                   (TTMode(2.0, p), ("tensor",))):
                for family in families:
                    kind = mode_kind(mode, family)
                    names = system_names(family, kind, n, mode)
                    profiles = {nm: RadialProfile.from_expr(RadialExpr(tuple(
                        (complex(*rng.normal(size=2)), (a, 0)) for a in range(3))))
                        for nm in names}
                    block = ModeBlock(family, kind, mode, profiles)
                    build = oneform_system if family == "oneform" else tensor_system
                    got = build(model, mode, kind).apply(block, r)
                    want = _named_apply(model, family, block, r)
                    assert list(got) == list(want)
                    for name in names:
                        assert got[name].dtype == np.complex128
                        assert np.array_equal(got[name].view(float) + 0.0,
                                              want[name].view(float) + 0.0), \
                            (n, p, family, kind, name)
                    count += 1
    assert count == 3 * 6 * 7


def test_monomial_derivatives_match_mpmath():
    # reference derivatives by mpmath's own differentiation of the textbook
    # formulas, independent of the exponent pairs and the monomial rule
    from conemodes.geometry import RADIAL_FUNCTIONS, sinh_cosh_values
    from conemodes.reduction import _BASIS

    sh, ch, th, coth = mp.sinh, mp.cosh, mp.tanh, mp.coth
    named = {
        "sh": sh, "ch": ch, "th": th, "inv_th": coth,
        "inv_sh": lambda x: 1 / sh(x), "inv_sh_sq": lambda x: 1 / sh(x) ** 2,
        "inv_ch": lambda x: 1 / ch(x), "inv_ch_sq": lambda x: 1 / ch(x) ** 2,
        "sh_th_inv": lambda x: ch(x) / sh(x) ** 2,
    }
    basis = [lambda x: mp.mpf(1), lambda x: coth(x) ** 2, lambda x: th(x) ** 2,
             named["inv_sh_sq"], named["inv_ch_sq"], named["sh_th_inv"],
             lambda x: th(x) / ch(x)]
    drifts = {n: oneform_system(ConeModel(n=n, alpha=1.0, tube_radius=1.0),
                                ScalarMode(0.0, 0), "B") for n in (3, 4, 7)}
    grid = np.concatenate([log_grid(MODEL3), [0.05, 2.5]])

    def close(got, fn, d, r):
        with mp.workdps(40):
            want = np.array([float(mp.diff(fn, mp.mpf(x), d)) for x in r])
        # relative; the absolute floor covers the zero crossings of
        # (th inv_ch)', (th^2)'' and q'' inside the tube
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 1e-14)

    for d in range(3):
        for name, fn in named.items():
            close(sinh_cosh_values([RADIAL_FUNCTIONS[name]], grid, d)[0], fn, d, grid)
        phi = sinh_cosh_values(_BASIS, grid, d)
        assert phi.shape == (7, grid.size)
        assert sinh_cosh_values(_BASIS, 0.5, d).shape == (7,)
        for b, fn in enumerate(basis):
            close(phi[b], fn, d, grid)
        for n, system in drifts.items():
            close(system.drift_at(grid, d),
                  lambda x, n=n: coth(x) + (n - 2) * th(x), d, grid)
    for bad in (0.0, -0.5, np.array([0.1, 0.0])):
        with pytest.raises(DomainError):
            drifts[3].potential_at(bad)
        with pytest.raises(DomainError):
            drifts[3].drift_at(bad)


def test_laurent_drift_series():
    system = oneform_system(MODEL4, ScalarMode(0.0, 0), "B")
    s = system.laurent_drift(6)
    assert s.leading == 0
    assert complex(s.coeffs[0]) == pytest.approx(1.0)
    assert complex(s.coeffs[1]) == 0.0
    r = 5e-3
    rq = r * system.drift_at(np.array([r]))[0]
    assert s(r) == pytest.approx(rq, rel=1e-10)


@given(st.integers(min_value=-3, max_value=3),
       st.floats(min_value=0.1, max_value=8.0))
@settings(max_examples=25, deadline=None)
def test_expr_laurent_matches_evaluation(p, lam):
    model = ConeModel(n=3, alpha=1.1, tube_radius=1.0)
    system = oneform_system(model, ScalarMode(lam, p), "A")
    r = 1e-3
    V = system.potential_at(r)
    W = system.laurent_potential(10)
    k = system.arity
    for i in range(k):
        for j in range(k):
            if not np.any(system.pencil[:, i, j]):
                continue
            series = sum(Wm[i, j] * r ** (m - 2) for m, Wm in enumerate(W))
            assert series == pytest.approx(complex(V[i, j]), rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# serialization


def test_block_json_round_trip():
    grid = np.linspace(0.1, 1.0, 400)
    block = ModeBlock("oneform", "A", ScalarMode(2.0, -1), {
        "f": expr_profile((1.0, ("sh", "ch"))),
        "g": expr_profile((1j, ("sh", "sh"))),
    })
    d = block_to_dict(MODEL3, block, grid)
    assert d["mode"] == {"type": "scalar", "lambda": 2.0, "p": -1}
    back = block_from_dict(d)
    assert back.family == "oneform" and back.kind == "A"
    mids = 0.5 * (grid[:-1] + grid[1:])
    for name in ("f", "g"):
        orig = block.component(name)(mids)
        round_ = back.component(name)(mids)
        assert np.max(np.abs(orig - round_)) < 1e-8


def test_block_csv_rows():
    block = ModeBlock("tensor", "B", ScalarMode(0.0, 0),
                      {"g": RadialProfile.constant(1.0),
                             "f": RadialProfile.constant(2j)})
    header, rows = block_csv_rows(MODEL3, block, np.array([0.5, 1.0]))
    assert header == ["r", "f_re", "f_im", "g_re", "g_im"]
    assert len(rows) == 2
    assert rows[0][0] == "0.5"
    assert rows[0][2] == "2"  # f imaginary part
    assert rows[1][3] == "1"  # g real part


def test_log_grid_shape():
    g = log_grid(MODEL3, num=50)
    assert len(g) == 50
    assert g[0] == pytest.approx(1e-6)
    assert g[-1] == pytest.approx(1.0)
