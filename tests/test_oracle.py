import itertools
import json
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from conemodes import oracle
from conemodes.geometry import ConeModel, CrossSection, DomainError, leibniz
from conemodes.modes import CoclosedMode, ScalarMode
from conemodes.oracle import (
    _CH,
    _SH,
    OracleField,
    TubeChart,
    adjoint_divergence,
    apply_L_coords,
    apply_P_coords,
    bianchi_beta,
    block_components,
    block_field,
    bump_chain,
    codifferential,
    covariant_derivative,
    delta_nabla,
    delta_star,
    d_nabla,
    energy_ratios,
    exterior_d,
    identity_suite,
    linearized_einstein,
    metric_field,
    poly_chain,
    ricci_action,
    rough_laplacian,
    scalar_field,
    trace,
    tube_inner_product,
    tube_norm,
)
from conemodes.reduction import (
    ModeBlock,
    RadialProfile,
    apply_L_oneform,
    apply_P_tensor,
    ext_d_oneform,
    grad_oneform,
)

CS = CrossSection("circle", 2.0)
MODEL = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0, cross_section=CS)
AXIAL_LAM = (2 * math.pi / CS.length) ** 2

# frozen chart values at r = 1
GAMMA_TH_R_TH = 1.3130352854993312
GAMMA_R_TH_TH = -1.8134302039235093


def chart():
    return TubeChart(MODEL)


def scalar_mode(p, m=1):
    return ScalarMode(AXIAL_LAM * m * m, p)


def poly_profile(text):
    return RadialProfile.from_sympy(text)


def rand_chains(rng, count, terms=4):
    return [poly_chain(rng.normal(size=terms) + 1j * rng.normal(size=terms))
            for _ in range(count)]


# ---------------------------------------------------------------------------
# derivative chains


def test_poly_chain_derivatives():
    c = poly_chain([1.0, -2.0, 0.5, 3.0])
    r = np.linspace(0.2, 1.4, 5)
    assert np.allclose(c(r), 1 - 2 * r + 0.5 * r ** 2 + 3 * r ** 3)
    assert np.allclose(c.derivative()(r), -2 + r + 9 * r ** 2)
    assert np.allclose(c.derivative().derivative()(r), 1 + 18 * r)


def test_chain_product_rule():
    a = poly_chain([0.0, 1.0])
    b = poly_chain([2.0, 0.0, 1.0])
    prod = a * b
    r = np.linspace(0.1, 2.0, 7)
    assert np.allclose(prod(r), r * (2 + r ** 2))
    assert np.allclose(prod.derivative()(r), 2 + 3 * r ** 2)
    assert np.allclose(prod.derivative().derivative()(r), 6 * r)


def test_chain_zero_and_constant_shortcuts():
    z = RadialProfile.zero()
    c = RadialProfile.constant(2.5)
    assert z.is_zero and not c.is_zero
    assert (z + c)(0.3) == 2.5
    assert (z * c).is_zero
    assert (0.0 * c).is_zero
    assert RadialProfile.constant(0.0).is_zero
    assert np.all(c.derivative()(np.array([0.2, 0.9])) == 0)


def test_chain_depth_exhaustion():
    c = RadialProfile(lambda r: np.asarray(r, dtype=complex))
    with pytest.raises(ValueError):
        c.derivative()


def test_jet_past_depth_names_level_and_depth():
    r = np.linspace(0.2, 0.8, 3)
    leaf = poly_chain([1.0, 2.0, 3.0], depth=2)
    for prof, m in ((leaf, 5), (leaf.derivative(), 2),
                    (leaf * poly_chain([1.0, 1.0]), 3)):
        with pytest.raises(ValueError, match=f"level {m} .*depth {prof.depth}"):
            prof.jet(r, m, {})
    memo = {}
    leaf.jet(r, 2, memo)  # a filled memo does not hide the limit
    with pytest.raises(ValueError, match="level 3 .*depth 2"):
        leaf.jet(r, 3, memo)


def _signed_zero_jet(rng, shape, levels=5):
    x = rng.normal(size=(levels,) + shape) + 1j * rng.normal(size=(levels,) + shape)
    for part in (x.real, x.imag):
        mask = rng.random(part.shape) < 0.3
        part[mask] = np.where(rng.random(mask.sum()) < 0.5, 0.0, -0.0)
    return x


def _textbook_product(a, b):
    return np.array([sum(math.comb(k, j) * a[j] * b[k - j] for j in range(k + 1))
                     for k in range(min(len(a), len(b)))])


def test_dense_products_match_profile_products_bit_for_bit():
    # through level 4, signs of zero included: a product of broadcast dense
    # jets equals, slice by slice, the textbook sum that profile products
    # evaluate on one component's jets
    rng = np.random.default_rng(13)
    for sa, sb in (((7,), (7,)), ((3, 1, 7), (1, 3, 7)), ((3, 3, 1, 7), (3, 1, 1, 7))):
        a, b = _signed_zero_jet(rng, sa), _signed_zero_jet(rng, sb)
        got = leibniz(a, b)
        a, b = np.broadcast_arrays(a, b)
        for idx in np.ndindex(got.shape[1:-1]):
            sl = (slice(None),) + idx
            assert got[sl].tobytes() == _textbook_product(a[sl], b[sl]).tobytes()
    # the dense scalar-field product equals each component's profile product
    r = np.linspace(0.05, 1.0, 11)
    u = scalar_field(chart(), -bump_chain(0.3, 0.7), angular=2.0)
    h = OracleField(chart(), 2, {(0, 1): poly_chain([-0.5, 1.0, 0.25j]),
                                 (2, 2): _SH * _CH * bump_chain(0.2, 0.6)})
    got = (u * h).dense(chart().at(r), 4, {})
    for idx, prof in h.components.items():
        want = (u.components[()] * prof).jet(r, 4, {})
        assert got[(slice(None),) + idx].tobytes() == want.tobytes()


def test_connection_term_matches_one_product_per_index_bit_for_bit():
    # reference: one Leibniz product per index slot i and index c, each
    # subtracted in the order (i, c)
    rng = np.random.default_rng(17)
    r = np.linspace(0.05, 1.0, 7)
    grid, m = chart().at(r), 2
    for rank in (1, 2, 3):
        idxs = list(itertools.product(range(3), repeat=rank))
        fld = OracleField(chart(), rank, dict(zip(idxs, rand_chains(rng, len(idxs)))),
                          angular=2.0, axial=math.pi)
        t, gam = fld.dense(grid, m + 1, {}), grid.jet("gam", m)
        want = oracle._derivative(t, (2.0j, 1j * math.pi))
        for i in range(rank):
            g = gam.reshape((m + 1, 3, 3) + (1,) * i + (3,) + (1,) * (rank - 1 - i) + r.shape)
            src = np.moveaxis(t[:-1], 1 + i, 1)
            for c in range(3):
                want -= leibniz(g[:, c], np.expand_dims(src[:, c], (1, 2 + i)))
        got = covariant_derivative(fld).dense(grid, m, {})
        assert got.tobytes() == want.tobytes(), rank


# The dense contractions that the restricted ones replace, kept as references:
# every product of a full chart table, summed in the same order.  The skipped
# products are of exact zeros, so only signs of zero may differ.


def _same_but_zero_signs(got, want):
    """Equal dtype, shape and values: finite floats compare equal only when
    their bits agree or both are zeros.  (Bytes would also compare the
    padding of a long double.)"""
    return got.dtype == want.dtype and got.shape == want.shape and bool(np.all(got == want))


def _dense_connection_term(fld, grid, m):
    t, gam = fld.dense(grid, m + 1, {}), grid.jet("gam", m)
    out = oracle._derivative(t, (1j * fld.angular, 1j * fld.axial))
    for i in range(fld.rank):
        g = gam.reshape((m + 1, 3, 3) + (1,) * i + (3,) + (1,) * (fld.rank - 1 - i)
                        + grid.r.shape)
        terms = leibniz(g, np.expand_dims(np.moveaxis(t[:-1], 1 + i, 1), (2, 3 + i)))
        for c in range(3):
            out -= terms[:, c]
    return out


def _dense_ricci_action(h, grid, m):
    t = h.dense(grid, m, {})
    terms = leibniz(grid.jet("curv", m), t[:, None, :, None, :])
    out = np.zeros_like(t)
    for c, d in itertools.product(range(3), repeat=2):
        out += terms[:, :, c, :, d]
    return out


def _dense_riemann(chain):
    g, dim = chain["g"], 3
    dgam, gam = oracle._derivative(chain["gam"], (0, 0)), chain["gam"][:-1]
    low = []
    for a in range(dim):
        d = oracle._permuted(dgam[:, :, a], 2, 0, 1)
        quad = (leibniz(gam[:, a, None, :, None, k], gam[:, k].swapaxes(1, 2)[:, :, None])
                for k in range(dim))
        riem = d - d.swapaxes(2, 3) + sum(q - q.swapaxes(2, 3) for q in quad)
        low.append(leibniz(g[:, a, None, None, None], riem))
    return np.stack(low, axis=1)


def _mode_field(ch, rng, rank):
    idxs = list(itertools.product(range(3), repeat=rank))
    return OracleField(ch, rank, dict(zip(idxs, rand_chains(rng, len(idxs)))),
                       angular=2.0, axial=math.pi)


def test_restricted_contractions_match_dense_ones_bit_for_bit():
    rng = np.random.default_rng(29)
    r = np.linspace(0.05, 1.0, 7)
    ch = chart()
    for m in range(4):
        grid = ch.at(r + 0.01 * m)  # a fresh grid per level
        for rank in (1, 2, 3):
            fld = _mode_field(ch, rng, rank)
            got = covariant_derivative(fld).dense(grid, m, {})
            assert _same_but_zero_signs(got, _dense_connection_term(fld, grid, m)), (m, rank)
        h = _mode_field(ch, rng, 2)
        got = ricci_action(h).dense(grid, m, {})
        assert _same_but_zero_signs(got, _dense_ricci_action(h, grid, m)), m


def test_restricted_curvature_tables_match_dense_ones_bit_for_bit():
    r = np.linspace(0.05, 1.0, 7)
    for m in range(4):
        grid = chart().at(r)
        low, ginv = grid.jet("riem_low", m), grid.jet("ginv", m)
        want = leibniz(leibniz(low, ginv[:, None, :, None, None]),
                       ginv[:, None, None, None, :])
        assert _same_but_zero_signs(grid.jet("curv", m), want), m
        # the long-double chain under the table
        got = oracle._levi_civita(r, m + 3, "riem_low")
        want = _dense_riemann(oracle._levi_civita(r, m + 3, "gam"))
        assert _same_but_zero_signs(got["riem_low"], want), m


def test_chart_supports_are_read_off_the_tables():
    grid = chart().at(np.array([0.05, 0.4, 1.0]))
    assert len(grid.support("gam")[0]) == 6
    assert len(grid.support("curv")[0]) == 12
    for name in ("g", "ginv", "gam", "riem_low", "curv"):
        table = grid.jet(name, 3)
        support = grid.support(name)
        assert support is grid.support(name)  # kept per grid
        off = np.ones(table.shape[1:-1], dtype=bool)
        off[support] = False
        assert np.all(table[:, off] == 0) and np.all(table[:, ~off].any(axis=(0, -1)))


def test_bump_chain_support_and_smoothness():
    b = bump_chain(0.2, 0.8, order=4)
    r_out = np.array([0.05, 0.15, 0.2, 0.8, 0.95])
    assert np.all(b(r_out) == 0)
    assert np.all(b.derivative()(r_out) == 0)
    r_in = np.linspace(0.25, 0.75, 9)
    assert np.max(np.abs(b(r_in))) > 0.5
    # C^3 cutoff: third derivative still tends to zero at the edges
    d3 = b.derivative().derivative().derivative()
    edge = np.array([0.2 + 1e-5, 0.8 - 1e-5])
    assert np.max(np.abs(d3(edge))) < 1e-2 * np.max(np.abs(d3(r_in)))


def test_bump_chain_rejects_bad_support():
    with pytest.raises(ValueError):
        bump_chain(0.5, 0.4)


def test_polynomial_chains_round_like_numpy():
    # each level is numpy's polyval of numpy's polyder, bit for bit
    rng = np.random.default_rng(11)
    r = np.linspace(0.05, 1.2, 13)
    for terms in (1, 2, 4, 7):
        c = rng.normal(size=terms) + 1j * rng.normal(size=terms)
        chain = poly_chain(c)
        for k in range(6):
            want = npoly.polyval(r, npoly.polyder(c, k))
            assert chain.fns[k](r).tobytes() == want.tobytes(), (terms, k)
    lo, hi = 0.2, 0.9
    scale = 1.0 / (hi - lo)
    u = (r - lo) * scale
    for amplitude in (1.0, complex(rng.normal(), rng.normal())):
        chain = bump_chain(lo, hi, amplitude=amplitude)
        c = npoly.polyfromroots([0.0] * 4 + [1.0] * 4) * amplitude * (-1) ** 4 * 4.0 ** 4
        for k in range(6):
            want = npoly.polyval(u, npoly.polyder(c, k)) * scale ** k
            want = np.where((u > 0) & (u < 1), want, 0.0).astype(complex)
            assert chain.fns[k](r).tobytes() == want.tobytes(), (amplitude, k)


def test_chain_jets_match_closed_forms():
    r = np.linspace(0.2, 1.3, 9)
    # sinh cosh = sinh(2r)/2: level k is 2^(k-1) sinh(2r) or cosh(2r)
    want = [2.0 ** (k - 1) * (np.sinh if k % 2 == 0 else np.cosh)(2 * r)
            for k in range(5)]
    prod = _SH * _CH
    assert np.allclose(prod.jet(r, 4, {}), want, rtol=1e-13, atol=0)
    for k in range(5):
        assert np.allclose(prod.fns[k](r), want[k], rtol=1e-13, atol=0)
    one = (_CH * _CH - _SH * _SH).jet(r, 4, {})
    assert np.allclose(one[0], 1.0, rtol=1e-13, atol=0)
    assert np.max(np.abs(one[1:])) < 1e-11
    # nested sums, products and derivatives of polynomials, level by level
    pc, qc = np.array([1.0, -2.0, 0.5, 3.0]), np.array([0.5, 0.0, 1j, -0.25])
    p, q = poly_chain(pc), poly_chain(qc)
    nested = ((p * q).derivative() - 2.0 * (p.derivative() * q) + (-(q * q))
              + RadialProfile.constant(1.5))
    closed = npoly.polysub(npoly.polymul(pc, npoly.polyder(qc)),
                           npoly.polymul(npoly.polyder(pc), qc))
    closed = npoly.polyadd(npoly.polysub(closed, npoly.polymul(qc, qc)), [1.5])
    memo = {}
    jet = nested.jet(r, 4, memo)
    for k in range(5):
        exact = npoly.polyval(r, npoly.polyder(closed, k) if k else closed)
        assert np.allclose(jet[k], exact, rtol=1e-12, atol=1e-12), k
    assert np.allclose(nested.jet(r, 2, memo), jet[:3], rtol=0, atol=0)
    # values() hands out its own array: changing it leaves a second
    # evaluation, through the same memo, untouched
    fld = scalar_field(chart(), prod)
    first = fld.values(r, memo)
    first[...] = 99.0
    assert np.allclose(fld.values(r, memo), 0.5 * np.sinh(2 * r), rtol=1e-13, atol=0)
    assert np.allclose(fld.values(r), 0.5 * np.sinh(2 * r), rtol=1e-13, atol=0)


def test_values_evaluates_each_leaf_once():
    calls = {}

    def counting(name, coeffs):
        base = poly_chain(coeffs)

        def level(k):
            def call(r):
                calls[(name, k)] = calls.get((name, k), 0) + 1
                return base.fns[k](r)
            return call
        return RadialProfile(*[level(k) for k in range(base.depth + 1)])

    rng = np.random.default_rng(3)
    comps = {}
    for a, b in itertools.combinations_with_replacement(range(3), 2):
        c = counting((a, b), rng.normal(size=4) + 1j * rng.normal(size=4))
        comps[(a, b)] = comps[(b, a)] = c
    h = OracleField(chart(), 2, comps, angular=2 * chart().gamma,
                    axial=2 * math.pi / CS.length)
    lap = rough_laplacian(h)
    vals = lap.values(np.linspace(0.2, 0.9, 7))
    assert np.all(np.isfinite(vals))
    assert {k for _, k in calls} == {0, 1, 2}
    assert max(calls.values()) == 1, {k: n for k, n in calls.items() if n > 1}


def test_values_evaluates_each_operator_node_once(monkeypatch):
    counts = []
    post_init = OracleField.__post_init__

    def counting(self):
        post_init(self)
        if self.node is not None:
            inner, count = self.node, [0]

            def node(r, m, memo):
                count[0] += 1
                return inner(r, m, memo)
            self.node = node
            counts.append(count)

    monkeypatch.setattr(OracleField, "__post_init__", counting)
    rng = np.random.default_rng(19)
    cs = rand_chains(rng, 6)
    comps = {}
    for k, (a, b) in enumerate(itertools.combinations_with_replacement(range(3), 2)):
        comps[(a, b)] = comps[(b, a)] = cs[k]
    h = OracleField(chart(), 2, comps, angular=2 * chart().gamma,
                    axial=2 * math.pi / CS.length)
    # `lap` and the linearized operator each feed two nodes
    lap = rough_laplacian(h)
    total = (lap - 0.5 * lap + apply_P_coords(h)
             + delta_star(bianchi_beta(linearized_einstein(h)))
             + delta_nabla(d_nabla(h)) + d_nabla(delta_nabla(h))
             - trace(h) * metric_field(chart())
             + delta_star(codifferential(exterior_d(delta_nabla(h)))))
    assert np.all(np.isfinite(total.values(np.linspace(0.2, 0.9, 7))))
    assert len(counts) > 30
    assert {c[0] for c in counts} == {1}, [c[0] for c in counts]


def test_derivatives_past_field_depth_raise_at_build():
    ch = chart()
    rng = np.random.default_rng(23)
    w = OracleField(ch, 1, {(a,): poly_chain(rng.normal(size=4) + 1j * rng.normal(size=4),
                                             depth=3)
                            for a in range(3)},
                    angular=2.0, axial=math.pi)
    lap = rough_laplacian(w)
    assert (w.depth, lap.depth) == (3, 1)
    with pytest.raises(ValueError):
        rough_laplacian(lap)
    with pytest.raises(ValueError, match="level 2 .*depth 1"):
        lap.dense(ch.at(np.array([0.5])), 2, {})


# ---------------------------------------------------------------------------
# chart tables


def test_frozen_christoffel_values():
    G = chart().at(np.array([1.0])).jet("gam", 0)[0]
    assert G[1, 0, 1][0].real == pytest.approx(GAMMA_TH_R_TH, abs=1e-12)
    assert G[1, 1, 0][0].real == pytest.approx(GAMMA_TH_R_TH, abs=1e-12)
    assert G[0, 1, 1][0].real == pytest.approx(GAMMA_R_TH_TH, abs=1e-12)
    assert G[0, 0, 0][0] == 0


def test_chart_table_keys_and_constant_curvature():
    r = np.array([0.05, 0.3, 0.7, 1.0])
    grid = chart().at(r)

    def nonzero(table, rank):
        return {idx for idx in itertools.product(range(3), repeat=rank)
                if np.any(table[(slice(None),) + idx])}

    gam, low = grid.jet("gam", 3), grid.jet("riem_low", 3)
    assert nonzero(gam, 3) == {(0, 1, 1), (0, 2, 2), (1, 0, 1), (1, 1, 0),
                               (2, 0, 2), (2, 2, 0)}
    assert nonzero(low, 4) == {key for a in range(3) for b in range(3) if a != b
                               for key in ((a, b, a, b), (a, b, b, a))}
    # hyperbolic space form: R_abcd = -(g_ac g_bd - g_ad g_bc), down to the
    # third radial derivative of both sides
    g = metric_field(chart()).dense(grid, 3, {})
    expected = -(leibniz(g[:, :, None, :, None], g[:, None, :, None, :])
                 - leibniz(g[:, :, None, None, :], g[:, None, :, :, None]))
    for k in range(4):
        for idx in itertools.product(range(3), repeat=4):
            assert np.allclose(low[(k,) + idx], expected[(k,) + idx],
                               rtol=1e-12, atol=1e-12), (idx, k)


def _exact_levels(fn, r, depth):
    """Derivatives 0..depth of an mpmath function at the radii, as floats."""
    with mp.workdps(40):
        return np.array([[float(mp.diff(fn, mp.mpf(float(x)), k)) for x in r]
                         for k in range(depth + 1)])


def test_chart_tables_match_closed_forms():
    r = np.linspace(0.05, 1.0, 12)

    def assert_close(got, want):  # relative, with floor 1
        err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
        assert np.max(err) <= 1e-13, np.max(err, axis=-1)

    closed = {(1, 0, 1): mp.coth, (2, 0, 2): mp.tanh,
              (0, 1, 1): lambda x: -mp.sinh(x) * mp.cosh(x),
              (0, 2, 2): lambda x: -mp.sinh(x) * mp.cosh(x)}
    grid = chart().at(r)
    gam = grid.jet("gam", 4)
    for key, fn in closed.items():
        assert_close(gam[(slice(None),) + key], _exact_levels(fn, r, 4))
    assert_close(grid.jet("ginv", 4)[:, 1],
                 _exact_levels(lambda x: 1 / mp.sinh(x) ** 2, r, 4))
    assert RadialProfile.constant(1.0).derivative().is_zero


def test_curvature_action_table_matches_closed_form():
    # curv [:, a, c, b, d] = R_acbd g^cc g^dd = -(g_ab g_cd - g_ad g_cb) g^cc g^dd:
    # -g_aa / g_dd where a = b and c = d, +1 where a = d and c = b (a != c), else 0
    r = np.array([0.05, 0.3, 0.7, 1.0])
    g = (lambda x: mp.mpf(1), lambda x: mp.sinh(x) ** 2, lambda x: mp.cosh(x) ** 2)
    curv = chart().at(r).jet("curv", 3)
    worst = np.zeros(4)
    for a, c, b, d in itertools.product(range(3), repeat=4):
        got = curv[:, a, c, b, d]
        sign = (a == b and c == d) - (a == d and c == b)
        if sign == 0:
            assert np.all(got == 0), (a, c, b, d)
            continue
        want = _exact_levels(lambda x: -sign * g[a](x) / g[d](x), r, 3)
        err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)  # relative, floor 1
        worst = np.maximum(worst, np.max(err, axis=-1))
    # measured 1.1e-16, 6.0e-15, 5.7e-13 and 4.8e-11 by level; the deeper
    # levels peak at r = 0.05, where g^thth is about 400
    assert np.all(worst <= [1e-15, 6e-14, 6e-12, 5e-10]), worst


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is float64 on this platform")
def test_chart_curvature_keeps_digits_near_axis():
    # R_0101 = -sinh^2 r is a difference of terms of size cosh^2 r
    got = chart().at(np.array([0.05])).jet("riem_low", 0)[0, 0, 1, 0, 1, 0]
    want = -float(mp.sinh(mp.mpf(0.05)) ** 2)
    assert abs(got - want) <= 1e-15 * abs(want)


def test_chart_rejects_nonpositive_radius():
    with pytest.raises(DomainError):
        chart().at(np.array([0.0]))
    with pytest.raises(DomainError):
        chart().metric(np.array([0.5, -0.1]))
    with pytest.raises(DomainError):
        chart().metric(np.array([np.nan, 0.5]))


def test_chart_tables_do_not_depend_on_read_order():
    # a table read after a deeper or later-chain one continues the grid's
    # chain; it must equal the table of a grid that built only it, bit for bit
    r = np.array([0.05, 0.4, 1.0])
    names = ("g", "ginv", "gam", "riem_low", "curv")
    for first, then in itertools.product(names, repeat=2):
        grid = chart().at(r)
        grid.jet(first, 1)
        for m in (0, 3):
            want = chart().at(r).jet(then, m)
            assert grid.jet(then, m).tobytes() == want.tobytes(), (first, then, m)


def test_chart_keeps_its_last_grid():
    ch = chart()
    r = np.linspace(0.2, 0.8, 5)
    grid = ch.at(r)
    assert ch.at(r.copy()) is grid and ch.at(list(r)) is grid
    assert ch.at(r[:4]) is not grid
    # the grid holds its own radii, so changing the caller's array is harmless
    r[0] = 0.3
    assert ch.at(r) is not grid and grid.r[0] == 0.2
    # equal charts stay equal whatever grids they keep
    assert ch == chart() and hash(ch) == hash(chart())


def test_quadratures_on_one_support_share_one_chain(monkeypatch):
    calls = []
    levi_civita = oracle._levi_civita

    def counting(*args):
        calls.append(args[2])
        return levi_civita(*args)

    rng = np.random.default_rng(4)
    w = OracleField(chart(), 1, {(a,): c for a, c in enumerate(rand_chains(rng, 3))},
                    angular=2.0, axial=0.0)
    want = tube_norm(covariant_derivative(w), 0.2, 0.8)  # on its own chart
    ch = chart()
    w = OracleField(ch, 1, w.components, angular=2.0, axial=0.0)
    monkeypatch.setattr(oracle, "_levi_civita", counting)
    first = tube_norm(covariant_derivative(w), 0.2, 0.8)
    assert calls == ["gam"]
    second = tube_norm(covariant_derivative(w), 0.2, 0.8)
    assert calls == ["gam"]
    assert first == second == want
    tube_norm(covariant_derivative(w), 0.3, 0.8)
    assert calls == ["gam", "gam"]


def test_chart_requires_circle_model():
    flat = ConeModel(n=4, alpha=math.pi, tube_radius=1.0)
    with pytest.raises(ValueError):
        TubeChart(flat)


def test_ricci_is_negative_multiple_of_metric():
    ch = chart()
    r = np.linspace(0.2, 1.0, 6)
    assert np.max(np.abs(ch.ricci(r) + 2.0 * ch.metric(r))) < 1e-12


def test_metric_inverse_consistency():
    ch = chart()
    r = np.linspace(0.2, 1.0, 6)
    grid = ch.at(r)
    g, ginv = grid.jet("g", 0)[0], grid.jet("ginv", 0)[0]
    assert np.allclose(g * ginv, 1.0)


# ---------------------------------------------------------------------------
# field mechanics


def test_field_rejects_bad_component_index():
    with pytest.raises(ValueError):
        OracleField(chart(), 1, {(0, 1): RadialProfile.constant(1.0)})
    with pytest.raises(ValueError):
        OracleField(chart(), 1, {(4,): RadialProfile.constant(1.0)})


def test_field_addition_requires_matching_mode():
    u = scalar_field(chart(), poly_chain([1.0]), angular=2.0)
    v = scalar_field(chart(), poly_chain([1.0]), angular=3.0)
    with pytest.raises(ValueError):
        u + v


def test_angular_derivatives_are_exact_multiplications():
    u = scalar_field(chart(), poly_chain([0.0, 1.0]), angular=6.0, axial=math.pi)
    r = np.array([0.4])
    # the gradient of a scalar is its coordinate partials
    grad = covariant_derivative(u).values(r)
    assert grad[1, 0] == pytest.approx(6.0j * 0.4)
    assert grad[2, 0] == pytest.approx(1j * math.pi * 0.4)


def test_scalar_multiplication_adds_frequencies():
    u = scalar_field(chart(), poly_chain([1.0]), angular=2.0, axial=1.0)
    w = block_field(chart(), ModeBlock("oneform", "B", ScalarMode(0.0, 1),
                                       {"f": poly_profile("r")}))
    prod = u * w
    assert prod.angular == 2.0 + w.angular
    assert prod.axial == 1.0
    assert prod.rank == 1


def test_evaluate_carries_phase():
    u = scalar_field(chart(), poly_chain([2.0]), angular=4.0)
    val = u.evaluate(np.array([0.5]), theta=0.25)
    assert val[0] == pytest.approx(2.0 * np.exp(1j))


# ---------------------------------------------------------------------------
# covariant derivative basics


def test_gradient_of_constant_scalar_vanishes():
    u = scalar_field(chart(), RadialProfile.constant(3.0))
    D = covariant_derivative(u)
    assert np.max(np.abs(D.values(np.linspace(0.2, 1.0, 5)))) == 0


def test_metric_is_parallel():
    D = covariant_derivative(metric_field(chart()))
    assert np.max(np.abs(D.values(np.linspace(0.1, 1.0, 9)))) < 1e-12


def test_rank_limit_on_covariant_derivative():
    h = metric_field(chart())
    with pytest.raises(ValueError):
        covariant_derivative(covariant_derivative(covariant_derivative(h)))


# ---------------------------------------------------------------------------
# gradient display agreement

ONEFORM_A_BLOCK = ModeBlock("oneform", "A", scalar_mode(2), {
    "f": poly_profile("0.3 + 0.2*r**2"),
    "g": poly_profile("0.1*r - 0.05*r**3"),
    "omega": poly_profile("0.4 - 0.1*r**2"),
})


def test_gradient_display_matches_coordinates_scalar_family():
    ch = chart()
    r = np.linspace(0.2, 0.95, 6)
    sh, co = np.sinh(r), np.cosh(r)
    lam = math.sqrt(AXIAL_LAM)
    D = covariant_derivative(block_field(ch, ONEFORM_A_BLOCK)).values(r)
    G = grad_oneform(MODEL, ONEFORM_A_BLOCK, r)
    pairs = {
        (0, 0): G["er_er"],
        (0, 1): G["er_eth"] * sh,
        (1, 0): G["eth_er"] * sh,
        (1, 1): G["eth_eth"] * sh ** 2,
        (0, 2): G["er_phi"] * 1j * co,
        (2, 0): G["phi_er"] * 1j * co,
        (1, 2): G["eth_phi"] * 1j * sh * co,
        (2, 1): G["phi_eth"] * 1j * sh * co,
        (2, 2): G["metric_trace"] * co ** 2 - G["sym_grad_phi"] * lam * co,
    }
    for idx, expected in pairs.items():
        assert np.max(np.abs(D[idx] - expected)) < 1e-8


def test_gradient_display_matches_coordinates_coclosed_family():
    ch = chart()
    r = np.linspace(0.2, 0.95, 6)
    sh, co = np.sinh(r), np.cosh(r)
    blk = ModeBlock("oneform", "C", CoclosedMode(0.0, 3),
                    {"varpi": poly_profile("0.25 + 0.1*r**2")})
    D = covariant_derivative(block_field(ch, blk)).values(r)
    G = grad_oneform(MODEL, blk, r)
    assert np.max(np.abs(D[0, 2] - G["er_varphi"] * co)) < 1e-8
    assert np.max(np.abs(D[2, 0] - G["varphi_er"] * co)) < 1e-8
    assert np.max(np.abs(D[1, 2] - G["eth_varphi"] * sh * co)) < 1e-8
    # slots with no circle realization stay empty in coordinates
    for idx in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2)):
        assert np.max(np.abs(D[idx])) == 0


def test_curl_display_matches_coordinates():
    ch = chart()
    r = np.linspace(0.2, 0.95, 6)
    sh, co = np.sinh(r), np.cosh(r)
    dv = exterior_d(block_field(ch, ONEFORM_A_BLOCK)).values(r)
    E = ext_d_oneform(MODEL, ONEFORM_A_BLOCK, r)
    assert np.max(np.abs(dv[0, 1] - E["er_eth"] * sh)) < 1e-8
    assert np.max(np.abs(dv[0, 2] - E["er_phi"] * 1j * co)) < 1e-8
    assert np.max(np.abs(dv[1, 2] - E["eth_phi"] * 1j * sh * co)) < 1e-8
    assert np.max(np.abs(dv[0, 1] + dv[1, 0])) == 0


# ---------------------------------------------------------------------------
# operator spot checks


def test_trace_of_symmetrized_gradient():
    rng = np.random.default_rng(7)
    w = OracleField(chart(), 1, {(a,): c for a, c in
                                 enumerate(rand_chains(rng, 3))},
                    angular=2.0, axial=math.pi)
    lhs = trace(delta_star(w))
    rhs = -1.0 * codifferential(w)
    r = np.linspace(0.2, 1.0, 7)
    assert np.max(np.abs(lhs.values(r) - rhs.values(r))) < 1e-10


def test_curvature_action_fixes_tracefree_tensors():
    ch = chart()
    c1 = poly_chain([0.4, 0.1])
    c2 = poly_chain([-0.2, 0.3])
    comps = {
        (0, 0): c1,
        (1, 1): _sh2() * c2,
        (2, 2): -1.0 * (_ch2() * (c1 + c2)),
        (0, 1): poly_chain([0.05, 0.2]),
        (1, 0): poly_chain([0.05, 0.2]),
    }
    h = OracleField(ch, 2, comps, angular=4.0, axial=0.0)
    r = np.linspace(0.2, 1.0, 7)
    assert np.max(np.abs(trace(h).values(r))) < 1e-12
    out = ricci_action(h)
    assert np.max(np.abs(out.values(r) - h.values(r))) < 1e-10


def _sh2():
    return RadialProfile(*[lambda r, k=k: _sh_d(k, r) for k in range(6)])


def _sh_d(k, r):
    r = np.asarray(r, dtype=float)
    # derivatives of sinh^2: alternate 2^j-scaled sinh(2r)/cosh(2r) past k=0
    if k == 0:
        return np.sinh(r).astype(complex) ** 2
    f = np.sinh if k % 2 == 1 else np.cosh
    return (2.0 ** (k - 1) * f(2 * r)).astype(complex)


def _ch2():
    return RadialProfile(*[lambda r, k=k: _ch_d(k, r) for k in range(6)])


def _ch_d(k, r):
    r = np.asarray(r, dtype=float)
    if k == 0:
        return np.cosh(r).astype(complex) ** 2
    f = np.sinh if k % 2 == 1 else np.cosh
    return (2.0 ** (k - 1) * f(2 * r)).astype(complex)


def test_vector_laplacian_shift_matches_rough_laplacian():
    w = block_field(chart(), ONEFORM_A_BLOCK)
    lhs = apply_L_coords(w) - 2.0 * w
    rhs = rough_laplacian(w)
    r = np.linspace(0.2, 1.0, 6)
    assert np.max(np.abs(lhs.values(r) - rhs.values(r))) < 1e-10


def test_operator_rank_guards():
    w = block_field(chart(), ONEFORM_A_BLOCK)
    h = metric_field(chart())
    with pytest.raises(ValueError):
        trace(w)
    with pytest.raises(ValueError):
        delta_star(h)
    with pytest.raises(ValueError):
        bianchi_beta(w)
    with pytest.raises(ValueError):
        d_nabla(covariant_derivative(h))
    with pytest.raises(ValueError):
        delta_nabla(w)
    with pytest.raises(ValueError):
        exterior_d(covariant_derivative(covariant_derivative(w)))
    with pytest.raises(ValueError):
        adjoint_divergence(scalar_field(chart(), poly_chain([1.0])))


def test_gauge_composition_on_single_mode():
    w = block_field(chart(), ONEFORM_A_BLOCK)
    lhs = 2.0 * bianchi_beta(delta_star(w))
    rhs = apply_L_coords(w)
    r = np.linspace(0.2, 1.0, 6)
    scale = np.max(np.abs(rhs.values(r)))
    assert np.max(np.abs(lhs.values(r) - rhs.values(r))) / scale < 1e-12


def test_linearized_operator_is_gauge_annihilated():
    rng = np.random.default_rng(11)
    cs = rand_chains(rng, 6)
    comps = {}
    k = 0
    for a in range(3):
        for b in range(a, 3):
            comps[(a, b)] = cs[k]
            if a != b:
                comps[(b, a)] = cs[k]
            k += 1
    h = OracleField(chart(), 2, comps, angular=4.0, axial=math.pi)
    out = bianchi_beta(linearized_einstein(h))
    r = np.linspace(0.2, 1.0, 7)
    scale = np.max(np.abs(bianchi_beta(rough_laplacian(h)).values(r)))
    assert np.max(np.abs(out.values(r))) / scale < 1e-12


# ---------------------------------------------------------------------------
# block conversions


def test_oneform_round_trip_all_kinds():
    ch = chart()
    r = np.linspace(0.15, 1.0, 8)
    blocks = [
        ONEFORM_A_BLOCK,
        ModeBlock("oneform", "B", ScalarMode(0.0, 2), {
            "f": poly_profile("0.2 + 0.5*r"),
            "g": poly_profile("0.3*r**2"),
        }),
        ModeBlock("oneform", "C", CoclosedMode(0.0, 1),
                  {"varpi": poly_profile("0.7 - 0.2*r")}),
    ]
    for blk in blocks:
        fld = block_field(ch, blk)
        comps = block_components(fld, blk.kind, r)
        for name, vals in comps.items():
            assert np.max(np.abs(vals - blk.component(name)(r))) < 1e-12


def test_tensor_round_trip_all_kinds():
    ch = chart()
    r = np.linspace(0.15, 1.0, 8)
    blocks = [
        ModeBlock("tensor", "A", scalar_mode(1), {
            "f": poly_profile("0.3 + 0.2*r**2"),
            "g": poly_profile("0.1 + 0.05*r**3"),
            "h": poly_profile("0.2*r"),
            "sigma": poly_profile("0.15 - 0.02*r**2"),
            "eta": poly_profile("0.1*r**2"),
            "k1": poly_profile("0.25 + 0.1*r"),
        }),
        ModeBlock("tensor", "B", ScalarMode(0.0, 3), {
            "f": poly_profile("0.4"),
            "g": poly_profile("0.2*r"),
            "h": poly_profile("0.1*r**2"),
            "k1": poly_profile("0.3 - 0.1*r"),
        }),
        ModeBlock("tensor", "C", CoclosedMode(0.0, 2), {
            "sigma_bar": poly_profile("0.3 - 0.1*r**2"),
            "eta_bar": poly_profile("0.2*r"),
        }),
    ]
    for blk in blocks:
        fld = block_field(ch, blk)
        comps = block_components(fld, blk.kind, r)
        for name, vals in comps.items():
            assert np.max(np.abs(vals - blk.component(name)(r))) < 1e-12


def test_block_field_tensor_symmetry():
    blk = ModeBlock("tensor", "A", scalar_mode(1), {
        "h": poly_profile("0.2*r"),
        "sigma": poly_profile("0.1"),
        "eta": poly_profile("0.3*r"),
    })
    vals = block_field(chart(), blk).values(np.linspace(0.2, 1.0, 5))
    assert np.max(np.abs(vals - np.swapaxes(vals, 0, 1))) == 0


def test_unrealizable_components_are_rejected():
    from conemodes.modes import TTMode
    with pytest.raises(ValueError):
        block_field(chart(), ModeBlock("tensor", "D", TTMode(0.0, 1),
                                       {"k4": poly_profile("r")}))
    blk = ModeBlock("tensor", "C", CoclosedMode(0.0, 2), {
        "sigma_bar": poly_profile("0.3"),
        "k3": poly_profile("0.1*r"),
    })
    with pytest.raises(ValueError):
        block_field(chart(), blk)
    # a k3 that vanishes at 0.2a, 0.5a and 0.9a but not in between
    roots = ModeBlock("tensor", "C", CoclosedMode(0.0, 2), {
        "sigma_bar": poly_profile("0.3"),
        "k3": poly_profile("(r - 0.2)*(r - 0.5)*(r - 0.9)"),
    })
    with pytest.raises(ValueError):
        block_field(chart(), roots)
    h = block_field(chart(), ModeBlock("tensor", "B", ScalarMode(0.0, 1),
                                       {"f": poly_profile("r")}))
    with pytest.raises(ValueError):
        block_components(h, "D", np.linspace(0.2, 1.0, 5))


# ---------------------------------------------------------------------------
# radial system equivalence


# fixed per block kind, so every process draws the same cases
KIND_SEEDS = {"A": 101, "B": 202, "C": 303}


def random_profiles(rng, names):
    out = {}
    for name in names:
        coeffs = rng.normal(size=3)
        out[name] = poly_profile(
            f"{coeffs[0]:.6f} + {coeffs[1]:.6f}*r + {coeffs[2]:.6f}*r**2")
    return out


@pytest.mark.parametrize("kind,names", [
    ("A", ("f", "g", "omega")),
    ("B", ("f", "g")),
    ("C", ("varpi",)),
])
def test_oneform_operator_matches_coordinates(kind, names):
    rng = np.random.default_rng(KIND_SEEDS[kind])
    ch = chart()
    r = np.linspace(0.1, 1.0, 12)
    for case in range(3):
        if kind == "A":
            mode = scalar_mode(int(rng.integers(0, 4)), int(rng.integers(1, 3)))
        elif kind == "B":
            mode = ScalarMode(0.0, int(rng.integers(0, 4)))
        else:
            mode = CoclosedMode(0.0, int(rng.integers(0, 4)))
        blk = ModeBlock("oneform", kind, mode, random_profiles(rng, names))
        out = apply_L_coords(block_field(ch, blk))
        comps = block_components(out, kind, r)
        ref = apply_L_oneform(MODEL, blk, r)
        scale = max(np.max(np.abs(v)) for v in ref.values())
        for name in names:
            assert np.max(np.abs(comps[name] - ref[name])) / scale < 1e-8


@pytest.mark.parametrize("kind,names", [
    ("A", ("f", "g", "h", "sigma", "eta", "k1")),
    ("B", ("f", "g", "h", "k1")),
    ("C", ("sigma_bar", "eta_bar")),
])
def test_tensor_operator_matches_coordinates(kind, names):
    rng = np.random.default_rng(KIND_SEEDS[kind] + 1)
    ch = chart()
    r = np.linspace(0.1, 1.0, 12)
    for case in range(3):
        if kind == "A":
            mode = scalar_mode(int(rng.integers(0, 4)), int(rng.integers(1, 3)))
        elif kind == "B":
            mode = ScalarMode(0.0, int(rng.integers(0, 4)))
        else:
            mode = CoclosedMode(0.0, int(rng.integers(0, 4)))
        blk = ModeBlock("tensor", kind, mode, random_profiles(rng, names))
        out = apply_P_coords(block_field(ch, blk))
        comps = block_components(out, kind, r)
        ref = apply_P_tensor(MODEL, blk, r)
        scale = max(np.max(np.abs(v)) for v in ref.values())
        for name in names:
            assert np.max(np.abs(comps[name] - ref[name])) / scale < 1e-8


# ---------------------------------------------------------------------------
# quadrature


def test_distinct_modes_are_orthogonal():
    u = scalar_field(chart(), poly_chain([1.0]), angular=2.0)
    v = scalar_field(chart(), poly_chain([1.0]), angular=4.0)
    zero = tube_inner_product(u, v)
    assert type(zero) is complex and zero == 0


def test_constant_scalar_norm_matches_volume():
    u = scalar_field(chart(), RadialProfile.constant(1.0))
    vol = MODEL.alpha * CS.length * math.sinh(1.0) ** 2 / 2
    assert tube_norm(u) ** 2 == pytest.approx(vol, rel=1e-12)


def test_inner_product_hermitian():
    rng = np.random.default_rng(5)
    ch = chart()
    u = OracleField(ch, 1, {(a,): c for a, c in enumerate(rand_chains(rng, 3))},
                    angular=2.0, axial=0.0)
    v = OracleField(ch, 1, {(a,): c for a, c in enumerate(rand_chains(rng, 3))},
                    angular=2.0, axial=0.0)
    assert tube_inner_product(u, v) == pytest.approx(
        np.conj(tube_inner_product(v, u)), rel=1e-12)


def test_rank_mismatch_in_pairing():
    u = scalar_field(chart(), poly_chain([1.0]))
    with pytest.raises(ValueError):
        tube_inner_product(u, metric_field(chart()))


def test_quadrature_rejects_supports_outside_the_tube():
    u = scalar_field(chart(), poly_chain([1.0, 0.5]))
    v = scalar_field(chart(), poly_chain([1.0]), angular=2.0)
    for inner, outer in ((0.8, 0.2), (0.5, 0.5), (0.2, 3.0), (-0.1, 0.5),
                         (math.nan, 0.5), (1.5, None)):
        with pytest.raises(DomainError):
            tube_inner_product(u, u, inner, outer)
        with pytest.raises(DomainError):
            tube_norm(u, inner, outer)
        with pytest.raises(DomainError):  # also when the modes are orthogonal
            tube_inner_product(u, v, inner, outer)
    assert tube_norm(u, 0.0, 1.0) == tube_norm(u)


def test_shared_memo_never_returns_a_gone_fields_jet():
    # the first field is gone when the second is made; a memo keyed by id()
    # could hand the second the first's jet
    rng = np.random.default_rng(31)
    w = OracleField(chart(), 1, {(a,): c for a, c in enumerate(rand_chains(rng, 3))},
                    angular=2.0, axial=math.pi)
    memo = {}
    tube_norm(delta_star(w), 0.2, 0.8, memo=memo)
    shared = tube_norm(codifferential(w), 0.2, 0.8, memo=memo)
    assert shared == tube_norm(codifferential(w), 0.2, 0.8)
    assert tube_norm(w, 0.2, 0.8, memo=memo) == tube_norm(w, 0.2, 0.8)


def test_memo_serves_one_grid():
    u = scalar_field(chart(), poly_chain([1.0, 0.5]))
    memo = {}
    tube_norm(u, 0.2, 0.8, memo=memo)
    with pytest.raises(ValueError, match="grid"):
        tube_norm(u, 0.3, 0.8, memo=memo)
    with pytest.raises(ValueError, match="grid"):
        tube_inner_product(u, u, 0.2, 0.8, num=80, memo=memo)


# ---------------------------------------------------------------------------
# identity suite


def test_identity_suite_analytic_path():
    report = identity_suite(MODEL, n_cases=10, seed=0)
    names = {row["identity"] for row in report}
    assert {"curvature_action_hyperbolic", "weitzenboeck_oneform",
            "gauge_composition_oneform", "symmetrized_gradient_energy",
            "weitzenboeck_twoform", "laplacian_gauge_commutation",
            "weitzenboeck_tensor_hyperbolic", "linearized_bianchi",
            "trace_intertwine", "adjoint_pairing"} <= names
    for row in report:
        assert row["pass"], row
        assert row["max_rel_residual"] <= 1e-8, row


def test_suites_need_at_least_one_case():
    with pytest.raises(ValueError, match="n_cases"):
        identity_suite(MODEL, n_cases=0)
    with pytest.raises(ValueError, match="n_cases"):
        energy_ratios(chart(), np.random.default_rng(0), 0)


def test_identity_suite_report_serializes():
    report = identity_suite(MODEL, n_cases=2, seed=1)
    text = json.dumps(report)
    back = json.loads(text)
    assert all(set(row) == {"identity", "n_cases", "max_rel_residual", "pass"}
               for row in back)


def test_identity_suite_builds_one_chart_per_grid(monkeypatch):
    # one chart value for the pointwise grid, one per quadrature call
    counts = {"at": 0, "quadrature": 0}
    at, quadrature = TubeChart.at, oracle.tube_inner_product

    def counting_at(self, r):
        counts["at"] += 1
        return at(self, r)

    def counting_quadrature(*args, **kwargs):
        counts["quadrature"] += 1
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(TubeChart, "at", counting_at)
    monkeypatch.setattr(oracle, "tube_inner_product", counting_quadrature)
    identity_suite(MODEL, n_cases=2)
    assert counts["quadrature"] > 0
    assert counts["at"] == 1 + counts["quadrature"]
    # the benchmark's set-up call: one Python float radius
    g = TubeChart(MODEL).metric(0.5)
    assert g.shape == (3, 3)
    assert g[1, 1] == pytest.approx(math.sinh(0.5) ** 2, rel=1e-15)


def test_positivity_margin_on_bump_tensors():
    ratios = energy_ratios(TubeChart(MODEL), np.random.default_rng(2), 10)
    assert len(ratios) == 10
    assert min(ratios) >= MODEL.n - 2
