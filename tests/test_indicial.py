import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conemodes.frobenius import admissible_branches
from conemodes.geometry import ConeModel
from conemodes.indicial import (
    SOLUTION_CLASSES,
    angle_admissibility,
    classify_exponent,
    closed_root_multiset,
    exact_indicial_analysis,
    indicial_report,
    indicial_report_at,
    root_table_rows,
    system_for_mode,
)
from conemodes.modes import CoclosedMode, ScalarMode, TTMode, circle_spectrum
from conemodes.geometry import CrossSection
from conemodes.reduction import (
    _frame,
    component_weights,
    mode_kind,
    oneform_system,
    system_names,
    tensor_system,
    theta_coupling,
)


def model_with_gamma(gamma, n=3, a=1.0):
    return ConeModel(n=n, alpha=2 * math.pi / gamma, tube_radius=a)


def shifted_w0(system, kappa):
    """W0 - kappa^2 I, framed, with W0 the leading Laurent matrix of r^2 V."""
    return system.laurent_potential(1)[0] - kappa ** 2 * np.eye(system.arity)


def vector_direction_matches(v, expected):
    v = np.asarray(v, dtype=complex)
    e = np.asarray(expected, dtype=complex)
    return abs(abs(np.vdot(e, v)) - np.linalg.norm(v) * np.linalg.norm(e)) < 1e-9


# ---------------------------------------------------------------------------
# frozen root structure


def test_oneform_roots_quarter_turn():
    model = model_with_gamma(4.0)
    system = oneform_system(model, ScalarMode(2.0, 1))
    report = indicial_report(system)
    values = sorted(r.value for r in report.roots)
    assert values == pytest.approx([-5, -4, -3, 3, 4, 5])
    assert all(r.multiplicity == 1 for r in report.roots)
    assert not report.has_log_root
    assert vector_direction_matches(report.root(5.0).vectors[0], [1, -1j, 0])
    assert vector_direction_matches(report.root(3.0).vectors[0], [1, 1j, 0])
    assert vector_direction_matches(report.root(4.0).vectors[0], [0, 0, 1])


def test_tensor_roots_quarter_turn():
    model = model_with_gamma(4.0, n=4)
    system = tensor_system(model, ScalarMode(2.0, 1))
    report = indicial_report(system)
    values = sorted(r.value for r in report.roots)
    assert values == pytest.approx([-6, -5, -4, -3, -2, 2, 3, 4, 5, 6])
    assert report.root(4.0).multiplicity == 3
    assert report.root(4.0).nullity == 3
    assert vector_direction_matches(report.root(6.0).vectors[0],
                                    [-1, 1, 2j, 0, 0, 0, 0])
    assert vector_direction_matches(report.root(2.0).vectors[0],
                                    [1, -1, 2j, 0, 0, 0, 0])
    assert vector_direction_matches(report.root(5.0).vectors[0],
                                    [0, 0, 0, 1, -1j, 0, 0])
    assert vector_direction_matches(report.root(3.0).vectors[0],
                                    [0, 0, 0, 1, 1j, 0, 0])
    assert not report.has_log_root


def test_log_at_full_turn_oneform():
    model = model_with_gamma(1.0)  # alpha = 2 pi
    report = indicial_report(oneform_system(model, ScalarMode(1.5, 1)))
    zero = report.root(0.0)
    assert zero.multiplicity == 2 and zero.nullity == 1
    assert zero.log_required
    assert vector_direction_matches(zero.vectors[0], [1, 1j, 0])
    minus = indicial_report(oneform_system(model, ScalarMode(1.5, -1)))
    assert vector_direction_matches(minus.root(0.0).vectors[0], [1, -1j, 0])
    assert not minus.root(2.0).log_required


def test_log_axisymmetric_oneform():
    model = model_with_gamma(4.0)
    report = indicial_report(oneform_system(model, ScalarMode(2.0, 0)))
    zero = report.root(0.0)
    assert zero.log_required and zero.multiplicity == 2
    assert vector_direction_matches(zero.vectors[0], [0, 0, 1])
    one = report.root(1.0)
    assert one.multiplicity == 2 and one.nullity == 2
    assert not one.log_required


def test_no_log_at_half_frequency():
    model = model_with_gamma(0.5)  # alpha = 4 pi, t = 1/2
    report = indicial_report(oneform_system(model, ScalarMode(2.0, 1)))
    assert not report.has_log_root
    half = report.root(0.5)
    assert half.multiplicity == 2 and half.nullity == 2


def test_log_coclosed_oneform_axisymmetric():
    model = model_with_gamma(4.0)
    report = indicial_report(oneform_system(model, CoclosedMode(0.0, 0)))
    assert report.root(0.0).log_required


def test_tensor_log_locus_small_frequencies():
    for gamma, p, want_log in [(1.0, 1, True), (2.0, 1, True), (4.0, 1, False),
                               (0.5, 1, False), (4.0, 0, True)]:
        model = model_with_gamma(gamma, n=4)
        report = indicial_report(tensor_system(model, ScalarMode(2.0, p)))
        assert report.has_log_root == want_log, (gamma, p)
        if want_log:
            assert report.root(0.0).log_required


def test_tensor_axisymmetric_multiplicities():
    model = model_with_gamma(4.0, n=4)
    report = indicial_report(tensor_system(model, ScalarMode(2.0, 0)))
    zero = report.root(0.0)
    assert zero.multiplicity == 6
    assert zero.nullity == 3
    assert zero.log_required
    one = report.root(1.0)
    assert one.multiplicity == 2 and one.nullity == 2 and not one.log_required
    span = np.array([v for v in zero.vectors])
    # kernel holds the trace pair direction and both trace-slot directions
    for expected in ([1, 1, 0, 0, 0, 0, 0],
                     [0, 0, 0, 0, 0, 1, 0],
                     [0, 0, 0, 0, 0, 0, 1]):
        e = np.asarray(expected, complex)
        e = e / np.linalg.norm(e)
        proj = span.conj() @ e
        assert np.linalg.norm(span.T @ proj - e) < 1e-9


def test_tensor_coclosed_trace_slot_controls_log():
    with_slot = model_with_gamma(4.0, n=4)
    report = indicial_report(tensor_system(with_slot, CoclosedMode(1.0, 0)))
    assert report.names == ("sigma_bar", "eta_bar", "k3")
    assert report.root(0.0).log_required
    without = model_with_gamma(4.0, n=3)
    report2 = indicial_report(tensor_system(without, CoclosedMode(0.0, 0)))
    assert report2.names == ("sigma_bar", "eta_bar")
    assert not report2.has_log_root
    assert report2.root(1.0).multiplicity == 2
    assert report2.root(1.0).nullity == 2


def test_tensor_tt_log():
    model = model_with_gamma(4.0, n=4)
    report = indicial_report(tensor_system(model, TTMode(1.0, 0)))
    assert report.root(0.0).log_required
    report2 = indicial_report(tensor_system(model, TTMode(1.0, 1)))
    assert not report2.has_log_root


# ---------------------------------------------------------------------------
# determinant and residual cross-validation


@given(st.floats(min_value=0.2, max_value=5.0),
       st.integers(min_value=-3, max_value=3),
       st.floats(min_value=0.1, max_value=9.0))
@settings(max_examples=30, deadline=None)
def test_det_factorizes_over_closed_multiset(gamma, p, lam):
    model = model_with_gamma(gamma, n=4)
    system = tensor_system(model, ScalarMode(lam, p))
    t = p * gamma
    offsets = [0, 2, -2, 1, -1, 0, 0]
    for kappa in (0.37, 1.91, 5.5):
        det = np.linalg.det(shifted_w0(system, kappa))
        expected = np.prod([(t + o) ** 2 - kappa ** 2 for o in offsets])
        scale = max(abs(expected), 1.0)
        assert abs(det - expected) < 1e-8 * scale


def test_root_vector_residual_sweep():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(3, 6))
        gamma = float(rng.uniform(0.3, 6.0))
        p = int(rng.integers(-3, 4))
        model = model_with_gamma(gamma, n=n)
        pick = rng.integers(0, 4)
        if pick == 0:
            system = oneform_system(model, ScalarMode(float(rng.uniform(0.1, 8)), p))
        elif pick == 1:
            system = oneform_system(model, CoclosedMode(float(rng.uniform(0, 5)), p))
        elif pick == 2:
            system = tensor_system(model, ScalarMode(float(rng.uniform(0.1, 8)), p))
        else:
            system = tensor_system(model, CoclosedMode(float(rng.uniform(0.1, 5)), p))
        report = indicial_report(system)
        assert sum(r.multiplicity for r in report.roots) == 2 * system.arity
        for root in report.roots:
            m = shifted_w0(system, root.value)  # in the real frame
            for v in root.vectors:
                res = np.linalg.norm(m @ (system.frame * np.asarray(v)))
                assert res < 1e-10 * max(1.0, np.linalg.norm(m))
                checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# exact rational certification


def predicted_log(family, kind, names, t: Fraction) -> bool:
    at = abs(t)
    if family == "oneform":
        if kind == "A":
            return at in (0, 1)
        if kind == "B":
            return at == 1
        return at == 0
    if kind == "A":
        return at in (0, 1, 2)
    if kind == "B":
        # no cross-term pair at zero eigenvalue, so |t| = 1 stays log-free
        return at in (0, 2)
    if kind == "C":
        return at == 1 or (at == 0 and "k3" in names)
    return at == 0


EXACT_BLOCKS = [
    ("oneform", "A", ("f", "g", "omega")),
    ("oneform", "B", ("f", "g")),
    ("oneform", "C", ("varpi",)),
    ("tensor", "A", ("f", "g", "h", "sigma", "eta", "k1", "k2")),
    ("tensor", "A", ("f", "g", "h", "sigma", "eta", "k1")),
    ("tensor", "B", ("f", "g", "h", "k1")),
    ("tensor", "C", ("sigma_bar", "eta_bar", "k3")),
    ("tensor", "C", ("sigma_bar", "eta_bar")),
    ("tensor", "D", ("k4",)),
]


@pytest.mark.parametrize("family,kind,names", EXACT_BLOCKS)
def test_exact_log_grid(family, kind, names):
    for num in range(-18, 19):
        t = Fraction(num, 6)
        rows = exact_indicial_analysis(family, kind, names, t)
        has_log = any(log for _, _, _, log in rows)
        assert has_log == predicted_log(family, kind, names, t), (family, kind, t)
        for kappa, mult, nullity, log in rows:
            assert nullity >= 1
            assert nullity <= mult
            assert log == (nullity < mult)
            if log:
                assert kappa == 0


def test_exact_matches_float_path():
    gamma = Fraction(3, 2)
    model = model_with_gamma(float(gamma), n=4)
    for p in (-2, -1, 0, 1, 2):
        system = tensor_system(model, ScalarMode(1.0, p))
        report = indicial_report(system)
        exact = exact_indicial_analysis("tensor", "A", system.names, p * gamma)
        assert len(exact) == len(report.roots)
        for (kappa, mult, nullity, log), root in zip(exact, report.roots):
            assert float(kappa) == pytest.approx(root.value, abs=1e-12)
            assert mult == root.multiplicity
            assert nullity == root.nullity
            assert log == root.log_required


def _exact_coupling(family, names):
    return [[Fraction(int(x)) for x in row] for row in theta_coupling(family, names)]


@pytest.mark.parametrize("family,kind,names", EXACT_BLOCKS)
def test_theta_coupling_has_the_offsets_as_eigenvalues(family, kind, names):
    """O is diagonalizable over Q with eigenvalues `_OFFSETS`: O - oI has
    rank k - count(o) for each offset o, and these nullities add up to k."""
    from conemodes.indicial import _OFFSETS, _rank
    offsets, k = _OFFSETS[(family, kind)](names), len(names)
    O = _exact_coupling(family, names)
    assert len(offsets) == k
    for o in set(offsets):
        shifted = [[x - o if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(O)]
        assert _rank(shifted) == k - offsets.count(o), o


@pytest.mark.parametrize("family,kind,names", EXACT_BLOCKS)
def test_eigenbasis_diagonalizes_theta_coupling(family, kind, names):
    """V diag(o) V^-1 is O; w O is symmetric (w the component weights), so
    V^T w V is block-diagonal by offset; and every report names its vectors
    bitwise from V's columns: E(o) is the last count(o) right singular
    vectors of O - oI, times conj(d)."""
    from conemodes.frobenius import _eigenbasis_inverse
    from conemodes.indicial import _eigenbasis
    offsets, V = _eigenbasis(family, kind, names)
    V_inv = _eigenbasis_inverse(family, kind, names)
    O, k = theta_coupling(family, names), len(names)
    assert np.max(np.abs(V @ np.diag(offsets) @ V_inv - O)) <= 1e-15
    gram = V.T @ (component_weights(family, names)[:, None] * V)
    assert np.max(np.abs(gram[offsets[:, None] != offsets]), initial=0.0) <= 1e-15
    for t in (0.0, 0.5, 1.0, 1.3, 2.0, -1.5):  # roots meet at the half-integers
        for root in indicial_report_at(family, kind, names, t).roots:
            named = [tuple(complex(x) for x in v)
                     for o in dict.fromkeys(o for _, o in root.labels)
                     for v in np.linalg.svd(O - o * np.eye(k))[2][k - list(offsets).count(o):]
                     * _frame(family, names).conj()]
            assert repr(root.vectors) == repr(tuple(named)), (t, root.value)


@pytest.mark.parametrize("family,kind,names", EXACT_BLOCKS)
def test_exact_w0_is_the_square_of_t_plus_theta_coupling(family, kind, names):
    from conemodes.indicial import _exact_w0
    O, k = _exact_coupling(family, names), len(names)
    for num in range(-18, 19):
        t = Fraction(num, 6)
        M = [[x + t if i == j else x for j, x in enumerate(row)] for i, row in enumerate(O)]
        square = [[sum(M[i][m] * M[m][j] for m in range(k)) for j in range(k)]
                  for i in range(k)]
        assert _exact_w0(family, kind, names, t) == square, t


@pytest.mark.parametrize("family,kind,names", EXACT_BLOCKS)
def test_exact_w0_matches_series_w0(family, kind, names):
    from conemodes.indicial import _exact_w0
    # n = 4 admits k2, k3 (at mu = 0) and a trace-free transverse block
    n = 4 if {"k2", "k3", "k4"} & set(names) else 3
    eig = {"A": 2.0, "B": 0.0, "C": 0.0, "D": 3.0}[kind]
    for gamma in (Fraction(4, 3), Fraction(1), Fraction(5, 2)):
        model = model_with_gamma(float(gamma), n=n)
        for p in (-2, -1, 0, 1, 2):
            mode = {"A": ScalarMode, "B": ScalarMode, "C": CoclosedMode,
                    "D": TTMode}[kind](eig, p)
            system = system_for_mode(model, mode, family)
            assert system.names == names
            # both in the real frame
            w0 = system.laurent_potential(1)[0]
            exact_np = np.array(_exact_w0(family, kind, system.names, p * gamma),
                                dtype=float)
            assert np.max(np.abs(w0 - exact_np)) < 1e-12, (gamma, p)


@pytest.mark.parametrize("family,kind,names", EXACT_BLOCKS)
def test_exact_rank_matches_sympy(family, kind, names):
    """The Fraction elimination against sympy's rank of the named
    W0 - kappa^2 I over Q(i), at every t in [-2, 2] with denominator 1, 2 or
    6: roots meet only at half-integers |t| <= 2, the offsets being at most 2.
    The named W0 is conj(D) W D of the framed one, d_j = i on the theta-odd
    components."""
    import sympy as sp

    from conemodes.indicial import _exact_w0
    odd = {"oneform": ("g",), "tensor": ("h", "eta", "eta_bar")}[family]
    D = sp.diag(*[sp.I if nm in odd else 1 for nm in names])
    for t in sorted({Fraction(num, den) for den in (1, 2, 6)
                     for num in range(-2 * den, 2 * den + 1)}):
        framed = sp.Matrix(_exact_w0(family, kind, names, t))
        w0, k = D.conjugate() * framed * D, len(names)
        want = []
        for kappa, mult in sorted(Counter(closed_root_multiset(family, kind, names, t)).items(),
                                  reverse=True):
            nullity = k - (w0 - sp.Rational(kappa.numerator, kappa.denominator) ** 2
                           * sp.eye(k)).rank()
            want.append((kappa, mult, nullity, nullity < mult))
        assert exact_indicial_analysis(family, kind, names, t) == want, t


def _reference_roots(family, kind, names, t):
    """The report spelled out from the closed multiset: (repr of the value,
    labels, vectors, multiplicity) per distinct exponent at the snapped t,
    descending; the labels are the (sign, o) whose exponent equals the
    value, and the vectors E(o) over their distinct o, in `_OFFSETS` order."""
    from conemodes.indicial import _OFFSETS
    from conemodes.reduction import _snap
    ts, offsets = _snap(t), _OFFSETS[(family, kind)](names)
    O, k, frame = theta_coupling(family, names), len(names), _frame(family, names).conj()
    out = []
    for value, mult in sorted(Counter(closed_root_multiset(family, kind, names, ts)).items(),
                              reverse=True):
        labels = tuple((sign, o) for o in offsets for sign in (1, -1)
                       if sign * (ts + o) == value)
        vectors = tuple(tuple(complex(x) for x in v)
                        for o in dict.fromkeys(o for _, o in labels)
                        for v in np.linalg.svd(O - o * np.eye(k))[2][k - offsets.count(o):]
                        * frame)
        out.append((repr(float(value)), labels, vectors, mult))
    return out


def _equivalence_ts():
    """Random t, 0, negatives, half-integers, and half-integers just inside
    and just outside the merge window."""
    rng = np.random.default_rng(32)
    halves = [h / 2 for h in range(-9, 10)]
    return ([0.0, -0.0, -1.0, -2.3, -3.75] + list(rng.uniform(-5.0, 5.0, 40)) + halves
            + [h + sign * eps for h in halves for sign in (1, -1)
               for eps in (1e-15, 1e-12, 5e-10, 3e-9)])


def test_equivalence_blocks_cover_every_circle_key_and_k2_k3():
    """`EXACT_BLOCKS` holds every report key a circle spectrum reaches, and
    the n = 4 keys with k2 and k3."""
    keys = set()
    model = ConeModel(3, 1.3, 1.0, CrossSection("circle", 1.0))
    for family in ("oneform", "tensor"):
        for mode in circle_spectrum(model, 3, 2):
            system = system_for_mode(model, mode, family)
            keys.add((family, system.kind, system.names))
    assert keys <= set(EXACT_BLOCKS)
    assert {names for _, _, names in EXACT_BLOCKS} >= {
        ("f", "g", "h", "sigma", "eta", "k1", "k2"), ("sigma_bar", "eta_bar", "k3")}


@pytest.mark.parametrize("family,kind,names", EXACT_BLOCKS)
def test_report_equals_the_spelled_out_rule(family, kind, names):
    """`indicial_report_at` gives the reference roots bit for bit, zero's
    sign included; `exact_indicial_analysis` gives the multiplicities of
    the Fraction multiset."""
    for t in _equivalence_ts():
        roots = indicial_report_at(family, kind, names, float(t)).roots
        want = _reference_roots(family, kind, names, float(t))
        got = [(repr(r.value), r.labels, r.vectors, r.multiplicity) for r in roots]
        assert got == want, t
        for root, (_, labels, vectors, mult) in zip(roots, want):
            assert root.multiplicity == len(labels) == mult
            assert root.nullity == len(vectors)
            assert root.log_required == (len(vectors) < mult)
    for num in range(-30, 31):
        t = Fraction(num, 6)
        want = sorted(Counter(closed_root_multiset(family, kind, names, t)).items(),
                      reverse=True)
        got = [(kappa, mult) for kappa, mult, _, _ in
               exact_indicial_analysis(family, kind, names, t)]
        assert got == want, t


@pytest.mark.parametrize("alpha", [2 * math.pi * (1 - 1e-15), 2 * math.pi * (1 + 1e-15),
                                   math.pi * (1 - 1e-15)])
def test_float_and_exact_tables_agree_near_half_integer_t(alpha):
    """A few ulps off a half-integer t, the float report merges roots that
    are distinct at the binary t; the certificate snaps t as the report does."""
    model = ConeModel(3, alpha, 1.0, CrossSection("circle", 1.0))
    for family in ("oneform", "tensor"):
        for mode in circle_spectrum(model, 1, 2):
            system = system_for_mode(model, mode, family)
            got = [(r.multiplicity, r.nullity, r.log_required)
                   for r in indicial_report(system).roots]
            exact = exact_indicial_analysis(family, system.kind, system.names,
                                            Fraction(mode.p * system.gamma))
            assert got == [(mult, nullity, log) for _, mult, nullity, log in exact], \
                (family, mode)


def test_w0_depends_only_on_the_report_key():
    """Equal (family, kind, names, t) give bitwise equal W0 whatever the
    eigenvalue and n: the premise on which a sweep shares one report per key."""
    by_key = {}
    for n in (3, 4, 5):
        for gamma in (0.7, 1.0, 4.0 / 3.0, 2.5):
            model = model_with_gamma(gamma, n=n)
            for p in range(-3, 4):
                for eig in (0.0, 1.0, 2.5, 4 * math.pi ** 2):
                    for mode in (ScalarMode(eig, p), CoclosedMode(eig, p), TTMode(eig, p)):
                        for family in ("oneform", "tensor"):
                            if family == "oneform" and isinstance(mode, TTMode):
                                continue
                            system = system_for_mode(model, mode, family)
                            kind = mode_kind(mode, family)
                            assert (kind, system_names(family, n, mode)) == \
                                (system.kind, system.names)
                            key = (family, kind, system.names, p * model.gamma)
                            by_key.setdefault(key, []).append(
                                system.laurent_potential(1)[0])
    shared = [w0s for w0s in by_key.values() if len(w0s) > 1]
    assert len(shared) > 100
    for w0s in shared:
        assert all(np.array_equal(w0, w0s[0]) and
                   np.array_equal(np.signbit(w0), np.signbit(w0s[0]))
                   for w0 in w0s)


def test_roots_of_equal_square_share_null_vectors():
    # +kappa and -kappa carry the labels (1, o) and (-1, o) of one o, so both
    # get the eigenspace E(o) of O
    model = ConeModel(n=4, alpha=1.3, tube_radius=1.0)
    for system in (system_for_mode(model, ScalarMode(2.0, 1), "tensor"),
                   system_for_mode(model, CoclosedMode(0.0, 1), "oneform")):
        report = indicial_report(system)
        pairs = [(root, report.root(-root.value, tol=0.0))
                 for root in report.roots if root.value > 0]
        assert len(pairs) == len(report.roots) // 2 > 0
        for plus, minus in pairs:
            assert plus.value ** 2 == minus.value ** 2
            assert plus.nullity > 0
            assert minus.vectors == plus.vectors


CRITICAL = sorted({Fraction(q, m) for m in range(1, 7) for q in range(1, 3 * m + 1)})


@given(st.sampled_from(CRITICAL), st.integers(min_value=-4, max_value=4),
       st.floats(min_value=-1e-9, max_value=1e-9),
       st.sampled_from([(ScalarMode, 0.0), (ScalarMode, 2.0), (CoclosedMode, 0.0),
                        (CoclosedMode, 1.0), (TTMode, 1.0)]),
       st.sampled_from(["oneform", "tensor"]), st.sampled_from([3, 4]))
@settings(max_examples=200, deadline=None)
def test_reports_near_critical_angles_match_certificate(turns, p, eps, shape, family, n):
    """Within a relative 1e-9 of a critical angle 2 pi q / m, every root keeps
    a null vector, the float report agrees with the exact certificate, and
    the branch count agrees with the branches the solver is handed."""
    mode_type, eig = shape
    assume(not (family == "oneform" and mode_type is TTMode))
    mode = mode_type(eig, p)
    model = ConeModel(n=n, alpha=2 * math.pi * float(turns) * (1 + eps), tube_radius=1.0)
    system = system_for_mode(model, mode, family)
    report = indicial_report(system)
    assert all(root.nullity >= 1 for root in report.roots)
    exact = exact_indicial_analysis(family, system.kind, system.names,
                                    Fraction(p * system.gamma))
    assert [(mult, nullity, log) for _, mult, nullity, log in exact] == \
        [(r.multiplicity, r.nullity, r.log_required) for r in report.roots]
    assert [float(k) for k, *_ in exact] == pytest.approx([r.value for r in report.roots])
    for cls in SOLUTION_CLASSES:
        assert angle_admissibility(model, mode, family, cls)["count"] == \
            len(admissible_branches(system, cls))


@pytest.mark.parametrize("eps", [3e-9, 5e-9, 8e-9, 1e-8, 2e-8, 5e-8])
@pytest.mark.parametrize("sign", [1, -1])
def test_reports_at_the_edge_of_the_merge_window(eps, sign):
    """On both sides of the merge tolerance near t = 1/2, 1 and 3/2, the
    null spaces match the certificate: merged roots keep their vectors, and
    roots just too far apart to merge get one vector each, not their
    neighbour's as well."""
    for alpha, p in ((4 * math.pi, 1), (2 * math.pi, 1), (4 * math.pi / 3, 1)):
        model = ConeModel(n=3, alpha=alpha * (1 + sign * eps), tube_radius=1.0)
        for mode in (ScalarMode(2.0, p), ScalarMode(0.0, p), CoclosedMode(0.0, p)):
            for family in ("oneform", "tensor"):
                system = system_for_mode(model, mode, family)
                exact = exact_indicial_analysis(family, system.kind, system.names,
                                                Fraction(p * system.gamma))
                got = [(r.multiplicity, r.nullity) for r in indicial_report(system).roots]
                assert got == [(mult, nullity) for _, mult, nullity, _ in exact], \
                    (alpha, family, mode)


# ---------------------------------------------------------------------------
# branch classification


def test_classify_exponent_table():
    assert classify_exponent(-0.5, False) == {"l2": True, "l12": False, "strong": False}
    assert classify_exponent(0.0, True) == {"l2": True, "l12": False, "strong": False}
    assert classify_exponent(0.0, False) == {"l2": True, "l12": True, "strong": True}
    assert classify_exponent(-1.0, False)["l2"] is False
    assert classify_exponent(0.5, False) == {"l2": True, "l12": True, "strong": False}
    assert classify_exponent(1.0, False)["strong"] is True
    assert classify_exponent(1.0, True)["strong"] is False
    assert classify_exponent(2.5, True)["strong"] is True


def test_admissibility_narrow_angle_all_branches():
    model = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0)
    out = angle_admissibility(model, ScalarMode(2.0, 1), "oneform", "strong")
    assert out["count"] == out["arity"] == 3
    assert out["deficit"] == 0
    report = indicial_report(oneform_system(model, ScalarMode(2.0, 1)))
    positive = sorted(r.value for r in report.roots if r.value > 0)
    assert positive[0] == pytest.approx(3.0)


def test_admissibility_wide_angle_deficit():
    model = ConeModel(n=3, alpha=3 * math.pi / 2, tube_radius=1.0)
    strong = angle_admissibility(model, ScalarMode(2.0, 1), "oneform", "strong")
    assert strong["deficit"] == 1
    kappas = [b["kappa"] for b in strong["branches"]]
    assert pytest.approx(1 / 3) not in kappas
    l12 = angle_admissibility(model, ScalarMode(2.0, 1), "oneform", "l12")
    assert l12["deficit"] == 0
    assert any(abs(b["kappa"] - 1 / 3) < 1e-12 for b in l12["branches"])
    l2 = angle_admissibility(model, ScalarMode(2.0, 1), "oneform", "l2")
    assert l2["deficit"] == -1  # extra branch in (-1, 0): non-uniqueness


def test_admissibility_full_turn_log():
    model = ConeModel(n=3, alpha=2 * math.pi, tube_radius=1.0)
    out = angle_admissibility(model, ScalarMode(2.0, 1), "oneform", "strong")
    assert out["has_log_root"]


ULP_MODES = [ScalarMode(0.0, p) for p in (-1, 0, 1, 2)] + [
    ScalarMode(4.0, 1), CoclosedMode(0.0, 1), CoclosedMode(0.0, 2), TTMode(1.0, 1)]


def admissibility_counts(alpha):
    model = ConeModel(n=3, alpha=alpha, tube_radius=1.0)
    return [angle_admissibility(model, mode, family, cls)["count"]
            for family in ("tensor", "oneform") for mode in ULP_MODES
            if not (family == "oneform" and isinstance(mode, TTMode))
            for cls in SOLUTION_CLASSES]


@pytest.mark.parametrize("k", [-4, -3, -2, -1, 1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_branch_counts_survive_ulp_changes_of_angle(m, k):
    alpha = 2 * math.pi / m
    assert admissibility_counts(alpha * (1 + k * np.finfo(float).eps)) == \
        admissibility_counts(alpha)
    if m == 1:
        # the triple roots at +-1 of ScalarMode(0, 1) count in full
        model = ConeModel(n=3, alpha=alpha * (1 + k * np.finfo(float).eps),
                          tube_radius=1.0)
        assert [angle_admissibility(model, ScalarMode(0.0, 1), fam)["count"]
                for fam in ("tensor", "oneform")] == [4, 2]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("alpha", [0.8, math.pi / 2, 2 * math.pi / 3, math.pi, 2 * math.pi,
                                   2 * math.pi * (1 + 1e-12), 5.0, 4 * math.pi])
def test_admissibility_counts_the_branches_the_solver_gets(alpha, n):
    # both read `IndicialRoot.branches`, logs at kappa = 0 included
    model = ConeModel(n=n, alpha=alpha, tube_radius=1.0)
    for family in ("tensor", "oneform"):
        for mode in ULP_MODES:
            if family == "oneform" and isinstance(mode, TTMode):
                continue
            system = system_for_mode(model, mode, family)
            for cls in SOLUTION_CLASSES:
                assert angle_admissibility(model, mode, family, cls)["count"] == \
                    len(admissible_branches(system, cls)), (family, mode, cls)


def test_admissibility_builds_no_mode_system(monkeypatch):
    # kind, names and the report key are read off the mode, as the root
    # tables read them, so the bookkeeping builds no pencil
    from conemodes import indicial, reduction

    model = ConeModel(n=3, alpha=1.3, tube_radius=1.0)
    systems = {(family, mode): system_for_mode(model, mode, family)
               for family in ("tensor", "oneform") for mode in ULP_MODES
               if not (family == "oneform" and isinstance(mode, TTMode))}

    def refuse(*args, **kwargs):
        raise AssertionError("angle_admissibility built a mode system")

    for module in (indicial, reduction):
        for name in ("oneform_system", "tensor_system"):
            monkeypatch.setattr(module, name, refuse)
    for (family, mode), system in systems.items():
        for cls in SOLUTION_CLASSES:
            got = angle_admissibility(model, mode, family, cls)
            assert (got["kind"], got["arity"]) == (system.kind, system.arity)
            assert got["count"] == len(admissible_branches(system, cls))


def test_reports_compute_no_inverse(monkeypatch):
    # V^-1 is the recursion's alone: with every eigenbasis built afresh,
    # neither a report nor the angle sweep inverts a matrix
    from conemodes import indicial
    from conemodes.indicial import angle_sweep_rows

    def refuse(*args, **kwargs):
        raise AssertionError("an indicial report computed an inverse")

    indicial._eigenbasis.cache_clear()
    indicial._vectors.cache_clear()
    monkeypatch.setattr(np.linalg, "inv", refuse)
    for family, kind, names in EXACT_BLOCKS:
        assert indicial_report_at(family, kind, names, 1.5).roots
    model = ConeModel(n=3, alpha=1.3, tube_radius=1.0,
                      cross_section=CrossSection("circle", 1.0))
    modes = circle_spectrum(model, m_max=1, p_max=2)
    assert angle_sweep_rows(model, modes, ("oneform", "tensor"), [0.7, 2.0, 6.0])[1]


def test_admissibility_rejects_unknown_class():
    model = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0)
    with pytest.raises(ValueError):
        angle_admissibility(model, ScalarMode(2.0, 1), "oneform", "sobolev")


def test_admissible_pairs_have_vectors():
    model = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0)
    branches = admissible_branches(tensor_system(model, ScalarMode(2.0, 1)),
                                   "strong")
    assert [kind for kind, _, _ in branches] == ["power"] * 6
    for _, kappa, vec in branches:
        assert kappa >= 1 or kappa == 0
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# tables and symmetry


def test_root_tables_build_no_laurent_tables(monkeypatch):
    # the indicial matrix is read off the pencil, so a root table builds no
    # exact series table, not even a one-term one
    from conemodes import geometry, reduction

    built = []
    terms = geometry._series_terms

    def counted(a, b, start, stop):
        built.append((a, b, start, stop))
        return terms(a, b, start, stop)

    monkeypatch.setattr(geometry, "_SERIES_TABLES", {})
    monkeypatch.setattr(geometry, "_series_terms", counted)
    reduction._basis_series.cache_clear()
    modes = [ScalarMode(0.0, 0), ScalarMode(2.0, 1), CoclosedMode(1.0, -1),
             TTMode(1.0, 2)]
    for n in (3, 4):
        model = ConeModel(n=n, alpha=1.3, tube_radius=1.0)
        for family in ("oneform", "tensor"):
            _, rows = root_table_rows(model, modes, family)
            assert rows
    assert built == []


def test_format_vector_prints_zero_parts_unsigned():
    from conemodes.indicial import _format_vector
    v = (complex(-0.0, -0.0), complex(0.5, -0.0), complex(-0.0, 0.25), -1j)
    assert _format_vector(v) == "0+0j|0.5+0j|0+0.25j|0-1j"


def test_root_lookup_takes_the_nearest_root():
    # t = 1/2 + 5e-9 lies just outside the snap window, so -t (multiplicity
    # and nullity 2) and -(1 - t) (nullity 1) are distinct roots 1e-8 apart,
    # both within the default tol of -t
    t = 0.5 + 5e-9
    system = tensor_system(model_with_gamma(t), ScalarMode(4.0, 1))
    report = indicial_report(system)
    assert report.p_gamma == t
    near = report.root(-t)
    assert near.value == -t and near.nullity == 2
    assert report.root(t - 1).nullity == 1
    assert report.root(-t + 4e-9).value == -t
    with pytest.raises(KeyError):
        report.root(0.0)


def test_root_table_rows_structure():
    model = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0,
                      cross_section=CrossSection("circle", 3.0))
    modes = circle_spectrum(model, m_max=1, p_max=1)
    header, rows = root_table_rows(model, modes, "tensor")
    assert header[:5] == ["family", "kind", "p", "lambda_like", "kappa"]
    assert all(len(row) == len(header) for row in rows)
    log_rows = [row for row in rows if row[6] == "true"]
    assert log_rows, "axisymmetric modes must flag logs"
    assert {row[1] for row in rows} <= {"A", "B", "C", "D"}


def test_root_table_skips_tt_for_oneform():
    model = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0)
    header, rows = root_table_rows(model, [TTMode(1.0, 0)], "oneform")
    assert rows == []


@given(st.floats(min_value=0.25, max_value=4.0),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_multiset_negation_and_p_flip(gamma, p):
    names = ("f", "g", "h", "sigma", "eta", "k1", "k2")
    roots = closed_root_multiset("tensor", "A", names, p * gamma)
    negated = sorted(-x for x in roots)
    assert np.allclose(negated, roots)
    flipped = closed_root_multiset("tensor", "A", names, -p * gamma)
    assert np.allclose(sorted(flipped), roots)


def test_report_root_lookup_failure():
    model = ConeModel(n=3, alpha=math.pi / 2, tube_radius=1.0)
    report = indicial_report(oneform_system(model, ScalarMode(2.0, 1)))
    with pytest.raises(KeyError):
        report.root(17.0)


def test_system_for_mode_dispatch():
    model = ConeModel(n=4, alpha=math.pi / 2, tube_radius=1.0)
    assert system_for_mode(model, ScalarMode(2.0, 1), "tensor").kind == "A"
    assert system_for_mode(model, ScalarMode(0.0, 1), "tensor").kind == "B"
    assert system_for_mode(model, CoclosedMode(1.0, 0), "oneform").kind == "C"
    assert system_for_mode(model, TTMode(1.0, 0), "tensor").kind == "D"
    with pytest.raises(ValueError):
        system_for_mode(model, TTMode(1.0, 0), "oneform")
