from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conemodes import frobenius
from conemodes.frobenius import (
    FrobeniusError,
    FrobeniusSeries,
    admissible_branches,
    angle_deformation_profile,
    branch_series,
    frobenius_series,
    inhomogeneous_series,
    integrate_mode_ode,
    solve_mode_bvp,
    _cutoff_derivatives,
)
from conemodes.geometry import ConeModel, CrossSection, DomainError
from conemodes.indicial import indicial_report
from conemodes.modes import CoclosedMode, ScalarMode, TTMode
from conemodes.reduction import (
    ModeBlock,
    ModeSystem,
    apply_L_oneform,
    apply_P_tensor,
    oneform_system,
    tensor_system,
    theta_coupling,
    _ex,
    _merge_tol,
    _snap,
)

CS = CrossSection("circle", 2.0)
M_HALF = ConeModel(3, np.pi / 2, 1.0, CS)      # gamma = 4
M_PI = ConeModel(3, np.pi, 1.0, CS)            # gamma = 2
M_2PI = ConeModel(3, 2 * np.pi, 1.0, CS)       # gamma = 1
M_3HALF = ConeModel(3, 3 * np.pi / 2, 1.0, CS)  # gamma = 4/3


# ---------------------------------------------------------------------------
# series construction


def test_top_root_auto_seed_matches_indicial_vector():
    system = oneform_system(M_HALF, ScalarMode(4.0, 1))
    ser = frobenius_series(system, 5.0, order=0)
    v0 = np.asarray(ser.coefficients[0])
    expected = np.array([1.0, -1.0j, 0.0]) / np.sqrt(2)
    overlap = abs(np.vdot(expected, v0))
    assert abs(overlap - np.linalg.norm(v0)) < 1e-12
    assert ser.order == 0 and not ser.has_log


def test_single_component_recursion_frozen_coefficient():
    # varpi equation at p'gamma = 2: W0 = 4, W2 = 2/3, q2 = 4/3, so
    # (W0 - 16) v2 = (q2*2 - W2) v0 gives v2 = -v0/6
    system = oneform_system(M_PI, CoclosedMode(0.0, 1))
    ser = frobenius_series(system, 2.0, order=8)
    V = np.asarray(ser.coefficients)
    assert abs(V[0, 0] - 1.0) < 1e-14
    assert abs(V[2, 0] + 1.0 / 6.0) < 1e-13
    assert not ser.has_log


def test_even_potential_gives_even_series():
    system = oneform_system(M_PI, CoclosedMode(0.0, 1))
    ser = frobenius_series(system, 2.0, order=9)
    V = np.asarray(ser.coefficients)
    assert np.max(np.abs(V[1::2])) < 1e-14


def test_obstructed_recursion_grows_log_chain():
    # kappa = -1 branch at p*gamma = 1: the resonance at exponent +1 is
    # obstructed with companion (0, 0, 7/2), the next one at +2 with
    # -(1, -i, 0)/2; both follow from the q2 = 4/3, W2, W3 coefficients
    system = oneform_system(M_2PI, ScalarMode(4.0, 1))
    ser = frobenius_series(system, -1.0, vector=(0, 0, 1), order=6)
    assert ser.has_log
    U = np.asarray(ser.log_coefficients)
    V = np.asarray(ser.coefficients)
    assert np.max(np.abs(U[:2])) < 1e-14
    assert np.allclose(U[2], [0, 0, 3.5], atol=1e-12)
    assert np.max(np.abs(V[2])) < 1e-12
    assert np.allclose(U[3], [-0.5, 0.5j, 0.0], atol=1e-12)


def test_log_seed_at_zero_exponent():
    system = oneform_system(M_2PI, ScalarMode(4.0, 0))
    ser = frobenius_series(system, 0.0, log_vector=(0, 0, 1), order=6)
    assert ser.has_log
    assert np.allclose(ser.log_coefficients[0], [0, 0, 1])
    assert np.max(np.abs(np.asarray(ser.coefficients[0]))) < 1e-12
    r = np.array([1e-5, 1e-4])
    vals = ser.evaluate(r)
    assert np.allclose(vals[2] / np.log(r), 1.0, atol=1e-8)


def test_seed_vector_must_be_indicial():
    system = oneform_system(M_HALF, ScalarMode(4.0, 1))
    with pytest.raises(FrobeniusError):
        frobenius_series(system, 5.0, vector=(1.0, 0.0, 0.0), order=2)


def test_degenerate_root_requires_explicit_seed():
    system = tensor_system(M_HALF, ScalarMode(4.0, 1))
    with pytest.raises(FrobeniusError):
        frobenius_series(system, 4.0, order=2)


def test_auto_seed_reads_the_nearest_root():
    # -t, with a two-dimensional null space, sits 1e-8 from the simple root
    # t - 1 just outside the snap window: the seed is not taken from the
    # simple root
    t = 0.5 + 5e-9
    system = tensor_system(ConeModel(3, 2 * np.pi / t, 1.0), ScalarMode(4.0, 1))
    with pytest.raises(FrobeniusError, match="pass an explicit seed vector"):
        frobenius_series(system, -t, order=2)
    assert frobenius_series(system, t - 1, order=2).kappa == t - 1


def test_series_json_roundtrip():
    system = oneform_system(M_2PI, ScalarMode(4.0, 1))
    for ser in (frobenius_series(system, 2.0, order=5),
                frobenius_series(system, -1.0, vector=(0, 0, 1), order=5)):
        back = FrobeniusSeries.from_dict(ser.to_dict())
        assert back.kappa == ser.kappa and back.names == ser.names
        r = np.array([0.03, 0.4])
        assert np.allclose(back.evaluate(r), ser.evaluate(r), atol=1e-15)
        assert back.has_log == ser.has_log


def test_series_derivatives_match_finite_differences():
    system = oneform_system(M_2PI, ScalarMode(4.0, 1))
    ser = frobenius_series(system, -1.0, vector=(0, 0, 1), order=6)
    r = np.array([0.1, 0.3])
    h = 1e-6
    for d in (1, 2, 3):
        fd = (ser.evaluate(r + h, d - 1) - ser.evaluate(r - h, d - 1)) / (2 * h)
        scale = np.max(np.abs(ser.evaluate(r, d))) + 1.0
        assert np.max(np.abs(fd - ser.evaluate(r, d))) < 1e-7 * scale


def test_series_profiles_evaluate_each_level_once(monkeypatch):
    # the four components of a tensor (0, 1) series share one memo entry: a
    # jet of all of them to level 2 is three evaluations, not twelve, a later
    # deeper jet adds only the new level, and every level is the series' own
    # evaluation bit for bit
    system = tensor_system(ConeModel(3, 1.0, 1.0, CS), ScalarMode(0.0, 1))
    ser = branch_series(system, admissible_branches(system, "strong")[0], 8)
    r = np.array([0.05, 0.2, 0.5])
    want = np.array([ser.evaluate(r, k) for k in range(4)])
    calls = []
    evaluate = FrobeniusSeries.evaluate

    def counted(self, r, derivative=0):
        calls.append(derivative)
        return evaluate(self, r, derivative)

    monkeypatch.setattr(FrobeniusSeries, "evaluate", counted)
    system.apply(ModeBlock("tensor", system.mode, ser.profiles()), r)
    assert calls == [0, 1, 2]
    calls.clear()
    profiles, memo = ser.profiles(), {}
    for m in (0, 2, 3):
        jets = [profiles[nm].jet(r, m, memo) for nm in system.names]
    assert calls == [0, 1, 2, 3]
    for i, jet in enumerate(jets):
        assert jet.dtype == np.complex128
        assert np.array_equal(jet, want[:, i])


def test_truncation_residual_decay_exponent():
    system = oneform_system(M_HALF, ScalarMode(4.0, 1))
    ser = frobenius_series(system, 5.0, order=10)
    blk = ModeBlock(system.family, system.mode, ser.profiles())
    rr = np.geomspace(0.05, 0.3, 12)
    out = apply_L_oneform(M_HALF, blk, rr)
    res = np.max(np.abs(np.stack(list(out.values()))), axis=0)
    slope = np.polyfit(np.log(rr), np.log(res), 1)[0]
    assert abs(slope - 14.0) < 0.3


def test_higher_order_tightens_truncation():
    system = tensor_system(M_HALF, ScalarMode(4.0, 1))
    ref = frobenius_series(system, 6.0, order=40)
    r = 0.3
    errs = []
    for order in (6, 12):
        ser = frobenius_series(system, 6.0, order=order)
        errs.append(np.max(np.abs(ser.evaluate(r) - ref.evaluate(r))))
    assert errs[1] < errs[0] * 1e-3


# ---------------------------------------------------------------------------
def _recursion_defects(system, ser, source=None):
    """Relative defect of each order's coefficient equations, rebuilt from
    the Laurent data with explicit sums over j:
    (W0 - s^2) v_m - sum_j K[m, j] v_(m-j) - 2 s u_m - sum_j q_j u_(m-j)
    - source_m, K[m, j] = q_j (s - j) I - W_j, s = kappa + m, and the log
    companion's own equation (W0 - s^2) u_m - sum_j K[m, j] u_(m-j).  The
    W_j are in the real frame, so the named coefficients and source enter it
    as d x (D is unitary: the norms are those of the named equations)."""
    order, eye, d = ser.order, np.eye(system.arity), system.frame
    q = system.laurent_drift(order + 1)
    W = system.laurent_potential(order + 1)
    V = np.asarray(ser.coefficients) * d
    U = np.asarray(ser.log_coefficients) * d if ser.has_log else np.zeros_like(V)
    norm = np.linalg.norm
    out = []
    for m in range(order + 1):
        s = ser.kappa + m
        A = W[0] - s * s * eye
        power, log = [A @ V[m], -2.0 * s * U[m]], [A @ U[m]]
        # each term counted at |operator| |vector|, so that an order whose
        # terms all vanish by symmetry does not compare roundoff to roundoff
        power_scale = norm(A, 2) * norm(V[m]) + 2.0 * abs(s) * norm(U[m])
        log_scale = norm(A, 2) * norm(U[m])
        for j in range(1, m + 1):
            K = q[j] * (s - j) * eye - W[j]
            power += [-K @ V[m - j], -q[j] * U[m - j]]
            log.append(-K @ U[m - j])
            power_scale += norm(K, 2) * norm(V[m - j]) + abs(q[j]) * norm(U[m - j])
            log_scale += norm(K, 2) * norm(U[m - j])
        if source is not None:
            power.append(-d * source(m))
            power_scale += norm(power[-1])
        out += [norm(sum(power)) / power_scale if power_scale else 0.0,
                norm(sum(log)) / log_scale if log_scale else 0.0]
    return out


def _all_branches(system, order):
    out = []
    for root in indicial_report(system).roots:
        for vec in root.vectors:
            out.append(frobenius_series(system, root.value, vector=vec, order=order))
            if root.log_required:
                out.append(frobenius_series(system, root.value, log_vector=vec,
                                            order=order))
    return out


def test_recursion_equations_hold_at_every_order():
    # checked term by term against the Laurent data, independently of how
    # the engine factors and sums: resonant kappa = 0 branches (tensor
    # scalar (0, 0) at angle 1), the angle potential's log companion, the
    # obstructed log chain of one-form A at angle 2 pi, a co-closed block
    cases = []
    system = tensor_system(ConeModel(3, 1.0, 1.0, CS), ScalarMode(0.0, 0))
    series = _all_branches(system, 16)
    assert any(ser.kappa == 0.0 for ser in series)
    cases += [(system, ser, None) for ser in series]
    system = oneform_system(M_2PI, ScalarMode(0.0, 0))
    lead, inv_th = (2.0 * _ex("inv_th")).laurent(17)
    ser = inhomogeneous_series(system, {"f": 2.0 * _ex("inv_th")}, order=16)
    assert ser.has_log
    cases.append((system, ser, lambda m: np.array(
        [inv_th[int(ser.kappa) - 2 + m - lead], 0.0])))
    system = oneform_system(M_2PI, ScalarMode(4.0, 1))
    ser = frobenius_series(system, -1.0, vector=(0, 0, 1), order=16)
    assert ser.has_log
    cases.append((system, ser, None))
    system = tensor_system(M_HALF, CoclosedMode(4.0, 1))
    cases += [(system, ser, None) for ser in _all_branches(system, 16)]
    for system, ser, source in cases:
        assert max(_recursion_defects(system, ser, source)) <= 1e-12, (
            system.kind, system.mode, ser.kappa)


def test_recursion_calls_no_linalg_once_the_eigenbasis_is_cached(monkeypatch):
    # every order solves in O's eigenbasis V, which the indicial layer
    # caches per key, and V^-1, which the recursion caches per key: once
    # both are built, a resonant recursion that forces a log branch calls no
    # np.linalg function, its per-(system, s0, order) data built afresh
    # included
    system = oneform_system(M_2PI, ScalarMode(4.0, 1))
    frobenius._eigenbasis_inverse(system.family, system.kind, system.names)
    frobenius._coefficient_data.cache_clear()
    frobenius._laurent_data.cache_clear()
    calls = []
    for name, fn in vars(np.linalg).items():
        if callable(fn) and not isinstance(fn, type) and not name.startswith("_"):
            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
    assert frobenius_series(system, -1.0, vector=(0, 0, 1), order=16).has_log
    assert calls == []


def test_resonant_order_has_no_coordinate_on_its_eigenspace():
    # tensor B at p = 2, alpha = 1 (t = 4 pi): the branch at t - 2 meets the
    # root t + 2 at order 4, and there E(2) is not orthogonal to E(-2); the
    # order-4 coefficient has no coordinate on E(2), read through the
    # spectral projector O (O + 2) / 8 along the offsets 0 and -2
    system = tensor_system(ConeModel(3, 1.0, 1.0, CS), ScalarMode(0.0, 2))
    kappa = indicial_report(system).root(2 * system.gamma - 2).value
    v4 = system.to_frame(frobenius_series(system, kappa, order=4).coefficients[4])
    O = theta_coupling("tensor", system.names)
    projected = O @ (O + 2 * np.eye(4)) @ v4 / 8
    assert np.linalg.norm(v4) > 1
    assert np.linalg.norm(projected) <= 1e-14 * np.linalg.norm(v4)


# inhomogeneous series


def test_angle_source_forces_log_with_unit_companion():
    system = oneform_system(M_2PI, ScalarMode(0.0, 0))
    ser = inhomogeneous_series(system, {"f": 2.0 * _ex("inv_th")}, order=8)
    assert ser.kappa == 1.0 and ser.has_log
    assert np.allclose(ser.log_coefficients[0], [-1.0, 0.0], atol=1e-14)
    assert np.max(np.abs(np.asarray(ser.coefficients[0]))) < 1e-14
    # parity: no order-1 correction
    assert np.max(np.abs(np.asarray(ser.coefficients[1]))) < 1e-14
    assert np.max(np.abs(np.asarray(ser.log_coefficients[1]))) < 1e-14


def test_source_row_starting_past_the_order_adds_nothing():
    # the g row's lowest power r^6 enters at order 7 of a series whose
    # leading exponent the f row's r^-1 sets: past order 4, so it adds nothing
    system = oneform_system(M_2PI, ScalarMode(0.0, 0))
    alone = inhomogeneous_series(system, {"f": _ex("inv_th")}, order=4)
    both = inhomogeneous_series(system, {"f": _ex("inv_th"),
                                         "g": _ex("sh", "sh", "sh", "sh", "sh", "sh")},
                                order=4)
    assert both.kappa == alone.kappa
    assert np.array_equal(both.coefficients, alone.coefficients)
    assert np.array_equal(both.log_coefficients, alone.log_coefficients)


def test_inhomogeneous_rejects_unknown_component():
    system = oneform_system(M_2PI, ScalarMode(0.0, 0))
    with pytest.raises(ValueError):
        inhomogeneous_series(system, {"omega": _ex("inv_th")}, order=4)


# ---------------------------------------------------------------------------
# continuation


def test_continuation_matches_direct_series_evaluation():
    system = tensor_system(M_HALF, ScalarMode(4.0, 1))
    truth = frobenius_series(system, 6.0, order=60).evaluate(1.0)
    ser = frobenius_series(system, 6.0, order=14)
    cont = integrate_mode_ode(system, ser, 0.1, 1.0)
    assert np.max(np.abs(cont.endpoint - truth)) < 1e-9


def test_continuation_converges_at_twelfth_order():
    # rtol = 1 keeps one 6-stage Gauss-Legendre step per grid interval, and
    # from 5 to 9 nodes the step halves: the error falls 5.7e-8 -> 1.3e-11
    system = tensor_system(M_HALF, ScalarMode(4.0, 1))
    truth = frobenius_series(system, 6.0, order=100).evaluate(1.0)
    ser = frobenius_series(system, 6.0, order=14)
    errs = [np.max(np.abs(integrate_mode_ode(system, ser, 0.1, 1.0, num=num,
                                              rtol=1.0).endpoint - truth))
            for num in (5, 9)]
    assert errs[1] * 2 ** 10 <= errs[0]


def _recorded_substeps(monkeypatch):
    # the substeps per interval of every map the continuation builds from now on
    substeps, build = [], frobenius._substep_maps

    def recorded(*args):
        substeps.append(2 ** args[-1])
        return build(*args)

    monkeypatch.setattr(frobenius, "_substep_maps", recorded)
    return substeps


def test_continuation_refines_coarse_grid_to_rtol(monkeypatch):
    # one step per interval of a 5-node grid misses the truth by ~6e-8; the
    # default rtol makes the check split each interval into substeps
    substeps = _recorded_substeps(monkeypatch)
    system = tensor_system(M_HALF, ScalarMode(4.0, 1))
    truth = frobenius_series(system, 6.0, order=100).evaluate(1.0)
    ser = frobenius_series(system, 6.0, order=14)
    end = integrate_mode_ode(system, ser, 0.1, 1.0, num=5).endpoint
    assert max(substeps) > 1
    assert np.max(np.abs(end - truth)) < 1e-10 * np.max(np.abs(truth))


def _guard_columns():
    # every strong-class column of four modes per family and p = 0..3 at four
    # angles, with the mode system it belongs to: 310 columns
    for alpha in (0.8, np.pi / 2, 2.5, 0.99 * 2 * np.pi):
        model = ConeModel(3, alpha, 1.0)
        for family in ("tensor", "oneform"):
            for p in range(4):
                modes = [ScalarMode(4.0, p), ScalarMode(0.0, p), CoclosedMode(2.0, p)]
                for mode in modes + ([TTMode(1.0, p)] if family == "tensor" else []):
                    system = frobenius.system_for_mode(model, mode, family)
                    branches = admissible_branches(system, "strong")
                    if branches:
                        yield system, branches


def _edge_errors(system, branches, **kwargs):
    # each column's endpoint value and d1 against the order-100 series at
    # r = 1, relative to the column's largest of them, with the column
    conts = integrate_mode_ode(system, [branch_series(system, b, 14) for b in branches],
                               0.1, 1.0, **kwargs)
    for branch, cont in zip(branches, conts):
        ref = branch_series(system, branch, 100)
        want = np.concatenate([ref.evaluate(1.0), ref.evaluate(1.0, 1)])
        got = np.concatenate([cont.endpoint, cont.d1[:, -1]])
        yield np.max(np.abs(got - want)) / np.max(np.abs(want)), cont


def test_continuation_matches_convergent_series_at_the_tube_edge():
    # every coefficient is analytic for r < pi / 2, so the order-100 series
    # at r = 1 is a reference independent of the continuation.  Errors are
    # relative to the column's largest endpoint value or d1; the largest
    # measured is 6.3e-12.  A column above rtol = 1e-11 would be a
    # subdominant one that takes on the dominant branches' rounding growth,
    # which the step-doubling estimate does not see: the open FOUND line on
    # subdominant columns in CHANGES.md.
    count = 0
    for system, branches in _guard_columns():
        for branch, (err, _) in zip(branches, _edge_errors(system, branches)):
            assert err < 2e-11, (system.family, system.kind, system.mode, branch[:2])
            count += 1
    assert count == 310


def test_error_estimate_holds_a_steep_column_to_its_size_near_the_handoff(monkeypatch):
    # the co-closed (2, 2) tensor branches grow like r^16.7 at 0.8: an error
    # made near the handoff grows with the column from there, but divided by
    # the column's endpoint value it reads about 10^16 times too small.  On
    # the default grid one substep per interval leaves 6.5e-10 at r = 1
    substeps = _recorded_substeps(monkeypatch)
    system = frobenius.system_for_mode(ConeModel(3, 0.8, 1.0), CoclosedMode(2.0, 2),
                                       "tensor")
    branches = admissible_branches(system, "strong")
    assert max(kappa for _, kappa, _ in branches) > 16
    for err, cont in _edge_errors(system, branches):
        assert err < 1e-11
        assert cont.error_estimate <= 1e-11
    assert max(substeps) >= 2


def test_continuation_checks_the_last_interval_of_an_even_grid():
    # 6 nodes make 5 intervals: pairing them from the handoff leaves the
    # last, longest one unchecked, and one substep then misses the series
    # at the edge by 5e-11
    system = frobenius.system_for_mode(ConeModel(3, 2.5, 1.0), CoclosedMode(2.0, 1),
                                       "tensor")
    for err, _ in _edge_errors(system, admissible_branches(system, "strong"), num=6):
        assert err < 1e-11


def test_continuation_rejects_unattainable_rtol():
    system = tensor_system(M_HALF, ScalarMode(4.0, 1))
    ser = frobenius_series(system, 6.0, order=14)
    with pytest.raises(FrobeniusError, match=r"exceeds rtol 1e-18 at r = 0\.\d+"):
        integrate_mode_ode(system, ser, 0.1, 1.0, rtol=1e-18)


def test_continuation_handoff_richardson():
    system = tensor_system(M_HALF, ScalarMode(4.0, 1))
    ser = frobenius_series(system, 6.0, order=16)
    e1 = integrate_mode_ode(system, ser, 0.1, 1.0).endpoint
    e2 = integrate_mode_ode(system, ser, 0.05, 1.0).endpoint
    assert np.max(np.abs(e1 - e2)) < 1e-8


def test_continuation_scales_linearly():
    system = oneform_system(M_HALF, ScalarMode(4.0, 1))
    report = indicial_report(system)
    vec = np.asarray(report.root(5.0).vectors[0])
    s1 = frobenius_series(system, 5.0, vector=vec, order=12)
    s2 = frobenius_series(system, 5.0, vector=3.0 * vec, order=12)
    e1 = integrate_mode_ode(system, s1, 0.1, 1.0).endpoint
    e2 = integrate_mode_ode(system, s2, 0.1, 1.0).endpoint
    assert np.max(np.abs(e2 - 3.0 * e1)) < 1e-10 * np.max(np.abs(e1))


def test_continuation_profile_solves_ode_between_nodes():
    # levels 0..1 step out of the node below by the continuation's own maps
    # and levels 2..3 are the ODE there, so between the nodes the profile
    # satisfies the ODE to rounding: about 2e-15 for the one-form and for
    # the co-closed tensor branch r^9
    cases = [(oneform_system(M_HALF, ScalarMode(4.0, 1)), 5.0, apply_L_oneform),
             (tensor_system(M_HALF, CoclosedMode(0.0, 2)), 9.0, apply_P_tensor)]
    for system, kappa, apply in cases:
        ser = frobenius_series(system, kappa, order=14)
        cont = integrate_mode_ode(system, ser, 0.1, 1.0)
        combined = ModeBlock(system.family, system.mode, cont.profiles())
        rr = np.linspace(0.13, 0.97, 23)  # avoids grid nodes
        out = apply(M_HALF, combined, rr)
        assert max(np.max(np.abs(v)) for v in out.values()) < 1e-13, system.kind


def test_continued_profile_reads_the_series_below_the_handoff():
    system = oneform_system(M_HALF, ScalarMode(4.0, 1))
    ser = frobenius_series(system, 5.0, order=14)
    cont = integrate_mode_ode(system, ser, 0.1, 1.0)
    assert cont.series is ser
    inner, nodes = np.array([1e-3, 0.05, 0.0999]), [0, cont.grid.size // 2, -1]
    for i, name in enumerate(system.names):
        prof = cont.profile(name)
        assert np.array_equal(prof(inner), ser.evaluate(inner)[i])
        np.testing.assert_allclose(prof(cont.grid[nodes]), cont.values[i][nodes],
                                   rtol=1e-13)


@pytest.mark.parametrize("model, mode, solution_class, source", [
    # power branches at exponents 1 and 0, and the log branch at exponent 0
    (M_2PI, ScalarMode(4.0, 0), "l2", None),
    # the angle-potential system: two power branches and the particular column
    (M_HALF, ScalarMode(0.0, 0), "strong", {"f": 2.0 * _ex("inv_th")}),
])
def test_matrix_continuation_matches_single_columns(model, mode, solution_class,
                                                    source):
    system = oneform_system(model, mode)
    columns = [branch_series(system, branch, 14)
               for branch in admissible_branches(system, solution_class)]
    sources = [None] * len(columns)
    if source:
        columns.append(inhomogeneous_series(system, source, order=14))
        sources.append(source)
    assert any(ser.has_log for ser in columns)
    # d3 carries V' ~ r^-3 times the continuation's own error, so both calls
    # are held to a tight error bound
    tols = {"rtol": 1e-13}
    together = integrate_mode_ode(system, columns, 0.1, 1.0, source=sources[-1],
                                  **tols)
    assert len(together) == len(columns)
    for ser, src, cont in zip(columns, sources, together):
        alone = integrate_mode_ode(system, ser, 0.1, 1.0, source=src, **tols)
        want, got = alone.endpoint, cont.endpoint
        assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))
        want, got = (_profile_levels(c, _nodes_and_midpoints(c)) for c in (alone, cont))
        for level in range(4):
            assert (np.max(np.abs(got[:, level] - want[:, level]))
                    < 1e-9 * np.max(np.abs(want[:, level]))), level


def _nodes_and_midpoints(cont):
    grid = cont.grid
    return np.sort(np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1])]))


def _profile_levels(cont, r):
    # levels 0..3 of every component at the radii, shape (k, 4, len(r)),
    # read through one memo as an operator application reads them
    memo = {}
    return np.array([cont.profile(name).jet(r, 3, memo) for name in cont.system.names])


def test_continuation_guards(monkeypatch):
    system = oneform_system(M_HALF, ScalarMode(4.0, 1))
    ser = frobenius_series(system, 5.0, order=6)
    with pytest.raises(DomainError):
        integrate_mode_ode(system, ser, 1e-9, 1.0)
    with pytest.raises(DomainError):
        integrate_mode_ode(system, ser, 0.5, 0.5)

    def unbuilt(*args):
        raise AssertionError("a step map was built")

    # a bad rtol is refused before any step map is built
    monkeypatch.setattr(frobenius, "_step_maps", unbuilt)
    for rtol in (float("nan"), 0.0, -1.0, float("inf")):
        with pytest.raises(ValueError, match="rtol"):
            integrate_mode_ode(system, ser, 0.1, 1.0, rtol=rtol)


def _named_potential(system, r, derivative=0):
    # V itself, conj(d_i) (D V D^-1)_ij d_j, from the pencil and the frame
    # the system is built in, whatever `ModeSystem.frame` is patched to
    from conemodes.geometry import sinh_cosh_values
    from conemodes.reduction import _BASIS, _frame
    d = _frame(system.family, system.names)
    named = system.pencil * np.outer(d.conj(), d)
    return np.einsum("bij,b...->ij...", named, sinh_cosh_values(_BASIS, r, derivative))


def _complex_step_maps(system, t0, t1, source):
    # the step maps as built before the real frame, kept as the reference:
    # complex arithmetic on V itself, with the state (X, X', 1) and the
    # source S as they are
    c, b, A = frobenius._gauss_tableau(frobenius._STAGES)
    k, s = system.arity, frobenius._STAGES
    h = t1 - t0
    r = t0[:, None] + h[:, None] * c
    V = np.moveaxis(_named_potential(system, r), (0, 1), (2, 3))  # (N, s, k, k)
    q = system.drift_at(r)
    eye = np.eye(k)
    M = np.einsum("il,niab->nialb", -(A @ A), (h * h)[:, None, None, None] * V)
    diag = h[:, None, None] * A * q[:, :, None] + np.eye(s)
    for a in range(k):
        M[:, :, a, :, a] += diag
    R = np.zeros((h.size, s, k, 2 * k + 1), dtype=complex)
    R[..., :k] = V
    R[..., k:2 * k] = (h[:, None] * c)[..., None, None] * V - q[..., None, None] * eye
    if source is not None:
        R[..., -1] = -np.moveaxis(source(r), 0, -1)
    Z = np.linalg.solve(M.reshape(h.size, s * k, s * k),
                        R.reshape(h.size, s * k, 2 * k + 1)).reshape(R.shape)
    P = np.zeros((h.size, 2 * k + 1, 2 * k + 1), dtype=complex)
    P[:, :k, :k] = P[:, k:2 * k, k:2 * k] = eye
    P[:, :k, k:2 * k] = h[:, None, None] * eye
    P[:, -1, -1] = 1.0
    P[:, :k] += (h * h)[:, None, None] * np.tensordot(b @ A, Z, axes=(0, 1))
    P[:, k:2 * k] += h[:, None, None] * np.tensordot(b, Z, axes=(0, 1))
    return P


def _angle_potential_case():
    system = oneform_system(M_HALF, ScalarMode(0.0, 0))
    source = {"f": 2.0 * _ex("inv_th")}
    return system, [inhomogeneous_series(system, source, order=16)], source


def _odd_source_case():
    # p != 0 kind A (k = 6): every strong branch and a particular solution
    # fed on the theta-odd h, a source that is complex in the frame.  At
    # 3 pi / 2 the branches span r^(4/3)..r^(10/3); at pi / 2 they span
    # r^2..r^6, and rounding alone (the reference's maps conjugated by a
    # unitary diagonal and back) moves the r^2 column's values by 1.6e-11
    system = tensor_system(M_3HALF, ScalarMode(4.0, 1))
    source = {"h": 3.0 * _ex("th")}
    branches = [frobenius_series(system, kappa, vector=vec, order=12)
                for _, kappa, vec in admissible_branches(system, "strong")]
    return system, branches + [inhomogeneous_series(system, source, order=12)], source


@pytest.mark.parametrize("case,dtype", [(_angle_potential_case, np.float64),
                                        (_odd_source_case, np.complex128)])
def test_real_frame_continuation_matches_complex_maps(case, dtype, monkeypatch):
    system, columns, source = case()
    dtypes, build = [], frobenius._step_maps

    def recorded(*args):
        P = build(*args)
        dtypes.append(P.dtype)
        return P

    monkeypatch.setattr(frobenius, "_step_maps", recorded)
    got = integrate_mode_ode(system, columns, 0.1, 1.0, source=source)
    radii = _nodes_and_midpoints(got[0])
    # levels 0..3 of every column at and between the nodes, read in the
    # frame before patching it
    got_levels = [_profile_levels(g, radii) for g in got]
    # float64 maps unless the frame source is complex
    assert dtypes and set(dtypes) == {np.dtype(dtype)}
    # the reference continues X itself: complex maps and the identity frame,
    # and reads levels 2..3 off the named potential
    monkeypatch.setattr(frobenius, "_step_maps", _complex_step_maps)
    monkeypatch.setattr(ModeSystem, "frame",
                        property(lambda self: np.ones(self.arity)))
    monkeypatch.setattr(ModeSystem, "potential_at", _named_potential)
    want = integrate_mode_ode(system, columns, 0.1, 1.0, source=source)
    assert len(got) == len(want) == len(columns)
    for g, w, g_levels in zip(got, want, got_levels):
        for level in ("values", "d1"):
            a, b = getattr(g, level), getattr(w, level)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), level
        w_levels = _profile_levels(w, radii)
        for level in range(4):
            a, b = g_levels[:, level], w_levels[:, level]
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), level


def test_homogeneous_data_runs_in_float64(monkeypatch):
    # every series recursion and step map of homogeneous Dirichlet solves
    # (complex boundary data; log branches at angle 1) and of the angle
    # potential (a source on the theta-even f) is float64
    dtypes = {"series": set(), "step_maps": set()}

    def record(module, name, key, read):
        build = getattr(module, name)

        def recorded(*args, **kwargs):
            out = build(*args, **kwargs)
            dtypes[key].update(read(args, out))
            return out

        monkeypatch.setattr(module, name, recorded)

    record(frobenius, "_series_engine", "series",
           lambda args, out: [x.dtype for x in out if x is not None])
    record(frobenius, "_step_maps", "step_maps", lambda args, out: [out.dtype])
    model = ConeModel(3, 1.0, 1.0, CS)
    for family, mode in (("tensor", ScalarMode(4.0, 1)), ("tensor", CoclosedMode(4.0, 1)),
                         ("oneform", ScalarMode(4.0, 1)), ("tensor", ScalarMode(0.0, 0))):
        system = frobenius.system_for_mode(model, mode, family)
        boundary = {name: 1.0 - 0.5j for name in system.names}
        res = solve_mode_bvp(model, mode, family, boundary, "l12", num=40, rtol=1e-8)
        assert res.system.pencil.dtype == np.float64
        assert res.boundary_residual < 1e-10 or res.status != "unique"
    assert any(b == "log" for b, _ in solve_mode_bvp(
        model, ScalarMode(0.0, 0), "tensor", {}, "l2", num=40, rtol=1e-8).branch_exponents)
    angle_deformation_profile(M_HALF, num=40, rtol=1e-8)
    assert dtypes == {key: {np.dtype(np.float64)} for key in dtypes}


# ---------------------------------------------------------------------------
# boundary-value solving


def _manufactured(system, solution_class, seed, order=50):
    rng = np.random.default_rng(seed)
    branches = admissible_branches(system, solution_class)
    series = [frobenius_series(system, kap, vector=v, order=order)
              for _, kap, v in branches]
    cstar = rng.normal(size=len(branches)) + 1j * rng.normal(size=len(branches))
    bvec = sum(c * s.evaluate(1.0) for c, s in zip(cstar, series))
    boundary = {nm: bvec[i] for i, nm in enumerate(system.names)}
    return cstar, boundary


# modes whose p * gamma is a half-integer at some angle 2 pi q/m below
_WINDOW_MODES = (("tensor", ScalarMode(0.0, 1)), ("tensor", ScalarMode(4.0, 1)),
                 ("tensor", ScalarMode(4.0, 2)), ("tensor", CoclosedMode(4.0, 1)),
                 ("oneform", ScalarMode(4.0, 1)), ("oneform", CoclosedMode(0.0, 1)))


def _window_statuses(eps):
    # num and rtol only as fine as the statuses need: the branch counts and
    # boundary ranks do not depend on them
    statuses = {}
    for frac in (1 / 2, 1 / 3, 2 / 3, 1 / 4, 3 / 4):
        model = ConeModel(3, 2 * np.pi * frac * (1 + eps), 1.0,
                          CrossSection("circle", 1.0))
        for family, mode in _WINDOW_MODES:
            for solution_class in ("l2", "l12", "strong"):
                res = solve_mode_bvp(model, mode, family, {},
                                     solution_class=solution_class, num=10, rtol=1e-6)
                statuses[frac, family, mode, solution_class] = res.status
    return statuses


@pytest.fixture(scope="module")
def window_reference():
    return _window_statuses(0.0)


@pytest.mark.parametrize("eps", [5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9])
def test_bvp_statuses_hold_inside_the_snap_window(eps, window_reference):
    # inside the merge tolerance of a half-integer p * gamma the systems are
    # built at the snapped frequency, so every solve runs as at eps = 0
    assert _window_statuses(eps) == window_reference


# the modes of kinds A, B and C at a theta-frequency p
_KIND_MODES = {"A": lambda p: ScalarMode(4.0, p), "B": lambda p: ScalarMode(0.0, p),
               "C": lambda p: CoclosedMode(4.0, p)}
_TURNS = sorted({Fraction(q, m) for m in range(1, 7) for q in range(1, m + 1)})


# just outside the snap window (eps = 3e-9) these l2 solves once raised
# "log companion recursion hits an unsolvable resonance"
@example(Fraction(1), 2, "tensor", "A", "l2", 3e-9)
@example(Fraction(1, 2), 1, "tensor", "A", "l2", 3e-9)
@example(Fraction(1, 3), 1, "tensor", "B", "l2", 3e-9)
@example(Fraction(1, 3), 1, "tensor", "A", "l2", 3e-9)
@example(Fraction(2, 3), 2, "tensor", "A", "l2", 3e-9)
@given(st.sampled_from(_TURNS), st.integers(min_value=-4, max_value=4),
       st.sampled_from(["oneform", "tensor"]), st.sampled_from("ABC"),
       st.sampled_from(["l2", "l12", "strong"]),
       st.floats(min_value=-1e-8, max_value=1e-8))
@settings(deadline=None)
def test_logs_start_only_at_indicial_roots_near_critical_angles(
        turns, p, family, kind, solution_class, eps):
    """Within a relative 1e-8 of a critical angle 2 pi q / m, a solve raises
    no FrobeniusError, and every branch's log companion starts at an order m
    where kappa + m is a clustered root of the report."""
    model = ConeModel(3, 2 * np.pi * float(turns) * (1 + eps), 1.0,
                      CrossSection("circle", 1.0))
    res = solve_mode_bvp(model, _KIND_MODES[kind](p), family, {},
                         solution_class=solution_class, num=10, rtol=1e-6)
    system = res.system
    roots = [root.value for root in indicial_report(system).roots]
    tol = _merge_tol(_snap(system.mode.p * system.gamma))
    for branch in admissible_branches(system, solution_class):
        ser = branch_series(system, branch, 14)
        if ser.has_log:
            start = np.flatnonzero(np.any(ser.log_coefficients != 0, axis=1))[0]
            assert min(abs(ser.kappa + start - root) for root in roots) <= tol, branch[:2]


def test_real_data_matches_to_real_axis_values():
    # the homogeneous columns are real in the frame, and so is real f/g/k1
    # data there, so the matching runs in float64 with no imaginary rounding
    model = ConeModel(3, 1.0, 1.0, CrossSection("circle", 1.0))
    for solution_class in ("l2", "strong"):
        res = solve_mode_bvp(model, ScalarMode(0.0, 0), "tensor",
                             {"f": 0.3, "g": 0.5, "k1": 0.2}, solution_class)
        assert res.coefficients.dtype == np.float64
        assert [z.imag for z in res.axis_values.values()] == [0.0] * 4
        assert res.axis_values["f"].real != 0.0


def test_bvp_manufactured_roundtrip_tensor():
    system = tensor_system(M_HALF, ScalarMode(4.0, 1))
    for seed in (0, 1, 2):
        cstar, boundary = _manufactured(system, "strong", seed)
        res = solve_mode_bvp(M_HALF, ScalarMode(4.0, 1), "tensor", boundary,
                             "strong")
        assert res.status == "unique"
        err = np.max(np.abs(res.coefficients - cstar))
        assert err < 1e-6 * max(1.0, np.max(np.abs(cstar)))
        assert np.isfinite(res.condition_number)


def test_bvp_manufactured_roundtrip_oneform():
    system = oneform_system(M_HALF, ScalarMode(4.0, 1))
    cstar, boundary = _manufactured(system, "strong", 3)
    res = solve_mode_bvp(M_HALF, ScalarMode(4.0, 1), "oneform", boundary,
                         "strong")
    assert res.status == "unique"
    assert np.max(np.abs(res.coefficients - cstar)) < 1e-6


def test_bvp_manufactured_roundtrip_high_exponent():
    # alpha = 1, p = 2: the strong branches r^13.57 and r^11.57 are about
    # 1e-12 at the handoff r = 0.1; the per-column normalization lifts them
    model = ConeModel(3, 1.0, 1.0, CrossSection("circle", 1.0))
    mode = CoclosedMode(0.0, 2)
    system = tensor_system(model, mode)
    for seed in (0, 1, 2):
        cstar, boundary = _manufactured(system, "strong", seed)
        res = solve_mode_bvp(model, mode, "tensor", boundary, "strong")
        assert res.status == "unique"
        err = np.max(np.abs(res.coefficients - cstar))
        assert err < 1e-6 * max(1.0, np.max(np.abs(cstar)))


def test_bvp_boundary_and_interior_consistency():
    rng = np.random.default_rng(11)
    boundary = {nm: complex(*rng.normal(size=2))
                for nm in tensor_system(M_HALF, ScalarMode(4.0, 1)).names}
    res = solve_mode_bvp(M_HALF, ScalarMode(4.0, 1), "tensor", boundary,
                         "strong")
    assert res.boundary_residual < 1e-10
    for nm, want in boundary.items():
        assert abs(res.profiles[nm](1.0) - want) < 1e-9
    rr = np.geomspace(5e-3, 0.9, 30)
    out = apply_P_tensor(M_HALF, res.block(), rr)
    assert max(np.max(np.abs(v)) for v in out.values()) < 1e-7


def test_bvp_error_estimate_covers_the_grid_spread_of_a_near_resonant_match():
    # at alpha = 2 pi (1 + 1e-8) the l2 exponents of the tensor scalar (4, 1)
    # mode differ by integers up to 2e-8, so the series branches are nearly
    # dependent and the match has condition number ~5e8.  One rounding unit
    # in a column then moves the solution by ~1e-8, on every grid: solves on
    # 25 to 400 nodes differ by up to 2.6e-8, though each column's truncation
    # estimate is ~1e-18.  The match's error estimate covers that spread
    model = ConeModel(3, 2 * np.pi * (1 + 1e-8), 1.0)
    mode = ScalarMode(4.0, 1)
    names = frobenius.system_for_mode(model, mode, "tensor").names
    boundary = {nm: 1.0 + 0.5j * i for i, nm in enumerate(names)}
    rr = np.array([0.05, 0.3, 0.55, 0.8, 1.0])

    def solve(**kwargs):
        res = solve_mode_bvp(model, mode, "tensor", boundary, "l2", **kwargs)
        return res, np.array([res.profiles[nm](rr) for nm in names])

    ref, want = solve(num=400, rtol=1e-13)
    assert ref.condition_number > 1e8
    assert ref.error_estimate >= ref.condition_number * np.finfo(float).eps
    for num in (25, 49, 97, 100):
        res, got = solve(num=num)
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= min(res.error_estimate, ref.error_estimate), num


def test_bvp_zero_boundary_gives_zero():
    res = solve_mode_bvp(M_HALF, ScalarMode(4.0, 1), "tensor", {}, "strong")
    assert res.status == "unique"
    assert np.max(np.abs(res.coefficients)) < 1e-12
    rr = np.array([0.2, 0.7])
    assert all(np.max(np.abs(p(rr))) < 1e-12 for p in res.profiles.values())


def test_bvp_deficient_at_wide_angle_strong_class():
    # gamma = 4/3, p = 1: only two strong branches for three components
    res = solve_mode_bvp(M_3HALF, ScalarMode(4.0, 1), "oneform",
                         {"f": 1.0}, "strong")
    assert res.status == "deficient"
    assert len(res.branch_exponents) == 2
    assert res.boundary_residual > 1e-3


def test_bvp_l2_class_non_unique_at_wide_angle():
    res = solve_mode_bvp(M_3HALF, ScalarMode(4.0, 1), "oneform",
                         {"f": 1.0}, "l2")
    assert res.status == "non_unique"
    assert len(res.branch_exponents) == 4
    assert len(res.null_combinations) == 1
    assert res.boundary_residual < 1e-9
    kappas = sorted(k for _, k in res.branch_exponents)
    assert abs(kappas[0] + 1.0 / 3.0) < 1e-9


def test_bvp_axis_values_from_exponent_zero_branches():
    res = solve_mode_bvp(M_HALF, ScalarMode(0.0, 0), "tensor",
                         {"g": 1.0}, "strong")
    assert res.status == "unique"
    assert res.axis_regular
    small = 1e-6
    for nm, prof in res.profiles.items():
        assert abs(prof(small) - res.axis_values[nm]) < 1e-4
    # f and g share the axis limit: the exponent-0 space is spanned by
    # (1,1,0,0) and the cross-section slot
    assert abs(res.axis_values["f"] - res.axis_values["g"]) < 1e-9


def test_bvp_rejects_unknown_boundary_component():
    with pytest.raises(ValueError):
        solve_mode_bvp(M_HALF, ScalarMode(4.0, 1), "oneform",
                       {"varpi": 1.0}, "strong")


def test_bvp_rejects_unknown_solution_class():
    # the class is checked where the branches are chosen, with the classes named
    with pytest.raises(ValueError, match="'sobolev'.*'l2', 'l12', 'strong'"):
        solve_mode_bvp(M_HALF, ScalarMode(4.0, 1), "oneform", {"f": 1.0}, "sobolev")


def test_matching_takes_its_coefficients_from_its_one_svd(monkeypatch):
    # the SVD that decides the rank, the status and the null combinations
    # also gives the least-squares coefficients: a solve whose caches are
    # warm runs that one SVD and no lstsq, whatever its status
    cases = [(M_HALF, ScalarMode(4.0, 1), "tensor", {"f": 1.0, "h": 0.5j}, "strong"),
             (M_3HALF, ScalarMode(4.0, 1), "oneform", {"f": 1.0}, "strong"),
             (M_3HALF, ScalarMode(4.0, 1), "oneform", {"f": 1.0}, "l2")]
    for *args, solution_class in cases:
        want = solve_mode_bvp(*args, solution_class)
        calls = []
        for name in ("svd", "lstsq"):
            def counted(*a, _name=name, _fn=getattr(np.linalg, name), **kw):
                calls.append(_name)
                return _fn(*a, **kw)
            monkeypatch.setattr(np.linalg, name, counted)
        got = solve_mode_bvp(*args, solution_class)
        monkeypatch.undo()
        assert calls == ["svd"], solution_class
        assert got.status == want.status
        assert np.array_equal(got.coefficients, want.coefficients)
    assert [want.status, len(want.null_combinations)] == ["non_unique", 1]


def test_exponent_zero_particular_series_carries_no_log_at_order_zero():
    # a resonance at order 0 of a kappa = 0 particular series is one at
    # t + o == 0, where the recursion raises instead of starting a log, so
    # whenever such a series carries ln r its companion starts at order >= 1
    # and the axis value is the power part's v_0 alone
    angles = (2 * np.pi, np.pi, 2 * np.pi / 3, np.pi / 2, 2 * np.pi * (1 + 1e-12),
              4 * np.pi / 3, 1.0, 2.5)
    counts = {"series": 0, "logs": 0}
    for alpha in angles:
        model = ConeModel(3, alpha, 1.0)
        for p in range(-2, 3):
            for mode in (ScalarMode(0.0, p), ScalarMode(4.0, p), CoclosedMode(0.0, p),
                         CoclosedMode(4.0, p)):
                for family in ("oneform", "tensor"):
                    system = frobenius.system_for_mode(model, mode, family)
                    names = system.names
                    for source in ({names[0]: _ex("inv_sh_sq")},
                                   {names[-1]: _ex("sh_th_inv")},
                                   {nm: _ex("inv_sh_sq") + 0.5 * _ex("th") for nm in names}):
                        try:
                            ser = inhomogeneous_series(system, source, order=8)
                        except FrobeniusError:
                            continue
                        assert ser.kappa == 0.0
                        counts["series"] += 1
                        if ser.has_log:
                            counts["logs"] += 1
                            assert not ser.log_coefficients[0].any(), (alpha, mode, family)
    assert counts["series"] > 500 and counts["logs"] > 100, counts


def test_induced_deformation_axis_content_only_at_p_zero():
    boundary_data = {
        ScalarMode(0.0, 0): {"g": 1.0},
        ScalarMode((2 * np.pi / CS.length) ** 2, 2): {"f": 1.0, "g": 0.5},
    }
    results = {mode: solve_mode_bvp(M_HALF, mode, "tensor", bvals)
               for mode, bvals in boundary_data.items()}
    p0 = results[ScalarMode(0.0, 0)]
    p2 = [v for k, v in results.items() if k.p == 2][0]
    assert p0.axis_regular
    assert any(abs(v) > 1e-6 for v in p0.axis_values.values())
    assert all(abs(k) > 0.5 for _, k in p2.branch_exponents)
    assert all(abs(v) < 1e-12 for v in p2.axis_values.values())


# ---------------------------------------------------------------------------
# angle deformation


@pytest.fixture(scope="module")
def angle():
    return angle_deformation_profile(M_HALF)


def test_angle_leading_behavior(angle):
    r = np.geomspace(1e-6, 1e-2, 30)
    f = angle.f_profile(r)
    ratio = np.abs(f + r * np.log(r)) / (r ** 3 * np.abs(np.log(r)))
    assert np.max(ratio) < 1.0


def test_angle_normalization_residual(angle):
    rr = np.geomspace(1e-4, 1.0, 120)
    assert np.max(angle.residual(rr)) < 1e-8


def test_angle_second_component_vanishes(angle):
    rr = np.geomspace(1e-4, 1.0, 40)
    assert np.max(np.abs(angle.g_profile(rr))) < 1e-14


def test_angle_series_structure(angle):
    ser = angle.continuation.series
    assert ser.kappa == 1.0 and ser.has_log
    U = np.asarray(ser.log_coefficients)
    assert np.allclose(U[0], [-1.0, 0.0], atol=1e-14)
    # r^3 log r correction present
    assert abs(U[2][0]) > 1e-3


def test_angle_correction_block_small_radius(angle):
    blk = angle.correction_block()
    r = np.array([1e-6, 1e-5])
    expected = 1.0 + np.log(r)
    assert np.max(np.abs(blk.component("g")(r) - expected)) < 1e-8
    assert np.max(np.abs(blk.component("f")(r) - expected)) < 1e-8
    # k1 inherits the r^2 log r smallness of th * f
    assert np.all(np.abs(blk.component("k1")(r)) < 2 * r ** 2 * np.abs(np.log(r)))


def test_angle_boundary_trace_with_cutoff(angle):
    vals = angle.boundary_values()
    assert abs(vals["g"] - 1.0) < 1e-12
    for nm in ("f", "h", "k1"):
        assert abs(vals[nm]) < 1e-12


def test_angle_cutoff_block_matches_raw_inside(angle):
    raw = angle.correction_block()
    cut = angle.correction_block(cutoff=(0.25, 0.5))
    r_in = np.array([0.01, 0.1])
    for nm in ("f", "g", "k1"):
        assert np.allclose(cut.component(nm)(r_in), raw.component(nm)(r_in),
                           atol=1e-12)
    r_out = np.array([0.6, 0.9])
    assert np.max(np.abs(cut.component("f")(r_out))) < 1e-12
    assert np.max(np.abs(cut.component("g")(r_out) - 1.0)) < 1e-12


def test_angle_cutoff_block_inside_band(angle):
    # inside the band the f slot is (-chi f)', with its d1 from the Leibniz
    # jet of chi f; both against central differences of -chi f
    chi = _cutoff_derivatives(0.25, 0.5)[0]
    f = angle.correction_block(cutoff=(0.25, 0.5)).component("f")
    r = np.linspace(0.27, 0.48, 8)
    h = 1e-5

    def g(x):
        return -chi(x) * angle.f_profile(x)

    fd1 = (g(r + h) - g(r - h)) / (2 * h)
    fd2 = (g(r + h) - 2 * g(r) + g(r - h)) / h ** 2
    assert np.max(np.abs(f(r) - fd1)) <= 1e-6 * np.max(np.abs(fd1))
    assert np.max(np.abs(f.d1(r) - fd2)) <= 1e-6 * np.max(np.abs(fd2))


def test_angle_end_to_end_induced_content(angle):
    boundary = angle.boundary_values()
    res = solve_mode_bvp(M_HALF, ScalarMode(0.0, 0), "tensor", boundary)
    assert res.status == "unique" and res.axis_regular
    vals = res.axis_values
    assert all(np.isfinite([v.real, v.imag]).all() for v in vals.values())
    assert abs(vals["g"]) > 1e-3
