import math

import numpy as np
import pytest

from diqkd_bounds import (
    BoundCurve,
    CurveSample,
    DensityMatrix,
    GridMismatchError,
    MeasurementFamily,
    NoViolationError,
    NU_STAR,
    al_bound,
    behavior_from,
    bound_curve,
    cc_sq_multi,
    channel_curve,
    channel_di_bound,
    convex_hull_bound,
    dephasing_simulation,
    er_isotropic_closed,
    er_numeric,
    fbjl_bound,
    fractional_er_bound,
    honest_chsh_device,
    hull_curve,
    intrinsic_nonlocality_upper,
    make_bell_diagonal,
    max_local_weight_with_residual,
    observable_povm,
    pironio_er_bound,
)
from diqkd_bounds import bounds, polytope
from diqkd_bounds.measures import TWO_SQRT2, intrinsic_info
from diqkd_bounds.states import PAULI_Z, projector
from util import loop_cmi

H = lambda x: 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)


# --- explicit attacks ---------------------------------------------------------

def test_al_bound_noiseless_is_one_bit():
    assert abs(al_bound(0.0) - 1.0) < 1e-10


def test_al_bound_zero_at_frontier():
    assert al_bound(NU_STAR) < 1e-9
    assert al_bound(0.5) == 0.0


def pironio_rate_at(omega, q):
    """Achievable DI key rate at CHSH value omega and QBER q (Pironio et al. 2009)."""
    c = min(math.sqrt(max((omega / 2) ** 2 - 1, 0.0)), 1.0)
    return max(0.0, 1 - H(q) - H((1 + c) / 2))


def pironio_rate(nu):
    """Achievable DI key rate of the honest device at isotropic noise nu."""
    return pironio_rate_at(TWO_SQRT2 * (1 - nu), nu / 2)


def test_al_bound_small_noise_between_fbjl_and_cap():
    # just above zero noise the quantum attack is the tighter upper bound
    value = al_bound(0.05)
    fbjl = fbjl_bound(0.05)
    assert pironio_rate(0.05) < value < fbjl < 1.0


def test_al_bound_out_of_range():
    with pytest.raises(ValueError):
        al_bound(-0.1)


def test_fbjl_zero_beyond_frontier():
    for nu in (NU_STAR, 0.32, 0.5, 1.0):
        assert fbjl_bound(nu) < 1e-6


def test_fbjl_capped_by_one_bit_at_zero_noise():
    value = fbjl_bound(0.0)
    # the Tsirelson device is its own quantum residual: q_L = 0, so Eve holds
    # "?" on every round and the value is (1 - q_L) * 1 = 1 bit
    assert abs(value - 1.0) < 1e-9


NU0 = 2 * NU_STAR / (2 + NU_STAR)  # where fbjl's "?" mass c meets beta


def zero_key_channel(p):
    """Eve's zero-key channel on an fbjl joint, read from its masses alone.

    "?" is the one symbol spread over more than one cell, with mass c on
    (0,0) and (1,1).  It and a fraction c / beta of each anti-correlated
    point-mass symbol (total mass beta on (0,1), and on (1,0)) go to the
    output of "?"; every other symbol keeps its own output.  Returns the
    channel W[e][f], or None when c > beta and the channel does not exist.
    """
    n_e = p.shape[2]
    w = np.eye(n_e)
    spread = [e for e in range(n_e) if np.count_nonzero(p[:, :, e]) > 1]
    if not spread:
        return w
    (e_q,) = spread
    c = max(p[0, 0, e_q], p[1, 1, e_q])
    beta = {cell: sum(p[cell + (e,)] for e in range(n_e) if e != e_q)
            for cell in ((0, 1), (1, 0))}
    if c > min(beta.values()):
        return None
    for e in range(n_e):
        for cell, mass in beta.items():
            if e != e_q and p[cell + (e,)] > 0.0:
                w[e, e] = 1.0 - c / mass
                w[e, e_q] = c / mass
    return w


@pytest.mark.parametrize("nu", [0.2555, 0.26, 0.28, NU_STAR])
def test_fbjl_zero_key_channel_above_nu0(nu):
    p = bounds._fbjl_joint(nu)
    w = zero_key_channel(p)
    assert w is not None and w.min() >= 0.0
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-15)
    q = np.einsum("abe,ef->abf", p, w)
    assert abs(loop_cmi(q)) <= 1e-15
    assert fbjl_bound(nu) == 0.0


def test_fbjl_positive_below_nu0():
    assert zero_key_channel(bounds._fbjl_joint(0.255)) is None
    assert fbjl_bound(0.255) > 0.0


def test_fbjl_refinement_gains_nothing_below_nu0():
    # fbjl takes the best set partition without gradient refinement; this
    # checks that refinement would not have found a lower value
    for nu in np.linspace(0.0, NU0, 33, endpoint=False):
        p = bounds._fbjl_joint(float(nu))
        unrefined = intrinsic_info(p, refine=False)
        assert intrinsic_info(p, refine=True) >= unrefined - 1e-12, nu
        assert fbjl_bound(float(nu)) == unrefined


def test_fbjl_anchored_decomposition_reconstructs_device():
    for nu in np.linspace(0.0, 1.0, 41):
        dec = bounds._fbjl_decomposition(float(nu))
        b = behavior_from(*honest_chsh_device(float(nu)))
        assert np.max(np.abs(dec.reconstruct() - b.table)) <= 1e-12, nu
        assert dec.vertex_weights.min() >= 0.0
        assert abs(dec.vertex_weights.sum() - min(nu / NU_STAR, 1.0)) <= 1e-12, nu


def per_point_lp_joint(nu):
    """fbjl's joint from a fixed-residual LP solved at nu itself, assembled
    as before the anchors: vertex symbols in order of first appearance, "?"
    last, normalized."""
    behavior = behavior_from(*honest_chsh_device(nu))
    dec = max_local_weight_with_residual(behavior, behavior_from(*honest_chsh_device(0.0)))
    symbols = {}
    entries = []
    for w, v in zip(dec.vertex_weights, dec.vertices):
        if w > 1e-12:
            cell = (v.a_map[0], v.b_map[0])
            entries.append(cell + (symbols.setdefault(cell, len(symbols)), w))
    e_q = symbols.setdefault("?", len(symbols))
    if dec.residual_used and 1.0 - dec.local_weight > 1e-12:
        slab = dec.residual.slice_xy(0, 0)
        for a in range(2):
            for b in range(2):
                if slab[a, b] > 0.0:
                    entries.append((a, b, e_q, (1.0 - dec.local_weight) * slab[a, b]))
    p = np.zeros((2, 2, len(symbols)))
    for a, b, e, w in entries:
        p[a, b, e] += w
    return p / p.sum()


def test_fbjl_anchors_match_per_point_lp():
    # the per-point LP's own round-off reaches 2.2e-15 on this grid, the
    # anchored joint stays within 1e-15 of the exact cell masses
    for nu in np.linspace(0.0, 1.0, 257):
        nu = float(nu)
        old, new = per_point_lp_joint(nu), bounds._fbjl_joint(nu)
        quantum = np.eye(2) * (1.0 - min(nu / NU_STAR, 1.0)) / 2.0
        key = np.array([[1.0 - nu / 2.0, nu / 2.0], [nu / 2.0, 1.0 - nu / 2.0]]) / 2.0
        assert np.max(np.abs(new[:, :, :-1].sum(axis=2) - (key - quantum))) <= 1e-15, nu
        assert np.max(np.abs(new[:, :, -1] - quantum)) <= 1e-15, nu
        assert np.max(np.abs(new[:, :, :-1].sum(axis=2) - old[:, :, :-1].sum(axis=2))) <= 4e-15, nu
        assert np.max(np.abs(new[:, :, -1] - old[:, :, -1])) <= 4e-15, nu
        c = max(old[0, 0, -1], old[1, 1, -1])
        beta = min(old[0, 1, :-1].sum(), old[1, 0, :-1].sum())
        old_value = 0.0 if c <= beta else intrinsic_info(old, refine=False)
        value = fbjl_bound(nu)
        assert abs(value - old_value) <= 1e-12, nu
        assert value <= old_value + 1e-9, nu


def test_fbjl_curve_solves_lp_only_at_anchors(monkeypatch):
    solve = polytope.simplex_solve
    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(polytope, "simplex_solve", counting_solve)
    bounds._tsirelson_behavior.cache_clear()
    bounds._fbjl_anchor.cache_clear()
    bound_curve("fbjl", grid=64)
    assert len(calls) == 1
    calls.clear()
    bounds._fbjl_anchor.cache_clear()
    bound_curve("fbjl", grid=64, lo=0.0, hi=1.0)  # past nu*: the nu = 1 anchor too
    assert len(calls) <= 2


# --- convex hull ---------------------------------------------------------------

def make_curve(name, values):
    params = np.linspace(0.0, 1.0, len(values))
    samples = tuple(CurveSample(float(p), 0.0, 0.0, float(v))
                    for p, v in zip(params, values))
    return BoundCurve(name, "nu", samples)


def test_hull_of_convex_curve_is_itself():
    values = [((x - 0.5) ** 2) for x in np.linspace(0, 1, 11)]
    c = make_curve("parabola", values)
    hull = convex_hull_bound(c, c)
    assert np.allclose(hull.curve.values, values, atol=1e-12)


def test_hull_constant_against_v_shape():
    v_shape = [abs(x - 0.5) for x in np.linspace(0, 1, 11)]
    flat = [1.0] * 11
    hull = convex_hull_bound(make_curve("flat", flat), make_curve("v", v_shape))
    # envelope is the V itself (already convex and below the constant)
    assert np.allclose(hull.curve.values, v_shape, atol=1e-12)
    assert hull.support_indices[0] == 0 and hull.support_indices[-1] == 10


def test_hull_dips_below_pointwise_min():
    zigzag = [1.0, 0.2, 1.0, 0.2, 1.0]
    flat = [1.0] * 5
    hull = convex_hull_bound(make_curve("flat", flat), make_curve("zig", zigzag))
    mins = np.minimum(flat, zigzag)
    assert np.all(hull.curve.values <= mins + 1e-12)
    assert hull.curve.values[2] < mins[2] - 0.1  # strictly below at the bump


def test_hull_grid_mismatch():
    with pytest.raises(GridMismatchError):
        convex_hull_bound(make_curve("a", [1, 1, 1]), make_curve("b", [1, 1, 1, 1]))


def test_hull_curve_invariants_on_attack_bounds():
    hull = hull_curve(grid=24)
    al = bound_curve("al", grid=24)
    fb = bound_curve("fbjl", grid=24)
    mins = np.minimum(al.values, fb.values)
    assert np.all(hull.curve.values <= mins + 1e-12)
    second = np.diff(hull.curve.values, 2)
    assert second.min() >= -1e-9
    # every upper bound must stay above the achievable rate
    floor = np.array([pironio_rate(float(nu)) for nu in al.params])
    for curve in (al, fb, hull.curve):
        assert np.all(curve.values >= floor - 1e-9), curve.name


# --- relative-entropy bounds ----------------------------------------------------

def test_relative_entropy_curves_above_achievable_rate():
    for name in ("fractional", "pironio"):
        curve = bound_curve(name, grid=64)
        floor = np.array([pironio_rate(float(nu)) for nu in curve.params])
        assert np.all(curve.values >= floor - 1e-9), name


def test_fractional_endpoints():
    assert fractional_er_bound(2.0) == 0.0
    assert abs(fractional_er_bound(TWO_SQRT2) - 1.0) < 1e-9


def test_fractional_below_isotropic_closed_form():
    for omega in np.linspace(2.0, TWO_SQRT2, 33):
        assert fractional_er_bound(float(omega)) <= er_isotropic_closed(float(omega)) + 1e-9


def _fractional_ratio(w1: float) -> float:
    return er_isotropic_closed(w1) / (w1 - 2.0)


def test_fractional_ratio_has_a_single_minimum():
    # fractional_er_bound rests on this: E_R(w1) / (w1 - 2) falls, then rises
    w1 = np.linspace(2.0 + 1e-6, TWO_SQRT2, 20001)
    steps = np.sign(np.diff([_fractional_ratio(float(w)) for w in w1]))
    turns = np.flatnonzero(steps[1:] != steps[:-1])
    assert np.all(steps != 0)
    assert len(turns) == 1 and steps[0] < 0 < steps[-1]
    assert abs(w1[turns[0] + 1] - 2.634547) < 1e-4


def test_fractional_matches_bounded_scalar_minimization():
    from scipy.optimize import minimize_scalar

    omegas = np.concatenate([np.linspace(2.0, TWO_SQRT2, 101)[1:-1],
                             2.634547 + np.array([-1e-3, -1e-6, 0.0, 1e-6, 1e-3])])
    for omega in map(float, omegas):
        f = lambda w1: (omega - 2.0) * _fractional_ratio(w1)
        res = minimize_scalar(f, bounds=(omega, TWO_SQRT2), method="bounded",
                              options={"xatol": 1e-10})
        oracle = min(res.fun, f(omega), f(TWO_SQRT2))
        value = fractional_er_bound(omega)
        assert abs(value - oracle) < 1e-9, omega
        assert value <= oracle + 1e-12, omega


def test_fractional_out_of_range():
    with pytest.raises(ValueError):
        fractional_er_bound(1.5)


def test_pironio_values():
    assert pironio_er_bound(2.0) == 0.0
    assert abs(pironio_er_bound(TWO_SQRT2) - 1.0) < 1e-12
    assert abs(pironio_er_bound(2.5) - (1 - H(0.875))) < 1e-12


def test_pironio_cross_checked_by_numerical_er():
    omega = 2.5
    c = math.sqrt((omega / 2) ** 2 - 1)
    rho = make_bell_diagonal((1 + c) / 2, (1 - c) / 2)
    assert abs(er_numeric(rho, restarts=3, seed=0) - pironio_er_bound(omega)) < 1e-3


def test_pironio_below_fractional():
    for omega in np.linspace(2.0, TWO_SQRT2, 64):
        assert pironio_er_bound(float(omega)) <= fractional_er_bound(float(omega)) + 1e-9


# --- channel bounds --------------------------------------------------------------

def test_channel_bounds_noiseless_endpoint():
    for kind in ("dephasing", "depolarizing", "erasure"):
        assert abs(channel_di_bound(kind, 0.0) - 1.0) < 1e-12


def test_channel_depolarizing_no_violation_region():
    assert channel_di_bound("depolarizing", 0.3) == 0.0  # 1 - 4p + 2p^2 < 0
    assert channel_di_bound("erasure", 0.3) == 0.0


def test_channel_erasure_formula():
    p = 0.1
    disc = 1 - 4 * p + 2 * p * p
    expected = min(1 - H((1 - math.sqrt(disc)) / 2), 1 - p)
    assert abs(channel_di_bound("erasure", p) - expected) < 1e-12


def test_channel_dephasing_formula():
    assert abs(channel_di_bound("dephasing", 0.2) - (1 - H(0.2))) < 1e-12


def test_channel_bound_monotone_non_increasing():
    for kind in ("dephasing", "depolarizing", "erasure"):
        ps = np.linspace(0.0, 0.5, 64)
        vals = [channel_di_bound(kind, float(p)) for p in ps]
        assert np.all(np.diff(vals) <= 1e-12)


def test_channel_min_picks_chsh_term_where_smaller():
    # near the violation frontier the dephasing-attack term dominates the min
    p = 0.25
    disc = 1 - 4 * p + 2 * p * p
    chsh_term = 1 - H((1 - math.sqrt(disc)) / 2)
    assert chsh_term < 1 - H(3 * p / 4)
    assert abs(channel_di_bound("depolarizing", p) - chsh_term) < 1e-12


def test_curve_generators_monotone():
    for name in ("al", "fractional", "pironio"):
        curve = bound_curve(name, grid=64)
        assert np.all(np.diff(curve.values) <= 1e-9), name
    curve = bound_curve("fbjl", grid=16)
    assert np.all(np.diff(curve.values) <= 1e-6)


@pytest.mark.parametrize("name", ["al", "fbjl", "fractional", "pironio"])
def test_bound_curve_looks_up_point_function_at_call_time(monkeypatch, name):
    # wrappers installed on the module attribute (span tracing, counting)
    # must see every sample, so CURVES may not hold the function objects
    target = {"al": "al_bound", "fbjl": "fbjl_bound", "fractional": "fractional_er_bound",
              "pironio": "pironio_er_bound"}[name]
    original = getattr(bounds, target)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bounds, target, counting)
    bound_curve(name, grid=3)
    assert len(calls) == 3


@pytest.mark.parametrize("name", sorted(bounds.CURVES))
def test_omega_axis_past_tsirelson_keeps_nu_nonnegative(name):
    # the range check lets hi pass 2*sqrt(2) by 1e-12; such a hi is the Tsirelson point
    over = bound_curve(name, grid=3, hi=2.8284271247465, axis="omega")
    exact = bound_curve(name, grid=3, hi=TWO_SQRT2, axis="omega")
    assert min(s.qber for s in over.samples) >= 0.0
    assert over.samples[-1].value == exact.samples[-1].value


@pytest.mark.parametrize("kind", ["dephasing", "depolarizing", "erasure"])
def test_channel_curve_above_achievable_rate(kind):
    # each bound must stay above the Pironio rate of its Choi device, read at
    # the curve's own omega and QBER columns; dephasing meets it exactly
    for s in channel_curve(kind, grid=401).samples:
        assert s.value >= pironio_rate_at(s.omega, s.qber) - 1e-12, (kind, s)


def test_channel_curve_samples():
    curve = channel_curve("erasure", grid=3, p_min=0.0, p_max=1.0)
    assert [s.param for s in curve.samples] == [0.0, 0.5, 1.0]
    assert abs(curve.samples[0].value - 1.0) < 1e-12
    assert curve.samples[1].value == 0.0
    assert curve.samples[2].value == 0.0


# --- dephasing simulation ---------------------------------------------------------

@pytest.mark.parametrize("kind", ["depolarizing", "erasure"])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.1, 0.15])
def test_simulation_replicates_chsh(kind, p):
    report = dephasing_simulation(kind, p)
    assert report.chsh_deviation < 1e-9
    assert abs(report.omega_target - (1 - p) * TWO_SQRT2) < 1e-9
    assert report.qber_deviation < 1e-9


def test_simulation_noiseless_is_exact():
    report = dephasing_simulation("depolarizing", 0.0)
    assert abs(report.dephasing_noise) < 1e-12
    assert abs(report.omega_target - TWO_SQRT2) < 1e-9
    assert abs(report.qber_target) < 1e-12


def test_simulation_erasure_qber_convention():
    report = dephasing_simulation("erasure", 0.1)
    assert report.qber_target == 1.0
    assert abs(report.qber_dephasing - 1.0) < 1e-12


def test_simulation_rejects_no_violation():
    with pytest.raises(NoViolationError):
        dephasing_simulation("depolarizing", 0.5)


# --- restricted evaluators ----------------------------------------------------------

def test_intrinsic_nonlocality_pure_state_trivial_eve():
    state, fam = honest_chsh_device(0.0)
    # pure state: Eve trivial, so the value is the best per-setting I(A:B) = 1
    assert abs(intrinsic_nonlocality_upper(state, fam) - 1.0) < 1e-9


def test_intrinsic_nonlocality_deterministic_device_is_zero():
    ket00 = np.zeros(4, dtype=complex)
    ket00[0] = 1.0
    state = DensityMatrix(projector(ket00), (2, 2))
    fam = MeasurementFamily((observable_povm(PAULI_Z),), (observable_povm(PAULI_Z),))
    assert intrinsic_nonlocality_upper(state, fam) < 1e-10


def test_intrinsic_nonlocality_honest_device_reported_value():
    # no ordering against other bounds is claimed, only a finite value in [0, 1]
    state, fam = honest_chsh_device(0.2)
    value = intrinsic_nonlocality_upper(state, fam)
    assert 0.0 <= value <= 1.0 + 1e-9


def test_cc_sq_multi_single_setting():
    state, fam = honest_chsh_device(0.2)
    p = np.zeros((3, 2))
    p[0, 0] = 1.0
    from diqkd_bounds import assemble_ccq, cmi_ccq
    direct = cmi_ccq(assemble_ccq(state, (fam.alice[0], fam.bob[0])))
    assert abs(cc_sq_multi(state, fam, p) - direct) < 1e-12


def test_cc_sq_multi_uniform_two_identical_settings():
    state, _ = honest_chsh_device(0.2)
    povm = observable_povm(PAULI_Z)
    fam = MeasurementFamily((povm, povm), (povm,))
    p = np.array([[0.5], [0.5]])
    single = np.array([[1.0], [0.0]])
    assert abs(cc_sq_multi(state, fam, p) - cc_sq_multi(state, fam, single)) < 1e-12


def test_cc_sq_multi_matches_broadcast_flag_identity():
    from diqkd_bounds import broadcast_ccq, cmi_ccq
    state, fam = honest_chsh_device(0.1)
    p_xy = np.full((3, 2), 1 / 6)
    assert abs(cc_sq_multi(state, fam, p_xy)
               - cmi_ccq(broadcast_ccq(state, fam, p_xy))) < 1e-9
