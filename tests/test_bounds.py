import math

import numpy as np
import pytest

from diqkd_bounds import (
    BoundCurve,
    DensityMatrix,
    GridMismatchError,
    MeasurementFamily,
    NoViolationError,
    NU_STAR,
    al_bound,
    assemble_ccq,
    behavior_from,
    bound_curve,
    cc_sq_multi,
    channel_curve,
    channel_di_bound,
    convex_hull_bound,
    dephasing_simulation,
    enumerate_vertices,
    er_isotropic_closed,
    er_numeric,
    fbjl_bound,
    fractional_er_bound,
    honest_chsh_device,
    hull_bound,
    intrinsic_nonlocality_upper,
    make_bell_diagonal,
    max_local_weight_with_residual,
    noisy_key_povm,
    observable_povm,
    pironio_er_bound,
)
from diqkd_bounds import bounds, polytope
from diqkd_bounds.measures import TWO_SQRT2, intrinsic_info
from diqkd_bounds.states import PAULI_Z, projector
from util import loop_ccq_cmi, loop_cmi

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


def noisy_preprocessing_rate_at(omega, q, p):
    """DI key rate at CHSH value omega and QBER q when Alice flips each raw key
    bit with probability p (Ho et al., PRL 124, 230502, 2020); p = 0 is Pironio's."""
    s2 = min(omega * omega, 8.0)
    c = math.sqrt(max(s2 / 4 - 1, 0.0))
    return (1 - H((1 + c) / 2) + H((1 + math.sqrt(1 - p * (1 - p) * (8 - s2))) / 2)
            - H(p + q - 2 * p * q))


def noisy_preprocessing_rate(nu):
    """Achievable DI key rate of the honest device at noise nu, maximized over p in [0, 1/2]."""
    from scipy.optimize import minimize_scalar

    omega, q = TWO_SQRT2 * (1 - nu), nu / 2
    if omega < 2:
        return 0.0
    res = minimize_scalar(lambda p: -noisy_preprocessing_rate_at(omega, q, p),
                          bounds=(0.0, 0.5), method="bounded", options={"xatol": 1e-12})
    return max(0.0, noisy_preprocessing_rate_at(omega, q, 0.0), -res.fun)


def test_noisy_preprocessing_rate_without_flips_is_pironio():
    for nu in np.linspace(0.0, NU_STAR, 201):
        omega, q = TWO_SQRT2 * (1 - nu), nu / 2
        no_flips = max(0.0, noisy_preprocessing_rate_at(omega, q, 0.0))
        assert abs(no_flips - pironio_rate(float(nu))) < 1e-12, nu


def test_noisy_preprocessing_rate_outlives_pironio():
    assert pironio_rate(0.16) == 0.0
    assert noisy_preprocessing_rate(0.16) > 3e-4


def test_every_curve_above_noisy_preprocessing_rate():
    nus = np.linspace(0.0, NU_STAR, 2001)
    floor = np.array([noisy_preprocessing_rate(float(nu)) for nu in nus])
    assert floor[0] == 1.0
    for name in bounds.CURVES:
        curve = bound_curve(name, grid=2001)
        assert np.array_equal(curve.params, nus), name
        assert abs(curve.values[0] - 1.0) < 1e-12, name  # the two tie at nu = 0
        assert np.all(curve.values >= floor - 1e-9), name


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
    # fbjl's closed form is the best set partition without gradient
    # refinement; this checks that refinement would not have found a lower value
    for nu in np.linspace(0.0, NU0, 33, endpoint=False):
        p = bounds._fbjl_joint(float(nu))
        unrefined = intrinsic_info(p, refine=False)
        assert intrinsic_info(p, refine=True) >= unrefined - 1e-12, nu
        value = fbjl_bound(float(nu))
        assert abs(value - unrefined) <= 1e-9, nu
        assert value <= unrefined + 1e-12, nu


# --- closed forms against the attack pipelines -----------------------------------

REFERENCE_GRIDS = (16, 64, 257, 1001)


def al_pipeline(nu):
    """al's attack built out: the Bell mixture reaching the device's CHSH
    value, Z against the noisy key readout, Eve holding the purifier."""
    omega = TWO_SQRT2 * (1.0 - nu)
    if omega < 2.0:
        return 0.0
    c = math.sqrt(max((omega / 2.0) ** 2 - 1.0, 0.0))
    sigma = make_bell_diagonal((1.0 + c) / 2.0, (1.0 - c) / 2.0)
    ccq = assemble_ccq(sigma, (observable_povm(PAULI_Z), noisy_key_povm(nu / 2.0)))
    return max(loop_ccq_cmi(ccq.eve_ops), 0.0)


def fbjl_pipeline(nu):
    """fbjl's attack built out: the anchored LP decomposition, its joint, and
    then the zero-key channel or the best set partition."""
    p = bounds._fbjl_joint(nu)
    return 0.0 if zero_key_channel(p) is not None else intrinsic_info(p, refine=False)


@pytest.mark.parametrize("grid", REFERENCE_GRIDS)
@pytest.mark.parametrize("closed, pipeline", [pytest.param(al_bound, al_pipeline, id="al"),
                                              pytest.param(fbjl_bound, fbjl_pipeline, id="fbjl")])
def test_closed_form_matches_attack_pipeline(closed, pipeline, grid):
    for nu in np.linspace(0.0, NU_STAR, grid):
        nu = float(nu)
        value, built = closed(nu), pipeline(nu)
        assert abs(value - built) <= 1e-9, nu
        assert value <= built + 1e-12, nu  # never a weaker bound than the attack gives


def merge_channel(p):
    """Eve's merge on an fbjl joint, read from its masses alone: "?" (the one
    symbol spread over more than one cell) and every anti-correlated point
    mass go to the output of "?"; every other symbol keeps its own output."""
    n_e = p.shape[2]
    w = np.eye(n_e)
    spread = [e for e in range(n_e) if np.count_nonzero(p[:, :, e]) > 1]
    if not spread:
        return w
    (e_q,) = spread
    for e in range(n_e):
        if e != e_q and p[0, 1, e] + p[1, 0, e] > 0.0:
            w[e, e] = 0.0
            w[e, e_q] = 1.0
    return w


@pytest.mark.parametrize("grid", REFERENCE_GRIDS)
def test_fbjl_closed_form_is_the_merge_channel_below_nu0(grid):
    nus = np.linspace(0.0, NU_STAR, grid)
    for nu in nus[nus < NU0]:
        nu = float(nu)
        p = bounds._fbjl_joint(nu)
        q = np.einsum("abe,ef->abf", p, merge_channel(p))
        assert abs(loop_cmi(q) - fbjl_bound(nu)) <= 1e-12, nu


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
    x_count = behavior.shape[0]
    for w, v in zip(dec.vertex_weights, enumerate_vertices(*behavior.shape).tolist()):
        if w > 1e-12:
            cell = (v[0], v[x_count])
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
    bounds._fbjl_frontier.cache_clear()
    bound_curve("fbjl", grid=64)
    bound_curve("fbjl", grid=64, lo=0.0, hi=1.0)
    assert len(calls) == 0  # the closed form solves no LP
    bounds._fbjl_joint(0.1)  # the witness: one LP, at the frontier nu*
    assert len(calls) == 1
    for nu in (0.2, 0.6, 1.0):  # beyond nu* the uniform vertex mixture needs none
        bounds._fbjl_joint(nu)
    assert len(calls) == 1


# --- convex hull ---------------------------------------------------------------

def make_curve(name, values):
    params = np.linspace(0.0, 1.0, len(values))
    zeros = np.zeros(len(values))
    return BoundCurve(name, "nu", params, zeros, zeros, values)


def test_hull_of_convex_curve_is_itself():
    values = [((x - 0.5) ** 2) for x in np.linspace(0, 1, 11)]
    c = make_curve("parabola", values)
    hull = convex_hull_bound(c, c)
    assert np.allclose(hull.values, values, atol=1e-12)


def test_hull_constant_against_v_shape():
    v_shape = [abs(x - 0.5) for x in np.linspace(0, 1, 11)]
    flat = [1.0] * 11
    hull = convex_hull_bound(make_curve("flat", flat), make_curve("v", v_shape))
    # envelope is the V itself (already convex and below the constant)
    assert np.allclose(hull.values, v_shape, atol=1e-12)


def test_hull_dips_below_pointwise_min():
    zigzag = [1.0, 0.2, 1.0, 0.2, 1.0]
    flat = [1.0] * 5
    hull = convex_hull_bound(make_curve("flat", flat), make_curve("zig", zigzag))
    mins = np.minimum(flat, zigzag)
    assert np.all(hull.values <= mins + 1e-12)
    assert hull.values[2] < mins[2] - 0.1  # strictly below at the bump


def test_hull_grid_mismatch():
    with pytest.raises(GridMismatchError):
        convex_hull_bound(make_curve("a", [1, 1, 1]), make_curve("b", [1, 1, 1, 1]))


def test_hull_rejects_curves_on_different_axes():
    # the same numbers on both grids: one is the noise nu, the other the channel's p
    al = bound_curve("al", grid=5, hi=0.25)
    dephasing = channel_curve("dephasing", grid=5, p_max=0.25)
    assert np.array_equal(al.params, dephasing.params)
    for c1, c2 in [(al, dephasing), (dephasing, al)]:
        with pytest.raises(GridMismatchError, match="different axes"):
            convex_hull_bound(c1, c2)
    assert convex_hull_bound(al, al).axis == "nu"
    assert convex_hull_bound(dephasing, dephasing).axis == "p"


def test_attack_bounds_convex_below_frontier():
    # the bridge bisection's precondition: a line of each slope touches once
    for name in ("al", "fbjl"):
        values = bound_curve(name, grid=10_001).values
        assert np.diff(values, 2).min() >= -1e-12, name


def test_hull_bridge_is_the_common_tangent():
    nu_a, nu_b = bounds._hull_bridge()
    y_a, y_b = al_bound(nu_a), fbjl_bound(nu_b)
    nus = np.append(np.linspace(0.0, 1.0, 10_001), [nu_a, nu_b])
    line = y_a + (y_b - y_a) / (nu_b - nu_a) * (nus - nu_a)
    for f in (al_bound, fbjl_bound):
        assert np.all(line <= np.array([f(float(nu)) for nu in nus]) + 1e-12), f.__name__
    assert (hull_bound(nu_a), hull_bound(nu_b)) == (y_a, y_b)


def test_hull_bound_is_convex_and_between_floor_and_attacks():
    hull = bound_curve("hull", grid=10_001, lo=0.0, hi=1.0)
    nus = hull.params
    assert np.array_equal(hull.values, [hull_bound(float(nu)) for nu in nus])
    mins = np.minimum([al_bound(float(nu)) for nu in nus], [fbjl_bound(float(nu)) for nu in nus])
    assert np.all(hull.values <= mins + 1e-12)
    # every upper bound must stay above the achievable rate
    assert np.all(hull.values >= np.array([pironio_rate(float(nu)) for nu in nus]) - 1e-9)
    assert np.diff(hull.values, 2).min() >= -1e-12


def test_hull_bound_out_of_range():
    for nu in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            hull_bound(nu)


@pytest.mark.parametrize("kwargs", [
    *(pytest.param({"grid": g}, id=f"nu{g}") for g in (4, 16, 17, 64, 257, 1001)),
    *(pytest.param({"grid": g, "axis": "omega"}, id=f"omega{g}") for g in (17, 33)),
    *(pytest.param({"grid": 64, "lo": lo, "hi": hi}, id=f"nu{lo}-{hi}")
      for lo, hi in ((0.1, 0.25), (0.15, 0.2), (0.0, 1.0))),
])
def test_hull_curve_is_the_grid_hull_outside_the_bridge(kwargs):
    # the exact envelope never lies above the hull of the sampled attacks,
    # and equals it wherever the envelope is one of the two attacks
    exact = bound_curve("hull", **kwargs)
    sampled = convex_hull_bound(bound_curve("al", **kwargs), bound_curve("fbjl", **kwargs))
    nu_a, nu_b = bounds._hull_bridge()
    for param, qber, s, g in zip(exact.params, exact.qbers, exact.values, sampled.values,
                                 strict=True):
        assert s <= g + 1e-12, param
        if not nu_a < 2.0 * qber < nu_b:  # qber = nu/2 exactly
            assert s == g, param


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


@pytest.mark.parametrize("name", ["al", "fbjl", "hull", "fractional", "pironio"])
def test_bound_curve_looks_up_point_function_at_call_time(monkeypatch, name):
    # wrappers installed on the module attribute (span tracing, counting)
    # must see every sample, so CURVES may not hold the function objects
    target = {"al": "al_bound", "fbjl": "fbjl_bound", "hull": "hull_bound",
              "fractional": "fractional_er_bound", "pironio": "pironio_er_bound"}[name]
    original = getattr(bounds, target)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bounds, target, counting)
    bound_curve(name, grid=3)
    assert len(calls) == 3


def test_bound_curve_refuses_a_nan_value(monkeypatch):
    # NaN fails every comparison, and max(nan, 0.0) is nan
    original = bounds.al_bound
    monkeypatch.setattr(bounds, "al_bound",
                        lambda nu: math.nan if 0.0 < nu < NU_STAR else original(nu))
    with pytest.raises(ValueError, match=r"^bound value nan outside \[0, 1\]"):
        bound_curve("al", grid=3)


@pytest.mark.parametrize("columns,message", [
    (([0.0, 0.5, 1.0], [0.0] * 2, [0.0] * 3, [0.5] * 3), "1-d and of one length"),
    (([[0.0, 0.5]], [[0.0, 0.0]], [[0.0, 0.0]], [[0.5, 0.5]]), "1-d and of one length"),
    (([0.0, math.nan, 1.0], [0.0] * 3, [0.0] * 3, [0.5] * 3), "strictly increasing"),
], ids=["ragged", "2-d", "nan-param"])
def test_bound_curve_refuses_malformed_columns(columns, message):
    with pytest.raises(ValueError, match=message):
        BoundCurve("c", "nu", *columns)


def test_bound_curve_columns_are_read_only_copies():
    values = np.full(4, 0.5)
    curve = BoundCurve("c", "nu", np.linspace(0.0, 1.0, 4), values, values, values)
    values[0] = 2.0
    for column in (curve.params, curve.omegas, curve.qbers, curve.values):
        assert column.shape == (4,) and column.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.0
    assert curve.values.tolist() == [0.5] * 4


@pytest.mark.parametrize("name", sorted(bounds.CURVES))
def test_omega_axis_past_tsirelson_keeps_nu_nonnegative(name):
    # the range check lets hi pass 2*sqrt(2) by 1e-12; such a hi is the Tsirelson point
    over = bound_curve(name, grid=3, hi=2.8284271247465, axis="omega")
    exact = bound_curve(name, grid=3, hi=TWO_SQRT2, axis="omega")
    assert min(over.qbers) >= 0.0
    assert over.values[-1] == exact.values[-1]


@pytest.mark.parametrize("kind", ["dephasing", "depolarizing", "erasure"])
def test_channel_curve_above_achievable_rate(kind):
    # each bound must stay above the Pironio rate of its Choi device, read at
    # the curve's own omega and QBER columns; dephasing meets it exactly
    curve = channel_curve(kind, grid=401)
    for p, omega, qber, value in zip(curve.params, curve.omegas, curve.qbers, curve.values):
        assert value >= pironio_rate_at(omega, qber) - 1e-12, (kind, p)


def test_channel_curve_samples():
    curve = channel_curve("erasure", grid=3, p_min=0.0, p_max=1.0)
    assert curve.params.tolist() == [0.0, 0.5, 1.0]
    assert abs(curve.values[0] - 1.0) < 1e-12
    assert curve.values[1] == 0.0
    assert curve.values[2] == 0.0


@pytest.mark.parametrize("call,message", [
    (lambda: channel_di_bound("dephasing", 1.5), r"p=1.5 outside \[0, 1\]"),
    (lambda: channel_di_bound("amplitude", 0.1), "unknown channel kind 'amplitude'"),
    (lambda: dephasing_simulation("dephasing", 0.1),
     "simulation target must be depolarizing or erasure, got 'dephasing'"),
    (lambda: dephasing_simulation("depolarizing", -0.1), r"p=-0.1 outside \[0, 1\]"),
    (lambda: bound_curve("xyz"), r"unknown curve 'xyz'; pick one of \('al', 'fbjl', "),
    (lambda: bound_curve("al", axis="omega", lo=3.0),
     r"omega range \[3.0, 2.8284271247461903\] invalid"),
    (lambda: bound_curve("al", axis="p"), "axis must be 'nu' or 'omega', got 'p'"),
    (lambda: channel_curve("dephasing", grid=1), "grid must be at least 2"),
    (lambda: channel_curve("erasure", p_min=0.7, p_max=0.3), r"p range \[0.7, 0.3\] invalid"),
], ids=["channel-p", "channel-kind", "simulation-kind", "simulation-p", "curve-name",
        "curve-omega-range", "curve-axis", "channel-grid", "channel-p-range"])
def test_bounds_refuse_arguments_outside_their_domain(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


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
