"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 4 is split: the hull inequalities (4a) and the curve
crossover (4b).  4b checks that the quantum-attack bound (al) is the lower
one just above zero noise and the convex-combination bound (fbjl) the lower
one near the frontier nu*.  At nu = 0 itself the achievable rate is one bit,
so there both curves must equal 1 rather than be ordered.
"""

import itertools
import math
import time

import numpy as np
from scipy.optimize import linprog

from diqkd_bounds import (
    NU_STAR,
    behavior_from,
    bound_curve,
    broadcast_ccq,
    channel_di_bound,
    chsh_value,
    cmi_ccq,
    convex_hull_bound,
    dephasing_simulation,
    er_isotropic_closed,
    er_numeric,
    fbjl_bound,
    fractional_er_bound,
    honest_chsh_device,
    intrinsic_info,
    make_isotropic,
    max_local_weight,
    pironio_er_bound,
    qber,
    separable_chsh2_strategy,
)
from diqkd_bounds.bounds import cc_sq_multi
from diqkd_bounds.measures import TWO_SQRT2
from diqkd_bounds.polytope import vertex_array
from util import random_density, random_ns_behavior, random_projective_family


def report(tag: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {tag}: {detail}"


def test_criterion_1_er_closed_form_cross_validation():
    t0 = time.monotonic()
    worst = 0.0
    for omega in (2.1, 2.4, 2.7, TWO_SQRT2):
        rho = make_isotropic(1 - omega / TWO_SQRT2)
        diff = abs(er_numeric(rho, seed=0) - er_isotropic_closed(omega))
        worst = max(worst, diff)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-3 and elapsed < 30.0
    report("1", ok, f"er_numeric vs closed form: max |diff| = {worst:.2e}, "
                    f"{elapsed:.1f}s (< 30s)")


def test_criterion_2_honest_device_chsh():
    t0 = time.monotonic()
    worst = 0.0
    for nu in np.linspace(0.0, 1.0, 50):
        state, fam = honest_chsh_device(float(nu))
        b = behavior_from(state, fam)
        worst = max(worst, abs(chsh_value(b) - TWO_SQRT2 * (1 - nu)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    report("2", ok, f"CHSH = 2*sqrt(2)*(1-nu) on 50 points: max dev = {worst:.2e}, "
                    f"{elapsed:.2f}s (< 1s)")


def test_criterion_3_separable_chsh2_strategy():
    t0 = time.monotonic()
    worst_chsh = worst_qber = 0.0
    for q in (0.0, 0.1, 0.25, 0.5):
        state, fam = separable_chsh2_strategy(q)
        b = behavior_from(state, fam)
        worst_chsh = max(worst_chsh, abs(chsh_value(b) - 2.0))
        worst_qber = max(worst_qber, abs(qber(b) - q))
    elapsed = time.monotonic() - t0
    ok = worst_chsh < 1e-10 and worst_qber < 1e-10 and elapsed < 1.0
    report("3", ok, f"CHSH dev = {worst_chsh:.2e}, QBER dev = {worst_qber:.2e}, "
                    f"{elapsed:.2f}s (< 1s)")


_curves_cache = {}


def _attack_curves():
    if not _curves_cache:
        t0 = time.monotonic()
        _curves_cache["al"] = bound_curve("al", grid=64)
        _curves_cache["fbjl"] = bound_curve("fbjl", grid=64)
        _curves_cache["elapsed"] = time.monotonic() - t0
    return _curves_cache


def test_criterion_4a_hull_inequalities():
    curves = _attack_curves()
    al, fb = curves["al"], curves["fbjl"]
    hull = convex_hull_bound(al, fb)
    mins = np.minimum(al.values, fb.values)
    gap = float(np.max(hull.values - mins))
    second = float(np.min(np.diff(hull.values, 2)))
    elapsed = curves["elapsed"]
    ok = gap <= 1e-12 and second >= -1e-9 and elapsed < 300.0
    report("4a", ok, f"hull <= min (slack {gap:.1e}), second diffs >= {second:.1e}, "
                     f"curve time {elapsed:.0f}s (< 300s)")


def test_criterion_4b_crossover():
    curves = _attack_curves()
    al, fb = curves["al"].values, curves["fbjl"].values
    # both attacks give the achievable one bit at nu = 0; then al below fbjl
    # at the first noisy points, fbjl below al near nu*
    noiseless = abs(al[0] - 1.0) < 1e-9 and abs(fb[0] - 1.0) < 1e-9
    low_end = bool(np.all(al[1:3] < fb[1:3] - 1e-12))
    high_end = bool(np.all(fb[-3:-1] < al[-3:-1] - 1e-12))
    detail = (f"al[0]={al[0]:.12f}, fbjl[0]={fb[0]:.12f}; "
              f"al[1:3]={np.round(al[1:3], 6).tolist()} vs fbjl[1:3]="
              f"{np.round(fb[1:3], 6).tolist()}; "
              f"fbjl[-3:-1]={np.round(fb[-3:-1], 9).tolist()} vs al[-3:-1]="
              f"{np.round(al[-3:-1], 9).tolist()}")
    report("4b", noiseless and low_end and high_end, f"crossover: {detail}")


def test_criterion_5_zero_key_frontier():
    t0 = time.monotonic()
    worst = 0.0
    for nu in np.linspace(NU_STAR, 1.0, 15):
        worst = max(worst, fbjl_bound(float(nu)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    report("5", ok, f"fbjl = 0 above the frontier: max = {worst:.2e}, "
                    f"{elapsed:.1f}s (< 60s)")


def test_criterion_6_fractional_vs_pironio():
    t0 = time.monotonic()
    worst = -math.inf
    for omega in np.linspace(2.0, TWO_SQRT2, 64):
        worst = max(worst, pironio_er_bound(float(omega))
                    - fractional_er_bound(float(omega)))
    end_dev = max(abs(pironio_er_bound(2.0)), abs(fractional_er_bound(2.0)),
                  abs(pironio_er_bound(TWO_SQRT2) - 1.0),
                  abs(fractional_er_bound(TWO_SQRT2) - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and end_dev < 1e-9 and elapsed < 10.0
    report("6", ok, f"max(pironio - fractional) = {worst:.2e}, endpoint dev = "
                    f"{end_dev:.2e}, {elapsed:.1f}s (< 10s)")


def test_criterion_7_channel_bounds():
    t0 = time.monotonic()
    end_dev = max(abs(channel_di_bound(kind, 0.0) - 1.0)
                  for kind in ("dephasing", "depolarizing", "erasure"))
    zero_branch = max(channel_di_bound(kind, float(p))
                      for kind in ("depolarizing", "erasure")
                      for p in np.linspace(NU_STAR, 1.0, 20))
    sim_dev = max(dephasing_simulation(kind, p).chsh_deviation
                  for kind in ("depolarizing", "erasure")
                  for p in (0.0, 0.05, 0.15))
    elapsed = time.monotonic() - t0
    ok = end_dev < 1e-12 and zero_branch == 0.0 and sim_dev < 1e-9 and elapsed < 10.0
    report("7", ok, f"endpoints dev = {end_dev:.1e}, no-violation branch max = "
                    f"{zero_branch:.1e}, CHSH-match dev = {sim_dev:.2e}, "
                    f"{elapsed:.1f}s (< 10s)")


def test_criterion_8_lp_oracle_equivalence():
    t0 = time.monotonic()
    shape = (2, 2, 2, 2)
    d = vertex_array(*shape).reshape(16, -1)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        b = random_ns_behavior(rng)
        mine = max_local_weight(b).local_weight
        ref = linprog(-np.ones(d.shape[1]), A_ub=d, b_ub=b.table.reshape(-1),
                      bounds=(0, None), method="highs")
        assert ref.status == 0
        worst = max(worst, abs(mine - (-ref.fun)))
    # the stated edge cases
    pr = np.zeros(shape)
    for x, y, a, b_ in itertools.product(range(2), repeat=4):
        if (a + b_) % 2 == x * y:
            pr[x, y, a, b_] = 0.5
    det = np.zeros(shape)
    det[:, :, 0, 1] = 1.0
    from diqkd_bounds import Behavior
    pr_weight = max_local_weight(Behavior(pr)).local_weight
    det_weight = max_local_weight(Behavior(det)).local_weight
    elapsed = time.monotonic() - t0
    ok = (worst < 1e-8 and pr_weight < 1e-9 and abs(det_weight - 1.0) < 1e-9
          and elapsed < 120.0)
    report("8", ok, f"50 behaviors vs independent LP: max dev = {worst:.2e}, "
                    f"PR = {pr_weight:.1e}, det = {det_weight:.10f}, "
                    f"{elapsed:.1f}s (< 120s)")


_GRID_STEP = 20  # the oracle's grid rows have entries in multiples of 1/20


def _simplex_grid_levels(n_e: int) -> np.ndarray:
    """All probability rows on the 1/step grid, each entry given as its multiple of 1/step."""
    rows = []
    for comp in itertools.product(range(_GRID_STEP + 1), repeat=n_e - 1):
        if sum(comp) <= _GRID_STEP:
            rows.append(list(comp) + [_GRID_STEP - sum(comp)])
    return np.asarray(rows)


def _oracle_cmi_batch(q: np.ndarray) -> np.ndarray:
    flat = q.reshape(q.shape[0], -1)

    def ent(t):
        tt = t.reshape(t.shape[0], -1)
        safe = np.where(tt > 1e-15, tt, 1.0)
        return -(tt * np.log2(safe)).sum(axis=1)

    return (ent(q.sum(axis=2)) + ent(q.sum(axis=1)) - ent(q)
            - ent(q.sum(axis=(1, 2))))


def _oracle_value(p: np.ndarray, rows: np.ndarray) -> float:
    q = np.einsum("abe,ef->abf", p, rows)
    return float(_oracle_cmi_batch(q[None])[0])


def _intrinsic_oracle(p: np.ndarray) -> float:
    """Independent minimization: deterministic exhaustion + grid descent.

    Full coordinate descent over the 0.05-step simplex grid (one stochastic
    row replaced at a time, all grid rows considered) from every split of
    Eve's alphabet and 120 random grid channels, followed by a
    compass-search refinement that halves the step from 0.05 down to 1e-6.
    A literal global 0.05 grid is both combinatorially impossible at |E| = 4
    and value-quantized far above 1e-4, so local refinement of the same grid
    is what makes a two-sided comparison meaningful.

    The descent scores the candidates for row e by columns: I(A:B|F) is a
    sum of one term per output f, and replacing row e moves column f to
    q_f + p(., ., e) r_f, where r_f takes one of the 21 grid levels.  So a
    table of every column's term at every level scores each candidate with
    |E| lookups, and each accepted move is evaluated again by `_oracle_value`.
    """
    n_e = p.shape[2]
    grid_levels = _simplex_grid_levels(n_e)
    grid_rows = grid_levels / _GRID_STEP
    levels = np.arange(_GRID_STEP + 1) / _GRID_STEP
    starts = []
    for g in itertools.product(range(n_e), repeat=n_e):
        # one start per split of Eve's alphabet (Bell(4) = 15 of the 4^4 maps):
        # relabeling the outputs leaves the value and the grid unchanged, so
        # only restricted growth strings, each label at most one above the
        # labels before it, are kept
        if any(f > max(g[:e], default=-1) + 1 for e, f in enumerate(g)):
            continue
        rows = np.zeros((n_e, n_e))
        rows[np.arange(n_e), list(g)] = 1.0
        starts.append(rows)
    rng = np.random.default_rng(7_000_001)
    for _ in range(120):  # random grid channels reach basins off the vertices
        idx = rng.integers(0, len(grid_rows), size=n_e)
        starts.append(grid_rows[idx])

    def grid_descent(rows):
        current = _oracle_value(p, rows)
        improved = True
        while improved:
            improved = False
            for e in range(n_e):
                base = np.einsum("abe,ef->abf", np.delete(p, e, axis=2),
                                 np.delete(rows, e, axis=0))
                # columns[f, l] = q(., ., f) with row e's entry f at level l, and the
                # term of each, scored as a joint with one output
                columns = base.transpose(2, 0, 1)[:, None] + p[:, :, e] * levels[:, None, None]
                terms = _oracle_cmi_batch(columns.reshape(-1, *p.shape[:2], 1)).reshape(n_e, -1)
                vals = terms[np.arange(n_e), grid_levels].sum(axis=1)
                j = int(np.argmin(vals))
                if vals[j] < current - 1e-12:
                    rows[e] = grid_rows[j]
                    current = _oracle_value(p, rows)
                    improved = True
        return current, rows

    settled = sorted((grid_descent(s.copy()) for s in starts), key=lambda t: t[0])
    best_val = settled[0][0]
    # compass refinement of the leading basins, halving the 0.05 step
    for current, rows in settled[:4]:
        rows = rows.copy()
        step = 0.05
        while step > 1e-6:
            improved = True
            while improved:
                improved = False
                for e in range(n_e):
                    for i in range(n_e):
                        for j in range(n_e):
                            if i == j or rows[e, j] < step - 1e-15:
                                continue
                            trial = rows.copy()
                            trial[e, i] += step
                            trial[e, j] -= step
                            val = _oracle_value(p, trial)
                            if val < current - 1e-13:
                                current = val
                                rows = trial
                                improved = True
            step /= 2.0
        best_val = min(best_val, current)
    return max(best_val, 0.0)


def test_criterion_9_intrinsic_information_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    worst = 0.0
    for i in range(20):
        n_e = 2 + i % 3  # alphabets of size 2, 3, 4
        p = rng.dirichlet(np.ones(2 * 2 * n_e)).reshape(2, 2, n_e)
        mine = intrinsic_info(p, seed=i)
        oracle = _intrinsic_oracle(p)
        worst = max(worst, abs(mine - oracle))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 300.0
    report("9", ok, f"20 joints vs deterministic+grid oracle: max dev = "
                    f"{worst:.2e}, {elapsed:.0f}s (< 300s)")


def test_criterion_10_flag_decomposition_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        state = random_density(rng, (2, 2))
        x_count = int(rng.integers(1, 4))
        y_count = int(rng.integers(1, 3))
        fam = random_projective_family(rng, x_count, y_count)
        p_xy = rng.dirichlet(np.ones(x_count * y_count)).reshape(x_count, y_count)
        flagged = cmi_ccq(broadcast_ccq(state, fam, p_xy))
        blockwise = cc_sq_multi(state, fam, p_xy)
        worst = max(worst, abs(flagged - blockwise))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report("10", ok, f"broadcast CMI vs weighted blocks: max dev = {worst:.2e}, "
                     f"{elapsed:.1f}s (< 10s)")
