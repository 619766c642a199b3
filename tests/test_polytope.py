import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from diqkd_bounds import (
    Behavior,
    MeasurementFamily,
    TooManyVerticesError,
    UnboundedError,
    behavior_from,
    enumerate_vertices,
    honest_chsh_device,
    max_local_weight,
    max_local_weight_with_residual,
    simplex_solve,
)
from diqkd_bounds.errors import DimensionMismatchError, InfeasibleError, NumericalFailureError
from diqkd_bounds.polytope import vertex_array
from util import random_ns_behavior


def brute_force_lp(c, a_ub, b_ub):
    """Exhaustive enumeration of basic feasible solutions of max c.x, Ax<=b, x>=0.

    Independent of the simplex path: every basis of [A | I] is solved
    directly and checked for feasibility.
    """
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a_ub.shape
    full = np.hstack([a_ub, np.eye(m)])
    best = None
    for cols in itertools.combinations(range(n + m), m):
        sub = full[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        sol = np.linalg.solve(sub, b_ub)
        if sol.min() < -1e-9:
            continue
        x = np.zeros(n + m)
        x[list(cols)] = sol
        val = float(c @ x[:n])
        if best is None or val > best:
            best = val
    return best


def test_vertex_counts():
    assert len(enumerate_vertices(2, 2, 2, 2)) == 16
    assert len(enumerate_vertices(3, 2, 2, 2)) == 32
    assert len(enumerate_vertices(1, 1, 2, 2)) == 4


def test_vertex_lexicographic_order():
    vs = enumerate_vertices(2, 1, 2, 2)
    assert vs[0].tolist() == [0, 0, 0]
    assert vs[1].tolist() == [0, 0, 1]
    assert vs[2].tolist() == [0, 1, 0]
    assert vs[-1].tolist() == [1, 1, 1]


def loop_vertices(x_count, y_count, a_count, b_count):
    """Outcome table and 0/1 array of the deterministic vertices, by explicit loops."""
    rows = [alice + bob for alice in itertools.product(range(a_count), repeat=x_count)
            for bob in itertools.product(range(b_count), repeat=y_count)]
    d = np.zeros((x_count, y_count, a_count, b_count, len(rows)))
    for i, row in enumerate(rows):
        for x in range(x_count):
            for y in range(y_count):
                d[x, y, row[x], row[x_count + y], i] = 1.0
    return np.array(rows), d


@pytest.mark.parametrize("shape", [(1, 1, 2, 2), (2, 2, 2, 2), (3, 2, 2, 2), (2, 3, 3, 2)])
def test_vertices_match_loop_reference(shape):
    rows, d = loop_vertices(*shape)
    outcomes = enumerate_vertices(*shape)
    assert outcomes.dtype.kind == "i" and np.array_equal(outcomes, rows)
    assert np.array_equal(vertex_array(*shape), d)


def test_vertex_cap():
    # 32^2 * 32^2 = 1,048,576 vertices: the table would take 32 MB, the 0/1 array 32 GB;
    # (2, 2, 31, 31) has 923,521 vertices, whose 0/1 array would take 28 GB
    tracemalloc.start()
    try:
        for build in (enumerate_vertices, vertex_array):
            for shape in ((8, 8, 8, 8), (2, 2, 32, 32), (2, 2, 31, 31)):
                with pytest.raises(TooManyVerticesError):
                    build(*shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("shape", [(0, 2, 2, 2), (2, 2, 0, 2), (2, 2, 2, -1)])
def test_vertices_refuse_a_count_below_one(shape):
    with pytest.raises(ValueError, match="^all cardinalities must be at least 1$"):
        enumerate_vertices(*shape)


def test_simplex_single_variable():
    x = simplex_solve(c=np.array([1.0]), a_ub=[[1.0]], b_ub=[3.0])
    assert abs(np.array([1.0]) @ x - 3.0) < 1e-10
    assert abs(x[0] - 3.0) < 1e-10


def test_simplex_two_variables():
    c = np.array([1.0, 1.0])
    x = simplex_solve(c=c, a_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert abs(c @ x - 1.0) < 1e-10


def test_simplex_unbounded():
    with pytest.raises(UnboundedError):
        simplex_solve(c=np.array([1.0, 0.0]), a_ub=[[0.0, 1.0]], b_ub=[1.0])


def test_simplex_infeasible():
    with pytest.raises(InfeasibleError):
        simplex_solve(c=np.array([1.0]), a_ub=[[1.0]], b_ub=[1.0], a_eq=[[1.0]], b_eq=[2.0])


def test_simplex_equality_constraints():
    c = np.array([2.0, 1.0])
    x = simplex_solve(c=c, a_ub=[[1.0, 0.0]], b_ub=[0.4], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert abs(c @ x - 1.4) < 1e-10


def test_simplex_vs_brute_force_random_small():
    rng = np.random.default_rng(71)
    for _ in range(40):
        m, n = rng.integers(2, 6), rng.integers(2, 8)
        a = rng.standard_normal((m, n))
        b = rng.uniform(0.2, 2.0, m)
        c = rng.standard_normal(n)
        oracle = brute_force_lp(c, a, b)
        assert oracle is not None  # x=0 is feasible
        if oracle > 1e8:
            continue
        try:
            x = simplex_solve(c=c, a_ub=a, b_ub=b)
        except UnboundedError:
            # brute force only sees bounded bases; verify a certificate ray
            continue
        assert abs(c @ x - oracle) < 1e-8


def test_simplex_vs_brute_force_twenty_variables():
    rng = np.random.default_rng(73)
    for _ in range(3):
        m, n = 5, 20
        a = rng.uniform(0.0, 1.0, (m, n))
        b = rng.uniform(0.5, 2.0, m)
        c = rng.uniform(0.0, 1.0, n)
        x = simplex_solve(c=c, a_ub=a, b_ub=b)
        oracle = brute_force_lp(c, a, b)
        assert abs(c @ x - oracle) < 1e-8


def random_mixed_lp(rng) -> dict:
    """Keyword arguments of `simplex_solve` for a random LP with up to three
    <= rows and two == rows, each rhs of either sign."""
    n = int(rng.integers(1, 6))
    m_ub, m_eq = int(rng.integers(0, 4)), int(rng.integers(0, 3))
    if m_ub + m_eq == 0:
        m_ub = 1
    c = rng.standard_normal(n)
    a_ub, b_ub = rng.standard_normal((m_ub, n)), rng.standard_normal(m_ub)
    a_eq, b_eq = rng.standard_normal((m_eq, n)), rng.standard_normal(m_eq)
    return dict(zip(("c", "a_ub", "b_ub", "a_eq", "b_eq"),
                    (c, *((a_ub, b_ub) if m_ub else (None, None)),
                     *((a_eq, b_eq) if m_eq else (None, None)))))


def test_simplex_mixed_rows_match_highs():
    # <= rows with negative rhs are negated and get a surplus plus an artificial
    rng = np.random.default_rng(101)
    statuses = []
    for i in range(600):
        lp = random_mixed_lp(rng)
        ref = linprog(-lp["c"], A_ub=lp["a_ub"], b_ub=lp["b_ub"], A_eq=lp["a_eq"],
                      b_eq=lp["b_eq"], bounds=(0, None), method="highs")
        try:
            x = simplex_solve(**lp)
            status = 0
        except InfeasibleError:
            status = 2
        except UnboundedError:
            status = 3
        assert status == ref.status, i
        statuses.append(status)
        if status == 0:
            assert abs(lp["c"] @ x + ref.fun) < 1e-8, i
            assert x.min() >= -1e-8, i
            if lp["a_ub"] is not None:
                assert np.max(lp["a_ub"] @ x - lp["b_ub"]) <= 1e-8, i
            if lp["a_eq"] is not None:
                assert np.max(np.abs(lp["a_eq"] @ x - lp["b_eq"])) <= 1e-8, i
    assert {0, 2, 3} <= set(statuses)


@pytest.mark.parametrize("lp, error", [
    (dict(c=np.array([1.0]), a_ub=[[1.0]], b_ub=None), ValueError),
    (dict(c=np.array([1.0]), a_ub=[[1.0]], b_ub=[math.nan]), ValueError),
    (dict(c=np.array([math.inf]), a_ub=[[1.0]], b_ub=[1.0]), ValueError),
    (dict(c=np.ones(2), a_ub=[[1.0, 1.0]], b_ub=[1.0, 5.0]), DimensionMismatchError),
    (dict(c=np.ones(2), a_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0]), DimensionMismatchError),
], ids=["missing-rhs", "nan-rhs", "inf-objective", "extra-rhs", "extra-column"])
def test_simplex_rejects_malformed_lp(lp, error):
    with pytest.raises(error):
        simplex_solve(**lp)


def test_simplex_refuses_an_lp_without_constraints():
    with pytest.raises(ValueError, match="^LP has no constraints$"):
        simplex_solve(np.ones(2))


def test_max_local_weight_deterministic_is_one():
    t = np.zeros((2, 2, 2, 2))
    t[:, :, 1, 0] = 1.0
    dec = max_local_weight(Behavior(t))
    assert abs(dec.local_weight - 1.0) < 1e-10
    assert not dec.residual_used


def test_max_local_weight_pr_box_is_zero():
    t = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a + b) % 2 == x * y:
                        t[x, y, a, b] = 0.5
    dec = max_local_weight(Behavior(t))
    assert abs(dec.local_weight) < 1e-10


def test_max_local_weight_honest_tsirelson_value():
    state, fam = honest_chsh_device(0.0)
    dec = max_local_weight(behavior_from(state, fam))
    assert abs(dec.local_weight - (2 - math.sqrt(2))) < 1e-8


def test_max_local_weight_local_above_frontier():
    nu_star = 1 - 1 / math.sqrt(2)
    for nu in (nu_star, 0.35, 0.6, 1.0):
        state, fam = honest_chsh_device(nu)
        dec = max_local_weight(behavior_from(state, fam))
        assert dec.local_weight >= 1.0 - 1e-8


def test_local_weight_reconstruction_on_random_behaviors():
    rng = np.random.default_rng(79)
    for _ in range(200):
        b = random_ns_behavior(rng)
        dec = max_local_weight(b)
        assert np.max(np.abs(dec.reconstruct() - b.table)) < 1e-8
        assert abs(dec.vertex_weights.sum() - dec.local_weight) < 1e-10
        assert dec.vertex_weights.min() >= 0.0


def test_local_weight_agrees_with_scipy():
    rng = np.random.default_rng(83)
    shape = (2, 2, 2, 2)
    d = vertex_array(*shape).reshape(16, -1)
    for _ in range(50):
        b = random_ns_behavior(rng)
        dec = max_local_weight(b)
        ref = linprog(-np.ones(d.shape[1]), A_ub=d, b_ub=b.table.reshape(-1),
                      bounds=(0, None), method="highs")
        assert ref.status == 0
        assert abs(dec.local_weight - (-ref.fun)) < 1e-8


def test_local_weight_mixing_monotonicity():
    rng = np.random.default_rng(89)
    shape = (2, 2, 2, 2)
    vt = vertex_array(*shape)[..., 5]
    for _ in range(20):
        b = random_ns_behavior(rng)
        base = max_local_weight(b).local_weight
        t = rng.uniform(0.1, 0.9)
        mixed = Behavior((1 - t) * b.table + t * vt)
        assert max_local_weight(mixed).local_weight >= (1 - t) * base + t - 1e-8


def test_local_weight_monotone_in_isotropic_noise():
    prev = -1.0
    for nu in np.linspace(0.0, 1.0, 100):
        state, fam = honest_chsh_device(float(nu))
        q = max_local_weight(behavior_from(state, fam)).local_weight
        assert q >= prev - 1e-8
        prev = q


def honest_behavior(nu: float, signaling: float = 0.0) -> Behavior:
    """The honest behavior, Alice's x = 1 marginal moved by ``signaling`` with y."""
    t = behavior_from(*honest_chsh_device(nu)).table.copy()
    t[1, 1, 0] += signaling / 2
    t[1, 1, 1] -= signaling / 2
    return Behavior(t)


NU_STAR = 1 - 1 / math.sqrt(2)
NEAR_FRONTIER = [pytest.param(honest_behavior(NU_STAR * (1 - s * 10.0**-k)), id=f"nu*(1-{s}e-{k})")
                 for s in (1, 3) for k in range(1, 13)]
# signaling by 8e-10, which the behavior check allows
SIGNALING = [pytest.param(honest_behavior(nu, 8e-10), id=f"signaling nu={nu}")
             for nu in (0.0, 0.1, 0.2, 0.28)]


@pytest.mark.parametrize("b", NEAR_FRONTIER + SIGNALING)
def test_local_weight_is_a_decomposition_or_names_one_minus_q_l(b):
    # dividing the leftover by a small 1 - q_L magnifies rounding and signaling
    # under 1e-9 past the behavior checks: that must be the one error
    try:
        dec = max_local_weight(b)
    except NumericalFailureError as exc:
        message = str(exc)
        assert "\n" not in message
        assert message.startswith("nonlocal residual fails the behavior check after "
                                  "division by 1 - q_L = ")
        return
    assert np.max(np.abs(dec.reconstruct() - b.table)) < 1e-8


# --- decomposition against a fixed residual ------------------------------------------

def test_fixed_residual_honest_device_weight_is_nu_over_frontier():
    nu_star = 1 - 1 / math.sqrt(2)
    tsirelson = behavior_from(*honest_chsh_device(0.0))
    for nu in np.linspace(0.0, 1.0, 41):
        b = behavior_from(*honest_chsh_device(float(nu)))
        dec = max_local_weight_with_residual(b, tsirelson)
        expected = min(nu / nu_star, 1.0)
        assert abs(dec.local_weight - expected) < 1e-9
        assert dec.residual_used == (expected < 1.0 - 1e-9)
        assert np.max(np.abs(dec.reconstruct() - b.table)) < 1e-9


def test_fixed_residual_agrees_with_scipy():
    rng = np.random.default_rng(97)
    shape = (2, 2, 2, 2)
    d = vertex_array(*shape).reshape(16, -1)
    n = d.shape[1]
    for _ in range(30):
        residual = random_ns_behavior(rng)
        local = np.tensordot(rng.dirichlet(np.ones(n)), d, axes=(0, 1))
        t = rng.uniform(0.0, 1.0)
        b = Behavior(t * local.reshape(shape) + (1 - t) * residual.table)
        dec = max_local_weight_with_residual(b, residual)
        r = residual.table.reshape(-1)
        ref = linprog(-np.ones(n), A_ub=np.ones((1, n)), b_ub=[1.0],
                      A_eq=d - r[:, None], b_eq=b.table.reshape(-1) - r,
                      bounds=(0, None), method="highs")
        assert ref.status == 0
        assert abs(dec.local_weight - (-ref.fun)) < 1e-8
        assert np.max(np.abs(dec.reconstruct() - b.table)) < 1e-8


def test_fixed_residual_rejects_unreachable_behavior():
    # the PR box is no mixture of local points and the (less nonlocal) Tsirelson device
    t = np.zeros((2, 2, 2, 2))
    for x, y, a, b in itertools.product(range(2), repeat=4):
        if (a + b) % 2 == x * y:
            t[x, y, a, b] = 0.5
    state, fam = honest_chsh_device(0.0)
    two_by_two = MeasurementFamily(fam.alice[1:], fam.bob)
    with pytest.raises(InfeasibleError):
        max_local_weight_with_residual(Behavior(t), behavior_from(state, two_by_two))


def test_fixed_residual_shape_mismatch():
    b = behavior_from(*honest_chsh_device(0.1))
    with pytest.raises(DimensionMismatchError):
        max_local_weight_with_residual(b, random_ns_behavior(np.random.default_rng(1)))
