import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diqkd_bounds
from diqkd_bounds import (
    AlphabetTooLargeError,
    CcqState,
    DensityMatrix,
    DimensionMismatchError,
    assemble_ccq,
    bound_curve,
    broadcast_ccq,
    channel_curve,
    cmi_ccq,
    er_bell_diagonal_closed,
    er_isotropic_closed,
    er_numeric,
    honest_chsh_device,
    hull_curve,
    intrinsic_info,
    kron,
    make_bell_diagonal,
    make_isotropic,
    mutual_info,
    noisy_key_povm,
    observable_povm,
    partial_trace,
    von_neumann_entropy,
)
from diqkd_bounds import measures
from diqkd_bounds.measures import TWO_SQRT2, _ErObjective, _IntrinsicObjective
from diqkd_bounds.states import PAULI_Z
from util import loop_cmi, random_density

H = lambda x: 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)


# --- closed forms -----------------------------------------------------------

def test_er_isotropic_endpoints():
    assert abs(er_isotropic_closed(TWO_SQRT2) - 1.0) < 1e-12
    lam_half_omega = (0.5 - 0.25) * 8 * math.sqrt(2) / 3  # omega with lam = 1/2
    assert er_isotropic_closed(lam_half_omega) == 0.0
    assert er_isotropic_closed(0.5) == 0.0  # below the separable edge


def test_er_isotropic_at_local_bound():
    lam = 3 * 2.0 / (8 * math.sqrt(2)) + 0.25
    assert abs(lam - 0.780330) < 1e-6
    assert abs(er_isotropic_closed(2.0) - (1 - H(lam))) < 1e-12
    assert abs(er_isotropic_closed(2.0) - 0.240436) < 1e-5


def test_er_isotropic_out_of_range():
    with pytest.raises(ValueError):
        er_isotropic_closed(3.0)


def test_er_bell_diagonal_values():
    assert er_bell_diagonal_closed(1.0) == 0.0 + 1.0
    assert er_bell_diagonal_closed(0.5) == 0.0
    c = math.sqrt(2.5**2 / 4 - 1)
    assert abs(c - 0.75) < 1e-12
    assert abs(er_bell_diagonal_closed((1 + c) / 2) - (1 - H(0.875))) < 1e-12
    with pytest.raises(ValueError):
        er_bell_diagonal_closed(0.3)


# --- numerical E_R ----------------------------------------------------------

def test_er_objective_gradient_matches_finite_differences():
    rho = make_isotropic(0.37)
    obj = _ErObjective(rho, 4)
    rng = np.random.default_rng(5)
    theta = rng.standard_normal(obj.n_params)
    _, grad = obj.value_and_grad(theta)
    eps = 1e-6
    for i in rng.choice(len(theta), size=25, replace=False):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += eps
        tm[i] -= eps
        num = (obj.value_and_grad(tp)[0] - obj.value_and_grad(tm)[0]) / (2 * eps)
        assert abs(num - grad[i]) < 1e-6


def test_er_numeric_bell_state():
    phi = make_bell_diagonal(1.0, 0.0)
    assert abs(er_numeric(phi, seed=0) - 1.0) < 1e-3


def test_er_numeric_matches_isotropic_closed_form():
    omega = 2.4
    rho = make_isotropic(1 - omega / TWO_SQRT2)
    assert abs(er_numeric(rho, seed=0) - er_isotropic_closed(omega)) < 1e-3


def test_er_numeric_product_state_is_zero():
    rng = np.random.default_rng(43)
    a = random_density(rng, (2,))
    b = random_density(rng, (2,))
    rho = DensityMatrix(kron(a.matrix, b.matrix), (2, 2))
    assert er_numeric(rho, seed=0) < 1e-6


def test_er_numeric_reproducible():
    rho = make_isotropic(0.2)
    assert er_numeric(rho, restarts=2, seed=7) == er_numeric(rho, restarts=2, seed=7)


def test_er_numeric_oracle_grid_isotropic():
    # upper-bound property against the closed form on a 20-point family grid
    for omega in np.linspace(0.2, TWO_SQRT2, 20):
        rho = make_isotropic(1 - omega / TWO_SQRT2)
        num = er_numeric(rho, restarts=3, seed=1)
        closed = er_isotropic_closed(float(omega))
        assert num >= closed - 1e-3
        assert num <= closed + 1e-3


def test_er_numeric_oracle_grid_bell_diagonal():
    for lam in np.linspace(0.5, 1.0, 20):
        rho = make_bell_diagonal(float(lam), float(1 - lam))
        num = er_numeric(rho, restarts=3, seed=2)
        closed = er_bell_diagonal_closed(float(lam))
        assert abs(num - closed) < 1e-3


def test_er_numeric_qubit_qutrit_erasure_choi():
    # the erasure Choi state has the known value 1 - p
    from diqkd_bounds import QubitChannel, choi_state
    for p in (0.2, 0.5):
        choi = choi_state(QubitChannel("erasure", p))
        assert choi.dims == (2, 3)
        assert abs(er_numeric(choi, seed=0) - (1 - p)) < 1e-3


def test_er_numeric_rejects_large_dimensions():
    from diqkd_bounds import DimensionMismatchError
    rng = np.random.default_rng(5)
    big = random_density(rng, (4, 4))
    with pytest.raises(DimensionMismatchError):
        er_numeric(big)


# --- conditional mutual information -----------------------------------------

def cmi_oracle(ccq: CcqState) -> float:
    """Independent path: build the full ABE density matrix and use entropies."""
    n_a, n_b = ccq.eve_ops.shape[:2]
    d_e = ccq.eve_dim
    dims = [n_a, n_b, d_e]
    full = np.zeros((n_a * n_b * d_e,) * 2, dtype=complex)
    for a in range(n_a):
        for b in range(n_b):
            ab = np.zeros((n_a * n_b, n_a * n_b))
            ab[a * n_b + b, a * n_b + b] = 1.0
            full += kron(ab, ccq.eve_ops[a, b])
    rho = DensityMatrix(full, tuple(dims))

    def s(keep):
        # eigvalsh directly: von_neumann_entropy shares cmi_ccq's eigenvalue kernel
        reduced = partial_trace(full, dims, keep)
        w = np.linalg.eigvalsh(reduced / np.trace(reduced).real)
        w = w[w > 1e-12]
        return -float(np.sum(w * np.log2(w)))

    return s([0, 2]) + s([1, 2]) - s([0, 1, 2]) - s([2])


def test_cmi_trivial_eve_reduces_to_mutual_information():
    phi = make_bell_diagonal(1.0, 0.0)
    ccq = assemble_ccq(phi, (observable_povm(PAULI_Z), observable_povm(PAULI_Z)))
    assert abs(cmi_ccq(ccq) - 1.0) < 1e-10


def test_cmi_eve_with_perfect_copy_is_zero():
    # classically correlated state: Eve's purifier distinguishes the key bit
    rho = DensityMatrix(np.diag([0.5, 0, 0, 0.5]).astype(complex), (2, 2))
    ccq = assemble_ccq(rho, (observable_povm(PAULI_Z), observable_povm(PAULI_Z)))
    assert cmi_ccq(ccq) < 1e-10


def test_cmi_al_attack_at_max_violation():
    sigma = make_bell_diagonal(1.0, 0.0)  # C = 1 at omega = 2*sqrt(2)
    ccq = assemble_ccq(sigma, (observable_povm(PAULI_Z), noisy_key_povm(0.0)))
    assert abs(cmi_ccq(ccq) - 1.0) < 1e-10


def test_cmi_matches_full_density_matrix_oracle():
    rng = np.random.default_rng(47)
    from util import random_projective_family
    for _ in range(8):
        rho = random_density(rng, (2, 2))
        fam = random_projective_family(rng, 1, 1)
        ccq = assemble_ccq(rho, (fam.alice[0], fam.bob[0]))
        assert abs(cmi_ccq(ccq) - cmi_oracle(ccq)) < 1e-9


def test_cmi_is_bitwise_the_sum_of_block_entropies():
    # one batched spectrum of all blocks gives what one entropy per block gives,
    # summed in block order; the broadcast blocks hold 24 eigenvalues
    state, fam = honest_chsh_device(0.1)
    sigma = make_bell_diagonal(0.9, 0.1)
    for ccq in (broadcast_ccq(state, fam, np.full((3, 2), 1 / 6)),
                assemble_ccq(sigma, (observable_povm(PAULI_Z), noisy_key_povm(0.05)))):
        ops = ccq.eve_ops
        n_a, n_b = ops.shape[:2]
        s = lambda blocks: sum(von_neumann_entropy(op) for op in blocks)
        expected = (s(ops[a].sum(axis=0) for a in range(n_a))
                    + s(ops[:, b].sum(axis=0) for b in range(n_b))
                    - s(ops[a, b] for a in range(n_a) for b in range(n_b))
                    - s([ops.sum(axis=(0, 1))]))
        assert cmi_ccq(ccq) == max(expected, 0.0)


def test_cmi_fixed_strategy_mixture_is_exactly_affine():
    # flag-extending two ccq states with a classical register averages the CMI
    rng = np.random.default_rng(71)
    from util import random_projective_family
    fam = random_projective_family(rng, 1, 1)
    povm = (fam.alice[0], fam.bob[0])
    c1 = assemble_ccq(random_density(rng, (2, 2)), povm)
    c2 = assemble_ccq(random_density(rng, (2, 2)), povm)
    p = 0.3
    d1, d2 = c1.eve_dim, c2.eve_dim
    blocks = np.zeros((2, 2, d1 + d2, d1 + d2), dtype=complex)
    blocks[:, :, :d1, :d1] = p * c1.eve_ops
    blocks[:, :, d1:, d1:] = (1 - p) * c2.eve_ops
    mixed = CcqState(blocks)
    expected = p * cmi_ccq(c1) + (1 - p) * cmi_ccq(c2)
    assert abs(cmi_ccq(mixed) - expected) < 1e-10


# --- classical mutual information -------------------------------------------

def test_entropies_keep_cells_below_the_support_cutoff():
    # cells of 1e-13 carry ~4e-12 bit each, far above rounding
    t = np.array([[0.5 - 2e-13, 1e-13], [1e-13, 0.5]])
    p = t[:, :, None]
    assert abs(intrinsic_info(p) - loop_cmi(p)) < 1e-15
    assert abs(mutual_info(t) - loop_cmi(p)) < 1e-15


def test_mutual_info_values():
    assert abs(mutual_info(np.array([[0.5, 0.0], [0.0, 0.5]])) - 1.0) < 1e-12
    assert mutual_info(np.outer([0.3, 0.7], [0.6, 0.4])) < 1e-12
    bsc = np.array([[0.445, 0.055], [0.055, 0.445]])
    assert abs(mutual_info(bsc) - (1 - H(0.11))) < 1e-12
    with pytest.raises(ValueError):
        mutual_info(np.array([[0.5, 0.2], [0.1, 0.1]]))


# --- intrinsic information ---------------------------------------------------

def apply_map(p_abe: np.ndarray, g) -> np.ndarray:
    """q(a,b,f) after the deterministic Eve map e -> g[e], by a loop."""
    q = np.zeros_like(p_abe)
    for e, f in enumerate(g):
        q[:, :, f] += p_abe[:, :, e]
    return q


def intrinsic_oracle_det(p_abe: np.ndarray) -> float:
    """Brute force over every deterministic channel (any output size)."""
    n_e = p_abe.shape[2]
    best = min(loop_cmi(apply_map(p_abe, g))
               for g in itertools.product(range(n_e), repeat=n_e))
    return max(best, 0.0)


def test_intrinsic_eve_independent():
    joint = np.array([[0.4, 0.1], [0.1, 0.4]])
    p = np.einsum("ab,e->abe", joint, np.array([0.5, 0.5]))
    assert abs(intrinsic_info(p, seed=0) - mutual_info(joint)) < 1e-9


def test_intrinsic_eve_copy_is_zero():
    p = np.zeros((2, 2, 4))
    for a in range(2):
        for b in range(2):
            p[a, b, 2 * a + b] = 0.25
    assert intrinsic_info(p, seed=0) < 1e-12


def test_intrinsic_noisy_copy_matches_brute_force():
    # a, b uniform correlated; e = a xor n with n ~ Bernoulli(1/4)
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for n in range(2):
            p[a, a, a ^ n] = 0.5 * (0.75 if n == 0 else 0.25)
    val = intrinsic_info(p, seed=0)
    assert val <= intrinsic_oracle_det(p) + 1e-12
    assert abs(val - intrinsic_oracle_det(p)) < 1e-6


def test_intrinsic_never_exceeds_unprocessed_cmi():
    rng = np.random.default_rng(53)
    for _ in range(10):
        p = rng.dirichlet(np.ones(2 * 2 * 3)).reshape(2, 2, 3)
        raw = p.sum(axis=(0, 1))
        cond = p / np.where(raw > 0, raw, 1.0)[None, None, :]
        cmi = sum(raw[e] * mutual_info(cond[:, :, e]) for e in range(3) if raw[e] > 0)
        assert intrinsic_info(p, seed=0) <= cmi + 1e-9


def test_intrinsic_alphabet_cap_after_reduction():
    p = np.zeros((2, 2, 40))
    # forty symbols but only four distinct conditionals: reduces and runs
    for e in range(40):
        a, b = e % 2, (e // 2) % 2
        p[a, b, e] = 1.0 / 40
    assert intrinsic_info(p, seed=0) < 1e-12
    rng = np.random.default_rng(61)
    big = rng.dirichlet(np.ones(2 * 2 * 17)).reshape(2, 2, 17)
    with pytest.raises(AlphabetTooLargeError):
        intrinsic_info(big, seed=0)


def test_intrinsic_reproducible():
    rng = np.random.default_rng(67)
    p = rng.dirichlet(np.ones(2 * 2 * 4)).reshape(2, 2, 4)
    assert intrinsic_info(p, seed=3) == intrinsic_info(p, seed=3)


def test_partitions_are_restricted_growth_strings():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]
    for n in range(1, 10):
        rows = measures._partitions(n)
        assert rows.shape == (bell[n], n) and measures._bell(n) == bell[n]
        assert len({tuple(r) for r in rows}) == bell[n]
        # labels in order of first appearance: each entry opens at most one new block
        assert np.all(rows[:, 0] == 0)
        assert np.all(rows[:, 1:] <= np.maximum.accumulate(rows, axis=1)[:, :-1] + 1)


def test_intrinsic_partition_search_matches_every_map():
    rng = np.random.default_rng(79)
    for n_e in range(2, 6):
        p = rng.dirichlet(np.ones(4 * n_e)).reshape(2, 2, n_e)
        assert abs(intrinsic_info(p, refine=False) - intrinsic_oracle_det(p)) < 1e-15, n_e


def test_intrinsic_partitions_never_weaker_than_sampled_maps(monkeypatch):
    p = np.random.default_rng(89).dirichlet(np.ones(28)).reshape(2, 2, 7)
    # Bell(7) = 877 partitions: exhaustive by default, sampled under a cap of 500
    exhaustive = intrinsic_info(p, refine=False)
    monkeypatch.setattr(measures, "DET_CHANNEL_CAP", 500)
    assert exhaustive <= intrinsic_info(p, refine=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("measure, shape", [pytest.param(mutual_info, (2, 2), id="mutual_info"),
                                            pytest.param(intrinsic_info, (2, 2, 2),
                                                         id="intrinsic_info")])
def test_non_finite_joint_is_rejected(measure, shape, bad):
    p = np.full(shape, 1.0 / math.prod(shape))
    p.flat[0] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        measure(p)


@pytest.mark.parametrize("shape", [(2, 2, 2), (4,)])
def test_mutual_info_rejects_tables_not_indexed_ab(shape):
    # at ndim 3 the sums over axes 0 and 1 would pass for marginals
    with pytest.raises(DimensionMismatchError):
        mutual_info(np.full(shape, 1.0 / math.prod(shape)))


def test_det_channel_values_match_loop_cmi():
    rng = np.random.default_rng(97)
    p = rng.dirichlet(np.ones(64)).reshape(2, 2, 16)
    maps = rng.integers(0, 16, size=(12, 16))
    for g, value in zip(maps, measures._det_channel_values(p, maps)):
        assert abs(value - max(loop_cmi(apply_map(p, g)), 0.0)) < 1e-14


def test_intrinsic_gradient_matches_central_differences():
    for n_e in range(2, 7):
        rng = np.random.default_rng(100 + n_e)
        p = rng.dirichlet(np.ones(4 * n_e)).reshape(2, 2, n_e)
        obj = _IntrinsicObjective(p)
        theta = rng.standard_normal(n_e * n_e)
        _, grad = obj.value_and_grad(theta)
        eps = 1e-6
        num = np.empty_like(grad)
        for i in range(len(theta)):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += eps
            tm[i] -= eps
            num[i] = (obj.value_and_grad(tp)[0] - obj.value_and_grad(tm)[0]) / (2 * eps)
        assert np.linalg.norm(num - grad) < 1e-5 * np.linalg.norm(grad), n_e


def test_intrinsic_objective_is_cmi_after_the_channel():
    rng = np.random.default_rng(71)
    p = rng.dirichlet(np.ones(16)).reshape(2, 2, 4)
    theta = rng.standard_normal(16)
    rows = theta.reshape(4, 4) ** 2
    rows /= rows.sum(axis=1, keepdims=True)
    q = np.einsum("abe,ef->abf", p, rows)
    assert abs(_IntrinsicObjective(p).value_and_grad(theta)[0] - loop_cmi(q)) < 1e-12


def test_intrinsic_refinement_never_weaker_than_deterministic_search():
    rng = np.random.default_rng(73)
    for i in range(20):
        n_e = 2 + i % 5
        p = rng.dirichlet(np.ones(4 * n_e)).reshape(2, 2, n_e)
        assert intrinsic_info(p, seed=i) <= intrinsic_info(p, seed=i, refine=False)


def test_intrinsic_sampled_pool_keeps_mutual_info_ceiling():
    # 16^16 maps exceed the enumeration cap, so the pool is sampled
    p = np.random.default_rng(0).dirichlet(np.ones(64)).reshape(2, 2, 16)
    ceiling = mutual_info(p.sum(axis=2))
    assert intrinsic_info(p, seed=0, refine=False) <= ceiling + 1e-12


def test_intrinsic_exact_zero_skips_refinement(monkeypatch):
    # e = 0 carries perfectly correlated bits and e = 1 anti-correlated ones:
    # I(A:B|E) is one bit, and forgetting E leaves independent uniform bits
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = p[1, 1, 0] = p[0, 1, 1] = p[1, 0, 1] = 0.25

    def no_optimizer(*args, **kwargs):
        raise AssertionError("refinement ran after an exact zero")

    monkeypatch.setattr(measures, "minimize", no_optimizer)
    assert intrinsic_info(p, seed=0) == 0.0


def test_cli_import_leaves_scipy_optimize_unloaded():
    src = str(Path(diqkd_bounds.__file__).resolve().parents[1])
    code = "import sys, diqkd_bounds.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "False"


def test_er_numeric_rejects_empty_search():
    rho = make_isotropic(0.2)
    with pytest.raises(ValueError):
        er_numeric(rho, restarts=0)
    with pytest.raises(ValueError):
        er_numeric(rho, k=0)


DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["al", "fbjl", "hull", "fractional", "pironio",
                                  "channel_dephasing", "channel_depolarizing",
                                  "channel_erasure"])
def test_committed_demo_curves_reproduce(name):
    if name.startswith("channel_"):
        curve, csv = channel_curve(name.removeprefix("channel_"), grid=21), f"{name}.csv"
    else:
        curve = hull_curve(grid=17).curve if name == "hull" else bound_curve(name, grid=17)
        csv = f"curve_{name}.csv"
    rows = (DEMOS / csv).read_text().splitlines()[1:]
    assert len(rows) == len(curve.samples)
    for row, s in zip(rows, curve.samples):
        assert row.split(",") == [f"{v:.12g}" for v in (s.param, s.omega, s.qber, s.value)]
