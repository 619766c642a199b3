import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import types
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
    intrinsic_info,
    make_bell_diagonal,
    make_isotropic,
    mutual_info,
    noisy_key_povm,
    observable_povm,
    partial_trace,
    von_neumann_entropy,
)
from diqkd_bounds import measures
from diqkd_bounds.cli import _curve_csv
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
    grad = obj.value_and_grad(theta[None])[1][0]
    eps = 1e-6
    for i in rng.choice(len(theta), size=25, replace=False):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += eps
        tm[i] -= eps
        num = (obj.value_and_grad(tp[None])[0][0] - obj.value_and_grad(tm[None])[0][0]) / (2 * eps)
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
    rho = DensityMatrix(np.kron(a.matrix, b.matrix), (2, 2))
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
    with pytest.raises(DimensionMismatchError, match="^total dimension 16 exceeds 12$"):
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
            full += np.kron(ab, ccq.eve_ops[a, b])
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


@pytest.mark.parametrize("generic", [False, True], ids=["four conditionals", "generic"])
def test_alphabet_reduction_memory_peak(generic):
    # 4,000 symbols: each is compared with the first member of at most 17
    # groups, never with every other symbol
    n_e = 4000
    if generic:
        p = np.random.default_rng(151).dirichlet(np.ones(4 * n_e)).reshape(2, 2, n_e)
    else:  # four distinct conditionals, as in test_intrinsic_alphabet_cap_after_reduction
        p = np.zeros((2, 2, n_e))
        for e in range(n_e):
            p[e % 2, (e // 2) % 2, e] = 1.0 / n_e
    tracemalloc.start()
    try:
        if generic:
            with pytest.raises(AlphabetTooLargeError, match="^more than 16 Eve symbols after "
                                                            "merging identical conditionals$"):
                intrinsic_info(p, refine=False)
        else:
            assert intrinsic_info(p, refine=False) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def loop_reduce_alphabet(p: np.ndarray) -> np.ndarray:
    """`measures._reduce_alphabet` comparing one pair of conditionals at a time."""
    p_e = p.sum(axis=(0, 1))
    keep = np.where(p_e > 1e-15)[0]
    p = p[:, :, keep]
    p_e = p_e[keep]
    conditionals = p / p_e[None, None, :]
    groups: list[list[int]] = []
    for e in range(p.shape[2]):
        for g in groups:
            if np.max(np.abs(conditionals[:, :, e] - conditionals[:, :, g[0]])) < 1e-12:
                g.append(e)
                break
        else:
            groups.append([e])
    if len(groups) == p.shape[2]:
        return p
    return np.stack([p[:, :, g].sum(axis=2) for g in groups], axis=2)


def conditional_gap(p: np.ndarray, e: int, f: int) -> float:
    cond = p / p.sum(axis=(0, 1))
    return float(np.max(np.abs(cond[:, :, e] - cond[:, :, f])))


def column_at_gap(gap: float) -> np.ndarray:
    """A column whose conditional is exactly ``gap`` from that of [[1/4, 1/4], [0, 0]].

    The gap sits in cell (1, 0); the other cells differ by about gap / 2.
    """
    p = np.zeros((2, 2, 2))
    p[0, :, :] = 0.25
    x = gap / (2 - 2 * gap)  # x / (1/2 + x) = gap
    for _ in range(64):
        p[1, 0, 1] = x
        d = conditional_gap(p, 0, 1)
        if d == gap:
            return p[:, :, 1]
        x = np.nextafter(x, 1.0 if d < gap else 0.0)
    raise AssertionError(f"no column at gap {gap!r}")


MERGE_TOL = 1e-12  # _reduce_alphabet merges conditionals strictly closer than this
BELOW_TOL = float(np.nextafter(MERGE_TOL, 0.0))


@pytest.mark.parametrize("gap, groups",
                         [(MERGE_TOL, 2), (BELOW_TOL, 1), (0.0, 1), (2 * MERGE_TOL, 2)])
def test_reduce_alphabet_merges_strictly_below_the_tolerance(gap, groups):
    p = np.stack([column_at_gap(0.0), column_at_gap(gap)], axis=2)
    assert conditional_gap(p, 0, 1) == gap
    reduced = measures._reduce_alphabet(p)
    assert reduced.shape[2] == groups
    assert reduced.tobytes() == loop_reduce_alphabet(p).tobytes()


def test_reduce_alphabet_matches_the_pairwise_loop():
    # a chain 0 ~ BELOW_TOL ~ 2 * BELOW_TOL: greedy grouping compares each
    # symbol with the first member of a group only, so the order of the symbols
    # matters; a zero column, an exact copy and a symbol exactly MERGE_TOL away
    # ride along
    chain = [column_at_gap(g) for g in (0.0, BELOW_TOL, 2 * BELOW_TOL, MERGE_TOL, 0.0)]
    columns = chain + [np.zeros((2, 2)), np.array([[0.1, 0.2], [0.3, 0.4]])]
    joints = [np.stack([columns[i] for i in order], axis=2)
              for order in itertools.permutations(range(len(columns)))][::7]
    joints += [pin_joint(family, n_e) for family in ("copy", "dirichlet") for n_e in (2, 5, 16)]
    joints.append(symmetric_joint())
    for n_e in (40, 1000):  # 1000 symbols take more than one block of the gap matrix
        copies = np.zeros((2, 2, n_e))
        for e in range(n_e):
            copies[e % 2, (e // 2) % 2, e] = 1.0 / n_e
        joints.append(copies)
    merged = 0
    for p in joints:
        reduced, ref = measures._reduce_alphabet(p), loop_reduce_alphabet(p)
        assert reduced.shape == ref.shape and reduced.tobytes() == ref.tobytes()
        merged += reduced.shape[2] < p.shape[2]
    assert merged > len(joints) // 2


def test_intrinsic_reproducible():
    rng = np.random.default_rng(67)
    p = rng.dirichlet(np.ones(2 * 2 * 4)).reshape(2, 2, 4)
    assert intrinsic_info(p, seed=3) == intrinsic_info(p, seed=3)
    assert intrinsic_info(p, seed=np.int64(3)) == intrinsic_info(p, seed=3)


@pytest.mark.parametrize("seed", [3.0, "3", [1, 2], np.random.SeedSequence(3),
                                  np.random.default_rng(3), None],
                         ids=["float", "str", "list", "SeedSequence", "Generator", "None"])
def test_intrinsic_rejects_a_seed_that_is_not_an_integer(seed):
    # the seed keys the cached map pool: a list is unhashable and a Generator is mutable
    with pytest.raises(TypeError, match=r"^seed must be an integer, not \w+$"):
        intrinsic_info(pin_joint("copy", 3), seed=seed)


def eve_knows_the_bits() -> np.ndarray:
    """A = B, and Eve's two symbols hold the bit: I(A:B|E) is exactly 0."""
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = p[1, 1, 1] = 0.5
    return p


@pytest.mark.parametrize("joint", ["one symbol", "zero cmi", "searched"])
def test_intrinsic_negative_seed_is_refused_on_every_joint(joint):
    # checked at entry: the first two joints return before any pool is built
    p = {"one symbol": lambda: np.full((2, 2, 1), 0.25), "zero cmi": eve_knows_the_bits,
         "searched": lambda: pin_joint("copy", 3)}[joint]()
    with pytest.raises(ValueError, match=r"^seed must be non-negative, not -1$"):
        intrinsic_info(p, seed=-1)


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
    searched, map_pool = [], measures._map_pool

    def recording_pool(*key):
        searched.append(map_pool(*key))
        return searched[-1]

    monkeypatch.setattr(measures, "_map_pool", recording_pool)
    # Bell(7) = 877 partitions: exhaustive by default, sampled under a cap of 500
    exhaustive = intrinsic_info(p, refine=False)
    monkeypatch.setattr(measures, "DET_CHANNEL_CAP", 500)
    assert exhaustive <= intrinsic_info(p, refine=False)
    # the cap is read at each call: the second search is the sampled pool,
    # 500 maps and the 7 constant ones, not the cached exhaustive one
    assert [masks.shape for masks, *_ in searched] == [(877, 7), (507, 7)]


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
    for g, value in zip(maps, det_channel_values(p, maps)):
        assert abs(value - max(loop_cmi(apply_map(p, g)), 0.0)) < 1e-14


def screen_values(p: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """`_screen_values` of ``maps`` through their masks and the distinct masks among them."""
    masks, subsets = measures._searched_arrays(maps)
    return measures._screen_values(p, masks, subsets)


def det_channel_values(p: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """`_det_channel_values` of ``maps`` through their block masks."""
    return measures._det_channel_values(p, measures._block_masks(maps))


def test_screen_matches_det_channel_values_on_every_partition():
    rng = np.random.default_rng(113)
    for n_e in range(2, 10):
        p = rng.dirichlet(np.ones(4 * n_e)).reshape(2, 2, n_e)
        maps = measures._partitions(n_e)
        gap = np.abs(screen_values(p, maps) - det_channel_values(p, maps))
        assert gap.max() <= 1e-13, n_e


def test_screen_matches_det_channel_values_on_sampled_maps():
    rng = np.random.default_rng(127)
    p = rng.dirichlet(np.ones(64)).reshape(2, 2, 16)
    maps = np.concatenate([
        rng.integers(0, 16, size=(50_000, 16)),
        rng.integers(0, 3, size=(100, 16)) * 7,  # outputs 0, 7 and 14 only
        np.arange(16)[None],  # the identity
        np.repeat(np.arange(16)[:, None], 16, axis=1),  # the constant maps
    ])
    gap = np.abs(screen_values(p, maps) - det_channel_values(p, maps))
    assert gap.max() <= 1e-13


def test_screen_matches_det_channel_values_with_a_zero_weight_block():
    p = np.random.default_rng(131).dirichlet(np.ones(24)).reshape(2, 2, 6)
    p[:, :, 2:4] = 0.0  # the block {2, 3} below carries no mass
    p /= p.sum()
    maps = np.array([[0, 0, 1, 1, 2, 2], [0, 1, 2, 2, 3, 4], [0, 1, 2, 3, 4, 5],
                     [5, 5, 0, 0, 5, 5], [0, 0, 0, 0, 0, 0]])
    gap = np.abs(screen_values(p, maps) - det_channel_values(p, maps))
    assert gap.max() <= 1e-13
    assert measures._subset_terms(p, np.array([0b1100], dtype=np.uint16))[0] == 0.0


def sampled_maps(n_e: int, rng: np.random.Generator) -> np.ndarray:
    """The maps of a sampled pool: the identity, the rest of ``rng``'s draw, the constant maps."""
    drawn = rng.integers(0, n_e, size=(measures.DET_CHANNEL_CAP, n_e))
    drawn[0] = np.arange(n_e)
    return np.concatenate([drawn, np.repeat(np.arange(n_e)[:, None], n_e, axis=1)])


def test_block_masks_are_the_preimages_of_each_output():
    pools = [measures._partitions(n_e).astype(np.uint8) for n_e in range(2, 10)]
    pools.append(sampled_maps(16, np.random.default_rng(5)).astype(np.uint8))
    for maps in pools:
        n_e = maps.shape[1]
        masks = measures._block_masks(maps)
        assert masks.dtype == np.uint16 and masks.shape == maps.shape
        bits = 1 << np.arange(n_e)  # column f of the reference: sum_e [g(e) = f] 2^e
        reference = np.column_stack([(maps == f) @ bits for f in range(n_e)])
        assert np.array_equal(masks, reference)


@pytest.mark.parametrize("n_e", [7, 16])
def test_map_pool_is_the_searched_pool(n_e):
    pool = measures._map_pool(n_e, 5, measures.DET_CHANNEL_CAP)
    masks, subsets, jitter = pool
    rng = np.random.default_rng(5)
    if n_e == 7:  # exhaustive: every partition, and the seed reaches the jitter alone
        maps = measures._partitions(7)
    else:  # sampled: the identity first, the rest of the draw, then the constant maps
        maps = sampled_maps(n_e, rng)
    assert masks.dtype == np.uint16
    assert np.array_equal(masks, measures._block_masks(maps))
    assert jitter.tobytes() == (0.15 * rng.standard_normal((4, n_e, n_e))).tobytes()
    assert measures._map_pool(n_e, 5, measures.DET_CHANNEL_CAP) is pool


def test_map_pool_subsets_are_the_distinct_masks():
    for n_e in [*range(2, 10), 16]:  # every partition pool and a sampled one
        masks, subsets, _ = measures._map_pool(n_e, 5, measures.DET_CHANNEL_CAP)
        assert subsets.dtype == np.uint16 and np.array_equal(subsets, np.unique(masks)), n_e
        # stored by column: each output's masks are contiguous for the screen's gather
        assert masks.flags.f_contiguous and masks[:, -1].flags.c_contiguous, n_e


def test_partition_pools_are_equal_for_every_seed():
    for n_e in (3, 9):
        first, second = (measures._map_pool(n_e, seed, measures.DET_CHANNEL_CAP)
                         for seed in (0, 1))
        assert all(np.array_equal(a, b) for a, b in zip(first[:2], second[:2])), n_e
        assert first[2].tobytes() != second[2].tobytes(), n_e  # the jitter is the seed's own
    p = pin_joint("dirichlet", 9)
    assert intrinsic_info(p, seed=0, refine=False) == intrinsic_info(p, seed=1, refine=False)


@pytest.mark.parametrize("n_e", [*range(1, 10), 16])
def test_every_pool_holds_the_identity_and_a_constant_map(n_e):
    # the identity gives I(A:B|E) and a constant map I(A:B): the two ceilings
    masks, _, _ = measures._map_pool(n_e, 3, measures.DET_CHANNEL_CAP)
    identity = 1 << np.arange(n_e)
    constant = np.zeros(n_e)
    constant[0] = (1 << n_e) - 1  # every symbol sent to output 0
    for row in (identity, constant):
        assert np.any(np.all(masks == row, axis=1)), (n_e, row)


@pytest.mark.parametrize("family, n_e", [("dirichlet", 1), ("dirichlet", 5), ("copy", 16)])
def test_intrinsic_scores_maps_exactly_once_per_call(family, n_e, monkeypatch):
    calls, det_channel_values = [], measures._det_channel_values

    def counting(p, masks):
        calls.append(len(masks))
        return det_channel_values(p, masks)

    monkeypatch.setattr(measures, "_det_channel_values", counting)
    intrinsic_info(pin_joint(family, n_e))
    assert len(calls) == 1


def loop_subset_term(p: np.ndarray, subset: int) -> float:
    """phi of ``subset``: I(A:B|F) of its symbols merged into one output, by loops."""
    q = np.zeros(p.shape[:2])
    for e in range(p.shape[2]):
        if subset >> e & 1:
            q += p[:, :, e]
    return loop_cmi(q[:, :, None])


def test_subset_terms_match_a_loop_over_each_subset():
    rng = np.random.default_rng(139)
    zero_block = rng.dirichlet(np.ones(36)).reshape(3, 2, 6)
    zero_block[:, :, 2:4] = 0.0  # the symbols 2 and 3 carry no mass
    zero_block /= zero_block.sum()
    sixteen = rng.dirichlet(np.ones(64)).reshape(2, 2, 16)
    sampled = np.unique(np.concatenate([rng.integers(0, 1 << 16, size=500), [0, (1 << 16) - 1]]))
    # all 65,536 subsets of a 3 x 3 x 16 joint take two blocks of 62,500 rows at
    # most: the seam is checked
    nine = rng.dirichlet(np.ones(144)).reshape(3, 3, 16)
    cases = [(zero_block, np.arange(64), np.arange(64)), (sixteen, sampled, sampled),
             (nine, np.arange(1 << 16), [0, 1, 62_499, 62_500, 62_501, (1 << 16) - 1])]
    for p, subsets, checked in cases:
        terms = measures._subset_terms(p, subsets.astype(np.uint16))
        for subset in checked:
            assert abs(terms[subset == subsets][0] - loop_subset_term(p, int(subset))) <= 1e-15
    terms = measures._subset_terms(zero_block, np.array([0, 0b1100], dtype=np.uint16))
    assert terms.tolist() == [0.0, 0.0]


def pin_joint(family: str, n_e: int) -> np.ndarray:
    """Seeded joints of the float.hex pins below.

    "copy": Eve's symbol is a noisy view of A alone, and her best deterministic
    map already sits on the one-way key floor.  "views": a noisy view of A or
    of B, by a fair coin, so the floor lies below every map and refinement runs.
    """
    if family == "dirichlet":
        return np.random.default_rng(500 + n_e).dirichlet(np.ones(4 * n_e)).reshape(2, 2, n_e)
    p_ab = np.array([[0.45, 0.05], [0.05, 0.45]])
    if family == "views":
        w, v = np.random.default_rng(720 + n_e).dirichlet(np.ones(n_e), size=(2, 2))
        return p_ab[:, :, None] * (w[:, None, :] + v[None, :, :]) / 2
    w = np.random.default_rng(600 + n_e).dirichlet(np.ones(n_e), size=2)  # Eve's noisy view of A
    return p_ab[:, :, None] * w[:, None, :]


# intrinsic_info(pin_joint(family, n_e), seed=n_e, refine=refine) as computed by
# the search that scored every map with _det_channel_values, before the subset
# screen: the screen must leave the best map, the starts and the rng draws as
# they were, so every value stays bit for bit.  The copy joints' refined values
# are their unrefined ones: their best map sits on the one-way key floor, and
# refinement is skipped
INTRINSIC_PINS = {
    ("copy", 2, True): "0x1.088f543ed5514p-1",
    ("copy", 2, False): "0x1.088f543ed5514p-1",
    ("copy", 3, True): "0x1.cadc97531a78cp-2",
    ("copy", 3, False): "0x1.cadc97531a78cp-2",
    ("copy", 5, True): "0x1.e933fc2f360b8p-2",
    ("copy", 5, False): "0x1.e933fc2f360b8p-2",
    ("copy", 7, True): "0x1.23d31f501f460p-2",
    ("copy", 7, False): "0x1.23d31f501f460p-2",
    ("copy", 9, True): "0x1.a8b500f91b5b0p-2",
    ("copy", 9, False): "0x1.a8b500f91b5b0p-2",
    ("copy", 16, True): "0x1.8652d31f77810p-2",
    ("copy", 16, False): "0x1.8652d31f77810p-2",
    ("dirichlet", 2, True): "0x1.17e1c585b8c80p-7",
    ("dirichlet", 2, False): "0x1.17e1c585b8d80p-7",
    ("dirichlet", 3, True): "0x0.0p+0",
    ("dirichlet", 3, False): "0x1.ac0baa0023000p-12",
    ("dirichlet", 5, True): "0x1.3b4c0929b0000p-13",
    ("dirichlet", 5, False): "0x1.f5fe297848800p-12",
    ("dirichlet", 7, True): "0x1.dfa9da5b18400p-9",
    ("dirichlet", 7, False): "0x1.4a27ec549d800p-8",
    ("dirichlet", 9, True): "0x1.3694ba221ac00p-9",
    ("dirichlet", 9, False): "0x1.5ca0f0b01c900p-9",
    ("dirichlet", 16, True): "0x0.0p+0",
    ("dirichlet", 16, False): "0x1.ec77a460584e3p-9",
    ("views", 2, True): "0x1.dca7a71b12848p-2",
    ("views", 2, False): "0x1.dca7a71b12848p-2",
    ("views", 3, True): "0x1.cd9ec63fc5350p-2",
    ("views", 3, False): "0x1.cd9ec63fc535cp-2",
    ("views", 5, True): "0x1.c4c7767dc6930p-2",
    ("views", 5, False): "0x1.c4c7767dc6930p-2",
    ("views", 7, True): "0x1.f4e00c4ab8688p-2",
    ("views", 7, False): "0x1.f5466acf52518p-2",
    ("views", 16, True): "0x1.d05e2c68de760p-2",
    ("views", 16, False): "0x1.d4ef76750d040p-2",
}
# the refined pins as refinement gave them when it ran on every joint: the
# floor's skip and stop may raise none of them by more than 1e-12
REFINED_BEFORE_THE_FLOOR = {**{(f, n): v for (f, n, refine), v in INTRINSIC_PINS.items() if refine},
                            ("copy", 2): "0x1.088f543ed5512p-1"}


@pytest.mark.parametrize("family, n_e, refine", list(INTRINSIC_PINS))
def test_intrinsic_info_pinned_bit_for_bit(family, n_e, refine):
    value = intrinsic_info(pin_joint(family, n_e), seed=n_e, refine=refine)
    assert float.hex(value) == INTRINSIC_PINS[family, n_e, refine]


@pytest.mark.parametrize("family, n_e", list(REFINED_BEFORE_THE_FLOOR))
def test_refined_pins_lie_between_the_floor_and_their_values_before_it(family, n_e):
    p = pin_joint(family, n_e)
    floor = measures._key_rate_floor(measures._reduce_alphabet(p))
    value = float.fromhex(INTRINSIC_PINS[family, n_e, True])
    assert floor - 1e-12 <= value <= float.fromhex(REFINED_BEFORE_THE_FLOOR[family, n_e]) + 1e-12


@pytest.mark.parametrize("family, n_e", list(REFINED_BEFORE_THE_FLOOR))
def test_intrinsic_skips_refinement_on_the_floor(family, n_e, monkeypatch):
    # within the margin of the floor: no objective call, and the unrefined
    # bits; elsewhere refinement runs
    p = pin_joint(family, n_e)
    floor = measures._key_rate_floor(measures._reduce_alphabet(p))
    unrefined = intrinsic_info(p, seed=n_e, refine=False)
    calls = len(refined_thetas(p, n_e, monkeypatch))
    if unrefined <= floor + measures._FLOOR_MARGIN:
        assert family == "copy"  # every copy pin, and only those
        assert calls == 0
        assert float.hex(intrinsic_info(p, seed=n_e)) == float.hex(unrefined)
    else:
        assert family != "copy" and calls > 0


def split_of(g) -> tuple:
    """The split of Eve's alphabet that map ``g`` makes, its outputs relabeled by first use."""
    relabel: dict[int, int] = {}
    return tuple(relabel.setdefault(int(f), len(relabel)) for f in g)


def maps_of(masks: np.ndarray) -> np.ndarray:
    """g(e) of each map, the output whose block mask holds bit e."""
    n_e = masks.shape[1]
    return np.argmax((masks[:, None, :] >> np.arange(n_e)[:, None]) & 1, axis=2)


def stable_walk_prefix(maps: np.ndarray, values: np.ndarray, splits: int = 4) -> np.ndarray:
    """Indices the stable sort of ``values`` visits up to its ``splits``-th distinct split."""
    order = np.argsort(values, kind="stable")
    seen = set()
    for j, i in enumerate(order):
        seen.add(split_of(maps[i]))
        if len(seen) == splits:
            return order[:j + 1]
    return order


def symmetric_joint() -> np.ndarray:
    """Eve's symbols 0, 2, 4 and 1, 3, 5 share conditionals: many exact ties."""
    p = np.zeros((2, 2, 6))
    for a, b, e in itertools.product(range(2), range(2), range(6)):
        p[a, b, e] = (0.45 if a == b else 0.05) * (0.7 if e % 2 == a else 0.3) / 3
    return p


@pytest.mark.parametrize("p", [pin_joint("dirichlet", n) for n in (2, 3, 5, 7, 9, 16)]
                         + [pin_joint("copy", n) for n in (5, 16)] + [symmetric_joint()])
def test_shortlist_holds_the_walked_prefix_and_the_argmin(p):
    # the pool that intrinsic_info(p, seed=|E|) searches, the identity row included
    n_e = p.shape[2]
    masks, subsets, _ = measures._map_pool(n_e, n_e, measures.DET_CHANNEL_CAP)
    exact = measures._det_channel_values(p, masks)
    kept = set(measures._shortlist(p, masks, subsets).tolist())
    assert set(stable_walk_prefix(maps_of(masks), exact).tolist()) <= kept
    assert int(np.argmin(exact)) in kept


def full_sort_shortlist(p, masks, subsets) -> np.ndarray:
    """`_shortlist` with the whole screen sorted."""
    screen = measures._screen_values(p, masks, subsets)
    firsts = measures._distinct_splits(masks, np.argsort(screen))
    cut = screen[firsts[-1]] if len(firsts) == 4 else screen.max()
    return np.flatnonzero(screen <= cut + measures._SCREEN_MARGIN)


@pytest.mark.parametrize("margin", [measures._SCREEN_MARGIN, 0.0], ids=["margin", "no margin"])
def test_shortlist_prefix_finds_the_full_sort_cut(margin, monkeypatch):
    # with no margin, the shortlist is the maps screened at most the cut: any
    # other cut that a screened value separates from it shows
    monkeypatch.setattr(measures, "_SCREEN_MARGIN", margin)
    rng = np.random.default_rng(149)
    p = rng.dirichlet(np.ones(24)).reshape(2, 2, 6)
    partitions = measures._partitions(6)
    best = partitions[np.argmin(det_channel_values(p, partitions))]
    # 100 relabelings of the best split, each through its own masks, screen
    # least: the first prefix of 64 holds one split and must widen
    relabeled = np.array([rng.permutation(6)[best] for _ in range(100)])
    widened = np.concatenate([relabeled, partitions])
    masks, subsets = measures._searched_arrays(widened)
    first = np.argsort(measures._screen_values(p, masks, subsets))[:measures._SCREEN_PREFIX]
    assert {split_of(widened[i]) for i in first} == {split_of(best)}
    cases = [(p, widened), (symmetric_joint(), partitions)]  # the second with many exact ties
    # pools of 2, 5 and 15 maps, shorter than the prefix; the first has 2 splits only
    cases += [(pin_joint("dirichlet", n), measures._partitions(n)) for n in (2, 3, 4)]
    for q, maps in cases:
        masks, subsets = measures._searched_arrays(maps)
        kept = measures._shortlist(q, masks, subsets)
        assert np.array_equal(kept, full_sort_shortlist(q, masks, subsets))


def test_intrinsic_search_memory_peak():
    # the one-hot blocks of the exact kernel and the screen's lookups must not
    # be built for the whole pool of 50,016 maps at once
    p = np.random.default_rng(137).dirichlet(np.ones(64)).reshape(2, 2, 16)
    intrinsic_info(p, refine=False)  # one-time allocations and the pool, outside the measurement
    tracemalloc.start()
    try:
        intrinsic_info(p, refine=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_intrinsic_pool_build_memory_peak():
    # a cold build: the seeded draw is 50,000 x 16 int64 entries (6.1 MiB)
    # before it is kept as uint8, and the masks are built block by block
    p = np.random.default_rng(137).dirichlet(np.ones(64)).reshape(2, 2, 16)
    intrinsic_info(p, refine=False)
    measures._map_pool.cache_clear()
    tracemalloc.start()
    try:
        intrinsic_info(p, refine=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    pool = measures._map_pool(16, 0, measures.DET_CHANNEL_CAP)
    assert measures._map_pool.cache_info().hits == 1  # the entry the call built
    assert sum(array.nbytes for array in pool) <= 1_700_000  # the block masks alone, no map rows
    for array in pool:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_intrinsic_gradient_matches_central_differences():
    for n_e in range(2, 7):
        rng = np.random.default_rng(100 + n_e)
        p = rng.dirichlet(np.ones(4 * n_e)).reshape(2, 2, n_e)
        obj = _IntrinsicObjective(p)
        theta = rng.standard_normal((1, n_e * n_e))
        grad = obj.value_and_grad(theta)[1][0]
        eps = 1e-6
        num = np.empty_like(grad)
        for i in range(grad.size):
            tp, tm = theta.copy(), theta.copy()
            tp[0, i] += eps
            tm[0, i] -= eps
            num[i] = (obj.value_and_grad(tp)[0][0] - obj.value_and_grad(tm)[0][0]) / (2 * eps)
        assert np.linalg.norm(num - grad) < 1e-5 * np.linalg.norm(grad), n_e


def test_intrinsic_objective_is_cmi_after_the_channel():
    rng = np.random.default_rng(71)
    p = rng.dirichlet(np.ones(16)).reshape(2, 2, 4)
    theta = rng.standard_normal(16)
    rows = theta.reshape(4, 4) ** 2
    rows /= rows.sum(axis=1, keepdims=True)
    q = np.einsum("abe,ef->abf", p, rows)
    assert abs(_IntrinsicObjective(p).value_and_grad(theta[None])[0][0] - loop_cmi(q)) < 1e-12


def reference_value_and_grad(p: np.ndarray, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """`_IntrinsicObjective.value_and_grad` on one theta, each table its own array."""
    n_e = p.shape[2]
    theta = theta.reshape(n_e, n_e)
    sq = theta * theta
    s = np.clip(sq.sum(axis=1, keepdims=True), 1e-300, None)
    rows = sq / s
    q = np.einsum("abe,ef->abf", p, rows)
    q_af = q.sum(axis=1, keepdims=True)
    q_bf = q.sum(axis=0, keepdims=True)
    q_f = q.sum(axis=(0, 1), keepdims=True)
    cells = (q, q_af, q_bf, q_f)
    l_abf, l_af, l_bf, l_f = logs = [np.log2(np.maximum(t, 1e-300)) for t in cells]
    h_abf, h_af, h_bf, h_f = (float((t * lg).sum()) for t, lg in zip(cells, logs))
    value = h_abf + h_f - h_af - h_bf
    g_q = l_abf + l_f - l_af - l_bf
    g_rows = np.einsum("abe,abf->ef", p, g_q)
    g_sq = (g_rows - (g_rows * rows).sum(axis=1, keepdims=True)) / s
    return value, (2.0 * theta * g_sq).reshape(-1)


def refined_thetas(p: np.ndarray, seed: int, monkeypatch) -> list[np.ndarray]:
    """Every theta that L-BFGS-B evaluates in intrinsic_info(p, seed=seed), block by block."""
    thetas = []

    class Recording(_IntrinsicObjective):
        def value_and_grad(self, theta):
            thetas.extend(theta.copy())
            return super().value_and_grad(theta)

    with monkeypatch.context() as m:
        m.setattr(measures, "_IntrinsicObjective", Recording)
        intrinsic_info(p, seed=seed)
    return thetas


def test_intrinsic_objective_matches_reference_bit_for_bit(monkeypatch):
    joints = [pin_joint(family, n_e) for family in ("views", "dirichlet")
              for n_e in (2, 3, 5, 7, 16)]
    joints.append(np.random.default_rng(77).dirichlet(np.ones(24)).reshape(3, 2, 4))
    for p in joints:
        n_e = p.shape[2]
        thetas = refined_thetas(p, n_e, monkeypatch)
        assert thetas, p.shape
        rng = np.random.default_rng(n_e)
        zero_row = rng.standard_normal((n_e, n_e))
        zero_row[n_e // 2] = 0.0  # its row sum is floored at 1e-300
        one_hot = np.zeros((n_e, n_e))
        one_hot[:, 0] = 1.0  # every output but 0 is empty: log2(1e-300) cells
        extremes = [zero_row.reshape(-1), one_hot.reshape(-1)]
        # one instance sees the recorded run forwards and backwards in blocks of
        # 4, 3, 2 and 1 rows, in turn with blocks that hold an extreme at each
        # row position of each size, so every row must get its single-theta bits
        # whatever block holds it and whatever the instance evaluated before
        recorded = [theta for pair in zip(thetas, reversed(thetas)) for theta in pair]
        plain, sizes = [], itertools.cycle([4, 3, 2, 1])
        while recorded:
            size = next(sizes)
            plain.append(recorded[:size])
            del recorded[:size]
        placed = [thetas[:at] + [extreme] + thetas[at + 1:size]
                  for size in (4, 3, 2, 1) for at in range(size) for extreme in extremes]
        blocks = [block for pair in itertools.zip_longest(plain, placed) for block in pair
                  if block is not None]
        objective = _IntrinsicObjective(p)
        for block in blocks:
            values, grads = objective.value_and_grad(np.array(block))
            assert values.shape == (len(block),) and grads.shape == (len(block), n_e * n_e)
            for theta, value, grad in zip(block, values, grads):
                ref_value, ref_grad = reference_value_and_grad(p, theta)
                assert float.hex(float(value)) == float.hex(ref_value)
                assert grad.dtype == ref_grad.dtype
                assert grad.tobytes() == ref_grad.tobytes()


def test_intrinsic_objective_matches_reference_on_random_blocks():
    # 3,000 seeded blocks: |E| from 1 to 16, 1 to 4 rows, joints of 2 to 3
    # outcomes per side, and rows with an empty row sum or all mass on one output
    rng = np.random.default_rng(2024)
    shapes = [(2, 2), (3, 2), (2, 3), (3, 3)]
    for i in range(3000):
        n_e, k, (n_a, n_b) = 1 + i % 16, 1 + i % 4, shapes[i % 4]
        p = rng.dirichlet(np.ones(n_a * n_b * n_e)).reshape(n_a, n_b, n_e)
        thetas = rng.standard_normal((k, n_e, n_e))
        if i % 7 == 0:
            thetas[0, n_e // 2] = 0.0
        if i % 11 == 0:
            thetas[-1] = 0.0
            thetas[-1, :, 0] = 1.0
        thetas = thetas.reshape(k, -1)
        values, grads = _IntrinsicObjective(p).value_and_grad(thetas)
        for theta, value, grad in zip(thetas, values, grads):
            ref_value, ref_grad = reference_value_and_grad(p, theta)
            assert float.hex(float(value)) == float.hex(ref_value)
            assert grad.tobytes() == ref_grad.tobytes()


# objective evaluations one refined intrinsic_info(pin_joint(family, n_e),
# seed=n_e) makes: with the INTRINSIC_PINS values they show the L-BFGS-B
# trajectory is unchanged.  The copy joints skip refinement, and the
# dirichlet 3 and 16 descents end at their first value on the zero floor
INTRINSIC_EVALUATIONS = {
    ("copy", 2): 0, ("copy", 3): 0, ("copy", 5): 0, ("copy", 7): 0,
    ("copy", 9): 0, ("copy", 16): 0,
    ("dirichlet", 2): 63, ("dirichlet", 3): 60, ("dirichlet", 5): 358,
    ("dirichlet", 7): 343, ("dirichlet", 9): 335, ("dirichlet", 16): 113,
    ("views", 2): 60, ("views", 3): 82, ("views", 5): 201, ("views", 7): 358,
    ("views", 16): 338,
}


@pytest.mark.parametrize("family, n_e", [(f, n) for f, n, refine in INTRINSIC_PINS if refine])
def test_intrinsic_refinement_evaluation_count_pinned(family, n_e, monkeypatch):
    thetas = refined_thetas(pin_joint(family, n_e), n_e, monkeypatch)
    assert len(thetas) == INTRINSIC_EVALUATIONS[family, n_e]


def test_intrinsic_cached_pool_gives_the_cold_bits(monkeypatch):
    # cold, warm, and warm again after another seed's pool joined the cache
    p = pin_joint("views", 16)
    measures._map_pool.cache_clear()
    values = [intrinsic_info(p, seed=16), intrinsic_info(p, seed=16)]
    intrinsic_info(p, seed=17)
    values.append(intrinsic_info(p, seed=16))
    assert [float.hex(v) for v in values] == [INTRINSIC_PINS["views", 16, True]] * 3
    assert measures._map_pool.cache_info()[:2] == (2, 2)  # hits, misses
    # the refined points are compared too
    measures._map_pool.cache_clear()
    cold = refined_thetas(p, 16, monkeypatch)
    warm = refined_thetas(p, 16, monkeypatch)
    assert len(cold) == INTRINSIC_EVALUATIONS["views", 16]
    assert np.array(cold).tobytes() == np.array(warm).tobytes()


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


def test_intrinsic_one_symbol_skips_refinement(monkeypatch):
    # one Eve symbol, or several with one conditional: the only map gives
    # I(A:B), which is the floor
    def no_optimizer(*args, **kwargs):
        raise AssertionError("refinement ran on one Eve symbol")

    monkeypatch.setattr(measures, "minimize", no_optimizer)
    rng = np.random.default_rng(83)
    for n_e in (1, 1, 5):
        p_ab = rng.dirichlet(np.ones(4)).reshape(2, 2)
        p = p_ab[:, :, None] * rng.dirichlet(np.ones(n_e))
        assert intrinsic_info(p) == intrinsic_info(p, refine=False)
        assert abs(intrinsic_info(p) - mutual_info(p_ab)) < 1e-15


# --- the L-BFGS-B driver ----------------------------------------------------

def recorded_descents(monkeypatch, call) -> list[tuple]:
    """(fun, block of starts, maxiter, stop) of every descent ``call()`` starts, in order."""
    driver, descents = measures.minimize, []

    def recording(fun, x0, **kwargs):
        descents.append((fun, np.array(x0), kwargs["maxiter"], kwargs.get("stop", -math.inf)))
        return driver(fun, x0, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(measures, "minimize", recording)
        call()
    return descents


def assert_scipy_descent(fun, x0, maxiter, stop=-math.inf) -> tuple:
    """Each run of measures.minimize from the rows of x0 is scipy's public
    L-BFGS-B run from its row, bit for bit; returns the runs.

    The runs still going are asked in lockstep: the j-th call of ``fun``
    holds, in start order, every run with more than j evaluations.  A run's
    ``least`` is the least value of its evaluations, and the totals are the
    sums over the runs.  When a value reaches ``stop``, that round is the
    last, and each run is a prefix of scipy's: the points it evaluated, in
    order, are the first ones scipy's run evaluates.
    """
    from scipy.optimize import minimize as scipy_minimize

    blocks, block_values = [], []

    def traced(block):
        values, grads = fun(block)
        blocks.append(block.copy())
        block_values.append(np.array(values))
        return values, grads

    res = measures.minimize(traced, x0, method="L-BFGS-B", maxiter=maxiter, stop=stop)
    stopped = [bool((values <= stop).any()) for values in block_values]
    assert not any(stopped[:-1])  # no round after the first value at or below stop
    nfevs = [run.nfev for run in res.runs]
    assert len(res.runs) == len(x0)
    assert [len(block) for block in blocks] == [sum(n > j for n in nfevs)
                                                for j in range(max(nfevs))]
    assert (res.nfev, res.nit) == (sum(nfevs), sum(run.nit for run in res.runs))
    assert float.hex(res.least) == float.hex(min(run.least for run in res.runs))
    for i, (start, run) in enumerate(zip(x0, res.runs)):
        rows = [(j, sum(n > j for n in nfevs[:i])) for j in range(run.nfev)]
        ours = [blocks[j][r].tobytes() for j, r in rows]
        theirs = []

        def single(x):
            theirs.append(x.tobytes())
            values, grads = fun(x[None])
            return values[0], grads[0]

        ref = scipy_minimize(single, start, jac=True, method="L-BFGS-B",
                             options={"maxiter": maxiter, "ftol": 1e-14, "gtol": 1e-10})
        assert float.hex(run.least) == float.hex(min(float(block_values[j][r]) for j, r in rows))
        if stopped[-1]:
            assert ours == theirs[:len(ours)]  # the first points scipy evaluates, in order
            assert run.nit <= ref.nit
            assert float.hex(run.fun) == float.hex(float(block_values[rows[-1][0]][rows[-1][1]]))
            continue
        assert ours == theirs  # every evaluated point, in order
        assert run.x.tobytes() == ref.x.tobytes()
        assert float.hex(run.fun) == float.hex(float(ref.fun))
        assert (run.nfev, run.nit) == (ref.nfev, ref.nit)
    return res.runs


@pytest.mark.parametrize("family", ["views", "dirichlet"])
@pytest.mark.parametrize("n_e", [2, 5, 16])
def test_minimize_is_scipy_lbfgsb_on_intrinsic_refinement(family, n_e, monkeypatch):
    p = pin_joint(family, n_e)
    descents = recorded_descents(monkeypatch, lambda: intrinsic_info(p, seed=n_e))
    assert len(descents) == 1  # every restart in one lockstep block
    fun, x0, maxiter, _ = descents[0]
    assert len(x0) == measures._INTRINSIC_RESTARTS
    runs = assert_scipy_descent(fun, x0, maxiter)  # the whole runs, past any stop
    if (family, n_e) == ("views", 16):  # runs stopped by the iteration cap are covered
        assert measures.INTRINSIC_REFINE_ITERS in [run.nit for run in runs]
    if (family, n_e) == ("views", 2):  # and runs that stop in different rounds
        assert len({run.nfev for run in runs}) == measures._INTRINSIC_RESTARTS


@pytest.mark.parametrize("n_e", [3, 16])
def test_intrinsic_descent_stops_at_the_floor_on_a_prefix_of_scipys_runs(n_e, monkeypatch):
    # the dirichlet 3 and 16 pins refine to 0: their descent ends in the round
    # of its first value at or below the zero floor, with the value refinement
    # gave when it ran on
    p = pin_joint("dirichlet", n_e)
    descents = recorded_descents(monkeypatch, lambda: intrinsic_info(p, seed=n_e))
    ((fun, x0, maxiter, stop),) = descents
    assert stop == measures._key_rate_floor(measures._reduce_alphabet(p)) == 0.0
    runs = assert_scipy_descent(fun, x0, maxiter, stop)
    assert min(run.least for run in runs) <= stop
    full = measures.minimize(fun, x0, method="L-BFGS-B", maxiter=maxiter)
    assert sum(run.nfev for run in runs) < full.nfev
    assert intrinsic_info(p, seed=n_e) == max(full.least, 0.0) == 0.0


def test_minimize_names_the_scipy_version_when_setulb_refuses_its_arguments(monkeypatch):
    import scipy

    def setulb(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, lsave, isave, dsave, maxls):
        """A routine that no longer takes ln_task: each call is a TypeError."""

    monkeypatch.setattr(measures, "_lbfgsb_routine", lambda: types.SimpleNamespace(setulb=setulb))
    with pytest.raises(diqkd_bounds.NumericalFailureError) as info:
        measures.minimize(quadratic, np.zeros((1, 3)), method="L-BFGS-B", maxiter=5)
    assert str(info.value) == (f"scipy {scipy.__version__}'s private L-BFGS-B routine "
                               "_lbfgsb.setulb refused the arguments of the form it has had "
                               "since scipy 1.15")


@pytest.mark.parametrize("rho", [make_isotropic(0.1),
                                 random_density(np.random.default_rng(29), (2, 3))],
                         ids=["isotropic", "qubit-qutrit"])
def test_minimize_is_scipy_lbfgsb_on_er_descents(rho, monkeypatch):
    descents = recorded_descents(monkeypatch, lambda: er_numeric(rho, restarts=2))
    # one descent per restart, never stopped early
    assert [(len(x0), stop) for _, x0, _, stop in descents] == [(1, -math.inf)] * 2
    for descent in descents:
        assert_scipy_descent(*descent)


def quadratic(x):
    return np.sum((x - 1.0) ** 2, axis=1), 2.0 * (x - 1.0)


def dipped(x):
    """x**2/4 - x with a Gaussian dip at 0.8, on each row of a block.

    From 0, L-BFGS-B first tries 1, steps back, and ends at the local minimum
    2, above the value it saw at 1.
    """
    dip = np.exp(-((x - 0.8) / 0.2) ** 2)
    return np.sum(x * x / 4 - x - dip, axis=1), x / 2 - 1 + dip * (x - 0.8) / 0.02


def test_minimize_returns_what_the_tracer_reads():
    values = []

    def traced(fun):
        def wrapped(x):
            value, grad = fun(x)
            values.extend(value.tolist())
            return value, grad
        return wrapped

    def run(fun, x0):
        values.clear()
        return measures.minimize(fun, x0, method="L-BFGS-B", maxiter=50)

    res = run(traced(quadratic), np.zeros((1, 3)))
    (one,) = res.runs
    assert np.allclose(one.x, 1.0) and one.fun < 1e-12
    assert one.nfev >= 2 and one.nit >= 1 and (res.nfev, res.nit) == (one.nfev, one.nit)
    assert len(values) == res.nfev and float.hex(res.least) == float.hex(min(values))
    # the least value can be a line-search trial that never becomes an iterate
    res = run(traced(dipped), np.zeros((1, 1)))
    assert float.hex(res.least) == float.hex(min(values)) and res.least < res.runs[0].fun
    # a NaN never counts, not even at x0, where the run goes on and converges
    nan_at_x0 = lambda x: traced(quadratic)(x) if x.any() else ([math.nan], 2.0 * (x - 1.0))
    res = run(nan_at_x0, np.zeros((1, 3)))
    assert res.nit >= 1 and float.hex(res.least) == float.hex(min(values))
    # started at the minimum, the run stops with no iteration, and x0 counts
    assert run(quadratic, np.ones((1, 3)))[1:] == (1, 0, 0.0)
    assert run(lambda x: (np.full(len(x), math.nan), 0.0 * x), np.zeros((1, 3))).least == math.inf
    # in a block, each run is the run from its row alone, the one at the local
    # minimum 2 stopping in the first round, and the counters are the sums
    starts = np.array([[0.0], [2.0], [3.0], [-1.0]])
    res = run(traced(dipped), starts)
    alone = [run(dipped, start[None]).runs[0] for start in starts]
    assert [r.nfev for r in alone][1] == 1 and len({r.nfev for r in alone}) > 1
    for ours, solo in zip(res.runs, alone):
        assert ours.x.tobytes() == solo.x.tobytes()
        assert [float.hex(v) for v in (ours.fun, ours.least)] == [float.hex(solo.fun),
                                                                   float.hex(solo.least)]
        assert (ours.nfev, ours.nit) == (solo.nfev, solo.nit)
    assert (res.nfev, res.nit) == (sum(r.nfev for r in alone), sum(r.nit for r in alone))
    assert res.least == min(r.least for r in alone)


def kinked(x):
    """sum |x - shift| on each row of a block, with the gradient's sign pattern."""
    shift = np.array([-7.0, -12.5, -6.25])
    return np.sum(np.abs(x - shift), axis=1), np.sign(x - shift)


def test_minimize_answers_a_repeated_point_from_its_last_evaluation(monkeypatch):
    # on the kink, setulb asks again for f and g at the point it was just
    # given, which scipy answers from its cache; the replay shows every run
    # evaluates what scipy's does, and the count shows the asks were made
    asks, routine = [], measures._lbfgsb_routine()

    def setulb(*args):
        routine.setulb(*args)
        asks.append(args[11][0] == 3)  # task: FG

    monkeypatch.setattr(measures, "_lbfgsb_routine",
                        lambda: types.SimpleNamespace(setulb=setulb))
    starts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [5.0, -3.0, 1.0]])
    runs = assert_scipy_descent(kinked, starts, 50)
    assert sum(asks) > sum(run.nfev for run in runs)


# Each case is a call in scipy's form, which minimize no longer takes: it
# takes method and maxiter alone.  Its jac and its options are each refused
# with TypeError.  Passed as keywords, its options are then refused again
# where they ask for what minimize does not run: another method raises
# ValueError, and a missing maxiter or another option raises TypeError.
# None is ignored.
@pytest.mark.parametrize("method, jac, options", [
    ("BFGS", True, {"maxiter": 5}),
    ("Nelder-Mead", True, {"maxiter": 5}),
    ("L-BFGS-B", None, {"maxiter": 5}),
    ("L-BFGS-B", False, {"maxiter": 5}),
    ("L-BFGS-B", "2-point", {"maxiter": 5}),
    ("L-BFGS-B", lambda x: 2.0 * (x - 1.0), {"maxiter": 5}),
    ("L-BFGS-B", True, {}),
    ("L-BFGS-B", True, {"maxiter": 5, "ftol": 1e-8}),
])
def test_minimize_refuses_what_it_does_not_run(method, jac, options):
    x0 = np.zeros((1, 3))
    for name, value in (("jac", jac), ("options", options)):
        with pytest.raises(TypeError, match=f"'{name}'"):
            measures.minimize(quadratic, x0, method=method, maxiter=5, **{name: value})
    if method != "L-BFGS-B":
        with pytest.raises(ValueError, match="L-BFGS-B"):
            measures.minimize(quadratic, x0, method=method, **options)
    elif set(options) != {"maxiter"}:
        with pytest.raises(TypeError, match="'maxiter'|'ftol'"):
            measures.minimize(quadratic, x0, method=method, **options)


@pytest.mark.parametrize("x0", [np.zeros(3), np.zeros((1, 1, 3)), np.zeros((0, 3)),
                                np.zeros((2, 0))], ids=["row", "3-d", "no-start", "no-variable"])
def test_minimize_refuses_starts_that_are_not_a_block(x0):
    with pytest.raises(ValueError):
        measures.minimize(quadratic, x0, method="L-BFGS-B", maxiter=5)


# Run in a fresh interpreter: imports diqkd_bounds.cli, then every command
# through cli.main, checking after each that the scipy.optimize package was
# never imported; then checks that the routine `minimize` loaded by file is
# the one the public import gives.
_NO_SCIPY_OPTIMIZE = """
import sys
from diqkd_bounds import behavior_from, cli, honest_chsh_device, make_isotropic, measures, save_state
from diqkd_bounds.fileio import save_behavior
state, behavior, out = sys.argv[1:4]
assert 'scipy.optimize' not in sys.modules, 'import'
save_state(make_isotropic(0.1), state)
save_behavior(behavior_from(*honest_chsh_device(0.1)), behavior)
commands = [["device", "--nu", "0.1"], ["simulate", "--kind", "erasure", "--p", "0.1"],
            ["localweight", "--file", behavior], ["curve", "al", "--grid", "3"],
            ["curve", "fractional", "--grid", "3"], ["curve", "hull", "--grid", "3"],
            ["curve", "channel", "--kind", "dephasing", "--grid", "3"],
            ["er", "--file", state, "--restarts", "1"]]
for argv in commands:
    assert cli.main([*argv, "--output", out]) == 0, argv
    assert 'scipy.optimize' not in sys.modules, argv
routine = measures._lbfgsb_routine()
import scipy.optimize._lbfgsb as public
assert routine.__file__ == public.__file__ and routine is public
print("ok")
"""


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    src = str(Path(diqkd_bounds.__file__).resolve().parents[1])
    paths = [str(tmp_path / name) for name in ("state.json", "behavior.json", "out.txt")]
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY_OPTIMIZE, *paths],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert run.stdout == "ok\n"


def test_er_numeric_rejects_empty_search():
    rho = make_isotropic(0.2)
    with pytest.raises(ValueError, match="^restarts must be positive, not 0$"):
        er_numeric(rho, restarts=0)
    with pytest.raises(ValueError, match="^k must be positive, not 0$"):
        er_numeric(rho, k=0)


@pytest.mark.parametrize("kwargs,error,message", [
    ({"seed": "3"}, TypeError, "seed must be an integer, not str"),
    ({"seed": 3.0}, TypeError, "seed must be an integer, not float"),
    ({"seed": -1}, ValueError, "seed must be non-negative, not -1"),
    ({"k": 1.5}, TypeError, "k must be an integer, not float"),
    ({"restarts": 2.0}, TypeError, "restarts must be an integer, not float"),
], ids=["str-seed", "float-seed", "negative-seed", "float-k", "float-restarts"])
def test_er_numeric_checks_its_integer_arguments(kwargs, error, message):
    # as intrinsic_info checks its seed: numpy would read "3" as seed 3
    with pytest.raises(error, match=f"^{message}$"):
        er_numeric(make_isotropic(0.2), **kwargs)


def test_er_numeric_takes_a_numpy_integer_seed():
    rho = make_isotropic(0.2)
    assert er_numeric(rho, restarts=1, seed=np.int64(3)) == er_numeric(rho, restarts=1, seed=3)


DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["al", "fbjl", "hull", "fractional", "pironio",
                                  "channel_dephasing", "channel_depolarizing",
                                  "channel_erasure"])
def test_committed_demo_curves_reproduce(name):
    if name.startswith("channel_"):
        curve, csv = channel_curve(name.removeprefix("channel_"), grid=21), f"{name}.csv"
    else:
        curve, csv = bound_curve(name, grid=17), f"curve_{name}.csv"
    assert (DEMOS / csv).read_bytes() == _curve_csv(curve).encode()
