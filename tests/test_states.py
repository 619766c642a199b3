import functools
import math

import numpy as np
import pytest

from diqkd_bounds import (
    DensityMatrix,
    DimensionMismatchError,
    PureState,
    QubitChannel,
    apply_channel,
    binary_entropy,
    choi_state,
    make_bell_diagonal,
    make_isotropic,
    partial_trace,
    purify,
    relative_entropy,
    von_neumann_entropy,
)
from diqkd_bounds.states import (
    KET_PHI_PLUS,
    PAULI_X,
    PAULI_Z,
    projector,
)
from util import random_density


def test_isotropic_endpoints():
    assert np.allclose(make_isotropic(0.0).matrix, projector(KET_PHI_PLUS))
    assert np.allclose(make_isotropic(1.0).matrix, np.eye(4) / 4)


@pytest.mark.parametrize("dims", [(-2, -2), (-1, -4), (2, -1, -2)])
def test_states_reject_nonpositive_dims(dims):
    # prod(dims) matches the data, so only the factor check can catch these
    with pytest.raises(DimensionMismatchError, match="at least 1"):
        DensityMatrix(np.eye(4) / 4, dims)
    with pytest.raises(DimensionMismatchError, match="at least 1"):
        PureState(np.full(4, 0.5), dims)


@pytest.mark.parametrize("call,error,message", [
    (lambda: DensityMatrix(np.eye(3) / 3, (2, 2)), DimensionMismatchError,
     r"matrix is \(3, 3\), dims \(2, 2\) imply 4"),
    (lambda: DensityMatrix(np.eye(4) / 2, (2, 2)), ValueError,
     r"trace 2\+0j differs from 1 beyond 1e-09"),
    (lambda: PureState(np.full(3, 3 ** -0.5), (2, 2)), DimensionMismatchError,
     r"vector of length 3, dims \(2, 2\)"),
    (lambda: PureState(np.ones(4), (2, 2)), ValueError,
     "state vector is not normalized within 1e-10"),
    (lambda: QubitChannel("amplitude", 0.1), ValueError, "unknown channel kind 'amplitude'"),
    (lambda: QubitChannel("erasure", 1.5), ValueError, r"noise 1.5 outside \[0, 1\]"),
    (lambda: relative_entropy(make_isotropic(0.1), DensityMatrix(np.eye(2) / 2, (2,))),
     DimensionMismatchError, "dims 4 vs 2"),
], ids=["density-shape", "density-trace", "pure-length", "pure-norm", "channel-kind",
        "channel-noise", "relative-entropy-dims"])
def test_states_refuse_inconsistent_data(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_isotropic_half_eigenvalues():
    w = np.sort(np.linalg.eigvalsh(make_isotropic(0.5).matrix))[::-1]
    assert np.allclose(w, [0.625, 0.125, 0.125, 0.125])


def test_isotropic_out_of_range():
    with pytest.raises(ValueError):
        make_isotropic(1.5)


def test_bell_diagonal_pure_and_balanced():
    assert np.allclose(make_bell_diagonal(1.0, 0.0).matrix, projector(KET_PHI_PLUS))
    balanced = make_bell_diagonal(0.5, 0.5).matrix
    assert np.allclose(balanced, np.diag([0.5, 0.0, 0.0, 0.5]))


def test_bell_diagonal_correlators():
    rho = make_bell_diagonal(0.9, 0.1).matrix
    zz = float(np.trace(np.kron(PAULI_Z, PAULI_Z) @ rho).real)
    xx = float(np.trace(np.kron(PAULI_X, PAULI_X) @ rho).real)
    assert abs(zz - 1.0) < 1e-12
    assert abs(xx - 0.8) < 1e-12


def test_bell_diagonal_bad_weights():
    with pytest.raises(ValueError):
        make_bell_diagonal(0.7, 0.4)


def test_entropy_maximally_mixed_and_pure():
    assert abs(von_neumann_entropy(make_isotropic(1.0)) - 2.0) < 1e-12
    assert abs(von_neumann_entropy(make_isotropic(0.0))) < 1e-10


def test_entropy_diagonal_qubit():
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex), (2,))
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert abs(von_neumann_entropy(rho) - expected) < 1e-12


def test_entropy_additive_on_products():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = random_density(rng, (2,))
        b = random_density(rng, (3,))
        prod = DensityMatrix(np.kron(a.matrix, b.matrix), (2, 3))
        assert abs(von_neumann_entropy(prod)
                   - von_neumann_entropy(a) - von_neumann_entropy(b)) < 1e-9


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    direct = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert abs(binary_entropy(0.25) - direct) < 1e-15
    x = 3 * 0.2 / 4
    direct = -(x * math.log2(x) + (1 - x) * math.log2(1 - x))
    assert abs(binary_entropy(x) - direct) < 1e-15
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_relative_entropy_self_is_zero():
    rng = np.random.default_rng(29)
    rho = random_density(rng, (2, 2))
    assert abs(relative_entropy(rho, rho)) < 1e-10


def test_relative_entropy_bell_vs_mixed():
    phi = DensityMatrix(projector(KET_PHI_PLUS), (2, 2))
    assert abs(relative_entropy(phi, make_isotropic(1.0)) - 2.0) < 1e-10


def test_relative_entropy_disjoint_support():
    zero = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
    one = DensityMatrix(np.diag([0.0, 1.0]).astype(complex), (2,))
    assert relative_entropy(zero, one) == math.inf


def test_relative_entropy_joint_convexity_spot():
    rng = np.random.default_rng(31)
    for _ in range(5):
        r1, r2 = random_density(rng, (2, 2)), random_density(rng, (2, 2))
        s1, s2 = random_density(rng, (2, 2)), random_density(rng, (2, 2))
        mix_r = DensityMatrix((r1.matrix + r2.matrix) / 2, (2, 2))
        mix_s = DensityMatrix((s1.matrix + s2.matrix) / 2, (2, 2))
        lhs = relative_entropy(mix_r, mix_s)
        rhs = (relative_entropy(r1, s1) + relative_entropy(r2, s2)) / 2
        assert lhs <= rhs + 1e-9


def test_purify_pure_state_trivial_purifier():
    phi = DensityMatrix(projector(KET_PHI_PLUS), (2, 2))
    psi = purify(phi)
    assert psi.dims == (2, 2, 1)
    assert np.allclose(projector(psi.amplitudes), phi.matrix)


def test_purify_maximally_mixed_qubit():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2, (2,))
    psi = purify(rho)
    assert psi.dims == (2, 2)
    marg = partial_trace(projector(psi.amplitudes), [2, 2], keep=[0])
    assert np.allclose(marg, rho.matrix, atol=1e-12)
    # maximally entangled: purifier marginal also maximally mixed
    marg_e = partial_trace(projector(psi.amplitudes), [2, 2], keep=[1])
    assert np.allclose(marg_e, np.eye(2) / 2, atol=1e-12)


def test_purify_rank_two_state():
    rho = make_bell_diagonal(0.9, 0.1)
    psi = purify(rho)
    assert psi.dims == (2, 2, 2)
    marg = partial_trace(projector(psi.amplitudes), [2, 2, 2], keep=[0, 1])
    assert np.linalg.norm(marg - rho.matrix) < 1e-9


@pytest.mark.parametrize("maker", [
    lambda: make_isotropic(0.3),
    lambda: make_bell_diagonal(0.7, 0.3),
    lambda: choi_state(QubitChannel("erasure", 0.25)),
])
def test_purify_round_trip(maker):
    rho = maker()
    psi = purify(rho)
    n = len(rho.dims)
    marg = partial_trace(projector(psi.amplitudes), list(psi.dims), keep=list(range(n)))
    assert np.linalg.norm(marg - rho.matrix) < 1e-9


def test_choi_dephasing_noiseless():
    assert np.allclose(choi_state(QubitChannel("dephasing", 0.0)).matrix,
                       projector(KET_PHI_PLUS))


def test_choi_depolarizing_full_noise():
    assert np.allclose(choi_state(QubitChannel("depolarizing", 1.0)).matrix,
                       np.eye(4) / 4)


def test_choi_depolarizing_is_isotropic():
    p = 0.37
    assert np.allclose(choi_state(QubitChannel("depolarizing", p)).matrix,
                       make_isotropic(p).matrix)


def test_choi_erasure_block_weight():
    choi = choi_state(QubitChannel("erasure", 0.4))
    assert choi.dims == (2, 3)
    # weight sitting on the erasure flag column of Bob's qutrit
    flag = 0.0
    m = choi.matrix.reshape(2, 3, 2, 3)
    for i in range(2):
        flag += m[i, 2, i, 2].real
    assert abs(flag - 0.4) < 1e-12


def test_apply_channel_matches_choi_definition():
    phi = DensityMatrix(projector(KET_PHI_PLUS), (2, 2))
    for kind in ("dephasing", "depolarizing", "erasure"):
        ch = QubitChannel(kind, 0.3)
        assert np.allclose(apply_channel(ch, phi).matrix, choi_state(ch).matrix)


def test_apply_channel_depolarizing_fully():
    rng = np.random.default_rng(37)
    rho = random_density(rng, (2, 2))
    out = apply_channel(QubitChannel("depolarizing", 1.0), rho)
    expected = np.kron(rho.marginal([0]).matrix, np.eye(2) / 2)
    assert np.allclose(out.matrix, expected)


def test_apply_channel_erasure_fully():
    phi = DensityMatrix(projector(KET_PHI_PLUS), (2, 2))
    out = apply_channel(QubitChannel("erasure", 1.0), phi)
    flag = np.zeros((3, 3))
    flag[2, 2] = 1.0
    assert np.allclose(out.matrix, np.kron(np.eye(2) / 2, flag))


@pytest.mark.parametrize("kind", ["dephasing", "depolarizing", "erasure"])
def test_apply_channel_preserves_state_invariants(kind):
    rng = np.random.default_rng(41)
    for _ in range(1000):
        rho = random_density(rng, (2, 2))
        out = apply_channel(QubitChannel(kind, float(rng.uniform())), rho)
        # DensityMatrix construction validates Hermiticity, positivity, trace
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-10


@pytest.mark.parametrize("kind", ["dephasing", "depolarizing", "erasure"])
def test_apply_channel_acts_on_the_last_of_three_factors(kind):
    rng = np.random.default_rng(43)
    factors = [random_density(rng, (d,)) for d in (2, 3, 2)]
    rho = DensityMatrix(functools.reduce(np.kron, (f.matrix for f in factors)), (2, 3, 2))
    ch = QubitChannel(kind, 0.3)
    out = apply_channel(ch, rho)
    last = sum(k @ factors[2].matrix @ k.conj().T for k in ch.kraus_operators())
    assert out.dims == (2, 3, ch.output_dim)
    expected = functools.reduce(np.kron, (factors[0].matrix, factors[1].matrix, last))
    assert np.max(np.abs(out.matrix - expected)) < 1e-14


def test_apply_channel_needs_qubit_factor():
    from diqkd_bounds import DimensionMismatchError
    choi = choi_state(QubitChannel("erasure", 0.5))
    with pytest.raises(DimensionMismatchError):
        apply_channel(QubitChannel("dephasing", 0.1), choi)
