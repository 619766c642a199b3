import numpy as np
import pytest

from diqkd_bounds import (
    DimensionMismatchError,
    NotHermitianError,
    hermitian_eig,
    kron,
    partial_trace,
)
from diqkd_bounds.linalg import PSD_TOL, psd_eigenvalues
from diqkd_bounds.states import KET_PHI_PLUS, PAULI_X, PAULI_Z, projector

I2 = np.eye(2)


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_diagonal_product():
    assert np.allclose(kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]))


def test_kron_flips_00_to_11():
    ket00 = np.zeros(4)
    ket00[0] = 1.0
    ket11 = np.zeros(4)
    ket11[3] = 1.0
    assert np.allclose(kron(PAULI_X, PAULI_X) @ ket00, ket11)


def test_kron_entry_formula():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    k = kron(a, b)
    assert k.shape == (8, 6)
    for i1 in range(2):
        for j1 in range(3):
            for i2 in range(4):
                for j2 in range(2):
                    got = k[i1 * 4 + i2, j1 * 2 + j2]
                    assert abs(got - a[i1, j1] * b[i2, j2]) < 1e-15


def test_kron_associativity_exact_on_exact_inputs():
    # integer entries keep every float product exact, so equality is bitwise
    rng = np.random.default_rng(7)
    mats = [rng.integers(-8, 8, size=(2, 2)) + 1j * rng.integers(-8, 8, size=(2, 2))
            for _ in range(3)]
    left = kron(kron(mats[0], mats[1]), mats[2])
    right = kron(mats[0], kron(mats[1], mats[2]))
    assert np.array_equal(left, right)


def test_kron_associativity_random():
    rng = np.random.default_rng(8)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    left = kron(kron(mats[0], mats[1]), mats[2])
    right = kron(mats[0], kron(mats[1], mats[2]))
    assert np.allclose(left, right, rtol=1e-15, atol=1e-15)


def test_eig_sigma_z():
    spec = hermitian_eig(PAULI_Z)
    assert np.allclose(spec.eigenvalues, [1.0, -1.0])


def test_eig_maximally_mixed():
    spec = hermitian_eig(np.eye(4) / 4)
    assert np.allclose(spec.eigenvalues, [0.25] * 4)


def test_eig_sigma_x_eigenvectors():
    spec = hermitian_eig(PAULI_X)
    assert np.allclose(spec.eigenvalues, [1.0, -1.0])
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    # columns match up to a global phase
    assert abs(abs(np.vdot(plus, spec.eigenvectors[:, 0])) - 1.0) < 1e-12
    assert abs(abs(np.vdot(minus, spec.eigenvectors[:, 1])) - 1.0) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 12])
def test_eig_reconstruction_random(dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2
        h *= 3.0 / max(np.linalg.norm(h), 1.0)  # keep norm below 10
        spec = hermitian_eig(h)
        v, w = spec.eigenvectors, spec.eigenvalues
        assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - h) < 1e-10
        assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) < 1e-10
        assert np.all(np.diff(w) <= 1e-14)  # descending


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        hermitian_eig(np.zeros((2, 3)))


def _psd_stack(rng, count, dim):
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    return g @ g.conj().swapaxes(-1, -2)


def test_psd_eigenvalues_match_hermitian_eig_bitwise():
    # one batched call gives each matrix the values hermitian_eig gives it alone
    rng = np.random.default_rng(19)
    for dim in (1, 2, 3, 4, 8, 17):
        stack = _psd_stack(rng, 6, dim)
        stack[1] = projector(rng.standard_normal(dim))  # rank one: round-off near 0
        w = psd_eigenvalues(stack)
        assert w.shape == (6, dim)
        for m, row in zip(stack, w):
            expected = hermitian_eig(m).eigenvalues
            assert np.array_equal(row, np.where(expected < 0.0, 0.0, expected))


def test_psd_eigenvalues_single_matrix_descending():
    w = psd_eigenvalues(np.diag([0.1, 0.6, 0.3]))
    assert w.shape == (3,)
    assert np.allclose(w, [0.6, 0.3, 0.1])


def test_psd_eigenvalues_rejects_one_non_hermitian_matrix_in_stack():
    stack = _psd_stack(np.random.default_rng(23), 5, 3)
    stack[3, 0, 2] += 1e-6  # defect 1e-6 in one matrix only
    with pytest.raises(NotHermitianError, match=r"block \(3,\)"):
        psd_eigenvalues(stack, what="block")
    # the tolerance is the caller's
    assert psd_eigenvalues(stack, hermitian_tol=1e-5).shape == (5, 3)


def test_psd_eigenvalues_rejects_negative_eigenvalue_in_stack():
    stack = np.stack([np.diag([0.5, 0.5]), np.diag([1.0, -2 * PSD_TOL]), np.eye(2) / 2])
    with pytest.raises(ValueError, match=rf"block \(1,\) has eigenvalue .* below -{PSD_TOL}"):
        psd_eigenvalues(stack, what="block")


def test_psd_eigenvalues_clamps_round_off_to_zero():
    stack = np.stack([np.diag([1.0, -PSD_TOL / 2]), np.diag([0.25, 0.75])])
    w = psd_eigenvalues(stack)
    assert np.array_equal(w, [[1.0, 0.0], [0.75, 0.25]])
    assert not np.signbit(w).any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan])
def test_psd_eigenvalues_rejects_non_finite_entry(bad):
    stack = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    stack[1, 1, 0] = bad  # NaN passes every comparison of the later checks
    with pytest.raises(ValueError, match="NaN or Inf"):
        psd_eigenvalues(stack)


def test_psd_eigenvalues_rejects_non_square_stack():
    with pytest.raises(DimensionMismatchError):
        psd_eigenvalues(np.zeros((3, 2, 3)))
    with pytest.raises(DimensionMismatchError):
        psd_eigenvalues(np.zeros(4))


def test_partial_trace_bell_marginal():
    phi = projector(KET_PHI_PLUS)
    assert np.allclose(partial_trace(phi, [2, 2], keep=[0]), I2 / 2)
    assert np.allclose(partial_trace(phi, [2, 2], keep=[1]), I2 / 2)


def test_partial_trace_product_state():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    g2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    sigma = g2 @ g2.conj().T
    sigma /= np.trace(sigma)
    assert np.allclose(partial_trace(kron(rho, sigma), [3, 2], keep=[0]), rho)
    assert np.allclose(partial_trace(kron(rho, sigma), [3, 2], keep=[1]), sigma)


def test_partial_trace_everything():
    phi = projector(KET_PHI_PLUS)
    out = partial_trace(phi, [2, 2], keep=[])
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - 1.0) < 1e-14


def test_partial_trace_preserves_trace_and_is_linear():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for keep in ([0], [1], [2], [0, 2], [1, 2]):
        pa = partial_trace(a, [2, 2, 2], keep)
        assert abs(np.trace(pa) - np.trace(a)) < 1e-12
        mix = partial_trace(0.3 * a + 1.7j * b, [2, 2, 2], keep)
        assert np.allclose(mix, 0.3 * pa + 1.7j * partial_trace(b, [2, 2, 2], keep),
                           atol=1e-14)


def test_partial_trace_middle_factor_matches_manual_sum():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    dims = [2, 3, 2]
    got = partial_trace(a, dims, keep=[0, 2])
    t = a.reshape(2, 3, 2, 2, 3, 2)
    manual = np.einsum("ijkljm->ikl m".replace(" ", ""), t).reshape(4, 4)
    assert np.allclose(got, manual)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(4), [2, 3], keep=[0])
