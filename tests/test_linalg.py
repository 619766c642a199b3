import re

import numpy as np
import pytest

from diqkd_bounds import (
    DimensionMismatchError,
    NotHermitianError,
    partial_trace,
)
from diqkd_bounds.linalg import PSD_TOL, as_matrix, psd_spectrum
from diqkd_bounds.states import KET_PHI_PLUS, projector

I2 = np.eye(2)


def _psd_stack(rng, count, dim):
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    return g @ g.conj().swapaxes(-1, -2)


def test_psd_spectrum_matches_hermitian_eig_bitwise():
    # one batched call gives each matrix the spectrum a call on it alone gives
    rng = np.random.default_rng(19)
    for dim in (1, 2, 3, 4, 8, 17):
        stack = _psd_stack(rng, 6, dim)
        stack[1] = projector(rng.standard_normal(dim))  # rank one: round-off near 0
        w, v = psd_spectrum(stack)
        assert w.shape == (6, dim) and v.shape == (6, dim, dim)
        for m, row, vectors in zip(stack, w, v):
            expected = psd_spectrum(m)
            assert np.array_equal(row, expected.eigenvalues)
            assert np.array_equal(vectors, expected.eigenvectors)


def test_psd_spectrum_single_matrix_descending():
    w, v = psd_spectrum(np.diag([0.1, 0.6, 0.3]))
    assert w.shape == (3,)
    assert np.allclose(w, [0.6, 0.3, 0.1])
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])


def test_psd_spectrum_rejects_one_non_hermitian_matrix_in_stack():
    stack = _psd_stack(np.random.default_rng(23), 5, 3)
    stack[3, 0, 2] += 1e-6  # defect 1e-6 in one matrix only
    with pytest.raises(NotHermitianError, match=r"block \(3,\)"):
        psd_spectrum(stack, what="block")
    # the tolerance is the caller's
    assert psd_spectrum(stack, hermitian_tol=1e-5).eigenvalues.shape == (5, 3)


def test_psd_spectrum_rejects_negative_eigenvalue_in_stack():
    stack = np.stack([np.diag([0.5, 0.5]), np.diag([1.0, -2 * PSD_TOL]), np.eye(2) / 2])
    with pytest.raises(ValueError, match=rf"block \(1,\) has eigenvalue .* below -{PSD_TOL}"):
        psd_spectrum(stack, what="block")


def test_psd_spectrum_clamps_round_off_to_zero():
    stack = np.stack([np.diag([1.0, -PSD_TOL / 2]), np.diag([0.25, 0.75])])
    w = psd_spectrum(stack).eigenvalues
    assert np.array_equal(w, [[1.0, 0.0], [0.75, 0.25]])
    assert not np.signbit(w).any()


def test_psd_spectrum_floor_scales_with_parts():
    stack = np.stack([np.diag([1.0, -1.5 * PSD_TOL]), np.diag([1.0, -2.5 * PSD_TOL])])
    w = psd_spectrum(stack, [2, 3]).eigenvalues
    assert np.array_equal(w, [[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match=rf"block \(1,\) has eigenvalue .* below -{2 * PSD_TOL}"):
        psd_spectrum(stack, [2, 2], what="block")


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan])
def test_psd_spectrum_rejects_non_finite_entry(bad):
    stack = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    stack[1, 1, 0] = bad  # NaN passes every comparison of the later checks
    with pytest.raises(ValueError, match="NaN or Inf"):
        psd_spectrum(stack)


def test_psd_spectrum_rejects_non_square_stack():
    with pytest.raises(DimensionMismatchError):
        psd_spectrum(np.zeros((3, 2, 3)))
    with pytest.raises(DimensionMismatchError):
        psd_spectrum(np.zeros(4))


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
    assert np.allclose(partial_trace(np.kron(rho, sigma), [3, 2], keep=[0]), rho)
    assert np.allclose(partial_trace(np.kron(rho, sigma), [3, 2], keep=[1]), sigma)


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
    # four factors, keep given unsorted: the kept factors stay in their order
    a = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
    got = partial_trace(a, [2, 3, 2, 3], keep=[3, 1])
    manual = np.einsum("ijklimkn->jlmn", a.reshape(2, 3, 2, 3, 2, 3, 2, 3)).reshape(9, 9)
    assert np.allclose(got, manual)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(4), [2, 3], keep=[0])


@pytest.mark.parametrize("keep", [[2], [-1], [0, 5]])
def test_partial_trace_refuses_a_factor_out_of_range(keep):
    shown = sorted(set(keep))
    with pytest.raises(DimensionMismatchError,
                       match=rf"^keep={re.escape(str(shown))} out of range for 2 factors$"):
        partial_trace(np.eye(4) / 4, [2, 2], keep=keep)


@pytest.mark.parametrize("a,error,message", [
    (np.ones(3), DimensionMismatchError, "expected a matrix, got ndim=1"),
    (np.ones((2, 2, 2)), DimensionMismatchError, "expected a matrix, got ndim=3"),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), ValueError, "matrix contains NaN or Inf entries"),
    (np.array([[1.0, 0.0], [1j * np.inf, 1.0]]), ValueError, "matrix contains NaN or Inf entries"),
], ids=["vector", "stack", "nan", "imaginary-inf"])
def test_as_matrix_refuses_what_is_no_finite_matrix(a, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        as_matrix(a)
