"""Dense complex matrix helpers used by every state and entropy routine.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries.
Everything here is a pure function; nothing mutates its arguments.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, NoConvergenceError, NotHermitianError

HERMITICITY_TOL = 1e-9
PSD_TOL = 1e-9  # eigenvalues in [-PSD_TOL, 0) are round-off of a PSD matrix


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a stack.

    ``eigenvalues`` are real and sorted descending; the columns of
    ``eigenvectors`` are the matching orthonormal eigenvectors, so
    ``V @ diag(w) @ V.conj().T`` reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def kron(*factors) -> np.ndarray:
    """Tensor (Kronecker) product of one or more matrices.

    Entry ``(i1*rb + i2, j1*cb + j2)`` of ``kron(a, b)`` equals
    ``a[i1, j1] * b[i2, j2]``.
    """
    if not factors:
        raise ValueError("kron needs at least one factor")
    out = as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, as_matrix(f))
    return out


def _first(what: str, bad: np.ndarray) -> str:
    """``what`` and, for a stack, the index of its first matrix flagged in ``bad``."""
    index = tuple(np.argwhere(bad)[0].tolist())
    return f"{what} {index}" if index else what


def _hermitian_part(a, tol: float = HERMITICITY_TOL, what: str = "matrix") -> np.ndarray:
    """(a + a^dag) / 2 of one matrix or of each matrix in a stack (..., n, n).

    Raises ValueError on NaN or Inf entries, `DimensionMismatchError` when the
    matrices are not square, and `NotHermitianError` when the Frobenius norm
    of a - a^dag exceeds ``tol`` for any of them.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(f"{what} is {m.shape}, not square")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} contains NaN or Inf entries")
    adjoint = m.swapaxes(-1, -2).conj()
    defect = np.linalg.norm(m - adjoint, axis=(-2, -1))
    bad = defect > tol
    if np.any(bad):
        raise NotHermitianError(f"{_first(what, bad)} has Hermiticity defect "
                                f"{defect[bad][0]:.3e} beyond {tol}")
    return (m + adjoint) / 2.0


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK safeguard
        raise NoConvergenceError(str(exc)) from exc


def hermitian_eig(a) -> Spectrum:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Raises
    ------
    DimensionMismatchError
        If ``a`` is not a square matrix (`as_matrix`, `_hermitian_part`).
    NotHermitianError
        If the Hermiticity defect exceeds 1e-9 (Frobenius).
    NoConvergenceError
        If the underlying LAPACK iteration fails to converge.
    """
    w, v = _eigh(_hermitian_part(as_matrix(a)))
    return Spectrum(w[::-1].copy(), v[:, ::-1].copy())


def psd_spectrum(a, parts=1, hermitian_tol: float = HERMITICITY_TOL,
                 what: str = "matrix") -> Spectrum:
    """Descending spectrum of one PSD matrix, or of each matrix in a stack.

    The input is checked by `_hermitian_part` within ``hermitian_tol``.  Each
    matrix is a sum of ``parts`` PSD matrices (one count, or one per matrix):
    by Weyl's inequality its eigenvalues reach -``parts`` `PSD_TOL`, which is
    read as 0, and anything lower raises ValueError.  Values and vectors are
    those of `hermitian_eig` (``eigvalsh`` rounds differently in the last
    bits).  Both arrays are read-only, so a validated object can keep them.
    """
    w, v = _eigh(_hermitian_part(a, hermitian_tol, what))
    w = w[..., ::-1]
    least = w[..., -1]
    floor = np.broadcast_to(PSD_TOL * np.asarray(parts), least.shape)
    low = least < -floor
    if np.any(low):
        raise ValueError(f"{_first(what, low)} has eigenvalue {least[low][0]:.3e} "
                         f"below -{float(floor[low][0])}: not PSD")
    spectrum = Spectrum(np.where(w < 0.0, 0.0, w), v[..., ::-1].copy())
    for array in spectrum:
        array.flags.writeable = False
    return spectrum


def partial_trace(a, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out the tensor factors of ``a`` that are not listed in ``keep``.

    Parameters
    ----------
    a : array_like
        Square matrix on the tensor product of the factors in ``dims``.
    dims : sequence of int
        Dimension of each tensor factor, in order.
    keep : sequence of int
        Indices of the factors to retain (original order is preserved).

    Returns
    -------
    numpy.ndarray
        Matrix of dimension ``prod(dims[k] for k in keep)``; a 1x1 matrix
        holding the full trace when ``keep`` is empty.
    """
    m = as_matrix(a)
    dims = tuple(int(d) for d in dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimensionMismatchError(f"keep={keep} out of range for {len(dims)} factors")
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise DimensionMismatchError(f"matrix is {m.shape}, dims imply {total}x{total}")
    if not keep:
        return np.array([[np.trace(m)]], dtype=complex)
    # row factor f has label f; column factor f has n + f if kept, else f again (traced)
    n = len(dims)
    columns = [n + f if f in keep else f for f in range(n)]
    reduced = np.einsum(m.reshape(dims + dims), [*range(n), *columns],
                        [*keep, *(n + f for f in keep)])
    kept = int(np.prod([dims[k] for k in keep]))
    return reduced.reshape(kept, kept)
