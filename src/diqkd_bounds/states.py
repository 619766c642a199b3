"""State families, entropic functionals, purification, and qubit channels.

All entropies and relative entropies are in bits (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import DimensionMismatchError
from .linalg import Spectrum, as_matrix, partial_trace, psd_spectrum

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
KET_PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2)

STATE_TOL = 1e-9
SUPPORT_CUTOFF = 1e-12  # eigenvalues below this count as outside the support


def _factor_dims(dims) -> tuple[int, ...]:
    """``dims`` as a tuple of ints, each at least 1."""
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionMismatchError(f"tensor factor dimensions {dims} must be at least 1")
    return dims


def projector(ket: np.ndarray) -> np.ndarray:
    v = np.asarray(ket, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix on a tensor-factored space."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    # the check's read-only psd_spectrum, for every later entropy and purification
    spectrum: Spectrum = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        dims = _factor_dims(self.dims)
        total = int(np.prod(dims))
        if m.shape != (total, total):
            raise DimensionMismatchError(f"matrix is {m.shape}, dims {dims} imply {total}")
        spectrum = psd_spectrum(m, what="density matrix")
        if abs(np.trace(m).real - 1.0) > STATE_TOL or abs(np.trace(m).imag) > STATE_TOL:
            raise ValueError(f"trace {np.trace(m):.6g} differs from 1 beyond {STATE_TOL}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def marginal(self, keep) -> "DensityMatrix":
        """Partial trace onto the factors listed in ``keep``."""
        keep = sorted(set(int(k) for k in keep))
        reduced = partial_trace(self.matrix, self.dims, keep)
        return DensityMatrix(reduced, tuple(self.dims[k] for k in keep))


@dataclass(frozen=True, eq=False)
class PureState:
    """State vector on a tensor-factored space, unit norm within 1e-10."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        dims = _factor_dims(self.dims)
        if v.size != int(np.prod(dims)):
            raise DimensionMismatchError(f"vector of length {v.size}, dims {dims}")
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValueError("state vector is not normalized within 1e-10")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)
        object.__setattr__(self, "dims", dims)


ChannelKind = Literal["dephasing", "depolarizing", "erasure"]


@dataclass(frozen=True)
class QubitChannel:
    """One of the three qubit noise models, with noise parameter in [0, 1].

    The erasure parameter is the erasure *probability*: with probability
    ``noise`` the input qubit is replaced by the flag state ``|e>`` living in
    a third output dimension.
    """

    kind: ChannelKind
    noise: float

    def __post_init__(self):
        if self.kind not in ("dephasing", "depolarizing", "erasure"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError(f"noise {self.noise} outside [0, 1]")

    def kraus_operators(self) -> list[np.ndarray]:
        p = float(self.noise)
        if self.kind == "dephasing":
            return [math.sqrt(1 - p) * PAULI_I, math.sqrt(p) * PAULI_Z]
        if self.kind == "depolarizing":
            return [
                math.sqrt(1 - 3 * p / 4) * PAULI_I,
                math.sqrt(p / 4) * PAULI_X,
                math.sqrt(p / 4) * PAULI_Y,
                math.sqrt(p / 4) * PAULI_Z,
            ]
        # erasure: 2 -> 3, third basis vector is the erasure flag
        keep = np.zeros((3, 2), dtype=complex)
        keep[0, 0] = keep[1, 1] = 1.0
        e0 = np.zeros((3, 2), dtype=complex)
        e0[2, 0] = 1.0
        e1 = np.zeros((3, 2), dtype=complex)
        e1[2, 1] = 1.0
        return [math.sqrt(1 - p) * keep, math.sqrt(p) * e0, math.sqrt(p) * e1]

    @property
    def output_dim(self) -> int:
        return 3 if self.kind == "erasure" else 2


def make_isotropic(nu: float) -> DensityMatrix:
    """Isotropic two-qubit state (1-nu)|Phi+><Phi+| + (nu/4) I."""
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu={nu} outside [0, 1]")
    m = (1.0 - nu) * projector(KET_PHI_PLUS) + (nu / 4.0) * np.eye(4)
    return DensityMatrix(m, (2, 2))


def make_bell_diagonal(w_plus: float, w_minus: float) -> DensityMatrix:
    """Mixture of the Phi+ and Phi- Bell states with the given weights."""
    if w_plus < -1e-12 or w_minus < -1e-12 or abs(w_plus + w_minus - 1.0) > 1e-12:
        raise ValueError(f"weights ({w_plus}, {w_minus}) must be nonnegative and sum to 1")
    w_plus, w_minus = max(w_plus, 0.0), max(w_minus, 0.0)
    m = w_plus * projector(KET_PHI_PLUS) + w_minus * projector(KET_PHI_MINUS)
    return DensityMatrix(m, (2, 2))


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), zero at the endpoints."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument {x} outside [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def entropy_of_eigenvalues(w: np.ndarray) -> float:
    w = np.asarray(w, dtype=float)
    w = w[w > SUPPORT_CUTOFF]
    if w.size == 0:
        return 0.0
    return float(-np.dot(w, np.log2(w)))


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """S(rho) = -tr rho log2 rho in bits.

    Eigenvalue round-off down to -1e-9 is clamped to zero (the input is
    declared PSD); anything more negative raises.
    """
    spec = rho.spectrum if isinstance(rho, DensityMatrix) else psd_spectrum(as_matrix(rho))
    return entropy_of_eigenvalues(spec.eigenvalues)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """D(rho || sigma) in bits; ``inf`` when supp(rho) is not inside supp(sigma).

    The support test uses the 1e-12 eigenvalue cutoff: any weight of ``rho``
    beyond that on an eigenvector of ``sigma`` with eigenvalue below the
    cutoff yields ``+inf``.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} vs {sigma.dim}")
    w_s, v_s = sigma.spectrum
    # weight of rho on each eigenvector of sigma
    overlap = np.real(np.einsum("ij,jk,ki->i", v_s.conj().T, rho.matrix, v_s))
    overlap = np.clip(overlap, 0.0, None)
    outside = w_s <= SUPPORT_CUTOFF
    if np.any(overlap[outside] > 1e-10):
        return math.inf
    inside = ~outside
    cross = -float(np.dot(overlap[inside], np.log2(w_s[inside])))
    return -entropy_of_eigenvalues(rho.spectrum.eigenvalues) + cross


def purify(rho: DensityMatrix) -> PureState:
    """Rank-minimal purification sum_i sqrt(l_i) |v_i>|i>.

    The purifying factor is appended as the last tensor factor; its dimension
    equals the numerical rank of ``rho`` (eigenvalues above 1e-12).
    """
    w, v = rho.spectrum
    support = w > SUPPORT_CUTOFF
    w, v = w[support], v[:, support]
    rank = int(w.size)
    amp = (v * np.sqrt(w)).reshape(-1)  # amp[m*rank + i] = sqrt(w_i) v[m, i]
    amp = amp / np.linalg.norm(amp)
    return PureState(amp, rho.dims + (rank,))


def choi_state(ch: QubitChannel) -> DensityMatrix:
    """Channel acting on the B half of the two-qubit Phi+ state."""
    return apply_channel(ch, DensityMatrix(projector(KET_PHI_PLUS), (2, 2)))


def apply_channel(ch: QubitChannel, rho: DensityMatrix) -> DensityMatrix:
    """Kraus-sum action of ``ch`` on the last tensor factor of ``rho``.

    That factor must be a qubit; for the erasure channel its output
    dimension becomes 3.  On Phi+ this gives the channel's Choi state.
    """
    *rest, last = rho.dims
    if last != 2:
        raise DimensionMismatchError(f"last factor has dimension {last}, need a qubit")
    left = np.eye(int(np.prod(rest)))
    out = None
    for k in ch.kraus_operators():
        big = np.kron(left, k)
        term = big @ rho.matrix @ big.conj().T
        out = term if out is None else out + term
    return DensityMatrix(out, (*rest, ch.output_dim))
