"""Two-party devices: behaviors, the honest CHSH device, and ccq assembly.

A device is a bipartite state together with a family of local POVMs.  The
honest CHSH device has three inputs on Alice's side and two on Bob's, binary
outcomes, and generates its key from the input pair (0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BadSettingError, DimensionMismatchError
from .linalg import Spectrum, psd_spectrum
from .states import (
    DensityMatrix,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    make_isotropic,
    projector,
    purify,
)

POVM_TOL = 1e-9
EVE_HERMITICITY_TOL = 1e-8  # per ccq Eve operator, Frobenius norm of A - A^dag
NEGATIVE_CLAMP = 1e-12

#: Eve post-processing: anything mapping a (subnormalized) operator to another
#: operator of the same trace.  Built with `kraus_map` / `povm_map` or custom.
EveMap = Callable[[np.ndarray], np.ndarray]


def observable_povm(observable: np.ndarray) -> np.ndarray:
    """Projective POVM of a +-1-valued qubit observable, as a (2, d, d) stack.

    Outcome 0 is the +1 eigenspace projector, outcome 1 the -1 eigenspace.
    """
    obs = np.asarray(observable, dtype=complex)
    eye = np.eye(obs.shape[0])
    return np.stack([(eye + obs) / 2.0, (eye - obs) / 2.0])


def mixed_key_povm(q: float) -> np.ndarray:
    """Z measurement mixed with a sigma_x measurement with weight 2q."""
    return (1.0 - 2.0 * q) * observable_povm(PAULI_Z) + 2.0 * q * observable_povm(PAULI_X)


def noisy_key_povm(p_err: float) -> np.ndarray:
    """Z measurement replaced by a uniformly random bit with probability 2*p_err."""
    return (1.0 - 2.0 * p_err) * observable_povm(PAULI_Z) + 2.0 * p_err * PAULI_I / 2.0


def _probabilities(p, what: str, axis=None) -> np.ndarray:
    """``p`` as a float array, checked to be a probability table.

    Entries must be finite and at least -1e-12 (kept as given), and sum to 1
    within 1e-9 over ``axis`` (every entry by default).
    """
    t = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{what} contains NaN or Inf entries: not a probability distribution")
    off = np.max(np.abs(t.sum(axis=axis) - 1.0))
    if t.min() < -NEGATIVE_CLAMP or off > 1e-9:
        raise ValueError(f"{what} is not a probability distribution: least entry {t.min():.3e}"
                         f" (-{NEGATIVE_CLAMP} allowed), sum off 1 by {off:.3e} (1e-9 allowed)")
    return t


def _povm_stack(povms, party: str) -> np.ndarray:
    """``povms[x][a]`` as a read-only complex stack [input, outcome, i, j], checked as POVMs."""
    counts = [len(povm) for povm in povms]
    if not counts:
        raise ValueError(f"{party}: needs at least one input")
    if len(set(counts)) > 1 or counts[0] == 0:
        raise DimensionMismatchError(f"{party}: inputs have {counts} outcomes, "
                                     "not one positive count for all")
    shapes = sorted({np.shape(e) for povm in povms for e in povm})
    if len(shapes) > 1 or len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1]:
        raise DimensionMismatchError(f"{party}: elements are {shapes}, not square of one size")
    stack = np.array(povms, dtype=complex)
    psd_spectrum(stack, what=f"{party}: POVM element")
    off = np.linalg.norm(stack.sum(axis=1) - np.eye(shapes[0][0]), axis=(-2, -1)) > POVM_TOL
    if np.any(off):
        raise ValueError(f"{party} input {np.argmax(off)}: POVM elements do not sum to identity")
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True, eq=False)
class MeasurementFamily:
    """Each party's POVMs as one stack indexed [input, outcome, i, j].

    ``alice[x, a]`` is the element for outcome ``a`` of input ``x``; likewise
    ``bob[y, b]``.  Any nesting of that shape is accepted and stored as a
    read-only complex array.  All inputs of a party must have the same,
    positive number of outcomes, and every POVM is validated (PSD,
    completeness) within 1e-9.
    """

    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self):
        for party in ("alice", "bob"):
            object.__setattr__(self, party, _povm_stack(getattr(self, party), party))


@dataclass(frozen=True, eq=False)
class Behavior:
    """Conditional distribution table p[x][y][a][b] with no-signaling checks.

    Raw probabilities are stored as produced; round-off below 1e-12 is only
    clamped when reading through `slice_xy`.
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 4:
            raise DimensionMismatchError("behavior table must be indexed [x][y][a][b]")
        t = _probabilities(t, "behavior slice p(a, b | x, y)", axis=(2, 3))
        # no-signaling: Alice's marginal independent of y, and symmetrically
        a_marg = t.sum(axis=3)
        if np.max(np.abs(a_marg - a_marg[:, :1, :])) > 1e-9:
            raise ValueError("Alice marginal depends on y beyond 1e-9")
        b_marg = t.sum(axis=2)
        if np.max(np.abs(b_marg - b_marg[:1, :, :])) > 1e-9:
            raise ValueError("Bob marginal depends on x beyond 1e-9")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.table.shape

    def slice_xy(self, x: int, y: int) -> np.ndarray:
        """Outcome distribution p(a, b | x, y), clamped to be nonnegative."""
        x_count, y_count = self.table.shape[:2]
        if not (0 <= x < x_count and 0 <= y < y_count):
            raise BadSettingError(f"setting ({x}, {y}) outside {x_count}x{y_count}")
        return np.clip(self.table[x, y], 0.0, None)


@dataclass(frozen=True, eq=False)
class CcqState:
    """Classical-classical-quantum state over (A, B, Eve).

    ``eve_ops[a, b]`` is the subnormalized PSD operator Eve holds alongside
    the outcome pair; its trace is p(a, b).
    """

    eve_ops: np.ndarray  # shape (nA, nB, dE, dE)
    spectrum: Spectrum = field(init=False, repr=False)  # the check's, per [a, b]

    def __post_init__(self):
        ops = np.asarray(self.eve_ops, dtype=complex)
        if ops.ndim != 4 or ops.shape[2] != ops.shape[3]:
            raise DimensionMismatchError("eve_ops must have shape (nA, nB, dE, dE)")
        traces = np.einsum("abkk->ab", ops).real
        if abs(traces.sum() - 1.0) > 1e-9:
            raise ValueError(f"Eve operator traces sum to {traces.sum():.9f}, not 1")
        spectrum = psd_spectrum(ops, 1, EVE_HERMITICITY_TOL, "Eve operator")
        ops = ops.copy()
        ops.flags.writeable = False
        object.__setattr__(self, "eve_ops", ops)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def joint(self) -> np.ndarray:
        """p(a, b) from the Eve operator traces, clamped to nonnegative."""
        return np.clip(np.einsum("abkk->ab", self.eve_ops).real, 0.0, None)

    @property
    def eve_dim(self) -> int:
        return self.eve_ops.shape[2]


def kraus_map(kraus: Sequence[np.ndarray]) -> EveMap:
    """Eve channel given by Kraus operators (rho -> sum K rho K^dag)."""
    ks = [np.asarray(k, dtype=complex) for k in kraus]

    def apply(op: np.ndarray) -> np.ndarray:
        return sum(k @ op @ k.conj().T for k in ks)

    return apply


def povm_map(elements: Sequence[np.ndarray]) -> EveMap:
    """Eve measurement: the operator collapses to classical outcome weights."""
    els = [np.asarray(e, dtype=complex) for e in elements]

    def apply(op: np.ndarray) -> np.ndarray:
        probs = [float(np.trace(e @ op).real) for e in els]
        return np.diag(np.clip(probs, 0.0, None)).astype(complex)

    return apply


def behavior_from(state: DensityMatrix, m: MeasurementFamily) -> Behavior:
    """p(a, b | x, y) = tr[(A_a^x (x) B_b^y) rho]."""
    da, db = m.alice.shape[-1], m.bob.shape[-1]
    if state.dim != da * db:
        raise DimensionMismatchError(
            f"state dimension {state.dim} incompatible with measurements {da}x{db}"
        )
    # np.kron of every pair, entry for entry: [x, a, i, j] times [y, b, k, l]
    # at [x, y, a, b, i, k, j, l], whose (i, k) and (j, l) are kron's rows and columns
    ops = m.alice[:, None, :, None, :, None, :, None] * m.bob[None, :, None, :, None, :, None, :]
    ops = ops.reshape(*ops.shape[:4], state.dim, state.dim)
    return Behavior(np.trace(ops @ state.matrix, axis1=-2, axis2=-1).real)


def chsh_value(b: Behavior, alice_inputs: tuple[int, int] = (1, 2),
               bob_inputs: tuple[int, int] = (0, 1)) -> float:
    """Signed CHSH functional E(x1,y1) + E(x1,y2) + E(x2,y1) - E(x2,y2).

    With the honest measurement convention (test inputs x in {1, 2},
    y in {0, 1}) the noiseless device yields +2*sqrt(2).
    """
    x1, x2 = alice_inputs
    y1, y2 = bob_inputs

    def correlator(x, y):
        slab = b.slice_xy(x, y)
        if slab.shape != (2, 2):
            raise BadSettingError("CHSH needs binary outcomes on the selected settings")
        signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
        return float((signs * slab).sum())

    return (correlator(x1, y1) + correlator(x1, y2)
            + correlator(x2, y1) - correlator(x2, y2))


def qber(b: Behavior) -> float:
    """P(a != b) at the key-generation setting (0, 0) of `honest_chsh_device`."""
    slab = b.slice_xy(0, 0)
    return float(slab.sum() - np.trace(slab))


def honest_chsh_device(nu: float) -> tuple[DensityMatrix, MeasurementFamily]:
    """Isotropic state with the standard CHSH-protocol measurements.

    Alice measures Z, (Z+X)/sqrt(2), (Z-X)/sqrt(2); Bob measures Z, X.  The
    key pair is (x, y) = (0, 0) and the CHSH test runs on x in {1, 2},
    y in {0, 1}, where the violation is 2*sqrt(2)*(1 - nu).
    """
    state = make_isotropic(nu)
    s = 1.0 / math.sqrt(2)
    alice = tuple(observable_povm(o) for o in
                  (PAULI_Z, s * (PAULI_Z + PAULI_X), s * (PAULI_Z - PAULI_X)))
    bob = tuple(observable_povm(o) for o in (PAULI_Z, PAULI_X))
    return state, MeasurementFamily(alice, bob)


def separable_chsh2_strategy(q: float) -> tuple[DensityMatrix, MeasurementFamily]:
    """Separable strategy with CHSH value exactly 2 and key-setting QBER q.

    The state is |00><00|; the test measurements are Z, Z for Alice and Z, X
    for Bob, and Alice's key measurement mixes in a sigma_x measurement with
    weight 2q.
    """
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"q={q} outside [0, 1/2]")
    ket00 = np.zeros(4, dtype=complex)
    ket00[0] = 1.0
    state = DensityMatrix(projector(ket00), (2, 2))
    alice = (mixed_key_povm(q), observable_povm(PAULI_Z), observable_povm(PAULI_Z))
    bob = (observable_povm(PAULI_Z), observable_povm(PAULI_X))
    return state, MeasurementFamily(alice, bob)


def assemble_ccq(state: DensityMatrix, pair_povm: tuple[Sequence[np.ndarray], Sequence[np.ndarray]],
                 eve_map: EveMap | None = None) -> CcqState:
    """Measure ``state`` with one POVM pair and hand Eve the purifier.

    The pair is checked as a one-setting `MeasurementFamily`.  Eve's operator
    for outcome (a, b) is the purifier-side conditional
    tr_AB[(M_a (x) M_b (x) I_E) |psi><psi|] of the rank-minimal purification;
    ``eve_map`` (a channel or measurement on E) is applied afterwards.
    """
    family = MeasurementFamily((pair_povm[0],), (pair_povm[1],))
    return CcqState(_mapped(_eve_operators(state, family)[0, 0], eve_map))


def _eve_operators(state: DensityMatrix, family: MeasurementFamily) -> np.ndarray:
    """Eve's purifier conditionals of every setting, indexed [x, y, a, b], unchecked."""
    if len(state.dims) != 2:
        raise DimensionMismatchError("assemble_ccq expects a bipartite state")
    da, db = state.dims
    if family.alice.shape[-1] != da or family.bob.shape[-1] != db:
        raise DimensionMismatchError("POVM pair incompatible with state dimensions")
    psi = purify(state)
    w = psi.amplitudes.reshape(da, db, psi.dims[-1])
    # (w^dag (A_a^x (x) B_b^y) w)^T
    return np.einsum("ijs,xaik,ybjl,klr->xyabrs", w.conj(), family.alice, family.bob, w)


def _mapped(ops: np.ndarray, eve_map: EveMap | None) -> np.ndarray:
    """One setting's operators [a, b] through ``eve_map``, checked to keep each trace."""
    if eve_map is None:
        return ops
    mapped = np.array([[eve_map(op) for op in row] for row in ops], dtype=complex)
    traces = [np.einsum("abkk->ab", t).real for t in (ops, mapped)]
    if np.max(np.abs(traces[1] - traces[0])) > 1e-9:
        raise ValueError("eve_map does not preserve the trace")
    return mapped


def _input_distribution(family: MeasurementFamily, p_xy: np.ndarray) -> np.ndarray:
    """``p_xy`` as a float array, checked to be a distribution over the family's settings."""
    p = np.asarray(p_xy, dtype=float)
    settings = (len(family.alice), len(family.bob))
    if p.shape != settings:
        raise DimensionMismatchError(f"p_xy must have shape {settings}")
    return _probabilities(p, "p_xy")


def _setting_ops(state: DensityMatrix, family: MeasurementFamily,
                 eve_maps: dict[tuple[int, int], EveMap] | None,
                 p_xy: np.ndarray | None = None):
    """Yield (x, y, Eve's operators) per setting, her purifier mapped by ``eve_maps[(x, y)]``.

    The operators are `_eve_operators`, not yet checked by `CcqState`.  With
    ``p_xy`` given, settings of zero weight are skipped.
    """
    maps = eve_maps or {}
    ops = _eve_operators(state, family)
    for x, y in np.ndindex(ops.shape[:2]):
        if p_xy is None or p_xy[x, y] > 0.0:
            yield x, y, _mapped(ops[x, y], maps.get((x, y)))


def broadcast_ccq(state: DensityMatrix, family: MeasurementFamily, p_xy: np.ndarray,
                  eve_maps: dict[tuple[int, int], EveMap] | None = None) -> CcqState:
    """Setting-flagged ccq state for broadcast inputs.

    Eve's register is the direct sum over settings (x, y) of the per-setting
    purifier conditionals, weighted by p(x, y); the block index doubles as
    her copy of the announced inputs.  Only the direct sum is checked.
    """
    p = _input_distribution(family, p_xy)
    blocks = [(p[x, y], ops) for x, y, ops in _setting_ops(state, family, eve_maps)]
    n_a, n_b = family.alice.shape[1], family.bob.shape[1]
    d_total = sum(ops.shape[2] for _, ops in blocks)
    arr = np.zeros((n_a, n_b, d_total, d_total), dtype=complex)
    offset = 0
    for weight, ops in blocks:
        d = ops.shape[2]
        arr[:, :, offset:offset + d, offset:offset + d] = weight * ops
        offset += d
    return CcqState(arr)
