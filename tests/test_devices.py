import math
import re

import numpy as np
import pytest

from diqkd_bounds import (
    BadSettingError,
    Behavior,
    CcqState,
    DensityMatrix,
    DimensionMismatchError,
    MeasurementFamily,
    assemble_ccq,
    behavior_from,
    bound_curve,
    broadcast_ccq,
    chsh_value,
    cmi_ccq,
    honest_chsh_device,
    kraus_map,
    make_bell_diagonal,
    make_isotropic,
    max_local_weight,
    observable_povm,
    partial_trace,
    povm_map,
    purify,
    qber,
    separable_chsh2_strategy,
)
from diqkd_bounds.states import KET_PHI_PLUS, PAULI_X, PAULI_Z, projector
from util import random_density, random_projective_family

TWO_SQRT2 = 2 * math.sqrt(2)


def pr_box() -> Behavior:
    t = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a + b) % 2 == x * y:
                        t[x, y, a, b] = 0.5
    return Behavior(t)


def deterministic_behavior() -> Behavior:
    t = np.zeros((2, 2, 2, 2))
    t[:, :, 0, 0] = 1.0
    return Behavior(t)


def test_honest_device_chsh_and_qber_track_nu():
    for nu in np.linspace(0.0, 1.0, 21):
        state, fam = honest_chsh_device(float(nu))
        b = behavior_from(state, fam)
        assert abs(chsh_value(b) - TWO_SQRT2 * (1 - nu)) < 1e-10
        assert abs(qber(b) - nu / 2) < 1e-12


def test_honest_device_correlator_row():
    state, fam = honest_chsh_device(0.2)
    b = behavior_from(state, fam)
    slab = b.slice_xy(1, 0)
    corr = slab[0, 0] + slab[1, 1] - slab[0, 1] - slab[1, 0]
    assert abs(corr - (1 - 0.2) / math.sqrt(2)) < 1e-12


def test_behavior_from_bell_state_z_measurements():
    phi = DensityMatrix(projector(KET_PHI_PLUS), (2, 2))
    from diqkd_bounds import MeasurementFamily
    fam = MeasurementFamily((observable_povm(PAULI_Z),), (observable_povm(PAULI_Z),))
    b = behavior_from(phi, fam)
    slab = b.slice_xy(0, 0)
    assert np.allclose(slab, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)


def test_behavior_from_maximally_mixed_uniform():
    from diqkd_bounds import MeasurementFamily
    fam = MeasurementFamily((observable_povm(PAULI_Z), observable_povm(PAULI_X)),
                            (observable_povm(PAULI_Z),))
    b = behavior_from(make_isotropic(1.0), fam)
    assert np.allclose(b.table, 0.25, atol=1e-12)


def test_behavior_from_is_no_signaling_for_random_devices():
    rng = np.random.default_rng(101)
    for _ in range(25):
        state = random_density(rng, (2, 2))
        fam = random_projective_family(rng, x_count=3, y_count=2)
        behavior_from(state, fam)  # constructor enforces no-signaling at 1e-9


def test_behavior_from_is_the_kron_trace_bit_for_bit():
    # tr[(A_a^x (x) B_b^y) rho] cell by cell, with np.kron and one trace each
    rng = np.random.default_rng(103)
    devices = [honest_chsh_device(nu) for nu in (0.0, 0.1, 0.29, 1.0)]
    devices += [separable_chsh2_strategy(q) for q in (0.0, 0.3)]
    devices.append((random_density(rng, (2, 2)), random_projective_family(rng, 3, 2)))
    # a qutrit on Bob's side, so that kron's row and column order shows
    bases = [np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
             for _ in range(2)]
    bob = [[np.outer(u[:, k], u[:, k].conj()) for k in range(3)] for u in bases]
    alice = random_projective_family(rng, 2, 1).alice
    devices.append((random_density(rng, (2, 3)), MeasurementFamily(alice, bob)))
    for state, fam in devices:
        table = behavior_from(state, fam).table
        for x, y, a, b in np.ndindex(table.shape):
            cell = np.trace(np.kron(fam.alice[x, a], fam.bob[y, b]) @ state.matrix).real
            assert table[x, y, a, b].tobytes() == cell.tobytes(), (x, y, a, b)


def test_chsh_deterministic_hits_local_bound():
    assert abs(chsh_value(deterministic_behavior(), (0, 1), (0, 1)) - 2.0) < 1e-15


def test_chsh_pr_box_hits_four():
    assert abs(chsh_value(pr_box(), (0, 1), (0, 1)) - 4.0) < 1e-15


def test_chsh_bad_setting():
    with pytest.raises(BadSettingError):
        chsh_value(pr_box(), (0, 3), (0, 1))


def test_qber_extremes():
    assert qber(deterministic_behavior()) == 0.0
    uniform = Behavior(np.full((1, 1, 2, 2), 0.25))
    assert abs(qber(uniform) - 0.5) < 1e-15


def test_separable_strategy_spec_points():
    for q in (0.0, 0.1, 0.25, 0.5):
        state, fam = separable_chsh2_strategy(q)
        b = behavior_from(state, fam)
        assert abs(chsh_value(b) - 2.0) < 1e-10
        assert abs(qber(b) - q) < 1e-10


def test_separable_strategy_chsh_constant_on_grid():
    for q in np.linspace(0.0, 0.5, 50):
        state, fam = separable_chsh2_strategy(float(q))
        b = behavior_from(state, fam)
        assert abs(chsh_value(b) - 2.0) < 1e-10


def test_separable_strategy_half_q_uniform_marginal():
    state, fam = separable_chsh2_strategy(0.5)
    b = behavior_from(state, fam)
    marg = b.slice_xy(0, 0).sum(axis=1)
    assert np.allclose(marg, [0.5, 0.5], atol=1e-12)
    assert abs(qber(b) - 0.5) < 1e-10


def test_separable_strategy_out_of_range():
    with pytest.raises(ValueError):
        separable_chsh2_strategy(0.6)


def test_assemble_ccq_pure_state_trivial_eve():
    phi = DensityMatrix(projector(KET_PHI_PLUS), (2, 2))
    ccq = assemble_ccq(phi, (observable_povm(PAULI_Z), observable_povm(PAULI_Z)))
    assert ccq.eve_dim == 1
    assert np.allclose(ccq.joint, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)


def test_assemble_ccq_product_mixed_blocks():
    rho = DensityMatrix(np.eye(4, dtype=complex) / 4, (2, 2))
    ccq = assemble_ccq(rho, (observable_povm(PAULI_Z), observable_povm(PAULI_Z)))
    assert np.allclose(ccq.joint, 0.25, atol=1e-12)
    assert abs(np.einsum("abkk->", ccq.eve_ops).real - 1.0) < 1e-12


def test_assemble_ccq_bell_mixture():
    rho = make_bell_diagonal(0.9, 0.1)
    ccq = assemble_ccq(rho, (observable_povm(PAULI_Z), observable_povm(PAULI_Z)))
    assert ccq.eve_dim == 2
    assert abs(ccq.joint[0, 0] - 0.5) < 1e-12
    assert abs(ccq.joint[1, 1] - 0.5) < 1e-12


def test_assemble_ccq_marginal_consistency():
    rng = np.random.default_rng(59)
    for _ in range(10):
        rho = random_density(rng, (2, 2))
        fam = random_projective_family(rng, 1, 1)
        ccq = assemble_ccq(rho, (fam.alice[0], fam.bob[0]))
        psi = purify(rho)
        full = projector(psi.amplitudes)
        eve_marginal = partial_trace(full, list(psi.dims), keep=[2])
        assert np.linalg.norm(ccq.eve_ops.sum(axis=(0, 1)) - eve_marginal) < 1e-9


def test_assemble_ccq_povm_eve_map():
    rho = make_bell_diagonal(0.8, 0.2)
    measure_eve = povm_map(observable_povm(PAULI_Z))
    ccq = assemble_ccq(rho, (observable_povm(PAULI_Z), observable_povm(PAULI_Z)),
                       eve_map=measure_eve)
    assert abs(np.einsum("abkk->", ccq.eve_ops).real - 1.0) < 1e-9
    # measured Eve operators are diagonal
    for a in range(2):
        for b in range(2):
            off = ccq.eve_ops[a, b] - np.diag(np.diag(ccq.eve_ops[a, b]))
            assert np.linalg.norm(off) < 1e-12


def test_assemble_ccq_kraus_eve_map_matches_identity_when_unitary():
    rho = make_bell_diagonal(0.8, 0.2)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    plain = assemble_ccq(rho, (observable_povm(PAULI_Z), observable_povm(PAULI_Z)))
    rotated = assemble_ccq(rho, (observable_povm(PAULI_Z), observable_povm(PAULI_Z)),
                           eve_map=kraus_map([hadamard]))
    # a unitary on Eve cannot change the conditional mutual information
    assert abs(cmi_ccq(plain) - cmi_ccq(rotated)) < 1e-10


def test_broadcast_single_setting_reduces_to_assemble():
    state, fam = honest_chsh_device(0.15)
    single = broadcast_ccq(state, fam, np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    pair = assemble_ccq(state, (fam.alice[0], fam.bob[0]))
    assert abs(cmi_ccq(single) - cmi_ccq(pair)) < 1e-9


def test_broadcast_flag_decomposition_identity():
    state, fam = honest_chsh_device(0.1)
    p_xy = np.array([[0.25, 0.25], [0.25, 0.0], [0.0, 0.25]])
    flagged = cmi_ccq(broadcast_ccq(state, fam, p_xy))
    blockwise = 0.0
    for x in range(3):
        for y in range(2):
            if p_xy[x, y] > 0:
                blockwise += p_xy[x, y] * cmi_ccq(
                    assemble_ccq(state, (fam.alice[x], fam.bob[y])))
    assert abs(flagged - blockwise) < 1e-9


def test_broadcast_normalization():
    state, fam = honest_chsh_device(0.05)
    p_xy = np.full((3, 2), 1 / 6)
    ccq = broadcast_ccq(state, fam, p_xy)
    assert abs(ccq.joint.sum() - 1.0) < 1e-9


def test_behavior_rejects_signaling_table():
    # each table moves one party's marginal with the other's input and keeps
    # the other party's marginals fixed, so each reaches its own check
    alice_signals = np.full((2, 2, 2, 2), 0.25)
    alice_signals[0, 1] = [[0.5, 0.5], [0.0, 0.0]]  # Alice's x = 0 marginal is (1, 0) at y = 1
    with pytest.raises(ValueError, match="^Alice marginal depends on y"):
        Behavior(alice_signals)
    bob_signals = np.full((2, 2, 2, 2), 0.25)
    bob_signals[1, 0] = [[0.5, 0.0], [0.5, 0.0]]  # Bob's y = 0 marginal is (1, 0) at x = 1
    with pytest.raises(ValueError, match="^Bob marginal depends on x"):
        Behavior(bob_signals)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_behavior_rejects_non_finite_entries(bad):
    t = np.full((2, 2, 2, 2), 0.25)
    t[1, 0, 0, 1] = bad  # NaN passes every comparison of the other checks
    with pytest.raises(ValueError, match="NaN or Inf"):
        Behavior(t)


Z_POVM = observable_povm(PAULI_Z)
TRINE = (np.eye(2) / 3,) * 3


@pytest.mark.parametrize("povms, counts", [
    ((TRINE, Z_POVM), "[3, 2]"), ((Z_POVM, TRINE), "[2, 3]"), (((),), "[0]"),
], ids=["three-first", "three-last", "no-outcomes"])
def test_measurement_family_rejects_ragged_outcome_counts(povms, counts):
    # a 3-outcome POVM next to Z once gave a behavior of uninitialized cells,
    # and an input without outcomes an IndexError
    counts = re.escape(counts)
    with pytest.raises(DimensionMismatchError, match=f"^alice: inputs have {counts} outcomes"):
        MeasurementFamily(povms, (Z_POVM,))
    with pytest.raises(DimensionMismatchError, match=f"^bob: inputs have {counts} outcomes"):
        MeasurementFamily((Z_POVM,), povms)


# each refusal of the device layer: (the call, the error, the start of its message)
REFUSALS = {
    "no-inputs": (lambda: MeasurementFamily((), (Z_POVM,)),
                  ValueError, "alice: needs at least one input"),
    "mixed-sizes": (lambda: MeasurementFamily((Z_POVM, (np.eye(3) / 2,) * 2), (Z_POVM,)),
                    DimensionMismatchError, r"alice: elements are \[\(2, 2\), \(3, 3\)\]"),
    "non-square": (lambda: MeasurementFamily((Z_POVM,), ((np.ones((2, 3)) / 2,) * 2,)),
                   DimensionMismatchError, r"bob: elements are \[\(2, 3\)\]"),
    "not-psd": (lambda: MeasurementFamily((Z_POVM,), (Z_POVM, (np.diag([1 + 1e-6, 0]),
                                                               np.diag([-1e-6, 1])))),
                ValueError, r"bob: POVM element \(1, 1\) has eigenvalue -1\.000e-06"),
    "not-identity": (lambda: MeasurementFamily((Z_POVM, (np.eye(2) / 2, np.eye(2) / 3)),
                                               (Z_POVM,)),
                     ValueError, "alice input 1: POVM elements do not sum to identity"),
    "behavior-ndim": (lambda: Behavior(np.full((2, 2, 4), 0.25)), DimensionMismatchError,
                      r"behavior table must be indexed \[x\]\[y\]\[a\]\[b\]"),
    "ccq-shape": (lambda: CcqState(np.eye(2) / 2),
                  DimensionMismatchError, r"eve_ops must have shape \(nA, nB, dE, dE\)"),
    "ccq-trace": (lambda: CcqState(2 * _uniform_eve_ops()),
                  ValueError, "Eve operator traces sum to 2.000000000, not 1"),
    "state-dimension": (lambda: behavior_from(make_isotropic(0.1),  # Bob: one qutrit outcome
                                              MeasurementFamily((Z_POVM,), ((np.eye(3),),))),
                        DimensionMismatchError,
                        "state dimension 4 incompatible with measurements 2x3"),
    "chsh-outcomes": (lambda: chsh_value(Behavior(np.full((3, 2, 3, 2), 1 / 6))),
                      BadSettingError, "CHSH needs binary outcomes"),
    "ccq-tripartite": (lambda: assemble_ccq(DensityMatrix(np.eye(8) / 8, (2, 2, 2)),
                                            (Z_POVM, Z_POVM)),
                       DimensionMismatchError, "assemble_ccq expects a bipartite state"),
    "ccq-eve-map": (lambda: assemble_ccq(make_isotropic(0.1), (Z_POVM, Z_POVM), lambda op: 2 * op),
                    ValueError, "eve_map does not preserve the trace"),
    "ccq-incomplete": (lambda: assemble_ccq(make_isotropic(1.0), ((np.diag([0.7, 0.3]),
                                                                   np.diag([0.5, 0.5])), Z_POVM)),
                       ValueError, "alice input 0: POVM elements do not sum to identity"),
    "ccq-not-psd": (lambda: assemble_ccq(make_isotropic(0.1), (Z_POVM, (np.diag([1.25, 0]),
                                                                        np.diag([-0.25, 1])))),
                    ValueError, r"bob: POVM element \(0, 1\) has eigenvalue -2\.500e-01"),
    "ccq-dimension": (lambda: assemble_ccq(make_isotropic(0.1), (Z_POVM, (np.eye(3),))),
                      DimensionMismatchError, "POVM pair incompatible with state dimensions"),
    "p-xy-shape": (lambda: broadcast_ccq(*honest_chsh_device(0.1), np.full((2, 3), 1 / 6)),
                   DimensionMismatchError, r"p_xy must have shape \(3, 2\)"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_device_layer_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{message}"):
        call()


# one builder per validated type; two calls give two equal, separate objects
VALIDATED = {
    "DensityMatrix": lambda: make_isotropic(0.1),
    "PureState": lambda: purify(make_isotropic(0.0)),
    "MeasurementFamily": lambda: honest_chsh_device(0.1)[1],
    "Behavior": lambda: behavior_from(*honest_chsh_device(0.1)),
    "CcqState": lambda: assemble_ccq(make_isotropic(0.1), (Z_POVM, Z_POVM)),
    "LocalDecomposition": lambda: max_local_weight(behavior_from(*honest_chsh_device(0.1))),
    "BoundCurve": lambda: bound_curve("al", grid=4),
}


@pytest.mark.parametrize("kind", list(VALIDATED))
def test_validated_objects_compare_by_identity_and_hash(kind):
    first, second = VALIDATED[kind](), VALIDATED[kind]()
    assert type(first).__name__ == kind
    assert first == first and first != second
    assert hash(first) == hash(first) and len({first, second, first}) == 2


def test_measurement_family_is_one_read_only_stack_per_party():
    state, fam = honest_chsh_device(0.1)
    for stack, inputs in ((fam.alice, 3), (fam.bob, 2)):
        assert stack.shape == (inputs, 2, 2, 2) and stack.dtype == complex
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0] = 0.0
    nested = MeasurementFamily(tuple(map(tuple, fam.alice)), tuple(map(tuple, fam.bob)))
    assert np.array_equal(nested.alice, fam.alice) and np.array_equal(nested.bob, fam.bob)
    assert np.array_equal(observable_povm(PAULI_Z), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])


def test_setting_distribution_rejects_nan():
    # a NaN weight passes both comparisons of the distribution check
    state, fam = honest_chsh_device(0.1)
    p_xy = np.full((3, 2), 1 / 6)
    p_xy[1, 1] = math.nan
    with pytest.raises(ValueError, match="not a probability distribution"):
        broadcast_ccq(state, fam, p_xy)


def _uniform_eve_ops() -> np.ndarray:
    return np.tile(np.eye(2, dtype=complex) / 8, (2, 2, 1, 1))


@pytest.mark.parametrize("defect", ["not-hermitian", "not-psd", "nan"])
def test_ccq_state_rejects_a_single_bad_block(defect):
    ops = _uniform_eve_ops()
    if defect == "not-hermitian":
        ops[1, 0, 0, 1] += 1e-7  # beyond the 1e-8 Hermiticity tolerance
    elif defect == "not-psd":
        ops[1, 0] = np.diag([0.25 + 1e-6, -1e-6])  # same trace, eigenvalue -1e-6
    else:
        ops[1, 0, 0, 1] = math.nan  # off the diagonal, so the traces stay finite
    with pytest.raises(ValueError, match=r"Eve operator|NaN or Inf"):
        CcqState(ops)
    if defect != "nan":
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            CcqState(ops)


def test_ccq_state_keeps_its_tolerances():
    ops = _uniform_eve_ops()
    ops[0, 1, 0, 1] += 5e-9  # Hermiticity defect 7e-9 < 1e-8
    ops[1, 1] = np.diag([0.25 + 5e-10, -5e-10])  # eigenvalue -5e-10 > -1e-9
    ccq = CcqState(ops)
    assert ccq.eve_ops.shape == (2, 2, 2, 2)
    # the summed AE, BE and E blocks carry the 7e-9 defect too; cmi_ccq accepts them
    assert 0.0 <= cmi_ccq(ccq) <= 1.0


def test_cmi_ccq_floors_summed_blocks_by_their_parts():
    # each (0, b) block reaches -9e-10, inside CcqState's -1e-9 floor; their
    # AE sum reaches -1.8e-9, inside the -2e-9 that Weyl's inequality allows
    ops = np.zeros((2, 2, 2, 2), dtype=complex)
    ops[0, :] = np.diag([0.25 + 9e-10, -9e-10])
    ops[1, :] = np.diag([0.25, 0.0])
    assert 0.0 <= cmi_ccq(CcqState(ops)) <= 1e-12


def _random_basis_povm(rng, d):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    v = np.linalg.eigh(h + h.conj().T)[1]
    return tuple(np.outer(v[:, k], v[:, k].conj()) for k in range(d))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_assemble_ccq_matches_kron_trace_loop(dims):
    # reference: Eve's operator (w^dag (M_a (x) M_b) w)^T, one kron per outcome pair
    rng = np.random.default_rng(sum(dims))
    rho = random_density(rng, dims)
    pair = (_random_basis_povm(rng, dims[0]), _random_basis_povm(rng, dims[1]))
    psi = purify(rho)
    w = psi.amplitudes.reshape(rho.dim, psi.dims[-1])
    unitary = np.linalg.qr(rng.standard_normal((w.shape[1],) * 2))[0]
    for eve_map in (None, kraus_map([unitary])):
        ccq = assemble_ccq(rho, pair, eve_map)
        for a, ea in enumerate(pair[0]):
            for b, eb in enumerate(pair[1]):
                op = (w.conj().T @ np.kron(ea, eb) @ w).T
                if eve_map is not None:
                    op = unitary @ op @ unitary.T
                assert np.max(np.abs(ccq.eve_ops[a, b] - op)) < 1e-14
    with pytest.raises(DimensionMismatchError):
        assemble_ccq(rho, (pair[0], _random_basis_povm(rng, dims[1] + 1)))
