"""Validated operators keep the spectrum their check computes.

`DensityMatrix` and `CcqState` store the `psd_spectrum` of their check, and
every later entropy, purification and conditional mutual information reads
it instead of decomposing the operator again.  The counts below are what
`linalg._eigh` sees; the float.hex pins are the values of the code that
decomposed each operator twice, so reading the stored spectrum must leave
every value bit for bit.
"""

import hashlib

import numpy as np
import pytest

from diqkd_bounds import (
    CcqState,
    DensityMatrix,
    MeasurementFamily,
    assemble_ccq,
    behavior_from,
    broadcast_ccq,
    cc_sq_multi,
    cmi_ccq,
    dephasing_simulation,
    er_numeric,
    honest_chsh_device,
    intrinsic_nonlocality_upper,
    kraus_map,
    linalg,
    make_isotropic,
    max_local_weight,
    povm_map,
    purify,
    relative_entropy,
    von_neumann_entropy,
)
from diqkd_bounds.devices import EVE_HERMITICITY_TOL
from diqkd_bounds.linalg import psd_spectrum
from diqkd_bounds.measures import _ErObjective

PIN_NUS = (0.0, 0.05, 0.1, 0.15, 0.2)
UNIFORM_XY = np.full((3, 2), 1 / 6)


def pin_eve_maps(kind, nu):
    """Eve maps for every setting of the honest device at ``nu``, on her purifier."""
    if kind is None:
        return None
    d = 1 if nu == 0.0 else 4  # rank of the isotropic state
    if kind == "povm":
        eve = povm_map(list(np.eye(d)[:, :, None] * np.eye(d)[:, None, :]))
    else:
        rng = np.random.default_rng(40 + d)
        g = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
        isometry = np.linalg.qr(g)[0]  # two Kraus operators stacked
        eve = kraus_map([isometry[:d], isometry[d:]])
    return {(x, y): eve for x in range(3) for y in range(2)}


def pin_state(d, rank, seed):
    """Seeded density matrix of dimension ``d`` and rank ``rank``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, (d,))


def pin_states():
    """(d, rank, state) over d = 1..12 at full, half and unit rank."""
    out = []
    for d in range(1, 13):
        for rank in sorted({d, max(d // 2, 1), 1}):
            out.append((d, rank, pin_state(d, rank, 1000 + 16 * d + rank)))
    return out


def pin_ccq(d, rank, seed):
    """Seeded 2x2 ccq state whose Eve operators have dimension ``d`` and rank ``rank``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, 2, d, rank)) + 1j * rng.standard_normal((2, 2, d, rank))
    ops = g @ g.conj().swapaxes(-1, -2)
    return CcqState(ops / np.einsum("abkk->", ops).real)


# --- how often each path decomposes a matrix ----------------------------------

def _honest():
    state, fam = honest_chsh_device(0.1)
    return state, fam, make_isotropic(0.3)


# (calls of linalg._eigh, matrices decomposed) on the honest nu = 0.1 device:
# per setting, the purification and the Eve operators' check reuse the state's
# and the blocks' spectra, and cmi_ccq decomposes only the AE, BE and E sums;
# broadcast_ccq checks its direct sum alone, not each setting's operators;
# a MeasurementFamily checks each party's POVM stack in one call, and
# assemble_ccq checks its pair as a one-setting family before the Eve operators
DECOMPOSITIONS = {
    "MeasurementFamily": (lambda s, f, o: MeasurementFamily(f.alice, f.bob), 2, 10),
    "assemble_ccq": (lambda s, f, o: assemble_ccq(s, (f.alice[0], f.bob[0])), 3, 8),
    "cc_sq_multi": (lambda s, f, o: cc_sq_multi(s, f, UNIFORM_XY), 12, 54),
    "intrinsic_nonlocality_upper": (lambda s, f, o: intrinsic_nonlocality_upper(s, f), 12, 54),
    "cmi_ccq(broadcast_ccq)": (lambda s, f, o: cmi_ccq(broadcast_ccq(s, f, UNIFORM_XY)), 2, 9),
    "relative_entropy": (lambda s, f, o: relative_entropy(s, o), 0, 0),
    "von_neumann_entropy": (lambda s, f, o: von_neumann_entropy(s), 0, 0),
    "purify": (lambda s, f, o: purify(s), 0, 0),
    "_ErObjective": (lambda s, f, o: _ErObjective(s, 4), 0, 0),
}


@pytest.mark.parametrize("path", list(DECOMPOSITIONS))
def test_each_path_decomposes_only_what_no_check_has(path, monkeypatch):
    run, calls, matrices = DECOMPOSITIONS[path]
    state, fam, other = _honest()
    seen = []
    eigh = linalg._eigh

    def counting(h):
        seen.append(int(np.prod(h.shape[:-2])))
        return eigh(h)

    monkeypatch.setattr(linalg, "_eigh", counting)
    run(state, fam, other)
    assert (len(seen), sum(seen)) == (calls, matrices)


# --- what the stored spectra hold ---------------------------------------------

def _assert_spectrum_of(spectrum, matrices):
    w, v = spectrum
    assert np.all(w >= 0.0) and np.all(np.diff(w, axis=-1) <= 0.0)
    rebuilt = np.einsum("...ij,...j,...kj->...ik", v, w, v.conj())
    assert np.max(np.abs(rebuilt - matrices)) <= 1e-12
    for array in (w, v):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


@pytest.mark.parametrize("d", range(1, 13))
def test_density_matrix_spectrum_invariants(d):
    for rank in sorted({d, max(d // 2, 1), 1}):
        rho = pin_state(d, rank, 3000 + 16 * d + rank)
        _assert_spectrum_of(rho.spectrum, rho.matrix)
        assert np.sum(rho.spectrum.eigenvalues > 1e-12) == rank
        assert np.array_equal(rho.spectrum.eigenvalues, psd_spectrum(rho.matrix).eigenvalues)


@pytest.mark.parametrize("d", range(1, 13))
def test_ccq_state_spectrum_invariants(d):
    for rank in sorted({d, max(d // 2, 1), 1}):
        ccq = pin_ccq(d, rank, 4000 + 16 * d + rank)
        _assert_spectrum_of(ccq.spectrum, ccq.eve_ops)
        again = psd_spectrum(ccq.eve_ops, 1, EVE_HERMITICITY_TOL)
        assert ccq.spectrum.eigenvalues.shape == (2, 2, d)
        assert np.array_equal(ccq.spectrum.eigenvalues, again.eigenvalues)
        assert np.array_equal(ccq.spectrum.eigenvectors, again.eigenvectors)


def test_stored_spectrum_is_no_argument_and_stays_out_of_repr():
    rho = make_isotropic(0.1)
    assert "spectrum" not in repr(rho)
    with pytest.raises(TypeError):
        DensityMatrix(rho.matrix, rho.dims, spectrum=rho.spectrum)


# --- values pinned before the spectra were kept ---------------------------------

# (cc_sq_multi, intrinsic_nonlocality_upper, cmi_ccq(broadcast_ccq)) on the honest
# device with uniform p(x, y), Eve's purifier unmapped, measured or through a channel
CCQ_PINS = {
    (0.0, None): ("0x1.bb22a283e0a7bp-2", "0x1.ffffffffffffdp-1", "0x1.bb22a283e0a70p-2"),
    (0.0, "povm"): ("0x1.bb22a283e0a7bp-2", "0x1.ffffffffffffdp-1", "0x1.bb22a283e0a70p-2"),
    (0.0, "kraus"): ("0x1.bb22a283e0a80p-2", "0x1.ffffffffffffcp-1", "0x1.bb22a283e0aa0p-2"),
    (0.05, None): ("0x1.b1292fc832c42p-2", "0x1.c1ccb3deb86cep-1", "0x1.b1292fc832c40p-2"),
    (0.05, "povm"): ("0x1.b00e91a6fb0a5p-2", "0x1.f333333333336p-1", "0x1.b00e91a6fb090p-2"),
    (0.05, "kraus"): ("0x1.c69edff9d12d4p-2", "0x1.cb68a3aa6df86p-1", "0x1.c69edff9d12f8p-2"),
    (0.1, None): ("0x1.98ca204e116f0p-2", "0x1.910152ea14463p-1", "0x1.98ca204e116e0p-2"),
    (0.1, "povm"): ("0x1.a18cce0834f07p-2", "0x1.dcc21d4eb6cd7p-1", "0x1.a18cce0834f30p-2"),
    (0.1, "kraus"): ("0x1.a79124ce1490ep-2", "0x1.945adf70fbb7ap-1", "0x1.a79124ce148e8p-2"),
    (0.15, None): ("0x1.7c8345a46e9f8p-2", "0x1.65ade3cc01e2ep-1", "0x1.7c8345a46e9e8p-2"),
    (0.15, "povm"): ("0x1.97ae51bbb7198p-2", "0x1.cdda8831875c7p-1", "0x1.97ae51bbb7168p-2"),
    (0.15, "kraus"): ("0x1.a0e0dddbacfacp-2", "0x1.6e90c1c47ed06p-1", "0x1.a0e0dddbacfa0p-2"),
    (0.2, None): ("0x1.5e7e52f6fcc62p-2", "0x1.3e29923ffe68fp-1", "0x1.5e7e52f6fcc60p-2"),
    (0.2, "povm"): ("0x1.8ed25f104a30ep-2", "0x1.ccccccccccccfp-1", "0x1.8ed25f104a320p-2"),
    (0.2, "kraus"): ("0x1.c2d65b823e77cp-2", "0x1.6c7161dccda26p-1", "0x1.c2d65b823e748p-2"),
}

# (S(rho), D(rho || sigma), D(sigma || rho)) with rho = pin_states()'s state of
# that dimension and rank, sigma a full-rank seeded state of the same dimension
ENTROPY_PINS = {
    (1, 1): ("-0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    (2, 1): ("-0x0.0p+0", "0x1.33dc30cffc582p+2", "inf"),
    (2, 2): ("0x1.0c32a14560913p-3", "0x1.092fc0a55c86cp+2", "0x1.25ad9eb8495e5p+2"),
    (3, 1): ("-0x0.0p+0", "0x1.1c4607def7f5cp+1", "inf"),
    (3, 3): ("0x1.25ab252203e02p+0", "0x1.4d60609a2175ap+0", "0x1.3e439cd4d26a2p+0"),
    (4, 1): ("-0x0.0p+0", "0x1.5e0604e628a41p+1", "inf"),
    (4, 2): ("0x1.76c0c45b8c2f0p-1", "0x1.17dd995fa97e5p+1", "inf"),
    (4, 4): ("0x1.15d10cbd2a36fp+0", "0x1.1dac4ad957b91p+0", "0x1.673cb68084564p+0"),
    (5, 1): ("0x1.71547652b82fdp-51", "0x1.8904af4787863p+1", "inf"),
    (5, 2): ("0x1.5391f79931c74p-1", "0x1.f6cd944b44359p+1", "inf"),
    (5, 5): ("0x1.b8cd82ca24dd8p+0", "0x1.3aedd763f713cp+0", "0x1.7a320ebee0388p+1"),
    (6, 1): ("-0x1.71547652b8300p-51", "0x1.9c7536461c8dfp+1", "inf"),
    (6, 3): ("0x1.25a78bc1bdaf5p+0", "0x1.27ae08869b2dcp+1", "inf"),
    (6, 6): ("0x1.ef0778ff2a047p+0", "0x1.b8ac0dc9d4e07p+0", "0x1.174a3725d1ed3p+1"),
    (7, 1): ("0x1.71547652b82fep-52", "0x1.259901404da3cp+2", "inf"),
    (7, 3): ("0x1.482f101681526p+0", "0x1.16827a1f24af3p+1", "inf"),
    (7, 7): ("0x1.01d44d565f5cap+1", "0x1.b996e4d0c6652p+0", "0x1.3fc667517c388p+1"),
    (8, 1): ("-0x0.0p+0", "0x1.3a391e1e699d6p+2", "inf"),
    (8, 4): ("0x1.aeb0dd62bf1a0p+0", "0x1.480a3a0ad33eep+1", "inf"),
    (8, 8): ("0x1.2866d52ab640cp+1", "0x1.4c2a759810d64p+0", "0x1.d6a11818a11dap+0"),
    (9, 1): ("0x1.71547652b82fdp-53", "0x1.05472dd22779ap+2", "inf"),
    (9, 4): ("0x1.c85c36cfcbb54p+0", "0x1.28127983d6d5ep+1", "inf"),
    (9, 9): ("0x1.4838e1b3d1929p+1", "0x1.04e2f325f0673p+1", "0x1.cd439247ed544p+0"),
    (10, 1): ("-0x0.0p+0", "0x1.9d35967363092p+1", "inf"),
    (10, 5): ("0x1.f6c814e28b152p+0", "0x1.51002b4f65535p+1", "inf"),
    (10, 10): ("0x1.57f516efa9337p+1", "0x1.d7eb4e887476ep+0", "0x1.dff0a35dbc114p+0"),
    (11, 1): ("-0x1.71547652b8300p-51", "0x1.56068bc10870ep+2", "inf"),
    (11, 5): ("0x1.f544fca33dbc9p+0", "0x1.2e53cf09c7764p+1", "inf"),
    (11, 11): ("0x1.58f6500e5979ep+1", "0x1.e6e9ec563a658p+0", "0x1.343b491fd3c43p+1"),
    (12, 1): ("0x1.71547652b82fdp-51", "0x1.50d47d3e5e929p+2", "inf"),
    (12, 6): ("0x1.16a6f766bde32p+1", "0x1.32dc55e3e67c6p+1", "inf"),
    (12, 12): ("0x1.61b95eba1e8d4p+1", "0x1.2b8539bdab866p+1", "0x1.20b9508838c08p+1"),
}

# er_numeric(make_isotropic(nu), restarts=2)
ER_PINS = {0.0: "0x1.0000000000d60p+0", 0.1: "0x1.3b3b846d02182p-1",
           0.2: "0x1.8f8605edd9b8cp-2"}

# sha256 over dims and amplitude bytes of purify() of every pin state, then of
# the isotropic states at PIN_NUS
PURIFY_DIGEST = "3b98fb25e8cb3249f34ea0c8fbca070154d55a95dce61e486891f0772511d2b5"

# float.hex of the float fields of dephasing_simulation(kind, p), in field order:
# p, dephasing_noise, omega_target, omega_dephasing, qber_target, qber_dephasing,
# chsh_deviation, qber_deviation
SIMULATION_PINS = {
    ("depolarizing", 0.0): ("0x0.0p+0", "0x0.0p+0", "0x1.6a09e667f3bcap+1", "0x1.6a09e667f3bcbp+1",
                            "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-51", "0x0.0p+0"),
    ("depolarizing", 0.1): ("0x1.999999999999ap-4", "0x1.b367374a23624p-4", "0x1.45d5b5c3f4f6ap+1",
                            "0x1.45d5b5c3f4f6cp+1", "0x1.9999999999990p-5", "0x1.9999999999990p-5",
                            "0x1.0000000000000p-50", "0x0.0p+0"),
    ("depolarizing", 0.2): ("0x1.999999999999ap-3", "0x1.e2266f0480b4ep-3", "0x1.21a1851ff6308p+1",
                            "0x1.21a1851ff6309p+1", "0x1.9999999999998p-4", "0x1.9999999999998p-4",
                            "0x1.0000000000000p-51", "0x0.0p+0"),
    ("depolarizing", 0.29): ("0x1.28f5c28f5c28fp-2", "0x1.d1a2ecf3948e6p-2", "0x1.010c2625f74b0p+1",
                             "0x1.010c2625f74b2p+1", "0x1.28f5c28f5c290p-3", "0x1.28f5c28f5c28cp-3",
                             "0x1.0000000000000p-50", "0x1.0000000000000p-53"),
    ("erasure", 0.0): ("0x0.0p+0", "0x0.0p+0", "0x1.6a09e667f3bcap+1", "0x1.6a09e667f3bcbp+1",
                       "0x1.0000000000000p+0", "0x1.ffffffffffffep-1", "0x1.0000000000000p-51",
                       "0x1.0000000000000p-52"),
    ("erasure", 0.1): ("0x1.999999999999ap-4", "0x1.b367374a23624p-4", "0x1.45d5b5c3f4f68p+1",
                       "0x1.45d5b5c3f4f6cp+1", "0x1.0000000000000p+0", "0x1.fffffffffffffp-1",
                       "0x1.0000000000000p-49", "0x1.0000000000000p-53"),
    ("erasure", 0.2): ("0x1.999999999999ap-3", "0x1.e2266f0480b4ep-3", "0x1.21a1851ff6308p+1",
                       "0x1.21a1851ff6309p+1", "0x1.0000000000000p+0", "0x1.ffffffffffffdp-1",
                       "0x1.0000000000000p-51", "0x1.8000000000000p-52"),
    ("erasure", 0.29): ("0x1.28f5c28f5c28fp-2", "0x1.d1a2ecf3948e6p-2", "0x1.010c2625f74b0p+1",
                        "0x1.010c2625f74b2p+1", "0x1.0000000000000p+0", "0x1.fffffffffffffp-1",
                        "0x1.0000000000000p-50", "0x1.0000000000000p-53"),
}

# sha256 of the behavior table of honest_chsh_device(nu), then of its
# max_local_weight split: local_weight as float.hex, sha256 of the vertex
# weights and of the residual table
HONEST_BEHAVIOR_PINS = {
    0.0: ("d8c50c0752f087ad3ff3b8a491da56f3ae567ba62df7f1d103ef124cde16d946",
          "0x1.2bec333018866p-1",
          "2d676ff450a04738451819e02bd4e5adc9bbc4e78840a137b567703bdfb9cd98",
          "6b68a072f1dd9b54d3296035666b98321eeec32bd27c8354aa9ae4c33f60c412"),
    0.1: ("ab575e30655ef6284a088f68f5026acc4fdf2a69527cd0e48cca67d301c40f3f",
          "0x1.745494781612ap-1",
          "f2c9c2aab833bfa00b12b0b62f252010462138ceaa7a3427da48e62bf614b004",
          "236307ed091714d6016166b5b7b6d29e4e42fb9bf126e80be12c7781b017318b"),
    0.29: ("14d81df70e574a1eb7ddb9897b5b258062f32c0d08edc4b8e8a30d9ae1fb57fb",
           "0x1.fde7b3b41169cp-1",
           "62268d01870b6f69ed31a04ff6add8b1803ccc76fde62d3def373acaaed8ef61",
           "2f7e6583f6cef53e509f3fe5c0c126d60daec00d0331c7167d47ec25f2f325ae"),
    0.6: ("346a719fa6194331d490b58e04cf649db6a48354d20c35c8e4ae38e9eba0b55e",
          "0x1.0000000000000p+0",
          "4d64e32fc536c68126976832ee8197b4406f5b43f87af2a0a79464e292c49a63",
          "30219dfc407a13792cfc11c465a7c9de02b0a7460c69c686b2ff54724e6c8e44"),
}


@pytest.mark.parametrize("nu, kind", list(CCQ_PINS))
def test_ccq_values_pinned_bit_for_bit(nu, kind):
    state, fam = honest_chsh_device(nu)
    maps = pin_eve_maps(kind, nu)
    values = (cc_sq_multi(state, fam, UNIFORM_XY, maps),
              intrinsic_nonlocality_upper(state, fam, maps),
              cmi_ccq(broadcast_ccq(state, fam, UNIFORM_XY, maps)))
    assert tuple(float.hex(v) for v in values) == CCQ_PINS[nu, kind]


def test_entropies_pinned_bit_for_bit():
    found = {}
    for d, rank, rho in pin_states():
        sigma = pin_state(d, d, 2000 + d)
        found[d, rank] = (float.hex(von_neumann_entropy(rho)),
                          float.hex(relative_entropy(rho, sigma)),
                          float.hex(relative_entropy(sigma, rho)))
    assert found == ENTROPY_PINS


@pytest.mark.parametrize("nu", list(ER_PINS))
def test_er_numeric_pinned_bit_for_bit(nu):
    assert float.hex(er_numeric(make_isotropic(nu), restarts=2)) == ER_PINS[nu]


def test_purify_pinned_bit_for_bit():
    digest = hashlib.sha256()
    for _, _, rho in pin_states() + [(4, 0, make_isotropic(nu)) for nu in PIN_NUS]:
        psi = purify(rho)
        digest.update(repr(psi.dims).encode())
        digest.update(psi.amplitudes.tobytes())
    assert digest.hexdigest() == PURIFY_DIGEST


@pytest.mark.parametrize("kind, p", list(SIMULATION_PINS))
def test_dephasing_simulation_pinned_bit_for_bit(kind, p):
    report = dephasing_simulation(kind, p)
    values = (report.p, report.dephasing_noise, report.omega_target, report.omega_dephasing,
              report.qber_target, report.qber_dephasing, report.chsh_deviation,
              report.qber_deviation)
    assert tuple(float.hex(v) for v in values) == SIMULATION_PINS[kind, p]


@pytest.mark.parametrize("nu", list(HONEST_BEHAVIOR_PINS))
def test_honest_behavior_and_local_weight_pinned_bit_for_bit(nu):
    b = behavior_from(*honest_chsh_device(nu))
    split = max_local_weight(b)
    found = (hashlib.sha256(b.table.tobytes()).hexdigest(), float.hex(split.local_weight),
             hashlib.sha256(split.vertex_weights.tobytes()).hexdigest(),
             hashlib.sha256(split.residual.table.tobytes()).hexdigest())
    assert found == HONEST_BEHAVIOR_PINS[nu]
