"""Named key-rate bound generators and curve machinery.

Each generator produces upper bounds on device-independent key rates of the
CHSH-based device (explicit-attack evaluations, the fractional relative
entropy bound, the convex-hull combination) or of devices built on noisy
qubit channels.  Curves are sampled on an isotropic-noise grid by default;
every sample also records the CHSH value and the key-setting QBER so output
can be re-plotted against any axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .devices import (
    Behavior,
    CcqState,
    EveMap,
    MeasurementFamily,
    _input_distribution,
    _setting_ops,
    behavior_from,
    chsh_value,
    honest_chsh_device,
    noisy_key_povm,
    observable_povm,
    qber,
)
from .errors import (
    GridMismatchError,
    NoViolationError,
    NumericalFailureError,
)
from .measures import (
    TWO_SQRT2,
    cmi_ccq,
    er_bell_diagonal_closed,
    er_isotropic_closed,
)
from .polytope import LocalDecomposition, max_local_weight_with_residual
from .states import (
    ChannelKind,
    DensityMatrix,
    PAULI_X,
    PAULI_Z,
    QubitChannel,
    apply_channel,
    binary_entropy,
)

# No bound here calls these two any more, but the benchmark's tracer
# (bench/spans.py) wraps them as attributes of this module.
from .devices import assemble_ccq
from .measures import intrinsic_info

NU_STAR = 1.0 - 1.0 / math.sqrt(2.0)  # isotropic noise where the CHSH violation dies

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _omega(nu: float) -> float:
    """CHSH value of the honest device at isotropic noise nu, and of the
    depolarizing and erasure Choi devices at channel noise nu."""
    return TWO_SQRT2 * (1.0 - nu)


def _bell_c(omega: float) -> float:
    """C = sqrt((omega/2)^2 - 1), 0 below 2: Phi+ weight (1+C)/2 reaches CHSH value omega."""
    return math.sqrt(max((omega / 2.0) ** 2 - 1.0, 0.0))


@dataclass(frozen=True)
class CurveSample:
    param: float
    omega: float
    qber: float
    value: float


@dataclass(frozen=True)
class BoundCurve:
    """Ordered series of (param, omega, qber, value) samples for one bound."""

    name: str
    axis: str
    samples: tuple[CurveSample, ...]

    def __post_init__(self):
        params = [s.param for s in self.samples]
        if any(b <= a for a, b in zip(params, params[1:])):
            raise ValueError("curve params must be strictly increasing")
        for s in self.samples:
            if s.value < -1e-12 or s.value > 1.0 + 1e-9:
                raise ValueError(f"bound value {s.value} outside [0, 1] for a qubit key bound")

    @property
    def params(self) -> np.ndarray:
        return np.array([s.param for s in self.samples])

    @property
    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.samples])


def al_bound(nu: float) -> float:
    """Explicit quantum-attack bound: Bell-diagonal state, noisy key readout.

    The eavesdropper prepares the Bell mixture with Phi+ weight (1+C)/2,
    C = sqrt((omega/2)^2 - 1), matching the observed CHSH value
    omega = 2*sqrt(2)*(1-nu); Bob's key measurement outputs a random bit with
    probability 2p (p = nu/2).  Eve keeps the untouched purifier, so the
    value is I(A:B|E) of that ccq state.  Alice's Z outcome is a uniform bit,
    Eve's two conditional states are pure with overlap C, and Bob's readout
    is a binary symmetric channel independent of Eve given A, so
    I(A:B|E) = 1 - h((1+C)/2) - h(p) + h(lambda) with
    lambda = (1 + sqrt(1 - 4p(1-p)(1-C^2)))/2.  Zero when omega < 2.  The
    ccq state (`assemble_ccq`) is the attack's witness; the tests rebuild it
    to cross-check this closed form.
    """
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu={nu} outside [0, 1]")
    omega = _omega(nu)
    if omega < 2.0:
        return 0.0
    c = _bell_c(omega)
    p = nu / 2.0
    lam = (1.0 + math.sqrt(1.0 - 4.0 * p * (1.0 - p) * (1.0 - c * c))) / 2.0
    return max(1.0 - binary_entropy((1.0 + c) / 2.0) - binary_entropy(p)
               + binary_entropy(lam), 0.0)


@functools.cache
def _tsirelson_behavior() -> Behavior:
    """Behavior of the noiseless honest device: fbjl's quantum residual."""
    return behavior_from(*honest_chsh_device(0.0))


@functools.cache
def _fbjl_anchor(nu: float) -> LocalDecomposition:
    """Fixed-residual decomposition of the honest device, solved by LP.

    Called at the anchors only: nu* (every round local, q_L = 1) and 1 (the
    uniform behavior).
    """
    return max_local_weight_with_residual(behavior_from(*honest_chsh_device(nu)),
                                          _tsirelson_behavior())


def _fbjl_decomposition(nu: float) -> LocalDecomposition:
    """Fixed-residual decomposition of the honest device at nu, from the anchors.

    The honest behavior is affine in nu, so no LP runs here.  With
    t = nu / nu*, up to nu* the vertex weights are t w* and the Tsirelson
    residual carries 1 - t; beyond nu* they are s w* + (1 - s) w1 with
    s = (1 - nu) / (1 - nu*), and the residual carries nothing.
    """
    frontier = _fbjl_anchor(NU_STAR)
    if nu <= NU_STAR:
        t = nu / NU_STAR
        return replace(frontier, local_weight=t, vertex_weights=t * frontier.vertex_weights,
                       residual_used=t < 1.0)
    s = (1.0 - nu) / (1.0 - NU_STAR)
    return replace(frontier, vertex_weights=(s * frontier.vertex_weights
                                             + (1.0 - s) * _fbjl_anchor(1.0).vertex_weights))


def _fbjl_joint(nu: float) -> np.ndarray:
    """Key-setting distribution p(a, b, e) of the convex-combination attack.

    Built from `_fbjl_decomposition`.  Eve's symbols are the key-setting
    outcome pairs of the deterministic vertices, in order of first
    appearance, each a point mass on its own cell, and last "?" for the
    quantum rounds, which carries the noiseless device's key slice
    (diagonal; an all-zero column when no round is quantum).  Raises
    `NumericalFailureError` when the (a, b) marginal misses the honest key
    slice by more than 1e-12.
    """
    dec = _fbjl_decomposition(nu)
    columns: dict[object, np.ndarray] = {}
    for w, v in zip(dec.vertex_weights, dec.vertices):
        if w > 1e-12:
            cell = (v.a_map[0], v.b_map[0])
            columns.setdefault(cell, np.zeros((2, 2)))[cell] += w
    q_nl = 1.0 - dec.local_weight
    columns["?"] = np.zeros((2, 2))
    if dec.residual_used and q_nl > 1e-12:
        columns["?"] = q_nl * dec.residual.slice_xy(0, 0)
    p_abe = np.stack(list(columns.values()), axis=-1)
    p_abe /= p_abe.sum()
    key = np.array([[1.0 - nu / 2.0, nu / 2.0], [nu / 2.0, 1.0 - nu / 2.0]]) / 2.0
    if np.max(np.abs(p_abe.sum(axis=2) - key)) > 1e-12:
        raise NumericalFailureError(f"fbjl joint misses the honest key slice at nu={nu}")
    return p_abe


def fbjl_bound(nu: float) -> float:
    """Convex-combination attack bound with a quantum nonlocal part.

    The honest device's behavior at noise nu is split into a maximal-weight
    mixture of deterministic vertices plus the noiseless honest device (the
    Tsirelson-point behavior of the same measurements), so every round Eve
    hands out is realizable by a quantum device.  The optimal local weight
    is q_L = nu / nu* up to the frontier nu* = 1 - 1/sqrt(2) and 1 beyond
    it.  Eve's symbol is the vertex's key-setting outcome pair on local
    rounds and "?" on quantum rounds.  At nu = 0 every round is quantum and
    the value is one bit.

    The value is the intrinsic information of the key-setting distribution
    p(a, b, e), taken in closed form.  "?" has mass c = (1 - nu/nu*)/2 on
    (0,0) and on (1,1); the anti-correlated local symbols have mass
    beta = nu/4 on (0,1) and on (1,0).

    - Once c <= beta, that is nu >= nu0 = 2 nu* / (2 + nu*) ~ 0.25548
      (omega ~ 2.1058, QBER ~ 12.77%), Eve's channel that sends "?" and a
      fraction c / beta of each anti-correlated symbol to one output, and
      keeps every other symbol as its own output, leaves a rank-one slice in
      every output, so the value is exactly 0.
    - Below nu0 Eve merges "?" with both anti-correlated symbols.  The
      merged output holds c on (0,0) and (1,1) and beta on (0,1) and (1,0),
      so it carries 2(c + beta)(1 - h(c / (c + beta))) bit, and every other
      output is a point mass that carries nothing.  That merge is the best set
      partition of Eve's alphabet, and gradient refinement over stochastic
      channels never went below it (a 399-point grid, and hundreds of random
      starts at single points).

    `_fbjl_joint` builds p(a, b, e) from the LP decomposition: it is the
    attack's witness, and the tests check this formula against its partition
    search and against the explicit merge channel.
    """
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu={nu} outside [0, 1]")
    c = (1.0 - nu / NU_STAR) / 2.0
    beta = nu / 4.0
    if c <= beta:
        return 0.0
    return 2.0 * (c + beta) * (1.0 - binary_entropy(c / (c + beta)))


def _lower_hull(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Indices of the lower convex hull vertices, ties toward lower value."""
    hull: list[int] = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            cross = ((xs[i2] - xs[i1]) * (ys[i] - ys[i1])
                     - (ys[i2] - ys[i1]) * (xs[i] - xs[i1]))
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def convex_hull_bound(c1: BoundCurve, c2: BoundCurve) -> BoundCurve:
    """Lower convex envelope of the pointwise minimum of two bound curves.

    Both curves must share the same parameter axis and grid.  Mixing devices
    along the parameter axis is an allowed attack, so the hull is itself an
    upper bound on the key rate wherever the inputs are.
    """
    if c1.axis != c2.axis:
        raise GridMismatchError(f"curves are on different axes: {c1.axis!r} and {c2.axis!r}")
    x1, x2 = c1.params, c2.params
    if x1.shape != x2.shape or np.max(np.abs(x1 - x2)) > 1e-15:
        raise GridMismatchError("curves are not sampled on the same parameter grid")
    mins = np.minimum(c1.values, c2.values)
    support = _lower_hull(x1, mins)
    hull_vals = np.interp(x1, x1[support], mins[support])
    hull_vals = np.minimum(hull_vals, mins)  # guard against interpolation round-off
    samples = tuple(
        CurveSample(s.param, s.omega, s.qber, max(float(v), 0.0))
        for s, v in zip(c1.samples, hull_vals)
    )
    return BoundCurve(f"hull({c1.name},{c2.name})", c1.axis, samples)


def _golden_section(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-7:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


@functools.cache
def _hull_bridge() -> tuple[float, float]:
    """(nu_a, nu_b) ~ (0.147582, 0.204449), where al and fbjl touch their common tangent.

    Both are convex on [0, nu*] (a test checks it), so the lowest line of slope
    s touches each at the minimum of f(nu) - s nu.  al's lies below fbjl's at
    slopes steeper than the tangent's: bisection on s in [-10, -1] finds it.
    """
    lo, hi = -10.0, -1.0
    while hi - lo > 1e-12:
        s = (lo + hi) / 2.0
        nu_a, g_a = _golden_section(lambda nu: al_bound(nu) - s * nu, 0.0, NU_STAR)
        nu_b, g_b = _golden_section(lambda nu: fbjl_bound(nu) - s * nu, 0.0, NU_STAR)
        lo, hi = (s, hi) if g_a < g_b else (lo, s)
    return nu_a, nu_b


def hull_bound(nu: float) -> float:
    """Lower convex envelope of the al and fbjl bounds: al up to nu_a, fbjl from nu_b.

    In between (`_hull_bridge`) it mixes the two attacks at nu_a and nu_b, itself
    an attack, so an inexact bridge costs tightness but never validity.
    """
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu={nu} outside [0, 1]")
    nu_a, nu_b = _hull_bridge()
    if nu <= nu_a:
        return al_bound(nu)
    if nu >= nu_b:
        return fbjl_bound(nu)
    t = (nu - nu_a) / (nu_b - nu_a)
    return (1.0 - t) * al_bound(nu_a) + t * fbjl_bound(nu_b)


@functools.cache
def _fractional_minimizer() -> float:
    """omega_1* ~ 2.634547, where g(omega_1) = E_R(omega_1) / (omega_1 - 2) is least.

    g has a single minimum on (2, 2*sqrt(2)] (a test checks it on a dense grid).
    """
    return _golden_section(lambda w1: er_isotropic_closed(w1) / (w1 - 2.0),
                           2.0 + 1e-9, TWO_SQRT2)[0]


def _checked_omega(omega: float) -> float:
    """A CHSH value in [2, 2*sqrt(2)] within 1e-12, clamped to that range."""
    if not 2.0 - 1e-12 <= omega <= TWO_SQRT2 + 1e-12:
        raise ValueError(f"omega={omega} outside [2, 2*sqrt(2)]")
    return min(max(omega, 2.0), TWO_SQRT2)


def fractional_er_bound(omega: float) -> float:
    """Fractional relative-entropy bound for the CHSH protocol.

    Minimizes p * E_R(isotropic at omega_1) over omega_1 in [omega, 2*sqrt(2)]
    with the complementary weight placed on a CHSH-value-2 separable device
    (the optimal choice omega_2 = 2 makes p = (omega-2)/(omega_1-2) minimal).
    The objective is (omega - 2) g(omega_1), so the minimum sits at
    omega_1 = max(omega, omega_1*), with omega_1* from `_fractional_minimizer`.
    """
    omega = _checked_omega(omega)
    if omega <= 2.0:
        return 0.0
    w1 = max(omega, _fractional_minimizer())
    best = (omega - 2.0) / (w1 - 2.0) * er_isotropic_closed(w1)
    return float(min(max(best, 0.0), 1.0))


def pironio_er_bound(omega: float) -> float:
    """E_R of the Bell-diagonal attack state reproducing CHSH value omega."""
    c = _bell_c(_checked_omega(omega))
    return er_bell_diagonal_closed((1.0 + c) / 2.0)


def channel_di_bound(kind: ChannelKind, p: float) -> float:
    """Upper bound on the CHSH device-independent secret-key capacity.

    Dephasing: the device-dependent capacity 1 - H(p).  Depolarizing and
    erasure: the minimum of the dephasing-simulation term
    1 - H((1 - sqrt(1 - 4p + 2p^2))/2) (zero once the channel can no longer
    violate CHSH, p > 1 - 1/sqrt(2)) and the channel's own Choi-state
    relative entropy of entanglement (1 - H(3p/4) and 1 - p respectively).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if kind == "dephasing":
        return 1.0 - binary_entropy(p)
    disc = 1.0 - 4.0 * p + 2.0 * p * p
    if disc >= 0.0:
        chsh_term = 1.0 - binary_entropy((1.0 - math.sqrt(disc)) / 2.0)
    else:
        chsh_term = 0.0
    if kind == "depolarizing":
        return min(chsh_term, 1.0 - binary_entropy(3.0 * p / 4.0))
    if kind == "erasure":
        return min(chsh_term, 1.0 - p)
    raise ValueError(f"unknown channel kind {kind!r}")


@dataclass(frozen=True)
class SimulationReport:
    """Verification record for the dephasing simulation of a noisy channel.

    ``qber_target`` for the erasure channel is the conventional value 1: the
    erased rounds admit any declared error rate, and the construction pins
    both devices to the same extreme value (Alice's key outcome relabeled).
    """

    kind: str
    p: float
    dephasing_noise: float
    omega_target: float
    omega_dephasing: float
    qber_target: float
    qber_dephasing: float
    chsh_deviation: float
    qber_deviation: float
    chsh_match: bool = field(init=False)
    qber_match: bool = field(init=False)

    def __post_init__(self):
        # derived once from the deviations; frozen, hence object.__setattr__
        object.__setattr__(self, "chsh_match", bool(self.chsh_deviation <= 1e-9))
        object.__setattr__(self, "qber_match", bool(self.qber_deviation <= 1e-9))


def _erasure_extended(povm: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Lift a qubit POVM to the erasure qutrit, flag split evenly.

    The even split makes erased rounds contribute a uniform bit, so every
    CHSH correlator of the erased fraction vanishes.
    """
    out = []
    flag = np.zeros((3, 3), dtype=complex)
    flag[2, 2] = 1.0
    share = 1.0 / len(povm)
    for e in povm:
        lifted = np.zeros((3, 3), dtype=complex)
        lifted[:2, :2] = e
        out.append(lifted + share * flag)
    return tuple(out)


def _anti_z_povm() -> tuple[np.ndarray, np.ndarray]:
    """Z measurement with relabeled outcomes (used to pin QBER at 1)."""
    plus, minus = observable_povm(PAULI_Z)
    return minus, plus


def dephasing_simulation(kind: ChannelKind, p: float) -> SimulationReport:
    """Build a dephasing device replicating a noisy-channel CHSH device.

    The target device sends half of Phi+ through the requested channel and
    measures the honest CHSH settings.  The dephasing device uses noise
    q = (1-C)/2 with C = sqrt((omega*/2)^2 - 1), omega* = (1-p)*2*sqrt(2),
    and the tilted test measurements (Z +- C X)/sqrt(1+C^2) against Z, X;
    the key measurement is chosen so both devices report the same QBER.
    Raises `NoViolationError` when omega* < 2.
    """
    if kind not in ("depolarizing", "erasure"):
        raise ValueError(f"simulation target must be depolarizing or erasure, got {kind!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    omega_star = _omega(p)
    if omega_star < 2.0 - 1e-12:
        raise NoViolationError(f"omega* = {omega_star:.6f} < 2 at p = {p}")
    c = _bell_c(omega_star)
    q = min(max((1.0 - c) / 2.0, 0.0), 1.0)

    # target device: channel on Bob's half of Phi+, honest measurements
    phi, honest = honest_chsh_device(0.0)
    target_state = apply_channel(QubitChannel(kind, p), phi)
    bob_target = honest.bob
    if kind == "erasure":
        bob_target = tuple(_erasure_extended(e) for e in honest.bob)
    target_behavior = behavior_from(target_state, MeasurementFamily(honest.alice, bob_target))
    omega_target = chsh_value(target_behavior)

    # dephasing device: tilted measurements on the dephased Phi+
    deph_state = apply_channel(QubitChannel("dephasing", q), phi)
    norm = 1.0 / math.sqrt(1.0 + c * c)
    a1 = norm * (PAULI_Z + c * PAULI_X)
    a2 = norm * (PAULI_Z - c * PAULI_X)
    if kind == "depolarizing":
        qber_target = qber(target_behavior)
        alice_deph = (noisy_key_povm(qber_target),
                      observable_povm(a1), observable_povm(a2))
    else:
        qber_target = 1.0  # convention: erased rounds are declared errors
        alice_deph = (_anti_z_povm(), observable_povm(a1), observable_povm(a2))
    deph_behavior = behavior_from(deph_state, MeasurementFamily(alice_deph, honest.bob))
    omega_deph = chsh_value(deph_behavior)
    qber_deph = qber(deph_behavior)

    return SimulationReport(
        kind=kind, p=float(p), dephasing_noise=float(q),
        omega_target=float(omega_target), omega_dephasing=float(omega_deph),
        qber_target=float(qber_target), qber_dephasing=float(qber_deph),
        chsh_deviation=float(abs(omega_target - omega_deph)),
        qber_deviation=float(abs(qber_target - qber_deph)),
    )


def intrinsic_nonlocality_upper(state: DensityMatrix, family: MeasurementFamily,
                                eve_maps: dict[tuple[int, int], EveMap] | None = None) -> float:
    """Restricted upper-bound evaluator for the quantum intrinsic nonlocality.

    Evaluates max over settings (x, y) of I(A:B|E) on the per-setting ccq
    state whose Eve register is the purifier pushed through the supplied
    per-setting map.  The supremum over input distributions of the
    setting-flagged conditional mutual information equals this maximum
    because the setting registers are classical flags; the infimum over all
    extensions is not computed, so this is an upper bound only.
    """
    return max([0.0, *(cmi_ccq(CcqState(ops))
                       for _, _, ops in _setting_ops(state, family, eve_maps))])


def cc_sq_multi(state: DensityMatrix, family: MeasurementFamily, p_xy: np.ndarray,
                eve_maps: dict[tuple[int, int], EveMap] | None = None) -> float:
    """Input-averaged explicit-strategy bound over a measurement collection.

    Returns sum over settings of p(x, y) * I(A:B|E) with Eve holding the
    per-setting processed purifier; equals the flagged broadcast evaluation
    by the classical-flag decomposition identity.
    """
    p = _input_distribution(family, p_xy)
    return sum(p[x, y] * cmi_ccq(CcqState(ops))
               for x, y, ops in _setting_ops(state, family, eve_maps, p))


# ---------------------------------------------------------------------------
# curve generation
# ---------------------------------------------------------------------------

# Point functions of nu, by curve name.  Each looks its bound up by name when
# called, so a wrapper installed on the module attribute sees every sample.
# The relative-entropy bounds are 0 once the device no longer violates CHSH.
CURVES: dict[str, Callable[[float], float]] = {
    "al": lambda nu: al_bound(nu),
    "fbjl": lambda nu: fbjl_bound(nu),
    "hull": lambda nu: hull_bound(nu),
    "fractional": lambda nu: fractional_er_bound(_omega(nu)) if _omega(nu) >= 2.0 else 0.0,
    "pironio": lambda nu: pironio_er_bound(_omega(nu)) if _omega(nu) >= 2.0 else 0.0,
}


def bound_curve(name: str, grid: int = 64, lo: float | None = None,
                hi: float | None = None, axis: str = "nu") -> BoundCurve:
    """Sample one bound of `CURVES` on a parameter grid.

    ``axis`` is "nu" (isotropic noise, default range [0, 1 - 1/sqrt(2)]) or
    "omega" (CHSH value, default range [2, 2*sqrt(2)]).  Each sample carries
    the matching omega = 2*sqrt(2)*(1 - nu) and QBER = nu/2.
    """
    if name not in CURVES:
        raise ValueError(f"unknown curve {name!r}; pick one of {tuple(CURVES)}")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if axis == "nu":
        lo = 0.0 if lo is None else lo
        hi = NU_STAR if hi is None else hi
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"nu range [{lo}, {hi}] invalid")
        nus = np.linspace(lo, hi, grid)
        params = nus
    elif axis == "omega":
        lo = 2.0 if lo is None else lo
        hi = TWO_SQRT2 if hi is None else hi
        if not 0.0 <= lo < hi <= TWO_SQRT2 + 1e-12:
            raise ValueError(f"omega range [{lo}, {hi}] invalid")
        params = np.linspace(lo, hi, grid)
        # hi may pass 2*sqrt(2) by round-off, which must not give nu < 0
        nus = np.maximum(1.0 - params / TWO_SQRT2, 0.0)
    else:
        raise ValueError(f"axis must be 'nu' or 'omega', got {axis!r}")

    point = CURVES[name]
    samples = []
    for param, nu in zip(params, nus):
        nu = float(nu)
        samples.append(CurveSample(float(param), _omega(nu), nu / 2.0,
                                   float(max(point(nu), 0.0))))
    return BoundCurve(name, axis, tuple(samples))


def channel_curve(kind: ChannelKind, grid: int = 64, p_min: float = 0.0,
                  p_max: float = 1.0) -> BoundCurve:
    """Channel capacity bound sampled over the noise parameter.

    The omega column is the best CHSH value of the channel's Choi device
    (2*sqrt(2)*(1-p) for depolarizing/erasure, 2*sqrt(1+(1-2p)^2) for
    dephasing) and the QBER column the honest key-setting error rate
    (p/2 for depolarizing and erasure, 0 for dephasing).
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if not 0.0 <= p_min < p_max <= 1.0:
        raise ValueError(f"p range [{p_min}, {p_max}] invalid")
    samples = []
    for p in np.linspace(p_min, p_max, grid):
        p = float(p)
        if kind == "dephasing":
            omega = 2.0 * math.sqrt(1.0 + (1.0 - 2.0 * p) ** 2)
            err = 0.0
        else:
            omega = _omega(p)
            err = p / 2.0
        samples.append(CurveSample(p, omega, err, channel_di_bound(kind, p)))
    return BoundCurve(f"channel-{kind}", "p", tuple(samples))
