"""Entanglement and information measures.

Covers the relative entropy of entanglement (closed forms for the isotropic
and Bell-diagonal families plus a numerical upper-bound optimizer over
product ensembles), conditional mutual information on ccq states, classical
mutual information, and intrinsic-information minimization over Eve
post-processing channels.  Everything is in bits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .devices import EVE_HERMITICITY_TOL, CcqState, _probabilities
from .errors import AlphabetTooLargeError, DimensionMismatchError
from .linalg import psd_eigenvalues
from .states import DensityMatrix, binary_entropy, entropy_of_eigenvalues

TWO_SQRT2 = 2.0 * math.sqrt(2.0)
LN2 = math.log(2.0)

# Largest pool of deterministic Eve maps searched exhaustively, counted in set
# partitions of her alphabet: Bell(9) = 21,147 fits, Bell(10) = 115,975 does not.
DET_CHANNEL_CAP = 50_000
# L-BFGS-B iterations per intrinsic-information restart.  A run whose channel
# heads for the simplex boundary crawls there (rows = theta**2 flattens the
# gradient) and would spend any cap, while the others converge in 20-40
# iterations.  Past 80 the crawl gains at most a few 1e-5 bit, and the cost of
# a call would follow the joint rather than the size of Eve's alphabet.
INTRINSIC_REFINE_ITERS = 80
_INTRINSIC_RESTARTS = 4  # L-BFGS-B starts per intrinsic-information call
MAX_EVE_ALPHABET = 16


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use.

    Importing scipy.optimize is most of the package's import time, and the
    CLI commands that never optimize should not pay for it.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def er_isotropic_closed(omega: float) -> float:
    """Relative entropy of entanglement of the isotropic state at CHSH value omega.

    The Phi+ weight is lam = 3*omega/(8*sqrt(2)) + 1/4; the state is separable
    (value 0) for lam <= 1/2 and otherwise E_R = 1 - H(lam).
    """
    if not 0.0 <= omega <= TWO_SQRT2 + 1e-12:
        raise ValueError(f"omega={omega} outside [0, 2*sqrt(2)]")
    lam = 3.0 * omega / (8.0 * math.sqrt(2.0)) + 0.25
    lam = min(lam, 1.0)
    if lam <= 0.5:
        return 0.0
    return 1.0 - binary_entropy(lam)


def er_bell_diagonal_closed(lambda_max: float) -> float:
    """E_R of a Bell-diagonal state with largest Bell weight lambda_max >= 1/2."""
    if not 0.5 <= lambda_max <= 1.0 + 1e-12:
        raise ValueError(f"lambda_max={lambda_max} outside [1/2, 1]")
    return 1.0 - binary_entropy(min(lambda_max, 1.0))


def _distribution(p: np.ndarray, indices: str) -> np.ndarray:
    """``p`` checked to be a probability table indexed ``indices``, then clipped at 0."""
    t = np.asarray(p, dtype=float)
    if t.ndim != len(indices):
        raise DimensionMismatchError(f"joint distribution must be indexed [{']['.join(indices)}]")
    return np.clip(_probabilities(t, "joint distribution"), 0.0, None)


def mutual_info(p: np.ndarray) -> float:
    """I(A:B) of a joint distribution table p[a][b], in bits."""
    t = _distribution(p, "ab")
    h = lambda x: -float(_plogp(x).sum())
    return max(h(t.sum(axis=1)) + h(t.sum(axis=0)) - h(t), 0.0)


def cmi_ccq(c: CcqState) -> float:
    """I(A:B|E) of a ccq state, exploiting the classical block structure.

    S(ABE), S(AE) and S(BE) decompose into entropies of the subnormalized
    Eve blocks because A and B are classical registers.
    """
    ops = c.eve_ops
    n_a, n_b, d, _ = ops.shape
    blocks = np.concatenate([ops.reshape(-1, d, d), ops.sum(axis=1), ops.sum(axis=0),
                             ops.sum(axis=(0, 1))[None]])
    # CcqState holds each block Hermitian within EVE_HERMITICITY_TOL, so a sum
    # of n_a * n_b of them is within n_a * n_b times that
    w = psd_eigenvalues(blocks, n_a * n_b * EVE_HERMITICITY_TOL, "ccq block")
    # one np.dot per block over its support, as in von_neumann_entropy: a dot
    # over zero-padded rows rounds differently once a block has 16 eigenvalues
    h = [entropy_of_eigenvalues(row) for row in w]
    ae, be = n_a * n_b, n_a * n_b + n_a  # where the AE and the BE blocks start
    s_abe, s_ae, s_be, s_e = sum(h[:ae]), sum(h[ae:be]), sum(h[be:-1]), sum(h[-1:])
    value = s_ae + s_be - s_abe - s_e
    if value < -1e-9:
        raise ValueError(f"conditional mutual information {value:.3e} below -1e-9")
    return max(value, 0.0)


def _log2(t: np.ndarray) -> np.ndarray:
    """log2 elementwise, floored at log2(1e-300) so that zero cells stay finite."""
    return np.log2(np.maximum(t, 1e-300))


def _plogp(t: np.ndarray) -> np.ndarray:
    """t * log2(t) elementwise, 0 at t = 0.

    There is no support cutoff: a cell of 1e-13 still carries 4e-12 bit.
    """
    return t * _log2(t)


def _reduce_alphabet(p: np.ndarray) -> np.ndarray:
    """Drop zero-probability Eve symbols and merge identical conditionals.

    Both steps are exact: a zero-weight symbol never occurs, and symbols with
    equal conditional distributions p(a,b|e) are interconvertible by
    stochastic maps in either direction, so the intrinsic information is
    unchanged.
    """
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
    merged = np.stack([p[:, :, g].sum(axis=2) for g in groups], axis=2)
    return merged


class _IntrinsicObjective:
    """I(A:B|F) after Eve's channel rows = theta**2 / (row sums), with its exact gradient.

    Every theta gives a stochastic matrix, so every evaluated value is a
    valid upper bound on the intrinsic information; the lowest one is kept.
    """

    def __init__(self, p: np.ndarray):
        self.p = p
        self.n_e = p.shape[2]
        self.best = math.inf

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        theta = theta.reshape(self.n_e, self.n_e)
        sq = theta * theta
        s = np.clip(sq.sum(axis=1, keepdims=True), 1e-300, None)
        rows = sq / s
        q = np.einsum("abe,ef->abf", self.p, rows)
        q_af = q.sum(axis=1, keepdims=True)
        q_bf = q.sum(axis=0, keepdims=True)
        q_f = q.sum(axis=(0, 1), keepdims=True)

        # I = H(AF) + H(BF) - H(ABF) - H(F) over every cell: a support cutoff
        # would drop the tiny cells the optimizer drives toward and report
        # values below what the channel gives
        cells = (q, q_af, q_bf, q_f)
        l_abf, l_af, l_bf, l_f = logs = [_log2(t) for t in cells]
        h_abf, h_af, h_bf, h_f = (float((t * lg).sum()) for t, lg in zip(cells, logs))
        value = h_abf + h_f - h_af - h_bf
        # dI/dq(abf) in bits; the -1/ln2 terms of the four entropies cancel
        g_q = l_abf + l_f - l_af - l_bf
        if value < self.best:
            self.best = value
        g_rows = np.einsum("abe,abf->ef", self.p, g_q)
        g_sq = (g_rows - (g_rows * rows).sum(axis=1, keepdims=True)) / s
        return value, (2.0 * theta * g_sq).reshape(-1)


def _bell(n: int) -> int:
    """Number of set partitions of n symbols (last entry of row n of Bell's triangle)."""
    row = [1]
    for _ in range(n - 1):
        row = list(itertools.accumulate(row, initial=row[-1]))
    return row[-1]


def _partitions(n: int) -> np.ndarray:
    """Every set partition of n symbols, one row each, as a restricted growth string.

    Row entry e is the block of symbol e, blocks numbered in the order they
    first appear, so each partition is written exactly once (Bell(n) rows,
    in lexicographic order).
    """
    rows = np.zeros((1, 1), dtype=int)
    for _ in range(n - 1):
        counts = rows.max(axis=1) + 2  # an existing block or a new one
        parent = np.repeat(np.arange(len(rows)), counts)
        label = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack([rows[parent], label])
    return rows


def _det_channel_values(p: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """I(A:B|F), clipped at 0, after each deterministic map in ``maps`` (one row per map).

    Each block of maps becomes one-hot channels, q = p @ one_hot is one
    batched matmul, and every entropy is summed over all cells with `_plogp`.
    """
    n_a, n_b, n_e = p.shape
    p_flat = p.reshape(-1, n_e)
    outputs = np.arange(n_e)
    values = np.empty(len(maps))

    def ent(t):  # entropy of each joint in a block
        return -_plogp(t).reshape(len(t), -1).sum(axis=1)

    chunk = max(1, 2_000_000 // (p.size * n_e + 1))
    for start in range(0, len(maps), chunk):
        block = maps[start:start + chunk]
        one_hot = (block[:, :, None] == outputs).astype(float)
        q = np.matmul(p_flat, one_hot).reshape(len(block), n_a, n_b, n_e)
        h_abe = ent(q)
        h_ae = ent(q.sum(axis=2))
        h_be = ent(q.sum(axis=1))
        h_e = ent(q.sum(axis=(1, 2)))
        values[start:start + len(block)] = h_ae + h_be - h_abe - h_e
    return np.clip(values, 0.0, None)


def intrinsic_info(p_abe: np.ndarray, *, seed: int = 0, refine: bool = True) -> float:
    """Best-found intrinsic information min over Eve channels of I(A:B|E').

    The search space is stochastic maps from Eve's symbol alphabet to an
    output alphabet of at most the same size.  Strategy: a deterministic
    map's value depends only on the partition of Eve's alphabet it induces,
    so every one of the Bell(|E|) partitions is tried when they fit under
    `DET_CHANNEL_CAP` (through |E| = 9); otherwise `DET_CHANNEL_CAP` seeded
    random maps plus the identity and the |E| constant maps, so the value
    never exceeds I(A:B).  Then L-BFGS-B with the exact gradient on the
    stochastic-matrix parametrization, from the 4 best deterministic maps
    that split Eve's alphabet differently.  Refinement is skipped when a
    deterministic map already gives exactly 0.  The result is a certified
    upper bound on the true minimum and never exceeds the unprocessed
    I(A:B|E).

    Eve alphabets above 16 symbols are rejected, after an exact reduction
    that drops zero-weight symbols and merges symbols with identical
    conditional distributions.
    """
    p = _reduce_alphabet(_distribution(p_abe, "abe"))
    n_e = p.shape[2]
    if n_e > MAX_EVE_ALPHABET:
        raise AlphabetTooLargeError(f"{n_e} Eve symbols exceed the cap {MAX_EVE_ALPHABET}")
    # the identity map gives the unprocessed I(A:B|E)
    best = float(_det_channel_values(p, np.arange(n_e)[None])[0])
    if n_e == 1 or best == 0.0:
        return best

    rng = np.random.default_rng(seed)
    if _bell(n_e) <= DET_CHANNEL_CAP:
        maps = _partitions(n_e)
    else:
        maps = rng.integers(0, n_e, size=(DET_CHANNEL_CAP, n_e))
        maps[0] = np.arange(n_e)  # keep the identity in the pool
        constant = np.repeat(np.arange(n_e)[:, None], n_e, axis=1)
        maps = np.concatenate([maps, constant])  # these give I(A:B)
    det_values = _det_channel_values(p, maps)
    best = min(best, float(det_values.min()))
    if not refine or best == 0.0:
        return best

    # Relabeling Eve's output symbols leaves the value unchanged, so start
    # from the best maps that split her alphabet differently.
    starts, seen = [], set()
    for i in np.argsort(det_values, kind="stable"):
        if len(starts) == _INTRINSIC_RESTARTS:
            break
        labels: dict[int, int] = {}
        split = tuple(labels.setdefault(f, len(labels)) for f in maps[i])
        if split not in seen:
            seen.add(split)
            starts.append(maps[i])
    starts = [starts[i % len(starts)] for i in range(_INTRINSIC_RESTARTS)]
    objective = _IntrinsicObjective(p)
    for g in starts:
        theta0 = np.zeros((n_e, n_e))
        theta0[np.arange(n_e), g] = 1.0
        theta0 = theta0 + 0.15 * rng.standard_normal((n_e, n_e))
        minimize(objective.value_and_grad, theta0.reshape(-1), jac=True,
                 method="L-BFGS-B",
                 options={"maxiter": INTRINSIC_REFINE_ITERS, "ftol": 1e-14,
                          "gtol": 1e-10})
    return max(min(best, objective.best), 0.0)


# ---------------------------------------------------------------------------
# numerical relative entropy of entanglement over product ensembles
# ---------------------------------------------------------------------------

SEP_MIX_EPS = 1e-12  # mixed-in identity weight; keeps sigma separable and full rank
_ER_MAXITER = 400  # L-BFGS-B iterations per er_numeric restart


class _ErObjective:
    """D(rho || sigma(theta)) with its exact gradient.

    theta packs ensemble weights (squared-normalized) and unnormalized local
    vectors for each of the k product terms.  sigma is mixed with
    SEP_MIX_EPS * I/d, which is itself separable, so every evaluation is a
    valid upper bound on E_R.
    """

    def __init__(self, rho: DensityMatrix, k: int):
        self.da, self.db = rho.dims
        self.d = self.da * self.db
        self.k = k
        self.rho = rho.matrix
        self.neg_entropy = -entropy_of_eigenvalues(psd_eigenvalues(self.rho))  # sum lam log2 lam
        self.best = math.inf

    @property
    def n_params(self) -> int:
        return self.k * (1 + 2 * self.da + 2 * self.db)

    def _unpack(self, theta: np.ndarray):
        k, da, db = self.k, self.da, self.db
        w = theta[:k]
        off = k
        a = theta[off:off + k * da] + 1j * theta[off + k * da:off + 2 * k * da]
        off += 2 * k * da
        b = theta[off:off + k * db] + 1j * theta[off + k * db:off + 2 * k * db]
        return w, a.reshape(k, da), b.reshape(k, db)

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        k, da, db, d = self.k, self.da, self.db, self.d
        w, a_raw, b_raw = self._unpack(theta)
        na = np.linalg.norm(a_raw, axis=1)
        nb = np.linalg.norm(b_raw, axis=1)
        na = np.where(na < 1e-150, 1e-150, na)
        nb = np.where(nb < 1e-150, 1e-150, nb)
        a = a_raw / na[:, None]
        b = b_raw / nb[:, None]
        s = float(np.dot(w, w))
        if s < 1e-300:
            q = np.full(k, 1.0 / k)
        else:
            q = w * w / s
        v = np.einsum("ki,kj->kij", a, b).reshape(k, d)
        sigma = np.einsum("k,ki,kj->ij", q, v, v.conj())
        sigma = (1.0 - SEP_MIX_EPS) * sigma + SEP_MIX_EPS * np.eye(d) / d
        mu, u = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
        mu = np.clip(mu, 1e-300, None)
        r = u.conj().T @ self.rho @ u
        r_diag = np.clip(np.real(np.diag(r)), 0.0, None)
        value = self.neg_entropy - float(np.dot(r_diag, np.log2(mu)))
        if value < self.best:
            self.best = value

        # gradient of tr(rho log2 sigma) via the divided-difference kernel
        log_mu = np.log(mu)
        diff = mu[:, None] - mu[None, :]
        same = np.abs(diff) < 1e-14 * np.maximum(mu[:, None], mu[None, :])
        denom = np.where(same, 1.0, diff)
        fdd = np.where(same, 1.0 / np.maximum((mu[:, None] + mu[None, :]) / 2.0, 1e-300),
                       (log_mu[:, None] - log_mu[None, :]) / denom)
        g = -(u @ (r * fdd) @ u.conj().T) / LN2  # d value / d sigma
        g = (g + g.conj().T) / 2.0
        scale = 1.0 - SEP_MIX_EPS

        g_q = scale * np.real(np.einsum("ki,ij,kj->k", v.conj(), g, v))
        if s < 1e-300:
            grad_w = np.zeros(k)
        else:
            grad_w = (2.0 * w / s) * (g_q - float(np.dot(q, g_q)))

        g4 = g.reshape(da, db, da, db)
        ga = np.einsum("kj,ijmn,kn->kim", b.conj(), g4, b)
        gb = np.einsum("ki,ijmn,km->kjn", a.conj(), g4, a)
        gaa = np.einsum("kim,km->ki", ga, a)
        gbb = np.einsum("kjn,kn->kj", gb, b)
        quad = np.real(np.einsum("ki,ki->k", a.conj(), gaa))
        h_a = 2.0 * scale * (q / na)[:, None] * (gaa - quad[:, None] * a)
        quad_b = np.real(np.einsum("kj,kj->k", b.conj(), gbb))
        h_b = 2.0 * scale * (q / nb)[:, None] * (gbb - quad_b[:, None] * b)

        grad = np.concatenate([
            grad_w,
            np.real(h_a).reshape(-1), np.imag(h_a).reshape(-1),
            np.real(h_b).reshape(-1), np.imag(h_b).reshape(-1),
        ])
        return value, grad


def er_numeric(rho: DensityMatrix, k: int | None = None, restarts: int = 8,
               seed: int = 0) -> float:
    """Numerical upper bound on the relative entropy of entanglement.

    Minimizes D(rho || sigma) over separable sigma parametrized as a mixture
    of ``k`` product pure states (weights through squared normalization,
    local vectors through explicit normalization), using seeded multi-start
    quasi-Newton descent with the exact analytic gradient.  Every evaluated
    sigma is separable, so the running minimum is always a valid upper
    bound; identical seeds give identical results.

    Parameters
    ----------
    rho : DensityMatrix
        Bipartite state with total dimension at most 12 (2x2 and 2x3 targeted).
    k : int, optional
        Ensemble size; defaults to 16 for two qubits and 24 otherwise.
    restarts : int
        Number of independent seeded starts.
    seed : int
        Base RNG seed.
    """
    if len(rho.dims) != 2:
        raise DimensionMismatchError("er_numeric expects a bipartite state")
    if rho.dim > 12:
        raise DimensionMismatchError(f"total dimension {rho.dim} exceeds 12")
    if k is None:
        k = 16 if rho.dim == 4 else 24
    if k < 1 or restarts < 1:
        raise ValueError(f"ensemble size {k} and restarts {restarts} must be positive")
    obj = _ErObjective(rho, k)
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        theta0 = rng.standard_normal(obj.n_params)
        minimize(obj.value_and_grad, theta0, jac=True, method="L-BFGS-B",
                 options={"maxiter": _ER_MAXITER, "ftol": 1e-14, "gtol": 1e-10})
    return max(obj.best, 0.0)
