"""Entanglement and information measures.

Covers the relative entropy of entanglement (closed forms for the isotropic
and Bell-diagonal families plus a numerical upper-bound optimizer over
product ensembles), conditional mutual information on ccq states, classical
mutual information, and intrinsic-information minimization over Eve
post-processing channels.  Everything is in bits.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import operator
from typing import NamedTuple

import numpy as np

from .devices import EVE_HERMITICITY_TOL, CcqState, _probabilities
from .errors import AlphabetTooLargeError, DimensionMismatchError
from .linalg import psd_spectrum
from .states import DensityMatrix, binary_entropy, entropy_of_eigenvalues

TWO_SQRT2 = 2.0 * math.sqrt(2.0)
LN2 = math.log(2.0)

# Largest pool of deterministic Eve maps searched exhaustively, counted in set
# partitions of her alphabet: Bell(9) = 21,147 fits, Bell(10) = 115,975 does not.
# The whole pool is screened through a table over the 2^|E| subsets of Eve's
# alphabet; only a shortlist is re-scored exactly with `_det_channel_values`.
# `_map_pool` builds each pool once per (|E|, seed, cap) in a process and
# keeps the last 8; a sampled |E| = 16 entry holds 2.4 MB.
DET_CHANNEL_CAP = 50_000
# L-BFGS-B iterations per intrinsic-information restart.  A run whose channel
# heads for the simplex boundary crawls there (rows = theta**2 flattens the
# gradient) and would spend any cap, while the others converge in 20-40
# iterations.  Past 80 the crawl gains at most a few 1e-5 bit, and the cost of
# a call would follow the joint rather than the size of Eve's alphabet.
INTRINSIC_REFINE_ITERS = 80
_INTRINSIC_RESTARTS = 4  # L-BFGS-B starts per intrinsic-information call
MAX_EVE_ALPHABET = 16
# The subset table and `_det_channel_values` differ by a few 1e-15 (rounding),
# so every map screened within this of the cut is re-scored exactly.
_SCREEN_MARGIN = 1e-9


# Stopping tolerances of every L-BFGS-B descent, in the terms of scipy's
# ``minimize(method="L-BFGS-B")`` options; the other settings are its defaults.
_FTOL = 1e-14
_GTOL = 1e-10
_LBFGSB_MEMORY = 10  # correction pairs kept (scipy's maxcor)
_LBFGSB_MAXLS = 20  # line-search steps per iteration
_LBFGSB_MAXFUN = 15_000  # evaluations past which the next iteration stops a run


class Run(NamedTuple):
    """One start's run in `minimize`: the fields of scipy's result that callers read."""

    x: np.ndarray  # final iterate
    fun: float  # objective at the last evaluated point
    nfev: int  # objective evaluations
    nit: int  # L-BFGS-B iterations
    least: float  # least value evaluated: a NaN never counts, and inf if none is a number


class Descent(NamedTuple):
    """What `minimize` returns: one `Run` per start, in order, and their totals."""

    runs: tuple[Run, ...]
    nfev: int  # evaluations of every run, the count the benchmark's tracer reads
    nit: int  # iterations of every run, likewise
    least: float  # least value of every run


@functools.cache
def _lbfgsb_routine():
    """scipy's compiled extension ``scipy.optimize._lbfgsb``, loaded from its file.

    The file is found in scipy's ``optimize/`` directory and loaded under its
    full name without running that package's ``__init__``.  The extension
    uses single-phase init, so this is the same module object that
    ``import scipy.optimize`` holds, whichever of the two runs first.
    """
    import scipy

    found = importlib.machinery.PathFinder.find_spec(
        "_lbfgsb", [f"{scipy.__path__[0]}/optimize"])
    spec = importlib.util.spec_from_file_location("scipy.optimize._lbfgsb", found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def minimize(fun, x0, *, method, maxiter) -> Descent:
    """Unbounded L-BFGS-B from each row of ``x0`` in lockstep: scipy's routine, driven directly.

    ``fun(X) -> (values, gradients)`` takes a (k, n) block of points and
    returns their k values and (k, n) gradients, row i computed from row i
    of X alone.  Each start keeps its own state of scipy's compiled
    ``_lbfgsb.setulb``.  Every round advances each running start until it
    asks for f and g at a new point or stops, and one call of ``fun``
    answers all the asks, so the block shrinks as runs stop; a single start
    is a block of one row.

    Each run answers the reverse-communication calls as
    ``scipy.optimize.minimize(fun, x0[i], jac=True, method="L-BFGS-B")``
    does with the options maxiter, ftol 1e-14 and gtol 1e-10, and its default
    memory, line-search and evaluation limits: the same arguments and
    workspaces, x0 evaluated at the routine's first request (its start reads
    neither f nor g), a repeated request for the last evaluated point
    answered from it (scipy's cache), a copy of x passed to ``fun``, and the
    same stops.  Every iterate, the value and both counters of a run are
    therefore scipy's bit for bit, without the wrapper layers that cost as
    much as the objective.  ``least``, the one field scipy lacks, is the
    running minimum that `intrinsic_info` and `er_numeric` read.
    ``setulb`` is private scipy API: a test in tests/test_measures.py
    compares whole runs with ``scipy.optimize.minimize``, so a scipy release
    that changes the routine fails there.

    ``method`` must be "L-BFGS-B": the benchmark's tracer names its metrics
    after it, and reads the result counters (the totals over the runs).  Any
    other method, or an ``x0`` that is not a block, raises ValueError; any
    other keyword is a TypeError, never ignored.  Only the compiled
    routine is loaded, by file (`_lbfgsb_routine`): importing scipy.optimize
    runs the whole package (linprog, HiGHS, scipy.linalg, scipy.fft, ...),
    ~550 ms in a fresh process against ~3.5 ms for the extension.
    """
    x = np.array(x0, dtype=np.float64)  # one start per row, each row setulb's iterate
    if method != "L-BFGS-B" or x.ndim != 2 or not x.size:
        raise ValueError("minimize runs L-BFGS-B on fun(X) -> (values, gradients) from the "
                         "rows of a (k, n) block x0: it takes method='L-BFGS-B' only")
    _lbfgsb = _lbfgsb_routine()
    (k, n), m = x.shape, _LBFGSB_MEMORY
    g, evaluated = np.zeros((2, k, n))
    f, least, nfev, nit = [0.0] * k, [math.inf] * k, [0] * k, [0] * k
    bound, nbd = np.zeros(n), np.zeros(n, dtype=np.int32)  # no bounds on any variable
    wa = np.zeros((k, 2 * m * n + 5 * n + 11 * m * m + 8 * m))
    iwa = np.zeros((k, 3 * n), dtype=np.int32)
    task, ln_task = np.zeros((2, k, 2), dtype=np.int32)
    lsave, isave = np.zeros((k, 4), dtype=np.int32), np.zeros((k, 44), dtype=np.int32)
    dsave = np.zeros((k, 29))
    factr = _FTOL / np.finfo(float).eps
    # each run's rows of the workspaces, which setulb updates in place
    rows = list(zip(x, g, evaluated, wa, iwa, task, lsave, isave, dsave, ln_task))
    setulb, gtol, maxls = _lbfgsb.setulb, _GTOL, _LBFGSB_MAXLS
    running = range(k)
    while running:
        asking = []
        for i in running:
            x_i, g_i, evaluated_i, wa_i, iwa_i, task_i, lsave_i, isave_i, dsave_i, ln_i = rows[i]
            while True:
                setulb(m, x_i, bound, bound, nbd, f[i], g_i, factr, gtol, wa_i, iwa_i,
                       task_i, lsave_i, isave_i, dsave_i, maxls, ln_i)
                state = task_i[0]
                if state == 3:  # FG: f and g wanted at x
                    # scipy's cache test, np.array_equal, for a point that differs
                    # from the last evaluated one in its first coordinate (the
                    # usual case) in a tenth of the time
                    if nfev[i] == 0 or x_i[0] != evaluated_i[0] or not (x_i == evaluated_i).all():
                        asking.append(i)
                        break
                elif state == 1:  # NEW_X: an iteration is done
                    nit[i] += 1
                    # scipy's evaluation cap, checked where it checks it; a line search
                    # that fails and restarts lets one iteration take 2 * (maxls + 1)
                    # evaluations, so 400 iterations could pass it
                    if nit[i] >= maxiter:
                        task_i[:] = 5, 504  # STOP: iteration limit
                    elif nfev[i] > _LBFGSB_MAXFUN:
                        task_i[:] = 5, 502  # STOP: evaluation limit
                else:  # converged, stopped or failed
                    break
        if asking:
            block = x[asking]
            evaluated[asking] = block
            values, grads = fun(block)
            g[asking] = grads
            for i, value in zip(asking, np.asarray(values, dtype=np.float64).tolist()):
                f[i], least[i] = value, value if value < least[i] else least[i]
                nfev[i] += 1
        running = asking
    runs = tuple(map(Run, x, f, nfev, nit, least))
    return Descent(runs, sum(nfev), sum(nit), min(least))


def er_isotropic_closed(omega: float) -> float:
    """Relative entropy of entanglement of the isotropic state at CHSH value omega.

    The state is Bell-diagonal with largest weight, on Phi+, lam =
    3*omega/(8*sqrt(2)) + 1/4: separable (value 0) for lam <= 1/2, and
    otherwise `er_bell_diagonal_closed` of lam.
    """
    if not 0.0 <= omega <= TWO_SQRT2 + 1e-12:
        raise ValueError(f"omega={omega} outside [0, 2*sqrt(2)]")
    lam = 3.0 * omega / (8.0 * math.sqrt(2.0)) + 0.25
    return 0.0 if lam <= 0.5 else er_bell_diagonal_closed(lam)


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
    Eve blocks because A and B are classical registers.  The blocks' spectra
    are the ones `CcqState` keeps; only their sums are decomposed here.
    """
    ops = c.eve_ops
    n_a, n_b, d, _ = ops.shape
    sums = np.concatenate([ops.sum(axis=1), ops.sum(axis=0), ops.sum(axis=(0, 1))[None]])
    # CcqState holds each block Hermitian within EVE_HERMITICITY_TOL, so a sum
    # of n_a * n_b of them is within n_a * n_b times that; the PSD floor of
    # each summed block scales with its number of parts
    parts = np.repeat([n_b, n_a, n_a * n_b], [n_a, n_b, 1])
    w = psd_spectrum(sums, parts, n_a * n_b * EVE_HERMITICITY_TOL,
                     "summed ccq block").eigenvalues
    # one np.dot per block over its support, as in von_neumann_entropy: a dot
    # over zero-padded rows rounds differently once a block has 16 eigenvalues
    entropy = lambda rows: sum(entropy_of_eigenvalues(row) for row in rows)
    s_abe = entropy(c.spectrum.eigenvalues.reshape(-1, d))
    s_ae, s_be, s_e = entropy(w[:n_a]), entropy(w[n_a:-1]), entropy(w[-1:])
    value = s_ae + s_be - s_abe - s_e
    if value < -1e-9:
        raise ValueError(f"conditional mutual information {value:.3e} below -1e-9")
    return max(value, 0.0)


def _plogp(t: np.ndarray) -> np.ndarray:
    """t * log2(t) elementwise, 0 at t = 0 (log2 is floored at log2(1e-300)).

    There is no support cutoff: a cell of 1e-13 still carries 4e-12 bit.
    """
    return t * np.log2(np.maximum(t, 1e-300))


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
    conditionals = (p / p_e[None, None, :]).reshape(-1, len(keep))
    # close[e, e'] when max_ab |p(a,b|e) - p(a,b|e')| < 1e-12, one block of
    # symbols at a time so that no difference array exceeds ~2M elements
    block = max(1, 2_000_000 // (conditionals.size + 1))
    close = np.concatenate([
        np.abs(conditionals[:, start:start + block, None] - conditionals[:, None, :]).max(axis=0)
        < 1e-12 for start in range(0, len(keep), block)])
    # each symbol joins the first group whose first member is close to it
    groups: list[list[int]] = []
    for e in range(len(keep)):
        for g in groups:
            if close[e, g[0]]:
                g.append(e)
                break
        else:
            groups.append([e])
    if len(groups) == p.shape[2]:
        return p
    return np.stack([p[:, :, g].sum(axis=2) for g in groups], axis=2)


class _IntrinsicObjective:
    """I(A:B|F) after Eve's channel rows = theta**2 / (row sums), with its exact gradient.

    Every theta gives a stochastic matrix, so every evaluated value is a
    valid upper bound on the intrinsic information.  `value_and_grad` takes
    a block of thetas, one per row, and computes each row from that row
    alone, so a theta gets the same bits whatever block it comes in.
    """

    def __init__(self, p: np.ndarray):
        self.p = p

    def value_and_grad(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_a, n_b, n_e = self.p.shape
        k, ab = len(theta), n_a * n_b
        theta = theta.reshape(k, n_e, n_e)
        sq = theta * theta
        s = np.maximum(np.add.reduce(sq, axis=2, keepdims=True), 1e-300)
        rows = sq / s
        q = np.einsum("abe,kef->kabf", self.p, rows)
        # each theta's q(a,b,f), q(a,f), q(b,f) and q(f) in one (ab + a + b + 1, f)
        # block, so one floor, one log2 and one product cover all four tables
        cells = np.concatenate([q.reshape(k, ab, n_e), np.add.reduce(q, axis=2),
                                np.add.reduce(q, axis=1), np.add.reduce(q, axis=(1, 2))[:, None]],
                               axis=1)
        logs = np.log2(np.maximum(cells, 1e-300))
        terms = cells * logs
        abf, af, bf, f = slice(ab), slice(ab, ab + n_a), slice(ab + n_a, -1), slice(-1, None)

        # I = H(AF) + H(BF) - H(ABF) - H(F) over every cell: a support cutoff
        # would drop the tiny cells the optimizer drives toward and report
        # values below what the channel gives
        h_abf, h_af, h_bf, h_f = (np.add.reduce(terms[:, rows_of], axis=(1, 2))
                                  for rows_of in (abf, af, bf, f))
        values = h_abf + h_f - h_af - h_bf
        # dI/dq(abf) in bits, log2 q(a,b,f) + log2 q(f) - log2 q(a,f) - log2 q(b,f);
        # the -1/ln2 terms of the four entropies cancel
        g_q = (logs[:, abf].reshape(q.shape) + logs[:, None, f] - logs[:, af, None]
               - logs[:, None, bf])
        g_rows = np.einsum("abe,kabf->kef", self.p, g_q)
        g_rows -= np.add.reduce(g_rows * rows, axis=2, keepdims=True)
        g_rows /= s
        return values, (2.0 * theta * g_rows).reshape(k, -1)


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


def _map_chunk(p: np.ndarray) -> int:
    """Rows per block in the map search: ~2M array elements of one-hot channels.

    The screen takes blocks of the same number of maps and of subsets, whose
    temporaries are smaller still.
    """
    return max(1, 2_000_000 // (p.size * p.shape[2] + 1))


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

    chunk = _map_chunk(p)
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


def _subset_cmi_table(p: np.ndarray) -> np.ndarray:
    """phi(S) for every subset S of Eve's alphabet, indexed by bitmask.

    q_S(a,b) is the mass of the symbols in S merged into one, and phi(S) =
    sum_ab plogp(q_S) + plogp(sum q_S) - sum_a plogp(q_S(a,.)) - sum_b
    plogp(q_S(.,b)) is its term of I(A:B|F); phi(empty set) = 0.
    """
    n_a, n_b, n_e = p.shape
    p_flat = p.reshape(-1, n_e)
    q = np.zeros((1 << n_e, n_a * n_b))
    for e in range(n_e):  # the subsets holding e are those without it, plus e
        q[1 << e:2 << e] = q[:1 << e] + p_flat[:, e]
    # q @ margins holds the cells, the A marginals, the B marginals and the total
    margins = np.hstack([np.eye(n_a * n_b), np.kron(np.eye(n_a), np.ones((n_b, 1))),
                         np.kron(np.ones((n_a, 1)), np.eye(n_b)), np.ones((n_a * n_b, 1))])
    signs = np.repeat([1.0, -1.0, -1.0, 1.0], [n_a * n_b, n_a, n_b, 1])
    phi = np.empty(len(q))
    chunk = _map_chunk(p)
    for start in range(0, len(q), chunk):
        phi[start:start + chunk] = _plogp(q[start:start + chunk] @ margins) @ signs
    return phi


_MASK_CHUNK = 2048  # maps per block of `_block_masks`: each temporary is 256 KB at |E| = 16


def _block_masks(maps: np.ndarray) -> np.ndarray:
    """masks[i, f]: the bitmask of maps[i]^-1(f), the symbols that map i sends to output f.

    The masks of a block of maps come from one bincount of row * |E| + g(e)
    weighted by 2^e.  A sum of distinct powers of two is exact, and the
    `MAX_EVE_ALPHABET` = 16 bits fit a uint16.
    """
    n_e = maps.shape[1]
    bits = 2.0 ** np.arange(n_e)
    masks = np.empty(maps.shape, dtype=np.uint16)
    for start in range(0, len(maps), _MASK_CHUNK):
        block = maps[start:start + _MASK_CHUNK]
        cells = (np.arange(len(block))[:, None] * n_e + block).reshape(-1)
        masks[start:start + len(block)] = np.bincount(
            cells, weights=np.tile(bits, len(block)), minlength=block.size).reshape(block.shape)
    return masks


def _screen_values(p: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """`_det_channel_values` up to rounding, for the maps whose `_block_masks` are ``masks``.

    A deterministic map g splits Eve's alphabet into the blocks g^-1(f), and
    I(A:B|F) = sum_f phi(g^-1(f)) with phi from `_subset_cmi_table`.
    """
    phi = _subset_cmi_table(p)
    values = np.empty(len(masks))
    chunk = _map_chunk(p)
    # in blocks: one take over a sampled |E| = 16 pool is a 6.4 MB temporary, ~10% slower
    for start in range(0, len(masks), chunk):
        values[start:start + chunk] = phi.take(masks[start:start + chunk]).sum(axis=1)
    return np.clip(values, 0.0, None)


def _distinct_splits(maps: np.ndarray, order: np.ndarray) -> list[int]:
    """The first `_INTRINSIC_RESTARTS` maps in ``order`` that split Eve's alphabet differently.

    Relabeling Eve's output symbols leaves a map's value unchanged, so maps
    are told apart by their split alone.
    """
    found, seen = [], set()
    for i in order:
        if len(found) == _INTRINSIC_RESTARTS:
            break
        labels: dict[int, int] = {}
        split = tuple(labels.setdefault(f, len(labels)) for f in maps[i])
        if split not in seen:
            seen.add(split)
            found.append(int(i))
    return found


def _shortlist(p: np.ndarray, maps: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Indices, ascending, of every map that can be the best or a refinement start.

    The screen ranks ``maps`` through their ``masks``; T is the screened
    value at the 4th distinct split (the largest one when there are fewer),
    the least v with 4 splits screened at most v, whatever the order of
    ties.  A map whose exact value is at most the exact value at the 4th
    distinct split screens at most T plus twice the rounding gap, so keeping
    the maps screened within `_SCREEN_MARGIN` of T keeps the exact minimum
    and the whole prefix that the start selection walks, in the same stable
    order.
    """
    screen = _screen_values(p, masks)
    firsts = _distinct_splits(maps, np.argsort(screen))
    cut = screen[firsts[-1]] if len(firsts) == _INTRINSIC_RESTARTS else screen.max()
    return np.flatnonzero(screen <= cut + _SCREEN_MARGIN)


@functools.lru_cache(maxsize=8)
def _map_pool(n_e: int, seed: int, cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(maps, masks, jitter): what `intrinsic_info` searches at |E| = ``n_e``, all read-only.

    ``maps`` holds one deterministic map per row, maps[i, e] the output of
    symbol e (uint8): every partition of Eve's alphabet when Bell(|E|) <=
    ``cap``; otherwise ``cap`` maps drawn from ``default_rng(seed)``, the
    first replaced by the identity, and then the |E| constant maps.
    ``masks`` is `_block_masks(maps)`.  ``jitter``, the perturbation of the
    refinement starts, is the next draw of the same generator, so a cached
    pool starts refinement from the bits a fresh draw would.  ``cap`` is
    `DET_CHANNEL_CAP` as the caller reads it.
    """
    rng = np.random.default_rng(seed)
    if _bell(n_e) <= cap:
        maps = _partitions(n_e).astype(np.uint8)
    else:
        maps = np.empty((cap + n_e, n_e), dtype=np.uint8)
        maps[:cap] = rng.integers(0, n_e, size=(cap, n_e))
        maps[0] = np.arange(n_e)  # keep the identity in the pool
        maps[cap:] = np.arange(n_e)[:, None]  # the constant maps give I(A:B)
    jitter = 0.15 * rng.standard_normal((_INTRINSIC_RESTARTS, n_e, n_e))
    pool = maps, _block_masks(maps), jitter
    for array in pool:
        array.flags.writeable = False
    return pool


def intrinsic_info(p_abe: np.ndarray, *, seed: int = 0, refine: bool = True) -> float:
    """Best-found intrinsic information min over Eve channels of I(A:B|E').

    The search space is stochastic maps from Eve's symbol alphabet to an
    output alphabet of at most the same size.  Strategy: a deterministic
    map's value depends only on the partition of Eve's alphabet it induces,
    so every one of the Bell(|E|) partitions is tried when they fit under
    `DET_CHANNEL_CAP` (through |E| = 9); otherwise `DET_CHANNEL_CAP` seeded
    random maps plus the identity and the |E| constant maps, so the value
    never exceeds I(A:B).  The pool and each map's block masks do not
    depend on the joint: `_map_pool` builds them once per (|E|, seed, cap)
    in a process and keeps the last 8 (2.4 MB for a sampled |E| = 16 pool),
    so a call pays for the joint's table of every subset's term of
    I(A:B|F) and the screen of the pool through it.  The maps screened near
    the best splits are re-scored exactly.  Then L-BFGS-B with the exact
    gradient on the stochastic-matrix parametrization, from the 4 best
    deterministic maps that split Eve's alphabet differently: the 4 runs go
    in lockstep through `minimize`, one objective call answering every run
    that asks in a round, and each run is the one it would be alone, bit
    for bit.  Refinement is skipped when a deterministic map already gives
    exactly 0.  The result is a certified upper bound on the true minimum
    and never exceeds the unprocessed I(A:B|E).

    Eve alphabets above 16 symbols are rejected, after an exact reduction
    that drops zero-weight symbols and merges symbols with identical
    conditional distributions.  A ``seed`` that is not an integer raises
    TypeError.
    """
    try:
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, not {type(seed).__name__}") from None
    p = _reduce_alphabet(_distribution(p_abe, "abe"))
    n_e = p.shape[2]
    if n_e > MAX_EVE_ALPHABET:
        raise AlphabetTooLargeError(f"{n_e} Eve symbols exceed the cap {MAX_EVE_ALPHABET}")
    # the identity map gives the unprocessed I(A:B|E)
    best = float(_det_channel_values(p, np.arange(n_e)[None])[0])
    if n_e == 1 or best == 0.0:
        return best

    maps, masks, jitter = _map_pool(n_e, seed, DET_CHANNEL_CAP)
    maps = maps[_shortlist(p, maps, masks)]
    det_values = _det_channel_values(p, maps)
    best = min(best, float(det_values.min()))
    if not refine or best == 0.0:
        return best

    # start from the best maps that split Eve's alphabet differently
    # (cycled when there are fewer), all descending in one lockstep block
    firsts = _distinct_splits(maps, np.argsort(det_values, kind="stable"))
    starts = maps[np.resize(firsts, _INTRINSIC_RESTARTS)]
    thetas = np.eye(n_e)[starts] + jitter
    refined = minimize(_IntrinsicObjective(p).value_and_grad, thetas.reshape(len(starts), -1),
                       method="L-BFGS-B", maxiter=INTRINSIC_REFINE_ITERS)
    return max(min(best, refined.least), 0.0)


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
        self.neg_entropy = -entropy_of_eigenvalues(rho.spectrum.eigenvalues)  # sum lam log2 lam

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

    def value_and_grad(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Value and gradient at the one theta of a (1, n) block, in the form `minimize` calls."""
        (theta,) = block
        k, da, db, d = self.k, self.da, self.db, self.d
        w, a_raw, b_raw = self._unpack(theta)
        na = np.maximum(np.linalg.norm(a_raw, axis=1), 1e-150)
        nb = np.maximum(np.linalg.norm(b_raw, axis=1), 1e-150)
        a = a_raw / na[:, None]
        b = b_raw / nb[:, None]
        s = max(float(np.dot(w, w)), 1e-300)
        q = w * w / s
        v = np.einsum("ki,kj->kij", a, b).reshape(k, d)
        sigma = np.einsum("k,ki,kj->ij", q, v, v.conj())
        sigma = (1.0 - SEP_MIX_EPS) * sigma + SEP_MIX_EPS * np.eye(d) / d
        mu, u = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
        mu = np.clip(mu, 1e-300, None)
        r = u.conj().T @ self.rho @ u
        r_diag = np.clip(np.real(np.diag(r)), 0.0, None)
        value = self.neg_entropy - float(np.dot(r_diag, np.log2(mu)))

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
        return np.array([value]), grad[None]


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
        Ensemble size; defaults to 16 when the total dimension is 4 (two
        qubits, or a 1x4 state) and 24 otherwise.
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
    # one descent per restart, each a block of one start
    least = min(minimize(obj.value_and_grad,
                         np.random.default_rng([seed, r]).standard_normal((1, obj.n_params)),
                         method="L-BFGS-B", maxiter=_ER_MAXITER).least
                for r in range(restarts))
    return max(least, 0.0)
