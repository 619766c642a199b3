"""Local-polytope decomposition: vertex enumeration and the local-weight LP.

The decomposition engine writes a behavior as q_L * (mixture of deterministic
vertices) + (1 - q_L) * (nonlocal residual) with q_L maximal, the residual
either left free (any no-signaling remainder) or fixed in advance.  A small
dense two-phase simplex with Bland's rule does the optimization; problem
sizes here are a few dozen variables, so robustness beats speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import Behavior
from .errors import (
    DimensionMismatchError,
    InfeasibleError,
    NumericalFailureError,
    TooManyVerticesError,
    UnboundedError,
)

# cells of `vertex_array`, vertices * x*y*a*b: building the LP of shape
# (8, 8, 2, 2), 2^24 cells, peaks at 0.5 GiB; (2, 2, 31, 31) would need 28 GB
VERTEX_CELL_CAP = 2**24
PIVOT_TOL = 1e-11


def enumerate_vertices(x_count: int, y_count: int, a_count: int,
                       b_count: int) -> np.ndarray:
    """Outcome table of the local polytope's deterministic vertices.

    Row i is vertex i: Alice's outcome for each of her inputs, then Bob's for
    each of his.  Rows are in lexicographic order, Alice's outcomes varying
    slowest.  Their count a^x * b^y times the x*y*a*b cells of each vertex's
    table, the size of `vertex_array`, must not exceed `VERTEX_CELL_CAP`.
    """
    if min(x_count, y_count, a_count, b_count) < 1:
        raise ValueError("all cardinalities must be at least 1")
    count = a_count**x_count * b_count**y_count
    cells = count * x_count * y_count * a_count * b_count
    if cells > VERTEX_CELL_CAP:
        raise TooManyVerticesError(f"{count} vertices of {cells // count} cells exceed "
                                   f"the cap of {VERTEX_CELL_CAP} cells")
    grid = np.indices((a_count,) * x_count + (b_count,) * y_count)
    return grid.reshape(x_count + y_count, count).T


def vertex_array(x_count: int, y_count: int, a_count: int, b_count: int) -> np.ndarray:
    """0/1 array d[x, y, a, b, i]: 1 where vertex i answers (a, b) to (x, y)."""
    outcomes = enumerate_vertices(x_count, y_count, a_count, b_count).T
    alice = outcomes[:x_count, None, :] == np.arange(a_count)[:, None]  # [x, a, i]
    bob = outcomes[x_count:, None, :] == np.arange(b_count)[:, None]  # [y, b, i]
    return (alice[:, None, :, None] & bob[None, :, None]).astype(float)


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int):
    tableau[row] /= tableau[row, col]
    hit = np.abs(tableau[:, col]) > 0.0
    hit[row] = False
    tableau[hit] -= np.outer(tableau[hit, col], tableau[row])
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                 n_cols: int, max_iter: int) -> None:
    """Minimize cost over the tableau in place (Bland's anti-cycling rule)."""
    for _ in range(max_iter):
        # reduced costs: c_j - c_B . B^-1 A_j
        reduced = cost[:n_cols] - cost[basis] @ tableau[:, :n_cols]
        improving = np.flatnonzero(reduced < -PIVOT_TOL)
        if improving.size == 0:
            return
        entering = improving[0]
        rows = np.flatnonzero(tableau[:, entering] > PIVOT_TOL)
        if rows.size == 0:
            raise UnboundedError("objective is unbounded along an entering direction")
        ratios = tableau[rows, -1] / tableau[rows, entering]
        # Bland: lowest ratio, ties to the lowest basic index
        _pivot(tableau, basis, rows[np.lexsort((basis[rows], ratios))[0]], entering)
    raise NumericalFailureError(f"simplex exceeded its {max_iter}-iteration cap")


def _rows(a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One constraint block as finite float arrays; no rows when ``a`` is None."""
    if a is None:
        return np.empty((0, n)), np.empty(0)
    a, b = np.atleast_2d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.size, n):
        raise DimensionMismatchError(f"constraint matrix {a.shape} does not match "
                                     f"{b.size} right-hand sides and {n} variables")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("constraint data contains NaN or Inf entries")
    return a, b


def simplex_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> np.ndarray:
    """Maximize c.x subject to a_ub x <= b_ub, a_eq x == b_eq, x >= 0.

    A dense two-phase tableau simplex.  Returns a primal-feasible x whose
    objective is within 1e-8 of the optimum (termination at nonnegative
    reduced costs certifies optimality of the final basis).  Raises
    `UnboundedError`, `InfeasibleError`, or `NumericalFailureError`.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    if not np.all(np.isfinite(c)):
        raise ValueError("objective contains NaN or Inf entries")
    (a_ub, b_ub), (a_eq, b_eq) = _rows(a_ub, b_ub, n), _rows(a_eq, b_eq, n)
    a, b = np.vstack([a_ub, a_eq]), np.concatenate([b_ub, b_eq])
    m, m_ub = b.size, b_ub.size
    if m == 0:
        raise ValueError("LP has no constraints")

    # Columns: x, one slack per <= row, then an artificial for every == row
    # and every row negated for its negative rhs (a flipped <= row is >=, so
    # its slack turns surplus).  Artificials start basic, slacks elsewhere.
    flip = b < 0
    needs_art = flip | (np.arange(m) >= m_ub)
    n_keep = n + m_ub  # columns that outlive phase 1
    tableau = np.hstack([np.where(flip[:, None], -a, a),
                         np.diag(np.where(flip, -1.0, 1.0))[:, :m_ub],
                         np.eye(m)[:, needs_art],
                         np.where(flip, -b, b)[:, None]])
    basis = np.where(needs_art, n_keep + np.cumsum(needs_art) - 1, n + np.arange(m))
    n_total = tableau.shape[1] - 1
    max_iter = 10 * (m + n_total)

    if needs_art.any():
        phase1 = np.zeros(n_total)
        phase1[n_keep:] = 1.0
        _run_simplex(tableau, basis, phase1, n_total, max_iter)
        art_rows = np.flatnonzero(basis >= n_keep)
        infeas = tableau[art_rows, -1].sum()
        if infeas > 1e-8:
            raise InfeasibleError(f"phase-1 optimum {infeas:.3e} > 0")
        # pivot remaining artificials out of the basis where possible
        for r in art_rows:
            cols = np.flatnonzero(np.abs(tableau[r, :n_keep]) > PIVOT_TOL)
            if cols.size:
                _pivot(tableau, basis, r, cols[0])
        tableau[:, n_keep:-1] = 0.0

    phase2 = np.zeros(n_total)
    phase2[:n] = -c  # minimize -c.x
    _run_simplex(tableau, basis, phase2, n_keep, max_iter)

    x = np.zeros(n_total)
    x[basis] = tableau[:, -1]
    return x[:n]


@dataclass(frozen=True, eq=False)
class LocalDecomposition:
    """Maximal-local-weight split of a behavior.

    ``vertex_weights`` aligns with the rows of `enumerate_vertices` for the
    behavior's shape and sums to ``local_weight``; ``residual`` is the
    normalized nonlocal part (the no-signaling remainder, or the fixed
    behavior it was solved against) and is flagged unused when the local part
    carries all the weight.
    """

    local_weight: float
    vertex_weights: np.ndarray
    residual: Behavior
    residual_used: bool

    def reconstruct(self) -> np.ndarray:
        """Reassembled table q_L * local mixture + (1 - q_L) * residual."""
        t = vertex_array(*self.residual.shape) @ self.vertex_weights
        if self.residual_used:
            t += (1.0 - self.local_weight) * self.residual.table
        return t


def max_local_weight(b: Behavior) -> LocalDecomposition:
    """Largest q_L with b = q_L * local + (1 - q_L) * no-signaling residual.

    Solves the LP  max sum_i p_i  subject to  sum_i p_i D_i(ab|xy) <= p(ab|xy)
    entrywise, p_i >= 0.  Always feasible (p = 0); the residual inherits
    no-signaling from the behavior and the vertices.  Dividing the leftover by
    1 - q_L magnifies the rounding of the LP and any signaling of the behavior
    under the 1e-9 tolerance; a residual that then fails `Behavior`'s checks
    raises `NumericalFailureError`, whose message gives 1 - q_L.
    """
    shape = b.shape
    d = vertex_array(*shape).reshape(b.table.size, -1)
    target = np.clip(b.table.reshape(-1), 0.0, None)
    weights = np.clip(simplex_solve(np.ones(d.shape[1]), d, target), 0.0, None)
    q_l = float(min(max(weights.sum(), 0.0), 1.0))
    if q_l < 1.0 - 1e-9:
        leftover = (target - d @ weights).reshape(shape)
        try:
            residual = Behavior(np.clip(leftover, 0.0, None) / (1.0 - q_l))
        except ValueError as exc:
            raise NumericalFailureError(f"nonlocal residual fails the behavior check after "
                                        f"division by 1 - q_L = {1.0 - q_l:.3e}: {exc}") from exc
        used = True
    else:
        residual = Behavior(np.full(shape, 1.0 / (shape[2] * shape[3])))
        used = False
    return LocalDecomposition(q_l, weights, residual, used)


def max_local_weight_with_residual(b: Behavior, residual: Behavior) -> LocalDecomposition:
    """Largest q_L with b = q_L * local + (1 - q_L) * residual, residual fixed.

    Solves the LP  max sum_i p_i  subject to  sum_i p_i (D_i - R) = b - R
    entrywise, sum_i p_i <= 1, p_i >= 0, with q_L = sum_i p_i.  Unlike
    `max_local_weight` the nonlocal part is the given behavior R, so a
    quantum R keeps the whole decomposition quantum.  The weight row keeps
    R's coefficient nonnegative; q_L within 1e-9 of 1 is rounded to 1 and the
    residual flagged unused.  Raises `InfeasibleError` when b is no such
    mixture, and `DimensionMismatchError` when the shapes differ.
    """
    shape = b.shape
    if residual.shape != shape:
        raise DimensionMismatchError(f"residual shape {residual.shape} differs from {shape}")
    d = vertex_array(*shape).reshape(b.table.size, -1)
    r = residual.table.reshape(-1)
    n = d.shape[1]
    weights = np.clip(simplex_solve(np.ones(n), np.ones((1, n)), np.ones(1), d - r[:, None],
                                    b.table.reshape(-1) - r), 0.0, None)
    q_l = float(min(max(weights.sum(), 0.0), 1.0))
    if q_l >= 1.0 - 1e-9:
        q_l = 1.0
    return LocalDecomposition(q_l, weights, residual, q_l < 1.0)
