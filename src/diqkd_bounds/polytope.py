"""Local-polytope decomposition: vertex enumeration and the local-weight LP.

The decomposition engine writes a behavior as q_L * (mixture of deterministic
vertices) + (1 - q_L) * (nonlocal residual) with q_L maximal, the residual
either left free (any no-signaling remainder) or fixed in advance.  A small
dense two-phase simplex with Bland's rule does the optimization; problem
sizes here are a few dozen variables, so robustness beats speed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .devices import Behavior
from .errors import (
    DimensionMismatchError,
    InfeasibleError,
    NumericalFailureError,
    TooManyVerticesError,
    UnboundedError,
)

VERTEX_CAP = 10**6
PIVOT_TOL = 1e-11


class DeterministicVertex(NamedTuple):
    """Local deterministic strategy: one outcome per input per party."""

    a_map: tuple[int, ...]  # outcome for each Alice input
    b_map: tuple[int, ...]  # outcome for each Bob input


def enumerate_vertices(x_count: int, y_count: int, a_count: int,
                       b_count: int) -> list[DeterministicVertex]:
    """All deterministic vertices of the local polytope, lexicographic order.

    The Alice map varies slowest; total count is a^x * b^y and must not
    exceed the 10^6 cap.
    """
    if min(x_count, y_count, a_count, b_count) < 1:
        raise ValueError("all cardinalities must be at least 1")
    count = a_count**x_count * b_count**y_count
    if count > VERTEX_CAP:
        raise TooManyVerticesError(f"{count} vertices exceed the cap {VERTEX_CAP}")
    vertices = []
    for a_map in itertools.product(range(a_count), repeat=x_count):
        for b_map in itertools.product(range(b_count), repeat=y_count):
            vertices.append(DeterministicVertex(a_map, b_map))
    return vertices


def vertex_table(v: DeterministicVertex, y_count_dims: tuple[int, int, int, int]) -> np.ndarray:
    """Behavior table of a deterministic vertex."""
    x_count, y_count, a_count, b_count = y_count_dims
    t = np.zeros((x_count, y_count, a_count, b_count))
    for x in range(x_count):
        for y in range(y_count):
            t[x, y, v.a_map[x], v.b_map[y]] = 1.0
    return t


@dataclass(frozen=True)
class LinearProgram:
    """maximize c.x  subject to  a_ub x <= b_ub, a_eq x == b_eq, x >= 0."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None


class SimplexResult(NamedTuple):
    x: np.ndarray
    objective: float


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


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Solve a standard-form LP with a dense two-phase tableau simplex.

    Returns a primal-feasible solution whose objective is within 1e-8 of the
    optimum (termination at nonnegative reduced costs certifies optimality of
    the final basis).  Raises `UnboundedError`, `InfeasibleError`, or
    `NumericalFailureError`.
    """
    c = np.asarray(lp.c, dtype=float)
    n = c.size
    if not np.all(np.isfinite(c)):
        raise ValueError("objective contains NaN or Inf entries")
    (a_ub, b_ub), (a_eq, b_eq) = _rows(lp.a_ub, lp.b_ub, n), _rows(lp.a_eq, lp.b_eq, n)
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
    x = x[:n]
    return SimplexResult(x, float(c @ x))


@dataclass(frozen=True)
class LocalDecomposition:
    """Maximal-local-weight split of a behavior.

    ``vertex_weights`` aligns with `enumerate_vertices` order and sums to
    ``local_weight``; ``residual`` is the normalized nonlocal part (the
    no-signaling remainder, or the fixed behavior it was solved against) and
    is flagged unused when the local part carries all the weight.
    """

    local_weight: float
    vertex_weights: np.ndarray
    vertices: tuple[DeterministicVertex, ...]
    residual: Behavior
    residual_used: bool

    def reconstruct(self) -> np.ndarray:
        """Reassembled table q_L * local mixture + (1 - q_L) * residual."""
        shape = self.residual.table.shape
        t = np.zeros(shape)
        for w, v in zip(self.vertex_weights, self.vertices):
            if w > 0.0:
                t += w * vertex_table(v, shape)
        if self.residual_used:
            t += (1.0 - self.local_weight) * self.residual.table
        return t


def _vertex_matrix(shape: tuple[int, int, int, int]) -> tuple[list[DeterministicVertex], np.ndarray]:
    """Vertices and the matrix whose column j is vertex j's flattened table."""
    vertices = enumerate_vertices(*shape)
    return vertices, np.stack([vertex_table(v, shape).reshape(-1) for v in vertices], axis=1)


def max_local_weight(b: Behavior) -> LocalDecomposition:
    """Largest q_L with b = q_L * local + (1 - q_L) * no-signaling residual.

    Solves the LP  max sum_i p_i  subject to  sum_i p_i D_i(ab|xy) <= p(ab|xy)
    entrywise, p_i >= 0.  Always feasible (p = 0); the residual inherits
    no-signaling from the behavior and the vertices.
    """
    shape = b.shape
    a_count, b_count = shape[2], shape[3]
    vertices, d = _vertex_matrix(shape)
    target = np.clip(b.table.reshape(-1), 0.0, None)
    res = simplex_solve(LinearProgram(c=np.ones(d.shape[1]), a_ub=d, b_ub=target))
    weights = np.clip(res.x, 0.0, None)
    q_l = float(min(max(weights.sum(), 0.0), 1.0))
    if q_l < 1.0 - 1e-9:
        leftover = (target - d @ weights).reshape(shape)
        residual = Behavior(np.clip(leftover, 0.0, None) / (1.0 - q_l))
        used = True
    else:
        uniform = np.full(shape, 1.0 / (a_count * b_count))
        residual = Behavior(uniform)
        used = False
    return LocalDecomposition(q_l, weights, tuple(vertices), residual, used)


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
    vertices, d = _vertex_matrix(shape)
    r = residual.table.reshape(-1)
    n = d.shape[1]
    res = simplex_solve(LinearProgram(c=np.ones(n), a_ub=np.ones((1, n)), b_ub=np.ones(1),
                                      a_eq=d - r[:, None], b_eq=b.table.reshape(-1) - r))
    weights = np.clip(res.x, 0.0, None)
    q_l = float(min(max(weights.sum(), 0.0), 1.0))
    if q_l >= 1.0 - 1e-9:
        q_l = 1.0
    return LocalDecomposition(q_l, weights, tuple(vertices), residual, q_l < 1.0)
