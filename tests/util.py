"""Shared helpers for the test suite: seeded random states and measurements,
and a loop-computed conditional mutual information."""

import math

import numpy as np

from diqkd_bounds import DensityMatrix, MeasurementFamily, observable_povm


def loop_cmi(q: np.ndarray) -> float:
    """I(A:B|F) of q[a][b][f] by explicit loops over every nonzero cell."""
    n_a, n_b, n_f = q.shape

    def h(cells):
        return -sum(v * math.log2(v) for v in cells if v > 0)

    h_abf = h(q[a, b, f] for a in range(n_a) for b in range(n_b) for f in range(n_f))
    h_af = h(sum(q[a, b, f] for b in range(n_b)) for a in range(n_a) for f in range(n_f))
    h_bf = h(sum(q[a, b, f] for a in range(n_a)) for b in range(n_b) for f in range(n_f))
    h_f = h(sum(q[a, b, f] for a in range(n_a) for b in range(n_b)) for f in range(n_f))
    return h_af + h_bf - h_abf - h_f


def loop_ccq_cmi(ops: np.ndarray) -> float:
    """I(A:B|E) of a ccq state from its Eve blocks ops[a][b], by explicit loops
    over the blocks and their sums, with spectra from np.linalg.eigvalsh."""
    n_a, n_b = ops.shape[:2]

    def s(m):
        return -sum(v * math.log2(v) for v in np.linalg.eigvalsh(m) if v > 0)

    s_abe = sum(s(ops[a, b]) for a in range(n_a) for b in range(n_b))
    s_ae = sum(s(sum(ops[a, b] for b in range(n_b))) for a in range(n_a))
    s_be = sum(s(sum(ops[a, b] for a in range(n_a))) for b in range(n_b))
    s_e = s(sum(ops[a, b] for a in range(n_a) for b in range(n_b)))
    return s_ae + s_be - s_abe - s_e


def random_density(rng, dims) -> DensityMatrix:
    """Wishart-style random full-rank density matrix."""
    d = int(np.prod(dims))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, tuple(dims))


def random_qubit_observable(rng) -> np.ndarray:
    """Unit Bloch-vector observable n . sigma."""
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return n[0] * sx + n[1] * sy + n[2] * sz


def random_projective_family(rng, x_count=2, y_count=2) -> MeasurementFamily:
    alice = tuple(observable_povm(random_qubit_observable(rng)) for _ in range(x_count))
    bob = tuple(observable_povm(random_qubit_observable(rng)) for _ in range(y_count))
    return MeasurementFamily(alice, bob)


def random_ns_behavior(rng):
    """Random point of the CHSH no-signaling polytope (2x2x2x2 scenario).

    Dirichlet mixture of the 16 deterministic vertices and the 8 PR-box
    variants, which together are exactly the vertices of that polytope.
    """
    from diqkd_bounds import Behavior
    from diqkd_bounds.polytope import vertex_array

    tables = list(np.moveaxis(vertex_array(2, 2, 2, 2), -1, 0))
    for mu in range(2):
        for sigma in range(2):
            for tau in range(2):
                pr = np.zeros((2, 2, 2, 2))
                for x in range(2):
                    for y in range(2):
                        for a in range(2):
                            for b in range(2):
                                if (a + b) % 2 == (x * y + mu * x + sigma * y + tau) % 2:
                                    pr[x, y, a, b] = 0.5
                tables.append(pr)
    weights = rng.dirichlet(np.ones(len(tables)))
    mix = sum(w * t for w, t in zip(weights, tables))
    return Behavior(mix)
