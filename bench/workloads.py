"""Seeded inputs and operations of the three benchmark workloads.

Each workload is a fixed list of operations (one round).  A run repeats
whole rounds, so every round attempts the same operations on the same
inputs and the share of failed operations is the same in every run.  The
inputs depend on the seed only; the program sees them and ``--seed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
HULL_GRID = 4
CURVE_GRID = 16
CHILD_TIMEOUT_S = 120
# (|E|, family) of the seeded joints: exhaustive map enumeration covers
# |E| <= 6, sampled search the rest.  The |E| = 5 and 7 joints cost about the
# same, so the median latency falls among near equals.
JOINTS = ((2, "dirichlet"), (3, "copy"), (5, "copy"), (5, "dirichlet"), (5, "copy"),
          (5, "copy"), (7, "copy"), (16, "copy"))
# Generic Dirichlet(1) joints above the exhaustive limit, the same in every
# run: (|E|, rng seed of the joint).  The sampled search holds no constant
# Eve map, and on some joints the value then exceeds I(A:B).  On these inputs
# (and intrinsic_info's seed 0) the |E| = 16 joint does so every time; it
# counts as failed until the program keeps its ceiling.
FIXED_JOINTS = ((7, 0), (16, 0))


def no_problems(out) -> list[str]:
    return []


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    # Problems of a wrong output: any one makes the run incorrect.
    check: Callable[[object], list[str]]
    bound_bits: Callable[[object], float] = field(default=lambda out: 0.0)
    # The check of a known fault of the program, on inputs that do not depend
    # on the seed: its problems count the operation as failed.  An operation
    # with a fault check may exit non-zero; the fault check judges the code.
    fault: Callable[[object], list[str]] | None = None


@dataclass
class InProcess:
    """Operations that call into diqkd_bounds inside the benchmark process."""

    ops: list[Op]
    in_process: bool = True


def _cli_in_process(argv: list[str]) -> tuple[int, str]:
    from diqkd_bounds import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _csv_value_sum(text: str) -> float:
    return float(checks.parse_csv(text, "param,omega,qber,value")[:, 3].sum())


# ---------------------------------------------------------------------------
# hull-curve
# ---------------------------------------------------------------------------

def hull_curve(seed: int, workdir: Path) -> InProcess:
    argv = ["curve", "hull", "--grid", str(HULL_GRID), "--seed", str(seed)]
    return InProcess([Op("curve hull", lambda: _cli_in_process(argv),
                         lambda out: checks.check_hull_csv(out[1], HULL_GRID),
                         lambda out: _csv_value_sum(out[1]))])


# ---------------------------------------------------------------------------
# intrinsic-joints
# ---------------------------------------------------------------------------

def dirichlet_joint(rng, n_e: int) -> np.ndarray:
    """A generic joint: Dirichlet(16) over the 4|E| cells.

    Dirichlet(1) draws sometimes carry a quarter bit and sometimes none,
    which moves bound_bits by 10% from one seed to the next; Dirichlet(16)
    draws carry a few millibits.
    """
    return rng.dirichlet(np.full(4 * n_e, 16.0)).reshape(2, 2, n_e)


def copy_joint(rng, n_e: int) -> np.ndarray:
    """Uniform A, B = A through a binary symmetric channel, Eve a noisy copy.

    Eve's symbols come in pairs; pair j copies A (even j) or B (odd j)
    through its own flip probability, and an odd alphabet adds a symbol
    that carries nothing.  I(A:B) exceeds what Eve learns, so the one-way
    key floor is positive.
    """
    eps = rng.uniform(0.05, 0.052)
    pairs = n_e // 2
    weights = rng.dirichlet(np.full(pairs + n_e % 2, 64.0))
    flips = rng.uniform(0.30, 0.305, size=pairs)
    p = np.zeros((2, 2, n_e))
    for a in range(2):
        for b in range(2):
            p_ab = 0.5 * (1.0 - eps if a == b else eps)
            for j in range(pairs):
                copied = a if j % 2 == 0 else b
                for c in range(2):
                    p[a, b, 2 * j + c] = p_ab * weights[j] * (
                        1.0 - flips[j] if c == copied else flips[j])
            if n_e % 2:
                p[a, b, n_e - 1] = p_ab * weights[-1]
    return p


def intrinsic_joints(seed: int, workdir: Path) -> InProcess:
    from diqkd_bounds import measures

    rng = np.random.default_rng(seed)
    ops = []
    for n_e, family in JOINTS:
        p = dirichlet_joint(rng, n_e) if family == "dirichlet" else copy_joint(rng, n_e)
        ops.append(Op(f"intrinsic_info {family} |E|={n_e}",
                      lambda p=p: measures.intrinsic_info(p, seed=seed),
                      lambda out, p=p: checks.check_intrinsic(out, p),
                      lambda out: out))
    for n_e, joint_seed in FIXED_JOINTS:
        p = np.random.default_rng(joint_seed).dirichlet(np.ones(4 * n_e)).reshape(2, 2, n_e)
        ops.append(Op(f"intrinsic_info fixed dirichlet |E|={n_e}",
                      lambda p=p: measures.intrinsic_info(p, seed=0),
                      lambda out, p=p: checks.check_intrinsic_floor(out, p),
                      lambda out: out,
                      fault=lambda out, p=p: checks.check_intrinsic_ceiling(out, p)))
    return InProcess(ops)


# ---------------------------------------------------------------------------
# Quantum states and behaviors
# ---------------------------------------------------------------------------

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def write_state(path: Path, rho: np.ndarray, dims: tuple[int, int]):
    flat = rho.reshape(-1)
    path.write_text(json.dumps({"dims": list(dims),
                                "entries": [[float(z.real), float(z.imag)] for z in flat]}))


def isotropic(nu: float) -> np.ndarray:
    return (1.0 - nu) * np.outer(PHI_PLUS, PHI_PLUS) + nu / 4.0 * np.eye(4)


def haar_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_full_rank(rng, db: int) -> np.ndarray:
    """A 2 x db maximally entangled pure state under random local unitaries,
    mixed with weight 0.3 of a full-rank Wishart state with 16d degrees of
    freedom.

    The fixed entanglement of the pure part and the concentrated Wishart
    part keep E_R, and the optimizer's work, of one seed close to another's.
    """
    d = 2 * db
    psi = np.zeros(d, dtype=complex)
    psi[0] = psi[db + 1] = 1.0 / math.sqrt(2.0)
    psi = np.kron(haar_unitary(rng, 2), haar_unitary(rng, db)) @ psi
    g = rng.standard_normal((d, 16 * d)) + 1j * rng.standard_normal((d, 16 * d))
    w = g @ g.conj().T
    rho = 0.7 * np.outer(psi, psi.conj()) + 0.3 * w / np.trace(w).real
    return (rho + rho.conj().T) / 2.0


# ---------------------------------------------------------------------------
# cold-cli
# ---------------------------------------------------------------------------

def quantum_behavior(rng) -> np.ndarray:
    """p(a,b|x,y) of a noisy Phi+ under random projective qubit measurements."""
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    rho = isotropic(rng.uniform(0.0, 0.3))

    def projectors():
        n = rng.standard_normal(3)
        obs = np.einsum("i,ijk->jk", n / np.linalg.norm(n), pauli)
        return [(np.eye(2) + s * obs) / 2.0 for s in (1.0, -1.0)]

    alice = [projectors() for _ in range(3)]
    bob = [projectors() for _ in range(2)]
    table = np.empty((3, 2, 2, 2))
    for x, pa in enumerate(alice):
        for y, pb in enumerate(bob):
            for a in range(2):
                for b in range(2):
                    table[x, y, a, b] = np.trace(np.kron(pa[a], pb[b]) @ rho).real
    return table


class ColdCli:
    """One fresh CLI process per operation.

    While ``trace_files`` is a list, operations run through ``child.py``,
    which times the import and records spans into a file it appends there.
    """

    in_process = False

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.trace_files: list[Path] | None = None
        rng = np.random.default_rng(seed)
        nu = float(rng.uniform(0.0, checks.NU_STAR))
        p_dep, p_era = (float(p) for p in rng.uniform(0.0, 0.25, size=2))
        table = quantum_behavior(rng)
        behavior = workdir / "behavior.json"
        behavior.write_text(json.dumps({"x_count": 3, "y_count": 2, "a_count": 2,
                                        "b_count": 2, "p": table.tolist()}))
        rho = random_full_rank(rng, 3)
        random_state = workdir / "random.json"
        write_state(random_state, rho, (2, 3))
        # Seed-independent input for the two bad-argument operations.
        state = workdir / "isotropic.json"
        write_state(state, isotropic(0.1), (2, 2))

        def curve(name, extra=()):
            label = name if not extra else f"{name}-{extra[-1]}"
            return Op(f"curve {label}",
                      self._runner(["curve", name, "--grid", str(CURVE_GRID), *extra]),
                      lambda out: checks.check_curve_csv(out[1], label, CURVE_GRID),
                      lambda out: _csv_value_sum(out[1]))

        self.ops = [
            Op("device", self._runner(["device", "--nu", repr(nu)]),
               lambda out: checks.check_device_json(out[1], nu)),
            Op("simulate depolarizing",
               self._runner(["simulate", "--kind", "depolarizing", "--p", repr(p_dep)]),
               lambda out: checks.check_simulate_json(out[1])),
            Op("simulate erasure",
               self._runner(["simulate", "--kind", "erasure", "--p", repr(p_era)]),
               lambda out: checks.check_simulate_json(out[1])),
            Op("localweight", self._runner(["localweight", "--file", str(behavior)]),
               lambda out: checks.check_localweight_json(out[1], table)),
            curve("al"),
            curve("pironio"),
            curve("fractional"),
            curve("channel", ("--kind", "depolarizing")),
            Op("er random 2x3",
               self._runner(["er", "--file", str(random_state), "--seed", str(seed)]),
               lambda out: checks.check_er_json(out[1], rho, (2, 3)),
               lambda out: float(json.loads(out[1])["value"])),
            Op("er --restarts 0",
               self._runner(["er", "--file", str(state), "--restarts", "0"]),
               no_problems, fault=lambda out: checks.check_usage_error(*out)),
            Op("er --ensemble-size 0",
               self._runner(["er", "--file", str(state), "--ensemble-size", "0"]),
               no_problems, fault=lambda out: checks.check_usage_error(*out)),
        ]

    def _runner(self, argv: list[str]):
        def run():
            if self.trace_files is None:
                cmd = [sys.executable, "-m", "diqkd_bounds.cli", *argv]
            else:
                trace = self.workdir / f"child{len(self.trace_files)}.json"
                self.trace_files.append(trace)
                cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(trace), *argv]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            return proc.returncode, proc.stdout, proc.stderr
        return run


WORKLOADS = {
    "hull-curve": hull_curve,
    "intrinsic-joints": intrinsic_joints,
    "cold-cli": ColdCli,
}
