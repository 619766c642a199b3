"""Output checks for the benchmark, written without diqkd_bounds.

Every check recomputes what it needs from numpy and scipy and from results
in the literature, never from the program under test:

* the achievable collective-attack DI rate of Pironio et al. (NJP 11,
  045021, 2009) is a floor under every upper bound on the DI key rate;
* the one-way secret-key rates I(A:B) - I(A:E) and I(A:B) - I(B:E) are a
  floor under the intrinsic information (Maurer and Wolf, IEEE Trans. Inf.
  Theory 45, 499, 1999), and the identity and constant Eve maps give the
  ceiling min(I(A:B|E), I(A:B));
* the relative entropy of entanglement lies above the coherent
  information and below D(rho || rho_A x rho_B) = I(A:B);
* the fractional bound minimizes over mixtures that include the isotropic
  state at the observed CHSH value itself, so it lies below that state's
  E_R, 1 - h(lambda_max) for a Bell-diagonal state (Vedral and Plenio).

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import linprog

TWO_SQRT2 = 2.0 * math.sqrt(2.0)
NU_STAR = 1.0 - 1.0 / math.sqrt(2.0)
TOL = 1e-9
# CSV and JSON numbers carry 12 significant digits.
PRINT_TOL = 1e-10


def h2(x: float) -> float:
    """Binary entropy in bits."""
    x = min(max(x, 0.0), 1.0)
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def shannon(p) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 1e-300]
    return float(-(p * np.log2(p)).sum())


def mutual(p_xy) -> float:
    """I(X:Y) of a two-index joint table, in bits."""
    p = np.asarray(p_xy, dtype=float)
    return shannon(p.sum(axis=1)) + shannon(p.sum(axis=0)) - shannon(p)


def von_neumann(m) -> float:
    return shannon(np.clip(np.linalg.eigvalsh(m), 0.0, None))


def partial_traces(rho: np.ndarray, da: int, db: int) -> tuple[np.ndarray, np.ndarray]:
    r = rho.reshape(da, db, da, db)
    return np.einsum("ijkj->ik", r), np.einsum("ijil->jl", r)


def pironio_floor(nu: float) -> float:
    """Achievable DI rate 1 - h(Q) - h((1 + sqrt((S/2)^2 - 1))/2), clipped at 0."""
    s = TWO_SQRT2 * (1.0 - nu)
    if s <= 2.0:
        return 0.0
    rate = 1.0 - h2(nu / 2.0) - h2((1.0 + math.sqrt((s / 2.0) ** 2 - 1.0)) / 2.0)
    return max(rate, 0.0)


def pironio_bound(omega: float) -> float:
    """E_R of the Bell-diagonal state with Phi+ weight (1 + sqrt((omega/2)^2 - 1))/2."""
    omega = min(max(omega, 2.0), TWO_SQRT2)
    return 1.0 - h2((1.0 + math.sqrt(max((omega / 2.0) ** 2 - 1.0, 0.0))) / 2.0)


def isotropic_er(omega: float) -> float:
    """E_R of the isotropic state with CHSH value omega, Phi+ weight 3*omega/(8*sqrt(2)) + 1/4."""
    lam = min(3.0 * omega / (4.0 * TWO_SQRT2) + 0.25, 1.0)
    return 1.0 - h2(lam) if lam > 0.5 else 0.0


def channel_bound(kind: str, p: float) -> float:
    """CHSH DI capacity bounds of the dephasing, depolarizing and erasure channels."""
    if kind == "dephasing":
        return 1.0 - h2(p)
    disc = 1.0 - 4.0 * p + 2.0 * p * p
    chsh = 1.0 - h2((1.0 - math.sqrt(disc)) / 2.0) if disc >= 0.0 else 0.0
    own = 1.0 - h2(0.75 * p) if kind == "depolarizing" else 1.0 - p
    return min(chsh, own)


def parse_csv(text: str, header: str) -> np.ndarray:
    lines = text.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not standard JSON."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def _nu_columns(rows: np.ndarray) -> list[str]:
    problems = []
    nu = rows[:, 0]
    if np.max(np.abs(rows[:, 1] - TWO_SQRT2 * (1.0 - nu))) > PRINT_TOL:
        problems.append("omega column differs from 2*sqrt(2)*(1 - nu)")
    if np.max(np.abs(rows[:, 2] - nu / 2.0)) > PRINT_TOL:
        problems.append("qber column differs from nu/2")
    return problems


def _between(values, lo, hi, what: str) -> list[str]:
    problems = []
    for i, (v, a, b) in enumerate(zip(values, lo, hi)):
        if not a - TOL <= v <= b + TOL:
            problems.append(f"{what} sample {i}: {v:.12g} outside [{a:.12g}, {b:.12g}]")
    return problems


def check_hull_csv(text: str, grid: int) -> list[str]:
    """`curve hull` over [0, nu*]: columns, Pironio floor, I(A:B) ceiling, convexity."""
    try:
        rows = parse_csv(text, "param,omega,qber,value")
    except ValueError as exc:
        return [f"hull: {exc}"]
    if rows.shape != (grid, 4):
        return [f"hull: {rows.shape[0]} samples, expected {grid}"]
    problems = _nu_columns(rows)
    nu, value = rows[:, 0], rows[:, 3]
    if np.max(np.abs(nu - np.linspace(0.0, NU_STAR, grid))) > PRINT_TOL:
        problems.append("hull: param column is not the default grid on [0, nu*]")
    problems += _between(value, [pironio_floor(x) for x in nu],
                         [1.0 - h2(x / 2.0) for x in nu], "hull")
    if abs(value[0] - 1.0) > TOL:
        problems.append(f"hull: value at nu = 0 is {value[0]:.12g}, not 1")
    second = value[2:] - 2.0 * value[1:-1] + value[:-2]
    if second.size and second.min() < -TOL:
        problems.append(f"hull: second difference {second.min():.3e} < 0, not convex")
    return problems


def intrinsic_window(p_abe: np.ndarray) -> tuple[float, float]:
    """(one-way key floor, min(I(A:B|E), I(A:B)) ceiling) of a joint p[a][b][e]."""
    p = np.asarray(p_abe, dtype=float)
    i_ab = mutual(p.sum(axis=2))
    i_ae = mutual(p.sum(axis=1))
    i_be = mutual(p.sum(axis=0))
    cmi = (shannon(p.sum(axis=1)) + shannon(p.sum(axis=0)) - shannon(p)
           - shannon(p.sum(axis=(0, 1))))
    return max(0.0, i_ab - i_ae, i_ab - i_be), min(cmi, i_ab)


def check_intrinsic_floor(value: float, p_abe: np.ndarray) -> list[str]:
    """A finite value no lower than the one-way key floor."""
    if not (isinstance(value, float) and math.isfinite(value)):
        return [f"intrinsic_info returned {value!r}"]
    lo, _ = intrinsic_window(p_abe)
    return _between([value], [lo], [math.inf], f"intrinsic_info |E|={p_abe.shape[2]}")


def check_intrinsic_ceiling(value: float, p_abe: np.ndarray) -> list[str]:
    """A value no higher than min(I(A:B|E), I(A:B))."""
    _, hi = intrinsic_window(p_abe)
    return _between([value], [-math.inf], [hi], f"intrinsic_info |E|={p_abe.shape[2]}")


def check_intrinsic(value: float, p_abe: np.ndarray) -> list[str]:
    return check_intrinsic_floor(value, p_abe) or check_intrinsic_ceiling(value, p_abe)


def check_er_json(text: str, rho: np.ndarray, dims: tuple[int, int],
                  ceiling_tol: float = 1e-6) -> list[str]:
    """`er` output: standard JSON, between the coherent information and min(I(A:B), log2 d)."""
    try:
        value = strict_json(text)["value"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"er: output {text.strip()!r} rejected: {exc}"]
    da, db = dims
    rho_a, rho_b = partial_traces(rho, da, db)
    s_ab, s_a, s_b = von_neumann(rho), von_neumann(rho_a), von_neumann(rho_b)
    lo = max(0.0, s_a - s_ab, s_b - s_ab)
    hi = min(s_a + s_b - s_ab, math.log2(min(da, db)))
    if not lo - TOL <= value <= hi + ceiling_tol:
        return [f"er: {value:.12g} outside [{lo:.12g}, {hi:.12g}]"]
    return []


def chsh_and_qber(table: np.ndarray) -> tuple[float, float]:
    """CHSH on Alice's inputs 1, 2 and Bob's 0, 1; QBER at the key pair (0, 0)."""
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])

    def e(x, y):
        return float((signs * table[x, y]).sum())

    chsh = e(1, 0) + e(1, 1) + e(2, 0) - e(2, 1)
    return chsh, float(table[0, 0, 0, 1] + table[0, 0, 1, 0])


def check_device_json(text: str, nu: float) -> list[str]:
    try:
        doc = strict_json(text)
        table = np.array(doc["p"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"device: output rejected: {exc}"]
    if table.shape != (3, 2, 2, 2):
        return [f"device: table shape {table.shape}"]
    problems = []
    if table.min() < -TOL or np.max(np.abs(table.sum(axis=(2, 3)) - 1.0)) > TOL:
        problems.append("device: table is not a conditional distribution")
    chsh, err = chsh_and_qber(table)
    if abs(chsh - TWO_SQRT2 * (1.0 - nu)) > TOL:
        problems.append(f"device: CHSH {chsh:.12g} != 2*sqrt(2)*(1 - {nu})")
    if abs(err - nu / 2.0) > TOL:
        problems.append(f"device: QBER {err:.12g} != {nu}/2")
    return problems


def check_simulate_json(text: str) -> list[str]:
    try:
        doc = strict_json(text)
    except ValueError as exc:
        return [f"simulate: output rejected: {exc}"]
    problems = []
    if doc.get("chsh_match") is not True or doc.get("qber_match") is not True:
        problems.append("simulate: a match flag is not true")
    for key in ("chsh_deviation", "qber_deviation"):
        dev = doc.get(key)
        if not isinstance(dev, (int, float)) or not 0.0 <= dev <= TOL:
            problems.append(f"simulate: {key} = {dev!r} exceeds {TOL}")
    return problems


def local_weight_lp(table: np.ndarray) -> float:
    """max sum w s.t. sum w D <= p entrywise, over deterministic strategies, by HiGHS."""
    nx, ny, na, nb = table.shape
    cols = []
    for a_map in np.ndindex(*(na,) * nx):
        for b_map in np.ndindex(*(nb,) * ny):
            d = np.zeros(table.shape)
            for x in range(nx):
                for y in range(ny):
                    d[x, y, a_map[x], b_map[y]] = 1.0
            cols.append(d.ravel())
    a_ub = np.array(cols).T
    res = linprog(-np.ones(a_ub.shape[1]), A_ub=a_ub, b_ub=table.ravel(),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValueError(f"HiGHS failed: {res.message}")
    return float(-res.fun)


def check_localweight_json(text: str, table: np.ndarray) -> list[str]:
    try:
        doc = strict_json(text)
        got = float(doc["local_weight"])
        nonlocal_weight = float(doc["nonlocal_weight"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"localweight: output rejected: {exc}"]
    want = local_weight_lp(table)
    problems = []
    if abs(got - want) > 1e-8:
        problems.append(f"localweight: {got:.12g} differs from HiGHS {want:.12g}")
    if abs(got + nonlocal_weight - 1.0) > PRINT_TOL:
        problems.append("localweight: local and nonlocal weights do not sum to 1")
    return problems


def check_curve_csv(text: str, name: str, grid: int) -> list[str]:
    """`curve al|pironio|fractional` on [0, nu*] and `curve channel` on [0, 1]."""
    try:
        rows = parse_csv(text, "param,omega,qber,value")
    except ValueError as exc:
        return [f"curve {name}: {exc}"]
    if rows.shape != (grid, 4):
        return [f"curve {name}: {rows.shape[0]} samples, expected {grid}"]
    x, value = rows[:, 0], rows[:, 3]
    if name.startswith("channel-"):
        kind = name.split("-", 1)[1]
        want = [channel_bound(kind, p) for p in x]
        return _between(value, [w - TOL for w in want], [w + TOL for w in want], f"curve {name}")
    problems = _nu_columns(rows)
    floor = [pironio_floor(nu) for nu in x]
    if name == "pironio":
        want = [pironio_bound(w) for w in rows[:, 1]]
        return problems + _between(value, want, want, "curve pironio")
    if name == "al":
        return problems + _between(value, floor, [1.0 - h2(nu / 2.0) for nu in x], "curve al")
    if name == "fractional":
        # p = 1 at omega_1 = omega is one of the mixtures the bound minimizes over.
        ceiling = [isotropic_er(w) for w in rows[:, 1]]
        return problems + _between(value, floor, ceiling, "curve fractional")
    return [f"curve {name}: no check for this curve"]


def check_usage_error(code: int, stdout: str, stderr: str) -> list[str]:
    """The documented contract for bad arguments: exit 2, one line, no traceback."""
    problems = []
    if code != 2:
        problems.append(f"exit code {code}, expected 2")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if len(stderr.strip().splitlines()) != 1:
        problems.append(f"{len(stderr.strip().splitlines())} stderr lines, expected 1")
    if stdout.strip():
        try:
            strict_json(stdout)
        except ValueError as exc:
            problems.append(f"stdout is not standard JSON: {exc}")
    return problems
