"""Each output check accepts a right output and rejects deliberately wrong ones.

The right outputs are built here from closed forms, never by diqkd_bounds.
"""

import json
import math

import numpy as np
import pytest

import checks
import worker
import workloads
from checks import NU_STAR, TWO_SQRT2, h2

HEADER = "param,omega,qber,value"


def csv(nu, values, omega=None, qber=None):
    omega = TWO_SQRT2 * (1.0 - nu) if omega is None else omega
    qber = nu / 2.0 if qber is None else qber
    rows = [HEADER] + [",".join(f"{v:.12g}" for v in row)
                       for row in zip(nu, omega, qber, values)]
    return "\n".join(rows) + "\n"


# --- hull-curve ---------------------------------------------------------------

GRID = 6
NU = np.linspace(0.0, NU_STAR, GRID)
# 1 - h(nu/2) is convex, equals 1 at nu = 0 and is the ceiling itself.
CEILING = np.array([1.0 - h2(x / 2.0) for x in NU])


def test_hull_accepts_a_convex_curve_inside_the_window():
    assert checks.check_hull_csv(csv(NU, CEILING), GRID) == []


def wrong_hulls():
    bumped = CEILING.copy()
    bumped[3] -= 0.02  # still above the floor, but no longer convex
    yield "omega", csv(NU, CEILING, omega=TWO_SQRT2 * (1.0 - NU) + 1e-6)
    yield "qber", csv(NU, CEILING, qber=NU / 2.0 + 1e-6)
    yield "above ceiling", csv(NU, CEILING + np.r_[0, 0, 1e-6, 0, 0, 0])
    yield "below floor", csv(NU, np.r_[1.0, 0.0, CEILING[2:]])
    yield "value(0)", csv(NU, np.r_[0.999, CEILING[1:]])
    yield "not convex", csv(NU, bumped)
    yield "grid", csv(NU[:-1], CEILING[:-1])
    yield "range", csv(NU * 0.9, [1.0 - h2(x / 2.0) for x in NU * 0.9])
    yield "header", csv(NU, CEILING).replace("value", "v", 1)


@pytest.mark.parametrize("what,text", list(wrong_hulls()))
def test_hull_rejects(what, text):
    assert checks.check_hull_csv(text, GRID), what


# --- intrinsic-joints ---------------------------------------------------------

def joint(n_e=7, seed=0):
    return workloads.copy_joint(np.random.default_rng(seed), n_e)


def test_copy_joint_floor_is_positive_and_window_is_ordered():
    lo, hi = checks.intrinsic_window(joint())
    assert 0.0 < lo <= hi


def test_intrinsic_accepts_both_ends_of_the_window():
    p = joint()
    lo, hi = checks.intrinsic_window(p)
    assert checks.check_intrinsic(lo, p) == []
    assert checks.check_intrinsic(hi, p) == []


def test_intrinsic_rejects_values_outside_the_window():
    p = joint()
    lo, hi = checks.intrinsic_window(p)
    assert checks.check_intrinsic(lo - 1e-6, p)
    assert checks.check_intrinsic(hi + 1e-6, p)


def test_intrinsic_rejects_non_finite():
    assert checks.check_intrinsic(float("nan"), joint())


def test_floor_and_ceiling_checks_each_reject_their_own_side():
    p = joint()
    lo, hi = checks.intrinsic_window(p)
    assert checks.check_intrinsic_floor(lo - 1e-6, p)
    assert checks.check_intrinsic_floor(hi + 1e-6, p) == []
    assert checks.check_intrinsic_ceiling(hi + 1e-6, p)
    assert checks.check_intrinsic_ceiling(lo - 1e-6, p) == []
    assert checks.check_intrinsic_floor(float("inf"), p)


def test_intrinsic_ceiling_is_i_ab_when_conditioning_helps():
    # E = A xor B makes I(A:B|E) = 1 bit while I(A:B) = 0.
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            p[a, b, a ^ b] = 0.25
    assert checks.intrinsic_window(p) == (0.0, 0.0)
    assert checks.check_intrinsic(0.5, p)


# --- er -----------------------------------------------------------------------

def er_doc(value):
    return json.dumps({"value": value}) + "\n"


def test_er_rejects_non_standard_json():
    rho = workloads.isotropic(0.2)
    assert checks.check_er_json('{"value": Infinity}\n', rho, (2, 2))
    assert checks.check_er_json("not json\n", rho, (2, 2))


def test_er_random_state_window():
    rho = workloads.random_full_rank(np.random.default_rng(3), 3)
    rho_a, rho_b = checks.partial_traces(rho, 2, 3)
    s_ab = checks.von_neumann(rho)
    i_ab = checks.von_neumann(rho_a) + checks.von_neumann(rho_b) - s_ab
    lo = max(0.0, checks.von_neumann(rho_a) - s_ab, checks.von_neumann(rho_b) - s_ab)
    assert checks.check_er_json(er_doc((lo + i_ab) / 2), rho, (2, 3)) == []
    assert checks.check_er_json(er_doc(i_ab + 1e-3), rho, (2, 3))


def test_er_random_state_floor_is_coherent_information():
    # Nearly pure Phi+: S(A) - S(AB) is close to 1 bit.
    rho = workloads.isotropic(0.01)
    lo = checks.von_neumann(checks.partial_traces(rho, 2, 2)[0]) - checks.von_neumann(rho)
    assert lo > 0.8
    assert checks.check_er_json(er_doc(lo - 1e-3), rho, (2, 2))


# --- cold-cli -----------------------------------------------------------------

def honest_table(nu):
    """p(a,b|x,y) of the isotropic state under Z, (Z+-X)/sqrt2 and Z, X."""
    z = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    s = 1.0 / math.sqrt(2.0)
    rho = workloads.isotropic(nu)
    alice = [z, s * (z + x), s * (z - x)]
    bob = [z, x]
    table = np.empty((3, 2, 2, 2))
    for i, oa in enumerate(alice):
        for j, ob in enumerate(bob):
            for a in range(2):
                for b in range(2):
                    pa = (np.eye(2) + (-1) ** a * oa) / 2
                    pb = (np.eye(2) + (-1) ** b * ob) / 2
                    table[i, j, a, b] = np.trace(np.kron(pa, pb) @ rho).real
    return table


def device_doc(table):
    return json.dumps({"x_count": 3, "y_count": 2, "a_count": 2, "b_count": 2,
                       "p": table.tolist()})


def test_device_check():
    nu = 0.1
    table = honest_table(nu)
    assert checks.check_device_json(device_doc(table), nu) == []
    assert checks.check_device_json(device_doc(honest_table(0.11)), nu)
    swapped = table.copy()
    swapped[0, 0] = swapped[0, 0][::-1]  # same CHSH, QBER 1 - nu/2
    assert checks.check_device_json(device_doc(swapped), nu)
    assert checks.check_device_json(device_doc(table[:2]), nu)


def test_simulate_check():
    good = {"chsh_match": True, "qber_match": True, "chsh_deviation": 0.0,
            "qber_deviation": 1e-12}
    assert checks.check_simulate_json(json.dumps(good)) == []
    assert checks.check_simulate_json(json.dumps({**good, "qber_match": False}))
    assert checks.check_simulate_json(json.dumps({**good, "chsh_deviation": 1e-6}))


def test_localweight_check_on_known_weights():
    deterministic = np.zeros((2, 2, 2, 2))
    deterministic[:, :, 0, 0] = 1.0
    pr_box = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                pr_box[x, y, a, a ^ (x * y)] = 0.5
    doc = lambda w: json.dumps({"local_weight": w, "nonlocal_weight": 1.0 - w})
    assert checks.check_localweight_json(doc(1.0), deterministic) == []
    assert checks.check_localweight_json(doc(0.0), pr_box) == []
    assert checks.check_localweight_json(doc(1e-6), pr_box)
    bad_sum = json.dumps({"local_weight": 0.0, "nonlocal_weight": 0.9})
    assert checks.check_localweight_json(bad_sum, pr_box)


NU16 = np.linspace(0.0, NU_STAR, 16)
OMEGA16 = TWO_SQRT2 * (1.0 - NU16)


def test_pironio_curve_is_the_closed_form():
    exact = [checks.pironio_bound(w) for w in OMEGA16]
    assert checks.check_curve_csv(csv(NU16, exact), "pironio", 16) == []
    assert checks.check_curve_csv(csv(NU16, np.add(exact, 1e-7)), "pironio", 16)


def test_al_curve_window():
    floor = np.array([checks.pironio_floor(x) for x in NU16])
    ceiling = np.array([1.0 - h2(x / 2.0) for x in NU16])
    assert checks.check_curve_csv(csv(NU16, (floor + ceiling) / 2), "al", 16) == []
    assert checks.check_curve_csv(csv(NU16, ceiling + 1e-6), "al", 16)
    assert checks.check_curve_csv(csv(NU16, floor - 1e-6), "al", 16)


def test_fractional_curve_window():
    iso = np.array([checks.isotropic_er(w) for w in OMEGA16])
    assert checks.check_curve_csv(csv(NU16, iso), "fractional", 16) == []
    assert checks.check_curve_csv(csv(NU16, iso + 1e-6), "fractional", 16)
    assert checks.check_curve_csv(csv(NU16, np.zeros(16)), "fractional", 16)


def test_channel_curve_is_the_closed_form():
    p = np.linspace(0.0, 1.0, 16)
    exact = [checks.channel_bound("depolarizing", x) for x in p]
    text = csv(p, exact, omega=TWO_SQRT2 * (1.0 - p), qber=p / 2.0)
    assert checks.check_curve_csv(text, "channel-depolarizing", 16) == []
    wrong = [checks.channel_bound("dephasing", x) for x in p]
    text = csv(p, wrong, omega=TWO_SQRT2 * (1.0 - p), qber=p / 2.0)
    assert checks.check_curve_csv(text, "channel-depolarizing", 16)


def test_usage_error_contract():
    assert checks.check_usage_error(2, "", "error: --restarts must be positive\n") == []
    assert checks.check_usage_error(0, '{"value": Infinity}\n', "")
    assert checks.check_usage_error(
        1, "", "Traceback (most recent call last):\n  ...\nZeroDivisionError: float division\n")
    assert checks.check_usage_error(2, "", "line one\nline two\n")


# --- judging an operation -----------------------------------------------------

def test_an_operation_that_raises_or_exits_non_zero_makes_the_run_incorrect():
    op = workloads.Op("curve", lambda: None, workloads.no_problems)
    assert worker.judge(op, None, "ValueError: boom") == (True, ["ValueError: boom"])
    op = workloads.Op("curve", lambda: (1, "", "Traceback"), workloads.no_problems)
    out, _, error = worker.run_op(op)
    failed, problems = worker.judge(op, out, error)
    assert failed and problems


def test_a_known_fault_counts_as_failed_and_keeps_the_run_correct():
    op = workloads.Op("er --restarts 0", lambda: (0, '{"value": Infinity}\n', ""),
                      workloads.no_problems,
                      fault=lambda out: checks.check_usage_error(*out))
    out, _, error = worker.run_op(op)
    assert worker.judge(op, out, error) == (True, [])
    op.run = lambda: (2, "", "error: --restarts must be positive\n")
    out, _, error = worker.run_op(op)
    assert worker.judge(op, out, error) == (False, [])


def test_a_fixed_joint_above_its_ceiling_is_a_fault_not_a_wrong_output():
    p = joint()
    lo, hi = checks.intrinsic_window(p)
    op = workloads.Op("intrinsic_info", lambda: hi + 1e-3,
                      lambda out: checks.check_intrinsic_floor(out, p),
                      fault=lambda out: checks.check_intrinsic_ceiling(out, p))
    assert worker.judge(op, hi + 1e-3, None)[0] is True
    assert worker.judge(op, hi + 1e-3, None)[1] == []
    failed, problems = worker.judge(op, lo - 1e-3, None)
    assert not failed and problems
