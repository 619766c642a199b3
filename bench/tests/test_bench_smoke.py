"""Tiny runs of every workload through the real entry point."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


# Operations a round and the known faults among them (workloads.py).
ROUND = {"hull-curve": (1, 0), "intrinsic-joints": (10, 1), "cold-cli": (11, 2)}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    ops, faults = ROUND[workload]
    assert result["attempted"] % ops == 0
    assert result["failed"] <= result["attempted"] // ops * faults
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


# Least calls one traced round makes: in cold-cli one `er` run of eight
# restarts (the two bad-argument `er` calls may reach er_numeric too), one
# local-weight LP and a 16-point `al` curve; in hull-curve a four-point curve.
TRACED_CALLS = {
    "cold-cli": {"measures.er_numeric.calls": 1, "measures.minimize.l-bfgs-b.calls": 8,
                 "polytope.max_local_weight.calls": 1, "bounds.al_bound.calls": 16},
    "hull-curve": {"bounds.fbjl_bound.calls": 4, "measures.intrinsic_info.calls": 4},
}


@pytest.mark.parametrize("workload", sorted(TRACED_CALLS))
def test_traced_run_reports_every_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, calls in TRACED_CALLS[workload].items():
        assert result["metrics"][name]["value"] >= calls, name


def test_layer_names_match_the_tracer():
    names = {f"{n}.{f}" for n, fields in spans.LAYER_METRICS for f in fields}
    names |= {"import.ms", "trace.ops_per_s_ratio", "host.slowdown"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "hull-curve", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
