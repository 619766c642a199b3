"""Benchmark of diqkd_bounds: bound curves, intrinsic information, E_R, CLI cold start.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the program from the checkout's ``src/``; nothing is installed.  Set-up
is repeated in fresh worker processes and ``setup_s`` is their median; the
last worker then measures whole rounds of the workload for S seconds and
checks every output.  Times are scaled to a reference speed (worker.py).
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("hull-curve", "intrinsic-joints", "cold-cli")
SETUP_REPEATS = 3
DEADLINE_S = 170.0
# nproc is 2 on the reference machine; BLAS and OpenMP pools are pinned to one
# thread in the benchmark and every process it starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, setup_only: bool, deadline: float) -> tuple[float, list[str], int]:
    """Start one worker; return (its set-up time, stdout lines, exit code).

    The set-up time is from spawn to the worker's ``ready`` line, scaled by
    the speed the worker reports on its ``speed`` line.
    """
    lines: list[tuple[float, str]] = []
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), args.workload, str(args.seed),
         str(args.seconds), str(args.trace), "1" if setup_only else "0"],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)

    def read():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line.rstrip("\n")))

    reader = threading.Thread(target=read)
    reader.start()
    try:
        code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    reader.join()
    proc.stdout.close()
    ready = [t for t, line in lines if line == "ready"]
    speed = [float(line.split()[1]) for _, line in lines if line.startswith("speed ")]
    setup_s = (ready[0] - t0) * speed[0] if ready and speed else float("nan")
    return setup_s, [line for _, line in lines], code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "diqkd_bounds" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'diqkd_bounds'}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2

    setups = []
    # A traced run reports no set-up time, so it sets up once.
    for _ in range(SETUP_REPEATS - 1 if not args.trace else 0):
        setup_s, _, code = run_worker(args, True, deadline)
        if code != 0:
            print(f"error: set-up worker exited {code}", file=sys.stderr)
            return 1
        setups.append(setup_s)
    setup_s, lines, code = run_worker(args, False, deadline)
    setups.append(setup_s)
    if code != 0 or not lines or not lines[-1].startswith("{"):
        print(f"error: worker exited {code} without a result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        metrics = result["metrics"]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["metrics"] = {k: metrics[k] for k in
                             ("ops_per_s", "op_ms.p50", "setup_s", "peak_rss_mb", "bound_bits")}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
