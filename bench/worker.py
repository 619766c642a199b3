"""One benchmark process: set up, warm up, then run whole rounds for a while.

Usage: python bench/worker.py WORKLOAD SEED SECONDS TRACE SETUP_ONLY

Prints ``ready`` when set-up is done (the launcher times set-up up to that
line), then ``speed F`` (see `reference_kernel`), then, unless SETUP_ONLY is
1, one JSON line with the run's result.  The load is a closed loop with one
client: one operation at a time.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Median time of `reference_kernel` on the reference machine (README).
REF_NOMINAL_MS = 40.0
SETUP_SPEED_S = 0.6
# After each operation the kernel runs for this share of the operation's time.
REF_SHARE = 0.5
# Least kernel time behind one operation's scale: fast fluctuations of the
# host's speed average out over about a second.
MIN_KERNEL_MS = 1000.0
# A run holds at least this many rounds, so the same-output check always has
# a round to compare with, and a workload whose round takes about as long as
# the run does not switch between one and two rounds from run to run.
MIN_ROUNDS = 2


def import_program() -> float:
    """Import diqkd_bounds.cli from the checkout's src/ and return the ms it took.

    Runs before the benchmark's own modules load numpy and scipy, so the time
    is that of a fresh interpreter.
    """
    t0 = time.perf_counter()
    import diqkd_bounds.cli

    ms = (time.perf_counter() - t0) * 1e3
    src = (ROOT / "src").resolve()
    if src not in Path(diqkd_bounds.cli.__file__).resolve().parents:
        raise SystemExit(f"diqkd_bounds imported from {diqkd_bounds.cli.__file__}, not {src}")
    return ms


def reference_kernel() -> float:
    """Time in ms of fixed work shaped like the program's: interpreted Python
    and small numpy and LAPACK calls.

    The host's speed drifts by a factor of up to two within minutes, and a
    40 ms sample only sees the speed of its own moment.  So the kernel runs
    for REF_SHARE of each operation's time right after it, and that
    operation's time is scaled by REF_NOMINAL_MS / (the samples' mean).
    """
    import numpy as np

    a = np.linspace(0.1, 1.0, 16).reshape(4, 4)
    t0 = time.perf_counter()
    s = 0.0
    for i in range(40_000):
        s += i * 0.5
    for _ in range(2_500):
        s += float(np.log2(a * a + 1.0).sum())
        s += float(np.linalg.eigvalsh(a + a.T)[0])
    return (time.perf_counter() - t0) * 1e3


def run_op(op):
    """Run one operation; return (output, seconds, error) with error None on success."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if op.fault is None and isinstance(out, tuple) and out[0] != 0:
        return out, dt, f"exit {out[0]}: {out[-1].strip()[-300:]}"
    return out, dt, None


def judge(op, out, error) -> tuple[bool, list[str]]:
    """(failed, wrong-output problems) for one finished operation.

    An operation that raises or exits non-zero failed and makes the run
    incorrect, so a failure can never pass for a faster or tighter result.
    Only a known fault, which the operation's fault check names, counts as
    failed and leaves the run correct.
    """
    if error is not None:
        return True, [error]
    faults = op.fault(out) if op.fault is not None else []
    return bool(faults), op.check(out)


def main(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    import_ms = import_program() if workload != "cold-cli" else None
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT_DIR))
    try:
        wl = workloads.WORKLOADS[workload](seed, workdir)
        # Warm-up: one untimed operation, so lazy imports and caches settle.
        run_op(wl.ops[0])
        print("ready", flush=True)
        samples = kernel_samples(SETUP_SPEED_S)
        print(f"speed {REF_NOMINAL_MS / statistics.mean(samples)!r}", flush=True)
        if setup_only:
            return 0
        return measure(wl, workload, seed, seconds, trace, import_ms, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def kernel_samples(seconds: float) -> list[float]:
    """Run `reference_kernel` for about ``seconds`` (at least once); its times in ms."""
    samples = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        samples.append(reference_kernel())
    return samples


def run_round(wl, record: list, excluded=lambda: 0.0):
    """Run every operation once; record (op, output, seconds, error, kernel samples after it)."""
    for op in wl.ops:
        x0 = excluded()
        out, dt, error = run_op(op)
        dt -= excluded() - x0
        record.append((op, out, dt, error, kernel_samples(REF_SHARE * dt)))


def scaled_times(record: list, before: list[float]) -> list[float]:
    """Each operation's seconds times REF_NOMINAL_MS over the mean kernel time
    of the samples right before and right after it, widened to neighbouring
    operations' samples until they add up to MIN_KERNEL_MS."""
    blocks = [before] + [r[4] for r in record]  # operation i sits between blocks i and i + 1
    scaled = []
    for i, r in enumerate(record):
        lo, hi = i, i + 1
        samples = blocks[lo] + blocks[hi]
        while sum(samples) < MIN_KERNEL_MS and (lo > 0 or hi < len(blocks) - 1):
            if lo > 0:
                lo -= 1
                samples += blocks[lo]
            if hi < len(blocks) - 1:
                hi += 1
                samples += blocks[hi]
        scaled.append(r[2] * REF_NOMINAL_MS / statistics.mean(samples))
    return scaled


def same_key(out):
    """What must repeat between rounds: stdout and exit code, not stderr, whose
    traceback frames differ between the traced and the plain entry point."""
    return out[:2] if isinstance(out, tuple) else out


def measure(wl, workload: str, seed: int, seconds: float, trace: bool, import_ms,
            samples: list[float]) -> int:
    import spans

    traced: list = []
    layer_totals, imports = [], []
    if trace:
        if wl.in_process:
            tracer = spans.Tracer()
            tracer.install()
            try:
                run_round(wl, traced, lambda: tracer.excluded)
            finally:
                tracer.restore()
            layer_totals.append(tracer.totals())
            imports.append(import_ms)
            tracer.dump(OUT_DIR / f"trace-{workload}-seed{seed}.json")
        else:
            wl.trace_files = []
            try:
                run_round(wl, traced)
            finally:
                files, wl.trace_files = wl.trace_files, None
            docs = [json.loads(f.read_text()) for f in files]
            layer_totals = [d["totals"] for d in docs]
            imports = [d["import_ms"] for d in docs]
            (OUT_DIR / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(docs))

    record: list = []
    rounds = 0
    t0 = time.perf_counter()
    while True:
        run_round(wl, record)
        rounds += 1
        if rounds >= MIN_ROUNDS and time.perf_counter() - t0 >= seconds:
            break

    attempted = failed = 0
    problems: list[str] = []
    first_outputs: dict[int, object] = {}
    bound_bits = 0.0
    scaled = scaled_times(traced + record, samples)
    traced_s, record_s = scaled[:len(traced)], scaled[len(traced):]
    for i, (op, out, _, error, _) in enumerate(traced + record):
        attempted += 1
        op_failed, wrong = judge(op, out, error)
        failed += op_failed
        problems += [f"{op.label}: {p}" for p in wrong]
        slot = i % len(wl.ops)
        if slot not in first_outputs:
            first_outputs[slot] = out
            if error is None:  # otherwise the run is incorrect
                bound_bits += op.bound_bits(out)
        elif same_key(out) != same_key(first_outputs[slot]):
            problems.append(f"{op.label}: output differs between rounds with the same input")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    if trace:
        metrics = spans.layer_metrics(layer_totals, imports)
        metrics["trace.ops_per_s_ratio"] = {
            "value": (len(traced) / sum(traced_s)) / (len(record) / sum(record_s)),
            "unit": "ratio"}
        metrics["host.slowdown"] = {
            "value": sum(r[2] for r in record) / sum(record_s), "unit": "ratio"}
    else:
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        metrics = {
            "ops_per_s": {"value": len(record) / sum(record_s), "unit": "1/s"},
            "op_ms.p50": {"value": statistics.median(record_s) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
            "bound_bits": {"value": bound_bits, "unit": "bit"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    wall_s = [r[2] for r in record]
    (OUT_DIR / f"raw-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "result": result, "rounds": rounds, "traced_ops": len(traced), "problems": problems,
        "wall": {"ops_per_s": len(wall_s) / sum(wall_s),
                 "op_ms.p50": statistics.median(wall_s) * 1e3},
        "ops": [{"label": r[0].label, "ms": r[2] * 1e3, "scaled_ms": t * 1e3, "error": r[3],
                 "kernel_ms": r[4]} for r, t in zip(traced + record, scaled)]}, indent=1))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    name, seed, seconds, trace, setup_only = sys.argv[1:6]
    sys.exit(main(name, int(seed), float(seconds), trace == "1", setup_only == "1"))
