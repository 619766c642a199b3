"""Run the benchmark in alternating pairs on REF and on this tree; write BENCH_<PR>.json.

Usage:  python3 tools/bench_pairs.py REF PR

``git archive REF`` is unpacked into a temporary directory, and the tracked
files of this working tree are copied into another.  Both trees get this
tree's ``bench/``, so only the program differs.  For every workload of
``BENCHMARK.json`` (index w, from 0) and i = 1..10, the seed is
100*PR + 10*w + i, and each tree runs

    python3 bench/run.py --workload W --seed N --seconds S --trace 0

with S the ``run_seconds`` of ``BENCHMARK.json``.  REF runs first at odd i
and this tree at even i.  The result lines go to ``BENCH_<PR>.json`` at the
root of this tree: for each workload and end-to-end metric, the median and
inclusive quartiles of each side, the pairs in which this tree is better
and the tied pairs, the failed operations of each side and whether every
run was correct; then every result line.  One verdict per metric is
printed: ``past`` when this tree's median is worse than REF's by more than
the metric's bound, ``unresolved`` when REF's quartiles lie further apart
than the bound, and ``within`` otherwise.  Nothing is written under
``bench/``.  Three workloads of 10 pairs at 20 seconds take about 25
minutes.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          check=True).stdout


def copy_tracked(paths: list[str], tree: Path):
    """This tree's ``paths`` as they are in the working tree, into ``tree``."""
    for name in paths:
        source = ROOT / name
        if source.is_file():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, tree / name)


def src_lines(tree: Path) -> int:
    return sum(len(path.read_text().splitlines())
               for path in (tree / "src").rglob("*.py"))


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One run of the benchmark in ``tree``, as a result line of ``BENCH_<PR>.json``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"workload": workload, "seed": seed, "trace": 0, "exit": proc.returncode,
            "wall_s": round(time.perf_counter() - start, 1), "result": result}


def cpu_model() -> str:
    """The processor's model name as Linux reports it, or what `platform` knows."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """The summary of one workload's pairs, each a dict of the two sides' result lines."""
    seeds = [pair["parent"]["seed"] for pair in pairs]
    summary = {"seeds": f"{seeds[0]}-{seeds[-1]}", "pairs": len(pairs)}
    results = [(pair["parent"]["result"], pair["change"]["result"]) for pair in pairs]
    complete = [(a, b) for a, b in results if a is not None and b is not None]
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                  for a, b in complete]
        if len(values) < 2:
            continue
        summary[name] = {
            **{side: quartiles([v[k] for v in values]) for k, side in enumerate(SIDES)},
            "change_better_pairs": sum((b > a) if higher else (b < a) for a, b in values),
            "tied_pairs": sum(a == b for a, b in values),
        }
    summary["failed"] = {side: sum(r[k]["failed"] if r[k] else 1 for r in results)
                         for k, side in enumerate(SIDES)}
    summary["correct"] = all(r is not None and r["correct"] for pair in results for r in pair)
    return summary


def verdict(entry: dict, metric: dict) -> str:
    """past, unresolved or within: this tree's median against REF's and the metric's bound."""
    parent, change = entry["parent"], entry["change"]
    scale = abs(parent["median"]) or 1.0
    worse = (change["median"] - parent["median"]) / scale
    if metric["better"] == "higher":
        worse = -worse
    spread = (parent["q3"] - parent["q1"]) / scale
    median = f"median {abs(worse):.1%} {'worse' if worse > 0 else 'better'}"
    bound = f"bound {metric['bound']:.0%}"
    if worse > metric["bound"]:
        return f"past ({median}, {bound})"
    if spread > metric["bound"]:
        return f"unresolved ({median}, REF's quartiles {spread:.1%} apart, {bound})"
    return f"within ({median}, {bound})"


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not argv[1].isdigit():
        print("usage: python3 tools/bench_pairs.py REF PR", file=sys.stderr)
        return 2
    ref, pr = argv[0], int(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    tracked = git("ls-files", "-z").decode().split("\0")[:-1]
    ref_sha = git("rev-parse", "--short", ref).decode().strip()
    head_sha = git("rev-parse", "--short", "HEAD").decode().strip()
    runs, summary = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=git("archive", ref),
                       check=True)
        shutil.rmtree(trees["parent"] / "bench", ignore_errors=True)
        copy_tracked([name for name in tracked if name.startswith("bench/")], trees["parent"])
        copy_tracked(tracked, trees["change"])
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        for w, workload in enumerate(spec["workloads"]):
            name, pairs = workload["name"], []
            for i in range(1, PAIRS + 1):
                seed = 100 * pr + 10 * w + i
                order = SIDES if i % 2 else SIDES[::-1]
                pair = {}
                for side in order:
                    pair[side] = {"side": side, **run_bench(trees[side], name, seed, seconds)}
                    runs.append(pair[side])
                    print(f"{name} seed {seed} {side}: exit {pair[side]['exit']}, "
                          f"{pair[side]['wall_s']} s", file=sys.stderr)
                pairs.append(pair)
            summary[name] = summarize(pairs, spec["end_to_end"])
    doc = {
        "change": f"the tracked files of the working tree at {head_sha} against {ref} ({ref_sha})",
        "command": f"python3 bench/run.py --workload W --seed N --seconds {seconds} --trace 0",
        "method": (f"tools/bench_pairs.py {ref} {pr}: parent from a git archive of {ref} "
                   f"({ref_sha}), change from a copy of every tracked file of the working tree, "
                   "this tree's bench/ in both; 10 pairs per workload, the side that runs first "
                   "alternating (parent first at the first seed of each set); medians and "
                   "quartiles (inclusive) over the 10 runs of each side"),
        "machine": {"cpus": os.cpu_count(), "cpu": cpu_model(), "os": platform.platform()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": lines,
        "summary": summary,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.name}")
    for name, entry in summary.items():
        print(f"{name}: {entry['failed']['parent']} / {entry['failed']['change']} failed "
              f"operations, correct {entry['correct']}")
        for metric in spec["end_to_end"]:
            if metric["name"] in entry:
                print(f"  {metric['name']}: {verdict(entry[metric['name']], metric)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
