"""Compare what the library computes and the CLI prints at REF and in this tree.

Usage:  python3 tools/compare_outputs.py REF

``git archive REF`` is unpacked into a temporary directory.  For that tree
and for this working tree, a fresh interpreter with one BLAS thread dumps:

- the value of every ``intrinsic-joints`` operation of seeds 0-21 as
  `float.hex`, once with Eve's map pools cleared (cold) and once again
  (warm), and the same for its ``refine=False`` value, the deterministic
  search alone;
- the same two values on joints that the alphabet reduction merges: 40
  symbols with four distinct conditionals, six symbols in two groups of
  three, a joint with zero-weight symbols interleaved, and each seed-0
  ``intrinsic-joints`` joint with every symbol split into two equal halves;
  and the exception type a joint of 17 distinct conditionals raises;
- the device layer value by value: the sha256 of the `behavior_from` table
  of the honest device at 41 values of nu in [0, 1] and of
  `separable_chsh2_strategy` at 11 values of q in [0, 1/2], and the
  `float.hex` of every float of `dephasing_simulation` at 21 values of p
  in [0, 1 - 1/sqrt(2)] for each kind;
- fbjl's witness: the `float.hex` of every cell of `bounds._fbjl_joint`
  at 41 values of nu in [0, 1];
- the ccq layer value by value: on the honest device at 11 values of nu in
  [0, 1], with Eve's purifier unmapped, measured (`povm_map`) or through a
  channel (`kraus_map`), the `float.hex` of `cmi_ccq` of `assemble_ccq` at
  the key setting, `cc_sq_multi`, `intrinsic_nonlocality_upper` and
  `cmi_ccq` of `broadcast_ccq`, with uniform p(x, y);
- ``er`` stdout on the random 2x3 state of the ``cold-cli`` workload, seeds
  1-10;
- the curve layer through ``cli.main`` in process, as the exit code and the
  sha256 of stdout of 183 ``curve`` commands, each once as printed and once
  with ``cli._fmt`` printing every number in full: the five named curves at
  grids 2, 3, 4, 17, 64, 257 and 1001 in both formats on both axes, each
  on ``--min 0.1 --max 0.9`` and on ``--axis omega`` up to a ``--max``
  just past 2*sqrt(2), and the three channel kinds at grids 2, 21, 64, 401
  and 1001 in both formats and on ``--p-min 0.3 --p-max 0.7``;
- stdout, stderr and exit code of 56 more CLI commands, each in its own
  process: every curve, ``device`` at five values of nu in both formats,
  ``localweight`` on the honest behavior and on a fixed behavior of shape
  (2, 3, 3, 2) (`mixed_behavior`), both ``simulate`` kinds at five values of
  p in both formats, and three errors.

The inputs come from ``bench/workloads.py`` of this tree and from
`mixed_behavior`, so both trees see the same ones.  Temporary paths are
normalized before the comparison.  Exit 0 when every item (2,369 of them)
is identical; otherwise the first differing items are printed, each
`float.hex` pair also as its old value, its new value and new - old, then
the largest rise over every differing `float.hex` item, and the exit code
is 1.  A comparison takes about 25 seconds on two cores.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
INTRINSIC_SEEDS = range(22)
ER_SEEDS = range(1, 11)
SIMULATE_PS = ("0", "0.1", "0.2", "0.25", "0.29")
DEVICE_NUS = ("0", "0.1", "0.29", "0.6", "1")
NAMED_CURVES = ("al", "fbjl", "hull", "fractional", "pironio")
CHANNEL_KINDS = ("dephasing", "depolarizing", "erasure")
SHOWN_DIFFERENCES = 5


def mixed_behavior() -> dict:
    """A behavior document of shape (2, 3, 3, 2) whose local weight is below 1.

    Three deterministic vertices (weights 0.2, 0.15, 0.1) plus, with weight
    0.55, a no-signaling box that is a PR box on x, y in {0, 1} and perfectly
    correlated at y = 2, with Alice's outcome 2 unused.  Its vertex indices
    and residual show any change of the vertex order.
    """
    p = np.zeros((2, 3, 3, 2))
    for w, a_map, b_map in ((0.2, (0, 2), (1, 0, 1)), (0.15, (2, 1), (0, 0, 1)),
                            (0.1, (1, 1), (1, 1, 0))):
        for x in range(2):
            for y in range(3):
                p[x, y, a_map[x], b_map[y]] += w
    for x in range(2):
        for y in range(3):
            for a in range(2):
                p[x, y, a, (a + x * y) % 2 if y < 2 else a] += 0.55 / 2
    return {"x_count": 2, "y_count": 3, "a_count": 3, "b_count": 2, "p": p.tolist()}


def curve_commands() -> list[list[str]]:
    """The argv of every ``curve`` command run in process."""
    commands = [["curve", name, "--grid", str(grid), "--format", fmt, "--axis", axis]
                for name in NAMED_CURVES for grid in (2, 3, 4, 17, 64, 257, 1001)
                for fmt in ("csv", "json") for axis in ("nu", "omega")]
    commands += [["curve", name, *limits] for name in NAMED_CURVES
                 for limits in (["--min", "0.1", "--max", "0.9"],
                                ["--axis", "omega", "--max", "2.8284271247465"])]
    commands += [["curve", "channel", "--kind", kind, "--grid", str(grid), "--format", fmt]
                 for kind in CHANNEL_KINDS for grid in (2, 21, 64, 401, 1001)
                 for fmt in ("csv", "json")]
    commands += [["curve", "channel", "--kind", kind, "--p-min", "0.3", "--p-max", "0.7"]
                 for kind in CHANNEL_KINDS]
    return commands


def main_in_process(cli, argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of ``cli.main(argv)``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_commands(behavior: Path, state: Path, mixed: Path) -> list[list[str]]:
    """The argv of every CLI command whose output is compared."""
    commands = [["curve", name, "--grid", "64", "--format", fmt]
                for name in NAMED_CURVES for fmt in ("csv", "json")]
    commands += [["curve", name, "--grid", "64", "--axis", "omega"] for name in NAMED_CURVES]
    commands.append(["curve", "hull", "--grid", "257"])
    commands += [["curve", "channel", "--kind", kind, "--grid", "33"] for kind in CHANNEL_KINDS]
    commands += [["device", "--nu", nu, "--format", fmt]
                 for nu in DEVICE_NUS for fmt in ("json", "csv")]
    commands += [["localweight", "--file", str(path), "--format", fmt]
                 for path in (behavior, mixed) for fmt in ("json", "csv")]
    commands += [["simulate", "--kind", kind, "--p", p, "--format", fmt]
                 for kind in ("depolarizing", "erasure") for p in SIMULATE_PS
                 for fmt in ("json", "csv")]
    commands += [["simulate", "--kind", "erasure", "--p", "0.5"],  # no violation: exit 1
                 ["er", "--file", str(state), "--restarts", "0"],  # usage: exit 2
                 ["localweight", "--file", str(behavior.parent / "missing.json")]]  # exit 1
    return commands


def device_items(diqkd_bounds) -> dict[str, str]:
    """The device layer's values, from the library in process."""
    items = {}
    devices = (("honest", diqkd_bounds.honest_chsh_device, np.linspace(0, 1, 41)),
               ("separable", diqkd_bounds.separable_chsh2_strategy, np.linspace(0, 0.5, 11)))
    for label, build, params in devices:
        for param in map(float, params):
            table = diqkd_bounds.behavior_from(*build(param)).table
            items[f"behavior {label} {param!r}"] = hashlib.sha256(table.tobytes()).hexdigest()
    for kind in ("depolarizing", "erasure"):
        for p in map(float, np.linspace(0, 1 - 1 / np.sqrt(2), 21)):
            report = diqkd_bounds.dephasing_simulation(kind, p)
            items[f"simulation {kind} {p!r}"] = json.dumps(
                [float.hex(v) for v in dataclasses.astuple(report) if isinstance(v, float)])
    return items


def witness_items(diqkd_bounds) -> dict[str, str]:
    """Every cell of fbjl's witness joint p(a, b, e) at 41 values of nu in [0, 1]."""
    items = {}
    for nu in map(float, np.linspace(0, 1, 41)):
        p = diqkd_bounds.bounds._fbjl_joint(nu)
        for cell in np.ndindex(p.shape):
            items[f"fbjl joint {nu!r} {cell}"] = float.hex(float(p[cell]))
    return items


def eve_maps(diqkd_bounds, nu: float) -> dict:
    """No map, a measurement and a seeded channel on the purifier of the honest device."""
    d = 1 if nu == 0.0 else 4  # rank of the isotropic state
    rng = np.random.default_rng(40 + d)
    g = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
    isometry = np.linalg.qr(g)[0]  # two Kraus operators stacked
    return {"none": None,
            "povm": diqkd_bounds.povm_map(list(np.eye(d)[:, :, None] * np.eye(d)[:, None, :])),
            "kraus": diqkd_bounds.kraus_map([isometry[:d], isometry[d:]])}


def ccq_items(diqkd_bounds) -> dict[str, str]:
    """The ccq layer's values on the honest device, from the library in process."""
    items = {}
    uniform = np.full((3, 2), 1 / 6)
    for nu in map(float, np.linspace(0, 1, 11)):
        state, family = diqkd_bounds.honest_chsh_device(nu)
        key = (family.alice[0], family.bob[0])
        for kind, eve in eve_maps(diqkd_bounds, nu).items():
            maps = None if eve is None else dict.fromkeys(np.ndindex(3, 2), eve)
            values = {
                "assemble_ccq": diqkd_bounds.cmi_ccq(diqkd_bounds.assemble_ccq(state, key, eve)),
                "cc_sq_multi": diqkd_bounds.cc_sq_multi(state, family, uniform, maps),
                "intrinsic_nonlocality_upper":
                    diqkd_bounds.intrinsic_nonlocality_upper(state, family, maps),
                "broadcast_ccq":
                    diqkd_bounds.cmi_ccq(diqkd_bounds.broadcast_ccq(state, family, uniform, maps)),
            }
            for name, value in values.items():
                items[f"ccq honest {nu!r} {kind} {name}"] = float.hex(value)
    return items


def merging_joints(seed_zero: list[np.ndarray]) -> dict[str, np.ndarray]:
    """Joints that `intrinsic_info` reduces exactly before its search."""
    copies = np.zeros((2, 2, 40))
    for e in range(40):
        copies[e % 2, (e // 2) % 2, e] = 1 / 40
    groups = np.zeros((2, 2, 6))
    for a, b, e in itertools.product(range(2), range(2), range(6)):
        groups[a, b, e] = (0.45 if a == b else 0.05) * (0.7 if e % 2 == a else 0.3) / 3
    zeros = np.zeros((2, 2, 11))
    zeros[:, :, 1::2] = np.random.default_rng(7).dirichlet(np.ones(20)).reshape(2, 2, 5)
    joints = {"40 copies": copies, "two groups of three": groups, "zeros interleaved": zeros}
    # halving is exact, so each pair of halves has its symbol's conditional
    joints.update({f"halves of seed 0 op {i}": np.repeat(p / 2, 2, axis=2)
                   for i, p in enumerate(seed_zero)})
    return joints


def dump(tree: Path) -> dict[str, str]:
    """Every compared item of the library in ``tree``, keyed by a label."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "bench")]
    import workloads
    import diqkd_bounds
    from diqkd_bounds import cli, measures

    assert Path(measures.__file__).resolve().is_relative_to(tree.resolve()), measures.__file__
    items: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        intrinsic_info = measures.intrinsic_info
        # every pool cache of the tree: some trees keep the partition pools
        # in a second cache, _partition_pool, beside _map_pool
        pools = [getattr(measures, name) for name in ("_map_pool", "_partition_pool")
                 if hasattr(measures, name)]
        # the operations look measures.intrinsic_info up at each call
        for refine in (True, False):
            measures.intrinsic_info = functools.partial(intrinsic_info, refine=refine)
            unrefined = "" if refine else " unrefined"
            for seed in INTRINSIC_SEEDS:
                for i, op in enumerate(workloads.intrinsic_joints(seed, work).ops):
                    for cache in pools:
                        cache.cache_clear()
                    label = f"intrinsic{unrefined} seed {seed} op {i}"
                    items[f"{label} cold"] = float.hex(op.run())
                    items[f"{label} warm"] = float.hex(op.run())
        seed_zero: list[np.ndarray] = []
        measures.intrinsic_info = lambda p, **kwargs: seed_zero.append(p)
        for op in workloads.intrinsic_joints(0, work).ops:
            op.run()
        measures.intrinsic_info = intrinsic_info
        for label, p in merging_joints(seed_zero).items():
            items[f"intrinsic {label}"] = float.hex(intrinsic_info(p))
            items[f"intrinsic unrefined {label}"] = float.hex(intrinsic_info(p, refine=False))
        distinct = np.random.default_rng(61).dirichlet(np.ones(68)).reshape(2, 2, 17)
        try:
            outcome = float.hex(intrinsic_info(distinct))
        except ValueError as exc:
            outcome = type(exc).__name__
        items["intrinsic 17 distinct conditionals"] = outcome
        items.update(device_items(diqkd_bounds))
        items.update(witness_items(diqkd_bounds))
        items.update(ccq_items(diqkd_bounds))
        env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}

        def run(argv: list[str]) -> str:
            proc = subprocess.run([sys.executable, "-m", "diqkd_bounds.cli", *argv],
                                  capture_output=True, text=True, cwd=work, env=env)
            return json.dumps([proc.returncode, proc.stdout, proc.stderr])

        for seed in ER_SEEDS:
            state_dir = work / f"cold-cli-{seed}"
            state_dir.mkdir()
            workloads.ColdCli(seed, state_dir)
            items[f"er cold-cli seed {seed}"] = json.dumps(main_in_process(
                cli, ["er", "--file", str(state_dir / "random.json"), "--seed", str(seed)]))
        # 12 digits hide a change in the last bits of a column, so each
        # command also runs with every number printed in full
        printed = cli._fmt
        for label, fmt in (("in process", printed),
                           ("in process full precision", lambda x: repr(float(x)))):
            cli._fmt = fmt
            for argv in curve_commands():
                code, out = main_in_process(cli, argv)
                items[f"{label} {' '.join(argv)}"] = json.dumps(
                    [code, hashlib.sha256(out.encode()).hexdigest()])
        cli._fmt = printed
        inputs = work / "cold-cli-1"
        mixed = work / "mixed.json"
        mixed.write_text(json.dumps(mixed_behavior()))
        for argv in cli_commands(inputs / "behavior.json", inputs / "isotropic.json", mixed):
            items[" ".join(argv)] = run(argv)
    def normalized(text: str) -> str:
        return text.replace(tmp, "<tmp>").replace(str(tree), "<tree>")

    return {normalized(key): normalized(value) for key, value in items.items()}


def dump_in_fresh_process(tree: Path) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, __file__, "--dump", str(tree)],
                            stdout=subprocess.PIPE, env={**os.environ, **ONE_THREAD})


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--dump":
        json.dump(dump(Path(argv[1])), sys.stdout)
        return 0
    if len(argv) != 1:
        print("usage: python3 tools/compare_outputs.py REF", file=sys.stderr)
        return 2
    ref = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        ref_tree = Path(tmp) / "ref"
        ref_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                                 capture_output=True)
        if archive.returncode != 0:
            print(f"error: git archive {ref}: {archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(ref_tree)], input=archive.stdout, check=True)
        procs = {"ref": dump_in_fresh_process(ref_tree), "tree": dump_in_fresh_process(ROOT)}
        outputs = {name: proc.communicate()[0] for name, proc in procs.items()}
        if any(proc.returncode != 0 for proc in procs.values()):
            print("error: a dump failed", file=sys.stderr)
            return 2
    before, after = (json.loads(outputs[name]) for name in ("ref", "tree"))
    differing = [key for key in {**before, **after} if before.get(key) != after.get(key)]
    rises = {key: rise for key in differing
             if (rise := hex_rise(before.get(key), after.get(key))) is not None}
    for key in differing[:SHOWN_DIFFERENCES]:
        print(f"{key}:\n  {ref}: {before.get(key)!r:.300}\n  tree: {after.get(key)!r:.300}")
        if key in rises:
            print(f"  old {float.fromhex(before[key])!r}, new {float.fromhex(after[key])!r}, "
                  f"new - old {rises[key]:+.3e}")
    if rises:
        key = max(rises, key=rises.get)
        print(f"largest rise of a float.hex item: {rises[key]:+.3e} at {key}")
    print(f"{len(before)} items at {ref}, {len(after)} in this tree, {len(differing)} differ")
    return 1 if differing else 0


def hex_rise(old, new) -> float | None:
    """new - old when both items are `float.hex` strings, else None."""
    if not all(isinstance(v, str) and v.lstrip("-").startswith("0x") for v in (old, new)):
        return None
    return float.fromhex(new) - float.fromhex(old)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
