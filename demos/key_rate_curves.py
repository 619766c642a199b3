"""Reproduce the CHSH key-rate bound curves as CSV data.

Walks the isotropic-noise axis and evaluates every static bound the library
provides: the two explicit attacks (quantum Bell-mixture attack and the
convex-combination attack), their convex hull, and the two relative-entropy
bounds.  Writes one CSV per curve next to this script and prints a compact
table.

Run:  python3 demos/key_rate_curves.py [grid_size]
"""

import csv
import pathlib
import sys

from diqkd_bounds import bound_curve, convex_hull_bound

OUT = pathlib.Path(__file__).resolve().parent


def write_curve(curve, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["param", "omega", "qber", "value"])
        for s in curve.samples:
            w.writerow([f"{v:.12g}" for v in (s.param, s.omega, s.qber, s.value)])


def main():
    grid = int(sys.argv[1]) if len(sys.argv) > 1 else 33
    print(f"sampling bound curves on a {grid}-point isotropic-noise grid")
    curves = {name: bound_curve(name, grid=grid) for name in
              ("al", "fbjl", "fractional", "pironio")}
    hull = convex_hull_bound(curves["al"], curves["fbjl"])
    curves["hull"] = hull.curve

    for name, curve in curves.items():
        path = OUT / f"curve_{name}.csv"
        write_curve(curve, path)
        print(f"  wrote {path.name}")

    print("\n  nu      omega   al       fbjl     hull     fractional pironio")
    for i, s in enumerate(curves["al"].samples):
        if i % max(grid // 12, 1) and i != grid - 1:
            continue
        row = [curves[n].samples[i].value for n in
               ("al", "fbjl", "hull", "fractional", "pironio")]
        print(f"  {s.param:.4f}  {s.omega:.4f}  " + "  ".join(f"{v:.5f}" for v in row))

    print("\nthe hull supports sit at grid indices:", hull.support_indices)
    print("note: al is the tighter attack at low noise, while fbjl (local rounds")
    print("mixed with the noiseless quantum device) takes over near the frontier")
    print("and hits zero before the CHSH violation disappears; the hull bridges them.")


if __name__ == "__main__":
    main()
