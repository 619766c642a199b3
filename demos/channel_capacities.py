"""Channel capacity bounds and the dephasing simulation check.

Prints the device-independent secret-key capacity bounds of the dephasing,
depolarizing, and erasure qubit channels over their noise range, then
verifies that a dephasing device replicates the CHSH statistics of the other
two channels (the construction behind the "use a dephasing channel" advice).
The CSVs are written in the CLI's format: each is what ``diqkd-bounds curve
channel --kind KIND --grid 21`` prints.

Run:  python3 demos/channel_capacities.py
"""

import pathlib

from diqkd_bounds import channel_curve, dephasing_simulation
from diqkd_bounds.cli import _curve_csv

OUT = pathlib.Path(__file__).resolve().parent


def main():
    print("channel DI capacity bounds (bits per use)\n")
    print("  p      dephasing  depolarizing  erasure")
    curves = {k: channel_curve(k, grid=21, p_min=0.0, p_max=1.0)
              for k in ("dephasing", "depolarizing", "erasure")}
    for i, p in enumerate(curves["dephasing"].params):
        vals = [curves[k].values[i] for k in
                ("dephasing", "depolarizing", "erasure")]
        print(f"  {p:.2f}   " + "     ".join(f"{v:.5f}" for v in vals))

    for kind, curve in curves.items():
        (OUT / f"channel_{kind}.csv").write_text(_curve_csv(curve))
    print("\nwrote channel_{dephasing,depolarizing,erasure}.csv")

    print("\ndephasing-simulation verification")
    print("(a dephasing device reproduces the target channel's CHSH value)\n")
    for kind in ("depolarizing", "erasure"):
        for p in (0.0, 0.1, 0.2):
            r = dephasing_simulation(kind, p)
            print(f"  {kind:12s} p={p:.2f}: dephasing q={r.dephasing_noise:.5f}  "
                  f"omega {r.omega_target:.6f} vs {r.omega_dephasing:.6f}  "
                  f"(dev {r.chsh_deviation:.1e}, "
                  f"{'ok' if r.chsh_match and r.qber_match else 'MISMATCH'})")
    print("\nso the statistics of either channel device are explainable by a")
    print("dephasing channel, whose own key capacity caps the DI rate.")


if __name__ == "__main__":
    main()
