"""Command-line interface emitting bound curves and single-point evaluations.

Exit codes: 0 on success, 2 on usage errors, 1 on numerical failure.  All
numeric output uses 12 significant digits, `.` as the decimal separator, and
newline-terminated lines, so identical invocations produce byte-identical
output on one platform.  ``--seed`` reaches ``er`` only; ``curve`` accepts it
and ignores it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import fileio
from .bounds import (
    CURVES,
    BoundCurve,
    SimulationReport,
    bound_curve,
    channel_curve,
    dephasing_simulation,
    hull_curve,
)
from .devices import behavior_from, honest_chsh_device
from .measures import er_numeric
from .polytope import max_local_weight

CSV_HEADER = "param,omega,qber,value"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _curve_csv(curve: BoundCurve) -> str:
    lines = [CSV_HEADER]
    for s in curve.samples:
        lines.append(",".join(_fmt(v) for v in (s.param, s.omega, s.qber, s.value)))
    return "\n".join(lines) + "\n"


def _curve_json(curve: BoundCurve) -> str:
    doc = {
        "name": curve.name,
        "axis": curve.axis,
        "samples": [
            {"param": float(_fmt(s.param)), "omega": float(_fmt(s.omega)),
             "qber": float(_fmt(s.qber)), "value": float(_fmt(s.value))}
            for s in curve.samples
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


def _report_doc(report: SimulationReport) -> dict:
    return {
        "kind": report.kind,
        "p": float(_fmt(report.p)),
        "dephasing_noise": float(_fmt(report.dephasing_noise)),
        "omega_target": float(_fmt(report.omega_target)),
        "omega_dephasing": float(_fmt(report.omega_dephasing)),
        "qber_target": float(_fmt(report.qber_target)),
        "qber_dephasing": float(_fmt(report.qber_dephasing)),
        "chsh_deviation": float(_fmt(report.chsh_deviation)),
        "qber_deviation": float(_fmt(report.qber_deviation)),
        "chsh_match": report.chsh_match,
        "qber_match": report.qber_match,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diqkd-bounds",
        description="Upper bounds on device-independent QKD key rates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="sample a named bound curve")
    names = list(CURVES)
    names.insert(names.index("fbjl") + 1, "hull")  # right after the two curves it joins
    curve.set_defaults(run=_run_curve)
    curve.add_argument("name", choices=[*names, "channel"])
    curve.add_argument("--grid", type=int, default=64)
    curve.add_argument("--axis", choices=["nu", "omega"], default="nu")
    curve.add_argument("--min", type=float, default=None, dest="lo")
    curve.add_argument("--max", type=float, default=None, dest="hi")
    curve.add_argument("--kind", choices=["dephasing", "depolarizing", "erasure"],
                       help="channel kind (curve channel only)")
    curve.add_argument("--p-min", type=float, default=0.0)
    curve.add_argument("--p-max", type=float, default=1.0)
    curve.add_argument("--format", choices=["csv", "json"], default="csv")
    curve.add_argument("--seed", type=int, default=0,
                       help="accepted for compatibility; reaches no curve")
    curve.add_argument("--output", default=None, help="write here instead of stdout")

    er = sub.add_parser("er", help="numerical relative entropy of entanglement")
    er.set_defaults(run=_run_er)
    er.add_argument("--file", required=True, help="state file (JSON)")
    er.add_argument("--ensemble-size", type=int, default=None)
    er.add_argument("--restarts", type=int, default=8)
    er.add_argument("--seed", type=int, default=0)
    er.add_argument("--format", choices=["csv", "json"], default="json")
    er.add_argument("--output", default=None)

    lw = sub.add_parser("localweight", help="maximal local weight of a behavior")
    lw.set_defaults(run=_run_localweight)
    lw.add_argument("--file", required=True, help="behavior file (JSON)")
    lw.add_argument("--format", choices=["csv", "json"], default="json")
    lw.add_argument("--output", default=None)

    dev = sub.add_parser("device", help="dump the honest CHSH device behavior")
    dev.set_defaults(run=_run_device)
    dev.add_argument("--nu", type=float, required=True)
    dev.add_argument("--format", choices=["csv", "json"], default="json")
    dev.add_argument("--output", default=None)

    sim = sub.add_parser("simulate", help="dephasing-simulation verification report")
    sim.set_defaults(run=_run_simulate)
    sim.add_argument("--kind", choices=["depolarizing", "erasure"], required=True)
    sim.add_argument("--p", type=float, required=True)
    sim.add_argument("--format", choices=["csv", "json"], default="json")
    sim.add_argument("--output", default=None)

    return parser


def _run_curve(args) -> str:
    if args.name == "channel":
        if not args.kind:
            raise SystemExit("error: curve channel requires --kind")
        curve = channel_curve(args.kind, grid=args.grid, p_min=args.p_min,
                              p_max=args.p_max)
    elif args.name == "hull":
        curve = hull_curve(grid=args.grid, lo=args.lo, hi=args.hi,
                           axis=args.axis).curve
    else:
        curve = bound_curve(args.name, grid=args.grid, lo=args.lo, hi=args.hi,
                            axis=args.axis)
    return _curve_csv(curve) if args.format == "csv" else _curve_json(curve)


def _run_er(args) -> str:
    if args.restarts < 1:
        raise SystemExit("error: --restarts must be positive")
    if args.ensemble_size is not None and args.ensemble_size < 1:
        raise SystemExit("error: --ensemble-size must be positive")
    rho = fileio.load_state(args.file)
    value = er_numeric(rho, k=args.ensemble_size, restarts=args.restarts,
                       seed=args.seed)
    if args.format == "csv":
        return "value\n" + _fmt(value) + "\n"
    return json.dumps({"value": float(_fmt(value))}) + "\n"


def _run_localweight(args) -> str:
    behavior = fileio.load_behavior(args.file)
    dec = max_local_weight(behavior)
    active = [(i, float(w)) for i, w in enumerate(dec.vertex_weights) if w > 1e-12]
    if args.format == "csv":
        lines = ["quantity,value", f"local_weight,{_fmt(dec.local_weight)}",
                 f"nonlocal_weight,{_fmt(1.0 - dec.local_weight)}"]
        for i, w in active:
            lines.append(f"vertex_{i},{_fmt(w)}")
        return "\n".join(lines) + "\n"
    doc = {
        "local_weight": float(_fmt(dec.local_weight)),
        "nonlocal_weight": float(_fmt(1.0 - dec.local_weight)),
        "vertex_weights": {str(i): float(_fmt(w)) for i, w in active},
        "residual_used": dec.residual_used,
        "residual": fileio.behavior_to_dict(dec.residual),
    }
    return json.dumps(doc, indent=1) + "\n"


def _run_device(args) -> str:
    state, family = honest_chsh_device(args.nu)
    behavior = behavior_from(state, family)
    if args.format == "json":
        return json.dumps(fileio.behavior_to_dict(behavior), indent=1) + "\n"
    lines = ["x,y,a,b,p"]
    x_count, y_count, a_count, b_count = behavior.shape
    for x in range(x_count):
        for y in range(y_count):
            for a in range(a_count):
                for b in range(b_count):
                    lines.append(f"{x},{y},{a},{b},{_fmt(behavior.table[x, y, a, b])}")
    return "\n".join(lines) + "\n"


def _run_simulate(args) -> str:
    report = dephasing_simulation(args.kind, args.p)
    doc = _report_doc(report)
    if args.format == "json":
        return json.dumps(doc, indent=1) + "\n"
    keys = list(doc)
    return (",".join(keys) + "\n"
            + ",".join(str(doc[k]).lower() if isinstance(doc[k], bool) else str(doc[k])
                       for k in keys) + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = args.run(args)
        _emit(text, args.output)
    except SystemExit as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
