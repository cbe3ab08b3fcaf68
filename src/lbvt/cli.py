"""Command-line front end: single solves, sweeps, calibration.

Angles are degrees in flags and config files and radians inside the
library; flags convert here, config files in lbvt.config. Exit codes: 0 on
success, 1 for validation or solver failures, including a sweep with any
failed row (its files are written first), 2 for usage errors. Diagnostics go
to stderr; data goes to the requested files or stdout. The parser is built
once per process, at import: argparse keeps no state between parse_args calls.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import analysis, equilibrium
from .config import load_config, save_config
from .model import CalibrationError, ConfigError, GeometryError, _AngleError, _check_force


# Sweep subcommand -> (help text, analysis function name, default --to, plot
# y columns); the plot's x axis is the table's independent column. Functions
# are looked up by name at call time, so a replacement set on lbvt.analysis
# takes effect here too.
_SWEEPS = {
    "sweep-angle": ("torque across the flexion range, CSV out", "sweep_torque_vs_angle",
                    None, ("torque_lbvt (Nm)", "torque_rigid (Nm)")),
    "trigger": ("chain diameter against force (triggering study), CSV out",
                "sweep_trigger", 50.0, ("diameter (m)",)),
    "sweep-force": ("torque against force with rigid baseline, CSV out",
                    "sweep_torque_vs_force", 200.0, ("torque_lbvt (Nm)", "torque_rigid (Nm)")),
    "ratio": ("transmission ratio against force, CSV out", "sweep_ratio_vs_force",
              200.0, ("ratio (m)", "ratio_rigid (m)")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbvt",
        description="Quasi-static analysis of the load-based variable transmission knee.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config file, silent on success")
    p.add_argument("config", help="config JSON path")

    p = sub.add_parser("solve", help="single equilibrium solve, report on stdout")
    p.add_argument("config", help="config JSON path")
    p.add_argument("--theta", type=float, required=True, help="knee angle in degrees")
    p.add_argument("--force", type=float, required=True, help="actuator force in N")

    for name, (help_text, _, stop, _) in _SWEEPS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="config JSON path")
        if name == "sweep-angle":
            p.add_argument("--force", type=float, required=True, help="actuator force in N")
            p.add_argument("--from", dest="start", type=float, help="start knee angle in degrees")
            p.add_argument("--to", dest="stop", type=float, help="end knee angle in degrees")
            p.add_argument("--step", type=float, default=10.0, help="angle step in degrees")
        else:
            p.add_argument("--theta", type=float, required=True, help="knee angle in degrees")
            p.add_argument("--from", dest="start", type=float, default=0.0, help="start force in N")
            p.add_argument("--to", dest="stop", type=float, default=stop, help="end force in N")
            p.add_argument("--step", type=float, default=0.5, help="force step in N")
        p.add_argument("--out", required=True, help="CSV output path")
        p.add_argument("--plot", help="optional SVG output path")

    p = sub.add_parser("calibrate", help="meet trigger and ratio-step targets, config out")
    p.add_argument("config", help="base config JSON path")
    p.add_argument("--trigger", type=float, required=True, help="target triggering force in N")
    p.add_argument("--ratio-step", type=float, required=True,
                   help="target fractional ratio increase, e.g. 0.40")
    p.add_argument("--theta", type=float, required=True, help="calibration knee angle in degrees")
    p.add_argument("--out", required=True, help="output config JSON path")
    return parser


_PARSER = _build_parser()

# the flags of type float, over every subcommand
_FLOAT_FLAGS = frozenset(("--theta", "--force", "--from", "--to", "--step", "--trigger",
                          "--ratio-step"))


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_float_values(argv: list[str]) -> list[str]:
    """argv with each float flag written --flag=value when its value reads as a float.

    argparse takes a separate value that starts with '-' for an option unless
    it reads as a plain negative decimal, so `--theta -8.8e1` would be a usage
    error; joined, a float flag takes any value that float() reads. A flag
    counts in full or abbreviated (argparse resolves `--thet=...` as it does
    `--thet ...`; no other option shares a prefix with a float flag). A value
    that does not read as a float is left for argparse to report.
    """
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (len(arg) > 2 and any(flag.startswith(arg) for flag in _FLOAT_FLAGS)
                and i + 1 < len(argv) and _is_float(argv[i + 1])):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def _print_solve_report(result, theta_deg: float, out) -> None:
    g = lambda v: format(v, ".9g")
    print(f"theta (deg):             {g(theta_deg)}", file=out)
    print(f"f_cyl (N):               {g(result.input_force)}", file=out)
    print(f"kfe_torque (Nm):         {g(result.kfe_torque)}", file=out)
    print(f"tip_force (N):           {g(result.tip_force)}", file=out)
    print(f"transmission_ratio (m):  {g(result.transmission_ratio)}", file=out)
    print(f"l4 (m):                  {g(result.chain.l4)}", file=out)
    print(f"diameter (m):            {g(result.chain.diameter)}", file=out)
    print(f"converged:               {'yes' if result.converged else 'no'}", file=out)
    # a converged residual is round-off below the tolerance; its digits carry no information
    residual = f"< {equilibrium.RESIDUAL_TOL:g}" if result.converged else g(result.residual)
    print(f"residual (Nm):           {residual}", file=out)
    print("joint  deflection (deg)  regime", file=out)
    for i, (d, r) in enumerate(zip(result.chain.deflection, result.chain.regime), start=1):
        print(f"{i:<6d} {format(math.degrees(d), '.9g'):<17s} {r.value}", file=out)


def _cmd_solve(args, config) -> int:
    # solve_equilibrium reports a NaN force as an unconverged solve; the CLI rejects it
    _check_force(args.force)
    result = equilibrium.solve_equilibrium(config, math.radians(args.theta), args.force)
    _print_solve_report(result, args.theta, sys.stdout)
    return 0 if result.converged else 1


def _cmd_sweep(args, config) -> int:
    _, fn_name, _, y_cols = _SWEEPS[args.command]
    sweep = getattr(analysis, fn_name)
    if args.command == "sweep-angle":
        start = math.radians(args.start) if args.start is not None else config.theta_min
        stop = math.radians(args.stop) if args.stop is not None else config.theta_max
        step = math.radians(args.step)
        if step == 0.0 < args.step:
            raise ValueError(f"--step {args.step} underflows to 0 when converted to radians")
        try:
            table = sweep(config, args.force, start, stop, step)
        except analysis._LadderError as exc:  # restated in degrees, the flags as typed
            shown = [math.degrees(rad) if deg is None else deg
                     for deg, rad in ((args.start, start), (args.stop, stop))]
            before = None if exc.before is None else math.degrees(exc.before)
            raise ValueError(exc.restate(*shown, args.step, before)) from None
    else:
        table = sweep(config, math.radians(args.theta), args.start, args.stop, args.step)
    analysis.emit_csv(table, args.out)
    failed = table.column("feasible (-)").count(0.0)
    if failed:  # before the plot, which raises when every row failed
        print(f"lbvt {args.command}: {failed} of {len(table.rows)} rows failed (feasible 0)",
              file=sys.stderr)
    if args.plot:
        analysis.emit_svg_plot(table, y_cols, args.plot)
    return 1 if failed else 0


def _cmd_calibrate(args, config) -> int:
    calibrated = analysis.calibrate(
        config, args.trigger, args.ratio_step, math.radians(args.theta)
    )
    provenance = {
        "source": "calibrate",
        "targets": {
            "triggering_force_N": args.trigger,
            "ratio_step": args.ratio_step,
            "theta_deg": args.theta,
        },
        "tolerances": {
            "triggering_force_N": analysis.TRIGGER_TOL,
            "ratio_step": analysis.RATIO_STEP_TOL,
        },
    }
    save_config(calibrated, args.out, provenance=provenance)
    trig = equilibrium.triggering_force(calibrated, math.radians(args.theta))
    step = analysis.ratio_step_direct(calibrated, math.radians(args.theta))
    print(
        f"calibrated: triggering force {trig:.3f} N, ratio step {step:.4f}; "
        f"wrote {args.out}",
        file=sys.stderr,
    )
    return 0


def run(argv=None) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    try:
        args = _PARSER.parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args.config)
        if args.command == "validate":
            return 0
        if args.command == "solve":
            return _cmd_solve(args, config)
        if args.command == "calibrate":
            return _cmd_calibrate(args, config)
        return _cmd_sweep(args, config)
    except _AngleError as exc:
        message = _angle_message(args, config, exc.theta)
    except (ConfigError, GeometryError, CalibrationError, ValueError, OSError) as exc:
        message = str(exc)
    print(f"lbvt {args.command}: {message}", file=sys.stderr)
    return 1


def _angle_message(args, config, theta: float) -> str:
    """A knee angle outside the config's range, restated in degrees with its flag as typed.

    sweep-angle's first sample is --from; every later one lies between --from
    and --to, so it can leave the range only when --to does.
    """
    if args.command != "sweep-angle":
        flag, typed = "--theta", args.theta
    elif args.start is not None and theta == math.radians(args.start):
        flag, typed = "--from", args.start
    else:
        flag, typed = "--to", args.stop
    # to 1e-9 deg, finer than the range check's 1e-9 rad slack, so that a
    # config's degree round trip shows no last-bit noise
    lo, hi = (round(math.degrees(t), 9) for t in (config.theta_min, config.theta_max))
    return f"{flag} {typed} outside the configured range [{lo}, {hi}] deg"


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
