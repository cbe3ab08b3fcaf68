#!/usr/bin/env python3
"""Torque across the flexion range, with and without the opening chain.

Sweeps the knee from -141 to -39.5 degrees at a 165 N actuator force and
compares the variable-lever torque against a rigid baseline whose lever is
frozen at the closed length. The amplification peaks near -88 degrees and
fades toward extension.
"""

import math
import pathlib

import lbvt

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

config = lbvt.load_default_config()
table = lbvt.sweep_torque_vs_angle(
    config,
    f_cyl=165.0,
    theta_from=config.theta_min,
    theta_to=config.theta_max,
    step=math.radians(10.0),
)

lbvt.emit_csv(table, OUT / "torque_profile.csv")
lbvt.emit_svg_plot(
    table, ["torque_lbvt (Nm)", "torque_rigid (Nm)"], OUT / "torque_profile.svg"
)

thetas = table.column("theta (deg)")
lbvt_t = table.column("torque_lbvt (Nm)")
rigid_t = table.column("torque_rigid (Nm)")

print(f"{'theta (deg)':>12} {'with chain (Nm)':>16} {'rigid (Nm)':>12} {'extra (Nm)':>11}")
for th, tl, tr in zip(thetas, lbvt_t, rigid_t):
    print(f"{th:12.1f} {tl:16.3f} {tr:12.3f} {tl - tr:11.3f}")

peak = max(range(len(thetas)), key=lambda i: lbvt_t[i])
print(f"\npeak torque {lbvt_t[peak]:.2f} Nm at {thetas[peak]:.1f} deg")
print(f"wrote {OUT / 'torque_profile.csv'} and .svg")
