#!/usr/bin/env python3
"""Load-dependent transmission ratio and the saturated ratio step.

The transmission ratio (knee torque per newton of actuator force) is the
closure jacobian at the current lever length. It stays at the closed-lever
value below the trigger, climbs while joints open, and levels off once every
joint rests on its end stop. The step between the two plateaus is the
headline gain of the mechanism.
"""

import math
import pathlib

import lbvt

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

config = lbvt.load_default_config()
theta = math.radians(-88.0)

table = lbvt.sweep_ratio_vs_force(config, theta, f_from=0.0, f_to=200.0, step=0.5)
lbvt.emit_csv(table, OUT / "ratio.csv")
lbvt.emit_svg_plot(table, ["ratio (m)", "ratio_rigid (m)"], OUT / "ratio.svg")

step_sweep = lbvt.ratio_step_from_sweep(table)
step_direct = lbvt.ratio_step_direct(config, theta)

ratios = table.column("ratio (m)")
print(f"closed-lever ratio:     {ratios[0] * 1000:.2f} mm")
print(f"saturated ratio:        {max(ratios) * 1000:.2f} mm")
print(f"ratio step (sweep):     {step_sweep:.4f}")
print(f"ratio step (geometry):  {step_direct:.4f}")
print(f"wrote {OUT / 'ratio.csv'} and .svg")
