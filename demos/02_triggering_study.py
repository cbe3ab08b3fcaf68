#!/usr/bin/env python3
"""Triggering behaviour: chain diameter against the applied actuator force.

Below the threshold the pre-tensioned joints hold and the anchor-to-tip
diameter sits on a plateau; past it the chain starts to open. The predicted
threshold from the closed-state torque balance is printed alongside the
departure point observed in the sweep.
"""

import math
import pathlib

import lbvt

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

config = lbvt.load_default_config()
theta = math.radians(-88.0)

predicted = lbvt.triggering_force(config, theta)
table = lbvt.sweep_trigger(config, theta, f_from=0.0, f_to=50.0, step=0.5)

lbvt.emit_csv(table, OUT / "triggering.csv")
lbvt.emit_svg_plot(table, ["diameter (m)"], OUT / "triggering.svg")

forces = table.column("f_cyl (N)")
diam = table.column("diameter (m)")
departure = next(f for f, d in zip(forces, diam) if abs(d - diam[0]) > 1e-9)

print(f"closed diameter:        {diam[0] * 1000:.2f} mm")
print(f"diameter at 50 N:       {max(diam) * 1000:.2f} mm")
print(f"predicted trigger:      {predicted:.2f} N")
print(f"sweep departs plateau:  {departure:.1f} N")
print(f"wrote {OUT / 'triggering.csv'} and .svg")
