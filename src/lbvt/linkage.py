"""Closed-form four-bar closure, actuator kinematics and the jacobian.

Frame: upper-leg coordinates with the knee joint at the origin and the x axis
pointing from the knee toward the hip. The input-bar ground pivot sits at
(l1, 0); the output lever is a ray fixed in the lower leg along
config.lever_bearing (the bearing of the closed chain tip, set once when the
config is built), rotated by the knee angle, with variable length l4.
The coupler joint is the intersection of the circles (ground pivot, l2) and
(lever tip, l3); the assembly branch is picked by the configured sign and
never changes within a sweep.

The scalar jacobian is d(actuator length)/d(theta) at fixed l4, so the
knee torque is jacobian times actuator force. It is derived through the
closure: with e2 the input bar and e3 the coupler vector, the coupler joint
velocity is cross(C, e3)/cross(e2, e3) * perp(e2) per unit knee rate,
which degenerates when input bar and coupler are collinear. Both entries
read theta and l4 as finite numbers (model._read_finite) before any check.
"""

from __future__ import annotations

import math
from math import cos, hypot, sin, sqrt

from .model import GeometryError, MechanismConfig, SingularityError, _read_finite, _require_valid

SINGULARITY_SIN = 1e-8  # |sin(input-coupler angle)| below this raises


def _closure_terms(config: MechanismConfig) -> dict:
    """The config-only terms _closure_kernel reads, by name; the config stores them when built.

    _closure is (l2**2, l2**2 - l3**2, the pivot span bounds l2 + l3 and
    |l2 - l3| widened by 1e-12 m, l2 * l3, the branch sign as a float) and
    _actuator is (actuator_attach_ratio, *actuator_base).
    """
    l2, l3 = config.l2, config.l3
    return {"_closure": (l2 * l2, l2 * l2 - l3 * l3, l2 + l3 + 1e-12, abs(l2 - l3) - 1e-12,
                         l2 * l3, float(config.branch_sign)),
            "_actuator": (config.actuator_attach_ratio, *config.actuator_base)}


def _closure_kernel(config: MechanismConfig, theta: float, l4: float):
    """Pivot positions and jacobian for a lever of length l4 along config.lever_bearing.

    Returns (A, B, C, actuator_length, jacobian) at one knee angle and lever
    length. The terms that depend on the config alone come with it
    (_closure_terms). Every check runs before the division it guards.
    GeometryError is raised when the lever is not positive or the coupler
    circles do not intersect, SingularityError at the fold line.
    """
    if not l4 > 0.0:
        raise GeometryError(f"lever length must be positive, got {l4}")
    l2_sq, l2_sq_minus_l3_sq, span_max, span_min, l2_l3, s = config._closure
    ax_ = config.l1
    phase = theta + config.lever_bearing
    cx = l4 * cos(phase)
    cy = l4 * sin(phase)

    dx = cx - ax_  # the ground pivot lies on the x axis, so dy is cy
    g = hypot(dx, cy)
    if g > span_max:
        l2, l3 = config.l2, config.l3
        raise GeometryError(
            f"closure infeasible at theta={math.degrees(theta):.3f} deg, l4={l4:.5f} m: "
            f"pivot span {g:.5f} m exceeds l2 + l3 = {l2 + l3:.5f} m"
        )
    if g < span_min:
        l2, l3 = config.l2, config.l3
        raise GeometryError(
            f"closure infeasible at theta={math.degrees(theta):.3f} deg, l4={l4:.5f} m: "
            f"pivot span {g:.5f} m is below |l2 - l3| = {abs(l2 - l3):.5f} m"
        )
    if g == 0.0:
        raise GeometryError("ground pivot and lever tip coincide; closure undefined")

    ux, uy = dx / g, cy / g
    a = (l2_sq_minus_l3_sq + g * g) / (2.0 * g)
    h_sq = l2_sq - a * a
    # round-off past tangency reads 0, with the sign of h_sq's zero
    h = sqrt(h_sq if h_sq > 0.0 else h_sq * 0.0)
    bx = ax_ + a * ux - s * h * uy
    by = 0.0 + a * uy + s * h * ux  # the ground pivot's y, 0.0, turns a -0.0 into +0.0

    e2x = bx - ax_  # e2y is by
    e3x, e3y = cx - bx, cy - by
    cross_e2e3 = e2x * e3y - by * e3x
    if abs(cross_e2e3 / l2_l3) < SINGULARITY_SIN:
        raise SingularityError(
            f"transmission singularity at theta={math.degrees(theta):.3f} deg, "
            f"l4={l4:.5f} m: input bar and coupler are collinear"
        )

    r, qx, qy = config._actuator
    ex = ax_ + r * e2x - qx
    ey = 0.0 + r * by - qy
    d = hypot(ex, ey)
    if not d > 0.0:
        raise GeometryError("actuator attachment coincides with the actuator base")

    lam = (cx * e3y - cy * e3x) / cross_e2e3
    # dP/dtheta = r * lam * perp(e2); J = unit(P - base) . dP/dtheta
    jac = r * lam * (ex * (-by) + ey * e2x) / d

    return (ax_, 0.0), (bx, by), (cx, cy), d, jac


def actuator_length(config: MechanismConfig, theta: float, l4: float) -> float:
    """Distance from the actuator base to its attachment point on the input bar."""
    return _closure_kernel(_require_valid(config), _read_finite(theta, "theta"),
                           _read_finite(l4, "l4"))[3]


def jacobian(config: MechanismConfig, theta: float, l4: float) -> float:
    """Actuator extension per unit knee rotation at fixed lever length (m/rad)."""
    return _closure_kernel(_require_valid(config), _read_finite(theta, "theta"),
                           _read_finite(l4, "l4"))[4]
