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
The closure check that validation runs, _closure_violations, sits beside the
kernel whose checks it reasons about.
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


def _extreme_angle(config: MechanismConfig, phase: float) -> float:
    """Knee angle in the range where cos(theta + lever_bearing) is least or greatest.

    phase is pi for the least cosine and 0 for the greatest. The extremes lie
    at the range ends or where theta + lever_bearing is phase modulo 2*pi;
    the range spans less than pi, so it holds at most one such angle.
    """
    b = config.lever_bearing
    turn = 2.0 * math.pi
    inner = phase - b + turn * math.ceil((config.theta_min + b - phase) / turn)
    if inner <= config.theta_max:
        return inner
    ends = (config.theta_min, config.theta_max)
    return (min if phase else max)(ends, key=lambda theta: math.cos(theta + b))


def _closure_violations(config: MechanismConfig) -> list[str]:
    """Exact closure check over the box of knee angles x lever lengths.

    Runs while the config is built, once its fields passed their checks.
    The box is theta in [theta_min, theta_max] and l4 between the closed and
    the fully open lever, both already stored on the config, so the check
    runs no chain pass. Every check of _closure_kernel but the
    actuator one accepts an interval of the pivot span g, where
    g**2 = l4**2 + l1**2 - 2*l1*l4*cos(theta + lever_bearing): the circle
    checks bound g, and the fold test |sin B| = 2*area/(l2*l3) fails only
    near both ends of [|l2 - l3|, l2 + l3], since 16*area**2 is a concave
    quadratic in g**2. Over the box g**2 is linear in the cosine and convex
    in l4, so g is longest at an end lever where the cosine is least, and
    shortest where the cosine is greatest, at l4 = l1*cos clamped to the
    lever range. The solver's own kernel at those at most three points
    decides the whole box; each failing lever is reported once, with the
    kernel's message at its extreme span. The actuator attachment runs on a
    circle of radius actuator_attach_ratio * l2 about the ground pivot, so
    the actuator length can reach 0 only when the actuator base lies on it.
    """
    closed, open_ = config._closed_lever, config._open_lever
    theta_far = _extreme_angle(config, math.pi)
    theta_near = _extreme_angle(config, 0.0)
    near = min(max(config.l1 * math.cos(theta_near + config.lever_bearing),
                   min(closed, open_)), max(closed, open_))
    near_label = ("closed" if near == closed else
                  "fully open" if near == open_ else "partly open")
    points = (("closed", theta_far, closed), ("fully open", theta_far, open_),
              (near_label, theta_near, near))
    failed: dict[str, str] = {}
    for label, theta, l4 in points:
        # one message per lever; a partly open one only when both end levers hold
        if label not in failed and (label != "partly open" or not failed):
            try:
                _closure_kernel(config, theta, l4)
            except GeometryError as exc:
                failed[label] = f"four-bar closure fails with the {label} lever: {exc}"
    out = [failed[label] for label in ("closed", "partly open", "fully open") if label in failed]

    radius = config.actuator_attach_ratio * config.l2
    qx, qy = config.actuator_base
    if math.hypot(qx - config.l1, qy) == radius:
        out.append(
            f"actuator base lies on the attachment circle, {radius:.5f} m about the "
            "input-bar ground pivot: the actuator length can reach 0"
        )
    return out


def actuator_length(config: MechanismConfig, theta: float, l4: float) -> float:
    """Distance from the actuator base to its attachment point on the input bar."""
    return _closure_kernel(_require_valid(config), _read_finite(theta, "theta"),
                           _read_finite(l4, "l4"))[3]


def jacobian(config: MechanismConfig, theta: float, l4: float) -> float:
    """Actuator extension per unit knee rotation at fixed lever length (m/rad)."""
    return _closure_kernel(_require_valid(config), _read_finite(theta, "theta"),
                           _read_finite(l4, "l4"))[4]
