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
which degenerates when input bar and coupler are collinear.
"""

from __future__ import annotations

import math

from .model import GeometryError, MechanismConfig, SingularityError, _require_valid

SINGULARITY_SIN = 1e-8  # |sin(input-coupler angle)| below this raises


def _closure_kernel(config: MechanismConfig, theta, l4, xp=math):
    """Pivot positions and jacobian for a lever of length l4 along config.lever_bearing.

    Returns (A, B, C, actuator_length, jacobian). theta and l4 are floats with
    xp=math (the solver's hot path), or numpy arrays (or a float and an
    array) that broadcast together with xp=numpy; B, C, the actuator length
    and the jacobian then take the broadcast shape. Every check covers every
    element and runs before the division it guards. GeometryError is raised
    when the lever is not positive or the coupler circles do not intersect,
    SingularityError at the fold line; the message names the first failing
    element.
    """
    if xp is math:
        any_ = all_ = bool
    else:
        any_, all_ = xp.any, xp.all
    if not all_(l4 > 0.0):
        (l4,) = _first(True if xp is math else ~(l4 > 0.0), l4)
        raise GeometryError(f"lever length must be positive, got {l4}")
    l2, l3 = config.l2, config.l3
    ax_, ay_ = config.l1, 0.0
    phase = theta + config.lever_bearing
    cx = l4 * xp.cos(phase)
    cy = l4 * xp.sin(phase)

    dx, dy = cx - ax_, cy - ay_
    g = xp.hypot(dx, dy)
    too_far = g > l2 + l3 + 1e-12
    if any_(too_far):
        theta, l4, g = _first(too_far, theta, l4, g)
        raise GeometryError(
            f"closure infeasible at theta={math.degrees(theta):.3f} deg, l4={l4:.5f} m: "
            f"pivot span {g:.5f} m exceeds l2 + l3 = {l2 + l3:.5f} m"
        )
    too_near = g < abs(l2 - l3) - 1e-12
    if any_(too_near):
        theta, l4, g = _first(too_near, theta, l4, g)
        raise GeometryError(
            f"closure infeasible at theta={math.degrees(theta):.3f} deg, l4={l4:.5f} m: "
            f"pivot span {g:.5f} m is below |l2 - l3| = {abs(l2 - l3):.5f} m"
        )
    if any_(g == 0.0):
        raise GeometryError("ground pivot and lever tip coincide; closure undefined")

    ux, uy = dx / g, dy / g
    a = (l2 * l2 - l3 * l3 + g * g) / (2.0 * g)
    h_sq = l2 * l2 - a * a
    # round-off past tangency reads 0; the multiply only runs in that case
    h = xp.sqrt(h_sq if all_(h_sq > 0.0) else h_sq * (h_sq > 0.0))
    s = float(config.branch_sign)
    bx = ax_ + a * ux - s * h * uy
    by = ay_ + a * uy + s * h * ux

    e2x, e2y = bx - ax_, by - ay_
    e3x, e3y = cx - bx, cy - by
    cross_e2e3 = e2x * e3y - e2y * e3x
    folded = abs(cross_e2e3 / (l2 * l3)) < SINGULARITY_SIN
    if any_(folded):
        theta, l4 = _first(folded, theta, l4)
        raise SingularityError(
            f"transmission singularity at theta={math.degrees(theta):.3f} deg, "
            f"l4={l4:.5f} m: input bar and coupler are collinear"
        )

    r = config.actuator_attach_ratio
    px = ax_ + r * e2x
    py = ay_ + r * e2y
    qx, qy = config.actuator_base
    ex, ey = px - qx, py - qy
    d = xp.hypot(ex, ey)
    if not all_(d > 0.0):
        raise GeometryError("actuator attachment coincides with the actuator base")

    cross_c_e3 = cx * e3y - cy * e3x
    lam = cross_c_e3 / cross_e2e3
    # dP/dtheta = r * lam * perp(e2); J = unit(P - base) . dP/dtheta
    jac = r * lam * (ex * (-e2y) + ey * e2x) / d

    return (ax_, ay_), (bx, by), (cx, cy), d, jac


def _first(bad, *values):
    """The values at the first element where bad holds, as floats.

    Scalar checks pass their values through unchanged; only failing checks
    call this, so the solver's happy path never formats a message or loads
    numpy.
    """
    if isinstance(bad, bool):
        return values
    import numpy as np

    i = int(np.argmax(bad))
    return tuple(float(np.broadcast_to(v, np.shape(bad)).flat[i]) for v in values)


def _checked_kernel(config: MechanismConfig, theta: float, l4: float):
    """_closure_kernel at one knee angle and lever length, both checked finite."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if not math.isfinite(l4):
        raise ValueError(f"l4 must be finite, got {l4}")
    return _closure_kernel(config, theta, l4)


def actuator_length(config: MechanismConfig, theta: float, l4: float) -> float:
    """Distance from the actuator base to its attachment point on the input bar."""
    return _checked_kernel(_require_valid(config), theta, l4)[3]


def jacobian(config: MechanismConfig, theta: float, l4: float) -> float:
    """Actuator extension per unit knee rotation at fixed lever length (m/rad)."""
    return _checked_kernel(_require_valid(config), theta, l4)[4]
