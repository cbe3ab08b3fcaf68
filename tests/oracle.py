"""Fixed-point grid oracle for the equilibrium solver, with its own array kernels.

An equilibrium is a fixed point of T(d) = clip(a(d)/k - a0, 0, limit) per
joint, with a(d) the applied joint torques. brute_force_equilibrium
evaluates T once on every node of an exhaustive deflection grid, keeps the
super-solutions (nodes where T(node) <= node in every joint) and returns
their componentwise minimum. T is isotone, so by Tarski's theorem the meet
of all super-solutions is the least fixed point, the equilibrium that
loading from zero force reaches; the grid's meet lies on or above it. It
never iterates.

The oracle evaluates the grid with the numpy kernels below, written from
the model's equations rather than through the library's scalar kernels: the
chain as cumulative sums of joint angles and segment vectors, the four-bar
as the intersection of two circles, and the joint torques as planar cross
products with the tangential tip force. Its independence from the solver
thus lies both in the method, a sieve over a grid against an active-set
iteration on the torque balances, and in the arithmetic. Only the result,
once the meet is known, is built the way a solve builds it (the library's
load map at the meet, equilibrium._result), so that the two compare field by
field. These kernels agree with the library's float kernels within
conftest.KERNEL_ULPS units in the last place; on the grids of the oracle
tests they reproduce, bit for bit, the array path the library's load map
had when the oracle lived there.
"""

from __future__ import annotations

import math

import numpy as np

from lbvt import chain, equilibrium
from lbvt.model import (
    EquilibriumResult,
    GeometryError,
    MechanismConfig,
    SingularityError,
    _check_force,
    _check_theta,
    _require_valid,
    per_joint_stiffness,
)

GRID_BUDGET = 1e8  # nodes; a full six-joint grid at 1e-3 rad would hold about 5e12


class GridSizeError(ValueError):
    """A brute-force deflection grid would exceed the node budget."""


def chain_geometry(config: MechanismConfig, d):
    """Pivot and tip coordinates (x, y) of the chain at deflection rows d.

    d has one row per joint, each an array of equal shape. x and y have one
    row more: row 0 is the anchor, at polar angle beta and distance
    l_offset; row i + 1 is pivot i plus segment i along the cumulative
    angle beta + sum over k <= i of (phi_k + d_k); the last row is the tip.
    """
    d = np.asarray(d, dtype=float)
    shape = d.shape[1:]
    phi = np.reshape(config.phi, (-1,) + (1,) * len(shape))
    seg = np.reshape(config.segments, phi.shape)
    turns = np.concatenate([np.full((1,) + shape, config.beta), phi + d])
    angles = np.cumsum(turns, axis=0)
    lengths = np.concatenate([np.full((1,) + shape, config.l_offset),
                              np.broadcast_to(seg, d.shape)])
    x = np.cumsum(lengths * np.cos(angles), axis=0)
    y = np.cumsum(lengths * np.sin(angles), axis=0)
    return x, y


def _first(bad, *values):
    """The values at the first element where bad holds, as floats."""
    i = int(np.argmax(bad))
    return tuple(float(np.broadcast_to(v, np.shape(bad)).flat[i]) for v in values)


def closure_kernel(config: MechanismConfig, theta, l4):
    """Coupler joint B, lever tip C, actuator length and jacobian at knee angles and levers.

    theta and l4 are floats or arrays that broadcast together; every output
    takes the broadcast shape. The lever tip C lies at distance l4 along
    theta + lever_bearing; B is the intersection of the circles (ground
    pivot (l1, 0), l2) and (C, l3) on the side the branch sign picks. With
    e2 = B - ground pivot and e3 = C - B, B moves at cross(C, e3) /
    cross(e2, e3) * perp(e2) per unit knee rate, so the actuator
    attachment P = ground pivot + r * e2 does too, scaled by r, and the
    jacobian is that velocity along the unit vector from the actuator base
    to P. Raises GeometryError where any element has no positive lever or
    no intersection, SingularityError where input bar and coupler are
    collinear, naming the first such element.
    """
    theta, l4 = np.asarray(theta, dtype=float), np.asarray(l4, dtype=float)
    if not np.all(l4 > 0.0):
        raise GeometryError(f"lever length must be positive, got {_first(~(l4 > 0.0), l4)[0]}")
    l1, l2, l3 = config.l1, config.l2, config.l3
    phase = theta + config.lever_bearing
    cx, cy = l4 * np.cos(phase), l4 * np.sin(phase)

    dx, dy = cx - l1, cy
    g = np.hypot(dx, dy)
    for bad, bound in ((g > l2 + l3 + 1e-12, "exceeds l2 + l3"),
                       (g < abs(l2 - l3) - 1e-12, "is below |l2 - l3|")):
        if np.any(bad):
            t, lever, span = _first(bad, theta, l4, g)
            raise GeometryError(f"closure infeasible at theta={math.degrees(t):.3f} deg, "
                                f"l4={lever:.5f} m: pivot span {span:.5f} m {bound}")
    if np.any(g == 0.0):
        raise GeometryError("ground pivot and lever tip coincide; closure undefined")

    ux, uy = dx / g, dy / g
    along = (l2 * l2 - l3 * l3 + g * g) / (2.0 * g)  # from the ground pivot toward C
    h = np.sqrt(np.maximum(l2 * l2 - along * along, 0.0))  # off that line, toward the branch
    s = float(config.branch_sign)
    bx = l1 + along * ux - s * h * uy
    by = 0.0 + along * uy + s * h * ux

    e2x, e2y = bx - l1, by
    e3x, e3y = cx - bx, cy - by
    cross_e2e3 = e2x * e3y - e2y * e3x
    folded = np.abs(cross_e2e3 / (l2 * l3)) < 1e-8
    if np.any(folded):
        t, lever = _first(folded, theta, l4)
        raise SingularityError(f"transmission singularity at theta={math.degrees(t):.3f} deg, "
                               f"l4={lever:.5f} m: input bar and coupler are collinear")

    r = config.actuator_attach_ratio
    qx, qy = config.actuator_base
    ex, ey = l1 + r * e2x - qx, 0.0 + r * e2y - qy
    length = np.hypot(ex, ey)
    if not np.all(length > 0.0):
        raise GeometryError("actuator attachment coincides with the actuator base")
    rate = (cx * e3y - cy * e3x) / cross_e2e3
    jac = r * rate * (ex * (-e2y) + ey * e2x) / length
    return (bx, by), (cx, cy), length, jac


def load_torques(config: MechanismConfig, theta: float, f_cyl: float, d):
    """Applied joint torques, lever length and jacobian at deflection rows d.

    The knee torque jac * f_cyl acts at the tip as a force of that torque
    over l4, perpendicular to the tip ray; about pivot i it exerts
    f / l4 * (tip - pivot_i) . tip, positive toward opening. The torques
    have one row per joint.
    """
    x, y = chain_geometry(config, d)
    tx, ty = x[-1], y[-1]
    l4 = np.hypot(tx, ty)
    jac = closure_kernel(config, theta, l4)[3]
    scale = jac * f_cyl / (l4 * l4)
    return scale * ((tx - x[:-1]) * tx + (ty - y[:-1]) * ty), l4, jac


def brute_force_equilibrium(config: MechanismConfig, theta: float, f_cyl: float,
                            grid_step: float) -> EquilibriumResult:
    """Grid oracle: the meet of the grid's super-solutions of d = T(d).

    The deflection box is enumerated exhaustively at grid_step resolution
    (travel limits included as exact nodes), T is evaluated once on the
    whole grid, and the componentwise minimum of the nodes with T(node) <=
    node in every joint is returned, with the residual the solver's regime
    scan finds there and the node count as its iteration count. The top
    node (every joint at its limit) always qualifies. Every super-solution
    of the isotone T lies on or above the least fixed point, so the result
    does too. Any joint count is accepted; a grid of more than GRID_BUDGET
    nodes raises GridSizeError before any axis is built. An invalid config
    raises ConfigError naming its violations, a bad angle or force
    ValueError, as a solve does.
    """
    _require_valid(config)
    if not (grid_step > 0.0):
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    f_cyl = _check_force(f_cyl)
    theta = _check_theta(config, theta)

    # node counts stay floats until checked: a tiny step makes them too large,
    # or infinite, for an int, and no axis is built before the budget holds
    limits = config.joint_open_limit
    steps = [np.floor(lim / grid_step + 1e-9) for lim in limits]
    appended = [m * grid_step < lim - 1e-15 for m, lim in zip(steps, limits)]
    sizes = [m + 1.0 + end for m, end in zip(steps, appended)]
    total = math.prod(map(int, sizes)) if all(map(math.isfinite, sizes)) else math.inf
    if total > GRID_BUDGET:
        raise GridSizeError(
            f"deflection grid would hold {total} nodes (limit {GRID_BUDGET:g}); "
            "coarsen grid_step or reduce the travel limits"
        )
    axes = []
    for m, lim, end in zip(steps, limits, appended):
        nodes = np.arange(m + 1.0) * grid_step
        axes.append(np.append(nodes, lim) if end else nodes)
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])  # (n, N)

    k = per_joint_stiffness(config)
    a0 = config.alpha_preload
    torques = load_torques(config, theta, f_cyl, grid)[0]
    # super-solutions: T(node) <= node in every joint; the top node always is one
    bounds = np.reshape(limits, (-1, 1))
    above = np.all(np.clip(torques / k - a0, 0.0, bounds) <= grid, axis=0)
    d_star = [float(v) for v in grid[:, above].min(axis=1)]

    load = equilibrium._LoadMap(config, theta, f_cyl)
    point = load.evaluate(d_star)
    residual, _ = equilibrium._scan(d_star, chain._regimes(d_star, limits), point[0], k, a0,
                                    limits)
    return equilibrium._result(load, d_star, point, True, residual, total)
