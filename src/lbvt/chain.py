"""Forward kinematics and load geometry of the pre-tensioned spring chain.

The chain lives in the lower-leg frame: the x axis runs along the shank
centerline away from the knee, which sits at the origin. The anchor point is
at polar angle beta and distance l_offset; segment i then leaves joint i at
the cumulative angle beta + sum of the total joint angles up to i. The total
angle of joint k is phi[k] + deflection[k]: the fixed offsets phi define the
closed shape, the non-negative deflections measure the opening.

The tip force considered here is the effective tangential load of the knee
lever: it acts at the chain tip, perpendicular to the knee-to-tip ray, so the
knee torque is exactly tip force times lever length. gamma[k] is the signed
angle from the joint-k-to-tip ray to that force direction, which makes

    joint torque k = moment_arm[k] * sin(gamma[k]) * tip force

an exact identity with the planar cross product. Note this geometric gamma is
not in general the sum of a joint's own offset and opening angles; that closed
form only holds for the last joint up to a constant.
"""

from __future__ import annotations

import math

from .model import ChainState, MechanismConfig, Regime

_TWO_PI = 2.0 * math.pi


def _check_deflection(config: MechanismConfig, deflection) -> tuple[float, ...]:
    d = tuple(float(x) for x in deflection)
    if len(d) != config.n_joints:
        raise ValueError(f"expected {config.n_joints} deflections, got {len(d)}")
    for k, (dk, lim) in enumerate(zip(d, config.joint_open_limit)):
        if not (0.0 <= dk <= lim + 1e-12):  # NaN fails too
            raise ValueError(
                f"deflection[{k}]={dk} outside [0, {lim}] (joint travel)"
            )
    return d


def _geometry(config: MechanismConfig, d, xp=math):
    """Joint pivots and tip, plus the cumulative angle of the last segment.

    d holds one deflection per joint: floats with xp=math (the solver's hot
    path), or equal-shape numpy arrays with xp=numpy to evaluate a whole grid
    of chain states at once. Every coordinate after the anchor then has that
    shape. No checks run here; callers validate d first.
    """
    cos, sin = xp.cos, xp.sin
    ang = config.beta
    x = config.l_offset * cos(ang)
    y = config.l_offset * sin(ang)
    pivots = [(x, y)]
    for sk, pk, dk in zip(config.segments, config.phi, d):
        # rebind rather than +=: in place, arrays would alias the stored pivots
        ang = ang + (pk + dk)
        x = x + sk * cos(ang)
        y = y + sk * sin(ang)
        pivots.append((x, y))
    return pivots, (x, y), ang


def _torques(pivots, tip, scale):
    """scale * (tip - pivot) . tip for each joint pivot, floats or arrays.

    A tip force f_end along perp(tip) / |tip| exerts exactly these torques
    with scale = f_end / |tip|: the planar cross product of (tip - pivot)
    with the force, positive toward opening.
    """
    tx, ty = tip
    return tuple(scale * ((tx - px) * tx + (ty - py) * ty) for px, py in pivots[:-1])


def _lever(tip) -> float:
    """Knee-to-tip distance; raises ValueError when the lever is undefined."""
    l4 = math.hypot(*tip)
    if not (l4 > 0.0):
        raise ValueError("chain tip coincides with the knee joint; lever undefined")
    return l4


def chain_tip(config: MechanismConfig, deflection) -> tuple[float, float]:
    """Chain end point in the lower-leg frame for the given joint openings."""
    d = _check_deflection(config, deflection)
    _, tip, _ = _geometry(config, d)
    return tip


def l4_length(config: MechanismConfig, deflection) -> float:
    """Distance from the knee joint to the chain tip (the output lever length)."""
    x, y = chain_tip(config, deflection)
    return math.hypot(x, y)


def chain_diameter(config: MechanismConfig, deflection) -> float:
    """Distance from the chain anchor to the tip; bounded by the summed segments."""
    d = _check_deflection(config, deflection)
    pivots, (x, y), _ = _geometry(config, d)
    ax, ay = pivots[0]
    return math.hypot(x - ax, y - ay)


def tip_bearing(config: MechanismConfig, deflection) -> float:
    """Polar angle of the tip seen from the knee joint, in the lower-leg frame."""
    x, y = chain_tip(config, deflection)
    return math.atan2(y, x)


def closed_lever(config: MechanismConfig) -> float:
    return l4_length(config, (0.0,) * config.n_joints)


def open_lever(config: MechanismConfig) -> float:
    return l4_length(config, config.joint_open_limit)


def moment_geometry(
    config: MechanismConfig, deflection
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-joint (moment arm, load angle) for the tangential tip force.

    moment_arm[k] is the joint-k pivot to tip distance. gamma[k] is the signed
    angle from that ray to the force direction (perpendicular of the
    knee-to-tip ray), zero when the force is aligned with the ray.
    """
    d = _check_deflection(config, deflection)
    pivots, tip, _ = _geometry(config, d)
    return _arms_and_gammas(pivots, tip, _lever(tip))


def _arms_and_gammas(pivots, tip, l4):
    """moment_geometry from pivots and tip already built, lever length l4."""
    tx, ty = tip
    fx, fy = -ty / l4, tx / l4  # unit force direction, +90 deg from the tip ray
    arms = []
    gammas = []
    for px, py in pivots[:-1]:
        rx, ry = tx - px, ty - py
        r = math.hypot(rx, ry)
        arms.append(r)
        if r == 0.0:
            gammas.append(0.0)
        else:
            gammas.append(math.atan2(rx * fy - ry * fx, rx * fx + ry * fy))
    return tuple(arms), tuple(gammas)


def joint_torques(config: MechanismConfig, deflection, f_end: float) -> tuple[float, ...]:
    """Torque the tangential tip force exerts about each chain joint.

    Equals the planar cross product of (tip - pivot) with the force vector;
    positive torque drives the joint toward opening. Linear in f_end.
    """
    if not math.isfinite(f_end):
        raise ValueError(f"f_end must be finite, got {f_end}")
    d = _check_deflection(config, deflection)
    pivots, tip, _ = _geometry(config, d)
    return _torques(pivots, tip, f_end / _lever(tip))


def preload_threshold(config: MechanismConfig, joint_index: int) -> float:
    """Holding torque of one pre-tensioned joint; motion needs strict exceedance."""
    if not 1 <= joint_index <= config.n_joints:
        raise IndexError(
            f"joint_index must be in 1..{config.n_joints}, got {joint_index}"
        )
    return config.springs_per_joint * config.k_spring * config.alpha_preload


def preload_force(k_spring: float, delta: float, arm_length: float) -> float:
    """Assembly force needed to wind one spring by delta about an arm of arm_length."""
    if not (arm_length > 0.0):
        raise ValueError(f"arm_length must be positive, got {arm_length}")
    return k_spring * delta / arm_length


def make_chain_state(config: MechanismConfig, deflection) -> ChainState:
    """Build a fully consistent ChainState from the deflections alone."""
    d = _check_deflection(config, deflection)
    pivots, tip, last_angle = _geometry(config, d)
    l4 = _lever(tip)
    tx, ty = tip
    ax, ay = pivots[0]
    diameter = math.hypot(tx - ax, ty - ay)
    arms, gammas = _arms_and_gammas(pivots, tip, l4)
    theta_l4 = math.remainder(math.atan2(ty, tx) - last_angle, _TWO_PI)
    regimes = []
    for dk, lim in zip(d, config.joint_open_limit):
        if dk == 0.0:
            regimes.append(Regime.CLOSED)
        elif dk >= lim:
            regimes.append(Regime.END_STOP)
        else:
            regimes.append(Regime.ACTIVE)
    return ChainState(
        deflection=d,
        regime=tuple(regimes),
        tip=tip,
        l4=l4,
        diameter=diameter,
        moment_arm=arms,
        gamma=gammas,
        theta_l4=theta_l4,
    )
