"""Forward kinematics and load geometry of the pre-tensioned spring chain.

The chain lives in the lower-leg frame: the x axis runs along the shank
centerline away from the knee, which sits at the origin. The anchor point is
at polar angle beta and distance l_offset; segment i then leaves joint i at
the cumulative angle beta + sum of the total joint angles up to i. The total
angle of joint k is phi[k] + deflection[k]: the fixed offsets phi define the
closed shape, the non-negative deflections measure the opening.

The tip force considered here is the effective tangential load of the knee
lever: it acts at the chain tip, perpendicular to the knee-to-tip ray, so the
knee torque is exactly tip force times lever length.
"""

from __future__ import annotations

import math
from math import cos, sin

from .model import (ChainState, MechanismConfig, Regime, _read_argument, _read_finite,
                    _require_number_list)


def _check_deflection(config: MechanismConfig, deflection) -> tuple[float, ...]:
    """deflection, any iterable of numbers, as a tuple of floats, checked against the config.

    A refused kind or a value outside its joint's travel is a ValueError naming deflection[k].
    """
    d = _read_argument(tuple(deflection), "deflection", _require_number_list)
    if len(d) != config.n_joints:
        raise ValueError(f"expected {config.n_joints} deflections, got {len(d)}")
    for k, (dk, lim) in enumerate(zip(d, config.joint_open_limit)):
        if not (0.0 <= dk <= lim + 1e-12):  # NaN fails too
            raise ValueError(
                f"deflection[{k}]={dk} outside [0, {lim}] (joint travel)"
            )
    return d


def _chain_terms(config: MechanismConfig) -> dict:
    """The config-only terms _geometry reads, by name; the config stores them when built.

    _anchor is the chain anchor l_offset * (cos beta, sin beta) and _links
    the (segment, phi) pairs.
    """
    return {"_anchor": (config.l_offset * cos(config.beta), config.l_offset * sin(config.beta)),
            "_links": tuple(zip(config.segments, config.phi))}


def _geometry(config: MechanismConfig, d):
    """Joint pivots and the chain tip; the pivot list ends with the tip itself.

    d holds one deflection per joint. The anchor and the (segment, phi)
    pairs come with the config (_chain_terms). No checks run here; callers
    validate d first.
    """
    ang = config.beta
    x, y = anchor = config._anchor
    pivots = [anchor]
    for (sk, pk), dk in zip(config._links, d):
        ang = ang + (pk + dk)
        x = x + sk * cos(ang)
        y = y + sk * sin(ang)
        pivots.append((x, y))
    return pivots, (x, y)


def _torques(pivots, tip, scale):
    """scale * (tip - pivot) . tip for each joint pivot, as a list.

    A tip force f_end along perp(tip) / |tip| exerts exactly these torques
    with scale = f_end / |tip|: the planar cross product of (tip - pivot)
    with the force, positive toward opening.
    """
    tx, ty = tip
    return [scale * ((tx - px) * tx + (ty - py) * ty) for px, py in pivots[:-1]]


def _lever(tip) -> float:
    """Knee-to-tip distance; raises ValueError when the lever is undefined."""
    l4 = math.hypot(*tip)
    if not (l4 > 0.0):
        raise ValueError("chain tip coincides with the knee joint; lever undefined")
    return l4


def closed_lever(config: MechanismConfig) -> float:
    """Lever length of the closed chain, make_chain_state's l4 at zero deflection.

    The config computed it when it was built, so this runs no chain pass.
    """
    return config._closed_lever


def open_lever(config: MechanismConfig) -> float:
    """Lever length of the fully open chain, make_chain_state's l4 at joint_open_limit.

    The config computed it when it was built, so this runs no chain pass.
    """
    return config._open_lever


def joint_torques(config: MechanismConfig, deflection, f_end: float) -> tuple[float, ...]:
    """Torque the tangential tip force exerts about each chain joint.

    Equals the planar cross product of (tip - pivot) with the force vector;
    positive torque drives the joint toward opening. Linear in f_end (model._read_finite).
    """
    f_end = _read_finite(f_end, "f_end")
    d = _check_deflection(config, deflection)
    pivots, tip = _geometry(config, d)
    return tuple(_torques(pivots, tip, f_end / _lever(tip)))


def _regimes(d, limits) -> tuple[Regime, ...]:
    """Regime of each joint read off its deflection: 0 is closed, the limit the end stop."""
    closed, active, stop = Regime.CLOSED, Regime.ACTIVE, Regime.END_STOP
    return tuple(
        closed if dk == 0.0 else stop if dk >= lim else active for dk, lim in zip(d, limits)
    )


def _chain_state(config: MechanismConfig, d, pivots) -> ChainState:
    """ChainState of valid deflections d from their pivots, which end with the tip."""
    tip = pivots[-1]
    tx, ty = tip
    ax, ay = pivots[0]
    return ChainState(
        deflection=tuple(d),
        regime=_regimes(d, config.joint_open_limit),
        tip=tip,
        l4=_lever(tip),
        diameter=math.hypot(tx - ax, ty - ay),
    )


def make_chain_state(config: MechanismConfig, deflection) -> ChainState:
    """Build a fully consistent ChainState from the deflections alone."""
    d = _check_deflection(config, deflection)
    pivots, _ = _geometry(config, d)
    return _chain_state(config, d, pivots)
