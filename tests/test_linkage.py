import dataclasses
import math

import numpy as np
import pytest

from lbvt import chain, linkage
from lbvt.equilibrium import solve_equilibrium
from lbvt.model import GeometryError, SingularityError

import oracle
from conftest import assert_ulps, count_calls, random_config, straight_chain, unchecked

THETA_88 = math.radians(-88.0)


def _joints(cfg, theta, l4):
    """(knee, ground pivot, input/coupler joint, lever tip) from the closure kernel."""
    a, b, c, _, _ = linkage._closure_kernel(cfg, theta, l4)
    return (0.0, 0.0), a, b, c


def _link_residuals(cfg, joints):
    (ox, oy), (ax, ay), (bx, by), (cx, cy) = joints
    l4 = math.hypot(cx - ox, cy - oy)
    return (
        abs(math.hypot(ax - ox, ay - oy) - cfg.l1),
        abs(math.hypot(bx - ax, by - ay) - cfg.l2),
        abs(math.hypot(cx - bx, cy - by) - cfg.l3),
    ), l4


def test_closure_residuals_over_grid(default_config):
    l4c = chain.closed_lever(default_config)
    l4o = chain.open_lever(default_config)
    for theta in np.linspace(default_config.theta_min, default_config.theta_max, 25):
        for l4 in np.linspace(l4c, l4o, 7):
            joints = _joints(default_config, float(theta), float(l4))
            residuals, solved_l4 = _link_residuals(default_config, joints)
            assert max(residuals) < 1e-10
            assert abs(solved_l4 - l4) < 1e-12


def test_range_endpoints_are_solvable(default_config):
    l4c = chain.closed_lever(default_config)
    for theta_deg in (-141.0, -39.5):
        joints = _joints(default_config, math.radians(theta_deg), l4c)
        residuals, _ = _link_residuals(default_config, joints)
        assert max(residuals) < 1e-10


def test_unreachable_closure_raises(default_config):
    # a lever far longer than the chain's: the pivot span exceeds l2 + l3
    with pytest.raises(GeometryError, match="l4=1.00000 m: pivot span 1.04293 m exceeds l2 \\+ l3"):
        linkage.jacobian(default_config, THETA_88, 1.0)


def test_lever_tip_on_the_ground_pivot_raises(default_config):
    # with l2 == l3 a zero pivot span passes both circle checks; the lever
    # along the frame line (theta = -bearing, outside the knee range) with
    # l4 = l1 puts its tip there
    cfg = dataclasses.replace(default_config, l2=0.2, l3=0.2)
    with pytest.raises(GeometryError, match="ground pivot and lever tip coincide"):
        linkage.jacobian(cfg, -cfg.lever_bearing, cfg.l1)


def test_actuator_attachment_on_its_base_raises(default_config):
    # the base moved onto the attachment point A + r*(B - A), computed as the kernel does
    l4 = chain.closed_lever(default_config)
    (ax, ay), (bx, by), *_ = linkage._closure_kernel(default_config, THETA_88, l4)
    r = default_config.actuator_attach_ratio
    # no valid config has its base on the attachment circle, so cfg is built unchecked
    cfg = unchecked(default_config, actuator_base=(ax + r * (bx - ax), ay + r * (by - ay)))
    message = "^actuator attachment coincides with the actuator base$"
    with pytest.raises(GeometryError, match=message):
        linkage.jacobian(cfg, THETA_88, l4)


def test_branch_is_stable_across_the_range(default_config):
    l4c = chain.closed_lever(default_config)
    sides = set()
    for theta in np.linspace(default_config.theta_min, default_config.theta_max, 101):
        _, a, b, c = _joints(default_config, float(theta), l4c)
        ux, uy = c[0] - a[0], c[1] - a[1]
        side = math.copysign(1.0, ux * (b[1] - a[1]) - uy * (b[0] - a[0]))
        sides.add(side)
    assert len(sides) == 1


def test_actuator_length_constant_at_fixed_pivot(default_config):
    cfg = dataclasses.replace(default_config, actuator_attach_ratio=0.0)
    l4c = chain.closed_lever(cfg)
    qx, qy = cfg.actuator_base
    expected = math.hypot(cfg.l1 - qx, -qy)
    for theta in np.linspace(cfg.theta_min, cfg.theta_max, 21):
        assert linkage.actuator_length(cfg, float(theta), l4c) == pytest.approx(
            expected, abs=1e-12)


def test_actuator_length_deterministic(default_config):
    l4c = chain.closed_lever(default_config)
    a = linkage.actuator_length(default_config, THETA_88, l4c)
    b = linkage.actuator_length(default_config, THETA_88, l4c)
    assert a == b and a > 0.0


def test_actuator_length_continuous_in_theta(default_config):
    l4c = chain.closed_lever(default_config)
    step = math.radians(10.0)
    thetas = np.arange(default_config.theta_min, default_config.theta_max - step, step)
    for theta in thetas:
        d1 = linkage.actuator_length(default_config, float(theta), l4c)
        d2 = linkage.actuator_length(default_config, float(theta) + step, l4c)
        assert abs(d2 - d1) < default_config.l2 * step + 1e-9


def test_jacobian_does_not_rebuild_the_closed_chain(default_config, monkeypatch):
    calls = count_calls(monkeypatch, chain, "_geometry")
    linkage.jacobian(default_config, THETA_88, 0.09)
    assert calls[0] == 0


def test_jacobian_zero_at_fixed_attachment(default_config):
    cfg = dataclasses.replace(default_config, actuator_attach_ratio=0.0)
    l4c = chain.closed_lever(cfg)
    for theta in np.linspace(cfg.theta_min, cfg.theta_max, 11):
        assert linkage.jacobian(cfg, float(theta), l4c) == pytest.approx(0.0, abs=1e-15)


def test_jacobian_grows_with_lever_at_minus_88(default_config):
    j_closed = linkage.jacobian(default_config, THETA_88, chain.closed_lever(default_config))
    j_open = linkage.jacobian(default_config, THETA_88, chain.open_lever(default_config))
    assert j_open > j_closed > 0.0


def test_singularity_at_folded_closure():
    # straight single-segment chain pointing along the frame line, lever long
    # enough that the coupler circles touch: input bar and coupler collinear;
    # power-of-two lengths keep the tangency exact in floating point; no
    # valid config folds, so cfg is built unchecked
    cfg = unchecked(straight_chain(l_offset=0.125, seg=0.25, beta=0.0, n=1),
                    l1=0.125, l2=0.125, l3=0.125)
    with pytest.raises(SingularityError):
        linkage.jacobian(cfg, 0.0, 0.375)


def _lever_at_span(cfg, theta, g):
    """Lever length l4 that puts the lever tip at pivot span g from the ground pivot.

    g**2 = l4**2 + l1**2 - 2 l1 l4 cos(theta + lever_bearing), solved for l4.
    """
    c = math.cos(theta + cfg.lever_bearing)
    return cfg.l1 * c + math.sqrt(g * g - cfg.l1 * cfg.l1 * (1.0 - c * c))


def test_closure_near_the_fold_line_solves(default_config):
    # input bar and coupler nearly stretched out (the span g follows from the
    # law of cosines): the closure solves and the jacobian, which grows like
    # 1/sin B, stays finite. 1e-6 and 1e-5 land within 1% of their target.
    # 5e-8, five times the singularity threshold, is the finest target this
    # placement resolves at -88 deg (2e-8 collapses to round-off); it lands
    # below 1e-7, so a threshold of 1e-7 would reject it
    l2, l3 = default_config.l2, default_config.l3
    for sin_b, lo, hi in ((5e-8, 1e-8, 1e-7), (1e-6, 0.99e-6, 1.01e-6), (1e-5, 0.99e-5, 1.01e-5)):
        g = math.sqrt(l2 * l2 + l3 * l3 + 2.0 * l2 * l3 * math.sqrt(1.0 - sin_b * sin_b))
        l4 = _lever_at_span(default_config, THETA_88, g)
        (ax, ay), (bx, by), (cx, cy) = _joints(default_config, THETA_88, l4)[1:]
        sin_b_solved = ((bx - ax) * (cy - by) - (by - ay) * (cx - bx)) / (l2 * l3)
        assert lo < abs(sin_b_solved) < hi
        assert math.isfinite(linkage.jacobian(default_config, THETA_88, l4))


def test_span_within_the_closure_slack_is_a_singularity(default_config):
    # a span past l2 + l3 by less than the kernel's 1e-12 m slack assembles
    # the input bar and coupler exactly collinear: the fold test must catch it
    reach = default_config.l2 + default_config.l3
    l4 = _lever_at_span(default_config, THETA_88, reach + 5e-13)
    phase = THETA_88 + default_config.lever_bearing
    span = math.hypot(l4 * math.cos(phase) - default_config.l1, l4 * math.sin(phase))
    assert reach < span < reach + 1e-12
    with pytest.raises(SingularityError):
        linkage.jacobian(default_config, THETA_88, l4)


def test_span_past_the_closure_slack_is_infeasible(default_config):
    # 1e-10 m past l2 + l3 is beyond the slack: infeasible, not a fold
    reach = default_config.l2 + default_config.l3
    l4 = _lever_at_span(default_config, THETA_88, reach + 1e-10)
    with pytest.raises(GeometryError, match=r"^closure infeasible .* exceeds l2 \+ l3"):
        linkage.jacobian(default_config, THETA_88, l4)


def test_kfe_torque_zero_force(default_config):
    assert solve_equilibrium(default_config, THETA_88, 0.0).kfe_torque == 0.0


def test_kfe_torque_linear_in_force(default_config):
    # below the trigger the chain stays closed, so the knee torque is the
    # closed-lever jacobian times the force; power-of-two scalars keep the
    # scaling exact in floating point
    base = solve_equilibrium(default_config, THETA_88, 1.0).kfe_torque
    assert base == linkage.jacobian(default_config, THETA_88,
                                    chain.closed_lever(default_config))
    for a in (0.25, 0.5, 4.0, 16.0):
        assert solve_equilibrium(default_config, THETA_88, a).kfe_torque == a * base
    assert solve_equilibrium(default_config, THETA_88, 3.0).kfe_torque == pytest.approx(
        3.0 * base, rel=1e-15)


def test_open_lever_torque_exceeds_closed_at_165(default_config):
    t_open = linkage.jacobian(default_config, THETA_88, chain.open_lever(default_config)) * 165.0
    t_closed = linkage.jacobian(default_config, THETA_88,
                                chain.closed_lever(default_config)) * 165.0
    assert t_open > t_closed


def test_scalar_closure_maps_read_the_kernel(default_config):
    rng = np.random.default_rng(8)
    lo, hi = chain.closed_lever(default_config), chain.open_lever(default_config)
    for theta, l4 in zip(
        rng.uniform(default_config.theta_min, default_config.theta_max, 50).tolist(),
        rng.uniform(lo, hi, 50).tolist(),
    ):
        *_, length, jac = linkage._closure_kernel(default_config, theta, l4)
        assert linkage.actuator_length(default_config, theta, l4) == length
        assert linkage.jacobian(default_config, theta, l4) == jac


def test_scalar_kernels_match_the_oracle_kernels_on_random_configs():
    # the library's float chain and closure kernels against the oracle's
    # numpy ones, written independently from the model's equations, within
    # the ulps of conftest.assert_ulps: random deflections within the
    # travel limits, and random (theta, l4) over the closure box that the
    # config's validation decided, knee range x lever range
    rng = np.random.default_rng(36)
    for _ in range(40):
        config = random_config(rng)
        d = np.array([rng.uniform(0.0, lim, 25) for lim in config.joint_open_limit])
        xs, ys = oracle.chain_geometry(config, d)
        for i in range(25):
            pivots, _ = chain._geometry(config, [float(x) for x in d[:, i]])
            assert_ulps([*xs[:, i], *ys[:, i]], [p[0] for p in pivots] + [p[1] for p in pivots])
        levers = sorted((config._closed_lever, config._open_lever))
        thetas = rng.uniform(config.theta_min, config.theta_max, 25)
        l4s = rng.uniform(*levers, 25)
        (bx, by), (cx, cy), length, jac = oracle.closure_kernel(config, thetas, l4s)
        for i, (theta, l4) in enumerate(zip(thetas, l4s)):
            _, b, c, scalar_length, scalar_jac = linkage._closure_kernel(config, float(theta),
                                                                         float(l4))
            assert_ulps([bx[i], by[i]], b)
            assert_ulps([cx[i], cy[i]], c)
            assert_ulps([length[i]], [scalar_length])
            assert_ulps([jac[i]], [scalar_jac])
