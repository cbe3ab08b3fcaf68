import math

import numpy as np
import pytest

from lbvt import chain, equilibrium
from lbvt.model import MechanismConfig

from conftest import convex_chain, straight_chain


def test_collinear_chain_tip_along_axis():
    cfg = straight_chain(l_offset=0.1, seg=0.05, beta=0.0)
    x, y = chain.chain_tip(cfg, (0.0,) * 6)
    assert x == pytest.approx(0.4, abs=1e-15)
    assert y == pytest.approx(0.0, abs=1e-15)
    assert chain.l4_length(cfg, (0.0,) * 6) == pytest.approx(0.4, abs=1e-15)


def test_collinear_chain_rotates_with_anchor():
    cfg = straight_chain(l_offset=0.1, seg=0.05, beta=math.pi / 2)
    x, y = chain.chain_tip(cfg, (0.0,) * 6)
    assert x == pytest.approx(0.0, abs=1e-15)
    assert y == pytest.approx(0.4, abs=1e-15)


def test_rotation_equivariance(default_config):
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = tuple(rng.uniform(0.0, lim) for lim in default_config.joint_open_limit)
        delta = rng.uniform(-math.pi, math.pi)
        rotated = default_config.with_updates(beta=default_config.beta + delta)

        x0, y0 = chain.chain_tip(default_config, d)
        x1, y1 = chain.chain_tip(rotated, d)
        c, s = math.cos(delta), math.sin(delta)
        assert x1 == pytest.approx(c * x0 - s * y0, abs=1e-12)
        assert y1 == pytest.approx(s * x0 + c * y0, abs=1e-12)

        assert chain.l4_length(rotated, d) == pytest.approx(
            chain.l4_length(default_config, d), abs=1e-12)
        assert chain.chain_diameter(rotated, d) == pytest.approx(
            chain.chain_diameter(default_config, d), abs=1e-12)
        arms0, _ = chain.moment_geometry(default_config, d)
        arms1, _ = chain.moment_geometry(rotated, d)
        assert arms1 == pytest.approx(arms0, abs=1e-12)
        t0 = chain.joint_torques(default_config, d, 17.0)
        t1 = chain.joint_torques(rotated, d, 17.0)
        assert t1 == pytest.approx(t0, abs=1e-12)


def test_open_lever_exceeds_closed(default_config):
    assert chain.closed_lever(default_config) < chain.open_lever(default_config)


def test_shipped_lever_lengths():
    import lbvt

    cfg = lbvt.load_default_config()
    assert chain.closed_lever(cfg) == pytest.approx(0.06543844617372901, abs=1e-9)
    assert chain.open_lever(cfg) == pytest.approx(0.09277127867618964, abs=1e-9)


def test_lever_monotone_along_uniform_opening(default_config):
    values = []
    for s in np.linspace(0.0, 1.0, 1000):
        d = tuple(s * lim for lim in default_config.joint_open_limit)
        values.append(chain.l4_length(default_config, d))
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_closed_diameter_is_the_trigger_plateau(default_config):
    # frozen from the shipped config at zero deflection
    assert chain.chain_diameter(default_config, (0.0,) * 6) == pytest.approx(
        0.037659917442692266, abs=1e-9)


def test_diameter_bounded_by_total_segment_length(default_config):
    d_open = chain.chain_diameter(default_config, default_config.joint_open_limit)
    assert d_open <= sum(default_config.segments) + 1e-15


def test_diameter_is_lipschitz(default_config):
    rng = np.random.default_rng(5)
    bound = 6.0 * sum(default_config.segments)
    for _ in range(200):
        a = tuple(rng.uniform(0.0, lim) for lim in default_config.joint_open_limit)
        b = tuple(rng.uniform(0.0, lim) for lim in default_config.joint_open_limit)
        gap = max(abs(x - y) for x, y in zip(a, b))
        da = chain.chain_diameter(default_config, a)
        db = chain.chain_diameter(default_config, b)
        assert abs(da - db) <= bound * gap + 1e-12


def test_deflection_bounds_are_enforced(default_config):
    with pytest.raises(ValueError):
        chain.chain_tip(default_config, (-1e-6,) + (0.0,) * 5)
    over = default_config.joint_open_limit[0] + 1e-3
    with pytest.raises(ValueError):
        chain.l4_length(default_config, (over,) + (0.0,) * 5)
    with pytest.raises(ValueError):
        chain.chain_diameter(default_config, (0.0,) * 3)


@pytest.mark.parametrize("check", [
    chain.chain_tip,
    chain.moment_geometry,
    chain.make_chain_state,
    lambda cfg, d: chain.joint_torques(cfg, d, 1.0),
    equilibrium.potential_energy,
], ids=["chain_tip", "moment_geometry", "make_chain_state", "joint_torques",
        "potential_energy"])
def test_nan_deflection_is_out_of_range(default_config, check):
    d = (0.0, 0.0, math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"deflection\[2\]=nan outside"):
        check(default_config, d)


def test_last_moment_arm_is_last_segment():
    cfg = straight_chain(l_offset=0.1, seg=0.05)
    arms, _ = chain.moment_geometry(cfg, (0.0,) * 6)
    assert arms[-1] == pytest.approx(0.05, abs=1e-15)


def test_lever_orientation_relative_to_last_segment():
    # collinear chain: the knee-to-tip ray and the last segment are aligned
    cfg = straight_chain(l_offset=0.1, seg=0.05, beta=0.3)
    state = chain.make_chain_state(cfg, (0.0,) * 6)
    assert state.theta_l4 == pytest.approx(0.0, abs=1e-15)


def test_moment_arms_decrease_for_convex_chain():
    cfg = convex_chain()
    for s in np.linspace(0.0, 1.0, 40):
        d = tuple(s * lim for lim in cfg.joint_open_limit)
        arms, _ = chain.moment_geometry(cfg, d)
        assert all(a >= b - 1e-12 for a, b in zip(arms, arms[1:]))


def test_perpendicular_load_maximizes_joint_torque(default_config):
    # with the arm fixed, r*sin(gamma)*F peaks at gamma = pi/2
    arms, gammas = chain.moment_geometry(default_config, (0.0,) * 6)
    f = 25.0
    for r, g in zip(arms, gammas):
        assert abs(r * math.sin(g) * f) <= r * math.sin(math.pi / 2) * f + 1e-15


def test_torque_vanishes_when_load_aligns_with_arm():
    # single joint with its segment angled so the arm is perpendicular to the
    # tip ray: the tangential load then lies along the arm and sin(gamma) = 0
    seg_angle = math.asin(-0.6)  # anchor (0, 0.05), segment 0.03: (tip-p).tip = 0
    cfg = MechanismConfig(
        l1=0.25, l2=0.101, l3=0.265, actuator_base=(0.05, -0.05),
        actuator_attach_ratio=0.75, l_offset=0.05, beta=math.pi / 2,
        segments=(0.03,), phi=(seg_angle - math.pi / 2,),
        alpha_preload=0.0, k_spring=1.17, springs_per_joint=4,
        spring_arm_length=0.02, joint_open_limit=(0.3,),
        theta_min=math.radians(-141.0), theta_max=math.radians(-39.5), branch_sign=1,
    )
    torque = chain.joint_torques(cfg, (0.0,), 40.0)[0]
    assert torque == pytest.approx(0.0, abs=1e-12)


def test_joint_torques_zero_force(default_config):
    assert chain.joint_torques(default_config, (0.0,) * 6, 0.0) == (0.0,) * 6


def test_joint_torques_linear_in_force(default_config):
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = tuple(rng.uniform(0.0, lim) for lim in default_config.joint_open_limit)
        f = rng.uniform(-100.0, 100.0)
        a = rng.uniform(-3.0, 3.0)
        base = chain.joint_torques(default_config, d, f)
        scaled = chain.joint_torques(default_config, d, a * f)
        assert scaled == pytest.approx(tuple(a * t for t in base), rel=1e-12, abs=1e-12)


def test_joint_torques_match_cross_product_oracle(default_config):
    """Independent vector-algebra check on 10,000 random valid states."""
    rng = np.random.default_rng(20240811)
    limits = default_config.joint_open_limit
    for _ in range(10_000):
        d = tuple(rng.uniform(0.0, lim) for lim in limits)
        f_end = rng.uniform(-80.0, 80.0)
        torques = chain.joint_torques(default_config, d, f_end)

        pivots, tip, _ = chain._geometry(default_config, d)
        l4 = math.hypot(*tip)
        fvec = (-tip[1] / l4 * f_end, tip[0] / l4 * f_end)
        for (px, py), t in zip(pivots[:-1], torques):
            oracle = (tip[0] - px) * fvec[1] - (tip[1] - py) * fvec[0]
            assert abs(t - oracle) < 1e-12


def test_torque_identity_with_moment_geometry(default_config):
    rng = np.random.default_rng(31)
    for _ in range(200):
        d = tuple(rng.uniform(0.0, lim) for lim in default_config.joint_open_limit)
        f_end = rng.uniform(-40.0, 40.0)
        arms, gammas = chain.moment_geometry(default_config, d)
        torques = chain.joint_torques(default_config, d, f_end)
        for r, g, t in zip(arms, gammas, torques):
            assert t == pytest.approx(r * math.sin(g) * f_end, abs=1e-12)


def test_chain_state_builds_the_geometry_once(default_config, monkeypatch):
    calls = []
    geometry = chain._geometry

    def counting(*args, **kw):
        calls.append(args)
        return geometry(*args, **kw)

    monkeypatch.setattr(chain, "_geometry", counting)
    state = chain.make_chain_state(default_config, default_config.joint_open_limit)
    assert len(calls) == 1
    monkeypatch.undo()
    assert (state.moment_arm, state.gamma) == chain.moment_geometry(
        default_config, default_config.joint_open_limit)


@pytest.mark.parametrize("index,expected", [(1, 0.468), (3, 0.468), (6, 0.468)])
def test_preload_threshold_uniform(default_config, index, expected):
    cfg = default_config.with_updates(alpha_preload=0.1)
    assert chain.preload_threshold(cfg, index) == pytest.approx(expected, abs=1e-12)


def test_preload_threshold_zero_preload(default_config):
    cfg = default_config.with_updates(alpha_preload=0.0)
    assert chain.preload_threshold(cfg, 1) == 0.0


def test_preload_threshold_index_bounds(default_config):
    with pytest.raises(IndexError):
        chain.preload_threshold(default_config, 0)
    with pytest.raises(IndexError):
        chain.preload_threshold(default_config, 7)


def test_preload_force_direct_value():
    assert chain.preload_force(1.17, 0.2, 0.02) == pytest.approx(11.7, abs=1e-12)


def test_preload_force_zero_winding():
    assert chain.preload_force(1.17, 0.0, 0.02) == 0.0


def test_preload_force_inverse_in_arm():
    assert chain.preload_force(1.0, 0.3, 0.04) == pytest.approx(
        chain.preload_force(1.0, 0.3, 0.02) / 2.0, abs=1e-12)


def test_preload_force_rejects_bad_arm():
    with pytest.raises(ValueError):
        chain.preload_force(1.0, 0.1, 0.0)
