import dataclasses
import math

import numpy as np
import pytest

from lbvt import analysis, chain, equilibrium
from lbvt.model import (CalibrationError, ConfigError, MechanismConfig, NoTriggerError,
                        Regime, per_joint_stiffness)

from conftest import NOT_A_NUMBER, random_config, straight_chain, unchecked


def _kinematics(config, d):
    """ChainState and 17 N tip-force joint torques at d, from the chain kernels.

    These chains (a straight one, the default one turned about the knee)
    are built unchecked, since the four-bar mostly cannot close on their
    levers (conftest.unchecked).
    """
    pivots, tip = chain._geometry(config, d)
    state = chain._chain_state(config, d, pivots)
    return state, tuple(chain._torques(pivots, tip, 17.0 / state.l4))


def test_collinear_chain_tip_along_axis():
    cfg = straight_chain(l_offset=0.1, seg=0.05, beta=0.0)
    state, _ = _kinematics(cfg, (0.0,) * 6)
    x, y = state.tip
    assert x == pytest.approx(0.4, abs=1e-15)
    assert y == pytest.approx(0.0, abs=1e-15)
    assert state.l4 == pytest.approx(0.4, abs=1e-15)


def test_collinear_chain_rotates_with_anchor():
    cfg = straight_chain(l_offset=0.1, seg=0.05, beta=math.pi / 2)
    x, y = _kinematics(cfg, (0.0,) * 6)[0].tip
    assert x == pytest.approx(0.0, abs=1e-15)
    assert y == pytest.approx(0.4, abs=1e-15)


def test_rotation_equivariance(default_config):
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = tuple(rng.uniform(0.0, lim) for lim in default_config.joint_open_limit)
        delta = rng.uniform(-math.pi, math.pi)
        rotated = unchecked(default_config, beta=default_config.beta + delta)

        s0, t0 = _kinematics(default_config, d)
        s1, t1 = _kinematics(rotated, d)
        assert (s0, t0) == (chain.make_chain_state(default_config, d),
                            chain.joint_torques(default_config, d, 17.0))
        (x0, y0), (x1, y1) = s0.tip, s1.tip
        c, s = math.cos(delta), math.sin(delta)
        assert x1 == pytest.approx(c * x0 - s * y0, abs=1e-12)
        assert y1 == pytest.approx(s * x0 + c * y0, abs=1e-12)

        assert s1.l4 == pytest.approx(s0.l4, abs=1e-12)
        assert s1.diameter == pytest.approx(s0.diameter, abs=1e-12)
        assert t1 == pytest.approx(t0, abs=1e-12)


def test_open_lever_exceeds_closed(default_config):
    assert chain.closed_lever(default_config) < chain.open_lever(default_config)


def _assert_stored_levers_are_the_checked_ones(config):
    zeros = (0.0,) * config.n_joints
    assert chain.closed_lever(config) == chain.make_chain_state(config, zeros).l4
    assert chain.open_lever(config) == chain.make_chain_state(config, config.joint_open_limit).l4


def test_stored_levers_equal_l4_length(default_config, base_config):
    # the shipped configs, 300 random ones and their calibrations, bit for bit
    rng = np.random.default_rng(2026)
    configs = [default_config, base_config] + [random_config(rng) for _ in range(300)]
    calibrated = 0
    for config in list(configs):
        trigger, ratio_step = float(rng.uniform(10.0, 30.0)), float(rng.uniform(0.2, 0.4))
        theta = float(rng.uniform(config.theta_min, config.theta_max))
        try:
            configs.append(analysis.calibrate(config, trigger, ratio_step, theta))
            calibrated += 1
        except (CalibrationError, NoTriggerError):  # a target this config cannot meet there
            pass
    assert calibrated >= 150
    for config in configs:
        _assert_stored_levers_are_the_checked_ones(config)


def test_replaced_config_recomputes_its_levers(default_config):
    half = dataclasses.replace(
        default_config, joint_open_limit=tuple(0.5 * x for x in default_config.joint_open_limit))
    moved = dataclasses.replace(default_config, l_offset=0.05)
    for copy in (half, moved):
        _assert_stored_levers_are_the_checked_ones(copy)
    assert chain.closed_lever(half) == chain.closed_lever(default_config)
    assert chain.open_lever(half) != chain.open_lever(default_config)
    assert chain.closed_lever(moved) != chain.closed_lever(default_config)


def test_shipped_lever_lengths():
    import lbvt

    cfg = lbvt.load_default_config()
    assert chain.closed_lever(cfg) == pytest.approx(0.06543844617372901, abs=1e-9)
    assert chain.open_lever(cfg) == pytest.approx(0.09277127867618964, abs=1e-9)


def test_lever_monotone_along_uniform_opening(default_config):
    values = []
    for s in np.linspace(0.0, 1.0, 1000):
        d = tuple(s * lim for lim in default_config.joint_open_limit)
        values.append(chain.make_chain_state(default_config, d).l4)
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_closed_diameter_is_the_trigger_plateau(default_config):
    # frozen from the shipped config at zero deflection
    assert chain.make_chain_state(default_config, (0.0,) * 6).diameter == pytest.approx(
        0.037659917442692266, abs=1e-9)


def test_diameter_bounded_by_total_segment_length(default_config):
    d_open = chain.make_chain_state(default_config, default_config.joint_open_limit).diameter
    assert d_open <= sum(default_config.segments) + 1e-15


def test_diameter_is_lipschitz(default_config):
    rng = np.random.default_rng(5)
    bound = 6.0 * sum(default_config.segments)
    for _ in range(200):
        a = tuple(rng.uniform(0.0, lim) for lim in default_config.joint_open_limit)
        b = tuple(rng.uniform(0.0, lim) for lim in default_config.joint_open_limit)
        gap = max(abs(x - y) for x, y in zip(a, b))
        da = chain.make_chain_state(default_config, a).diameter
        db = chain.make_chain_state(default_config, b).diameter
        assert abs(da - db) <= bound * gap + 1e-12


def test_deflection_bounds_are_enforced(default_config):
    with pytest.raises(ValueError):
        chain.make_chain_state(default_config, (-1e-6,) + (0.0,) * 5)
    for past in (1e-3, 1e-9):
        over = default_config.joint_open_limit[0] + past
        with pytest.raises(ValueError):
            chain.make_chain_state(default_config, (over,) + (0.0,) * 5)
    with pytest.raises(ValueError):
        chain.make_chain_state(default_config, (0.0,) * 3)


def test_tip_on_the_knee_has_no_lever():
    # anchor at (-0.05, 0) m, one 0.05 m segment along x ends on the knee; the
    # build refuses the negative offset, and the state a solve builds
    # (chain._chain_state) still refuses a tip on the knee, from pivots
    # written out here
    with pytest.raises(ConfigError, match="^invalid config: l_offset must be strictly positive"):
        straight_chain(l_offset=-0.05, seg=0.05, n=1)
    pivots = [(-0.05, 0.0), (0.0, 0.0)]
    with pytest.raises(ValueError, match="^chain tip coincides with the knee joint"):
        chain._chain_state(straight_chain(seg=0.05, n=1), (0.0,), pivots)


@pytest.mark.parametrize("check", [
    chain.make_chain_state,
    lambda cfg, d: chain.joint_torques(cfg, d, 1.0),
], ids=["make_chain_state", "joint_torques"])
def test_nan_deflection_is_out_of_range(default_config, check):
    d = (0.0, 0.0, math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"deflection\[2\]=nan outside"):
        check(default_config, d)


@pytest.mark.parametrize("check", [
    chain.make_chain_state,
    lambda cfg, d: chain.joint_torques(cfg, d, 1.0),
], ids=["make_chain_state", "joint_torques"])
@pytest.mark.parametrize("kind", NOT_A_NUMBER, ids=list(NOT_A_NUMBER))
def test_a_deflection_that_is_not_a_number_is_refused(default_config, check, kind):
    # read as a config file's number is, but a deflection is an argument, so
    # the error is a plain ValueError naming its index
    d = [0.0] * 6
    d[3] = NOT_A_NUMBER[kind]
    with pytest.raises(ValueError, match=rf"^deflection\[3\]: expected a number, got {kind}$") as exc:
        check(default_config, d)
    assert type(exc.value) is ValueError


def test_any_iterable_of_deflections_reads_as_floats(default_config):
    d = tuple(lim / 2 for lim in default_config.joint_open_limit)
    state = chain.make_chain_state(default_config, d)
    for given in (list(d), np.array(d), (x for x in d), [np.float64(x) for x in d]):
        other = chain.make_chain_state(default_config, given)
        assert repr(other) == repr(state)
        assert all(type(x) is float for x in other.deflection)
    assert chain.make_chain_state(default_config, [0] * 6) == chain.make_chain_state(
        default_config, (0.0,) * 6)


def test_torque_vanishes_when_load_aligns_with_arm():
    # single joint with its segment angled so the arm is perpendicular to the
    # tip ray: the tangential load then lies along the arm and sin(gamma) = 0
    seg_angle = math.asin(-0.6)  # anchor (0, 0.05), segment 0.03: (tip-p).tip = 0
    cfg = MechanismConfig(
        l1=0.25, l2=0.101, l3=0.265, actuator_base=(0.05, -0.05),
        actuator_attach_ratio=0.75, l_offset=0.05, beta=math.pi / 2,
        segments=(0.03,), phi=(seg_angle - math.pi / 2,),
        alpha_preload=0.0, k_spring=1.17, springs_per_joint=4, joint_open_limit=(0.3,),
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

        pivots, tip = chain._geometry(default_config, d)
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
        torques = chain.joint_torques(default_config, d, f_end)
        # moment arm r and signed angle gamma from the pivot-to-tip ray to the
        # tangential force direction, perpendicular to the knee-to-tip ray
        pivots, (tx, ty) = chain._geometry(default_config, d)
        force_angle = math.atan2(ty, tx) + math.pi / 2
        for (px, py), t in zip(pivots[:-1], torques):
            r = math.hypot(tx - px, ty - py)
            gamma = force_angle - math.atan2(ty - py, tx - px)
            assert t == pytest.approx(r * math.sin(gamma) * f_end, abs=1e-12)


def test_chain_state_builds_the_geometry_once(default_config, monkeypatch):
    calls = []
    geometry = chain._geometry

    def counting(*args, **kw):
        calls.append(args)
        return geometry(*args, **kw)

    monkeypatch.setattr(chain, "_geometry", counting)
    chain.make_chain_state(default_config, default_config.joint_open_limit)
    assert len(calls) == 1


@pytest.mark.parametrize("index,expected", [(1, 0.468), (3, 0.468), (6, 0.468)])
def test_preload_threshold_uniform(default_config, index, expected):
    # every joint holds k * alpha_preload and opens only strictly above it
    cfg = dataclasses.replace(default_config, alpha_preload=0.1)
    k, limits = per_joint_stiffness(cfg), cfg.joint_open_limit
    assert k * cfg.alpha_preload == pytest.approx(expected, abs=1e-12)
    d, closed = [0.0] * 6, [Regime.CLOSED] * 6
    for torque, flip in ((k * cfg.alpha_preload, None),
                         (math.nextafter(k * cfg.alpha_preload, 1.0), (index - 1, Regime.ACTIVE))):
        torques = [0.0] * 6
        torques[index - 1] = torque
        assert equilibrium._scan(d, closed, torques, k, cfg.alpha_preload, limits)[1] == flip


def test_preload_threshold_zero_preload(default_config):
    # without preload any opening torque moves a closed joint
    cfg = dataclasses.replace(default_config, alpha_preload=0.0)
    k, limits = per_joint_stiffness(cfg), cfg.joint_open_limit
    d, closed = [0.0] * 6, [Regime.CLOSED] * 6
    assert equilibrium._scan(d, closed, [0.0] * 6, k, 0.0, limits) == (0.0, None)
    assert equilibrium._scan(d, closed, [5e-324] + [0.0] * 5, k, 0.0, limits)[1] == (
        0, Regime.ACTIVE)
