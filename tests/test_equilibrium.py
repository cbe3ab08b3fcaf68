import math

import numpy as np
import pytest

from lbvt import chain, equilibrium, linkage
from lbvt.equilibrium import (
    brute_force_equilibrium,
    potential_energy,
    solve_equilibrium,
    tip_force,
    triggering_force,
)
from lbvt.model import (
    GridSizeError,
    NoTriggerError,
    Regime,
    per_joint_stiffness,
)

from conftest import THETA_88, count_calls, reduced_chain


def test_tip_force_trivials():
    assert tip_force(0.0, 0.1) == 0.0
    assert tip_force(2.0, 0.1) == pytest.approx(20.0, abs=1e-12)
    with pytest.raises(ValueError):
        tip_force(1.0, 0.0)


def test_tip_force_round_trip(default_config):
    l4 = chain.closed_lever(default_config)
    torque = linkage.kfe_torque(default_config, THETA_88, l4, 42.0)
    assert tip_force(torque, l4) * l4 == torque


def test_shipped_trigger_in_design_window(default_config):
    f = triggering_force(default_config, THETA_88)
    assert 17.0 <= f <= 21.0
    assert f == pytest.approx(20.0, abs=0.05)  # calibration tolerance


def test_zero_preload_triggers_immediately(default_config):
    cfg = default_config.with_updates(alpha_preload=0.0)
    assert triggering_force(cfg, THETA_88) == 0.0


def test_trigger_scales_with_preload(default_config):
    f1 = triggering_force(default_config, THETA_88)
    doubled = default_config.with_updates(alpha_preload=2.0 * default_config.alpha_preload)
    assert triggering_force(doubled, THETA_88) == pytest.approx(2.0 * f1, rel=1e-12)


def test_no_trigger_for_degenerate_loading(default_config):
    # single joint whose arm is perpendicular to the tip ray: the tangential
    # load exerts no opening torque, so no force can trigger the chain
    seg_angle = math.asin(-0.6)
    cfg = default_config.with_updates(
        l_offset=0.05, beta=math.pi / 2,
        segments=(0.03,), phi=(seg_angle - math.pi / 2,),
        joint_open_limit=(0.3,),
    )
    with pytest.raises(NoTriggerError):
        triggering_force(cfg, THETA_88)


def test_subthreshold_state_is_exactly_closed(default_config):
    trigger = triggering_force(default_config, THETA_88)
    res = solve_equilibrium(default_config, THETA_88, 0.9 * trigger)
    assert res.converged
    assert res.chain.deflection == (0.0,) * 6
    assert all(r is Regime.CLOSED for r in res.chain.regime)
    assert res.chain.l4 == chain.closed_lever(default_config)


def test_high_force_opens_chain_and_amplifies(default_config):
    res = solve_equilibrium(default_config, THETA_88, 165.0)
    assert res.converged
    assert any(r is not Regime.CLOSED for r in res.chain.regime)
    assert res.chain.l4 > chain.closed_lever(default_config)
    rigid = linkage.kfe_torque(default_config, THETA_88,
                               chain.closed_lever(default_config), 165.0)
    assert res.kfe_torque > rigid


def test_ratio_identity_is_exact(default_config):
    for f in (0.0, 12.0, 80.0, 165.0):
        res = solve_equilibrium(default_config, THETA_88, f)
        assert res.kfe_torque == res.transmission_ratio * res.input_force


def test_zero_force_reports_closed_lever_ratio(default_config):
    res = solve_equilibrium(default_config, THETA_88, 0.0)
    expected = linkage.jacobian(default_config, THETA_88,
                                chain.closed_lever(default_config))
    assert res.transmission_ratio == expected


def test_solver_is_deterministic(default_config):
    a = solve_equilibrium(default_config, THETA_88, 57.0)
    b = solve_equilibrium(default_config, THETA_88, 57.0)
    assert a.chain.deflection == b.chain.deflection
    assert a.kfe_torque == b.kfe_torque
    assert a.residual == b.residual
    assert a.iterations == b.iterations


def test_solver_rejects_bad_inputs(default_config):
    with pytest.raises(ValueError):
        solve_equilibrium(default_config, THETA_88, -1.0)
    with pytest.raises(ValueError):
        solve_equilibrium(default_config, 0.5, 10.0)


def test_nan_force_is_not_converged(default_config):
    res = solve_equilibrium(default_config, THETA_88, math.nan)
    assert not res.converged
    assert math.isnan(res.residual)


def test_infinite_force_is_rejected_up_front(default_config):
    with pytest.raises(ValueError, match="f_cyl"):
        solve_equilibrium(default_config, THETA_88, math.inf)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_trigger_rejects_non_finite_theta(default_config, theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        triggering_force(default_config, theta)


class _ConstantLoad:
    """Stub load map applying a fixed torque to every joint."""

    def __init__(self, torque, n):
        self.torque = torque
        self.n = n

    def torques(self, d):
        return (self.torque,) * self.n, 1.0, 1.0

    def derivative(self, d, active):
        return [[0.0] * len(active) for _ in active]  # constant torque


def test_single_joint_closed_form_balance():
    # constant applied torque 0.15, stiffness 1, preload 0.1: deflection 0.05
    d = [0.0]
    regimes = [Regime.CLOSED]
    load = _ConstantLoad(0.15, 1)
    torques, _ = equilibrium._active_set(load, d, regimes, 1.0, 0.1, (0.3,))
    assert d[0] == pytest.approx(0.05, abs=1e-11)
    assert regimes[0] is Regime.ACTIVE


def test_threshold_tie_stays_closed():
    # applied torque exactly at the holding threshold: no motion
    d = [0.0]
    regimes = [Regime.CLOSED]
    load = _ConstantLoad(0.1, 1)  # k * preload = 1.0 * 0.1
    equilibrium._active_set(load, d, regimes, 1.0, 0.1, (0.3,))
    assert d[0] == 0.0
    assert regimes[0] is Regime.CLOSED


def test_end_stop_engages_under_excess_torque():
    d = [0.0]
    regimes = [Regime.CLOSED]
    load = _ConstantLoad(1.0, 1)  # spring tops out at 1.0*(0.1+0.3) = 0.4
    equilibrium._active_set(load, d, regimes, 1.0, 0.1, (0.3,))
    assert d[0] == 0.3
    assert regimes[0] is Regime.END_STOP


def test_end_stop_clamped_step_is_not_replayed(monkeypatch):
    # the stub has no cache, so every torques call is a real evaluation
    calls = count_calls(monkeypatch, _ConstantLoad, "torques")
    d = [0.0]
    regimes = [Regime.CLOSED]
    equilibrium._active_set(_ConstantLoad(1.0, 1), d, regimes, 1.0, 0.1, (0.3,))
    assert regimes[0] is Regime.END_STOP
    assert calls[0] <= 8


@pytest.mark.parametrize(
    "force, bound", [(5.0, 1), (30.0, 8), (60.0, 27), (165.0, 300)],
    ids=["5N", "30N", "60N", "165N"],
)
def test_load_evaluations_per_solve(default_config, monkeypatch, force, bound):
    # evaluate is the uncached kernel: cache hits are not counted
    calls = count_calls(monkeypatch, equilibrium._LoadMap, "evaluate")
    res = solve_equilibrium(default_config, THETA_88, force)
    assert res.converged
    assert calls[0] <= bound


def test_load_map_cache_returns_the_evaluated_point(default_config, monkeypatch):
    calls = count_calls(monkeypatch, equilibrium._LoadMap, "evaluate")
    load = equilibrium._LoadMap(default_config, THETA_88, 80.0)
    d = [0.01, 0.0, 0.02, 0.0, 0.0, 0.03]
    first = load.torques(d)
    assert load.torques(tuple(d)) is first
    assert load.torques([-0.0 if x == 0.0 else x for x in d]) is first
    assert calls[0] == 1
    fresh = equilibrium._LoadMap(default_config, THETA_88, 80.0).torques(d)
    assert fresh == first


def test_load_map_derivative_matches_central_differences(default_config):
    """derivative agrees with central differences of torques, bounds included."""
    rng = np.random.default_rng(31)
    limits = default_config.joint_open_limit
    h = 1e-6
    for _ in range(200):
        theta = float(rng.uniform(default_config.theta_min, default_config.theta_max))
        load = equilibrium._LoadMap(default_config, theta, float(rng.uniform(1.0, 220.0)))
        # each joint closed, at its limit or in between
        d = [float(rng.choice([0.0, lim, rng.uniform(0.0, lim)])) for lim in limits]
        full = load.derivative(d, list(range(6)))
        for j in range(6):
            up, dn = list(d), list(d)
            up[j] += h
            dn[j] -= h
            a_up, _, _ = load.torques(up)
            a_dn, _, _ = load.torques(dn)
            column = [(p - q) / (2.0 * h) for p, q in zip(a_up, a_dn)]
            tol = 1e-6 * max(abs(x) for x in column)
            for i in range(6):
                assert full[i][j] == pytest.approx(column[i], rel=0.0, abs=tol)
        picked = rng.choice(6, size=int(rng.integers(1, 6)), replace=False)
        active = sorted(int(i) for i in picked)
        sub = load.derivative(d, active)
        assert sub == [[full[i][j] for j in active] for i in active]


def test_complementarity_on_random_inputs(default_config):
    rng = np.random.default_rng(99)
    k = per_joint_stiffness(default_config)
    a0 = default_config.alpha_preload
    for _ in range(150):
        theta = rng.uniform(default_config.theta_min, default_config.theta_max)
        f = rng.uniform(0.0, 220.0)
        res = solve_equilibrium(default_config, float(theta), float(f))
        assert res.converged, f"not converged at theta={theta}, f={f}"
        torques = chain.joint_torques(default_config, res.chain.deflection, res.tip_force)
        for dk, reg, lim, a in zip(res.chain.deflection, res.chain.regime,
                                   default_config.joint_open_limit, torques):
            if reg is Regime.CLOSED:
                assert dk == 0.0
                assert a <= k * a0 + 1e-9
            elif reg is Regime.END_STOP:
                assert dk == lim
                assert a >= k * (a0 + lim) - 1e-9
            else:
                assert 0.0 < dk < lim
                assert abs(a - k * (a0 + dk)) < 1e-9


def test_monotone_loading_at_minus_88(default_config):
    """Lever and torque never decrease as the force ramps 0..200 N in 1 N steps."""
    prev_l4, prev_t = -1.0, -math.inf
    for f in range(201):
        res = solve_equilibrium(default_config, THETA_88, float(f))
        assert res.converged
        assert res.chain.l4 >= prev_l4 - 1e-12
        assert res.kfe_torque >= prev_t - 1e-12
        prev_l4, prev_t = res.chain.l4, res.kfe_torque


def test_potential_energy_reference_zero(default_config):
    assert potential_energy(default_config, (0.0,) * 6) == 0.0


def test_potential_energy_single_joint_value():
    cfg = reduced_chain(1).with_updates(
        springs_per_joint=1, k_spring=1.0, alpha_preload=0.1)
    assert potential_energy(cfg, (0.05,)) == pytest.approx(6.25e-3, abs=1e-15)


def test_potential_energy_increasing_in_each_joint(default_config):
    rng = np.random.default_rng(17)
    h = 1e-7
    for _ in range(50):
        d = [rng.uniform(0.0, 0.9 * lim) for lim in default_config.joint_open_limit]
        e0 = potential_energy(default_config, d)
        for j in range(6):
            up = list(d)
            up[j] += h
            assert potential_energy(default_config, up) > e0


def test_potential_energy_domain(default_config):
    with pytest.raises(ValueError):
        potential_energy(default_config, (-0.01,) + (0.0,) * 5)


def test_virtual_work_consistency():
    """dE/df along the solution path equals the applied generalized power."""
    cfg = reduced_chain(2)
    h = 1e-3
    f0 = lo = hi = mid = None
    for f in np.arange(triggering_force(cfg, THETA_88) + 0.5, 40.0, 0.5):
        mid = solve_equilibrium(cfg, THETA_88, float(f))
        if not any(r is Regime.ACTIVE for r in mid.chain.regime):
            continue
        lo = solve_equilibrium(cfg, THETA_88, float(f) - h)
        hi = solve_equilibrium(cfg, THETA_88, float(f) + h)
        if lo.chain.regime == mid.chain.regime == hi.chain.regime:
            f0 = float(f)
            break
    assert f0 is not None, "no stable interior-active window found"
    de = (potential_energy(cfg, hi.chain.deflection)
          - potential_energy(cfg, lo.chain.deflection)) / (2.0 * h)
    torques = chain.joint_torques(cfg, mid.chain.deflection, mid.tip_force)
    dd = [(a - b) / (2.0 * h) for a, b in zip(hi.chain.deflection, lo.chain.deflection)]
    applied_power = sum(t * v for t, v in zip(torques, dd))
    assert de == pytest.approx(applied_power, rel=1e-6)


def test_brute_force_zero_force_stays_closed():
    cfg = reduced_chain(2)
    res = brute_force_equilibrium(cfg, THETA_88, 0.0, 1e-3)
    assert res.chain.deflection == (0.0, 0.0)
    assert all(r is Regime.CLOSED for r in res.chain.regime)


def test_brute_force_matches_solver_on_single_joint():
    cfg = reduced_chain(1)
    for f in (5.0, 14.0, 16.0, 18.0, 25.0):
        direct = solve_equilibrium(cfg, THETA_88, f)
        grid = brute_force_equilibrium(cfg, THETA_88, f, 1e-3)
        assert abs(direct.chain.deflection[0] - grid.chain.deflection[0]) <= 2e-3


def test_brute_force_rejects_large_grids():
    cfg = reduced_chain(3).with_updates(joint_open_limit=(0.5, 0.5, 0.5))
    with pytest.raises(GridSizeError):
        brute_force_equilibrium(cfg, THETA_88, 10.0, 1e-6)


@pytest.mark.parametrize("f_cyl", [-1.0, math.nan, math.inf])
def test_brute_force_rejects_bad_force(f_cyl):
    with pytest.raises(ValueError, match="f_cyl"):
        brute_force_equilibrium(reduced_chain(1), THETA_88, f_cyl, 1e-3)


@pytest.mark.parametrize("theta", [math.nan, math.radians(-170.0)], ids=["nan", "-170deg"])
def test_brute_force_rejects_bad_theta(theta):
    with pytest.raises(ValueError, match="theta"):
        brute_force_equilibrium(reduced_chain(1), theta, 10.0, 1e-3)


def test_brute_force_rejects_full_chain(default_config):
    with pytest.raises(ValueError):
        brute_force_equilibrium(default_config, THETA_88, 10.0, 1e-3)


def test_vectorized_load_map_matches_scalar(default_config):
    """The array path of the load map agrees with the float path row by row."""
    rng = np.random.default_rng(4)
    d_matrix = np.column_stack([
        rng.uniform(0.0, lim, 64) for lim in default_config.joint_open_limit
    ])
    load = equilibrium._LoadMap(default_config, THETA_88, 33.0)
    (vec, l4s, jacs), _ = load.evaluate(d_matrix.T, np)
    assert len(vec) == 6 and all(col.shape == (64,) for col in vec)
    for i, d in enumerate(d_matrix):
        scalar, l4, jac = load.torques(tuple(float(x) for x in d))
        assert tuple(col[i] for col in vec) == pytest.approx(scalar, abs=1e-12)
        assert (l4s[i], jacs[i]) == pytest.approx((l4, jac), abs=1e-14)


def test_vectorized_jacobian_matches_scalar(default_config):
    """The closure kernel broadcasts over knee angle and lever length."""
    bearing = chain.tip_bearing(default_config, (0.0,) * 6)
    thetas = np.linspace(default_config.theta_min, default_config.theta_max, 7)
    l4s = np.linspace(chain.closed_lever(default_config),
                      chain.open_lever(default_config), 50)
    vec = linkage._closure_kernel(
        default_config, thetas[:, None], l4s[None, :], bearing, np)[4]
    assert vec.shape == (7, 50)
    for i, theta in enumerate(thetas):
        for l4, jv in zip(l4s, vec[i]):
            assert jv == pytest.approx(
                linkage.jacobian(default_config, float(theta), float(l4)), abs=1e-14)
