import dataclasses
import hashlib
import math
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from lbvt import analysis, chain, equilibrium, linkage
from lbvt.equilibrium import solve_equilibrium, triggering_force
from lbvt.model import (
    EquilibriumResult,
    NoTriggerError,
    Regime,
    per_joint_stiffness,
)

import oracle
from conftest import (THETA_88, _climb, assert_ulps, count_calls, fixed_point_map,
                      random_config, reduced_chain)
from oracle import GridSizeError, brute_force_equilibrium


def _closed_result(config, ratio, force, l4=None):
    """A result on the closed chain, its lever length optionally replaced."""
    state = chain.make_chain_state(config, (0.0,) * config.n_joints)
    if l4 is not None:
        state = dataclasses.replace(state, l4=l4)
    return EquilibriumResult(chain=state, transmission_ratio=ratio, input_force=force,
                             converged=True, residual=0.0, iterations=1)


def test_tip_force_trivials(default_config):
    assert _closed_result(default_config, 0.5, 0.0, l4=0.1).tip_force == 0.0
    assert _closed_result(default_config, 2.0, 1.0, l4=0.1).tip_force == pytest.approx(
        20.0, abs=1e-12)


def test_tip_force_round_trip(default_config):
    l4 = chain.closed_lever(default_config)
    jac = linkage.jacobian(default_config, THETA_88, l4)
    torque = jac * 42.0
    res = _closed_result(default_config, jac, 42.0)
    assert res.kfe_torque == torque
    assert res.tip_force * l4 == torque


def test_shipped_trigger_in_design_window(default_config):
    f = triggering_force(default_config, THETA_88)
    assert 17.0 <= f <= 21.0
    assert f == pytest.approx(20.0, abs=0.05)  # calibration tolerance


def test_zero_preload_triggers_immediately(default_config):
    cfg = dataclasses.replace(default_config, alpha_preload=0.0)
    assert triggering_force(cfg, THETA_88) == 0.0


def test_trigger_scales_with_preload(default_config):
    f1 = triggering_force(default_config, THETA_88)
    doubled = dataclasses.replace(default_config, alpha_preload=2.0 * default_config.alpha_preload)
    assert triggering_force(doubled, THETA_88) == pytest.approx(2.0 * f1, rel=1e-12)


def test_no_trigger_for_degenerate_loading(default_config):
    # single joint whose arm is perpendicular to the tip ray: the tangential
    # load exerts no opening torque, so no force can trigger the chain
    seg_angle = math.asin(-0.6)
    cfg = dataclasses.replace(
        default_config, l_offset=0.05, beta=math.pi / 2,
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
    rigid = linkage.jacobian(default_config, THETA_88, chain.closed_lever(default_config)) * 165.0
    assert res.kfe_torque > rigid


def test_ratio_identity_is_exact(default_config, base_config):
    # the ratio is the four-bar jacobian at the solved lever, past the trigger too
    for cfg in (default_config, base_config):
        for theta in (math.radians(-130.0), THETA_88, math.radians(-45.0)):
            for f in (0.0, 12.0, 80.0, 165.0):
                res = solve_equilibrium(cfg, theta, f)
                assert res.kfe_torque == res.transmission_ratio * res.input_force
                assert res.transmission_ratio == linkage.jacobian(cfg, theta, res.chain.l4)
            assert res.converged and res.chain.l4 > chain.closed_lever(cfg)


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


def test_nan_force_is_not_converged(default_config):
    res = solve_equilibrium(default_config, THETA_88, math.nan)
    assert not res.converged
    assert math.isnan(res.residual)


def test_warm_start_falls_back_to_the_closed_state(default_config, monkeypatch):
    # a warm attempt that does not converge hands over to the cold attempts
    real = equilibrium._active_set
    residuals = []

    def first_attempt_fails(*args):
        point, outer, residual = real(*args)
        residuals.append(residual)
        return point, outer, 1.0 if len(residuals) == 1 else residual

    start = solve_equilibrium(default_config, THETA_88, 150.0).chain
    cold = solve_equilibrium(default_config, THETA_88, 165.0)
    monkeypatch.setattr(equilibrium, "_active_set", first_attempt_fails)
    res = solve_equilibrium(default_config, THETA_88, 165.0, start=start)
    assert len(residuals) >= 2
    assert res.converged
    assert res.chain == cold.chain
    assert res.iterations > cold.iterations


def test_result_reuses_the_last_evaluated_geometry(default_config, monkeypatch):
    # every chain geometry pass of a cold or warm solve is a load-map evaluation
    geometry = count_calls(monkeypatch, chain, "_geometry")
    evaluations = count_calls(monkeypatch, equilibrium._LoadMap, "evaluate")
    start = solve_equilibrium(default_config, THETA_88, 150.0).chain
    solve_equilibrium(default_config, THETA_88, 165.0, start=start)
    assert evaluations[0] > 0
    assert geometry[0] == evaluations[0]


def test_only_a_converged_chain_carries_its_origin(default_config):
    # the slot is not a field: not compared or shown, and replace drops it
    res = solve_equilibrium(default_config, THETA_88, 165.0)
    config, theta, point = res.chain._origin
    assert config is default_config and theta == THETA_88
    assert point[3][-1] == res.chain.tip and point[2] == res.transmission_ratio
    copy = dataclasses.replace(res.chain)
    assert copy._origin is None
    assert copy == res.chain and repr(copy) == repr(res.chain)
    stuck = solve_equilibrium(default_config, THETA_88, 1e6)
    assert not stuck.converged and stuck.chain._origin is None
    assert chain.make_chain_state(default_config, res.chain.deflection)._origin is None


def test_warm_solve_leaves_its_start_unchanged(default_config):
    # a warm solve starts from the point its start carries and writes
    # nothing into it, so a result never changes after it is returned
    res = solve_equilibrium(default_config, THETA_88, 150.0)
    origin = deepcopy(res.chain._origin)
    warm = solve_equilibrium(default_config, THETA_88, 165.0, start=res.chain)
    assert warm.converged
    assert res.chain._origin == origin


@pytest.mark.parametrize("name", ["default", "base"])
def test_carried_start_equals_the_same_start_checked(request, name):
    # a sweep's next sample starts from the point the last solve ended on;
    # the same start with its origin stripped is checked and evaluated, and
    # both must give the same result, bit for bit. Half the inputs keep the
    # last angle (a force sweep), half move it (an angle sweep).
    config = request.getfixturevalue(f"{name}_config")
    rng = np.random.default_rng(7)
    start = theta = None
    compared = 0
    for _ in range(3000):
        if theta is None or rng.uniform() < 0.5:
            theta = float(rng.uniform(config.theta_min, config.theta_max))
        f = float(rng.uniform(0.0, 300.0))
        res = solve_equilibrium(config, theta, f, start=start)
        if start is not None:
            assert start._origin is not None
            checked = solve_equilibrium(config, theta, f, start=dataclasses.replace(start))
            assert repr(res) == repr(checked)
            compared += 1
        if res.converged:
            start = res.chain
    assert compared == 2999


def test_start_without_this_configs_origin_is_checked_and_evaluated(default_config,
                                                                   monkeypatch):
    # an equal but distinct config object, or an unconverged solve's chain,
    # takes the checked path: one deflection check and one more evaluation
    good = solve_equilibrium(default_config, THETA_88, 150.0).chain
    stuck = solve_equilibrium(default_config, THETA_88, 1e6).chain
    twin = dataclasses.replace(default_config)
    checks = count_calls(monkeypatch, chain, "_check_deflection")
    evaluations = count_calls(monkeypatch, equilibrium._LoadMap, "evaluate")

    def counted(config, start):
        checks[0] = evaluations[0] = 0
        res = solve_equilibrium(config, THETA_88, 165.0, start=start)
        return repr(res), checks[0], evaluations[0]

    carried, carried_checks, carried_evaluations = counted(default_config, good)
    assert carried_checks == 0
    assert counted(twin, good) == (carried, 1, carried_evaluations + 1)
    assert counted(default_config, stuck)[1] == 1


def test_result_chain_state_matches_make_chain_state(default_config):
    rng = np.random.default_rng(8)
    oracle_config = reduced_chain(2)
    prev = None
    for _ in range(200):
        theta = float(rng.uniform(default_config.theta_min, default_config.theta_max))
        res = solve_equilibrium(default_config, theta, float(rng.uniform(0.0, 220.0)),
                                start=prev)
        assert res.chain == chain.make_chain_state(default_config, res.chain.deflection)
        prev = res.chain if res.converged else None
    for f in (10.0, 25.0, 40.0):
        res = brute_force_equilibrium(oracle_config, THETA_88, f, 1e-3)
        assert res.chain == chain.make_chain_state(oracle_config, res.chain.deflection)


@pytest.mark.parametrize("deflection, message", [
    ((0.0,) * 5, "expected 6 deflections, got 5"),
    ((math.nan,) + (0.0,) * 5, r"deflection\[0\]=nan outside"),
    ((0.0,) * 5 + (1.0,), r"deflection\[5\]=1.0 outside"),
], ids=["length", "nan", "past-limit"])
def test_bad_start_is_rejected(default_config, deflection, message):
    good = solve_equilibrium(default_config, THETA_88, 165.0).chain
    bad = dataclasses.replace(good, deflection=deflection)
    with pytest.raises(ValueError, match=message):
        solve_equilibrium(default_config, THETA_88, 165.0, start=bad)


def test_start_within_the_slack_past_its_limits_is_clamped(default_config):
    # the deflection check allows 1e-12 past a limit; such a start solves as
    # one exactly at the limits, and every joint ends on its stop at 165 N
    limits = default_config.joint_open_limit
    good = solve_equilibrium(default_config, THETA_88, 165.0).chain
    past = dataclasses.replace(good, deflection=tuple(lim + 5e-13 for lim in limits))
    exact = dataclasses.replace(good, deflection=limits)
    res = solve_equilibrium(default_config, THETA_88, 165.0, start=past)
    assert res == solve_equilibrium(default_config, THETA_88, 165.0, start=exact)
    assert res.chain.deflection == limits


@pytest.mark.parametrize("angle", [-130.0, -88.0, -45.0])
def test_deflections_rise_with_force_on_the_base_config(base_config, angle):
    """d*(F) is componentwise nondecreasing along a force ladder (T is isotone in F)."""
    theta = math.radians(angle)
    prev = solve_equilibrium(base_config, theta, 0.0)
    for f in range(1, 401):
        res = solve_equilibrium(base_config, theta, float(f), start=prev.chain)
        assert res.converged, f"not converged at {f} N"
        for now, before in zip(res.chain.deflection, prev.chain.deflection):
            assert now >= before - 1e-12
        prev = res


class _ConstantLoad:
    """Stub load map applying a fixed torque to every joint."""

    def __init__(self, torque, n):
        self.torque = torque
        self.n = n

    def evaluate(self, d):
        return (self.torque,) * self.n, 1.0, 1.0, None

    def derivative(self, point, active):
        return [[0.0] * len(active) for _ in active]  # constant torque

    def slope(self, point, j):
        return 0.0

    def pair(self, point, i, j):
        return 0.0, 0.0, 0.0, 0.0


class _SingularLoad(_ConstantLoad):
    """Constant torque 0.3 whose derivative is k = 2: the Newton system k - k is singular.

    At preload 0.1 the balance is d = 0.3 / k - 0.1 = 0.05. A stiffness other
    than 1 tells the step r / k from r * k.
    """

    K = 2.0

    def __init__(self, n):
        super().__init__(0.3, n)

    def derivative(self, point, active):
        return [[self.K * (i == j) for j in active] for i in active]

    def slope(self, point, j):
        return self.K

    def pair(self, point, i, j):
        return self.K, 0.0, 0.0, self.K


@pytest.mark.parametrize("d0", [0.0, 0.2])
def test_singular_newton_system_takes_the_step_with_the_load_held(d0):
    # r = 0.3 - k (0.1 + d); with the load held the jacobian is -k, so the
    # Newton step is +r/k and lands on the balance d = 0.05 from either side
    load = _SingularLoad(1)
    d = [d0]
    equilibrium._newton_active(load, d, load.evaluate(d), [0], load.K, 0.1, (0.3,))
    assert d[0] == pytest.approx(0.05, abs=1e-15)


def test_singular_two_joint_system_takes_the_step_with_the_load_held():
    # the same step in the general loop, which one active joint skips
    load = _SingularLoad(2)
    d = [0.0, 0.2]
    equilibrium._newton_active(load, d, load.evaluate(d), [0, 1], load.K, 0.1, (0.3, 0.3))
    assert d == pytest.approx([0.05, 0.05], abs=1e-15)


def test_singular_three_joint_system_takes_the_step_with_the_load_held():
    # three free joints eliminate, and the zero pivot takes the same step
    load = _SingularLoad(3)
    d = [0.0, 0.2, 0.1]
    equilibrium._newton_active(load, d, load.evaluate(d), [0, 1, 2], load.K, 0.1, (0.3,) * 3)
    assert d == pytest.approx([0.05] * 3, abs=1e-15)


def test_one_free_joint_of_a_singular_system_takes_the_step_with_the_load_held(monkeypatch):
    # joint 0 sits at its stop 0.03, pushed past it (r_0 = 0.04 > 0), so joint
    # 1 is the one free joint of the general loop: its step reads the slope,
    # whose k - k is 0, and takes +r/k from 0.2 to the balance 0.05
    load = _SingularLoad(2)
    derivatives = count_calls(monkeypatch, _SingularLoad, "derivative")
    slopes = count_calls(monkeypatch, _SingularLoad, "slope")
    d = [0.03, 0.2]
    equilibrium._newton_active(load, d, load.evaluate(d), [0, 1], load.K, 0.1, (0.03, 0.3))
    assert d[0] == 0.03
    assert d[1] == pytest.approx(0.05, abs=1e-15)
    assert derivatives[0] == 0 and slopes[0] >= 1


def test_single_joint_closed_form_balance():
    # constant applied torque 0.15, stiffness 1, preload 0.1: deflection 0.05
    d = [0.0]
    regimes = [Regime.CLOSED]
    load = _ConstantLoad(0.15, 1)
    _, _, residual = equilibrium._active_set(load, d, load.evaluate(d), regimes, 1.0, 0.1, (0.3,))
    assert d[0] == pytest.approx(0.05, abs=1e-11)
    assert regimes[0] is Regime.ACTIVE
    assert residual < equilibrium.RESIDUAL_TOL


def test_threshold_tie_stays_closed():
    # applied torque exactly at the holding threshold: no motion
    d = [0.0]
    regimes = [Regime.CLOSED]
    load = _ConstantLoad(0.1, 1)  # k * preload = 1.0 * 0.1
    _, outer, residual = equilibrium._active_set(
        load, d, load.evaluate(d), regimes, 1.0, 0.1, (0.3,))
    assert d[0] == 0.0
    assert regimes[0] is Regime.CLOSED
    assert (outer, residual) == (1, 0.0)


def test_end_stop_engages_under_excess_torque():
    d = [0.0]
    regimes = [Regime.CLOSED]
    load = _ConstantLoad(1.0, 1)  # spring tops out at 1.0*(0.1+0.3) = 0.4
    _, _, residual = equilibrium._active_set(load, d, load.evaluate(d), regimes, 1.0, 0.1, (0.3,))
    assert d[0] == 0.3
    assert regimes[0] is Regime.END_STOP
    assert residual == 0.0


@pytest.mark.parametrize("regime", [Regime.CLOSED, Regime.END_STOP])
def test_zero_travel_joint_is_never_violated(regime):
    # closed and stopped at once: a torque above k * a0 (0.5 > 0.1) or below
    # it (0.05) leaves the joint where it is
    for torque in (0.5, 0.05):
        assert equilibrium._scan([0.0], [regime], (torque,), 1.0, 0.1, (0.0,)) == (0.0, None)
        d, regimes, load = [0.0], [regime], _ConstantLoad(torque, 1)
        _, outer, residual = equilibrium._active_set(
            load, d, load.evaluate(d), regimes, 1.0, 0.1, (0.0,))
        assert (d, regimes, outer, residual) == ([0.0], [regime], 1, 0.0)


_C, _A, _S = Regime.CLOSED, Regime.ACTIVE, Regime.END_STOP


# (d, regimes, torques, a0, limits) -> repr of _scan's (residual, flip), k = 1;
# a repr tells -0.0 from 0.0 and shows a NaN
@pytest.mark.parametrize("d, regimes, torques, a0, limits, expected", [
    ([0.25], [_A], (0.5,), 0.25, (0.5,), "(0.0, None)"),
    ([0.0], [_A], (-0.0,), 0.0, (0.5,), "(0.0, None)"),
    ([0.0], [_C], (0.25,), 0.25, (0.5,), "(0.0, None)"),
    ([0.0], [_A], (0.0,), 0.25, (0.5,), "(0.25, (0, <Regime.CLOSED: 'closed'>))"),
    ([0.25], [_A], (0.0,), 0.25, (0.5,), "(0.5, None)"),
    ([0.5], [_A], (1.0,), 0.25, (0.5,), "(0.25, (0, <Regime.END_STOP: 'end_stop'>))"),
    ([0.25], [_A], (1.0,), 0.25, (0.5,), "(0.5, None)"),
    ([0.5], [_S], (0.5,), 0.25, (0.5,), "(0.25, (0, <Regime.ACTIVE: 'active'>))"),
    ([0.5], [_S], (0.75,), 0.25, (0.5,), "(0.0, None)"),
    ([0.0, 0.0], [_C, _S], (5.0, 0.0), 0.25, (0.0, 0.0), "(0.0, None)"),
    ([0.0, 0.0], [_C, _C], (0.5, 0.5), 0.25, (0.5, 0.5), "(0.25, (0, <Regime.ACTIVE: 'active'>))"),
    ([0.25, 0.0], [_A, _C], (1.0, 0.5), 0.25, (0.5, 0.5), "(0.5, (1, <Regime.ACTIVE: 'active'>))"),
    ([0.0, 0.0], [_C, _C], (0.5, 0.75), 0.25, (0.5, 0.5), "(0.5, (1, <Regime.ACTIVE: 'active'>))"),
    ([0.0, 0.0], [_C, _C], (math.nan, 5.0), 0.25, (0.5, 0.5), "(nan, None)"),
    ([0.0, 0.0], [_C, _C], (5.0, math.inf), 0.25, (0.5, 0.5), "(nan, None)"),
], ids=["active-zero", "active-minus-zero", "closed-at-threshold", "pulled-closed-at-0",
        "pulled-inside", "pushed-at-limit", "pushed-inside", "stop-released", "stop-held",
        "zero-travel", "tie-lowest-index", "flip-below-residual", "larger-wins", "nan-torque",
        "inf-torque-later"])
def test_scan_edge_cases(d, regimes, torques, a0, limits, expected):
    assert repr(equilibrium._scan(d, regimes, torques, 1.0, a0, limits)) == expected


# (d, active, torques, a0, limits) -> repr of _free_residuals' (free, r, norm), k = 1
@pytest.mark.parametrize("d, active, torques, a0, limits, expected", [
    ([0.25], [0], (0.5,), 0.25, (0.5,), "([0], [0.0], 0.0)"),
    ([0.0], [0], (-0.0,), 0.0, (0.5,), "([0], [-0.0], 0.0)"),
    ([0.0], [0], (0.0,), 0.25, (0.5,), "([], [], 0.0)"),
    ([0.0], [0], (0.5,), 0.25, (0.5,), "([0], [0.25], 0.25)"),
    ([0.5], [0], (1.0,), 0.25, (0.5,), "([], [], 0.0)"),
    ([0.5], [0], (0.5,), 0.25, (0.5,), "([0], [-0.25], 0.25)"),
    ([0.0, 0.25, 0.5], [1, 2], (9.0, 0.0, 0.5), 0.25, (0.5,) * 3, "([1, 2], [-0.5, -0.25], 0.5)"),
    ([0.25, 0.25], [0, 1], (math.nan, 1.0), 0.25, (0.5, 0.5), "([0, 1], [nan, 0.5], nan)"),
    ([0.25, 0.25], [0, 1], (1.0, math.nan), 0.25, (0.5, 0.5), "([0, 1], [0.5, nan], 0.5)"),
], ids=["zero", "minus-zero", "pinned-at-0", "free-at-0", "pinned-at-limit", "free-at-limit",
        "inactive-skipped", "nan-first", "nan-later"])
def test_free_residuals_edge_cases(d, active, torques, a0, limits, expected):
    # the norm is max(map(abs, r), default=0.0): NaN only when the NaN comes
    # first, which a rewritten norm must keep
    assert repr(equilibrium._free_residuals(torques, d, active, 1.0, a0, limits)) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_newton_system_matches_a_direct_solve(m):
    rng = np.random.default_rng(m)
    for _ in range(50):
        jac, r = rng.normal(size=(m, m)), rng.normal(size=m)
        step = equilibrium._solve_small(jac.tolist(), r.tolist())
        assert step == pytest.approx(np.linalg.solve(jac, -r).tolist(), rel=1e-9, abs=1e-12)


def test_newton_system_pivots_and_reports_a_singular_one():
    # a zero leading entry needs a row swap; a zero pivot further down means singular
    jac = [[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 4.0]]
    assert equilibrium._solve_small(jac, [1.0, 2.0, 4.0]) == [-1.0, -1.0, -1.0]
    assert jac == [[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 4.0]]
    singular = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]
    assert equilibrium._solve_small(singular, [1.0, 1.0, 1.0]) is None
    assert equilibrium._solve_small([[0.0]], [1.0]) is None
    assert equilibrium._solve_small([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) is None


def test_residual_is_read_after_the_last_flip(monkeypatch):
    # the one pass flips the active joint, pulled below its preload at d = 0,
    # to closed, where nothing is violated
    monkeypatch.setattr(equilibrium, "MAX_OUTER", 1)
    d, regimes, load = [0.0], [Regime.ACTIVE], _ConstantLoad(0.05, 1)
    _, outer, residual = equilibrium._active_set(
        load, d, load.evaluate(d), regimes, 1.0, 0.1, (0.3,))
    assert (regimes, outer, residual) == ([Regime.CLOSED], 1, 0.0)


def test_end_stop_clamped_step_is_not_replayed(monkeypatch):
    calls = count_calls(monkeypatch, _ConstantLoad, "evaluate")
    d = [0.0]
    regimes = [Regime.CLOSED]
    load = _ConstantLoad(1.0, 1)
    equilibrium._active_set(load, d, load.evaluate(d), regimes, 1.0, 0.1, (0.3,))
    assert regimes[0] is Regime.END_STOP
    # the closed state on entry and the one trial, clamped to the stop
    assert calls[0] <= 2


class _CubeRootLoad:
    """Stub load whose one-joint balance residual is cbrt(d - 0.5), with k = 1, a0 = 0.

    The full Newton step on a cube root lands at root - 2 * (d - root): it
    overshoots, flips sides and raises the residual on every pass.
    """

    def evaluate(self, d):
        return (d[0] + math.cbrt(d[0] - 0.5),), 1.0, 1.0, tuple(d)

    def slope(self, point, j):
        d = point[3]
        return 1.0 + abs(d[0] - 0.5) ** (-2.0 / 3.0) / 3.0


class _SquareRootLoad:
    """Stub load whose one-joint balance residual is sign(x) sqrt(|x|), x = d - 0.5.

    With k = 1 and a0 = 0 the full Newton step maps x to -x exactly for
    x = +-0.25: d alternates between 0.25 and 0.75 at the same |r| of 0.5.
    """

    def evaluate(self, d):
        x = d[0] - 0.5
        return (d[0] + math.copysign(math.sqrt(abs(x)), x),), 1.0, 1.0, tuple(d)

    def slope(self, point, j):
        d = point[3]
        return 1.0 + 0.5 / math.sqrt(abs(d[0] - 0.5))


def _run_newton(monkeypatch, load, d):
    """Run _newton_active on one active joint (k = 1, a0 = 0, limit 1); count trials."""
    point = load.evaluate(d)
    calls = count_calls(monkeypatch, type(load), "evaluate")
    end = equilibrium._newton_active(load, d, point, [0], 1.0, 0.0, (1.0,))
    trials = calls[0]
    assert end == load.evaluate(d)  # the returned point is the one at d
    return trials


def test_first_rising_step_is_taken_and_a_second_ends_the_newton_run(monkeypatch):
    d = [0.4]
    trials = _run_newton(monkeypatch, _CubeRootLoad(), d)
    # 0.4 -> 0.7 raises |r| from 0.46 to 0.58 and is taken; 0.7 -> 0.1
    # raises it again to 0.74 and ends the run, leaving d at 0.7
    assert d[0] == pytest.approx(0.7, abs=1e-12)
    assert trials == 2


def test_step_that_keeps_the_residual_counts_as_rising(monkeypatch):
    d = [0.25]
    trials = _run_newton(monkeypatch, _SquareRootLoad(), d)
    # 0.25 -> 0.75 keeps |r| at 0.5 and is the bold step; 0.75 -> 0.25
    # keeps it again and ends the run instead of cycling MAX_INNER times
    assert d[0] == 0.75
    assert trials == 2


class _HalvingLoad(_ConstantLoad):
    """Constant torque whose slope reads -k = -1: each Newton step halves the residual."""

    def slope(self, point, j):
        return -1.0


def test_newton_run_steps_on_while_the_residual_falls(monkeypatch):
    # k = 1, a0 = 0.1: r = 0.05 / 2^n after n trials, so the run needs 36
    # trials to pass _INNER_TOL; every one lowers the norm, so it takes them
    # all within MAX_INNER
    load = _HalvingLoad(0.15, 1)
    d = [0.0]
    point = load.evaluate(d)
    calls = count_calls(monkeypatch, _HalvingLoad, "evaluate")
    equilibrium._newton_active(load, d, point, [0], 1.0, 0.1, (0.3,))
    assert calls[0] == 36
    assert d[0] == pytest.approx(0.05, rel=0.0, abs=1e-12)


class _HeldStopLoad:
    """Stub two-joint load, k = 1 and a0 = 0, limits 0.3 and 1: joint 0 pinned at its stop.

    a_0 = 1 + 2 d_0 pushes joint 0 past its stop (r_0 = 1 + d_0 > 0), and
    its own jacobian entry 2 - k > 0 makes the full Newton step drive it
    back to 0. a_1 = d_1^2 / 2 + 0.1 + 0.05 d_0 balances joint 1, with d_0
    at its stop, at d_1 = 1 - sqrt(0.77). derivative and slope record the
    joints they are asked for.
    """

    def __init__(self):
        self.asked = []

    def evaluate(self, d):
        return (1.0 + 2.0 * d[0], 0.5 * d[1] * d[1] + 0.1 + 0.05 * d[0]), 1.0, 1.0, tuple(d)

    def derivative(self, point, active):
        self.asked.append(list(active))
        full = [[2.0, 0.0], [0.05, point[3][1]]]
        return [[full[i][j] for j in active] for i in active]

    def slope(self, point, j):
        (row,) = self.derivative(point, [j])
        return row[0]

    def pair(self, point, i, j):
        (a, b), (c, e) = self.derivative(point, [i, j])
        return a, b, c, e


def test_joint_pinned_at_its_stop_is_held_while_the_free_joint_converges(monkeypatch):
    # the pinned joint never moves and never enters the Newton system, and
    # its constant residual does not hide the free joint's progress: Newton
    # from d_1 = 0 converges in 4 trials (errors 7.5e-3, 3.2e-5, 5.8e-10, 4e-17).
    # A step on both joints drives joint 0 to 0, where its residual of 1
    # then holds the norm and ends the run after the bold step, joint 1
    # unsolved.
    load = _HeldStopLoad()
    d = [0.3, 0.0]
    calls = count_calls(monkeypatch, _HeldStopLoad, "evaluate")
    end = equilibrium._newton_active(load, d, load.evaluate(d), [0, 1], 1.0, 0.0, (0.3, 1.0))
    assert calls[0] == 5 and load.asked == [[1]] * 4  # the start and 4 trials
    assert d[0] == 0.3
    assert d[1] == pytest.approx(1.0 - math.sqrt(0.77), rel=0.0, abs=1e-15)
    assert end == load.evaluate(d)


@pytest.mark.parametrize("active, d0, torques", [
    ([0], [0.3], (1.0,)), ([0, 1], [0.3, 0.0], (1.0, 0.05)),
], ids=["one-joint", "two-joints"])
def test_run_with_every_active_joint_pinned_takes_no_derivative(monkeypatch, active, d0,
                                                               torques):
    # k = 1, a0 = 0.1, limits 0.3: joint 0 pushed past its stop, joint 1
    # pulled below its preload at 0; the run ends before any derivative or
    # evaluation and hands both to the regime flips
    load = _ConstantLoad(None, len(active))
    point = (torques, 1.0, 1.0, None)
    derivatives = count_calls(monkeypatch, _ConstantLoad, "derivative")
    slopes = count_calls(monkeypatch, _ConstantLoad, "slope")
    pairs = count_calls(monkeypatch, _ConstantLoad, "pair")
    evaluations = count_calls(monkeypatch, _ConstantLoad, "evaluate")
    d = list(d0)
    assert equilibrium._newton_active(load, d, point, active, 1.0, 0.1, (0.3,) * len(active)) \
        is point
    assert d == d0 and derivatives[0] == slopes[0] == pairs[0] == evaluations[0] == 0


@pytest.mark.parametrize(
    "load, start, end",
    [(_ConstantLoad(1.0, 1), 0.0, 0.3), (_ConstantLoad(0.05, 1), 0.2, 0.0)],
    ids=["past-limit", "below-zero"],
)
def test_newton_step_is_clamped_to_the_travel_range(load, start, end):
    # k = 1, a0 = 0.1, limit 0.3: the full step from start overshoots the range
    # and lands exactly on its end, +0.0 at the closed end
    d = [start]
    equilibrium._newton_active(load, d, load.evaluate(d), [0], 1.0, 0.1, (0.3,))
    assert d == [end]
    assert math.copysign(1.0, d[0]) == 1.0


def test_nan_newton_step_is_not_clamped(monkeypatch):
    # a NaN torque makes a NaN step, which min(max(x, 0.0), lim) would keep
    # NaN rather than land on a bound: the run ends before evaluating that
    # trial, and d keeps its last finite value, in the scalar loop and the
    # general one
    for active, d0 in (([0], [0.2]), ([0, 1], [0.0, 0.2])):
        load = _ConstantLoad(math.nan, len(active))
        d = list(d0)
        point = load.evaluate(d)
        calls = count_calls(monkeypatch, load, "evaluate")
        assert equilibrium._newton_active(load, d, point, active, 1.0, 0.1,
                                          (0.3,) * len(active)) is point
        assert d == d0 and calls[0] == 0


@pytest.mark.parametrize("force", [1e200, 1e300])
@pytest.mark.parametrize("theta_deg", [-130.0, -88.0, -50.0])
@pytest.mark.parametrize("name", ["default", "base"])
def test_huge_force_solve_ends_unconverged(request, name, theta_deg, force):
    # the load overflows the Newton jacobian, whose NaN step ends the run
    # unevaluated; before, the next evaluation raised "lever length must be
    # positive, got nan"
    config = request.getfixturevalue(f"{name}_config")
    res = solve_equilibrium(config, math.radians(theta_deg), force)
    assert not res.converged
    assert all(0.0 <= x <= lim for x, lim in zip(res.chain.deflection, config.joint_open_limit))
    assert math.isfinite(res.residual) and math.isfinite(res.transmission_ratio)


@pytest.mark.parametrize(
    "force, bound", [(5.0, 1), (30.0, 8), (60.0, 6), (165.0, 22)],
    ids=["5N", "30N", "60N", "165N"],
)
def test_load_evaluations_per_solve(default_config, monkeypatch, force, bound):
    calls = count_calls(monkeypatch, equilibrium._LoadMap, "evaluate")
    res = solve_equilibrium(default_config, THETA_88, force)
    assert res.converged
    assert calls[0] <= bound


def _criterion_7_inputs(config, count):
    """The first count (theta, force) inputs of acceptance criterion 7."""
    rng = np.random.default_rng(1234)
    for _ in range(count):
        theta = float(rng.uniform(config.theta_min, config.theta_max))
        yield theta, float(rng.uniform(0.0, 220.0))


def test_load_evaluations_on_random_inputs(default_config, monkeypatch):
    # 11.11 evaluations on average, 27 evaluations and 28 jacobians at most,
    # 10,790 jacobians in all when measured (14.9, 45 and 51 while a joint
    # pinned at a bound stayed in the Newton step; 15.2 and 46 evaluations
    # when the ladder evaluated
    # the closed state again; 21.2, 66 and 64 when its intermediate rungs
    # were solved to _INNER_TOL and each re-evaluated its start); accepting
    # steps that keep the residual took 99 jacobians. A one-joint run's 1x1
    # jacobian is a slope, a two-joint run's 2x2 jacobian a pair.
    evaluations = count_calls(monkeypatch, equilibrium._LoadMap, "evaluate")
    derivatives = count_calls(monkeypatch, equilibrium._LoadMap, "derivative")
    slopes = count_calls(monkeypatch, equilibrium._LoadMap, "slope")
    pairs = count_calls(monkeypatch, equilibrium._LoadMap, "pair")
    per_evaluations, per_jacobians = [], []
    for theta, f in _criterion_7_inputs(default_config, 1000):
        before = evaluations[0], derivatives[0] + slopes[0] + pairs[0]
        solve_equilibrium(default_config, theta, f)
        per_evaluations.append(evaluations[0] - before[0])
        per_jacobians.append(derivatives[0] + slopes[0] + pairs[0] - before[1])
    assert sum(per_evaluations) / len(per_evaluations) <= 11.2
    assert max(per_evaluations) <= 27
    assert max(per_jacobians) <= 28
    assert sum(per_jacobians) <= 10_790


def test_closure_kernel_calls_on_random_inputs(default_config, monkeypatch):
    # a cold solve calls the closure kernel once per evaluation and once per
    # derivative, slope or pair, for its forward difference: 21,900 calls when
    # measured, for 11,110 evaluations and 10,790 derivatives, slopes and pairs
    # (21,205 calls while a point kept the forward-difference value for a
    # later derivative at its geometry)
    calls = count_calls(monkeypatch, linkage, "_closure_kernel")
    evaluations = count_calls(monkeypatch, equilibrium._LoadMap, "evaluate")
    derivatives = count_calls(monkeypatch, equilibrium._LoadMap, "derivative")
    slopes = count_calls(monkeypatch, equilibrium._LoadMap, "slope")
    pairs = count_calls(monkeypatch, equilibrium._LoadMap, "pair")
    for theta, f in _criterion_7_inputs(default_config, 1000):
        solve_equilibrium(default_config, theta, f)
    assert calls[0] == evaluations[0] + derivatives[0] + slopes[0] + pairs[0]


def test_newton_systems_by_size_on_random_inputs(default_config, monkeypatch):
    # most Newton systems past the trigger have two free joints: they read a
    # pair and take the 2x2 closed form, and only three or more free joints
    # build the derivative's rows and eliminate. Measured: 2,261 pairs and 370
    # three-joint derivatives and eliminations (2,631 derivatives and solves
    # while the 2x2 systems went through derivative and _solve_small), with
    # the evaluations and closure-kernel calls unchanged
    sizes = []
    derivative = equilibrium._LoadMap.derivative

    def sized(self, point, active):
        sizes.append(len(active))
        return derivative(self, point, active)

    monkeypatch.setattr(equilibrium._LoadMap, "derivative", sized)
    pairs = count_calls(monkeypatch, equilibrium._LoadMap, "pair")
    solves = count_calls(monkeypatch, equilibrium, "_solve_small")
    evaluations = count_calls(monkeypatch, equilibrium._LoadMap, "evaluate")
    calls = count_calls(monkeypatch, linkage, "_closure_kernel")
    for theta, f in _criterion_7_inputs(default_config, 1000):
        solve_equilibrium(default_config, theta, f)
    assert (pairs[0], len(sizes), set(sizes), solves[0]) == (2261, 370, {3}, 370)
    assert (evaluations[0], calls[0]) == (11_110, 21_900)


def test_rung_tolerance_keeps_the_convergence_set(default_config, base_config, monkeypatch):
    # intermediate ladder rungs stop at _RUNG_TOL; polishing them to
    # _INNER_TOL must not change which inputs converge, nor where
    for config in (default_config, base_config):
        inputs = list(_criterion_7_inputs(config, 1000))
        fast = [solve_equilibrium(config, theta, f) for theta, f in inputs]
        with monkeypatch.context() as m:
            m.setattr(equilibrium, "_RUNG_TOL", equilibrium._INNER_TOL)
            polished = [solve_equilibrium(config, theta, f) for theta, f in inputs]
        assert [r.converged for r in fast] == [r.converged for r in polished]
        for a, b in zip(fast, polished):
            if a.converged:
                assert a.chain.deflection == pytest.approx(b.chain.deflection, rel=0.0, abs=1e-12)


def test_reweighed_point_equals_an_evaluation(default_config):
    # a ladder rung starts from the last rung's point reweighed at its force
    rng = np.random.default_rng(20)
    limits = default_config.joint_open_limit
    for _ in range(50):
        theta = float(rng.uniform(default_config.theta_min, default_config.theta_max))
        d = [float(rng.uniform(0.0, lim)) for lim in limits]
        f1, f2 = (float(f) for f in rng.uniform(0.0, 220.0, size=2))
        point = equilibrium._LoadMap(default_config, theta, f1).evaluate(d)
        load = equilibrium._LoadMap(default_config, theta, f2)
        reweighed = load.reweigh(theta, *point[1:])
        assert reweighed == load.evaluate(d)
        rows = load.derivative(reweighed, [0, 2, 5])
        assert load.derivative(load.evaluate(d), [0, 2, 5]) == rows


def test_point_reweighed_at_another_angle_equals_an_evaluation(default_config, monkeypatch):
    # a warm angle sweep starts from the last sample's point: the chain
    # geometry holds, and one closure-kernel call gives the jacobian there
    rng = np.random.default_rng(21)
    limits = default_config.joint_open_limit
    kernel = count_calls(monkeypatch, linkage, "_closure_kernel")
    for _ in range(50):
        theta0, theta = (float(t) for t in rng.uniform(default_config.theta_min,
                                                       default_config.theta_max, size=2))
        d = [float(rng.uniform(0.0, lim)) for lim in limits]
        f0, f = (float(x) for x in rng.uniform(0.0, 220.0, size=2))
        point = equilibrium._LoadMap(default_config, theta0, f0).evaluate(d)
        load = equilibrium._LoadMap(default_config, theta, f)
        kernel[0] = 0
        reweighed = load.reweigh(theta0, *point[1:])
        assert kernel[0] == 1
        assert reweighed == load.evaluate(d)
        assert reweighed[3] is point[3]


# SHA-256 of the solves in test_solve_results_match_the_pinned_digest,
# recorded on x86-64 Linux with CPython 3.11. A change that is meant to keep
# every answer bit for bit must leave it as it is; one that changes answers
# regenerates it and says so.
SOLVE_DIGEST = "c1f3e51d6c18340d4a7aef6fa39ba9c735539024ef5d2066dd0e0714a752be01"


def test_solve_results_match_the_pinned_digest(default_config, base_config):
    # 300 inputs of criterion 7 per shipped config, then the -88 deg probes
    # past the stops, far past them (unconverged) and at a NaN force
    digest = hashlib.sha256()
    for config in (default_config, base_config):
        inputs = [*_criterion_7_inputs(config, 300), (THETA_88, 165.0), (THETA_88, 1e6),
                  (THETA_88, math.nan)]
        for theta, f in inputs:
            res = solve_equilibrium(config, theta, f)
            digest.update(repr((res.chain.deflection, res.chain.regime, res.transmission_ratio,
                                res.converged, res.residual, res.iterations)).encode())
    assert digest.hexdigest() == SOLVE_DIGEST


# SHA-256 of the solves in test_random_config_solves_match_the_pinned_digest,
# recorded like SOLVE_DIGEST and kept or regenerated under the same rule.
RANDOM_SOLVE_DIGEST = "c728f525aee629119c47d8cc7d8532ce854ad678dc3a7722e1fc48c7ffc756b9"


def test_random_config_solves_match_the_pinned_digest():
    # the 15 x 20 inputs of test_converged_solves_stay_on_the_loading_branch_of_random_configs,
    # then each config's theta_max far past the stops (unconverged) and at a NaN
    # force: ladders, unconverged runs and three- and four-joint Newton systems
    # on configs beyond the shipped two. When recorded, 79 of the 360 solves
    # ended unconverged (19 of the 300 and all 60 probes)
    rng = np.random.default_rng(2026)
    digest = hashlib.sha256()
    for _ in range(15):
        config = random_config(rng)
        inputs = [(float(rng.uniform(config.theta_min, config.theta_max)),
                   float(rng.uniform(0.0, 300.0))) for _ in range(20)]
        inputs += [(config.theta_max, f) for f in (1e6, 1e200, 1e300, math.nan)]
        for theta, f in inputs:
            res = solve_equilibrium(config, theta, f)
            digest.update(repr((res.chain.deflection, res.chain.regime, res.transmission_ratio,
                                res.converged, res.residual, res.iterations)).encode())
    assert digest.hexdigest() == RANDOM_SOLVE_DIGEST


def test_converged_solves_stay_on_the_loading_branch_of_random_configs():
    # 15 perturbed configs x 20 inputs: every answer the solver calls
    # converged is the climb's least fixed point wherever the climb settles
    # within its budget (near a fold it crawls; such inputs are excluded).
    # 19 of the 300 solves end unconverged and none is excluded when measured.
    rng = np.random.default_rng(2026)
    unconverged = excluded = 0
    for _ in range(15):
        config = random_config(rng)
        for _ in range(20):
            theta = float(rng.uniform(config.theta_min, config.theta_max))
            f = float(rng.uniform(0.0, 300.0))
            res = solve_equilibrium(config, theta, f)
            if not res.converged:
                unconverged += 1
                continue
            reference = _climb(config, theta, f, 2000)
            if reference is None:
                excluded += 1
                continue
            assert res.chain.deflection == pytest.approx(reference, rel=0.0, abs=1e-9)
    print(f"random configs: {unconverged} of 300 unconverged, "
          f"{excluded} excluded where the climb did not settle")


def test_converged_deflections_never_fall_as_the_force_rises_on_random_configs():
    # T is isotone in d and nondecreasing in F, so the loading branch rises
    # with F: along an ascending ladder of cold solves (0 to 300 N in 5 N
    # steps) at one angle of each of 12 perturbed configs, no converged
    # answer lies below the last converged one in any joint. When measured,
    # 674 of the 732 solves converged and none fell, by even 1 ulp; nor did
    # any of 4,392 such solves on 72 other draws
    rng = np.random.default_rng(14)
    for _ in range(12):
        config = random_config(rng)
        theta = float(rng.uniform(config.theta_min, config.theta_max))
        below = None
        for f in range(0, 301, 5):
            res = solve_equilibrium(config, theta, float(f))
            if not res.converged:
                continue
            if below is not None:
                assert all(now >= before - 1e-12
                           for now, before in zip(res.chain.deflection, below)), f
            below = res.chain.deflection


def test_converged_answers_are_fixed_points_below_the_descent_from_the_top():
    # every converged answer d is a fixed point of T, and since T is isotone
    # every fixed point lies at or below T^m(top) for each m, top being every
    # joint at its limit. 20 perturbed configs x 20 inputs: when measured,
    # 380 of the 400 converged, the largest |T(d) - d| was 1.4e-13 rad, and
    # some answers met T^m(top) exactly in a joint
    rng = np.random.default_rng(1414)
    for _ in range(20):
        config = random_config(rng)
        for _ in range(20):
            theta = float(rng.uniform(config.theta_min, config.theta_max))
            f = float(rng.uniform(0.0, 300.0))
            res = solve_equilibrium(config, theta, f)
            if not res.converged:
                continue
            t = fixed_point_map(config, theta, f)
            d = res.chain.deflection
            assert max(abs(x - y) for x, y in zip(t(d), d)) <= 1e-12, (theta, f)
            upper = list(config.joint_open_limit)
            for _ in range(3):
                upper = t(upper)
                assert all(x <= u + 1e-12 for x, u in zip(d, upper)), (theta, f)


@seed(0)
@settings(max_examples=150, derandomize=False, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), where=st.floats(0.0, 1.0), f=st.floats(0.0, 300.0))
def test_converged_answers_match_the_climb_on_drawn_inputs(seed, where, f):
    # any converged answer is the loading branch's least fixed point wherever
    # the climb settles within its budget; theta is drawn as a fraction of
    # the config's knee range
    config = random_config(np.random.default_rng(seed))
    theta = config.theta_min + where * (config.theta_max - config.theta_min)
    res = solve_equilibrium(config, theta, f)
    reference = _climb(config, theta, f, 20_000) if res.converged else None
    if reference is not None:
        assert res.chain.deflection == pytest.approx(reference, rel=0.0, abs=1e-9)


def test_no_negative_zero_deflection(default_config):
    # a -0.0 would print as -0 in CSV output
    for theta, f in _criterion_7_inputs(default_config, 1000):
        res = solve_equilibrium(default_config, theta, f)
        assert all(math.copysign(1.0, x) > 0.0 for x in res.chain.deflection)


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
        point = load.evaluate(d)
        full = load.derivative(point, list(range(6)))
        for j in range(6):
            up, dn = list(d), list(d)
            up[j] += h
            dn[j] -= h
            a_up = load.evaluate(up)[0]
            a_dn = load.evaluate(dn)[0]
            column = [(p - q) / (2.0 * h) for p, q in zip(a_up, a_dn)]
            tol = 1e-6 * max(abs(x) for x in column)
            for i in range(6):
                assert full[i][j] == pytest.approx(column[i], rel=0.0, abs=tol)
            assert load.slope(point, j) == full[j][j]  # bit for bit
        for i in range(6):
            for j in range(i + 1, 6):  # bit for bit
                assert load.pair(point, i, j) == (full[i][i], full[i][j], full[j][i], full[j][j])
        picked = rng.choice(6, size=int(rng.integers(1, 6)), replace=False)
        active = sorted(int(i) for i in picked)
        sub = load.derivative(point, active)
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
    k, a0 = per_joint_stiffness(cfg), cfg.alpha_preload

    def energy(d):  # spring energy above the closed state
        return sum(0.5 * k * ((a0 + dk) ** 2 - a0 * a0) for dk in d)

    de = (energy(hi.chain.deflection) - energy(lo.chain.deflection)) / (2.0 * h)
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
    cfg = dataclasses.replace(reduced_chain(3), joint_open_limit=(0.5, 0.5, 0.5))
    with pytest.raises(GridSizeError):
        brute_force_equilibrium(cfg, THETA_88, 10.0, 1e-6)


def test_brute_force_rejects_a_step_too_fine_for_an_int():
    with pytest.raises(GridSizeError, match="inf nodes"):
        brute_force_equilibrium(reduced_chain(1), THETA_88, 10.0, 5e-324)


def test_brute_force_checks_the_budget_before_building_an_axis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("grid axis built before the node budget check")

    # one 0.05 rad axis at 1e-10 would hold 5e8 nodes, 4 GB of float64
    monkeypatch.setattr(np, "arange", refuse)
    with pytest.raises(GridSizeError, match="500000001 nodes"):
        brute_force_equilibrium(reduced_chain(1), THETA_88, 10.0, 1e-10)


@pytest.mark.parametrize("grid_step", [0.0, -1e-3, math.nan])
def test_brute_force_rejects_a_grid_step_that_is_not_positive(grid_step):
    with pytest.raises(ValueError, match=f"grid_step must be positive, got {grid_step}"):
        brute_force_equilibrium(reduced_chain(1), THETA_88, 10.0, grid_step)


@pytest.mark.parametrize("f_cyl", [-1.0, math.nan, math.inf])
def test_brute_force_rejects_bad_force(f_cyl):
    with pytest.raises(ValueError, match="f_cyl"):
        brute_force_equilibrium(reduced_chain(1), THETA_88, f_cyl, 1e-3)


@pytest.mark.parametrize("theta", [math.nan, math.radians(-170.0)], ids=["nan", "-170deg"])
def test_brute_force_rejects_bad_theta(theta):
    with pytest.raises(ValueError, match="theta"):
        brute_force_equilibrium(reduced_chain(1), theta, 10.0, 1e-3)


def test_load_map_takes_the_bearing_off_the_config(default_config, monkeypatch):
    calls = count_calls(monkeypatch, chain, "_geometry")
    equilibrium._LoadMap(default_config, THETA_88, 33.0)
    assert calls[0] == 0


def test_brute_force_rejects_a_full_chain_grid_over_budget(default_config):
    # six 0.131 rad axes at 1e-3 would hold 132**6, about 5e12 nodes
    with pytest.raises(GridSizeError):
        brute_force_equilibrium(default_config, THETA_88, 10.0, 1e-3)


@pytest.mark.parametrize("f_cyl", [26.4, 30.0])
def test_brute_force_lies_within_a_step_above_the_solver(f_cyl):
    """The meet of the grid's super-solutions bounds the solve from above, within one step.

    So the gap shrinks with the step: 8.5e-5 and 5.8e-5 rad at 1e-4.
    """
    cfg = reduced_chain(2)
    direct = solve_equilibrium(cfg, THETA_88, f_cyl)
    assert direct.converged
    for step in (2e-3, 1e-3, 5e-4, 2.5e-4, 1e-4):
        grid = brute_force_equilibrium(cfg, THETA_88, f_cyl, step)
        for d, u in zip(direct.chain.deflection, grid.chain.deflection):
            assert -1e-9 <= u - d <= step


@pytest.mark.parametrize("theta_deg, f_cyl", [(-88.0, 30.0), (-88.0, 60.0), (-120.0, 45.0),
                                              (-60.0, 40.0)])
def test_brute_force_covers_the_six_joint_chain(default_config, theta_deg, f_cyl):
    # 9 nodes per axis, 531,441 in all; the gaps measure 0 to 1.18 steps
    step = default_config.joint_open_limit[0] / 8
    theta = math.radians(theta_deg)
    direct = solve_equilibrium(default_config, theta, f_cyl)
    grid = brute_force_equilibrium(default_config, theta, f_cyl, step)
    assert direct.converged
    for d, u in zip(direct.chain.deflection, grid.chain.deflection):
        assert -1e-9 <= u - d <= 1.5 * step


def test_vectorized_load_map_matches_scalar(default_config):
    """The oracle's array load map agrees with the solver's float one row by row."""
    rng = np.random.default_rng(4)
    d_matrix = np.column_stack([
        rng.uniform(0.0, lim, 64) for lim in default_config.joint_open_limit
    ])
    load = equilibrium._LoadMap(default_config, THETA_88, 33.0)
    vec, l4s, jacs = oracle.load_torques(default_config, THETA_88, 33.0, d_matrix.T)
    assert vec.shape == (6, 64)
    for i, d in enumerate(d_matrix):
        scalar, l4, jac = load.evaluate(tuple(float(x) for x in d))[:3]
        assert_ulps(vec[:, i], scalar)
        assert_ulps([l4s[i]], [l4])
        assert_ulps([jacs[i]], [jac])


def test_vectorized_jacobian_matches_scalar(default_config):
    """The oracle's closure kernel broadcasts over knee angle and lever length."""
    thetas = np.linspace(default_config.theta_min, default_config.theta_max, 7)
    l4s = np.linspace(chain.closed_lever(default_config),
                      chain.open_lever(default_config), 50)
    vec = oracle.closure_kernel(default_config, thetas[:, None], l4s[None, :])[3]
    assert vec.shape == (7, 50)
    for i, theta in enumerate(thetas):
        for l4, jv in zip(l4s, vec[i]):
            assert_ulps([jv], [linkage.jacobian(default_config, float(theta), float(l4))])


def test_zero_travel_config_solves_above_the_trigger(base_config):
    # calibrating to a zero ratio step sets every travel limit to zero: a
    # rigid chain that stays closed whatever the force
    cfg = analysis.calibrate(base_config, 20.0, 0.0, THETA_88)
    assert cfg.joint_open_limit == (0.0,) * 6
    for f in (25.0, 100.0):
        res = solve_equilibrium(cfg, THETA_88, f)
        assert res.converged and res.residual == 0.0
        assert res.chain.deflection == (0.0,) * 6
