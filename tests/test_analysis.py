import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from lbvt import analysis, chain, equilibrium, linkage
from lbvt.model import CalibrationError, GeometryError, MechanismConfig, SweepTable

from conftest import THETA_88, _FOURBAR, _with_bearing, count_calls, random_config, refusal


# ---------- sampling ----------

def test_ladder_exact_steps():
    xs = analysis.sample_ladder(0.0, 50.0, 0.5)
    assert len(xs) == 101
    assert xs[0] == 0.0 and xs[-1] == 50.0


def test_ladder_snaps_close_endpoint():
    xs = analysis.sample_ladder(-141.0, -39.5, 10.0)
    assert len(xs) == 11
    assert xs[-1] == -39.5 and xs[-2] == -51.0
    # an end between 0.4 and 0.5 step past the last sample still snaps
    assert analysis.sample_ladder(0.0, 1.45, 1.0) == [0.0, 1.45]


def test_ladder_appends_far_endpoint():
    xs = analysis.sample_ladder(0.0, 10.7, 1.0)
    assert xs[-1] == 10.7 and xs[-2] == 10.0 and len(xs) == 12


def test_ladder_degenerate_cases():
    assert analysis.sample_ladder(3.0, 3.0, 1.0) == [3.0]
    assert analysis.sample_ladder(0.0, 0.8, 1.0) == [0.0]
    with pytest.raises(ValueError):
        analysis.sample_ladder(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        analysis.sample_ladder(1.0, 0.0, 0.5)


@pytest.mark.parametrize("step, samples", [(1e-4, "2000001"), (5e-324, "inf")])
def test_ladder_rejects_too_many_samples(step, samples):
    with pytest.raises(ValueError, match=f"asks for {samples} samples"):
        analysis.sample_ladder(0.0, 200.0, step)


def test_ladder_rejects_a_step_below_the_float_spacing():
    # 100 + 1e-14 and 100 + 2e-14 both round to 100.00000000000001
    with pytest.raises(ValueError, match="step 1e-14 does not advance the range"):
        analysis.sample_ladder(100.0, 100.00000000000003, 1e-14)


# ---------- angle sweep ----------

def test_angle_sweep_zero_force_is_flat(default_config):
    table = analysis.sweep_torque_vs_angle(
        default_config, 0.0, default_config.theta_min, default_config.theta_max,
        math.radians(25.0))
    assert all(v == 0.0 for v in table.column("torque_lbvt (Nm)"))
    assert all(v == 0.0 for v in table.column("torque_rigid (Nm)"))


def test_angle_sweep_single_record_when_step_exceeds_range(default_config):
    table = analysis.sweep_torque_vs_angle(
        default_config, 50.0, THETA_88, THETA_88 + math.radians(5.0),
        math.radians(30.0))
    assert len(table) == 1


@pytest.mark.parametrize("sweep", [
    "sweep_torque_vs_angle", "sweep_trigger", "sweep_torque_vs_force", "sweep_ratio_vs_force",
])
def test_sweep_flags_infeasible_samples(default_config, sweep, monkeypatch):
    # a valid config's samples all solve, so the failures are forged: every
    # other solve raises GeometryError, the rest end unconverged
    solve = equilibrium.solve_equilibrium
    starts = []

    def failing(config, theta, f_cyl, *, start=None):
        starts.append(start)
        if len(starts) % 2:
            raise GeometryError("closure fails")
        return dataclasses.replace(solve(config, theta, f_cyl), converged=False)

    monkeypatch.setattr(equilibrium, "solve_equilibrium", failing)
    config = default_config
    if sweep == "sweep_torque_vs_angle":
        table = analysis.sweep_torque_vs_angle(
            config, 50.0, config.theta_min, config.theta_max, math.radians(20.0))
    else:
        table = getattr(analysis, sweep)(config, THETA_88, 0.0, 50.0, 10.0)
    assert len(table) == 6
    assert starts == [None] * 6  # no row converged, so none carries a start
    assert all(f == 0.0 for f in table.column("feasible (-)"))
    assert all(c == "-" for c in table.column("regimes (-)"))
    assert all(math.isnan(v) for row in table.rows for v in row[1:-2])


def test_angle_sweep_shape_at_165(default_config):
    table = analysis.sweep_torque_vs_angle(
        default_config, 165.0, default_config.theta_min, default_config.theta_max,
        math.radians(10.0))
    assert len(table) == 11
    thetas = table.column("theta (deg)")
    lbvt = table.column("torque_lbvt (Nm)")
    rigid = table.column("torque_rigid (Nm)")
    for th, tl, tr in zip(thetas, lbvt, rigid):
        if th <= -55.0:
            assert tl >= tr - 1e-12
    peak_theta = thetas[max(range(len(thetas)), key=lambda i: lbvt[i])]
    nearest = min(thetas, key=lambda t: abs(t - (-88.0)))
    assert peak_theta == nearest


# ---------- trigger sweep ----------

def test_trigger_sweep_without_preload_moves_immediately(default_config):
    cfg = dataclasses.replace(default_config, alpha_preload=0.0)
    table = analysis.sweep_trigger(cfg, THETA_88, 0.0, 5.0, 0.5)
    diam = table.column("diameter (m)")
    assert diam[1] > diam[0]


def test_trigger_sweep_subthreshold_plateau(default_config):
    trigger = equilibrium.triggering_force(default_config, THETA_88)
    table = analysis.sweep_trigger(default_config, THETA_88, 0.0,
                                   0.9 * trigger, 0.5)
    diam = table.column("diameter (m)")
    assert max(diam) == min(diam)


# ---------- force sweep ----------

def test_force_sweep_baseline_linear(default_config):
    table = analysis.sweep_torque_vs_force(default_config, THETA_88, 0.5, 120.0, 2.5)
    forces = table.column("f_cyl (N)")
    rigid = table.column("torque_rigid (Nm)")
    ratios = [t / f for t, f in zip(rigid, forces)]
    for r in ratios:
        assert r == pytest.approx(ratios[0], rel=1e-12)


def test_force_sweep_amplifies_above_threshold(default_config):
    table = analysis.sweep_torque_vs_force(default_config, THETA_88, 0.0, 165.0, 5.0)
    forces = table.column("f_cyl (N)")
    lbvt = table.column("torque_lbvt (Nm)")
    rigid = table.column("torque_rigid (Nm)")
    trigger = equilibrium.triggering_force(default_config, THETA_88)
    for f, tl, tr in zip(forces, lbvt, rigid):
        if f < trigger:
            assert tl == pytest.approx(tr, abs=1e-12)
    assert lbvt[-1] > rigid[-1]


def test_force_sweep_single_record(default_config):
    table = analysis.sweep_torque_vs_force(default_config, THETA_88, 30.0, 30.0, 1.0)
    assert len(table) == 1


def _fail_every_solve(monkeypatch, config):
    """From here on, every solve returns a real -88 deg state marked unconverged."""
    failed = dataclasses.replace(
        equilibrium.solve_equilibrium(config, THETA_88, 165.0), converged=False)
    monkeypatch.setattr(equilibrium, "solve_equilibrium", lambda *args, **kwargs: failed)


def test_force_sweep_flags_unconverged_solve(default_config, monkeypatch):
    # the row of an unconverged solve must not read as feasible
    _fail_every_solve(monkeypatch, default_config)
    table = analysis.sweep_torque_vs_force(default_config, THETA_88, 1e6, 1e6, 1.0)
    (row,) = table.rows
    assert row[0] == 1e6
    assert math.isnan(table.column("torque_lbvt (Nm)")[0])
    assert table.column("regimes (-)") == ("-",)
    assert table.column("feasible (-)") == (0.0,)


def test_failed_angle_sample_computes_no_row_value(default_config, monkeypatch):
    # the failure rule comes before the row values, so an unconverged sample
    # pays for no rigid-baseline jacobian
    _fail_every_solve(monkeypatch, default_config)
    calls = count_calls(monkeypatch, linkage, "jacobian")
    table = analysis.sweep_torque_vs_angle(default_config, 165.0, default_config.theta_min,
                                           default_config.theta_max, math.radians(10.0))
    assert len(table) == 11
    assert table.column("feasible (-)") == (0.0,) * 11
    assert all(math.isnan(v) for row in table.rows for v in row[1:-2])
    assert calls[0] == 0


# ---------- warm start ----------

STUDY_ANGLES = (-130.0, -110.0, -88.0, -65.0, -45.0)


def test_warm_sweep_rows_equal_cold_solves(default_config, monkeypatch):
    # each sample starts from the previous row's state, yet lands where a
    # solve from the closed state lands
    cold = equilibrium.solve_equilibrium
    warm = []

    def recording(config, theta, f_cyl, **kwargs):
        res = cold(config, theta, f_cyl, **kwargs)
        warm.append((theta, f_cyl, kwargs.get("start"), res))
        return res

    monkeypatch.setattr(equilibrium, "solve_equilibrium", recording)
    for angle in STUDY_ANGLES:
        analysis.sweep_ratio_vs_force(default_config, math.radians(angle), 0.0, 200.0, 2.0)
    assert len(warm) == 5 * 101
    assert sum(start is not None for _, _, start, _ in warm) == 5 * 100
    for theta, f, _, res in warm:
        ref = cold(default_config, theta, f)
        assert res.converged and ref.converged
        assert res.chain.regime == ref.chain.regime
        got = (res.kfe_torque, res.transmission_ratio, res.chain.l4) + res.chain.deflection
        want = (ref.kfe_torque, ref.transmission_ratio, ref.chain.l4) + ref.chain.deflection
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)


def test_warm_angle_sweep_rows_equal_cold_solves(default_config, monkeypatch):
    # each angle sample starts from the previous row's point, its jacobian
    # taken again at the new angle, yet lands where a solve from the closed
    # state lands
    cold = equilibrium.solve_equilibrium
    warm = []

    def recording(config, theta, f_cyl, **kwargs):
        res = cold(config, theta, f_cyl, **kwargs)
        warm.append((theta, f_cyl, kwargs.get("start"), res))
        return res

    monkeypatch.setattr(equilibrium, "solve_equilibrium", recording)
    for f in (30.0, 60.0, 165.0):
        analysis.sweep_torque_vs_angle(default_config, f, default_config.theta_min,
                                       default_config.theta_max, math.radians(1.0))
    assert len(warm) == 3 * 103
    assert sum(start is not None for _, _, start, _ in warm) == 3 * 102
    for theta, f, _, res in warm:
        ref = cold(default_config, theta, f)
        assert res.converged and ref.converged
        assert res.chain.regime == ref.chain.regime
        got = (res.kfe_torque, res.transmission_ratio, res.chain.l4) + res.chain.deflection
        want = (ref.kfe_torque, ref.transmission_ratio, ref.chain.l4) + ref.chain.deflection
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("kind", ["force", "angle"])
def test_warm_sweeps_agree_with_cold_solves_on_random_configs(monkeypatch, kind):
    # a sweep sample starts from the last converged row; on perturbed configs
    # it must land where a solve from the closed state lands, within 1e-9 rad,
    # and converge wherever that solve does. 8 configs, a 61-point force sweep
    # (0 to 300 N) at one angle or a 41-point angle sweep at one force each.
    # When measured, 367 of the 488 force samples converged both ways (121
    # neither) and 327 of the 328 angle samples (1 warm only); warm and cold
    # answers differed by at most 7.7e-13 rad
    cold = equilibrium.solve_equilibrium
    warm = []

    def recording(config, theta, f_cyl, **kwargs):
        res = cold(config, theta, f_cyl, **kwargs)
        warm.append((config, theta, f_cyl, res))
        return res

    monkeypatch.setattr(equilibrium, "solve_equilibrium", recording)
    rng = np.random.default_rng(1515 if kind == "force" else 1616)
    for _ in range(8):
        config = random_config(rng)
        if kind == "force":
            theta = float(rng.uniform(config.theta_min, config.theta_max))
            analysis.sweep_trigger(config, theta, 0.0, 300.0, 5.0)
        else:
            f = float(rng.uniform(0.0, 300.0))
            analysis.sweep_torque_vs_angle(config, f, config.theta_min, config.theta_max,
                                           (config.theta_max - config.theta_min) / 40.0)
    assert len(warm) == 8 * (61 if kind == "force" else 41)
    for config, theta, f, res in warm:
        ref = cold(config, theta, f)
        if ref.converged:
            assert res.converged, (theta, f)
            assert res.chain.deflection == pytest.approx(ref.chain.deflection, rel=0.0, abs=1e-9)


def test_base_config_ratio_sweep_has_no_failed_rows(base_config):
    # cold solves stall on 119 of these 401 samples
    table = analysis.sweep_ratio_vs_force(base_config, THETA_88, 0.0, 400.0, 1.0)
    assert len(table) == 401
    assert table.column("feasible (-)") == (1.0,) * 401


def test_ratio_sweep_load_evaluations(default_config, monkeypatch):
    # 651 measured (665 while a joint pinned at a bound stayed in the Newton
    # step, 1,065 while each sample evaluated its start again); a cold solve
    # per sample takes 4,517 (6,022 with that joint in the step)
    calls = count_calls(monkeypatch, equilibrium._LoadMap, "evaluate")
    table = analysis.sweep_ratio_vs_force(default_config, THETA_88, 0.0, 200.0, 0.5)
    assert len(table) == 401
    assert calls[0] <= 651


def test_failed_row_keeps_the_carried_state(default_config, monkeypatch):
    solve = equilibrium.solve_equilibrium
    starts = []

    def flaky(config, theta, f_cyl, *, start=None):
        starts.append(start)
        if f_cyl == 60.0:
            raise GeometryError("closure fails")
        res = solve(config, theta, f_cyl, start=start)
        return dataclasses.replace(res, converged=False) if f_cyl == 90.0 else res

    monkeypatch.setattr(equilibrium, "solve_equilibrium", flaky)
    table = analysis.sweep_ratio_vs_force(default_config, THETA_88, 0.0, 120.0, 30.0)
    assert table.column("feasible (-)") == (1.0, 1.0, 0.0, 0.0, 1.0)
    assert starts[0] is None
    assert starts[2] is starts[3] is starts[4]
    assert starts[2].deflection == solve(default_config, THETA_88, 30.0).chain.deflection


# ---------- ratio sweep ----------

def test_ratio_matches_closed_jacobian_below_threshold(default_config):
    j_closed = linkage.jacobian(default_config, THETA_88,
                                chain.closed_lever(default_config))
    table = analysis.sweep_ratio_vs_force(default_config, THETA_88, 0.0, 15.0, 2.5)
    for r in table.column("ratio (m)"):
        assert abs(r - j_closed) < 1e-9
    for r in table.column("ratio_rigid (m)"):
        assert r == j_closed


def test_ratio_step_meets_design_target(default_config):
    table = analysis.sweep_ratio_vs_force(default_config, THETA_88, 0.0, 200.0, 2.0)
    step = analysis.ratio_step_from_sweep(table)
    assert step == pytest.approx(0.40, abs=0.05)
    direct = analysis.ratio_step_direct(default_config, THETA_88)
    assert abs(step - direct) < 1e-9


def test_ratio_step_requires_saturation(default_config):
    table = analysis.sweep_ratio_vs_force(default_config, THETA_88, 0.0, 30.0, 5.0)
    with pytest.raises(ValueError, match="saturated"):
        analysis.ratio_step_from_sweep(table)


def test_ratio_step_requires_a_closed_record(default_config):
    # every joint holds closed only below the 20 N trigger
    table = analysis.sweep_ratio_vs_force(default_config, THETA_88, 25.0, 200.0, 25.0)
    with pytest.raises(ValueError, match="no fully-closed record"):
        analysis.ratio_step_from_sweep(table)


def test_ratio_step_skips_infeasible_rows(default_config, monkeypatch):
    table = analysis.sweep_ratio_vs_force(default_config, THETA_88, 0.0, 200.0, 2.0)
    _fail_every_solve(monkeypatch, default_config)
    (failed,) = analysis.sweep_ratio_vs_force(default_config, THETA_88, 1e6, 1e6, 1.0).rows
    assert math.isnan(failed[1]) and failed[-2:] == ("-", 0.0)
    # flag the first closed and the first saturated record as failed samples
    first_saturated = table.column("regimes (-)").index("EEEEEE")
    rows = [(r[0],) + failed[1:] if i in (0, first_saturated) else r
            for i, r in enumerate(table.rows)]
    step = analysis.ratio_step_from_sweep(SweepTable(columns=table.columns, rows=rows))
    assert abs(step - analysis.ratio_step_direct(default_config, THETA_88)) < 1e-9


# ---------- calibrate ----------

def test_calibrate_reproduces_shipped_default(base_config, default_config):
    cal = analysis.calibrate(base_config, 20.0, 0.40, THETA_88)
    assert equilibrium.triggering_force(cal, THETA_88) == pytest.approx(20.0, abs=0.05)
    assert analysis.ratio_step_direct(cal, THETA_88) == pytest.approx(0.40, abs=0.005)
    assert cal == default_config


def test_calibrate_evaluates_the_closed_chain_once(base_config, monkeypatch):
    calls = count_calls(monkeypatch, equilibrium._LoadMap, "evaluate")
    analysis.calibrate(base_config, 20.0, 0.40, THETA_88)
    assert calls[0] == 1


def test_calibrate_takes_one_jacobian(base_config, monkeypatch):
    # the closed one; each trial travel scale is one chain pass and one kernel call
    calls = count_calls(monkeypatch, linkage, "jacobian")
    analysis.calibrate(base_config, 20.0, 0.40, THETA_88)
    assert calls[0] == 1


def test_ratio_step_direct_runs_no_chain_pass(default_config, monkeypatch):
    calls = count_calls(monkeypatch, chain, "_geometry")
    analysis.ratio_step_direct(default_config, THETA_88)
    assert calls[0] == 0


# SHA-256 of the configs in test_calibration_matches_the_pinned_digest,
# recorded on x86-64 Linux with CPython 3.11. A change that is meant to keep
# every calibration bit for bit must leave it as it is.
CALIBRATE_DIGEST = "0151314888e98b285540b5744898d48138a48796ca58410b848f79a7dc003465"


def test_calibration_matches_the_pinned_digest(base_config):
    # 200 seeded targets in design_loop's ranges
    rng = np.random.default_rng(2030)
    digest = hashlib.sha256()
    for _ in range(200):
        trigger = float(rng.uniform(10.0, 30.0))
        ratio_step = float(rng.uniform(0.20, 0.40))
        theta = math.radians(float(rng.uniform(-130.0, -50.0)))
        digest.update(repr(analysis.calibrate(base_config, trigger, ratio_step, theta)).encode())
    assert digest.hexdigest() == CALIBRATE_DIGEST


def test_calibrate_builds_one_config(base_config, monkeypatch):
    calls = count_calls(monkeypatch, MechanismConfig, "__post_init__")
    analysis.calibrate(base_config, 20.0, 0.40, THETA_88)
    assert calls[0] == 1


@pytest.mark.parametrize("update, message", [
    (dict(k_spring=math.nan), "k_spring must be finite, got nan"),
    (dict(k_spring=0.0), "k_spring must be strictly positive, got 0.0"),
    (dict(springs_per_joint=0), "springs_per_joint must be at least 1, got 0"),
    (dict(joint_open_limit=(-0.279,) + (0.279,) * 5),
     "joint_open_limit[0] must be non-negative, got -0.279"),
], ids=["nan_k_spring", "zero_k_spring", "no_springs", "negative_limit"])
def test_an_invalid_config_to_calibrate_is_not_built(base_config, update, message):
    # so calibrate is never given one
    assert refusal(base_config, **update) == [message]


def test_calibrate_reads_the_bearing_off_the_config(base_config, monkeypatch):
    # __post_init__ is the only place a bearing is computed: once, for the result
    calls = count_calls(monkeypatch, MechanismConfig, "__post_init__")
    analysis.calibrate(base_config, 20.0, 0.40, THETA_88)
    assert calls[0] == 1


def test_angle_sweep_reads_the_bearing_off_the_config(default_config, monkeypatch):
    calls = count_calls(monkeypatch, MechanismConfig, "__post_init__")
    table = analysis.sweep_torque_vs_angle(default_config, 165.0, default_config.theta_min,
                                           default_config.theta_max, math.radians(1.0))
    assert len(table) == 103
    assert calls[0] == 0


@pytest.mark.parametrize("theta_deg", [-130.0, -88.0, -45.0])
def test_ratio_step_direct_matches_the_public_jacobian(default_config, theta_deg):
    theta = math.radians(theta_deg)
    closed = linkage.jacobian(default_config, theta, chain.closed_lever(default_config))
    opened = linkage.jacobian(default_config, theta, chain.open_lever(default_config))
    assert analysis.ratio_step_direct(default_config, theta) == opened / closed - 1.0


# design_loop's target ranges
@seed(0)
@settings(max_examples=50, derandomize=False, deadline=None, database=None)
@given(
    trigger=st.floats(10.0, 30.0),
    ratio_step=st.floats(0.20, 0.40),
    theta_deg=st.floats(-130.0, -50.0),
)
def test_calibrate_meets_targets_over_the_design_range(
        base_config, trigger, ratio_step, theta_deg):
    theta = math.radians(theta_deg)
    cal = analysis.calibrate(base_config, trigger, ratio_step, theta)
    assert abs(equilibrium.triggering_force(cal, theta) - trigger) <= analysis.TRIGGER_TOL
    assert abs(analysis.ratio_step_direct(cal, theta) - ratio_step) <= analysis.RATIO_STEP_TOL


def test_calibrate_is_a_fixed_point(default_config):
    again = analysis.calibrate(default_config, 20.0, 0.40, THETA_88)
    assert equilibrium.triggering_force(again, THETA_88) == pytest.approx(20.0, abs=0.05)
    assert abs(again.alpha_preload - default_config.alpha_preload) < 5e-3
    assert abs(again.joint_open_limit[0] - default_config.joint_open_limit[0]) < 5e-3


def test_calibrate_zero_targets(base_config):
    cal = analysis.calibrate(base_config, 0.0, 0.0, THETA_88)
    assert cal.alpha_preload == 0.0
    assert cal.joint_open_limit == (0.0,) * 6


def test_calibrate_unreachable_targets_report_bracket(base_config):
    with pytest.raises(CalibrationError, match="unreachable"):
        analysis.calibrate(base_config, 20.0, 5.0, THETA_88)


def test_calibrate_unreachable_trigger_reports_the_last_preload(base_config):
    # the preload doublings stop at one turn, 2*pi rad, far short of 1e30 N
    with pytest.raises(CalibrationError,
                       match=r"^trigger target 1e\+30 N unreachable: preload \S+ rad yields only"):
        analysis.calibrate(base_config, 1e30, 0.40, THETA_88)


def test_bisection_that_does_not_settle_reports_its_bracket():
    # a jump across the target: no midpoint lands within tol of it
    def jump(x):
        return 0.0 if x < 0.5 else 1.0

    with pytest.raises(CalibrationError, match=r"^unsettled within 0\.1: \[0\.4999\d*, 0\.5\]$"):
        analysis._bisect(jump, 0.5, 1.0, 0.1, "unsettled within {tol}: [{lo}, {hi}]")


def test_calibrate_rejects_a_preload_past_one_turn(base_config):
    # the target takes a preload of about 4.7e17 rad; the search stops at one turn
    with pytest.raises(CalibrationError,
                       match=r"^trigger target 1e\+20 N unreachable: "
                             r"preload 6\.283185307179586 rad"):
        analysis.calibrate(base_config, 1e20, 0.40, THETA_88)


@pytest.mark.parametrize("name, target", [("default", 5000.0), ("base", 2000.0)])
def test_calibrate_tries_no_preload_past_one_turn(request, name, target):
    # one turn of preload triggers at 1339.206 N at -88 deg; a target above it
    # is unreachable, where a doubling past one turn once bisected to a
    # preload that validation then rejected (23.46 rad for 5000 N)
    config = request.getfixturevalue(f"{name}_config")
    with pytest.raises(CalibrationError) as raised:
        analysis.calibrate(config, target, 0.40, THETA_88)
    assert str(raised.value) == (f"trigger target {target} N unreachable: "
                                 "preload 6.283185307179586 rad yields only 1339.206 N")


def test_calibrated_output_validates(base_config):
    cal = analysis.calibrate(base_config, 12.0, 0.25, THETA_88)
    assert equilibrium.triggering_force(cal, THETA_88) == pytest.approx(12.0, abs=0.05)
    assert analysis.ratio_step_direct(cal, THETA_88) == pytest.approx(0.25, abs=0.005)


def test_calibrate_refuses_a_result_that_fails_validation():
    # one joint whose segment turns through the anchor ray at half travel:
    # the lever is longest there, past both end levers that bound the input
    # config's closure check. The first travel scale the ratio-step search
    # tries, 0.5, meets the target, and at theta_min the coupler no longer
    # reaches that lever.
    config = _with_bearing(-5.0, segments=(0.05,), phi=(-0.15,), joint_open_limit=(0.3,),
                           alpha_preload=0.1, **{**_FOURBAR, "l3": 0.2319})
    with pytest.raises(CalibrationError) as exc:
        analysis.calibrate(config, 0.0, 0.003, THETA_88)
    assert str(exc.value) == (
        "calibrated config failed validation: four-bar closure fails with the fully open "
        "lever: closure infeasible at theta=-141.000 deg, l4=0.09500 m: pivot span 0.33302 m "
        "exceeds l2 + l3 = 0.33290 m")


# ---------- emitters ----------

def _small_table():
    return SweepTable(
        columns=("f_cyl (N)", "l4 (m)", "regimes (-)"),
        rows=[(0.0, 0.0654, "CCC"), (10.0, 0.0701, "AAC"), (20.0, 0.0928, "EEE")],
    )


def test_csv_line_count(tmp_path):
    out = tmp_path / "t.csv"
    analysis.emit_csv(_small_table(), out)
    assert out.read_bytes().count(b"\n") == 4
    assert out.read_text().splitlines()[0] == "f_cyl (N),l4 (m),regimes (-)"


def test_csv_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    n1 = analysis.emit_csv(_small_table(), a)
    n2 = analysis.emit_csv(_small_table(), b)
    assert n1 == n2
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip(default_config, tmp_path):
    table = analysis.sweep_trigger(default_config, THETA_88, 0.0, 30.0, 5.0)
    out = tmp_path / "sweep.csv"
    analysis.emit_csv(table, out)
    back = analysis.read_csv(out)
    assert back.columns == table.columns
    for ra, rb in zip(table.rows, back.rows):
        for va, vb in zip(ra, rb):
            if isinstance(va, str):
                assert va == vb
            else:
                assert float(vb) == pytest.approx(va, rel=1e-8, abs=1e-12)


def test_csv_round_trips_string_cells_that_need_quoting(tmp_path):
    table = SweepTable(columns=("x (s)", "note (-)"),
                       rows=[(1.0, "a,b"), (2.0, 'say "hi"'), (3.0, "two\nlines")])
    out = tmp_path / "quoted.csv"
    analysis.emit_csv(table, out)
    assert out.read_bytes() == b'x (s),note (-)\n1,"a,b"\n2,"say ""hi"""\n3,"two\nlines"\n'
    assert analysis.read_csv(out) == table


def test_csv_abscissae_a_few_ulps_apart_read_back_increasing(tmp_path):
    # to 9 digits these forces all read 100, which read_csv rejected; they
    # take the fewest digits that tell them apart, and the values keep 9
    xs = [100.0, math.nextafter(100.0, 200.0), 100.00000000000003]
    table = SweepTable(columns=("f_cyl (N)", "ratio (m)"), rows=[(x, 0.06473175174) for x in xs])
    out = tmp_path / "ulps.csv"
    analysis.emit_csv(table, out)
    assert out.read_text().splitlines()[1:] == [
        "100,0.0647317517", "100.00000000000001,0.0647317517", "100.00000000000003,0.0647317517"]
    assert analysis.read_csv(out).column("f_cyl (N)") == tuple(xs)


def test_csv_rejects_empty_table(tmp_path):
    with pytest.raises(ValueError):
        analysis.emit_csv(SweepTable(columns=("x (s)",)), tmp_path / "no.csv")


def test_csv_write_failure_names_destination(tmp_path):
    dest = tmp_path / "missing" / "t.csv"
    with pytest.raises(OSError, match="t.csv"):
        analysis.emit_csv(_small_table(), dest)


def test_svg_single_series_single_polyline(tmp_path):
    out = tmp_path / "p.svg"
    analysis.emit_svg_plot(_small_table(), ["l4 (m)"], out)
    text = out.read_text()
    assert text.count("<polyline") == 1
    assert text.startswith('<?xml version="1.0"')
    assert "</svg>" in text


def test_svg_is_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    analysis.emit_svg_plot(_small_table(), ["l4 (m)"], a)
    analysis.emit_svg_plot(_small_table(), ["l4 (m)"], b)
    assert a.read_bytes() == b.read_bytes()


def test_svg_unknown_column_lists_available(tmp_path):
    with pytest.raises(KeyError, match="l4 \\(m\\)"):
        analysis.emit_svg_plot(_small_table(), ["nope"], tmp_path / "x.svg")


def test_svg_needs_two_records(tmp_path):
    table = SweepTable(columns=("x (s)", "y (m)"), rows=[(0.0, 1.0)])
    with pytest.raises(ValueError):
        analysis.emit_svg_plot(table, ["y (m)"], tmp_path / "x.svg")


def test_svg_pads_an_axis_with_one_finite_value(tmp_path):
    # the infinite abscissa is skipped, so x spans one value and y one value:
    # both axes are padded about it, which puts the point mid-plot
    table = SweepTable(columns=("x (s)", "y (m)"), rows=[(1.0, 5.0), (math.inf, 5.0)])
    out = tmp_path / "x.svg"
    analysis.emit_svg_plot(table, ["y (m)"], out)
    assert '<polyline points="388.00,224.00" ' in out.read_text()


@pytest.mark.parametrize("xs, ys, message", [
    ((0.0, 1.0), (-1e308, 1e308), r"y axis spanning \[-1e\+308, 1e\+308\]"),
    ((0.0, 1.0), (1.7e308, 1.7e308), r"y axis spanning \[1.7e\+308, 1.7e\+308\]"),
    ((-1e308, 1e308), (0.0, 1.0), r"x axis spanning \[-1e\+308, 1e\+308\]"),
], ids=["y-span", "y-margin", "x-span"])
def test_svg_rejects_an_axis_too_wide_for_a_float(tmp_path, xs, ys, message):
    # the width, or the margin about a constant column, overflows to inf
    table = SweepTable(columns=("x (s)", "y (m)"), rows=list(zip(xs, ys)))
    out = tmp_path / "w.svg"
    with pytest.raises(ValueError, match=message + ": the axis width overflows a float"):
        analysis.emit_svg_plot(table, ["y (m)"], out)
    assert not out.exists()


def test_tick_labels_take_the_fewest_digits_that_tell_them_apart():
    assert analysis._labels([0.5, 1.0, 1.5]) == ["0.5", "1", "1.5"]
    assert analysis._labels([1.0, 1.0000001, 1.0000002]) == ["1", "1.0000001", "1.0000002"]
    ulps = [100.0, 100.00000000000001]
    assert analysis._labels(ulps) == ["100", "100.00000000000001"]


@pytest.mark.parametrize("hi", [5e-324, 2.5e-323])
def test_ticks_on_a_subnormal_span(hi):
    # span / 5 underflows to 0 at 5e-324, and the 1-2-5 step 10**-324 at 2.5e-323
    assert analysis._nice_ticks(0.0, hi) == [0.0, hi]


def test_ticks_across_a_few_ulps_are_distinct_and_inside_the_axis():
    # multiples of the 1e-14 step round to 100.00000000000001 three times and
    # the last one lands past the axis end
    assert analysis._nice_ticks(100.0, 100.00000000000003) == [100.0, 100.00000000000001]


def test_trigger_plot_renders_plateau(default_config, tmp_path):
    table = analysis.sweep_trigger(default_config, THETA_88, 0.0, 50.0, 1.0)
    out = tmp_path / "trigger.svg"
    n = analysis.emit_svg_plot(table, ["diameter (m)"], out)
    assert n > 500
    assert out.read_text().count("<polyline") == 1
