import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from lbvt import analysis, chain, equilibrium, linkage
from lbvt.model import CalibrationError, SweepTable, validate_config

from conftest import THETA_88, count_calls


# ---------- sampling ----------

def test_ladder_exact_steps():
    xs = analysis.sample_ladder(0.0, 50.0, 0.5)
    assert len(xs) == 101
    assert xs[0] == 0.0 and xs[-1] == 50.0


def test_ladder_snaps_close_endpoint():
    xs = analysis.sample_ladder(-141.0, -39.5, 10.0)
    assert len(xs) == 11
    assert xs[-1] == -39.5 and xs[-2] == -51.0


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


@pytest.mark.parametrize("start, stop, bad", [
    (0.0, math.inf, "stop"), (0.0, math.nan, "stop"),
    (-math.inf, 1.0, "start"), (math.nan, 1.0, "start"),
])
def test_ladder_rejects_non_finite_range(start, stop, bad):
    with pytest.raises(ValueError, match=f"range {bad} must be finite"):
        analysis.sample_ladder(start, stop, 0.5)


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
def test_sweep_flags_infeasible_samples(default_config, sweep):
    # deliberately broken four-bar, constructed directly (no validation pass)
    bad = default_config.with_updates(l2=0.01, l3=0.01)
    if sweep == "sweep_torque_vs_angle":
        table = analysis.sweep_torque_vs_angle(
            bad, 50.0, bad.theta_min, bad.theta_max, math.radians(20.0))
    else:
        table = getattr(analysis, sweep)(bad, THETA_88, 0.0, 50.0, 10.0)
    assert len(table) == 6
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

def test_trigger_sweep_plateau_ends_in_window(default_config):
    table = analysis.sweep_trigger(default_config, THETA_88, 0.0, 50.0, 0.5)
    forces = table.column("f_cyl (N)")
    diam = table.column("diameter (m)")
    departure = next(f for f, d in zip(forces, diam) if abs(d - diam[0]) > 1e-9)
    assert 17.0 <= departure <= 21.0


def test_trigger_sweep_without_preload_moves_immediately(default_config):
    cfg = default_config.with_updates(alpha_preload=0.0)
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
    monkeypatch.setattr(equilibrium, "solve_equilibrium", lambda *args: failed)


def test_force_sweep_flags_unconverged_solve(default_config, monkeypatch):
    # the row of an unconverged solve must not read as feasible
    _fail_every_solve(monkeypatch, default_config)
    table = analysis.sweep_torque_vs_force(default_config, THETA_88, 1e6, 1e6, 1.0)
    (row,) = table.rows
    assert row[0] == 1e6
    assert math.isnan(table.column("torque_lbvt (Nm)")[0])
    assert table.column("regimes (-)") == ("-",)
    assert table.column("feasible (-)") == (0.0,)


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


# design_loop's target ranges
@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    trigger=st.floats(10.0, 30.0),
    ratio_step=st.floats(0.20, 0.40),
    theta_deg=st.floats(-130.0, -50.0),
)
def test_calibrate_meets_targets_over_the_design_range(
        base_config, trigger, ratio_step, theta_deg):
    theta = math.radians(theta_deg)
    cal = analysis.calibrate(base_config, trigger, ratio_step, theta)
    assert validate_config(cal) == []
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
    assert validate_config(cal) == []


def test_calibrate_unreachable_targets_report_bracket(base_config):
    with pytest.raises(CalibrationError, match="unreachable"):
        analysis.calibrate(base_config, 20.0, 5.0, THETA_88)


@pytest.mark.parametrize("name", ["target_trigger", "target_ratio_step", "theta"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_calibrate_rejects_non_finite_arguments(base_config, name, bad):
    # zero targets: no search runs, so nothing downstream can catch the value
    args = dict(target_trigger=0.0, target_ratio_step=0.0, theta=THETA_88)
    args[name] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite, got {bad}"):
        analysis.calibrate(base_config, **args)


def test_calibrated_output_validates(base_config):
    cal = analysis.calibrate(base_config, 12.0, 0.25, THETA_88)
    assert validate_config(cal) == []
    assert equilibrium.triggering_force(cal, THETA_88) == pytest.approx(12.0, abs=0.05)
    assert analysis.ratio_step_direct(cal, THETA_88) == pytest.approx(0.25, abs=0.005)


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


def test_csv_rejects_empty_table(tmp_path):
    with pytest.raises(ValueError):
        analysis.emit_csv(SweepTable(columns=("x (s)",)), tmp_path / "no.csv")


def test_csv_write_failure_names_destination(tmp_path):
    dest = tmp_path / "missing" / "t.csv"
    with pytest.raises(OSError, match="t.csv"):
        analysis.emit_csv(_small_table(), dest)


def test_svg_single_series_single_polyline(tmp_path):
    out = tmp_path / "p.svg"
    analysis.emit_svg_plot(_small_table(), "f_cyl (N)", ["l4 (m)"], out)
    text = out.read_text()
    assert text.count("<polyline") == 1
    assert text.startswith('<?xml version="1.0"')
    assert "</svg>" in text


def test_svg_is_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    analysis.emit_svg_plot(_small_table(), "f_cyl (N)", ["l4 (m)"], a)
    analysis.emit_svg_plot(_small_table(), "f_cyl (N)", ["l4 (m)"], b)
    assert a.read_bytes() == b.read_bytes()


def test_svg_unknown_column_lists_available(tmp_path):
    with pytest.raises(KeyError, match="l4 \\(m\\)"):
        analysis.emit_svg_plot(_small_table(), "f_cyl (N)", ["nope"], tmp_path / "x.svg")


def test_svg_needs_two_records(tmp_path):
    table = SweepTable(columns=("x (s)", "y (m)"), rows=[(0.0, 1.0)])
    with pytest.raises(ValueError):
        analysis.emit_svg_plot(table, "x (s)", ["y (m)"], tmp_path / "x.svg")


def test_trigger_plot_renders_plateau(default_config, tmp_path):
    table = analysis.sweep_trigger(default_config, THETA_88, 0.0, 50.0, 1.0)
    out = tmp_path / "trigger.svg"
    n = analysis.emit_svg_plot(table, "f_cyl (N)", ["diameter (m)"], out)
    assert n > 500
    assert out.read_text().count("<polyline") == 1
