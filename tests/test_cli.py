import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import lbvt
from lbvt import analysis, equilibrium
from lbvt.cli import load_config, run, save_config
from lbvt.model import ConfigError, MechanismConfig, validate_config

DEFAULT = str(lbvt.default_config_path())


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def _default_doc():
    with open(DEFAULT, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------- load_config ----------

def test_load_shipped_config_round_trip(tmp_path, default_config):
    out = tmp_path / "copy.json"
    save_config(default_config, out)
    again = load_config(out)
    assert again.l1 == default_config.l1
    assert again.beta == pytest.approx(default_config.beta, rel=1e-14)
    assert again.phi == pytest.approx(default_config.phi, rel=1e-14)


def test_unknown_key_is_rejected(tmp_path):
    doc = _default_doc()
    doc["l5"] = 0.1
    with pytest.raises(ConfigError, match="l5"):
        load_config(_write(tmp_path, doc))


def test_missing_field_is_rejected(tmp_path):
    doc = _default_doc()
    del doc["beta"]
    with pytest.raises(ConfigError, match="beta"):
        load_config(_write(tmp_path, doc))


def test_wrong_type_names_the_field(tmp_path):
    doc = _default_doc()
    doc["beta"] = "twenty-nine"
    with pytest.raises(ConfigError, match="beta"):
        load_config(_write(tmp_path, doc))


def test_bad_list_entry_names_the_path(tmp_path):
    doc = _default_doc()
    doc["segments"][2] = "x"
    with pytest.raises(ConfigError, match=r"segments\[2\]"):
        load_config(_write(tmp_path, doc))


@pytest.mark.parametrize("key, value, message", [
    ("springs_per_joint", 2.5, "springs_per_joint: expected an integer, got float"),
    ("segments", 0.1, "segments: expected a list of numbers, got float"),
    ("actuator_base", [0.05, -0.05, 0.0], "actuator_base: expected exactly two coordinates, got 3"),
])
def test_wrong_shape_names_the_field(tmp_path, key, value, message):
    with pytest.raises(ConfigError, match=message):
        load_config(_write(tmp_path, {**_default_doc(), key: value}))


def test_top_level_array_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="top-level value must be an object"):
        load_config(_write(tmp_path, [_default_doc()]))


def _json_values():
    scalars = (st.none() | st.booleans() | st.text(max_size=3)
               | st.integers(-10, 10) | st.integers(min_value=10 ** 309, max_value=10 ** 400)
               | st.floats(allow_nan=True, allow_infinity=True))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=7)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=2),
                        max_leaves=8)


def _nearby(value):
    """Values around a shipped one: numbers scaled by [-3, 3], integers moved by up to 3."""
    if isinstance(value, list):
        return st.tuples(*map(_nearby, value)).map(list)
    if isinstance(value, int):
        return st.integers(-3, 3).map(lambda dv: value + dv)
    if isinstance(value, float):
        return st.floats(-3.0, 3.0).map(lambda scale: value * scale)
    return st.just(value)


# up to three fields of the shipped document are dropped, take a random JSON
# value or move near their shipped value, and an unknown key may be added;
# json.dumps writes NaN and Infinity, which the loader's parser accepts
@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_load_config_accepts_valid_or_raises_config_error(tmp_path_factory, data):
    doc = _default_doc()
    for key in data.draw(st.lists(st.sampled_from(sorted(doc)), max_size=3, unique=True)):
        change = data.draw(st.sampled_from(("nearby", "nearby", "random", "drop")), label=key)
        if change == "drop":
            del doc[key]
        else:
            doc[key] = data.draw(_json_values() if change == "random" else _nearby(doc[key]),
                                 label=key)
    if data.draw(st.sampled_from((False, False, False, True)), label="extra key"):
        doc[data.draw(st.text(max_size=4), label="key")] = data.draw(_json_values())
    path = _write(tmp_path_factory.mktemp("fuzz"), doc)
    try:
        config = load_config(path)
    except ConfigError:
        return
    assert validate_config(config) == []


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "l1": 0.25,,\n}\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_validation_failure_lists_violations(tmp_path):
    doc = _default_doc()
    doc["l2"] = -1.0
    with pytest.raises(ConfigError, match="l2"):
        load_config(_write(tmp_path, doc))


def test_degrees_convert_on_load(tmp_path):
    doc = _default_doc()
    cfg = load_config(_write(tmp_path, doc))
    assert cfg.beta == pytest.approx(math.radians(doc["beta"]), rel=1e-15)
    assert cfg.theta_min == pytest.approx(math.radians(-141.0), rel=1e-15)


SHIPPED = [lbvt.default_config_path(), lbvt.base_config_path()]


@pytest.mark.parametrize("arm", [0.02, -1.0, "x", None], ids=["shipped", "negative", "text", "null"])
@pytest.mark.parametrize("path", SHIPPED, ids=["default", "base"])
def test_spring_arm_length_of_an_old_file_is_ignored(tmp_path, path, arm):
    # older files held spring_arm_length after springs_per_joint
    old = {}
    for key, value in json.loads(path.read_text()).items():
        old[key] = value
        if key == "springs_per_joint":
            old["spring_arm_length"] = arm
    assert load_config(_write(tmp_path, old)) == load_config(path)


@pytest.mark.parametrize("path", SHIPPED, ids=["default", "base"])
def test_shipped_file_keys_are_provenance_then_the_fields(path):
    keys = list(json.loads(path.read_text()))
    assert keys == ["provenance", *(f.name for f in dataclasses.fields(MechanismConfig))]


def test_config_schema_reads_every_field():
    # a field of a new kind, or an angle renamed in one place only, fails here
    # instead of being read wrongly
    from lbvt import config as config_io

    fields = dataclasses.fields(MechanismConfig)
    assert {f.type for f in fields} <= config_io._READERS.keys()
    assert config_io._DEGREES <= {f.name for f in fields}


# ---------- subcommands ----------

def test_validate_shipped_config_quiet(capsys):
    assert run(["validate", DEFAULT]) == 0
    out = capsys.readouterr()
    assert out.out == ""


def test_validate_reports_violations(tmp_path, capsys):
    doc = _default_doc()
    doc["l2"] = 0.0
    path = _write(tmp_path, doc)
    assert run(["validate", path]) == 1
    assert "l2" in capsys.readouterr().err


def test_solve_zero_force_reports_closed(capsys):
    assert run(["solve", DEFAULT, "--theta", "-88", "--force", "0"]) == 0
    out = capsys.readouterr().out
    assert "kfe_torque (Nm):         0" in out
    assert out.count("closed") == 6


def test_solve_out_of_range_angle_fails(capsys):
    assert run(["solve", DEFAULT, "--theta", "10", "--force", "5"]) == 1
    assert "theta" in capsys.readouterr().err


def test_solve_converged_residual_prints_the_tolerance(capsys):
    assert run(["solve", DEFAULT, "--theta", "-88", "--force", "165"]) == 0
    assert "residual (Nm):           < 1e-09\n" in capsys.readouterr().out


def test_solve_unconverged_residual_prints_its_digits(capsys, monkeypatch):
    from lbvt import equilibrium
    solve = equilibrium.solve_equilibrium

    def unconverged(config, theta, f_cyl):
        return dataclasses.replace(solve(config, theta, f_cyl), converged=False,
                                   residual=0.123456789123)

    monkeypatch.setattr(equilibrium, "solve_equilibrium", unconverged)
    assert run(["solve", DEFAULT, "--theta", "-88", "--force", "165"]) == 1
    out = capsys.readouterr().out
    assert "converged:               no\n" in out
    assert "residual (Nm):           0.123456789\n" in out


def test_solve_at_a_huge_force_reports_an_unconverged_solve(capsys):
    # it exited 1 with "lever length must be positive, got nan" on stderr
    assert run(["solve", DEFAULT, "--theta", "-88", "--force", "1e300"]) == 1
    out, err = capsys.readouterr()
    assert "converged:               no\n" in out
    assert err == ""


def test_sweep_angle_defaults_cover_the_working_range(tmp_path):
    out = tmp_path / "angle.csv"
    code = run(["sweep-angle", DEFAULT, "--force", "165", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 12  # header + 11 records
    first = lines[1].split(",")[0]
    last = lines[-1].split(",")[0]
    assert float(first) == -141.0
    assert float(last) == -39.5


def test_sweep_angle_with_plot(tmp_path):
    csv_out = tmp_path / "angle.csv"
    svg_out = tmp_path / "angle.svg"
    code = run(["sweep-angle", DEFAULT, "--force", "165",
                "--step", "20", "--out", str(csv_out), "--plot", str(svg_out)])
    assert code == 0
    assert svg_out.read_text().count("<polyline") == 2


def test_trigger_subcommand(tmp_path):
    out = tmp_path / "trigger.csv"
    assert run(["trigger", DEFAULT, "--theta", "-88", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 102  # header + 0..50 N at 0.5 N
    assert lines[0].startswith("f_cyl (N),diameter (m)")


def test_sweep_force_subcommand(tmp_path):
    out = tmp_path / "force.csv"
    code = run(["sweep-force", DEFAULT, "--theta", "-88",
                "--from", "0", "--to", "60", "--step", "2", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 32


def test_ratio_subcommand(tmp_path):
    out = tmp_path / "ratio.csv"
    code = run(["ratio", DEFAULT, "--theta", "-88",
                "--from", "0", "--to", "40", "--step", "4", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert "ratio (m)" in header and "ratio_rigid (m)" in header


def test_plot_of_a_constant_series_is_padded_about_it(tmp_path):
    # below the 20 N trigger the ratio and the rigid ratio are one constant,
    # so the y axis is padded by 1 on each side and both lines run mid-plot
    svg = tmp_path / "ratio.svg"
    code = run(["ratio", DEFAULT, "--theta", "-88", "--to", "10",
                "--out", str(tmp_path / "ratio.csv"), "--plot", str(svg)])
    assert code == 0
    text = svg.read_text()
    points = re.findall(r'<polyline points="([^"]*)"', text)
    assert len(points) == 2
    assert {p.split(",")[1] for line in points for p in line.split()} == {"224.00"}
    assert re.findall(r'text-anchor="end">([^<]*)<', text) == ["-0.5", "0", "0.5", "1"]


def test_failed_sweep_rows_fail_the_command(tmp_path, capsys, monkeypatch):
    # above 20 N every solve comes back unconverged: those rows are written
    # as failure rows, and the exit code reports them
    solve = equilibrium.solve_equilibrium

    def failing_above_20_n(config, theta, f_cyl, **kwargs):
        result = solve(config, theta, f_cyl, **kwargs)
        return dataclasses.replace(result, converged=False) if f_cyl > 20.0 else result

    monkeypatch.setattr(equilibrium, "solve_equilibrium", failing_above_20_n)
    out = tmp_path / "ratio.csv"
    code = run(["ratio", DEFAULT, "--theta", "-88",
                "--from", "0", "--to", "40", "--step", "4", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "lbvt ratio: 5 of 11 rows failed (feasible 0)\n"
    table = analysis.read_csv(out)
    assert table.column("feasible (-)") == (1.0,) * 6 + (0.0,) * 5
    assert table.column("regimes (-)")[6:] == ("-",) * 5


def test_failed_rows_are_reported_when_the_plot_cannot_be_drawn(tmp_path, capsys):
    # at 5000 N every angle fails, so the plot has no finite point to draw;
    # the summary is printed all the same, and the CSV is written
    out, svg = tmp_path / "a.csv", tmp_path / "a.svg"
    code = run(["sweep-angle", DEFAULT, "--force", "5000",
                "--out", str(out), "--plot", str(svg)])
    assert code == 1
    assert capsys.readouterr().err == (
        "lbvt sweep-angle: 11 of 11 rows failed (feasible 0)\n"
        "lbvt sweep-angle: no finite data points to plot\n")
    assert analysis.read_csv(out).column("feasible (-)") == (0.0,) * 11


def test_ratio_on_a_zero_travel_config_is_feasible(tmp_path, capsys, base_config):
    # a zero ratio-step target calibrates every travel limit to zero; the
    # rigid chain solves at every force, past the trigger too
    config = tmp_path / "rigid.json"
    save_config(analysis.calibrate(base_config, 20.0, 0.0, math.radians(-88.0)), config)
    out = tmp_path / "ratio.csv"
    code = run(["ratio", str(config), "--theta", "-88",
                "--to", "60", "--step", "10", "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0, "")
    assert analysis.read_csv(out).column("feasible (-)") == (1.0,) * 7


@pytest.mark.parametrize("command, bound", [
    ("ratio", ["--theta", "-88", "--to", "inf"]),
    ("sweep-angle", ["--force", "165", "--from", "nan"]),
])
def test_non_finite_sweep_range_fails_cleanly(tmp_path, capsys, command, bound):
    out = tmp_path / "sweep.csv"
    assert run([command, DEFAULT, *bound, "--out", str(out)]) == 1
    assert f"lbvt {command}: range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("force", ["nan", "-1"])
@pytest.mark.parametrize("command", ["solve", "sweep-angle"])
def test_bad_force_fails_cleanly(tmp_path, capsys, command, force):
    # solve_equilibrium returns an unconverged result for a NaN force; the
    # commands reject it before any solve, as they do a negative one
    out = tmp_path / "a.csv"
    args = ["--theta", "-88"] if command == "solve" else ["--out", str(out)]
    assert run([command, DEFAULT, *args, "--force", force]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"lbvt {command}: f_cyl must be non-negative and finite, got {float(force)}\n")
    assert captured.out == ""
    assert not out.exists()


def test_oversized_sweep_ladder_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "ratio.csv"
    assert run(["ratio", DEFAULT, "--theta", "-88", "--step", "5e-324", "--out", str(out)]) == 1
    assert "lbvt ratio: step 5e-324 over [0.0, 200.0] asks for inf samples" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("sweep-force", ["--theta", "-88"]),
    ("sweep-angle", ["--force", "165"]),
])
def test_non_finite_sweep_step_fails_cleanly(tmp_path, capsys, command, args):
    # rejected before any solve: the first sample would be start + 0 * inf, NaN
    out = tmp_path / "sweep.csv"
    assert run([command, DEFAULT, *args, "--step", "inf", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"lbvt {command}: step must be positive and finite, got inf\n")
    assert not out.exists()


def test_non_finite_config_number_fails_validation(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({**_default_doc(), "alpha_preload": math.nan}))
    assert "NaN" in path.read_text()
    assert run(["validate", str(path)]) == 1
    assert "alpha_preload must be finite, got nan" in capsys.readouterr().err


def test_huge_integer_config_number_fails_cleanly(tmp_path, capsys):
    # JSON integers have no size limit; this one does not fit a float
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**_default_doc(), "k_spring": 10 ** 400}))
    for command in (["validate"], ["solve", "--theta", "-88", "--force", "165"]):
        assert run([command[0], str(path), *command[1:]]) == 1
        assert "k_spring: integer too large for a float" in capsys.readouterr().err


def test_overflowing_per_joint_stiffness_fails_validation(tmp_path, capsys):
    path = tmp_path / "springs.json"
    path.write_text(json.dumps({**_default_doc(), "springs_per_joint": 10 ** 400}))
    for command in (["validate"], ["solve", "--theta", "-88", "--force", "165"]):
        assert run([command[0], str(path), *command[1:]]) == 1
        assert "springs_per_joint * k_spring must be finite" in capsys.readouterr().err


def test_calibrate_rejects_nan_target(tmp_path, capsys):
    out = tmp_path / "calibrated.json"
    assert run(["calibrate", DEFAULT, "--trigger", "nan", "--ratio-step", "0.40",
                "--theta", "-88", "--out", str(out)]) == 1
    assert "lbvt calibrate: target_trigger must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("theta", ["-170", "10"])
def test_calibrate_rejects_an_angle_outside_the_range(tmp_path, capsys, theta):
    out = tmp_path / "calibrated.json"
    assert run(["calibrate", str(lbvt.base_config_path()), "--trigger", "20",
                "--ratio-step", "0.40", "--theta", theta, "--out", str(out)]) == 1
    assert "outside the configured range" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_subcommand(tmp_path, capsys):
    out = tmp_path / "calibrated.json"
    code = run(["calibrate", str(lbvt.base_config_path()),
                "--trigger", "20", "--ratio-step", "0.40",
                "--theta", "-88", "--out", str(out)])
    assert code == 0
    assert "calibrated" in capsys.readouterr().err
    cfg = load_config(out)
    doc = json.loads(out.read_text())
    assert doc["provenance"]["targets"]["triggering_force_N"] == 20.0
    from lbvt import equilibrium
    assert equilibrium.triggering_force(cfg, math.radians(-88.0)) == pytest.approx(
        20.0, abs=0.05)


# ---------- exit codes and help ----------

def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "validate" in capsys.readouterr().out


def test_subcommand_help_lists_units(capsys):
    assert run(["solve", "--help"]) == 0
    out = capsys.readouterr().out
    assert "degrees" in out and "N" in out


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert run(["validate", DEFAULT, "--wat"]) == 2


@pytest.mark.parametrize("value, message", [
    (["abc"], "argument --theta: invalid float value: 'abc'"),
    ([], "argument --theta: expected one argument"),
], ids=["text", "missing"])
def test_float_flag_without_a_number_is_usage_error(capsys, value, message):
    # a value that float() does not read is left to argparse, as typed
    assert run(["solve", DEFAULT, "--theta", *value, "--force", "10"]) == 2
    assert capsys.readouterr().err.endswith(f"lbvt solve: error: {message}\n")


def test_missing_config_file_fails_cleanly(capsys):
    assert run(["validate", "/nonexistent/cfg.json"]) == 1
    assert "cfg.json" in capsys.readouterr().err


def test_run_builds_no_parser_per_call(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(["validate", DEFAULT]) == 0  # warm-up
    built.clear()
    for _ in range(3):
        assert run(["validate", DEFAULT]) == 0
        assert run(["solve", "--help"]) == 0
    assert built == []


# ---------- determinism ----------

def test_repeated_sweeps_are_byte_identical(tmp_path):
    outs = []
    for tag in ("one", "two"):
        csv_out = tmp_path / f"{tag}.csv"
        svg_out = tmp_path / f"{tag}.svg"
        assert run(["trigger", DEFAULT, "--theta", "-88", "--to", "30",
                    "--out", str(csv_out), "--plot", str(svg_out)]) == 0
        outs.append((csv_out.read_bytes(), svg_out.read_bytes()))
    assert outs[0] == outs[1]


def test_solve_report_is_deterministic(capsys):
    run(["solve", DEFAULT, "--theta", "-88", "--force", "120"])
    first = capsys.readouterr().out
    run(["solve", DEFAULT, "--theta", "-88", "--force", "120"])
    second = capsys.readouterr().out
    assert first == second



# ---------- golden bytes ----------

def _golden_cases():
    """Name -> argv of a fixed CLI matrix on both shipped configs; every case exits 0.

    Solves from closed to past the stops, the three force sweeps at three
    knee angles over their default ranges, and the angle sweep at 165 N.
    Known unconverged solves (1000 N at -88 deg, and on the base config) are
    left out: a digest pins output, and a failure is not worth pinning.
    """
    cases = {}
    for name, path in zip(("default", "base"), SHIPPED):
        for theta in ("-130", "-88", "-45"):
            forces = ["0", "5", "30", "60", "165"]
            if name == "default" and theta != "-88":
                forces.append("1000")
            for force in forces:
                cases[f"{name} solve {theta} {force}"] = [
                    "solve", str(path), "--theta", theta, "--force", force]
            for command in ("trigger", "sweep-force", "ratio"):
                cases[f"{name} {command} {theta}"] = [command, str(path), "--theta", theta]
        cases[f"{name} sweep-angle 165"] = ["sweep-angle", str(path), "--force", "165"]
    return cases


def _golden_digests(tmp_dir):
    """Name -> SHA-256 of each case's exit code, stdout, CSV and SVG, run in process."""
    csv_out, svg_out = Path(tmp_dir) / "out.csv", Path(tmp_dir) / "out.svg"
    digests = {}
    for name, argv in _golden_cases().items():
        files = () if argv[0] == "solve" else (csv_out, svg_out)
        if files:
            argv = argv + ["--out", str(csv_out), "--plot", str(svg_out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run(argv)
        digest = hashlib.sha256(f"{code}\n{stdout.getvalue()}".encode())
        for path in files:
            digest.update(path.read_bytes())
        digests[name] = digest.hexdigest()
    return digests


# Recorded on x86-64 Linux with CPython 3.11. No command loads numpy, so the
# digests do not depend on its version or LAPACK build. A change that is
# meant to keep every output byte must leave this table as it is.
GOLDEN = {
    "default solve -130 0":
        "eaa77e7a491130f725dd7d651770f4bc5067d5584bce69c20df4a35e9aceec45",
    "default solve -130 5":
        "7d4e3505f264b571fe554d739eaae2523876c7527b797b4fa81f78a2c94200b3",
    "default solve -130 30":
        "961e526431f8de13d41b35f64457d084e2ce012c2443e82717af56231581c96c",
    "default solve -130 60":
        "b253cb371f76db5eb2e14419bc363bc33b76d2bf1421ccb28673b33ad8d9feb8",
    "default solve -130 165":
        "c199b4bc25a275e6d9e265004f148caf38f3a192182cf073475bd86de9519154",
    "default solve -130 1000":
        "30a51b12450f94ef991b792e43df25c3df8852cfb0d004d1f33b8d57cb8afc29",
    "default trigger -130":
        "ca48b620c06e1a5fbdcf37f742ddaedd8717c94d4c333bc585f4aff84a67f429",
    "default sweep-force -130":
        "96c6ec90a0fbddf3776099afec8c4871d9db1aafc7814e12a9b20aeb6d390b9b",
    "default ratio -130":
        "aa96cc0138e58f5bb981137ae091220fd070564da165c378ec143b21bd949995",
    "default solve -88 0":
        "729a5c4128453d45ecd3d901a9637aa1552429956b297e3c563a32637b00e74f",
    "default solve -88 5":
        "5a7ebd3d2eec2a08eda8e714fee7a6982c8ab240b70fbe3894eda5597685adb4",
    "default solve -88 30":
        "2cd077f9cc28e7ebbb201bc8fa18e1540014853af7db3b5aca649901aa08e4a7",
    "default solve -88 60":
        "0a9edbbdb6b12c1ecf757c079122b65d434efe782c64197f860398650c7b42e7",
    "default solve -88 165":
        "865238f8480b07d7edc94f26bdb79e03c852deeee89f714c53eb69c5145c8429",
    "default trigger -88":
        "5858d969c9522684a7e928a1f59c931325c060722555451d3ffbae107222dec5",
    "default sweep-force -88":
        "25f505e17db93f356b6c0b0ce408e13fdb7134a9f1f85ae257f599fa599d847f",
    "default ratio -88":
        "8a9ad44c6a19e487dad39a524d8cd59dfaa9ab1a30e94896fb02a7f0c03f2135",
    "default solve -45 0":
        "123ffb7163a433a5decd583bd83ad6707e28ab3712d0ba8f3f15c59d8a041142",
    "default solve -45 5":
        "cf1da4edc5b86883a8a3c5b997255a2e06074c080499d6a82c9136303d10c6af",
    "default solve -45 30":
        "4ff2c87ec6f379c2283b223382413f5f30a61cbc92c956fb215de0e1230492c6",
    "default solve -45 60":
        "12ed3518cea88b9f9f9f541d70677f3de22dc6e1b911c22b9b7402abd867fdc1",
    "default solve -45 165":
        "8be75ddd9a4a627896529317c777c0b735498d1f1e6108f66bb22a60bf489313",
    "default solve -45 1000":
        "17f90c627b509a8f5b49c2c15816d6c93b04681661568e0ce1153561b9489d15",
    "default trigger -45":
        "ebd96615deaf897eaac549a0dee9d01d98e5b96739a795ac51afb52c359909ca",
    "default sweep-force -45":
        "d0bca1985407c12c709910f61be21721a8bda8e3f831cd69007d0c2a25a22d6e",
    "default ratio -45":
        "300d3ef6d75c24a73a22c9f7d0514dec386c08a55b07a3f2d489fcfd29c90fd3",
    "default sweep-angle 165":
        "3b6adf02d8e39e34c474885427832f0a4f6827b55bf4584adffd4d98a9b33cb8",
    "base solve -130 0":
        "eaa77e7a491130f725dd7d651770f4bc5067d5584bce69c20df4a35e9aceec45",
    "base solve -130 5":
        "7d4e3505f264b571fe554d739eaae2523876c7527b797b4fa81f78a2c94200b3",
    "base solve -130 30":
        "4850f76d056dc69840ae63f686e447dc92b29a3b73055953e98fd912456725ae",
    "base solve -130 60":
        "b0341eda36eab3d05ccb3ed338ecaf8efc5bc5a4c89de44071ae8600bede322f",
    "base solve -130 165":
        "63a7f090af8d68ca381cf3033ad8d3273bc6a90b344190d70f64a86a10102749",
    "base trigger -130":
        "e0d80ca410a58d261fb878960676054c5ca13fb1dfc7bb5cc4821255e6f7e92d",
    "base sweep-force -130":
        "817f0de25ace434d93c8dd00193efe98ddb0109a0fe852456e32c985b02dcef2",
    "base ratio -130":
        "9c78ffb2a5e8cc4ad45e732a625ba5ffd3cdc07954b87ac6b928d6dfc099cfc9",
    "base solve -88 0":
        "729a5c4128453d45ecd3d901a9637aa1552429956b297e3c563a32637b00e74f",
    "base solve -88 5":
        "5a7ebd3d2eec2a08eda8e714fee7a6982c8ab240b70fbe3894eda5597685adb4",
    "base solve -88 30":
        "a2ccef1848fcc75d0eb7a2297c01f4252c3b302e2c812e1653f04a84a2b778d2",
    "base solve -88 60":
        "fe15509829a4025d9f3dc5077754f2bbcd1b6dd87c39a25d81d5843694517abd",
    "base solve -88 165":
        "50cc6cbff1fe2dfecfc0dfb32e370f239824812c15bc45f09f925c767569bfc3",
    "base trigger -88":
        "ae7aaee39b9f5ff5fc65149bc61002954e4d6e305b25271b83454480c7d22096",
    "base sweep-force -88":
        "675f66c5e122f6dceed58f215f645ef6fed801f213e2a14ee6cbcbf7e0f0eb88",
    "base ratio -88":
        "5cdaea6c9cd670ec599e67149680a8922e87a6c45a65198db60e813b18602cf0",
    "base solve -45 0":
        "123ffb7163a433a5decd583bd83ad6707e28ab3712d0ba8f3f15c59d8a041142",
    "base solve -45 5":
        "cf1da4edc5b86883a8a3c5b997255a2e06074c080499d6a82c9136303d10c6af",
    "base solve -45 30":
        "3bd109152947ae3ce18a350e24f73ed5728c2bcf0febc3f69103f7591cf0c1c1",
    "base solve -45 60":
        "93723cbed27e4e66cb7c94f43871b5a3f2f42cc4f0e8a86e7038acf47909f0c9",
    "base solve -45 165":
        "bef15321107eba51afe4c2048a7dad00c53bf32ec0e04ad7ced0c160a1bbd333",
    "base trigger -45":
        "e7a691cc125e6fb13435bf0c85feb9553b970a734708cce91b0adab7299c3eb6",
    "base sweep-force -45":
        "a66af8cb0a9f24cdd57f33bb6b9bf4033f500849dcbe99f8465d52520ac77499",
    "base ratio -45":
        "cfa3c298dba7ba3da7f908d71eb433ea36bb5ad9e1920360cd9270505fc3555a",
    "base sweep-angle 165":
        "d042bd645c9cf176d6c4ec18ba04bf91c5f096cb6227ba8d184abcd47ca05356",
}


def test_cli_output_matches_the_golden_digests(tmp_path):
    assert _golden_digests(tmp_path) == GOLDEN


# ---------- import surface and entry point ----------

def _src_env():
    src = str(Path(lbvt.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_module_entry_point_exit_codes():
    ok = subprocess.run([sys.executable, "-m", "lbvt", "validate", DEFAULT],
                        env=_src_env(), capture_output=True, text=True)
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, "", "")
    bare = subprocess.run([sys.executable, "-m", "lbvt"],
                          env=_src_env(), capture_output=True, text=True)
    assert bare.returncode == 2 and bare.stdout == ""
    assert bare.stderr.startswith("usage: lbvt ")


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_plot_with_a_tick_step_below_half_an_ulp_finishes(tmp_path):
    # the force axis spans one ulp at 100 N, so its tick step (5e-15) is below
    # half an ulp of every tick: ticks must be multiples of the step, since
    # adding the step to the last tick would never reach the axis end. A
    # child process with a memory cap and a timeout keeps a regression cheap.
    svg = tmp_path / "h.svg"
    proc = subprocess.run(
        [sys.executable, "-m", "lbvt", "ratio", DEFAULT, "--theta", "-88",
         "--from", "100", "--to", "100.00000000000001", "--step", "1e-14",
         "--out", str(tmp_path / "h.csv"), "--plot", str(svg)],
        env=_src_env(), capture_output=True, text=True, timeout=10, preexec_fn=_cap_memory)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert svg.read_text().endswith("</svg>\n")


def test_sweep_step_below_the_float_spacing_names_the_step(tmp_path, capsys):
    out = tmp_path / "u.csv"
    assert run(["ratio", DEFAULT, "--theta", "-88", "--from", "100",
                "--to", "100.00000000000003", "--step", "1e-14", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "lbvt ratio: step 1e-14 does not advance the range past 100.00000000000001\n")
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["--from", "-88", "--to", "-87.99999999999997", "--step", "1e-15"],
     "step 1e-15 does not advance the range past -88.0"),
    (["--from", "-88", "--to", "-40", "--step", "1e-5"],
     "step 1e-05 over [-88.0, -40.0] asks for 4800001 samples (limit 1000000)"),
    (["--from", "-88", "--to", "-40", "--step", "-1"],
     "step must be positive and finite, got -1.0"),
    (["--from", "-80", "--to", "-90"], "range end -90.0 below start -80.0"),
], ids=["below-spacing", "too-many", "negative", "reversed"])
def test_sweep_angle_ladder_errors_name_degrees_as_typed(tmp_path, capsys, args, message):
    # the ladder runs in radians, and its errors are restated in the flags' degrees
    out = tmp_path / "a.csv"
    assert run(["sweep-angle", DEFAULT, "--force", "165", *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"lbvt sweep-angle: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, args, typed", [
    ("solve", ["--theta", "-170", "--force", "10"], "--theta -170.0"),
    ("trigger", ["--theta", "-170"], "--theta -170.0"),
    ("sweep-force", ["--theta", "-30"], "--theta -30.0"),
    ("ratio", ["--theta", "10"], "--theta 10.0"),
    ("calibrate", ["--trigger", "20", "--ratio-step", "0.40", "--theta", "-170"],
     "--theta -170.0"),
    ("sweep-angle", ["--force", "165", "--from", "-170"], "--from -170.0"),
    # the sample at -38 deg leaves the range first; --to is what put it there
    ("sweep-angle", ["--force", "165", "--from", "-88", "--to", "10"], "--to 10.0"),
], ids=["solve", "trigger", "sweep-force", "ratio", "calibrate", "sweep-angle-from",
        "sweep-angle-to"])
def test_out_of_range_angles_name_degrees_as_typed(tmp_path, capsys, command, args, typed):
    # the range check runs in radians, and its error is restated in the flag's degrees
    out = tmp_path / "out"
    argv = [command, DEFAULT, *args] + ([] if command == "solve" else ["--out", str(out)])
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"lbvt {command}: {typed} outside the configured "
                                       "range [-141.0, -39.5] deg\n")
    assert not out.exists()


def test_sweep_angle_step_underflowing_in_radians_is_named(tmp_path, capsys):
    # math.radians(5e-324) is 0.0: the step is positive as typed
    out = tmp_path / "a.csv"
    assert run(["sweep-angle", DEFAULT, "--force", "165", "--step", "5e-324",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "lbvt sweep-angle: --step 5e-324 underflows to 0 when converted to radians\n")
    assert not out.exists()


def _tick_marks(svg: str):
    """Pixel positions of the x-axis and y-axis tick marks of an emit_svg_plot file."""
    marks = re.findall(r'<line x1="(-?[\d.]+)" y1="(-?[\d.]+)" x2="(-?[\d.]+)" '
                       r'y2="(-?[\d.]+)" stroke="#333333"', svg)
    xs = [float(x1) for x1, y1, x2, y2 in marks if x1 == x2]
    ys = [float(y1) for x1, y1, x2, y2 in marks if y1 == y2]
    return xs, ys


def test_plot_ticks_across_a_few_ulps_are_distinct_and_inside_the_frame(tmp_path, capsys):
    # the torque column spans a few ulps of 0.903419: its ticks repeated, and
    # three sat on one pixel; to 6 digits its labels all read 0.903419, and
    # the force labels all 21.2306
    svg = tmp_path / "y.svg"
    code = run(["sweep-force", DEFAULT, "--theta", "-124.14303877943516",
                "--from", "21.230551399973844", "--to", "21.230551399973855",
                "--step", "5.861977570020827e-15", "--out", str(tmp_path / "y.csv"),
                "--plot", str(svg)])
    assert (code, capsys.readouterr().err) == (0, "")
    xs, ys = _tick_marks(svg.read_text())
    assert xs and ys
    assert len(set(xs)) == len(xs) and all(76.0 <= x <= 700.0 for x in xs)
    assert len(set(ys)) == len(ys) and all(20.0 <= y <= 428.0 for y in ys)
    labels = re.findall(r'font-size="11" text-anchor="(middle|end)">([^<]*)<', svg.read_text())
    assert [v for a, v in labels if a == "middle"] == [
        "21.23055139997384", "21.23055139997385", "21.23055139997386"]
    assert [v for a, v in labels if a == "end"] == [
        "0.9034194338577091", "0.9034194338577093", "0.9034194338577095"]


def test_plot_of_a_subnormal_force_span_is_written(tmp_path, capsys):
    # the x axis's 1-2-5 tick step underflows to 0, which divided by zero
    svg = tmp_path / "d.svg"
    code = run(["ratio", DEFAULT, "--theta", "-88", "--from", "0", "--to", "2.5e-323",
                "--step", "5e-324", "--out", str(tmp_path / "d.csv"), "--plot", str(svg)])
    assert (code, capsys.readouterr().err) == (0, "")
    assert svg.read_text().endswith("</svg>\n")


@pytest.mark.parametrize("command, flag, plain, exponent, rest", [
    ("solve", "--theta", "-88", "-8.8e1", ["--force", "10"]),
    ("solve", "--theta", "-0." + "0" * 319 + "1", "-1e-320", ["--force", "10"]),
    ("solve", "--thet", "-88", "-8.8e1", ["--force", "10"]),
    ("solve", "--force", "-10", "-1e1", ["--theta", "-88"]),
    ("sweep-angle", "--from", "-120", "-1.2e2", ["--force", "165", "--to", "-100"]),
    ("sweep-angle", "--to", "-100", "-1e2", ["--force", "165", "--from", "-120"]),
    ("ratio", "--step", "-0.5", "-5e-1", ["--theta", "-88"]),
    ("calibrate", "--trigger", "-20", "-2e1", ["--ratio-step", "0.4", "--theta", "-88"]),
    ("calibrate", "--ratio-step", "-0.4", "-4e-1", ["--trigger", "20", "--theta", "-88"]),
], ids=["theta", "theta-subnormal", "theta-abbreviated", "force", "from", "to", "step",
        "trigger", "ratio-step"])
def test_negative_flag_values_in_exponent_notation_are_read(tmp_path, capsys, command, flag,
                                                             plain, exponent, rest):
    # argparse took a separate -8.8e1 for an option, so it exited 2 with
    # "expected one argument"; every float flag reads what float() reads
    files = {"solve": [], "calibrate": ["--out", str(tmp_path / "out")]}.get(
        command, ["--out", str(tmp_path / "out"), "--plot", str(tmp_path / "out.svg")])

    def outputs(value):
        code = run([command, DEFAULT, flag, value, *rest, *files])
        written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        for path in tmp_path.iterdir():
            path.unlink()
        return code, capsys.readouterr(), written

    got = outputs(exponent)
    assert got[0] in (0, 1)
    assert got == outputs(plain)


# ---------- the CLI contract, fuzzed ----------

_SWEEP_COMMANDS = ("sweep-angle", "trigger", "sweep-force", "ratio")
_VALUES = (st.floats(-300.0, 300.0)
           | st.integers(-(2 ** 52 - 1), 2 ** 52 - 1).map(lambda n: n * 5e-324)  # subnormals
           | st.tuples(st.sampled_from((1.0, -1.0)), st.floats(1e299, 1e301)
                       | st.floats(1e-301, 1e-299)).map(lambda pair: pair[0] * pair[1]))


def _mostly(usual):
    """Values of usual three times in four, of _VALUES otherwise."""
    return st.sampled_from((True, True, True, False)).flatmap(
        lambda is_usual: usual if is_usual else _VALUES)


_ANGLES = _mostly(st.floats(-141.0, -39.5))  # the shipped configs' knee range, in degrees
_FORCES = _mostly(st.floats(0.0, 250.0))


@st.composite
def _ladder(draw, values):
    """--from, --to and --step: a range drawn freely, 1-8 ulps wide or of a drawn span."""
    lo = draw(values)
    shape = draw(st.sampled_from(("free", "ulps", "span")))
    if shape == "ulps":
        hi = lo
        for _ in range(draw(st.integers(1, 8))):
            hi = math.nextafter(hi, math.inf)
    elif shape == "span":
        hi = lo + draw(st.floats(0.0, 120.0))
    else:
        hi = draw(values)
    step = draw(st.integers(1, 40).map(lambda n: (hi - lo) / n)
                | st.integers(1, 8).map(lambda n: n * math.ulp(lo)) | values)
    # a few dozen samples, or more than MAX_SAMPLES, which fails before any solve
    if hi > lo and 0.0 < step < math.inf:
        assume(not 50.0 < (hi - lo) / step <= 2.0 * analysis.MAX_SAMPLES)
    return lo, hi, step


@st.composite
def _cli_cases(draw):
    """(command, config path, arguments) of a data subcommand with drawn float flags."""
    command = draw(st.sampled_from(("solve", "calibrate") + _SWEEP_COMMANDS))
    config = str(draw(st.sampled_from(SHIPPED)))
    if command == "solve":
        flags = {"--theta": draw(_ANGLES), "--force": draw(_FORCES)}
    elif command == "calibrate":
        flags = {"--trigger": draw(_mostly(st.floats(0.0, 40.0))),
                 "--ratio-step": draw(_mostly(st.floats(0.0, 0.45))),
                 "--theta": draw(_ANGLES)}
    elif command == "sweep-angle":
        lo, hi, step = draw(_ladder(_ANGLES))
        flags = {"--force": draw(_FORCES), "--from": lo, "--to": hi, "--step": step}
    else:
        lo, hi, step = draw(_ladder(_FORCES))
        flags = {"--theta": draw(_ANGLES), "--from": lo, "--to": hi, "--step": step}
    args = []
    for flag, value in flags.items():
        args += [flag, draw(st.sampled_from((repr, "{:.16e}".format)))(value)]
    return command, config, args


# the CHANGES.md reproducers; the plot whose tick step is below half an ulp
# once never ended, so it runs in a child process with a memory cap instead
# (test_plot_with_a_tick_step_below_half_an_ulp_finishes)
@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(case=_cli_cases())
@example(case=("solve", DEFAULT, ["--theta", "-8.8e1", "--force", "10"]))
@example(case=("solve", DEFAULT, ["--theta", "-170", "--force", "10"]))
@example(case=("solve", DEFAULT, ["--theta", "-88", "--force", "nan"]))
@example(case=("sweep-angle", DEFAULT, ["--force", "165", "--step", "5e-324"]))
@example(case=("sweep-angle", DEFAULT, ["--force", "165", "--from", "-88",
                                        "--to", "-87.99999999999997", "--step", "1e-15"]))
@example(case=("sweep-angle", DEFAULT, ["--force", "5000"]))
@example(case=("sweep-force", DEFAULT, ["--theta", "-124.14303877943516",
                                        "--from", "21.230551399973844",
                                        "--to", "21.230551399973855",
                                        "--step", "5.861977570020827e-15"]))
@example(case=("ratio", DEFAULT, ["--theta", "-88", "--from", "100",
                                  "--to", "100.00000000000003", "--step", "1e-14"]))
@example(case=("ratio", DEFAULT, ["--theta", "-88", "--from", "100",
                                  "--to", "100.00000000000003", "--step", "2.8e-14"]))
@example(case=("ratio", DEFAULT, ["--theta", "-88", "--from", "0", "--to", "5e-324",
                                  "--step", "5e-324"]))
@example(case=("ratio", DEFAULT, ["--theta", "-88", "--from", "0", "--to", "2.5e-323",
                                  "--step", "5e-324"]))
def test_cli_contract_holds_for_any_float_flags(tmp_path_factory, case):
    # exit 0, or 1 with one "lbvt <cmd>: " line (after the failed-rows line
    # of a sweep whose plot then cannot be drawn); every CSV reads back with
    # strictly increasing abscissae, and every SVG has distinct ticks inside
    # its frame with distinct labels
    command, config, args = case
    out_dir = tmp_path_factory.mktemp("contract")
    csv, svg = out_dir / "t.csv", out_dir / "t.svg"
    files = {"solve": [], "calibrate": ["--out", str(out_dir / "c.json")]}.get(
        command, ["--out", str(csv), "--plot", str(svg)])
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = run([command, config, *args, *files])
    lines = stderr.getvalue().splitlines()
    assert code in (0, 1), lines
    if code == 1:
        assert lines and all(line.startswith(f"lbvt {command}: ") for line in lines), lines
        assert len(lines) == 1 or (len(lines) == 2
                                   and lines[0].endswith(" rows failed (feasible 0)")), lines
    elif command != "calibrate":
        assert lines == []
        assert command == "solve" or (csv.exists() and svg.exists())
    if csv.exists():
        table = analysis.read_csv(csv)
        xs = table.column(table.independent)
        assert all(b > a for a, b in zip(xs, xs[1:]))
    if svg.exists():
        text = svg.read_text()
        for ticks, lo, hi in zip(_tick_marks(text), (76.0, 20.0), (700.0, 428.0)):
            assert len(set(ticks)) == len(ticks) and all(lo <= t <= hi for t in ticks)
        labels = re.findall(r'font-size="11" text-anchor="(middle|end)">([^<]*)<', text)
        for anchor in ("middle", "end"):
            axis = [v for a, v in labels if a == anchor]
            assert len(set(axis)) == len(axis), axis


def test_library_import_loads_no_cli_or_optional_modules():
    # a fresh interpreter, so modules the test session already imported do not count
    probe = ("import sys, lbvt; print(' '.join(m for m in "
             "('scipy', 'numpy', 'argparse', 'concurrent.futures', 'lbvt.cli') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["solve", "--theta", "-88", "--force", "165"],
    ["sweep-angle", "--force", "165"],
    ["trigger", "--theta", "-88", "--step", "5"],
    ["sweep-force", "--theta", "-88", "--step", "10"],
    ["ratio", "--theta", "-88", "--step", "10"],
    ["calibrate", "--trigger", "20", "--ratio-step", "0.4", "--theta", "-88"],
], ids=lambda argv: argv[0])
def test_command_loads_no_numpy(tmp_path, argv):
    # a fresh interpreter runs the command on both shipped configs; the
    # solves past the trigger use the Newton systems of three or more joints
    files = {"validate": [], "solve": [], "calibrate": ["--out", str(tmp_path / "c.json")]}
    outputs = files.get(argv[0], ["--out", str(tmp_path / "s.csv"),
                                  "--plot", str(tmp_path / "s.svg")])
    runs = [[argv[0], str(path), *argv[1:], *outputs]
            for path in (lbvt.default_config_path(), lbvt.base_config_path())]
    probe = ("import contextlib, io, sys; from lbvt import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    codes = [cli.run(argv) for argv in {runs!r}]\n"
             "print(codes, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[0, 0] False\n"
