import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("command, bound", [
    ("ratio", ["--theta", "-88", "--to", "inf"]),
    ("sweep-angle", ["--force", "165", "--from", "nan"]),
])
def test_non_finite_sweep_range_fails_cleanly(tmp_path, capsys, command, bound):
    out = tmp_path / "sweep.csv"
    assert run([command, DEFAULT, *bound, "--out", str(out)]) == 1
    assert f"lbvt {command}: range" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_sweep_ladder_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "ratio.csv"
    assert run(["ratio", DEFAULT, "--theta", "-88", "--step", "5e-324", "--out", str(out)]) == 1
    assert "lbvt ratio: step 5e-324 over [0.0, 200.0] asks for inf samples" in (
        capsys.readouterr().err)
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


def test_library_import_loads_no_cli_or_optional_modules():
    # a fresh interpreter, so modules the test session already imported do not count
    probe = ("import sys, lbvt; print(' '.join(m for m in "
             "('scipy', 'numpy', 'argparse', 'concurrent.futures', 'lbvt.cli') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


def test_validate_loads_no_numpy():
    probe = ("import sys; from lbvt import cli; "
             f"code = cli.run(['validate', {DEFAULT!r}]); "
             "print(code, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split()[-2:] == ["0", "False"]
