import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lbvt
from lbvt.cli import load_config, run, save_config
from lbvt.model import ConfigError

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


@pytest.mark.parametrize("command, bound", [
    ("ratio", ["--theta", "-88", "--to", "inf"]),
    ("sweep-angle", ["--force", "165", "--from", "nan"]),
])
def test_non_finite_sweep_range_fails_cleanly(tmp_path, capsys, command, bound):
    out = tmp_path / "sweep.csv"
    assert run([command, DEFAULT, *bound, "--out", str(out)]) == 1
    assert f"lbvt {command}: range" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_config_number_fails_validation(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({**_default_doc(), "alpha_preload": math.nan}))
    assert "NaN" in path.read_text()
    assert run(["validate", str(path)]) == 1
    assert "alpha_preload must be finite, got nan" in capsys.readouterr().err


def test_calibrate_rejects_nan_target(tmp_path, capsys):
    out = tmp_path / "calibrated.json"
    assert run(["calibrate", DEFAULT, "--trigger", "nan", "--ratio-step", "0.40",
                "--theta", "-88", "--out", str(out)]) == 1
    assert "lbvt calibrate: target_trigger must be finite, got nan" in capsys.readouterr().err
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


# ---------- import surface ----------

def test_library_import_loads_no_cli_or_optional_modules():
    # a fresh interpreter, so modules the test session already imported do not count
    src = str(Path(lbvt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, lbvt; print(' '.join(m for m in "
             "('scipy', 'argparse', 'concurrent.futures', 'lbvt.cli') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
