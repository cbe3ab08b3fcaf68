"""Each demo runs as a script and writes the files it names.

A demo writes next to its own file, so each runs from a copy in tmp_path.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

DEMOS = {
    "01_torque_profile.py": ("torque_profile.csv", "torque_profile.svg"),
    "02_triggering_study.py": ("triggering.csv", "triggering.svg"),
    "03_transmission_ratio.py": ("ratio.csv", "ratio.svg"),
    "04_calibration.py": ("calibrated_config.json",),
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name, tmp_path):
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for out in DEMOS[name]:
        assert (tmp_path / "output" / out).is_file(), out
