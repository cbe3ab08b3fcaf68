"""Rewrite bench/reference/*.csv, the sweep_study outputs every run is checked against.

Run from the repository root only when the library's intended output changes:

    PYTHONPATH=src python3 bench/record_references.py
"""

import lbvt
from lbvt import cli

import workloads


def main() -> None:
    config = str(lbvt.default_config_path())
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for label, args in workloads.study():
        out = workloads.REFERENCE_DIR / f"{label}.csv"
        if cli.run([args[0], config, *args[1:], "--out", str(out)]) != 0:
            raise SystemExit(f"{label}: lbvt exited non-zero")


if __name__ == "__main__":
    main()
