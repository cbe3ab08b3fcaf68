"""Set-up probe: import lbvt, load the shipped config and finish one warm-up op.

bench/run.py times this script in a fresh interpreter for ``setup_s``:

    PYTHONPATH=src python3 bench/warmup.py <workload> <work directory>
"""

import sys
from pathlib import Path

import workloads


def main() -> None:
    name, workdir = sys.argv[1], Path(sys.argv[2])
    workdir.mkdir(parents=True, exist_ok=True)
    w = workloads.WORKLOADS[name](workdir)
    w.op(w.warmup_input)


if __name__ == "__main__":
    main()
