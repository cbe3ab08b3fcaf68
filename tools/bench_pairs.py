"""Run the benchmark in alternating parent/change pairs and write BENCH_<pr>.json.

Usage, with two checkouts that each hold BENCHMARK.json, src/ and bench/
(the parent a `git clone` of the parent commit, so that its commit can be
read; the change for example a copy of this tree):

    python3 tools/bench_pairs.py --parent ../parent --change . --pr N \\
        --change-note "what the change does" --claim solve_random:op_tail_ms

For each workload of the change's BENCHMARK.json and each of 10 seeds from
--first-seed on, it runs `python3 bench/run.py --workload W --seed S
--seconds T --trace 0` once in each checkout, T being the declared
run_seconds, one run at a time: the parent goes first for odd seeds and the
change for even ones. It writes BENCH_<pr>.json in the working directory,
in the layout of BENCH_13.json: per workload and side the median, quartiles
(inclusive method) and sorted runs of every end-to-end metric, failed over
attempted ops, the pairs the change won (ties count for neither side) and
the change of the medians in percent. Which way is better comes from
BENCHMARK.json. The claimed line states whether the gain rule holds: the
change wins at least WINS_TO_CLAIM of the pairs, and its median is better
than the parent's by more than the parent's quartile span. --per-layer adds
TRACED_RUNS alternating `--trace 1` runs per side for a workload, on the
seeds after the pairs', and stores each per-layer metric's median,
quartiles and runs. If BENCH_<pr>.json exists, the run is a repeat on
other seeds: the file keeps its first run as "benchmark" and appends this
one to "repeats". Standard library only; the runs print their progress to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
WINS_TO_CLAIM = 9  # of PAIRS, for the gain rule
TRACED_RUNS = 5  # per side, for --per-layer


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py process in checkout; returns its result line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": sorted(round(v, 4) for v in values)}


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def alternating(seeds: list[int]) -> list[tuple[int, str]]:
    """(seed, side) in run order: the parent goes first for odd seeds, the change for even."""
    return [(seed, side) for seed in seeds
            for side in (("parent", "change") if seed % 2 else ("change", "parent"))]


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip() or "absent"
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30
    return {"cpu": cpu, "cpus": os.cpu_count(), "memory_gb": round(memory),
            "python": platform.python_version(), "numpy": numpy,
            "os": f"{platform.system()} {platform.release()} {platform.machine()}"}


def git_commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    parser.add_argument("--change-note", required=True, help="one line on what changed")
    parser.add_argument("--first-seed", type=int, default=2001)
    parser.add_argument("--claim", help="workload:metric the change claims to improve")
    parser.add_argument("--per-layer", metavar="WORKLOAD",
                        help="also one traced run per side of this workload")
    args = parser.parse_args()

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    sides = {"parent": args.parent, "change": args.change}

    workloads = {}
    for workload in (w["name"] for w in declared["workloads"]):
        results = {"parent": [], "change": []}
        for seed, side in alternating(seeds):
            result = run_bench(sides[side], workload, seed, seconds, 0)
            results[side].append(result)
            print(f"{workload} seed {seed} {side}: " + ", ".join(
                f"{name} {result['metrics'][name]['value']:.4g}" for name in directions),
                file=sys.stderr)
        entry = {}
        for side, runs in results.items():
            entry[side] = {name: summary([r["metrics"][name]["value"] for r in runs])
                           for name in directions}
            entry[side]["failed_of_attempted"] = (
                f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        entry["change_wins_of_pairs"] = {"pairs": len(seeds), **{
            name: sum(better(c["metrics"][name]["value"], p["metrics"][name]["value"], way)
                      for p, c in zip(results["parent"], results["change"]))
            for name, way in directions.items()}}
        entry["median_change_pct"] = {
            name: round(100.0 * (entry["change"][name]["median"]
                                 / entry["parent"][name]["median"] - 1.0), 1)
            for name in directions}
        workloads[workload] = entry

    claimed = None
    if args.claim:
        workload, name = args.claim.split(":")
        entry = workloads[workload]
        p, c = entry["parent"][name], entry["change"][name]
        wins, span = entry["change_wins_of_pairs"][name], p["q3"] - p["q1"]
        holds = (wins >= WINS_TO_CLAIM and better(c["median"], p["median"], directions[name])
                 and abs(c["median"] - p["median"]) > span)
        claimed = (f"{workload} {name}: {p['median']} -> {c['median']} "
                   f"({entry['median_change_pct'][name]:+.1f}%), better in "
                   f"{wins} of {len(seeds)} pairs; the parent's quartiles span {span:.4g}; "
                   f"the gain rule (at least {WINS_TO_CLAIM} of {len(seeds)} pairs won, "
                   f"medians apart by more than that span) "
                   f"{'holds' if holds else 'does not hold'}")

    report = {
        "change": args.change_note,
        "parent_commit": git_commit(args.parent),
        "machine": machine(),
        "benchmark": {
            "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} "
                       "--trace 0",
            "seeds": seeds,
            "order": "parent first for odd seeds, change first for even seeds; one benchmark "
                     "run at a time (bench/run.py pins itself to one CPU); parent and change "
                     "each ran from its own copy of the tree",
            "statistics": "median and quartiles (inclusive method) over the seeds; runs sorted "
                          "ascending; failed_of_attempted sums the runs; change_wins_of_pairs "
                          "counts the seeds where the change read strictly better",
            "claimed": claimed,
            "workloads": workloads,
        },
    }
    if args.per_layer:
        traced_seeds = list(range(seeds[-1] + 1, seeds[-1] + 1 + TRACED_RUNS))
        traced = {"parent": [], "change": []}
        for seed, side in alternating(traced_seeds):
            traced[side].append(run_bench(sides[side], args.per_layer, seed, seconds,
                                          1)["metrics"])
            print(f"{args.per_layer} traced seed {seed} {side}", file=sys.stderr)
        report[f"per_layer_{args.per_layer}"] = {
            "how": f"python3 bench/run.py --workload {args.per_layer} --seed S "
                   f"--seconds {seconds:g} --trace 1, {TRACED_RUNS} runs per side in the "
                   "pairs' alternating order; median, quartiles and runs per metric",
            "seeds": traced_seeds,
            **{side: {name: summary([m[name]["value"] for m in runs]) for name in runs[0]}
               for side, runs in traced.items()},
        }
    out = Path(f"BENCH_{args.pr}.json")
    if out.exists():
        first = json.loads(out.read_text())
        report = {**first, **report, "benchmark": first["benchmark"],
                  "repeats": first.get("repeats", []) + [report["benchmark"]]}
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}" + (f"; {claimed}" if claimed else ""), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
