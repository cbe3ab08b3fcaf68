"""lbvt benchmark: one workload, one seed, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload solve_random --seed 1 --seconds 10 --trace 0

Workloads are closed loops with one caller: the next op starts when the
previous one returns. ``--trace 0`` runs ops for ``--seconds`` of op time and
reports the end-to-end metrics; ``--trace 1`` runs a fixed number of ops
twice, untraced and then traced, and reports the per-layer metrics.

Op and set-up times are CPU times scaled to a reference CPU speed (see
speed.py), measured with the process pinned to one CPU. On the host the
bounds were set on, wall time also held file-write stalls of 5-20 ms from
other tenants, which dominated the tail of every op that writes a file; the
raw wall-clock values are kept in the run record. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it are a readable table and the run record. The exit code is 1
when any output check fails and 2 when lbvt is not found under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"
BENCH = Path(__file__).resolve().parent

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
PROBE_EVERY_S = 0.1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_env() -> dict[str, str]:
    """Serial sweeps and single-threaded BLAS here; returns the env for child interpreters."""
    os.environ.pop("LBVT_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Child:
    """A timed fresh interpreter, with speed probes taken before and after it."""

    wall: float
    cpu: float
    probes: tuple[float, float]
    stderr: str


def timed_child(argv: list[str], env: dict[str, str]) -> Child:
    before = speed.probe()
    cpu0, t0 = _children_cpu(), time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], env=env, cwd=ROOT, capture_output=True, text=True,
        check=True, timeout=120,
    )
    wall, cpu = time.perf_counter() - t0, _children_cpu() - cpu0
    return Child(wall, cpu, (before, speed.probe()), proc.stderr)


def children_scale(children: list[Child]) -> float:
    return speed.scale([probe for c in children for probe in c.probes])


@dataclass
class Pass:
    """One loop over ops: CPU and wall time per op, reference-speed scale, failures."""

    cpu: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def scaled(self) -> list[float]:
        return [t * s for t, s in zip(self.cpu, self.scales)]


def run_ops(w, inputs, seconds: float | None = None, tracer=None) -> Pass:
    """Run ops from blocks of inputs until ``seconds`` of op wall time, or all of them.

    Each op is timed alone; its check runs afterwards, untimed and untraced.
    A speed probe runs between ops every PROBE_EVERY_S of op time, and each op
    is scaled by the probes around it (speed.rolling_scales).
    """
    p = Pass()
    marks: list[tuple[int, float]] = []  # (ops done, probe seconds)
    since_probe = math.inf
    for block in inputs:
        for inp in block:
            if since_probe >= PROBE_EVERY_S:
                marks.append((len(p.cpu), speed.probe()))
                since_probe = 0.0
            if tracer is not None:
                tracer.op = len(p.cpu)
                tracer.active = True
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out = w.op(inp)
            except Exception as exc:  # a raising op is a failed op, not a crash
                out, reason = None, f"op raised {type(exc).__name__}: {exc}"
            else:
                reason = None
            p.wall.append(time.perf_counter() - t0)
            p.cpu.append(time.process_time() - c0)
            if tracer is not None:
                tracer.active = False
            since_probe += p.wall[-1]
            if reason is None:
                try:
                    reason = w.check(inp, out)
                except Exception as exc:  # a check that cannot run fails the op
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                p.failures.append(f"{inp!r}: {reason}")
        if seconds is not None and sum(p.wall) >= seconds:
            break
    marks.append((len(p.cpu), speed.probe()))
    gap_scales = speed.rolling_scales([probe for _, probe in marks])
    for (start, _), (end, _), gap_scale in zip(marks, marks[1:], gap_scales):
        p.scales += [gap_scale] * (end - start)
    return p


def fixed_inputs(w, seed: int) -> list[list]:
    """The first ``w.trace_ops`` inputs of the seeded stream, as blocks."""
    blocks, count = [], 0
    for block in w.blocks(seed):
        blocks.append(block)
        count += len(block)
        if count >= w.trace_ops:
            break
    return blocks


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    idx = max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)
    return ordered[idx], len(ordered) - 1 - idx


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown (git not found)"
    return proc.stdout.strip() or "unknown"


def run_record(args, extra: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {"LBVT_THREADS": os.environ.get("LBVT_THREADS", "unset"),
                **{v: os.environ[v] for v in BLAS_THREAD_VARS}},
        "checker_self_test": "passed: both known-bad solves counted as failures",
        "speed_reference_us": speed.REFERENCE_S * 1e6,
        **extra,
    }


def emit(metrics: dict[str, tuple[float, str]], record: dict, attempted: int,
         failures: list[str]) -> int:
    """Print the table, the run record and the result line; returns the exit code."""
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44s} {value:>14.6g} {unit}")
    print(f"  {'fail_rate':<44s} {len(failures) / attempted:>14.6g} ratio"
          f"  ({len(failures)}/{attempted})")
    for reason in failures[:20]:
        print(f"  FAILED {reason}")
    print("run record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def end_to_end(args, w, env: dict[str, str], workdir: Path) -> int:
    setups = [
        timed_child([str(BENCH / "warmup.py"), args.workload, str(workdir / f"setup{i}")], env)
        for i in range(SETUP_REPEATS)
    ]
    w.op(w.warmup_input)
    p = run_ops(w, w.blocks(args.seed), seconds=args.seconds)
    scaled = p.scaled
    tail, beyond = percentile(scaled, w.tail_percentile)
    wall_tail, _ = percentile(p.wall, w.tail_percentile)
    n = len(scaled)
    metrics = {
        "setup_s": (statistics.median(c.cpu for c in setups) * children_scale(setups), "s"),
        "ops_per_s": (n / sum(scaled), "1/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = run_record(args, {
        "ops": n,
        "fail_rate": len(p.failures) / n,
        "op_tail_percentile": w.tail_percentile,
        "op_tail_samples_beyond": beyond,
        "setup_repeats": SETUP_REPEATS,
        "speed_scale_median": statistics.median(p.scales),
        "wall_clock": {
            "setup_s": statistics.median(c.wall for c in setups),
            "ops_per_s": n / sum(p.wall),
            "op_p50_ms": statistics.median(p.wall) * 1e3,
            "op_tail_ms": wall_tail * 1e3,
        },
    })
    return emit(metrics, record, n, p.failures)


def per_layer(args, w, env: dict[str, str]) -> int:
    import tracing

    runs = [timed_child(["-X", "importtime", "-c", "import lbvt"], env)
            for _ in range(IMPORT_REPEATS)]
    scale = children_scale(runs)
    parsed = [tracing.parse_importtime(c.stderr) for c in runs]
    metrics = {
        f"import.{pkg}_ms": (statistics.median(r[pkg] for r in parsed) * scale, "ms")
        for pkg in tracing.IMPORT_PACKAGES
    }
    w.op(w.warmup_input)
    inputs = fixed_inputs(w, args.seed)
    plain = run_ops(w, inputs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_ops(w, inputs, tracer=tracer)
    finally:
        tracer.uninstall()
    spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans_file)
    metrics.update(tracer.layer_metrics(statistics.median(traced.scales)))
    metrics["trace.overhead_pct"] = (
        100.0 * (1.0 - sum(plain.scaled) / sum(traced.scaled)), "%")
    record = run_record(args, {
        "ops_per_pass": len(traced.cpu),
        "spans": len(tracer.span_name),
        "spans_file": str(spans_file.relative_to(ROOT)),
    })
    return emit(metrics, record, 2 * len(traced.cpu), plain.failures + traced.failures)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "lbvt" / "__init__.py").is_file():
        print(f"bench: no lbvt package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    env = pin_env()  # before numpy loads, so BLAS starts single-threaded
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # probes and work share a CPU; children inherit it
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    missed = workloads.checker_self_test()
    if missed:
        print(f"bench: the solve check passed known-bad solves: {', '.join(missed)}",
              file=sys.stderr)
        return 1

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        w = workloads.WORKLOADS[args.workload](workdir)
        if args.trace:
            return per_layer(args, w, env)
        return end_to_end(args, w, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
