"""The benchmark workloads: seeded inputs, one op each, and the check of its output.

Every workload drives lbvt from outside through module attributes
(``equilibrium.solve_equilibrium``, ``cli.run``, ...), looked up at call time,
so that the traced run can swap them for timing wrappers. Inputs come in
blocks of ``BLOCK`` points that are stratified in every coordinate (a Latin
hypercube per block): each point is still uniform on its range, but a run's
mix of cheap and expensive inputs varies less from seed to seed. Runs stop on
a block boundary.

A check returns ``None`` when the output is correct and a one-line reason
otherwise; it is written with public lbvt functions only.

``tail_percentile`` is the op latency percentile reported as op_tail_ms. It is
fixed per workload, so that runs of commits with different op counts report
the same percentile, and set so that a run of ``--seconds 10`` has well over
ten samples beyond it.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

import lbvt
from lbvt import analysis, chain, cli, equilibrium, model
from lbvt.model import Regime

BLOCK = 16

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Regime conditions hold to this many Nm (acceptance criterion 7).
COMPLEMENTARITY_TOL = 1e-9
# Sweep cells must match the recorded reference CSVs to this relative
# tolerance; the absolute floor covers cells that are exactly zero.
REFERENCE_REL_TOL = 1e-6
REFERENCE_ABS_TOL = 1e-12
# ratio_step_from_sweep against ratio_step_direct on a saturated ratio sweep.
RATIO_STEP_MATCH_TOL = 1e-9
# Config files store angles in degrees, so a save/load round trip reproduces
# angle fields to rounding only (the tolerance tests/test_cli.py uses);
# every other field must come back exactly.
ANGLE_ROUND_TRIP_REL_TOL = 1e-14
ANGLE_FIELDS = ("beta", "alpha_preload", "theta_min", "theta_max", "phi", "joint_open_limit")


def _lhs_blocks(rng: np.random.Generator, lows, highs):
    """Endless blocks of BLOCK points, stratified in each coordinate."""
    while True:
        cols = []
        for lo, hi in zip(lows, highs):
            u = (rng.permutation(BLOCK) + rng.random(BLOCK)) / BLOCK
            cols.append(lo + (hi - lo) * u)
        yield [tuple(float(c[i]) for c in cols) for i in range(BLOCK)]


def check_solve(config: model.MechanismConfig, res: model.EquilibriumResult) -> str | None:
    """Converged, finite, and every joint in exactly the regime its torque implies."""
    if not res.converged:
        return f"not converged (residual {res.residual:.3g} Nm)"
    if not math.isfinite(res.kfe_torque):
        return f"non-finite knee torque {res.kfe_torque}"
    torques = chain.joint_torques(config, res.chain.deflection, res.tip_force)
    k = model.per_joint_stiffness(config)
    a0 = config.alpha_preload
    tol = COMPLEMENTARITY_TOL
    for j, (dk, reg, lim, a) in enumerate(
        zip(res.chain.deflection, res.chain.regime, config.joint_open_limit, torques), start=1
    ):
        if dk == 0.0 and a <= k * a0 + tol:
            expected = Regime.CLOSED
        elif dk >= lim and a >= k * (a0 + lim) - tol:
            expected = Regime.END_STOP
        elif 0.0 < dk < lim and abs(a - k * (a0 + dk)) < tol:
            expected = Regime.ACTIVE
        else:
            return f"joint {j}: no regime condition holds (d={dk!r}, torque={a!r})"
        if reg is not expected:
            return f"joint {j}: regime {reg.value}, torque implies {expected.value}"
    return None


def checker_self_test() -> list[str]:
    """Feed check_solve two known-bad solves; returns the names of any it passed.

    At -88 deg, f_cyl=1e6 returns an unconverged state, and f_cyl=nan returns
    converged=True with a NaN torque. Both must count as failures.
    """
    config = lbvt.load_default_config()
    theta = math.radians(-88.0)
    missed = []
    for label, force in (("f_cyl=1e6", 1e6), ("f_cyl=nan", float("nan"))):
        res = equilibrium.solve_equilibrium(config, theta, force)
        try:
            reason = check_solve(config, res)
        except ValueError as exc:
            reason = f"raised {exc}"
        if reason is None:
            missed.append(label)
    return missed


class SolveRandom:
    """One op is one solve_equilibrium(default, theta, F) on unrelated inputs."""

    name = "solve_random"
    warmup_input = (math.radians(-88.0), 165.0)
    trace_ops = 20 * BLOCK
    tail_percentile = 95.0

    def __init__(self, workdir: Path):
        self.config = lbvt.load_default_config()

    def blocks(self, seed: int):
        cfg = self.config
        return _lhs_blocks(
            np.random.default_rng(seed), (cfg.theta_min, 0.0), (cfg.theta_max, 220.0)
        )

    def op(self, inp):
        theta, force = inp
        return equilibrium.solve_equilibrium(self.config, theta, force)

    def check(self, inp, out) -> str | None:
        return check_solve(self.config, out)


STUDY_ANGLES = (-130.0, -110.0, -88.0, -65.0, -45.0)
FORCE_LADDERS = {
    "trigger": ("0", "50", "2.5"),
    "sweep-force": ("0", "200", "10"),
    "ratio": ("0", "200", "10"),
}


def study() -> list[tuple[str, list[str]]]:
    """The fixed figure study: (label, CLI arguments after the config path)."""
    out = []
    for sub, (lo, hi, step) in FORCE_LADDERS.items():
        for theta in STUDY_ANGLES:
            label = f"{sub}_{'m' if theta < 0 else 'p'}{abs(theta):g}"
            out.append(
                (label, [sub, "--theta", f"{theta:g}", "--from", lo, "--to", hi, "--step", step])
            )
    out.append(("sweep-angle_165N", ["sweep-angle", "--force", "165", "--step", "10"]))
    return out


def _cells_match(row, ref_row) -> bool:
    for a, b in zip(row, ref_row):
        if isinstance(b, str):
            continue
        if isinstance(a, str) or not (
            abs(a - b) <= REFERENCE_REL_TOL * max(abs(a), abs(b)) + REFERENCE_ABS_TOL
        ):
            return False
    return True


class SweepStudy:
    """One op is one in-process cli.run of the fixed study, writing CSV and SVG.

    The seed only orders the study: each cycle runs every invocation once in
    a seeded shuffle, so a run always holds whole copies of the study.
    """

    name = "sweep_study"
    trace_ops = 2 * len(study())
    tail_percentile = 80.0

    def __init__(self, workdir: Path):
        self.config_path = str(lbvt.default_config_path())
        self.config = cli.load_config(self.config_path)
        self.workdir = workdir
        self.invocations = dict(study())
        self.warmup_input = "trigger_m88"
        self._references: dict[str, model.SweepTable] = {}
        self._ratio_checked: dict[str, str | None] = {}

    def blocks(self, seed: int):
        rng = np.random.default_rng(seed)
        labels = list(self.invocations)
        while True:
            yield [labels[i] for i in rng.permutation(len(labels))]

    def _outputs(self, label: str) -> tuple[Path, Path]:
        return self.workdir / f"{label}.csv", self.workdir / f"{label}.svg"

    def op(self, label):
        args = self.invocations[label]
        csv, svg = self._outputs(label)
        return cli.run([args[0], self.config_path, *args[1:], "--out", str(csv), "--plot", str(svg)])

    def check(self, label, out) -> str | None:
        if out != 0:
            return f"exit code {out}"
        csv, svg = self._outputs(label)
        table = analysis.read_csv(csv)
        if label not in self._references:
            self._references[label] = analysis.read_csv(REFERENCE_DIR / f"{label}.csv")
        ref = self._references[label]
        if table.columns != ref.columns or len(table) != len(ref):
            return f"{label}: table shape differs from the reference"
        if any(v != 1.0 for v in table.column("feasible (-)")):
            return f"{label}: a row is not feasible"
        for row, ref_row in zip(table.rows, ref.rows):
            if not _cells_match(row, ref_row):
                return f"{label}: row at {row[0]} differs from the reference"
        text = svg.read_text(encoding="utf-8")
        if not (text.startswith("<?xml") and text.rstrip().endswith("</svg>")):
            return f"{label}: SVG plot is incomplete"
        if label.startswith("ratio_"):
            if label not in self._ratio_checked:
                self._ratio_checked[label] = self._check_ratio_step(label)
            return self._ratio_checked[label]
        return None

    def _check_ratio_step(self, label: str) -> str | None:
        """On a sweep that saturates, the measured ratio step equals the geometric one."""
        args = self.invocations[label]
        theta = math.radians(float(args[args.index("--theta") + 1]))
        lo, hi, step = (float(v) for v in FORCE_LADDERS["ratio"])
        table = analysis.sweep_ratio_vs_force(self.config, theta, lo, hi, step)
        if not any(set(code) == {"E"} for code in table.column("regimes (-)")):
            return None
        diff = abs(
            analysis.ratio_step_from_sweep(table) - analysis.ratio_step_direct(self.config, theta)
        )
        if diff > RATIO_STEP_MATCH_TOL:
            return f"{label}: ratio step from the sweep is {diff:.3g} off the direct one"
        return None


def configs_equal(a: model.MechanismConfig, b: model.MechanismConfig) -> bool:
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name not in ANGLE_FIELDS:
            if x != y:
                return False
            continue
        xs, ys = (x, y) if isinstance(x, tuple) else ((x,), (y,))
        if len(xs) != len(ys) or any(
            abs(u - v) > ANGLE_ROUND_TRIP_REL_TOL * max(abs(u), abs(v)) for u, v in zip(xs, ys)
        ):
            return False
    return True


class DesignLoop:
    """One op calibrates base_config to seeded targets, re-checks it and saves/loads it."""

    name = "design_loop"
    warmup_input = (20.0, 0.40, -88.0)
    trace_ops = 100 * BLOCK
    tail_percentile = 95.0

    def __init__(self, workdir: Path):
        self.base = cli.load_config(lbvt.base_config_path())
        self.path = workdir / "calibrated.json"

    def blocks(self, seed: int):
        return _lhs_blocks(np.random.default_rng(seed), (10.0, 0.20, -130.0), (30.0, 0.40, -50.0))

    def op(self, inp):
        trigger, ratio_step, theta_deg = inp
        theta = math.radians(theta_deg)
        calibrated = analysis.calibrate(self.base, trigger, ratio_step, theta)
        violations = model.validate_config(calibrated)
        f_trigger = equilibrium.triggering_force(calibrated, theta)
        step = analysis.ratio_step_direct(calibrated, theta)
        cli.save_config(calibrated, self.path)
        again = cli.load_config(self.path)
        return calibrated, violations, f_trigger, step, again

    def check(self, inp, out) -> str | None:
        trigger, ratio_step, _ = inp
        calibrated, violations, f_trigger, step, again = out
        if violations:
            return "calibrated config fails validation: " + "; ".join(violations)
        if not abs(f_trigger - trigger) <= analysis.TRIGGER_TOL:
            return f"triggering force {f_trigger:.4f} N misses the {trigger:.4f} N target"
        if not abs(step - ratio_step) <= analysis.RATIO_STEP_TOL:
            return f"ratio step {step:.5f} misses the {ratio_step:.5f} target"
        if not configs_equal(calibrated, again):
            return "save/load round trip changed the config"
        return None


WORKLOADS = {w.name: w for w in (SolveRandom, SweepStudy, DesignLoop)}
