"""Sweep harnesses, calibration against scalar design targets, and emitters.

Sweeps sample a closed ladder from the range start: start + k*step while it
fits, then the range end is snapped onto the last sample when it lands within
half a step, appended otherwise; a range shorter than one step yields only
its start. Angle sweeps record the knee angle in degrees (the presentation
unit); everything else is SI. Every sweep solves its samples in order, one
row per sample, in one loop, _sweep, which owns the solve, the warm start
and the failure rule. Each sample's solve starts from the last converged
state of the sweep (a quasi-static loading path moves in small steps),
falling back to the closed-state attempts when that warm start does not
converge. That state brings the load-map point its solve ended on, so a
warm start evaluates nothing (equilibrium._warm_start). A sample whose
closure cannot assemble (GeometryError) or whose solve did not converge is
kept as a row with NaN values, regimes "-" and feasible 0, computes no row
value, and leaves the carried state as it was.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math

from . import chain, equilibrium, linkage
from .config import _write
from .model import (CalibrationError, ConfigError, GeometryError, MechanismConfig, SweepTable,
                    _check_force, _check_theta, _read_argument, _read_finite,
                    per_joint_stiffness)

TRIGGER_TOL = 0.05   # N, calibration tolerance on the triggering force
RATIO_STEP_TOL = 0.005  # calibration tolerance on the ratio step
MAX_SAMPLES = 1_000_000  # per ladder; a sweep solves each sample, so more is a mistyped step


class _LadderError(ValueError):
    """A sample_ladder error that a caller can restate in the unit its user typed.

    template names start, stop and step, the ladder's arguments, and may name
    before, a sample, and count, a sample count.
    """

    def __init__(self, template: str, start, stop, step, before=None, count=None):
        self.template, self.before, self.count = template, before, count
        super().__init__(self.restate(start, stop, step, before))

    def restate(self, start, stop, step, before) -> str:
        return self.template.format(start=start, stop=stop, step=step, before=before,
                                    count=self.count)


def sample_ladder(start: float, stop: float, step: float) -> list[float]:
    """Sweep abscissae: start + k*step, end snapped or appended; stop >= start.

    A range shorter than one step yields only its start. Each argument is
    read first (model._read_argument). A step that is not positive and finite,
    a ladder of more than MAX_SAMPLES samples, or a step so small against the
    range that two samples coincide raises ValueError naming it.
    """
    start, stop, step = map(_read_argument, (start, stop, step), ("start", "stop", "step"))
    if not 0.0 < step < math.inf:
        raise _LadderError("step must be positive and finite, got {step}", start, stop, step)
    for name, value in (("start", start), ("stop", stop)):
        if not math.isfinite(value):
            raise _LadderError(f"range {name} must be finite, got {{{name}}}", start, stop, step)
    if stop < start:
        raise _LadderError("range end {stop} below start {start}", start, stop, step)
    # a float until checked: a tiny step makes it too large, or infinite, for an int
    steps = (stop - start) / step + 1e-9
    if steps + 1.0 > MAX_SAMPLES:
        raise _LadderError(
            "step {step} over [{start}, {stop}] asks for {count:.0f} samples "
            f"(limit {MAX_SAMPLES})", start, stop, step, count=steps + 1.0)
    count = math.floor(steps)
    xs = [start + i * step for i in range(count + 1)]
    if count >= 1 and xs[-1] != stop:
        if stop - xs[-1] < 0.5 * step:
            xs[-1] = stop
        else:
            xs.append(stop)
    for before, x in zip(xs, xs[1:]):
        if not x > before:  # a step below the float spacing at the range
            raise _LadderError("step {step} does not advance the range past {before}",
                               start, stop, step, before)
    return xs


def _sweep(config, columns, samples, load, values, record=lambda x: x) -> SweepTable:
    """Rows of (record(x), *values(x, res), regime code, feasible) for each sample x.

    columns names the abscissa and the values; the regime code (C, A or E
    per joint) and feasibility columns are appended. This loop is the one
    place a sweep solves: load(x) gives the sample's (theta, f_cyl), and the
    solve starts from the chain of the last converged row (none before the
    first), reusing the load-map point that row's solve ended on. A sample
    that raises GeometryError or does not converge gets NaN values, regimes
    "-" and feasible 0 before values is called, and the start stays as it
    was; values(x, res) fills only a converged row.
    """
    failed = (math.nan,) * (len(columns) - 1) + ("-", 0.0)
    rows = []
    start = None
    for x in samples:
        try:
            res = equilibrium.solve_equilibrium(config, *load(x), start=start)
        except GeometryError:
            res = None
        if res is not None and res.converged:
            start = res.chain
            code = "".join(r.name[0] for r in res.chain.regime)
            rows.append((record(x), *values(x, res), code, 1.0))
        else:
            rows.append((record(x), *failed))
    return SweepTable(columns=columns + ("regimes (-)", "feasible (-)"), rows=rows)


def _force_sweep(config, theta, f_from, f_to, step, columns, values) -> SweepTable:
    """Sweep the actuator force at one knee angle; values(f, res, jac_closed) fills a row.

    jac_closed is the closed-lever jacobian at theta, computed once, after
    the force range and theta are checked. f_from is the ladder's start.
    """
    f_from = _read_argument(f_from, "start")
    if f_from < 0.0:
        raise ValueError(f"force range must be non-negative, got start {f_from}")
    forces = sample_ladder(f_from, f_to, step)
    theta = _check_theta(config, theta)
    jac_closed = linkage.jacobian(config, theta, chain.closed_lever(config))
    return _sweep(config, ("f_cyl (N)",) + columns, forces, lambda f: (theta, f),
                  lambda f, res: values(f, res, jac_closed))


def sweep_torque_vs_angle(
    config: MechanismConfig,
    f_cyl: float,
    theta_from: float,
    theta_to: float,
    step: float,
) -> SweepTable:
    """Knee torque across the flexion range, with and without the opening chain.

    The rigid baseline keeps the lever at its closed length. Samples where the
    closure cannot assemble are flagged infeasible and kept in the table. A
    negative, infinite or NaN f_cyl, or a refused kind, raises ValueError before any solve.
    """
    f_cyl = _check_force(f_cyl)
    l4_closed = chain.closed_lever(config)
    return _sweep(
        config,
        ("theta (deg)", "torque_lbvt (Nm)", "torque_rigid (Nm)", "tip_force (N)",
         "l4 (m)", "ratio (m)"),
        sample_ladder(theta_from, theta_to, step),
        lambda theta: (theta, f_cyl),
        lambda theta, res: (res.kfe_torque, linkage.jacobian(config, theta, l4_closed) * f_cyl,
                            res.tip_force, res.chain.l4, res.transmission_ratio),
        record=math.degrees,
    )


def sweep_trigger(
    config: MechanismConfig,
    theta: float,
    f_from: float,
    f_to: float,
    step: float,
) -> SweepTable:
    """Chain diameter and lever length against actuator force at one knee angle."""
    return _force_sweep(
        config, theta, f_from, f_to, step, ("diameter (m)", "l4 (m)"),
        lambda f, res, jac_closed: (res.chain.diameter, res.chain.l4),
    )


def sweep_torque_vs_force(
    config: MechanismConfig,
    theta: float,
    f_from: float,
    f_to: float,
    step: float,
) -> SweepTable:
    """Knee torque against actuator force, with the rigid baseline alongside."""
    return _force_sweep(
        config, theta, f_from, f_to, step, ("torque_lbvt (Nm)", "torque_rigid (Nm)"),
        lambda f, res, jac_closed: (res.kfe_torque, jac_closed * f),
    )


def sweep_ratio_vs_force(
    config: MechanismConfig,
    theta: float,
    f_from: float,
    f_to: float,
    step: float,
) -> SweepTable:
    """Transmission ratio against actuator force; zero force uses the closed-lever limit."""
    return _force_sweep(
        config, theta, f_from, f_to, step, ("ratio (m)", "ratio_rigid (m)"),
        lambda f, res, jac_closed: (res.transmission_ratio, jac_closed),
    )


def ratio_step_direct(config: MechanismConfig, theta: float) -> float:
    """Fully-open over closed transmission ratio minus one, straight from geometry."""
    theta = _check_theta(config, theta)
    j_closed = linkage.jacobian(config, theta, chain.closed_lever(config))
    j_open = linkage.jacobian(config, theta, chain.open_lever(config))
    return j_open / j_closed - 1.0


def ratio_step_from_sweep(table: SweepTable) -> float:
    """Ratio step measured off a ratio sweep table.

    Requires at least one all-closed record (the plateau) and one record with
    every joint on its end stop (full saturation).
    """
    ratios = table.column("ratio (m)")
    codes = table.column("regimes (-)")
    closed = next((r for r, c in zip(ratios, codes) if set(c) == {"C"}), None)
    saturated = next((r for r, c in zip(ratios, codes) if set(c) == {"E"}), None)
    if closed is None:
        raise ValueError("sweep has no fully-closed record; extend it below the trigger")
    if saturated is None:
        raise ValueError("sweep has no fully-saturated record; extend the force range")
    return saturated / closed - 1.0


def _bisect(f, target: float, hi: float, tol: float, unsettled: str) -> float:
    """First midpoint x of [0, hi] with |f(x) - target| <= tol, f rising; 200 halvings."""
    lo = 0.0
    for _ in range(200):
        x = 0.5 * (lo + hi)
        v = f(x)
        if abs(v - target) <= tol:
            return x
        if v < target:
            lo = x
        else:
            hi = x
    raise CalibrationError(unsettled.format(tol=tol, lo=lo, hi=hi))


def calibrate(
    config: MechanismConfig,
    target_trigger: float,
    target_ratio_step: float,
    theta: float,
) -> MechanismConfig:
    """Meet scalar targets by adjusting preload and end-stop travel.

    The preload angle is bisected until the triggering force lands within
    TRIGGER_TOL of target_trigger; the travel limits are then scaled uniformly
    until the open/closed ratio step lands within RATIO_STEP_TOL of
    target_ratio_step. The two knobs are independent: preload never moves the
    geometry and the travel scale never moves the closed state. So the closed
    chain is evaluated once and its lever comes with the config: a trial
    preload costs one division, and a trial travel scale one chain pass and
    one closure-kernel call at the scaled open lever (the lever points along
    config.lever_bearing, so no trial rebuilds the closed chain). A config
    is valid by construction and theta is checked on entry, so a trial runs
    no deflection check; the trial lever is still read finite, since finite
    fields can still overflow a float in the chain's sum. The one new config
    is built at the end; a build that refuses it raises CalibrationError
    listing the violations. A target or theta of a refused kind
    (model._read_finite), not finite, or a theta outside the config's range
    raises ValueError. A trigger target that one turn of preload, the most a
    config may hold, cannot reach raises CalibrationError.
    """
    target_trigger = _read_finite(target_trigger, "target_trigger")
    target_ratio_step = _read_finite(target_ratio_step, "target_ratio_step")
    theta = _check_theta(config, theta)
    if target_trigger < 0.0 or target_ratio_step < 0.0:
        raise ValueError("calibration targets must be non-negative")

    alpha = 0.0
    if target_trigger != 0.0:
        a_max = equilibrium._trigger_torque(config, theta)
        def trigger_at(preload: float) -> float:
            return per_joint_stiffness(config) * preload / a_max

        turn = 2.0 * math.pi  # a config's preload cap: the doublings stop there
        hi = max(config.alpha_preload, 0.05)
        while trigger_at(hi) < target_trigger:
            if hi == turn:
                raise CalibrationError(
                    f"trigger target {target_trigger} N unreachable: preload {hi} rad "
                    f"yields only {trigger_at(hi):.3f} N"
                )
            hi = min(2.0 * hi, turn)
        alpha = _bisect(trigger_at, target_trigger, hi, TRIGGER_TOL,
                        "trigger bisection did not settle within {tol} N "
                        "(bracket [{lo}, {hi}] rad)")

    limits = (0.0,) * config.n_joints
    if target_ratio_step != 0.0:
        j_closed = linkage.jacobian(config, theta, chain.closed_lever(config))
        def step_at(scale: float) -> float:
            # scale * lim lies in [0, lim]: no deflection check can fail
            _, tip = chain._geometry(config, [scale * lim for lim in config.joint_open_limit])
            l4 = _read_finite(math.hypot(*tip), "l4")
            return linkage._closure_kernel(config, theta, l4)[4] / j_closed - 1.0

        full = step_at(1.0)
        if full < target_ratio_step - RATIO_STEP_TOL:
            raise CalibrationError(
                f"ratio-step target {target_ratio_step} unreachable: full travel "
                f"yields only {full:.4f}"
            )
        scale = _bisect(step_at, target_ratio_step, 1.0, RATIO_STEP_TOL,
                        "ratio-step bisection did not settle within {tol} (bracket [{lo}, {hi}])")
        limits = tuple(scale * lim for lim in config.joint_open_limit)
    # the ratio search never reads the preload, so one config takes both knobs
    try:
        return dataclasses.replace(config, alpha_preload=alpha, joint_open_limit=limits)
    except ConfigError as exc:
        raise CalibrationError(
            "calibrated config failed validation: " + "; ".join(exc.violations)
        ) from None


def emit_csv(table: SweepTable, destination) -> int:
    """Write the table as CSV (9 significant digits, LF endings); returns bytes written.

    Abscissae that 9 digits cannot tell apart (a range a few ulps wide) take
    the fewest digits, at most 17, at which they read back strictly
    increasing. A string cell holding a comma, a double quote or a line break
    is quoted.
    """
    if len(table) == 0:
        raise ValueError("refusing to emit an empty sweep table")
    rows = [[v if isinstance(v, str) else format(float(v), ".9g") for v in row]
            for row in table.rows]
    digits = 9
    while digits < 17 and not all(_cell(a[0]) < _cell(b[0]) for a, b in zip(rows, rows[1:])):
        digits += 1
        for row, cells in zip(rows, table.rows):
            row[0] = format(float(cells[0]), f".{digits}g")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(rows)
    return _write(destination, buf.getvalue())


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path) -> SweepTable:
    """Parse a table written by emit_csv; cells that read as numbers become floats."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        columns, *rows = csv.reader(fh)
    return SweepTable(columns=columns, rows=[map(_cell, row) for row in rows])


_PALETTE = ("#1f6fb4", "#d1495b", "#2e8b57", "#b8860b", "#6a5acd", "#444444")


_TICKS = 5  # target tick count per axis


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Distinct multiples k*step of a 1-2-5 step in [lo, hi]; hi > lo."""
    span = hi - lo
    raw = span / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    # a subnormal span can underflow the 1-2-5 step to 0; the span itself then steps
    step = next((m * mag for m in (1.0, 2.0, 5.0) if raw <= m * mag), 10.0 * mag) or span
    slack = 1e-9 * span
    ticks = []
    # the integer range is fixed up front, so a step below the ulp of lo cannot
    # stall it; across a few ulps, neighbouring multiples round to one float or
    # past the axis, and those are dropped
    for k in range(math.ceil(lo / step), math.floor((hi + slack) / step) + 1):
        t = k * step
        if lo - slack <= t <= hi + slack and (not ticks or t > ticks[-1]):
            ticks.append(t)
    return ticks


def _labels(ticks) -> list[str]:
    """Tick labels to 6 significant digits, or the fewest (at most 17) that tell them apart."""
    for digits in range(6, 18):
        labels = [format(t, f".{digits}g") for t in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def _tick(x1, y1, x2, y2, tx, ty, anchor, label) -> list[str]:
    """The mark from (x1, y1) to (x2, y2) and the label at (tx, ty) of one axis tick."""
    return [
        f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
        f'y2="{y2:.2f}" stroke="#333333" stroke-width="1"/>',
        f'<text x="{tx:.2f}" y="{ty:.2f}" font-family="sans-serif" '
        f'font-size="11" text-anchor="{anchor}">{label}</text>',
    ]


def emit_svg_plot(table: SweepTable, y_columns, destination) -> int:
    """Self-contained SVG line plot of the named columns; returns bytes written.

    The x axis is the table's independent column. Deterministic output:
    identical tables give identical bytes. Non-finite points (flagged
    infeasible samples) are skipped. Tick labels carry 6 significant digits,
    or on an axis where those repeat the fewest that tell them apart. An
    axis whose width, margin included, overflows a float raises ValueError.
    """
    y_columns = list(y_columns)
    if len(table) < 2:
        raise ValueError("need at least two records to plot")
    x_column = table.independent
    xs = [float(v) for v in table.column(x_column)]
    series = {name: [float(v) for v in table.column(name)] for name in y_columns}

    width, height = 720.0, 480.0
    ml, mr, mt, mb = 76.0, 20.0, 20.0, 52.0
    pw, ph = width - ml - mr, height - mt - mb

    finite_x = [x for x in xs if math.isfinite(x)]
    finite_y = [v for ys in series.values() for v in ys if math.isfinite(v)]
    if not finite_x or not finite_y:
        raise ValueError("no finite data points to plot")
    x_lo, x_hi = min(finite_x), max(finite_x)
    y_min, y_max = min(finite_y), max(finite_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    pad = max(abs(y_min) * 0.1, 1.0) if y_max == y_min else 0.05 * (y_max - y_min)
    y_lo, y_hi = y_min - pad, y_max + pad
    for axis, lo, hi, span in (("x", x_lo, x_hi, x_hi - x_lo), ("y", y_min, y_max, y_hi - y_lo)):
        if not math.isfinite(span):
            raise ValueError(f"cannot plot a {axis} axis spanning [{lo}, {hi}]: "
                             "the axis width overflows a float")

    def sx(x: float) -> float:
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y: float) -> float:
        return mt + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:g}" height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="#ffffff"/>',
        f'<rect x="{ml:.2f}" y="{mt:.2f}" width="{pw:.2f}" height="{ph:.2f}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    ticks = _nice_ticks(x_lo, x_hi)
    for t, label in zip(ticks, _labels(ticks)):
        px = sx(t)
        parts += _tick(px, mt + ph, px, mt + ph + 5, px, mt + ph + 18, "middle", label)
    ticks = _nice_ticks(y_lo, y_hi)
    for t, label in zip(ticks, _labels(ticks)):
        py = sy(t)
        parts += _tick(ml - 5, py, ml, py, ml - 8, py + 4, "end", label)

    parts.append(
        f'<text x="{ml + pw / 2:.2f}" y="{height - 12:.2f}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">{x_column}</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.2f}" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {mt + ph / 2:.2f})">'
        f'{" / ".join(y_columns)}</text>'
    )

    for idx, name in enumerate(y_columns):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = [
            f"{sx(x):.2f},{sy(y):.2f}"
            for x, y in zip(xs, series[name])
            if math.isfinite(x) and math.isfinite(y)
        ]
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"/>'
        )
        ly = mt + 16 + 16 * idx
        lx = ml + pw - 160
        parts.append(
            f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 22:.2f}" y2="{ly - 4:.2f}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{lx + 28:.2f}" y="{ly:.2f}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )

    parts.append("</svg>")
    return _write(destination, "\n".join(parts) + "\n")
