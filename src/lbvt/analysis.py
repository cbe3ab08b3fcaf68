"""Sweep harnesses, calibration against scalar design targets, and emitters.

Sweeps sample a closed ladder from the range start: start + k*step while it
fits, then the range end is snapped onto the last sample when it lands within
half a step, appended otherwise. Angle sweeps record the knee angle in
degrees (the presentation unit); everything else is SI. Every sweep solves
its samples in order, one row per sample. A sample whose closure cannot
assemble (GeometryError) or whose solve did not converge is kept as a row
with NaN values, regimes "-" and feasible 0.
"""

from __future__ import annotations

import functools
import math

from . import chain, equilibrium, linkage
from .model import (CalibrationError, GeometryError, MechanismConfig, SweepTable,
                    per_joint_stiffness, validate_config)

TRIGGER_TOL = 0.05   # N, calibration tolerance on the triggering force
RATIO_STEP_TOL = 0.005  # calibration tolerance on the ratio step


def sample_ladder(start: float, stop: float, step: float) -> list[float]:
    """Sweep abscissae: start + k*step, end snapped or appended; stop >= start."""
    if not (step > 0.0):
        raise ValueError(f"step must be positive, got {step}")
    for name, value in (("start", start), ("stop", stop)):
        if not math.isfinite(value):
            raise ValueError(f"range {name} must be finite, got {value}")
    if stop < start:
        raise ValueError(f"range end {stop} below start {start}")
    count = int(math.floor((stop - start) / step + 1e-9))
    xs = [start + i * step for i in range(count + 1)]
    if count >= 1 and xs[-1] != stop:
        if stop - xs[-1] < 0.5 * step:
            xs[-1] = stop
        else:
            xs.append(stop)
    return xs


def _regime_code(state) -> str:
    return "".join(r.code() for r in state.regime)


def _sweep(columns, samples, point, record=lambda x: x) -> SweepTable:
    """Rows of (record(x), *values, regime code, feasible) for each sample x.

    columns names the abscissa and the values; the regime and feasibility
    columns are appended. point(x) returns the equilibrium result and the
    row's values. A sample that raises GeometryError or does not converge
    gets NaN values, regimes "-" and feasible 0.
    """
    failed = (math.nan,) * (len(columns) - 1) + ("-", 0.0)
    rows = []
    for x in samples:
        try:
            res, values = point(x)
        except GeometryError:
            res = None
        if res is not None and res.converged:
            rows.append((record(x), *values, _regime_code(res.chain), 1.0))
        else:
            rows.append((record(x), *failed))
    return SweepTable(columns=columns + ("regimes (-)", "feasible (-)"), rows=rows)


def _force_sweep(config, theta, f_from, f_to, step, columns, values) -> SweepTable:
    """Sweep the actuator force at one knee angle; values(f, res, jac_closed) fills a row.

    jac_closed() is the closed-lever jacobian at theta, computed on first use.
    """
    if f_from < 0.0:
        raise ValueError(f"force range must be non-negative, got start {f_from}")
    jac_closed = functools.cache(
        lambda: linkage.jacobian(config, theta, chain.closed_lever(config))
    )

    def point(f: float):
        res = equilibrium.solve_equilibrium(config, theta, f)
        return res, values(f, res, jac_closed)

    return _sweep(("f_cyl (N)",) + columns, sample_ladder(f_from, f_to, step), point)


def sweep_torque_vs_angle(
    config: MechanismConfig,
    f_cyl: float,
    theta_from: float,
    theta_to: float,
    step: float,
) -> SweepTable:
    """Knee torque across the flexion range, with and without the opening chain.

    The rigid baseline keeps the lever at its closed length. Samples where the
    closure cannot assemble are flagged infeasible and kept in the table.
    """
    l4_closed = chain.closed_lever(config)

    def point(theta: float):
        res = equilibrium.solve_equilibrium(config, theta, f_cyl)
        rigid = linkage.kfe_torque(config, theta, l4_closed, f_cyl)
        return res, (res.kfe_torque, rigid, res.tip_force, res.chain.l4,
                     res.transmission_ratio)

    return _sweep(
        ("theta (deg)", "torque_lbvt (Nm)", "torque_rigid (Nm)", "tip_force (N)",
         "l4 (m)", "ratio (m)"),
        sample_ladder(theta_from, theta_to, step),
        point,
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
        lambda f, res, jac_closed: (res.kfe_torque, jac_closed() * f),
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
        lambda f, res, jac_closed: (res.transmission_ratio, jac_closed()),
    )


def ratio_step_direct(config: MechanismConfig, theta: float) -> float:
    """Fully-open over closed transmission ratio minus one, straight from geometry."""
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
    chain is evaluated once: a trial preload costs one division, and a trial
    travel scale one jacobian at the scaled open lever (the jacobian does not
    read the travel limits). A non-finite target or theta raises ValueError.
    """
    for name, value in (("target_trigger", target_trigger),
                        ("target_ratio_step", target_ratio_step), ("theta", theta)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if target_trigger < 0.0 or target_ratio_step < 0.0:
        raise ValueError("calibration targets must be non-negative")

    cfg = config
    alpha = 0.0
    if target_trigger != 0.0:
        a_max = equilibrium._trigger_torque(cfg, theta)
        def trigger_at(preload: float) -> float:
            return per_joint_stiffness(cfg) * preload / a_max

        hi = max(cfg.alpha_preload, 0.05)
        for _ in range(64):
            if trigger_at(hi) >= target_trigger:
                break
            hi *= 2.0
        else:
            raise CalibrationError(
                f"trigger target {target_trigger} N unreachable: preload {hi} rad "
                f"yields only {trigger_at(hi):.3f} N"
            )
        alpha = _bisect(trigger_at, target_trigger, hi, TRIGGER_TOL,
                        "trigger bisection did not settle within {tol} N "
                        "(bracket [{lo}, {hi}] rad)")
    cfg = cfg.with_updates(alpha_preload=alpha)

    limits = (0.0,) * cfg.n_joints
    if target_ratio_step != 0.0:
        j_closed = linkage.jacobian(cfg, theta, chain.closed_lever(cfg))
        def step_at(scale: float) -> float:
            l4 = chain.l4_length(cfg, tuple(scale * lim for lim in cfg.joint_open_limit))
            return linkage.jacobian(cfg, theta, l4) / j_closed - 1.0

        full = step_at(1.0)
        if full < target_ratio_step - RATIO_STEP_TOL:
            raise CalibrationError(
                f"ratio-step target {target_ratio_step} unreachable: full travel "
                f"yields only {full:.4f}"
            )
        scale = _bisect(step_at, target_ratio_step, 1.0, RATIO_STEP_TOL,
                        "ratio-step bisection did not settle within {tol} (bracket [{lo}, {hi}])")
        limits = tuple(scale * lim for lim in cfg.joint_open_limit)
    cfg = cfg.with_updates(joint_open_limit=limits)

    violations = validate_config(cfg)
    if violations:
        raise CalibrationError(
            "calibrated config failed validation: " + "; ".join(violations)
        )
    return cfg


def _format_cell(value) -> str:
    if isinstance(value, str):
        if any(ch in value for ch in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    return format(float(value), ".9g")


def emit_csv(table: SweepTable, destination) -> int:
    """Write the table as CSV (9 significant digits, LF endings); returns bytes written."""
    if len(table) == 0:
        raise ValueError("refusing to emit an empty sweep table")
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    with open(destination, "wb") as fh:
        fh.write(payload)
    return len(payload)


def read_csv(path) -> SweepTable:
    """Parse a table previously written by emit_csv (test and demo helper)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    columns = tuple(lines[0].split(","))
    rows = []
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(tuple(cells))
    return SweepTable(columns=columns, rows=rows)


_PALETTE = ("#1f6fb4", "#d1495b", "#2e8b57", "#b8860b", "#6a5acd", "#444444")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    if span <= 0.0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def emit_svg_plot(table: SweepTable, x_column: str, y_columns, destination) -> int:
    """Self-contained SVG line plot of the named columns; returns bytes written.

    Deterministic output: identical tables give identical bytes. Non-finite
    points (flagged infeasible samples) are skipped.
    """
    y_columns = list(y_columns)
    if len(table) < 2:
        raise ValueError("need at least two records to plot")
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
    y_lo, y_hi = min(finite_y), max(finite_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        pad = max(abs(y_lo) * 0.1, 1.0)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

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

    for t in _nice_ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{mt + ph:.2f}" x2="{px:.2f}" '
            f'y2="{mt + ph + 5:.2f}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{mt + ph + 18:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{t:.6g}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(
            f'<line x1="{ml - 5:.2f}" y1="{py:.2f}" x2="{ml:.2f}" '
            f'y2="{py:.2f}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 8:.2f}" y="{py + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{t:.6g}</text>'
        )

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
    payload = ("\n".join(parts) + "\n").encode("utf-8")
    with open(destination, "wb") as fh:
        fh.write(payload)
    return len(payload)
