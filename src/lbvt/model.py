"""Core types, unit conventions and validation for the variable-transmission knee.

Everything is SI internally: metres, newtons, newton-metres, radians.
Degrees appear only in config files and at the command line.

Sign conventions:
  * The knee (KFE) angle theta is the angle between the upper- and lower-leg
    centerlines, negative in flexion; the working range lies in (-pi, 0].
  * Chain deflections are measured from the closed configuration and are
    non-negative; opening a joint increases its deflection.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np


class GeometryError(ValueError):
    """Requested configuration cannot be assembled (closure infeasible, bad lever)."""


class SingularityError(GeometryError):
    """Linkage is at a transmission singularity; the force map is unbounded."""


class NoTriggerError(GeometryError):
    """No chain joint can be loaded toward opening; a triggering force does not exist."""


class CalibrationError(RuntimeError):
    """A calibration target cannot be met within the searchable parameter range."""


class GridSizeError(ValueError):
    """A brute-force deflection grid would exceed the allowed node budget."""


class ConfigError(ValueError):
    """A config file failed parsing, schema checks, or validation."""


class Regime(enum.Enum):
    """Contact regime of one chain joint."""

    CLOSED = "closed"      # resting on the pre-tension stop, deflection exactly 0
    ACTIVE = "active"      # torque balance against the spring, 0 < deflection < limit
    END_STOP = "end_stop"  # resting on the travel stop, deflection exactly at the limit

    def code(self) -> str:
        return {"closed": "C", "active": "A", "end_stop": "E"}[self.value]


@dataclass(frozen=True)
class MechanismConfig:
    """Geometric and elastic parameters of the linkage, actuator and spring chain.

    The four-bar frame link l1 runs from the knee joint to the ground pivot of
    the input bar; l2 is the input bar, l3 the coupler. The output lever is the
    spring chain itself: l_offset and beta place the chain anchor on the lower
    leg, segments/phi define the closed chain shape, and joint_open_limit gives
    the end-stop travel of each joint. Angle fields are radians here; the JSON
    schema stores them in degrees.
    """

    l1: float
    l2: float
    l3: float
    actuator_base: tuple[float, float]
    actuator_attach_ratio: float
    l_offset: float
    beta: float
    segments: tuple[float, ...]
    phi: tuple[float, ...]
    alpha_preload: float
    k_spring: float
    springs_per_joint: int
    spring_arm_length: float
    joint_open_limit: tuple[float, ...]
    theta_min: float
    theta_max: float
    branch_sign: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "actuator_base", tuple(float(v) for v in self.actuator_base))
        object.__setattr__(self, "segments", tuple(float(v) for v in self.segments))
        object.__setattr__(self, "phi", tuple(float(v) for v in self.phi))
        object.__setattr__(self, "joint_open_limit", tuple(float(v) for v in self.joint_open_limit))

    @property
    def n_joints(self) -> int:
        return len(self.segments)

    def with_updates(self, **changes) -> "MechanismConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class ChainState:
    """Spring-chain deflections plus the geometry derived from them.

    deflection[k] is the opening of joint k from the closed shape, in
    [0, joint_open_limit[k]]. tip is the chain end point in the lower-leg
    frame, l4 its distance from the knee joint, diameter its distance from
    the anchor. moment_arm[k] is the joint-to-tip distance and gamma[k] the
    signed angle from that ray to the applied tip-force direction (the
    perpendicular of the knee-to-tip ray), so that each joint torque equals
    moment_arm * sin(gamma) * tip force.
    """

    deflection: tuple[float, ...]
    regime: tuple[Regime, ...]
    tip: tuple[float, float]
    l4: float
    diameter: float
    moment_arm: tuple[float, ...]
    gamma: tuple[float, ...]
    theta_l4: float


@dataclass(frozen=True)
class LinkageState:
    """Solved four-bar closure at one knee angle and lever length.

    joints holds the four pivot positions in the upper-leg frame:
    (knee, ground pivot, input/coupler joint, lever tip). jacobian is the
    derivative of actuator length with respect to the knee angle at fixed
    lever length; knee torque is jacobian times actuator force.
    """

    theta: float
    joints: tuple[tuple[float, float], ...]
    actuator_length: float
    jacobian: float
    branch: int


@dataclass(frozen=True)
class EquilibriumResult:
    """Converged chain state with the resulting torque, tip force and ratio."""

    chain: ChainState
    kfe_torque: float
    tip_force: float
    transmission_ratio: float
    input_force: float
    converged: bool
    residual: float
    iterations: int


@dataclass(frozen=True)
class SweepTable:
    """Ordered records from a parameter sweep.

    columns carry units in parentheses, e.g. "f_cyl (N)". The first column is
    the independent variable; rows are sorted strictly increasing in it.
    Cells are floats except for free-form string columns such as regime codes.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )
        xs = [row[0] for row in self.rows]
        for a, b in zip(xs, xs[1:]):
            if not b > a:
                raise ValueError(f"independent column not strictly increasing: {a!r} -> {b!r}")

    @property
    def independent(self) -> str:
        return self.columns[0]

    def column(self, name: str) -> tuple:
        """Values of one column; raises KeyError with the available names."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"unknown column {name!r}; available: {', '.join(self.columns)}")
        return tuple(row[idx] for row in self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def per_joint_stiffness(config: MechanismConfig) -> float:
    """Torsional stiffness of one chain joint: parallel springs add."""
    return config.springs_per_joint * config.k_spring


def total_stiffness(config: MechanismConfig) -> float:
    """Series stiffness of the whole chain, 1/k_total = sum of 1/k_joint."""
    k_joint = per_joint_stiffness(config)
    if k_joint <= 0.0:
        raise ConfigError(f"per-joint stiffness must be positive, got {k_joint}")
    return 1.0 / (config.n_joints / k_joint)


def validate_config(config: MechanismConfig) -> list[str]:
    """Check every config invariant; returns human-readable violations, empty if valid.

    Deterministic and side-effect free. Every number must be finite; a NaN or
    infinite field is reported by name (with its index in a tuple field).
    Closure solvability is grid-checked over the knee range at both the closed
    and the fully-open lever length.
    """
    v: list[str] = []

    # getattr, not vars(config): building the instance dict slows every later
    # attribute read of this config in the kernels
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            if not all(map(math.isfinite, value)):
                v.extend(f"{f.name}[{i}] must be finite, got {x}"
                         for i, x in enumerate(value) if not math.isfinite(x))
        elif isinstance(value, float) and not math.isfinite(value):  # ints are finite
            v.append(f"{f.name} must be finite, got {value}")

    for name in ("l1", "l2", "l3", "l_offset", "spring_arm_length"):
        value = getattr(config, name)
        if not (value > 0.0):
            v.append(f"{name} must be strictly positive, got {value}")

    n = len(config.segments)
    if n < 1:
        v.append("segments must contain at least one entry")
    if len(config.phi) != n:
        v.append(f"phi has {len(config.phi)} entries, expected {n} (one per segment)")
    if len(config.joint_open_limit) != n:
        v.append(
            f"joint_open_limit has {len(config.joint_open_limit)} entries, expected {n}"
        )
    for i, s in enumerate(config.segments):
        if not (s > 0.0):
            v.append(f"segments[{i}] must be strictly positive, got {s}")
    for i, lim in enumerate(config.joint_open_limit):
        if lim < 0.0:
            v.append(f"joint_open_limit[{i}] must be non-negative, got {lim}")

    if config.springs_per_joint < 1:
        v.append(f"springs_per_joint must be at least 1, got {config.springs_per_joint}")
    if not (config.k_spring > 0.0):
        v.append(f"k_spring must be strictly positive, got {config.k_spring}")
    if config.alpha_preload < 0.0:
        v.append(f"alpha_preload must be non-negative, got {config.alpha_preload}")

    if not (0.0 <= config.actuator_attach_ratio <= 1.0):
        v.append(
            f"actuator_attach_ratio must lie in [0, 1], got {config.actuator_attach_ratio}"
        )
    if config.branch_sign not in (1, -1):
        v.append(f"branch_sign must be +1 or -1, got {config.branch_sign}")

    if not (config.theta_min < config.theta_max):
        v.append(
            f"knee range is degenerate: theta_min {config.theta_min} must be "
            f"below theta_max {config.theta_max}"
        )
    for name in ("theta_min", "theta_max"):
        value = getattr(config, name)
        if not (-math.pi < value <= 0.0):
            v.append(f"{name} must lie in (-pi, 0], got {value}")

    # Closure feasibility across the knee range only makes sense once the
    # basic geometry above is sound.
    if not v:
        v.extend(_closure_violations(config))
    return v


def _closure_violations(config: MechanismConfig) -> list[str]:
    """Closure check at 181 knee angles, one kernel call per lever state.

    Runs the solver's own closure kernel over the sampled range, so any
    GeometryError a solve at those angles and lever lengths would raise
    (lever, circle intersection, singularity, actuator) is reported here.
    """
    from . import chain as _chain, linkage as _linkage  # deferred: import cycle

    out: list[str] = []
    zero = (0.0,) * config.n_joints
    bearing_closed = _chain.tip_bearing(config, zero)
    n_samples = 181
    thetas = (
        config.theta_min
        + (config.theta_max - config.theta_min) * np.arange(n_samples) / (n_samples - 1)
    )
    for label, d in (("closed", zero), ("fully open", config.joint_open_limit)):
        l4 = _chain.l4_length(config, d)
        try:
            _linkage._closure_kernel(config, thetas, l4, bearing_closed, np)
        except GeometryError as exc:
            out.append(f"four-bar closure fails with the {label} lever: {exc}")
    return out
