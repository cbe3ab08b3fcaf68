"""Core types, unit conventions and validation for the variable-transmission knee.

Everything is SI internally: metres, newtons, newton-metres, radians.
Degrees appear only in config files and at the command line.

Sign conventions:
  * The knee (KFE) angle theta is the angle between the upper- and lower-leg
    centerlines, negative in flexion; the working range lies in (-pi, 0].
  * Chain deflections are measured from the closed configuration and are
    non-negative; opening a joint increases its deflection.

All types are immutable after construction and safe to share across threads.

Number arguments are read and checked here (_read_argument, _read_finite,
_check_force, _check_theta), beside the validity gate _require_valid; the
closure check that validation runs lives with its kernel, in linkage.py.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields


class GeometryError(ValueError):
    """Requested configuration cannot be assembled (closure infeasible, bad lever)."""


class SingularityError(GeometryError):
    """Linkage is at a transmission singularity; the force map is unbounded."""


class NoTriggerError(GeometryError):
    """No chain joint can be loaded toward opening; a triggering force does not exist."""


class CalibrationError(RuntimeError):
    """A calibration target cannot be met within the searchable parameter range."""


class ConfigError(ValueError):
    """A config file failed parsing, schema checks, or validation."""


class Regime(enum.Enum):
    """Contact regime of one chain joint."""

    CLOSED = "closed"      # resting on the pre-tension stop, deflection exactly 0
    ACTIVE = "active"      # torque balance against the spring, 0 < deflection < limit
    END_STOP = "end_stop"  # resting on the travel stop, deflection exactly at the limit


@dataclass(frozen=True)
class MechanismConfig:
    """Geometric and elastic parameters of the linkage, actuator and spring chain.

    The four-bar frame link l1 runs from the knee joint to the ground pivot of
    the input bar; l2 is the input bar, l3 the coupler. The output lever is the
    spring chain itself: l_offset and beta place the chain anchor on the lower
    leg, segments/phi define the closed chain shape, and joint_open_limit gives
    the end-stop travel of each joint. alpha_preload, the pre-tension
    winding of each joint, lies in [0, 2*pi]: at most one turn of a torsion
    spring.
    These fields and their annotations are the config file schema (config.py
    reads each by its annotation); angles are radians here, degrees in the file.

    lever_bearing is derived, not a field: the polar angle of the closed
    chain tip seen from the knee, in the lower-leg frame, along which the
    output lever points. It is set once at construction, so it is neither
    saved nor compared. So are the closed and the fully open lever,
    _closed_lever and _open_lever: the l4 of chain.make_chain_state at zero
    and at full travel (read them through chain.closed_lever and
    chain.open_lever).
    Nor is _violations, validate_config's verdict as a tuple, nor are the
    kernels' config-only terms (chain._chain_terms and
    linkage._closure_terms). One pass reads every field as config.py reads
    its value in a file (_FIELD_READERS), and keeps a value its reader
    already accepts as the very object given: an int or a float subclass in
    a float field becomes a float, a list a tuple of floats; a string, a
    bool, a numpy scalar that is not a float, a sequence that is not a list
    or tuple, and a NaN or infinite number are violations, in field order.
    Only when the pass found none do the checks of _field_violations run;
    only a config that passes both gets its kernel terms, bearing and levers
    (otherwise no terms, and NaN and None, which no entry reads, since every
    entry refuses an invalid config), and then linkage's closure check,
    which reads them. dataclasses.replace makes a modified copy, which recomputes
    the terms, the bearing, both levers and the verdict.
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
    joint_open_limit: tuple[float, ...]
    theta_min: float
    theta_max: float
    branch_sign: int = 1

    def __post_init__(self) -> None:
        violations = []  # each refused field and each non-finite number, in field order
        for name, read in _FIELD_READERS:
            raw = getattr(self, name)
            try:
                value = read(raw, name)  # raw itself when it is already what read returns
            except ConfigError as exc:
                violations.append(str(exc))
                continue
            if value is not raw:
                object.__setattr__(self, name, value)
            if read is _require_number:
                if not math.isfinite(value):
                    violations.append(f"{name} must be finite, got {value}")
            elif read is not _require_int and not all(map(math.isfinite, value)):
                violations.extend(f"{name}[{i}] must be finite, got {x}"
                                  for i, x in enumerate(value) if not math.isfinite(x))
        if not violations:  # a malformed or non-finite number would break or fail the checks
            violations = _field_violations(self)
        bearing, closed_lever, open_lever = math.nan, None, None
        if not violations:  # finite numbers, one phi and one non-negative limit per joint
            for name, value in {**_chain._chain_terms(self),
                                **_linkage._closure_terms(self)}.items():
                object.__setattr__(self, name, value)
            _, (x, y) = _chain._geometry(self, (0.0,) * self.n_joints)
            bearing, closed_lever = math.atan2(y, x), math.hypot(x, y)
            open_lever = math.hypot(*_chain._geometry(self, self.joint_open_limit)[1])
        object.__setattr__(self, "lever_bearing", bearing)
        object.__setattr__(self, "_closed_lever", closed_lever)
        object.__setattr__(self, "_open_lever", open_lever)
        object.__setattr__(self, "_violations",
                           tuple(violations or _linkage._closure_violations(self)))

    @property
    def n_joints(self) -> int:
        return len(self.segments)


def _require_number(raw, path: str) -> float:
    if type(raw) is float:  # what a file holds, read as it is
        return raw
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(raw).__name__}")
    try:
        return float(raw)
    except OverflowError:  # an integer with too many digits for a float
        raise ConfigError(f"{path}: integer too large for a float") from None


def _require_int(raw, path: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{path}: expected an integer, got {type(raw).__name__}")
    return raw


def _require_number_list(raw, path: str) -> tuple[float, ...]:
    if not isinstance(raw, (list, tuple)):  # a tuple only from a config built in Python
        raise ConfigError(f"{path}: expected a list of numbers, got {type(raw).__name__}")
    if all(type(v) is float for v in raw):  # what a file holds, read as it is
        return tuple(raw)
    return tuple(_require_number(v, f"{path}[{i}]") for i, v in enumerate(raw))


def _require_pair(raw, path: str) -> tuple[float, float]:
    pair = _require_number_list(raw, path)
    if len(pair) != 2:
        raise ConfigError(f"{path}: expected exactly two coordinates, got {len(pair)}")
    return pair


def _read_argument(raw, name: str, read=_require_number):
    """raw read by read, as a config file's value is; a refusal is a ValueError naming it."""
    try:
        return read(raw, name)
    except ConfigError as exc:  # an argument, not a config field
        raise ValueError(str(exc)) from None


def _read_finite(raw, name: str) -> float:
    """A number argument read by _read_argument, refused too when NaN or infinite."""
    value = _read_argument(raw, name)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _check_force(f_cyl: float, nan_ok: bool = False) -> float:
    """f_cyl, read by _read_argument; refused if negative, infinite, or NaN unless nan_ok."""
    f_cyl = _read_argument(f_cyl, "f_cyl")
    if not (0.0 <= f_cyl < math.inf or nan_ok and math.isnan(f_cyl)):
        raise ValueError(f"f_cyl must be non-negative and finite, got {f_cyl}")
    return f_cyl


class _AngleError(ValueError):
    """A finite knee angle theta outside the config's range; the CLI restates it in degrees."""

    def __init__(self, config: MechanismConfig, theta: float):
        self.theta = theta
        super().__init__(f"theta={theta} outside the configured range "
                         f"[{config.theta_min}, {config.theta_max}]")


def _check_theta(config: MechanismConfig, theta: float) -> float:
    """theta read finite (_read_finite), refused outside the range of a config that is valid."""
    _require_valid(config)
    theta = _read_finite(theta, "theta")
    if not (config.theta_min - 1e-9 <= theta <= config.theta_max + 1e-9):
        raise _AngleError(config, theta)
    return theta


# (field name, the reader of its value) in field order, for config files and configs
# built in Python alike; a field type with no reader fails here, at import
_FIELD_READERS = tuple(
    (f.name, {"float": _require_number, "int": _require_int,
              "tuple[float, ...]": _require_number_list,
              "tuple[float, float]": _require_pair}[f.type])
    for f in fields(MechanismConfig))


@dataclass(frozen=True)
class ChainState:
    """Spring-chain deflections, their regimes and the lever they make.

    deflection[k] is the opening of joint k from the closed shape, in
    [0, joint_open_limit[k]]; regime[k] follows from it (0 is closed, the
    limit is the end stop). tip is the chain end point in the lower-leg
    frame, l4 its distance from the knee joint, diameter its distance from
    the anchor.

    _origin is not a field, so it is neither compared, saved nor shown by
    repr: a converged solve writes its (config, theta, final load-map
    point) there with object.__setattr__, and a later solve of that very
    config object started from this state reuses the point (see
    equilibrium.solve_equilibrium). Every other state, dataclasses.replace's
    copies included, reads the class default None.
    """

    deflection: tuple[float, ...]
    regime: tuple[Regime, ...]
    tip: tuple[float, float]
    l4: float
    diameter: float

    _origin = None


@dataclass(frozen=True)
class EquilibriumResult:
    """Chain state and transmission ratio a solve decided, with its convergence record.

    kfe_torque and tip_force are derived, not stored: the knee torque is the
    ratio times the input force, and the tip force is that torque over the
    lever length chain.l4.
    """

    chain: ChainState
    transmission_ratio: float
    input_force: float
    converged: bool
    residual: float
    iterations: int

    @property
    def kfe_torque(self) -> float:
        return self.transmission_ratio * self.input_force

    @property
    def tip_force(self) -> float:
        return self.kfe_torque / self.chain.l4


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
    """Torsional stiffness of one chain joint: parallel springs add.

    Not gated by validation: _field_violations calls it while the config is
    built, before the verdict exists.
    """
    return config.springs_per_joint * config.k_spring


def total_stiffness(config: MechanismConfig) -> float:
    """Series stiffness of the whole chain, 1/k_total = sum of 1/k_joint."""
    return 1.0 / (_require_valid(config).n_joints / per_joint_stiffness(config))


def validate_config(config: MechanismConfig) -> list[str]:
    """Check every config invariant; returns human-readable violations, empty if valid.

    Deterministic. The config computed the verdict when it was built; since
    the fields are frozen, it cannot go stale, so this runs no check. The
    checks run in three stages, each only when the one before found nothing,
    so each bad number is reported once: each field's reader and the
    finiteness of every number, in MechanismConfig.__post_init__'s one pass
    over the fields, then the per-field checks of _field_violations, then
    closure solvability over the whole knee range and lever range
    (linkage._closure_violations). Each call returns a fresh list.
    """
    return list(config._violations)


def _require_valid(config: MechanismConfig) -> MechanismConfig:
    """config itself when it passed validation; ConfigError naming its violations otherwise.

    The library's entries call this before they read a config, so no answer
    is computed from a config that validate_config rejects.
    """
    if config._violations:
        raise ConfigError("invalid config: " + "; ".join(config._violations))
    return config


def _field_violations(config: MechanismConfig) -> list[str]:
    """The violated invariants that each field decides on its own.

    Runs while the config is built, once every field was read and every
    number found finite. Each field is checked on its own: signs, counts,
    ranges, and a per-joint stiffness springs_per_joint * k_spring that
    overflows; alpha_preload must lie in [0, 2*pi], at most one turn of a
    torsion spring.
    """
    v: list[str] = []
    for name in ("l1", "l2", "l3", "l_offset"):
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
    try:
        k_joint = per_joint_stiffness(config)
    except OverflowError:  # springs_per_joint has too many digits for a float
        k_joint = math.inf
    if abs(k_joint) == math.inf:
        v.append("per-joint stiffness springs_per_joint * k_spring must be finite")
    if config.alpha_preload < 0.0:
        v.append(f"alpha_preload must be non-negative, got {config.alpha_preload}")
    if config.alpha_preload > 2.0 * math.pi:
        v.append(f"alpha_preload must not exceed 2*pi (one turn), got {config.alpha_preload}")

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
    return v


# last, so that both modules find what they import from this one defined
from . import chain as _chain, linkage as _linkage
