"""Config file I/O: JSON documents mirroring MechanismConfig.

Angle fields are degrees in the file and radians in the library; the
conversion happens exactly here. Unknown keys are rejected, every field is
required, and an optional free-form provenance object is ignored on load.
"""

from __future__ import annotations

import dataclasses
import json
import math

from .model import ConfigError, MechanismConfig, validate_config

_ANGLE_FIELDS = ("beta", "alpha_preload", "theta_min", "theta_max")
_ANGLE_LIST_FIELDS = ("phi", "joint_open_limit")
_NUMBER_FIELDS = (
    "l1", "l2", "l3", "actuator_attach_ratio", "l_offset", "beta",
    "alpha_preload", "k_spring", "spring_arm_length", "theta_min", "theta_max",
)
_LIST_FIELDS = ("segments", "phi", "joint_open_limit")
_INT_FIELDS = ("springs_per_joint", "branch_sign")
_ALL_FIELDS = tuple(f.name for f in dataclasses.fields(MechanismConfig))  # file key order
_OPTIONAL_KEYS = ("provenance",)


def _require_number(raw, path: str) -> float:
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


def _require_number_list(raw, path: str) -> list[float]:
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: expected a list of numbers, got {type(raw).__name__}")
    return [_require_number(v, f"{path}[{i}]") for i, v in enumerate(raw)]


def load_config(path) -> MechanismConfig:
    """Parse and validate a config file; angle fields convert from degrees."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level value must be an object")

    unknown = sorted(set(doc) - set(_ALL_FIELDS) - set(_OPTIONAL_KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown keys: {', '.join(unknown)}")
    missing = sorted(set(_ALL_FIELDS) - set(doc))
    if missing:
        raise ConfigError(f"{path}: missing fields: {', '.join(missing)}")

    fields: dict = {}
    for name in _NUMBER_FIELDS:
        fields[name] = _require_number(doc[name], name)
    for name in _INT_FIELDS:
        fields[name] = _require_int(doc[name], name)
    for name in _LIST_FIELDS:
        fields[name] = _require_number_list(doc[name], name)
    base = _require_number_list(doc["actuator_base"], "actuator_base")
    if len(base) != 2:
        raise ConfigError(f"actuator_base: expected exactly two coordinates, got {len(base)}")
    fields["actuator_base"] = tuple(base)

    for name in _ANGLE_FIELDS:
        fields[name] = math.radians(fields[name])
    for name in _ANGLE_LIST_FIELDS:
        fields[name] = [math.radians(v) for v in fields[name]]
    for name in _LIST_FIELDS:
        fields[name] = tuple(fields[name])

    config = MechanismConfig(**fields)
    violations = validate_config(config)
    if violations:
        raise ConfigError(
            f"{path}: invalid config:\n" + "\n".join(f"  - {v}" for v in violations)
        )
    return config


def save_config(config: MechanismConfig, path, provenance: dict | None = None) -> int:
    """Write a config file (degrees for angle fields); returns bytes written.

    A save/load round trip is not bit-exact: math.radians(math.degrees(x))
    can differ from x in its last bits, and for some radians no degree float
    maps back at all (60 of 320 calibrated configs reload unequal, by at
    most 1.8e-16 relative). Only radians in the file would make it exact.
    """
    doc: dict = {}
    if provenance is not None:
        doc["provenance"] = provenance
    for name in _ALL_FIELDS:
        value = getattr(config, name)
        if name in _ANGLE_FIELDS:
            value = math.degrees(value)
        elif name in _ANGLE_LIST_FIELDS:
            value = [math.degrees(v) for v in value]
        elif isinstance(value, tuple):
            value = list(value)
        doc[name] = value
    payload = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(payload)
    return len(payload)
