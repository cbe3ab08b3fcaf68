"""Config file I/O: JSON documents mirroring MechanismConfig.

The file's keys are MechanismConfig's fields, in order; each annotation picks
the reader of its value. Fields in _DEGREES are degrees in the file and
radians in the library, converted exactly here. Unknown keys are rejected and
every field is required; a free-form provenance object and spring_arm_length,
a field of older files that nothing read, are ignored on load.
"""

from __future__ import annotations

import dataclasses
import json
import math

from .model import ConfigError, MechanismConfig, validate_config

_DEGREES = {"beta", "phi", "alpha_preload", "joint_open_limit", "theta_min", "theta_max"}
_IGNORED_KEYS = {"provenance", "spring_arm_length"}


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


def _require_number_list(raw, path: str) -> tuple[float, ...]:
    if not isinstance(raw, (list, tuple)):  # a tuple only from a config built in Python
        raise ConfigError(f"{path}: expected a list of numbers, got {type(raw).__name__}")
    return tuple(_require_number(v, f"{path}[{i}]") for i, v in enumerate(raw))


def _require_pair(raw, path: str) -> tuple[float, float]:
    pair = _require_number_list(raw, path)
    if len(pair) != 2:
        raise ConfigError(f"{path}: expected exactly two coordinates, got {len(pair)}")
    return pair


_READERS = {"float": _require_number, "int": _require_int,
            "tuple[float, ...]": _require_number_list, "tuple[float, float]": _require_pair}
# field name -> (reader, is an angle), in file key order
_SCHEMA = {f.name: (_READERS[f.type], f.name in _DEGREES)
           for f in dataclasses.fields(MechanismConfig)}


def _convert(value, unit):
    """An angle field's value, a number or a tuple of them, through unit."""
    return tuple(map(unit, value)) if isinstance(value, tuple) else unit(value)


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

    unknown = sorted(doc.keys() - _SCHEMA.keys() - _IGNORED_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown keys: {', '.join(unknown)}")
    missing = sorted(_SCHEMA.keys() - doc.keys())
    if missing:
        raise ConfigError(f"{path}: missing fields: {', '.join(missing)}")

    fields: dict = {}
    for name, (read, degrees) in _SCHEMA.items():
        value = read(doc[name], name)
        fields[name] = _convert(value, math.radians) if degrees else value

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
    can differ from x in its last bits (60 of 320 calibrated configs reload
    unequal, by at most 1.8e-16 relative). A correctly rounded
    degree-to-radian conversion on load would make it exact (ROADMAP item 10).
    """
    doc: dict = {}
    if provenance is not None:
        doc["provenance"] = provenance
    for name, (_, degrees) in _SCHEMA.items():
        value = getattr(config, name)
        doc[name] = _convert(value, math.degrees) if degrees else value  # tuples dump as lists
    return _write(path, json.dumps(doc, indent=2) + "\n")


def _write(destination, text: str) -> int:
    """Write text as UTF-8 bytes; returns the number of bytes written."""
    payload = text.encode("utf-8")
    with open(destination, "wb") as fh:
        fh.write(payload)
    return len(payload)
