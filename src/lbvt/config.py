"""Config file I/O: JSON documents mirroring MechanismConfig.

The file's keys are MechanismConfig's fields, in order; each annotation picks
the reader of its value. Fields in _DEGREES are degrees in the file and
radians in the library, converted exactly here. Unknown keys are rejected and
every field is required; a free-form provenance object and spring_arm_length,
a field of older files that nothing read, are ignored on load. A file that is
not UTF-8 text is a ConfigError naming its path, as a parse error is.

json parses the file. The writer writes it field by field, in the very bytes
json.dumps(doc, indent=2) gave for the whole document: finite floats, ints
and tuples of them directly, every other value and the provenance through
json. Each reader takes what a file holds (a float, a list of floats) as it
is, and reads anything else element by element.
"""

from __future__ import annotations

import dataclasses
import json
import math

from .model import ConfigError, MechanismConfig, validate_config

_DEGREES = {"beta", "phi", "alpha_preload", "joint_open_limit", "theta_min", "theta_max"}
_IGNORED_KEYS = {"provenance", "spring_arm_length"}


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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
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

    The file is written field by field, in the bytes json.dumps(doc,
    indent=2) gave for the document: the provenance, if given, then every
    field in schema order. The provenance and any value that is not a finite
    float, an int or a tuple of them still go through json. A value json
    refuses raises json's exception; the file is opened only once the whole
    text is built, so then nothing is written.

    A save/load round trip is not bit-exact: math.radians(math.degrees(x))
    can differ from x in its last bits (60 of 320 calibrated configs reload
    unequal, by at most 1.8e-16 relative). A correctly rounded
    degree-to-radian conversion on load would make it exact (ROADMAP item 10).
    """
    doc: dict = {}  # every value converted before any is written, as json.dumps(doc) did
    for name, (_, degrees) in _SCHEMA.items():
        value = getattr(config, name)
        doc[name] = _convert(value, math.degrees) if degrees else value
    lines = [] if provenance is None else [f'  "provenance": {_json_text(provenance)}']
    lines.extend(f'  "{name}": {_field_text(value)}' for name, value in doc.items())
    return _write(path, "{\n" + ",\n".join(lines) + "\n}\n")


def _field_text(value) -> str:
    """A field value as json.dumps(doc, indent=2) writes it one level into the document.

    A finite float, an int and a tuple of them are written directly (a tuple
    as a list); anything else (NaN, infinity, a string, a bool, the list of a
    refused tuple field) goes through json.
    """
    if type(value) is float and math.isfinite(value) or type(value) is int:
        return repr(value)
    if type(value) is tuple and all(type(v) is float and math.isfinite(v) or type(v) is int
                                    for v in value):
        return "[\n    " + ",\n    ".join(map(repr, value)) + "\n  ]" if value else "[]"
    return _json_text(value)


def _json_text(value) -> str:
    """json.dumps(value, indent=2), indented one level deeper.

    json escapes every newline inside a string, so each newline of its text
    starts a line of the nesting, which moves two spaces in.
    """
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _write(destination, text: str) -> int:
    """Write text as UTF-8 bytes; returns the number of bytes written."""
    payload = text.encode("utf-8")
    with open(destination, "wb") as fh:
        fh.write(payload)
    return len(payload)
