"""Config file I/O: JSON documents mirroring MechanismConfig.

The file's keys are MechanismConfig's fields, in order; each annotation picks
the reader of its value. Fields in _DEGREES are degrees in the file and
radians in the library, converted exactly here. Unknown keys are rejected and
every field is required; a free-form provenance object and spring_arm_length,
a field of older files that nothing read, are ignored on load. A file that is
not UTF-8 text is a ConfigError naming its path, as a parse error is.

json parses the file, and the build reads and checks every value with the
readers of model.py: load_config reads only an angle field, to convert it,
and leaves each value a reader refuses to the build, so a bad file is one
ConfigError that names the path and lists every violation the build
refused it for. The writer is given a config, so a valid one (a config
that fails validation cannot be built), and writes it field by field, in
the very bytes json.dumps(doc, indent=2) gave for the whole document; only a
non-finite number and the provenance go through json.
"""

from __future__ import annotations

import json
import math

from .model import _FIELD_READERS, ConfigError, MechanismConfig

_DEGREES = {"beta", "phi", "alpha_preload", "joint_open_limit", "theta_min", "theta_max"}
_IGNORED_KEYS = {"provenance", "spring_arm_length"}
# field name -> (reader, is an angle), in file key order
_SCHEMA = {name: (read, name in _DEGREES) for name, read in _FIELD_READERS}


def _convert(value, unit):
    """An angle field's value, a number or a tuple of them, through unit."""
    return tuple(map(unit, value)) if isinstance(value, tuple) else unit(value)


def load_config(path) -> MechanismConfig:
    """Parse and validate a config file; angle fields convert from degrees.

    Every failure is a ConfigError naming the path; an invalid file's lists
    every violation of the config it builds, malformed fields included.
    """
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
        value = doc[name]
        if degrees:
            try:
                value = _convert(read(value, name), math.radians)
            except ConfigError:  # the build refuses it, with every other malformed field
                pass
        fields[name] = value

    try:
        return MechanismConfig(**fields)
    except ConfigError as exc:
        raise ConfigError(
            f"{path}: invalid config:\n" + "\n".join(f"  - {v}" for v in exc.violations)
        ) from None


def save_config(config: MechanismConfig, path, provenance: dict | None = None) -> int:
    """Write a config file (degrees for angle fields); returns bytes written.

    The file is written field by field, in the bytes json.dumps(doc,
    indent=2) gave for the document: the provenance, if given, then every
    field in schema order. A provenance json refuses raises json's
    exception; the file is opened only once the whole text is built, so
    then nothing is written.

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
    """A valid config's field value as json.dumps(doc, indent=2) writes it one level in.

    A finite float or an int, and a tuple of finite floats (as a list), are
    written directly. The rest goes through json: an int subclass, and a
    number that overflows when converted to degrees (an angle of 1e307 rad
    is valid, and json writes its degrees as Infinity, which load_config
    refuses; ROADMAP item 10).
    """
    if type(value) is tuple:
        if all(map(math.isfinite, value)):
            return "[\n    " + ",\n    ".join(map(repr, value)) + "\n  ]"
    elif type(value) is float and math.isfinite(value) or type(value) is int:
        return repr(value)
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
