import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import lbvt
from lbvt import config as config_io, model
from lbvt.cli import run
from lbvt.config import load_config, save_config
from lbvt.model import ConfigError

from conftest import INVALID_UPDATES, random_config, refusal


# ---------- the writer writes json.dumps's bytes ----------

def _reference_text(config, provenance=None) -> str:
    """A config file's text as json.dumps wrote the whole document before."""
    doc: dict = {}
    if provenance is not None:
        doc["provenance"] = provenance
    for name, (_, degrees) in config_io._SCHEMA.items():
        value = getattr(config, name)
        doc[name] = config_io._convert(value, math.degrees) if degrees else value
    return json.dumps(doc, indent=2) + "\n"


def _assert_same_bytes(config, path, provenance=None):
    expected = _reference_text(config, provenance).encode("utf-8")
    assert save_config(config, path, provenance=provenance) == len(expected)
    assert path.read_bytes() == expected


def _shipped_provenance(path):
    return json.loads(path.read_text(encoding="utf-8"))["provenance"]


@pytest.mark.parametrize("with_provenance", [False, True], ids=["fields", "provenance"])
@pytest.mark.parametrize("shipped", ["default", "base"])
def test_shipped_configs_save_as_json_dumps_wrote_them(tmp_path, shipped, with_provenance):
    path = getattr(lbvt, f"{shipped}_config_path")()
    provenance = _shipped_provenance(path) if with_provenance else None
    _assert_same_bytes(load_config(path), tmp_path / "saved.json", provenance)


def test_calibrate_and_non_ascii_provenance_save_as_json_dumps_wrote_them(tmp_path,
                                                                        default_config):
    out = tmp_path / "calibrated.json"
    assert run(["calibrate", str(lbvt.base_config_path()), "--trigger", "20",
                "--ratio-step", "0.40", "--theta", "-88", "--out", str(out)]) == 0
    calibrated, provenance = load_config(out), _shipped_provenance(out)
    _assert_same_bytes(calibrated, tmp_path / "again.json", provenance)
    assert (tmp_path / "again.json").read_bytes() == out.read_bytes()
    text = {"note": "Knie Ø 18 N ✓\nline two\t\"quoted\"", "runs": [],
            "nested": {"empty": {}, "mixed": [1, 2.5, None, True, "é", [[]]]}}
    _assert_same_bytes(default_config, tmp_path / "text.json", text)


def test_random_configs_save_as_json_dumps_wrote_them(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(100):
        _assert_same_bytes(random_config(rng), tmp_path / "random.json",
                           {"draw": i} if i % 2 else None)


def test_a_valid_config_whose_angle_overflows_in_degrees_saves_as_json_dumps_wrote_it(
        tmp_path, default_config):
    # 1e307 rad is valid in joint_open_limit, and as beta of a straight
    # one-joint chain; in degrees it overflows, and json writes Infinity
    straight = dataclasses.replace(default_config, segments=(0.06,), phi=(0.0,),
                                   joint_open_limit=(0.0,), beta=1e307)
    for config in (straight, dataclasses.replace(
            default_config, joint_open_limit=default_config.joint_open_limit[:5] + (1e307,))):
        _assert_same_bytes(config, tmp_path / "overflow.json")
        assert b"Infinity" in (tmp_path / "overflow.json").read_bytes()


def test_a_provenance_json_refuses_raises_as_before(tmp_path, default_config):
    path = tmp_path / "refused.json"
    with pytest.raises(TypeError):
        _reference_text(default_config, {"tags": {"a"}})
    with pytest.raises(TypeError):
        save_config(default_config, path, provenance={"tags": {"a"}})
    assert not path.exists()


# ---------- the readers read as they did element by element ----------

def _reference_number(raw, path):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(raw).__name__}")
    try:
        return float(raw)
    except OverflowError:
        raise ConfigError(f"{path}: integer too large for a float") from None


def _reference_number_list(raw, path):
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers, got {type(raw).__name__}")
    return tuple(_reference_number(v, f"{path}[{i}]") for i, v in enumerate(raw))


def _outcome(read, raw):
    try:
        value = read(raw, "field")
    except ConfigError as exc:
        return "error", str(exc)
    # repr tells 1 from 1.0 and shows NaN, and type() float subclasses
    return repr(value), type(value), [type(v) for v in value] if type(value) is tuple else []


_SCALARS = (st.floats() | st.floats().map(np.float64) | st.integers() | st.booleans()
            | st.text(max_size=3) | st.none() | st.just(10 ** 400))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=6)
                       | st.lists(inner, max_size=6).map(tuple), max_leaves=12)


@seed(0)
@settings(max_examples=400, derandomize=False, deadline=None, database=None)
@given(raw=_VALUES | st.lists(st.floats(), max_size=6) | st.just([]))
def test_fast_readers_match_the_element_by_element_reader(raw):
    assert _outcome(model._require_number, raw) == _outcome(_reference_number, raw)
    assert (_outcome(model._require_number_list, raw)
            == _outcome(_reference_number_list, raw))


# ---------- a bad file is one error naming its path ----------

def _each_number(unit, value):
    """value with unit applied to each int or float in it, a tuple as a list.

    A bool is left as it is, and so is a number unit overflows on, an
    integer too large for a float.
    """
    if type(value) in (list, tuple):
        return [_each_number(unit, v) for v in value]
    if type(value) not in (int, float):
        return value
    try:
        return unit(value)
    except OverflowError:
        return value


def _json_holds(value) -> bool:
    """Whether a config file holds value as it is: no numpy value, range or generator."""
    if type(value) in (list, tuple):
        return all(map(_json_holds, value))
    return type(value) in (float, int, str, bool)


_IN_A_FILE = [case for case, (updates, _) in INVALID_UPDATES.items()
              if not callable(updates) and all(map(_json_holds, updates.values()))]


@pytest.mark.parametrize("case", _IN_A_FILE)
def test_an_invalid_file_lists_the_violations_of_its_build_under_its_path(
        tmp_path, capsys, default_config, case):
    # the shipped default's file with the row's fields as json.dumps writes
    # them, angles in degrees; refused for what the build refuses in the
    # values read back, by load_config and by lbvt validate alike
    updates, _ = INVALID_UPDATES[case]
    doc = json.loads(lbvt.default_config_path().read_text(encoding="utf-8"))
    for name, value in updates.items():
        doc[name] = _each_number(math.degrees, value) if name in config_io._DEGREES else value
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    violations = refusal(default_config, **{
        name: _each_number(math.radians, doc[name]) if name in config_io._DEGREES else doc[name]
        for name in updates})
    assert violations
    message = f"{path}: invalid config:\n" + "\n".join(f"  - {v}" for v in violations)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == message
    assert run(["validate", str(path)]) == 1
    assert capsys.readouterr() == ("", f"lbvt validate: {message}\n")


# ---------- the file must be UTF-8 ----------

def test_a_file_that_is_not_utf8_is_a_config_error_naming_the_path(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"l1": \xff}\n')
    message = f"^{re.escape(str(path))}: not UTF-8 text: .*byte 0xff"
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_a_utf8_bom_is_a_parse_error_naming_the_path(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + lbvt.default_config_path().read_bytes())
    message = f"^{re.escape(str(path))}: parse error at line 1, column 1: Unexpected UTF-8 BOM"
    with pytest.raises(ConfigError, match=message):
        load_config(path)
