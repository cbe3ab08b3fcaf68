import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lbvt
from lbvt import config as config_io, model
from lbvt.cli import run
from lbvt.config import load_config, save_config
from lbvt.model import ConfigError

from conftest import random_config


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


_INVALID = {
    "nan-float": {"k_spring": math.nan},
    "inf-angle": {"beta": -math.inf},
    "nan-tuple": {"segments": (0.01, math.nan, 0.01, 0.01, 0.01, 0.01)},
    "inf-angle-tuple": {"phi": (math.inf,) + (0.0,) * 5},
    "int-l1": {"l1": 1},
    "str-l1": {"l1": "a"},
    "float-springs": {"springs_per_joint": 2.5},
    "empty-segments": {"segments": ()},
    "refused-list": {"actuator_base": [0.05, -0.05, 0.0]},
    "refused-tuple": {"actuator_base": (0, 0, 1)},
    "bool-in-tuple": {"actuator_base": (True, -0.05)},
}


@pytest.mark.parametrize("case", _INVALID, ids=list(_INVALID))
def test_invalid_configs_save_as_json_dumps_wrote_them(tmp_path, default_config, case):
    config = dataclasses.replace(default_config, **_INVALID[case])
    _assert_same_bytes(config, tmp_path / "invalid.json")
    _assert_same_bytes(config, tmp_path / "invalid.json", {"case": case})


@pytest.mark.parametrize("updates", [
    {"segments": np.array([0.01] * 6)},
    {"alpha_preload": "one turn"},
    {"segments": np.array([0.01] * 6), "alpha_preload": 10 ** 400},
], ids=["ndarray", "str-angle", "ndarray-and-huge-angle"])
def test_a_value_json_refuses_raises_as_before_and_writes_nothing(tmp_path, default_config,
                                                                   updates):
    config = dataclasses.replace(default_config, **updates)
    with pytest.raises(Exception) as expected:
        _reference_text(config)
    path = tmp_path / "refused.json"
    with pytest.raises(type(expected.value)):
        save_config(config, path)
    assert not path.exists()


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


@settings(max_examples=400, derandomize=True, deadline=None)
@given(raw=_VALUES | st.lists(st.floats(), max_size=6) | st.just([]))
def test_fast_readers_match_the_element_by_element_reader(raw):
    assert _outcome(model._require_number, raw) == _outcome(_reference_number, raw)
    assert (_outcome(model._require_number_list, raw)
            == _outcome(_reference_number_list, raw))


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
