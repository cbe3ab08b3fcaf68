import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

import lbvt
from lbvt.model import (
    ConfigError,
    MechanismConfig,
    Regime,
    SweepTable,
    per_joint_stiffness,
    total_stiffness,
    validate_config,
)
from lbvt import analysis, chain, equilibrium, linkage, model
from lbvt.config import save_config

import oracle
from conftest import (INVALID_UPDATES, THETA_88, _FOURBAR, _with_bearing, count_calls,
                      reduced_chain)


def test_default_config_validates(default_config):
    assert validate_config(default_config) == []


def test_zero_input_bar_is_reported(default_config):
    bad = dataclasses.replace(default_config, l2=0.0)
    violations = validate_config(bad)
    assert len(violations) == 1
    assert "l2" in violations[0]


def test_degenerate_knee_range_is_reported(default_config):
    bad = dataclasses.replace(default_config, theta_min=default_config.theta_max)
    violations = validate_config(bad)
    assert any("theta_min" in v and "theta_max" in v for v in violations)


def test_validation_is_deterministic(default_config):
    # the verdict kept on the config repeats on every call, and a copy finds it again
    bad = dataclasses.replace(default_config, l2=-1.0, k_spring=0.0, springs_per_joint=0)
    first = validate_config(bad)
    assert len(first) == 3
    assert all(validate_config(bad) == first for _ in range(3))
    assert validate_config(dataclasses.replace(bad)) == first


def test_infeasible_closure_is_reported_per_lever_state():
    # input bar plus coupler span 0.1 m, short of the ground pivot at 0.25 m
    bad = dataclasses.replace(reduced_chain(2), l2=0.05, l3=0.05)
    violations = validate_config(bad)
    assert len(violations) == 2
    for label, v in zip(("closed", "fully open"), violations):
        assert f"the {label} lever" in v
        assert re.search(r"theta=-141\.0+ deg", v)
        assert "exceeds l2 + l3" in v


def test_open_lever_closure_failure_is_reported_once(default_config):
    # validating the valid default first leaves nothing behind for a changed config
    assert validate_config(default_config) == []
    # a shorter coupler still reaches the closed lever, not the fully open one
    bad = dataclasses.replace(default_config, l3=0.22)
    violations = validate_config(bad)
    assert len(violations) == 1
    assert "the fully open lever" in violations[0]
    assert re.search(r"theta=-141\.0+ deg, l4=0\.09277 m", violations[0])
    assert "exceeds l2 + l3" in violations[0]
    # nor does a validated invalid config for its mended copy
    assert validate_config(dataclasses.replace(bad, l3=default_config.l3)) == []


def test_validation_runs_at_most_three_scalar_kernel_calls(default_config, monkeypatch):
    calls = []
    original = linkage._closure_kernel

    def recorded(config, theta, l4):
        calls.append((type(theta), type(l4)))
        return original(config, theta, l4)

    monkeypatch.setattr(linkage, "_closure_kernel", recorded)
    config = dataclasses.replace(default_config)  # the copy checks its closure here
    assert validate_config(config) == []
    assert 1 <= len(calls) <= 3
    assert all(call == (float, float) for call in calls)
    calls.clear()
    assert validate_config(config) == []
    assert calls == []  # validate_config reads the verdict the config was built with


def test_no_call_writes_to_a_built_config(default_config, base_config):
    config = dataclasses.replace(base_config)
    built = dict(vars(config))
    assert validate_config(config) == []
    equilibrium.solve_equilibrium(config, THETA_88, 165.0)
    equilibrium.triggering_force(config, THETA_88)
    analysis.ratio_step_direct(config, THETA_88)
    analysis.calibrate(config, 20.0, 0.40, THETA_88)
    assert vars(config) == built
    bad = dataclasses.replace(default_config, l2=-1.0)
    built = dict(vars(bad))
    assert validate_config(bad) == ["l2 must be strictly positive, got -1.0"]
    assert vars(bad) == built


def test_validation_runs_no_chain_pass(base_config, monkeypatch):
    # the closed and fully open lever come with the config
    config = dataclasses.replace(base_config, alpha_preload=0.1)
    calls = count_calls(monkeypatch, chain, "_geometry")
    assert validate_config(config) == []
    assert calls[0] == 0


def _random_config(base, rng, wide):
    """base with every geometric field perturbed; wide draws also move the range and branch."""
    s = 0.5 if wide else 0.1

    def scaled(x):
        return x * (1.0 + s * rng.uniform(-1.0, 1.0))

    if wide:
        theta_min = rng.uniform(-math.pi + 1e-3, -0.2)
        theta_max = rng.uniform(theta_min + 0.05, 0.0)
    else:
        theta_min = base.theta_min + rng.uniform(-0.1, 0.1)
        theta_max = base.theta_max + rng.uniform(-0.1, 0.1)
    return dataclasses.replace(
        base, l1=scaled(base.l1), l2=scaled(base.l2), l3=scaled(base.l3),
        actuator_attach_ratio=rng.uniform(0.0, 1.0),
        l_offset=scaled(base.l_offset),
        beta=base.beta + rng.uniform(-1.0, 1.0) * (2.0 if wide else 0.2),
        segments=tuple(map(scaled, base.segments)),
        phi=tuple(p + rng.uniform(-1.0, 1.0) * 0.3 * s for p in base.phi),
        joint_open_limit=tuple(map(scaled, base.joint_open_limit)),
        theta_min=theta_min, theta_max=theta_max,
        branch_sign=int(rng.choice([1, -1])) if wide else 1,
    )


def test_closure_verdict_matches_a_dense_kernel_grid(base_config):
    rng = np.random.default_rng(2024)
    feasible = 0
    for i in range(1200):
        config = _random_config(base_config, rng, wide=i % 2 == 1)
        thetas = np.linspace(config.theta_min, config.theta_max, 401)[:, None]
        # the stored levers: the entries refuse a config that fails the check
        levers = np.linspace(config._closed_lever, config._open_lever, 21)
        try:
            oracle.closure_kernel(config, thetas, levers)
            grid_ok = True
        except model.GeometryError:
            grid_ok = False
        assert (validate_config(config) == []) == grid_ok, config
        feasible += grid_ok
    assert 300 < feasible < 900  # both verdicts are well represented


def _old_sample_angles(config):
    return np.linspace(config.theta_min, config.theta_max, 181)


def test_fold_between_old_sample_angles_is_rejected():
    # the phase theta + lever_bearing passes pi at theta = -125 deg, where the
    # pivot span peaks at l1 + l4; l2 + l3 falls 2e-7 m short of that peak, and
    # the nearest of the 181 angles the check used to sample lies 0.21 deg off
    config = _with_bearing(-55.0, segments=(0.05,), phi=(math.radians(-20.0),),
                           joint_open_limit=(0.05,), alpha_preload=0.1, **_FOURBAR)
    levers = np.array([[chain.closed_lever(config)], [chain.open_lever(config)]])
    bad = dataclasses.replace(config, l3=config.l1 + levers.max() - 2e-7 - config.l2)
    oracle.closure_kernel(bad, _old_sample_angles(bad), levers)  # every sample assembles
    assert validate_config(bad) == [
        "four-bar closure fails with the fully open lever: closure infeasible at "
        "theta=-125.000 deg, l4=0.09394 m: pivot span 0.34394 m exceeds l2 + l3 = 0.34394 m"
    ]


def test_shortest_span_at_a_partly_open_lever_is_rejected(default_config):
    # cos(theta + lever_bearing) peaks at theta_max, where l1 * cos is the mean
    # of the two levers: the span is shortest there, l1 * sin, between them;
    # |l2 - l3| sits 1e-6 m above that span and below both end levers' spans
    closed, open_ = chain.closed_lever(default_config), chain.open_lever(default_config)
    cos_max = (closed + open_) / (2.0 * default_config.l1)
    bad = dataclasses.replace(
        default_config, theta_max=-math.acos(cos_max) - default_config.lever_bearing,
        l3=default_config.l2 + default_config.l1 * math.sqrt(1.0 - cos_max ** 2) + 1e-6,
    )
    levers = np.array([[closed], [open_]])
    oracle.closure_kernel(bad, _old_sample_angles(bad), levers)  # both end levers assemble
    violations = validate_config(bad)
    assert len(violations) == 1
    assert violations[0].startswith(
        "four-bar closure fails with the partly open lever: closure infeasible at "
        "theta=-66.664 deg, l4=0.07910 m: pivot span")
    assert "is below |l2 - l3|" in violations[0]


def test_actuator_base_on_the_attachment_circle_is_rejected(default_config):
    # the attachment runs on a circle of radius r * l2 about the ground pivot (l1, 0)
    radius = default_config.actuator_attach_ratio * default_config.l2
    bad = dataclasses.replace(default_config, actuator_base=(default_config.l1, radius))
    assert validate_config(bad) == [
        "actuator base lies on the attachment circle, 0.07575 m about the "
        "input-bar ground pivot: the actuator length can reach 0"
    ]


@pytest.mark.parametrize("preload, ok", [
    (2.0 * math.pi, True), (math.nextafter(2.0 * math.pi, 7.0), False), (1e6, False),
])
def test_preload_is_at_most_one_turn(default_config, preload, ok):
    violations = validate_config(dataclasses.replace(default_config, alpha_preload=preload))
    assert violations == ([] if ok else
                          [f"alpha_preload must not exceed 2*pi (one turn), got {preload}"])


def test_validation_returns_a_fresh_list(default_config):
    bad = dataclasses.replace(default_config, l3=0.22)
    first = validate_config(bad)
    first.append("appended by the caller")
    assert validate_config(bad) == first[:-1]
    clean = validate_config(default_config)
    clean.append("appended by the caller")
    assert validate_config(default_config) == []


def _number_slots(config):
    """(label, update) for every float field and every entry of a tuple field."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            for i in range(len(value)):
                yield f"{f.name}[{i}]", (f.name, i)
        elif isinstance(value, float):
            yield f.name, (f.name, None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_numbers_are_reported_by_name(default_config, bad):
    slots = list(_number_slots(default_config))
    assert len(slots) == 10 + 2 + 3 * 6  # float fields, actuator_base, per-joint tuples
    for label, (name, i) in slots:
        value = bad
        if i is not None:
            value = list(getattr(default_config, name))
            value[i] = bad
        violations = validate_config(dataclasses.replace(default_config, **{name: value}))
        assert f"{label} must be finite, got {bad}" in violations, label


@pytest.mark.parametrize("name, bad", [
    ("theta_min", math.nan), ("actuator_attach_ratio", math.nan), ("l_offset", -math.inf),
    ("alpha_preload", math.inf), ("theta_max", math.inf),
])
def test_a_non_finite_number_is_reported_once(default_config, name, bad):
    # not again by the range checks it would fail too
    config = dataclasses.replace(default_config, **{name: bad})
    assert validate_config(config) == [f"{name} must be finite, got {bad}"]


def test_float_field_holding_an_int_too_large_for_a_float_is_reported(default_config):
    # worded as a config file's reader words it, and found before any chain
    # pass, which would raise OverflowError (a tuple field holding one is
    # test_a_malformed_field_is_one_violation's)
    names = [label for label, (_, i) in _number_slots(default_config) if i is None]
    assert {"beta", "l1", "l_offset"} <= set(names) and len(names) == 10
    for name in names:
        config = dataclasses.replace(default_config, **{name: 10 ** 400})
        assert validate_config(config) == [f"{name}: integer too large for a float"], name


_MALFORMED = {
    "three-coordinate-base": ({"actuator_base": (0.05, -0.05, 0.0)},
                              "actuator_base: expected exactly two coordinates, got 3"),
    "one-coordinate-base": ({"actuator_base": (0.05,)},
                            "actuator_base: expected exactly two coordinates, got 1"),
    "huge-int-phi": ({"phi": (10 ** 400,) * 6}, "phi[0]: integer too large for a float"),
    "str-l1": ({"l1": "a"}, "l1: expected a number, got str"),
    "str-phi": ({"phi": ("-0.1",) * 6}, "phi[0]: expected a number, got str"),
    "bool-base": ({"actuator_base": (True, -0.05)},
                  "actuator_base[0]: expected a number, got bool"),
    "float-springs": ({"springs_per_joint": 2.5},
                      "springs_per_joint: expected an integer, got float"),
}


@pytest.mark.parametrize("case", _MALFORMED, ids=list(_MALFORMED))
def test_a_malformed_field_is_one_violation(default_config, case, tmp_path):
    # building the config raises nothing, and the one violation is worded as
    # load_config lists the same value in a file, under its path
    updates, message = _MALFORMED[case]
    config = dataclasses.replace(default_config, **updates)
    assert validate_config(config) == [message]
    with pytest.raises(ConfigError, match=re.escape(message)):
        equilibrium.solve_equilibrium(config, THETA_88, 5.0)
    path = tmp_path / "config.json"
    save_config(default_config, path)
    doc = json.loads(path.read_text())
    doc.update({k: list(v) if isinstance(v, tuple) else v for k, v in updates.items()})
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        lbvt.load_config(path)
    assert str(exc.value) == f"{path}: invalid config:\n  - {message}"


_NOT_IN_A_FILE = {
    "ndarray-phi": ({"phi": np.radians([-10.0] * 6)}, "phi: expected a list of numbers, got ndarray"),
    "range-limits": ({"joint_open_limit": range(6)},
                     "joint_open_limit: expected a list of numbers, got range"),
    "generator-segments": ({"segments": (x for x in (0.01,) * 6)},
                           "segments: expected a list of numbers, got generator"),
    "float32-phi": ({"phi": (np.float32(-0.1),) * 6}, "phi[0]: expected a number, got float32"),
}


@pytest.mark.parametrize("case", _NOT_IN_A_FILE, ids=list(_NOT_IN_A_FILE))
def test_a_tuple_field_no_config_file_holds_is_one_violation(default_config, case):
    # a config file holds lists of JSON numbers; other sequences and numpy
    # scalars that are not floats are refused by the reader's own words
    updates, message = _NOT_IN_A_FILE[case]
    assert validate_config(dataclasses.replace(default_config, **updates)) == [message]


def test_a_well_formed_config_keeps_every_given_object(default_config):
    # each reader returns a value it accepts as that very object; an int
    # reads to a float and a list to a tuple of floats, as in a file
    given = {f.name: getattr(default_config, f.name) for f in dataclasses.fields(default_config)}
    config = MechanismConfig(**given)
    assert validate_config(config) == []
    for name, value in given.items():
        assert getattr(config, name) is value, name
    config = dataclasses.replace(default_config, l1=1, joint_open_limit=[0] * 6,
                                 actuator_base=[0, -0.05])
    assert type(config.l1) is float and config.l1 == 1.0
    assert config.joint_open_limit == (0.0,) * 6 and config.actuator_base == (0.0, -0.05)
    assert all(type(x) is float for x in config.joint_open_limit + config.actuator_base)


def test_replaced_config_recomputes_its_kernel_terms(default_config):
    # the kernels' config-only terms follow the copy's own fields, and a
    # config that fails a field check carries none
    config = dataclasses.replace(
        default_config, l2=0.11, l3=0.26, l_offset=0.05, beta=default_config.beta + 0.1,
        segments=default_config.segments[::-1], phi=default_config.phi[::-1],
        actuator_base=(0.04, -0.06), actuator_attach_ratio=0.7, branch_sign=-1)
    terms = {**chain._chain_terms(config), **linkage._closure_terms(config)}
    assert sorted(terms) == ["_actuator", "_anchor", "_closure", "_links"]
    for name, value in terms.items():
        assert getattr(config, name) == value, name
        assert getattr(default_config, name) != value, name
        assert not hasattr(dataclasses.replace(default_config, l2=-1.0), name)


def test_float_field_holding_a_small_int_reads_as_its_float(default_config):
    # as load_config reads an integer in a float field: a valid one and one
    # that the four-bar closure refuses
    assert validate_config(dataclasses.replace(default_config, k_spring=2)) == []
    for name, value in (("k_spring", 2), ("l1", 1)):
        as_int = dataclasses.replace(default_config, **{name: value})
        as_float = dataclasses.replace(default_config, **{name: float(value)})
        assert validate_config(as_int) == validate_config(as_float), name


class _Float(float):
    """A float subclass of no library's, as numpy's float64 is one."""


_SCALARS_GIVEN = {
    "l1-int": ("l1", lambda c: 1),
    "l1-float64": ("l1", lambda c: np.float64(c.l1)),
    "alpha_preload-int": ("alpha_preload", lambda c: 0),
    "alpha_preload-float64": ("alpha_preload", lambda c: np.float64(c.alpha_preload)),
    "alpha_preload-subclass": ("alpha_preload", lambda c: _Float(c.alpha_preload)),
}


def _solved(config):
    """repr of the -88 deg / 165 N solve on config, or of the error that refuses it."""
    try:
        return repr(equilibrium.solve_equilibrium(config, THETA_88, 165.0))
    except ConfigError as exc:
        return repr(exc)


@pytest.mark.parametrize("case", _SCALARS_GIVEN, ids=list(_SCALARS_GIVEN))
def test_a_scalar_field_holds_its_value_as_a_float(default_config, case, tmp_path):
    # as the same value in a tuple field or in a file: the config, its solve
    # and its saved bytes are those of the config built from the float; where
    # it fails validation, both refuse to save alike
    name, make = _SCALARS_GIVEN[case]
    value = make(default_config)
    config = dataclasses.replace(default_config, **{name: value})
    as_float = dataclasses.replace(default_config, **{name: float(value)})
    assert type(getattr(config, name)) is float
    assert repr(config) == repr(as_float)
    assert _solved(config) == _solved(as_float)
    saved = []
    for each, path in ((config, tmp_path / "given.json"), (as_float, tmp_path / "float.json")):
        try:
            save_config(each, path)
        except ConfigError as exc:
            saved.append(repr(exc))
        else:
            saved.append(path.read_bytes())
    assert saved[0] == saved[1]
    assert (type(saved[0]) is bytes) == (validate_config(config) == [])


def test_mismatched_joint_arrays_are_reported(default_config):
    bad = dataclasses.replace(default_config, phi=default_config.phi[:-1])
    assert any("phi" in v for v in validate_config(bad))


@pytest.mark.parametrize("updates, message", [
    (dict(segments=(), phi=(), joint_open_limit=()), "segments must contain at least one entry"),
    (dict(joint_open_limit=(0.1,) * 5), "joint_open_limit has 5 entries, expected 6"),
    (dict(branch_sign=0), "branch_sign must be +1 or -1, got 0"),
], ids=["no-segments", "short-open-limits", "branch-sign-0"])
def test_shape_violations_are_reported(default_config, updates, message):
    assert message in validate_config(dataclasses.replace(default_config, **updates))


@pytest.mark.parametrize(
    "springs,k,expected",
    [(4, 1.17, 4.68), (1, 0.37, 0.37), (2, 0.5, 1.0)],
)
def test_per_joint_stiffness_parallel_sum(default_config, springs, k, expected):
    cfg = dataclasses.replace(default_config, springs_per_joint=springs, k_spring=k)
    assert per_joint_stiffness(cfg) == pytest.approx(expected, abs=1e-12)


def test_total_stiffness_series_value(default_config):
    # 6 joints, four 1.17 Nm/rad springs each -> 0.78 Nm/rad in series
    assert total_stiffness(default_config) == pytest.approx(0.78, abs=1e-6)


def test_total_stiffness_single_joint_identity():
    cfg = dataclasses.replace(reduced_chain(1), springs_per_joint=1, k_spring=3.21)
    assert total_stiffness(cfg) == pytest.approx(3.21, abs=1e-12)


def test_total_stiffness_equal_series_pair():
    cfg = dataclasses.replace(reduced_chain(2), springs_per_joint=1, k_spring=1.0)
    assert total_stiffness(cfg) == pytest.approx(0.5, abs=1e-12)


def test_total_stiffness_rejects_nonpositive_joints(default_config):
    bad = dataclasses.replace(default_config, k_spring=0.0)
    with pytest.raises(ConfigError):
        total_stiffness(bad)


def test_total_stiffness_refuses_a_non_finite_spring(default_config):
    bad = dataclasses.replace(default_config, k_spring=math.nan)
    with pytest.raises(ConfigError, match="^invalid config: k_spring must be finite, got nan$"):
        total_stiffness(bad)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_series_stiffness_bounded_by_softest(default_config, n):
    # valid n-joint chains: total_stiffness refuses a config that fails validation
    cfg = default_config if n == 6 else reduced_chain(n)
    assert cfg.n_joints == n and validate_config(cfg) == []
    assert total_stiffness(cfg) <= per_joint_stiffness(cfg) + 1e-15


def test_config_is_immutable(default_config):
    with pytest.raises(dataclasses.FrozenInstanceError):
        default_config.l1 = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        default_config.lever_bearing = 0.0


def _closed_tip_bearing(config):
    # the kernel, not make_chain_state: an updated chain need not pass validation
    _, (x, y) = chain._geometry(config, (0.0,) * config.n_joints)
    return math.atan2(y, x)


def test_lever_bearing_is_the_closed_tip_bearing(default_config, base_config):
    for config in (default_config, base_config):
        assert config.lever_bearing == _closed_tip_bearing(config)


@pytest.mark.parametrize("updates", [
    {"beta": 0.3},
    {"l_offset": 0.06},
    {"segments": (0.02, 0.018, 0.016, 0.014, 0.012, 0.01)},
    {"phi": tuple(math.radians(p) for p in (4.0, -9.0, -6.0, -8.0, -5.0, -7.0))},
], ids=["beta", "l_offset", "segments", "phi"])
def test_lever_bearing_follows_updates(default_config, updates):
    updated = dataclasses.replace(default_config, **updates)
    assert updated.lever_bearing != default_config.lever_bearing
    assert updated.lever_bearing == _closed_tip_bearing(updated)


def test_lever_bearing_is_not_a_field(default_config):
    names = [f.name for f in dataclasses.fields(default_config)]
    assert "lever_bearing" not in names and "lever_bearing" not in repr(default_config)
    # equality and hashing see the fields only
    twin = dataclasses.replace(default_config)
    assert twin == default_config and hash(twin) == hash(default_config)


def test_infinite_beta_builds_with_a_nan_bearing(default_config):
    config = dataclasses.replace(default_config, beta=math.inf)
    assert math.isnan(config.lever_bearing)
    assert "beta must be finite, got inf" in validate_config(config)


def test_saved_config_holds_the_fields_only(default_config, base_config, tmp_path):
    out = tmp_path / "saved.json"
    for config in (default_config, base_config):
        save_config(config, out)
        assert list(json.loads(out.read_text())) == [
            f.name for f in dataclasses.fields(config)]
        assert "spring_arm_length" not in out.read_text()
    # the shipped default round-trips to its own bytes
    shipped = lbvt.default_config_path().read_bytes()
    save_config(default_config, out, provenance=json.loads(shipped)["provenance"])
    assert out.read_bytes() == shipped


def test_sweep_table_requires_increasing_abscissae():
    SweepTable(columns=("x (s)", "y (m)"), rows=[(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError):
        SweepTable(columns=("x (s)", "y (m)"), rows=[(0.0, 1.0), (0.0, 2.0)])
    with pytest.raises(ValueError):
        SweepTable(columns=("x (s)", "y (m)"), rows=[(1.0, 1.0), (0.0, 2.0)])


def test_sweep_table_unknown_column_lists_names():
    table = SweepTable(columns=("x (s)", "y (m)"), rows=[(0.0, 1.0)])
    with pytest.raises(KeyError, match="y \\(m\\)"):
        table.column("z")


def test_sweep_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        SweepTable(columns=("x (s)", "y (m)"), rows=[(0.0,)])


def test_chain_state_regimes_follow_deflections(default_config):
    rng = np.random.default_rng(42)
    limits = default_config.joint_open_limit
    for _ in range(500):
        d = []
        for lim in limits:
            pick = rng.integers(0, 3)
            d.append(0.0 if pick == 0 else lim if pick == 1 else rng.uniform(0.0, lim))
        state = chain.make_chain_state(default_config, d)
        for dk, lim, reg in zip(state.deflection, limits, state.regime):
            if dk == 0.0:
                assert reg is Regime.CLOSED
            elif dk >= lim:
                assert reg is Regime.END_STOP
            else:
                assert reg is Regime.ACTIVE


def test_chain_state_geometry_is_reproducible(default_config):
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = tuple(rng.uniform(0.0, lim) for lim in default_config.joint_open_limit)
        a = chain.make_chain_state(default_config, d)
        b = chain.make_chain_state(default_config, d)
        assert abs(a.l4 - b.l4) < 1e-12
        assert abs(a.tip[0] - b.tip[0]) < 1e-12
        assert abs(a.tip[1] - b.tip[1]) < 1e-12


# every library entry that reads a config, called with arguments it accepts
# from a valid one
_GATED_ENTRIES = {
    "solve_equilibrium": lambda c: equilibrium.solve_equilibrium(c, THETA_88, 5.0),
    "triggering_force": lambda c: equilibrium.triggering_force(c, THETA_88),
    "calibrate": lambda c: analysis.calibrate(c, 20.0, 0.4, THETA_88),
    "ratio_step_direct": lambda c: analysis.ratio_step_direct(c, THETA_88),
    "total_stiffness": total_stiffness,
    "save_config": lambda c: save_config(c, os.devnull),
    "closed_lever": chain.closed_lever,
    "open_lever": chain.open_lever,
    "joint_torques": lambda c: chain.joint_torques(c, (0.0,) * c.n_joints, 1.0),
    "make_chain_state": lambda c: chain.make_chain_state(c, (0.0,) * c.n_joints),
    "jacobian": lambda c: linkage.jacobian(c, THETA_88, 0.07),
    "actuator_length": lambda c: linkage.actuator_length(c, THETA_88, 0.07),
    "sweep_torque_vs_angle": lambda c: analysis.sweep_torque_vs_angle(
        c, 50.0, c.theta_min, c.theta_max, math.radians(20.0)),
    **{name: lambda c, name=name: getattr(analysis, name)(c, THETA_88, 0.0, 50.0, 10.0)
       for name in ("sweep_trigger", "sweep_torque_vs_force", "sweep_ratio_vs_force")},
}


@pytest.mark.parametrize("case", INVALID_UPDATES, ids=list(INVALID_UPDATES))
def test_every_entry_refuses_an_invalid_config(default_config, case):
    # with validate_config's violations; a preload outside [0, 2*pi] passes
    # every other check, so without the gate a trigger and a solve come out
    config = dataclasses.replace(default_config, **INVALID_UPDATES[case])
    message = "invalid config: " + "; ".join(validate_config(config))
    for name, call in _GATED_ENTRIES.items():
        with pytest.raises(ConfigError) as exc:
            call(config)
        assert str(exc.value) == message, name
