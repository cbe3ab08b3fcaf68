import dataclasses
import json
import math
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
from conftest import (INVALID_UPDATES, NUMBER_ARGUMENTS, REFUSED_NUMBERS, THETA_88, _FOURBAR,
                      _with_bearing, count_calls, invalid_case, reduced_chain, refusal, unchecked)


def test_default_config_validates(default_config):
    assert validate_config(default_config) == []


def test_infeasible_closure_is_reported_per_lever_state():
    # input bar plus coupler span 0.1 m, short of the ground pivot at 0.25 m
    violations = refusal(reduced_chain(2), l2=0.05, l3=0.05)
    assert len(violations) == 2
    for label, v in zip(("closed", "fully open"), violations):
        assert f"the {label} lever" in v
        assert re.search(r"theta=-141\.0+ deg", v)
        assert "exceeds l2 + l3" in v


def test_validation_runs_at_most_three_scalar_kernel_calls(default_config, monkeypatch):
    calls = []
    original = linkage._closure_kernel

    def recorded(config, theta, l4):
        calls.append((type(theta), type(l4)))
        return original(config, theta, l4)

    monkeypatch.setattr(linkage, "_closure_kernel", recorded)
    config = dataclasses.replace(default_config)  # the copy checks its closure here
    assert 1 <= len(calls) <= 3
    assert all(call == (float, float) for call in calls)
    calls.clear()
    assert validate_config(config) == []
    assert calls == []  # validate_config runs no check: the build did


def test_no_call_writes_to_a_built_config(default_config, base_config):
    config = dataclasses.replace(base_config)
    built = dict(vars(config))
    equilibrium.solve_equilibrium(config, THETA_88, 165.0)
    equilibrium.triggering_force(config, THETA_88)
    analysis.ratio_step_direct(config, THETA_88)
    analysis.calibrate(config, 20.0, 0.40, THETA_88)
    assert vars(config) == built


def test_the_build_runs_two_chain_passes(base_config, monkeypatch):
    # for the closed and the fully open lever; the closure check reads them off the config
    calls = count_calls(monkeypatch, chain, "_geometry")
    dataclasses.replace(base_config, alpha_preload=0.1)
    assert calls[0] == 2


def _random_config(base, rng, wide):
    """base with every geometric field perturbed; wide draws also move the range and branch.

    Built unchecked (conftest.unchecked), so that a four-bar that cannot
    close can still be probed by the kernels.
    """
    s = 0.5 if wide else 0.1

    def scaled(x):
        return x * (1.0 + s * rng.uniform(-1.0, 1.0))

    if wide:
        theta_min = rng.uniform(-math.pi + 1e-3, -0.2)
        theta_max = rng.uniform(theta_min + 0.05, 0.0)
    else:
        theta_min = base.theta_min + rng.uniform(-0.1, 0.1)
        theta_max = base.theta_max + rng.uniform(-0.1, 0.1)
    return unchecked(
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
        levers = np.linspace(config._closed_lever, config._open_lever, 21)
        try:
            oracle.closure_kernel(config, thetas, levers)
            grid_ok = True
        except model.GeometryError:
            grid_ok = False
        assert (refusal(config) == []) == grid_ok, config
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
    bad = unchecked(config, l3=config.l1 + levers.max() - 2e-7 - config.l2)
    oracle.closure_kernel(bad, _old_sample_angles(bad), levers)  # every sample assembles
    assert refusal(bad) == [
        "four-bar closure fails with the fully open lever: closure infeasible at "
        "theta=-125.000 deg, l4=0.09394 m: pivot span 0.34394 m exceeds l2 + l3 = 0.34394 m"
    ]


def test_shortest_span_at_a_partly_open_lever_is_rejected(default_config):
    # cos(theta + lever_bearing) peaks at theta_max, where l1 * cos is the mean
    # of the two levers: the span is shortest there, l1 * sin, between them;
    # |l2 - l3| sits 1e-6 m above that span and below both end levers' spans
    closed, open_ = chain.closed_lever(default_config), chain.open_lever(default_config)
    cos_max = (closed + open_) / (2.0 * default_config.l1)
    bad = unchecked(
        default_config, theta_max=-math.acos(cos_max) - default_config.lever_bearing,
        l3=default_config.l2 + default_config.l1 * math.sqrt(1.0 - cos_max ** 2) + 1e-6,
    )
    levers = np.array([[closed], [open_]])
    oracle.closure_kernel(bad, _old_sample_angles(bad), levers)  # both end levers assemble
    violations = refusal(bad)
    assert len(violations) == 1
    assert violations[0].startswith(
        "four-bar closure fails with the partly open lever: closure infeasible at "
        "theta=-66.664 deg, l4=0.07910 m: pivot span")
    assert "is below |l2 - l3|" in violations[0]
    # the same |l2 - l3| with l2 + l3 too short for both end levers: the partly
    # open lever still fails, but is checked only when both end levers hold
    worse = refusal(bad, l2=0.01, l3=bad.l3 - bad.l2 + 0.01)
    assert [v.split(":")[0] for v in worse] == [
        f"four-bar closure fails with the {label} lever" for label in ("closed", "fully open")]


def test_a_preload_of_one_turn_is_accepted(default_config):
    # a preload past it is refused (INVALID_UPDATES)
    assert refusal(default_config, alpha_preload=2.0 * math.pi) == []


def test_validation_returns_a_fresh_list(default_config):
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
        violations = refusal(default_config, **{name: value})
        assert f"{label} must be finite, got {bad}" in violations, label


def test_float_field_holding_an_int_too_large_for_a_float_is_reported(default_config):
    # worded as a config file's reader words it, and found before any chain
    # pass, which would raise OverflowError (a tuple field holding one is
    # INVALID_UPDATES' huge-int-phi)
    names = [label for label, (_, i) in _number_slots(default_config) if i is None]
    assert {"beta", "l1", "l_offset"} <= set(names) and len(names) == 10
    for name in names:
        assert refusal(default_config, **{name: 10 ** 400}) == [
            f"{name}: integer too large for a float"], name


def test_a_well_formed_config_keeps_every_given_object(default_config):
    # each reader returns a value it accepts as that very object; an int
    # reads to a float and a list to a tuple of floats, as in a file
    given = {f.name: getattr(default_config, f.name) for f in dataclasses.fields(default_config)}
    config = MechanismConfig(**given)
    for name, value in given.items():
        assert getattr(config, name) is value, name
    config = dataclasses.replace(default_config, k_spring=2, joint_open_limit=[0] * 6,
                                 actuator_base=[0, -0.05])
    assert type(config.k_spring) is float and config.k_spring == 2.0
    assert config.joint_open_limit == (0.0,) * 6 and config.actuator_base == (0.0, -0.05)
    assert all(type(x) is float for x in config.joint_open_limit + config.actuator_base)


def test_replaced_config_recomputes_its_kernel_terms(default_config):
    # the kernels' config-only terms follow the copy's own fields
    config = dataclasses.replace(
        default_config, l2=0.11, l3=0.26, l_offset=0.05, beta=default_config.beta + 0.1,
        segments=default_config.segments[::-1], phi=default_config.phi[::-1],
        actuator_base=(0.04, -0.06), actuator_attach_ratio=0.7, branch_sign=-1)
    terms = {**chain._chain_terms(config), **linkage._closure_terms(config)}
    assert sorted(terms) == ["_actuator", "_anchor", "_closure", "_links"]
    for name, value in terms.items():
        assert getattr(config, name) == value, name
        assert getattr(default_config, name) != value, name


def test_float_field_holding_a_small_int_reads_as_its_float(default_config):
    # as load_config reads an integer in a float field: a valid one and one
    # that the four-bar closure refuses
    assert refusal(default_config, k_spring=2) == []
    for name, value in (("k_spring", 2), ("l1", 1)):
        assert refusal(default_config, **{name: value}) == refusal(
            default_config, **{name: float(value)}), name


class _Float(float):
    """A float subclass of no library's, as numpy's float64 is one."""


_SCALARS_GIVEN = {
    "l1-int": ("l1", lambda c: 1),
    "l1-float64": ("l1", lambda c: np.float64(c.l1)),
    "alpha_preload-int": ("alpha_preload", lambda c: 0),
    "alpha_preload-float64": ("alpha_preload", lambda c: np.float64(c.alpha_preload)),
    "alpha_preload-subclass": ("alpha_preload", lambda c: _Float(c.alpha_preload)),
}


@pytest.mark.parametrize("case", _SCALARS_GIVEN, ids=list(_SCALARS_GIVEN))
def test_a_scalar_field_holds_its_value_as_a_float(default_config, case, tmp_path):
    # as the same value in a tuple field or in a file: the config, its solve
    # and its saved bytes are those of the config built from the float; where
    # the float is refused, the given value is refused alike
    name, make = _SCALARS_GIVEN[case]
    value = make(default_config)
    refused = refusal(default_config, **{name: float(value)})
    assert refusal(default_config, **{name: value}) == refused
    if refused:
        return
    config = dataclasses.replace(default_config, **{name: value})
    as_float = dataclasses.replace(default_config, **{name: float(value)})
    assert type(getattr(config, name)) is float
    assert repr(config) == repr(as_float)
    assert repr(equilibrium.solve_equilibrium(config, THETA_88, 165.0)) == repr(
        equilibrium.solve_equilibrium(as_float, THETA_88, 165.0))
    saved = []
    for each, path in ((config, tmp_path / "given.json"), (as_float, tmp_path / "float.json")):
        save_config(each, path)
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]


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


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_series_stiffness_bounded_by_softest(default_config, n):
    cfg = default_config if n == 6 else reduced_chain(n)
    assert cfg.n_joints == n
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
    {"phi": tuple(math.radians(p) for p in (60.0, -55.0, -50.0, -60.0, -55.0, 40.0))},
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


@pytest.mark.parametrize("case", INVALID_UPDATES, ids=list(INVALID_UPDATES))
def test_an_invalid_config_cannot_be_built(default_config, case):
    # refused with the violations validation finds, by dataclasses.replace
    # (conftest.refusal) and by the constructor alike
    updates, violations = invalid_case(case)
    assert refusal(default_config, **updates) == violations
    given = {f.name: getattr(default_config, f.name) for f in dataclasses.fields(default_config)}
    with pytest.raises(ConfigError) as exc:
        MechanismConfig(**{**given, **invalid_case(case)[0]})
    assert exc.value.violations == tuple(violations)


@pytest.mark.parametrize("case", INVALID_UPDATES, ids=list(INVALID_UPDATES))
def test_the_build_stops_at_the_first_stage_that_refuses(default_config, case, monkeypatch):
    # each stage sees only fields that passed the stages before it: no lever
    # is built on fields that fail a check, and the refusal holds the one
    # refusing stage's violations
    stages = {}

    def recorded(owner, name):
        original = getattr(owner, name)

        def record(config):
            stages[name] = original(config)
            return stages[name]

        monkeypatch.setattr(owner, name, record)

    recorded(model, "_field_violations")
    recorded(linkage, "_closure_violations")
    levers = count_calls(monkeypatch, chain, "_geometry")
    updates, violations = invalid_case(case)
    assert refusal(default_config, **updates) == violations
    if "_closure_violations" in stages:
        assert stages == {"_field_violations": [], "_closure_violations": violations}
        assert levers[0] == 2  # the closed and the fully open lever
    else:
        assert stages in ({}, {"_field_violations": violations})
        assert levers[0] == 0


def _call(config, case, value):
    entry, args, i, _, _ = NUMBER_ARGUMENTS[case]
    return entry(config, *args[:i], value, *args[i + 1:])


def _outcome(call):
    """repr of call's result, or the type and text of what it raised."""
    try:
        return repr(call())
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("row", REFUSED_NUMBERS, ids=list(REFUSED_NUMBERS))
def test_a_refused_number_argument_raises_before_any_work(monkeypatch, row):
    # a refused kind is read as a config file's number is (model._read_argument);
    # no refusal runs a chain pass, and only a lever of no length reaches the
    # closure kernel, which refuses it
    case, config, args, error, message = REFUSED_NUMBERS[row]
    work = [count_calls(monkeypatch, chain, "_geometry"),
            count_calls(monkeypatch, linkage, "_closure_kernel")]
    with pytest.raises(ValueError) as exc:
        NUMBER_ARGUMENTS[case][0](config, *args)
    assert (type(exc.value), str(exc.value)) == (error, message)
    assert work == [[0], [int(error is model.GeometryError)]]


@pytest.mark.parametrize("case", NUMBER_ARGUMENTS, ids=list(NUMBER_ARGUMENTS))
def test_an_int_or_float_subclass_argument_gives_the_float_answer(default_config, case):
    value = NUMBER_ARGUMENTS[case][1][NUMBER_ARGUMENTS[case][2]]
    for given, same in ((int(value), float(int(value))), (np.float64(value), value)):
        assert type(same) is float
        assert _outcome(lambda: _call(default_config, case, given)) == _outcome(
            lambda: _call(default_config, case, same)), (case, type(given).__name__)
