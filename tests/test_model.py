import dataclasses
import math
import re

import numpy as np
import pytest

from lbvt.model import (
    ConfigError,
    MechanismConfig,
    Regime,
    SweepTable,
    per_joint_stiffness,
    total_stiffness,
    validate_config,
)
from lbvt import chain

from conftest import reduced_chain


def test_default_config_validates(default_config):
    assert validate_config(default_config) == []


def test_zero_input_bar_is_reported(default_config):
    bad = default_config.with_updates(l2=0.0)
    violations = validate_config(bad)
    assert len(violations) == 1
    assert "l2" in violations[0]


def test_degenerate_knee_range_is_reported(default_config):
    bad = default_config.with_updates(theta_min=default_config.theta_max)
    violations = validate_config(bad)
    assert any("theta_min" in v and "theta_max" in v for v in violations)


def test_validation_is_deterministic(default_config):
    bad = default_config.with_updates(l2=-1.0, k_spring=0.0, springs_per_joint=0)
    assert validate_config(bad) == validate_config(bad)
    assert len(validate_config(bad)) >= 3


def test_infeasible_closure_is_reported_per_lever_state():
    # input bar plus coupler span 0.1 m, short of the ground pivot at 0.25 m
    bad = reduced_chain(2).with_updates(l2=0.05, l3=0.05)
    violations = validate_config(bad)
    assert len(violations) == 2
    for label, v in zip(("closed", "fully open"), violations):
        assert f"the {label} lever" in v
        assert re.search(r"theta=-141\.0+ deg", v)
        assert "exceeds l2 + l3" in v


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
    assert len(slots) == 11 + 2 + 3 * 6  # float fields, actuator_base, per-joint tuples
    for label, (name, i) in slots:
        value = bad
        if i is not None:
            value = list(getattr(default_config, name))
            value[i] = bad
        violations = validate_config(default_config.with_updates(**{name: value}))
        assert f"{label} must be finite, got {bad}" in violations, label


def test_mismatched_joint_arrays_are_reported(default_config):
    bad = default_config.with_updates(phi=default_config.phi[:-1])
    assert any("phi" in v for v in validate_config(bad))


@pytest.mark.parametrize(
    "springs,k,expected",
    [(4, 1.17, 4.68), (1, 0.37, 0.37), (2, 0.5, 1.0)],
)
def test_per_joint_stiffness_parallel_sum(default_config, springs, k, expected):
    cfg = default_config.with_updates(springs_per_joint=springs, k_spring=k)
    assert per_joint_stiffness(cfg) == pytest.approx(expected, abs=1e-12)


def test_total_stiffness_series_value(default_config):
    # 6 joints, four 1.17 Nm/rad springs each -> 0.78 Nm/rad in series
    assert total_stiffness(default_config) == pytest.approx(0.78, abs=1e-6)


def test_total_stiffness_single_joint_identity():
    cfg = reduced_chain(1).with_updates(springs_per_joint=1, k_spring=3.21)
    assert total_stiffness(cfg) == pytest.approx(3.21, abs=1e-12)


def test_total_stiffness_equal_series_pair():
    cfg = reduced_chain(2).with_updates(springs_per_joint=1, k_spring=1.0)
    assert total_stiffness(cfg) == pytest.approx(0.5, abs=1e-12)


def test_total_stiffness_rejects_nonpositive_joints(default_config):
    bad = default_config.with_updates(k_spring=0.0)
    with pytest.raises(ConfigError):
        total_stiffness(bad)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_series_stiffness_bounded_by_softest(default_config, n):
    cfg = default_config.with_updates(
        segments=(0.02,) * n,
        phi=(0.0,) * n,
        joint_open_limit=(0.1,) * n,
    )
    assert total_stiffness(cfg) <= per_joint_stiffness(cfg) + 1e-15


def test_config_is_immutable(default_config):
    with pytest.raises(dataclasses.FrozenInstanceError):
        default_config.l1 = 1.0


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
        assert a.moment_arm == b.moment_arm and a.gamma == b.gamma
