import dataclasses
import math

import numpy as np
import pytest

import lbvt
from lbvt import equilibrium
from lbvt.model import MechanismConfig, per_joint_stiffness, validate_config

THETA_88 = math.radians(-88.0)

# values that a number argument or field refuses, by the type name its message gives
NOT_A_NUMBER = {"str": "0", "bool": False, "float32": np.float32(0.0)}


def _with_bearing(target_bearing_deg: float, **kw) -> MechanismConfig:
    """Build a config, choosing beta so the closed tip bearing hits the target."""
    probe = MechanismConfig(beta=0.0, **kw)
    return MechanismConfig(beta=math.radians(target_bearing_deg) - probe.lever_bearing, **kw)


_FOURBAR = dict(
    l1=0.25,
    l2=0.101,
    l3=0.265,
    actuator_base=(0.05, -0.05),
    actuator_attach_ratio=0.75,
    l_offset=0.045,
    k_spring=1.17,
    springs_per_joint=4,
    theta_min=math.radians(-141.0),
    theta_max=math.radians(-39.5),
    branch_sign=1,
)


# field updates that make the default config invalid, by id: travel limits
# and chain angles at which no fully open lever can be built, a preload past
# one turn and a negative one, a four-bar too short to close, and a knee range
# or a stiffness that a reader refuses or finds not finite
INVALID_UPDATES = {
    "negative": {"joint_open_limit": (-0.1,) + (0.1,) * 5},
    "barely_negative": {"joint_open_limit": (0.1,) * 5 + (-1e-13,)},
    "nan": {"joint_open_limit": (math.nan,) + (0.1,) * 5},
    "inf": {"joint_open_limit": (math.inf,) + (0.1,) * 5},
    "minus_inf": {"joint_open_limit": (0.1,) * 5 + (-math.inf,)},
    "short": {"joint_open_limit": (0.1,) * 3},
    "inf_beta": {"beta": math.inf},
    "nan_beta": {"beta": math.nan},
    "huge_int_beta": {"beta": 10 ** 400},
    "open_angle_nan": {"phi": (-math.inf,) + (0.0,) * 5,
                       "joint_open_limit": (math.inf,) + (0.1,) * 5},
    "preload_past_one_turn": {"alpha_preload": 7.0},
    "negative_preload": {"alpha_preload": -0.5},
    "short_fourbar": {"l2": 0.01, "l3": 0.01},
    "str_theta_min": {"theta_min": "x"},
    "nan_theta_min": {"theta_min": math.nan},
    "str_k_spring": {"k_spring": "x"},
}


def reduced_chain(n: int, alpha_preload: float = 0.10) -> MechanismConfig:
    """Reduced 1-, 2- or 3-joint chain on the shipped four-bar, oracle-friendly."""
    shapes = {
        1: ((0.05,), (-20.0,), (0.05,)),
        2: ((0.03, 0.03), (-5.0, -30.0), (0.05, 0.04)),
        3: ((0.022, 0.022, 0.022), (0.0, -25.0, -25.0), (0.04, 0.03, 0.02)),
    }
    segments, phi_deg, limits = shapes[n]
    return _with_bearing(
        -5.0,
        segments=segments,
        phi=tuple(math.radians(p) for p in phi_deg),
        joint_open_limit=limits,
        alpha_preload=alpha_preload,
        **_FOURBAR,
    )


def straight_chain(l_offset: float = 0.1, seg: float = 0.05, beta: float = 0.0,
                   n: int = 6) -> MechanismConfig:
    """Fully collinear chain: anchor plus n segments all along the beta ray."""
    return MechanismConfig(
        beta=beta,
        segments=(seg,) * n,
        phi=(0.0,) * n,
        joint_open_limit=(math.radians(10.0),) * n,
        alpha_preload=0.05,
        **{**_FOURBAR, "l_offset": l_offset},
    )


@pytest.fixture(scope="session")
def default_config() -> MechanismConfig:
    return lbvt.load_default_config()


@pytest.fixture(scope="session")
def base_config() -> MechanismConfig:
    return lbvt.load_config(lbvt.base_config_path())


def count_calls(monkeypatch, owner, name):
    """Count calls of owner.<name>, a method or module function, to the end of the test."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


KERNEL_ULPS = 8


def assert_ulps(array_values, scalar_values, ulps=KERNEL_ULPS):
    """Equal within ulps units in the last place of the largest magnitude among both.

    The oracle's numpy kernels and the library's float kernels evaluate the
    same expressions, but numpy's vectorized sin and cos may round
    differently from the math module's. Measured on x86-64 with numpy 2.4,
    the kernel tests differ by 4 ulps at most.
    """
    scale = max(map(abs, [*array_values, *scalar_values]))
    for a, b in zip(array_values, scalar_values, strict=True):
        assert abs(float(a) - b) <= ulps * math.ulp(scale), (a, b)


def random_config(rng) -> MechanismConfig:
    """The default config with its chain and spring fields perturbed, redrawn until valid.

    Each draw scales l_offset by 1 +- 0.3, each segment by 1 +- 0.4, each
    travel limit by 1 +- 0.6, alpha_preload by 1 +- 0.8 and k_spring by
    1 +- 0.5, and shifts beta and each phi by +-0.3 rad, all uniform; about
    nine draws in ten validate.
    """
    base = lbvt.load_default_config()

    def scaled(values, rel):
        return tuple(float(v * rng.uniform(1.0 - rel, 1.0 + rel)) for v in values)

    while True:
        config = dataclasses.replace(
            base,
            l_offset=scaled([base.l_offset], 0.3)[0],
            beta=float(base.beta + rng.uniform(-0.3, 0.3)),
            segments=scaled(base.segments, 0.4),
            phi=tuple(float(p + rng.uniform(-0.3, 0.3)) for p in base.phi),
            joint_open_limit=scaled(base.joint_open_limit, 0.6),
            alpha_preload=scaled([base.alpha_preload], 0.8)[0],
            k_spring=scaled([base.k_spring], 0.5)[0],
        )
        if not validate_config(config):
            return config


def fixed_point_map(config: MechanismConfig, theta: float, f_cyl: float):
    """T(d) = clip(a(d) / k - a0, 0, limit) per joint, as a function of the deflections d.

    a(d) are the applied joint torques of the solver's own load map
    (_LoadMap.evaluate). An equilibrium is a fixed point of T.
    """
    load = equilibrium._LoadMap(config, theta, f_cyl)
    k = per_joint_stiffness(config)
    a0 = config.alpha_preload
    limits = config.joint_open_limit
    return lambda d: [min(max(a / k - a0, 0.0), lim)
                      for a, lim in zip(load.evaluate(d)[0], limits)]


def _climb(config: MechanismConfig, theta: float, f_cyl: float, budget: int):
    """The loading-branch equilibrium by plain iteration d <- T(d) from the closed chain.

    T is fixed_point_map. It is isotone, so the iteration climbs
    monotonically to the least fixed point, the branch that loading from
    zero force follows. Its independence from the solver lies in the
    method: no Newton step, no regime logic and no force ladder. Returns the
    deflections once max |T(d) - d| <= 1e-14 rad, or None if that takes
    more than budget passes.
    """
    step = fixed_point_map(config, theta, f_cyl)
    d = [0.0] * config.n_joints
    for _ in range(budget):
        t = step(d)
        if max(abs(x - y) for x, y in zip(t, d)) <= 1e-14:
            return t
        d = t
    return None
