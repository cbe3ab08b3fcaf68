import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

import lbvt
from lbvt import equilibrium, linkage
from lbvt.model import ConfigError, MechanismConfig, per_joint_stiffness

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


# field updates that make the default config invalid, by id, with the
# violations its build is refused for: travel limits and chain angles at which
# no fully open lever can be built, a segment of no length, a preload past
# one turn and a negative one, an attachment past the input bar's end or on
# the actuator base's circle, a degenerate knee range, four-bars that cannot
# close, wrong shapes and counts, and values that a reader refuses or finds
# not finite. A file can hold most rows; the last ones hold numpy values, a
# range or a generator, which only a call can give. A generator is used up
# by a build, so its row gives a function that makes the updates afresh
# (invalid_case).
_DEFAULT = lbvt.load_default_config()
_SHORT_FOURBAR = ("four-bar closure fails with the {} lever: closure infeasible at "
                  "theta=-141.000 deg, l4={} m: pivot span {} m exceeds l2 + l3 = 0.02000 m")
INVALID_UPDATES = {
    "negative": ({"joint_open_limit": (-0.1,) + (0.1,) * 5},
                 ["joint_open_limit[0] must be non-negative, got -0.1"]),
    "barely_negative": ({"joint_open_limit": (0.1,) * 5 + (-1e-13,)},
                        ["joint_open_limit[5] must be non-negative, got -1e-13"]),
    "nan": ({"joint_open_limit": (math.nan,) + (0.1,) * 5},
            ["joint_open_limit[0] must be finite, got nan"]),
    "inf": ({"joint_open_limit": (math.inf,) + (0.1,) * 5},
            ["joint_open_limit[0] must be finite, got inf"]),
    "minus_inf": ({"joint_open_limit": (0.1,) * 5 + (-math.inf,)},
                  ["joint_open_limit[5] must be finite, got -inf"]),
    "short": ({"joint_open_limit": (0.1,) * 3}, ["joint_open_limit has 3 entries, expected 6"]),
    "zero_segment": ({"segments": (0.02,) * 5 + (0.0,)},
                     ["segments[5] must be strictly positive, got 0.0"]),
    "inf_beta": ({"beta": math.inf}, ["beta must be finite, got inf"]),
    "nan_beta": ({"beta": math.nan}, ["beta must be finite, got nan"]),
    "huge_int_beta": ({"beta": 10 ** 400}, ["beta: integer too large for a float"]),
    "open_angle_nan": ({"phi": (-math.inf,) + (0.0,) * 5,
                        "joint_open_limit": (math.inf,) + (0.1,) * 5},
                       ["phi[0] must be finite, got -inf",
                        "joint_open_limit[0] must be finite, got inf"]),
    "preload_past_one_turn": ({"alpha_preload": 7.0},
                              ["alpha_preload must not exceed 2*pi (one turn), got 7.0"]),
    "negative_preload": ({"alpha_preload": -0.5}, ["alpha_preload must be non-negative, got -0.5"]),
    "attach_ratio_above_one": ({"actuator_attach_ratio": 1.2},
                               ["actuator_attach_ratio must lie in [0, 1], got 1.2"]),
    "short_fourbar": ({"l2": 0.01, "l3": 0.01},
                      [_SHORT_FOURBAR.format("closed", "0.06544", "0.30639"),
                       _SHORT_FOURBAR.format("fully open", "0.09277", "0.33093")]),
    "str_theta_min": ({"theta_min": "x"}, ["theta_min: expected a number, got str"]),
    "nan_theta_min": ({"theta_min": math.nan}, ["theta_min must be finite, got nan"]),
    "str_k_spring": ({"k_spring": "x"}, ["k_spring: expected a number, got str"]),
    "nan-float": ({"k_spring": math.nan}, ["k_spring must be finite, got nan"]),
    "inf-angle": ({"beta": -math.inf}, ["beta must be finite, got -inf"]),
    "nan-tuple": ({"segments": (0.01, math.nan, 0.01, 0.01, 0.01, 0.01)},
                  ["segments[1] must be finite, got nan"]),
    "inf-angle-tuple": ({"phi": (math.inf,) + (0.0,) * 5}, ["phi[0] must be finite, got inf"]),
    "int-l1": ({"l1": 1}, [
        "four-bar closure fails with the closed lever: closure infeasible at theta=-141.000 deg, "
        "l4=0.06544 m: pivot span 1.05482 m exceeds l2 + l3 = 0.36600 m",
        "four-bar closure fails with the fully open lever: closure infeasible at "
        "theta=-141.000 deg, l4=0.09277 m: pivot span 1.07807 m exceeds l2 + l3 = 0.36600 m"]),
    "str-l1": ({"l1": "a"}, ["l1: expected a number, got str"]),
    "float-springs": ({"springs_per_joint": 2.5},
                      ["springs_per_joint: expected an integer, got float"]),
    "empty-segments": ({"segments": ()}, ["segments must contain at least one entry",
                                          "phi has 6 entries, expected 0 (one per segment)",
                                          "joint_open_limit has 6 entries, expected 0"]),
    "refused-list": ({"actuator_base": [0.05, -0.05, 0.0]},
                     ["actuator_base: expected exactly two coordinates, got 3"]),
    "refused-tuple": ({"actuator_base": (0, 0, 1)},
                      ["actuator_base: expected exactly two coordinates, got 3"]),
    "bool-in-tuple": ({"actuator_base": (True, -0.05)},
                      ["actuator_base[0]: expected a number, got bool"]),
    "str-angle": ({"alpha_preload": "one turn"}, ["alpha_preload: expected a number, got str"]),
    "zero_l2": ({"l2": 0.0}, ["l2 must be strictly positive, got 0.0"]),
    "negative_l2": ({"l2": -1.0}, ["l2 must be strictly positive, got -1.0"]),
    "three_fields": ({"l2": -1.0, "k_spring": 0.0, "springs_per_joint": 0},
                     ["l2 must be strictly positive, got -1.0",
                      "springs_per_joint must be at least 1, got 0",
                      "k_spring must be strictly positive, got 0.0"]),
    "zero_k_spring": ({"k_spring": 0.0}, ["k_spring must be strictly positive, got 0.0"]),
    "huge_int_k_spring": ({"k_spring": 10 ** 400}, ["k_spring: integer too large for a float"]),
    "huge_int_springs": ({"springs_per_joint": 10 ** 400},
                         ["per-joint stiffness springs_per_joint * k_spring must be finite"]),
    "degenerate_knee_range": ({"theta_min": _DEFAULT.theta_max},
                              ["knee range is degenerate: theta_min -0.6894050545377601 must be "
                               "below theta_max -0.6894050545377601"]),
    "short_coupler": ({"l3": 0.22}, [
        "four-bar closure fails with the fully open lever: closure infeasible at "
        "theta=-141.000 deg, l4=0.09277 m: pivot span 0.33093 m exceeds l2 + l3 = 0.32100 m"]),
    "base_on_attachment_circle": (
        {"actuator_base": (_DEFAULT.l1, _DEFAULT.actuator_attach_ratio * _DEFAULT.l2)},
        ["actuator base lies on the attachment circle, 0.07575 m about the input-bar ground "
         "pivot: the actuator length can reach 0"]),
    "preload_one_ulp_past_one_turn": (
        {"alpha_preload": math.nextafter(2.0 * math.pi, 7.0)},
        ["alpha_preload must not exceed 2*pi (one turn), got 6.283185307179587"]),
    "preload_1e6": ({"alpha_preload": 1e6},
                    ["alpha_preload must not exceed 2*pi (one turn), got 1000000.0"]),
    "nan_attach_ratio": ({"actuator_attach_ratio": math.nan},
                         ["actuator_attach_ratio must be finite, got nan"]),
    "minus_inf_l_offset": ({"l_offset": -math.inf}, ["l_offset must be finite, got -inf"]),
    "inf_preload": ({"alpha_preload": math.inf}, ["alpha_preload must be finite, got inf"]),
    "nan_preload": ({"alpha_preload": math.nan}, ["alpha_preload must be finite, got nan"]),
    "inf_theta_max": ({"theta_max": math.inf}, ["theta_max must be finite, got inf"]),
    "short_phi": ({"phi": _DEFAULT.phi[:-1]}, ["phi has 5 entries, expected 6 (one per segment)"]),
    "no-segments": ({"segments": (), "phi": (), "joint_open_limit": ()},
                    ["segments must contain at least one entry"]),
    "short-open-limits": ({"joint_open_limit": (0.1,) * 5},
                          ["joint_open_limit has 5 entries, expected 6"]),
    "branch-sign-0": ({"branch_sign": 0}, ["branch_sign must be +1 or -1, got 0"]),
    "three-coordinate-base": ({"actuator_base": (0.05, -0.05, 0.0)},
                              ["actuator_base: expected exactly two coordinates, got 3"]),
    "one-coordinate-base": ({"actuator_base": (0.05,)},
                            ["actuator_base: expected exactly two coordinates, got 1"]),
    "huge-int-phi": ({"phi": (10 ** 400,) * 6}, ["phi[0]: integer too large for a float"]),
    "str-phi": ({"phi": ("-0.1",) * 6}, ["phi[0]: expected a number, got str"]),
    "str_beta": ({"beta": "twenty-nine"}, ["beta: expected a number, got str"]),
    "str_segment": ({"segments": (0.018, 0.018, "x", 0.018, 0.018, 0.018)},
                    ["segments[2]: expected a number, got str"]),
    "float_segments": ({"segments": 0.1}, ["segments: expected a list of numbers, got float"]),
    "str_l1_and_segment": ({"l1": "long", "segments": (0.018, "short") + (0.018,) * 4},
                           ["l1: expected a number, got str",
                            "segments[1]: expected a number, got str"]),
    "ndarray": ({"segments": np.array([0.01] * 6)},
                ["segments: expected a list of numbers, got ndarray"]),
    "ndarray-and-huge-angle": ({"segments": np.array([0.01] * 6), "alpha_preload": 10 ** 400},
                               ["segments: expected a list of numbers, got ndarray",
                                "alpha_preload: integer too large for a float"]),
    "ndarray-phi": ({"phi": np.radians([-10.0] * 6)},
                    ["phi: expected a list of numbers, got ndarray"]),
    "float32-phi": ({"phi": (np.float32(-0.1),) * 6}, ["phi[0]: expected a number, got float32"]),
    "range-limits": ({"joint_open_limit": range(6)},
                     ["joint_open_limit: expected a list of numbers, got range"]),
    "generator-segments": (lambda: {"segments": (x for x in (0.01,) * 6)},
                           ["segments: expected a list of numbers, got generator"]),
}


def invalid_case(case: str) -> tuple[dict, list[str]]:
    """INVALID_UPDATES[case] as (updates, violations), a row's function called afresh."""
    updates, violations = INVALID_UPDATES[case]
    return (updates() if callable(updates) else updates), violations


def refusal(base: MechanismConfig, **updates) -> list[str]:
    """The violations that refuse the build of base with updates; [] when it builds.

    The refusal's message is "invalid config: " and the violations joined by
    "; ", and it keeps them as a tuple.
    """
    try:
        dataclasses.replace(base, **updates)
    except ConfigError as exc:
        assert type(exc.violations) is tuple and exc.violations
        assert str(exc) == "invalid config: " + "; ".join(exc.violations)
        return list(exc.violations)
    return []


def unchecked(base: MechanismConfig, **updates) -> MechanismConfig:
    """base with updates, built with linkage's closure check switched off.

    For the kernels' own tests on a four-bar that no valid config has, which
    is otherwise never built; its fields must pass their checks.
    """
    with mock.patch.object(linkage, "_closure_violations", lambda config: []):
        return dataclasses.replace(base, **updates)


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
    """Fully collinear chain: anchor plus n segments all along the beta ray.

    Built unchecked: the shipped four-bar cannot close on its lever.
    """
    return unchecked(
        reduced_chain(1),
        beta=beta,
        segments=(seg,) * n,
        phi=(0.0,) * n,
        joint_open_limit=(math.radians(10.0),) * n,
        alpha_preload=0.05,
        l_offset=l_offset,
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
    nine draws in ten build.
    """
    base = lbvt.load_default_config()

    def scaled(values, rel):
        return tuple(float(v * rng.uniform(1.0 - rel, 1.0 + rel)) for v in values)

    while True:
        try:
            return dataclasses.replace(
                base,
                l_offset=scaled([base.l_offset], 0.3)[0],
                beta=float(base.beta + rng.uniform(-0.3, 0.3)),
                segments=scaled(base.segments, 0.4),
                phi=tuple(float(p + rng.uniform(-0.3, 0.3)) for p in base.phi),
                joint_open_limit=scaled(base.joint_open_limit, 0.6),
                alpha_preload=scaled([base.alpha_preload], 0.8)[0],
                k_spring=scaled([base.k_spring], 0.5)[0],
            )
        except ConfigError:  # the draw fails validation: draw again
            continue


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
