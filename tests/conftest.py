import dataclasses
import math
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import lbvt
from lbvt import analysis, chain, equilibrium, linkage
from lbvt.model import ConfigError, GeometryError, MechanismConfig, _AngleError, per_joint_stiffness

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


# every number argument of a public entry: (entry, its working arguments after
# the config, the index of the one under test, the name its refusal gives it,
# and the lbvt command and flag that set it, or None). The working values are
# integral, so that an int of one is the same number; a sweep's range and step
# are named as sample_ladder names them.
_FORCE_COMMANDS = {"sweep_trigger": "trigger", "sweep_torque_vs_force": "sweep-force",
                   "sweep_ratio_vs_force": "ratio"}
_ANGLE_SWEEP_ARGS = (("f_cyl", "f_cyl", "--force"), ("theta_from", "start", "--from"),
                     ("theta_to", "stop", "--to"), ("step", "step", "--step"))
_FORCE_SWEEP_ARGS = (("theta", "theta", "--theta"), ("f_from", "start", "--from"),
                     ("f_to", "stop", "--to"), ("step", "step", "--step"))
_CALIBRATE_ARGS = (("target_trigger", "--trigger"), ("target_ratio_step", "--ratio-step"),
                   ("theta", "--theta"))
NUMBER_ARGUMENTS = {
    **{f"solve_equilibrium-{name}": (equilibrium.solve_equilibrium, (-1.0, 60.0), i, name,
                                     ("solve", flag))
       for i, (name, flag) in enumerate((("theta", "--theta"), ("f_cyl", "--force")))},
    "triggering_force-theta": (equilibrium.triggering_force, (-1.0,), 0, "theta", None),
    **{f"{entry.__name__}-{name}": (entry, (-1.0, 0.08), i, name, None)
       for entry in (linkage.jacobian, linkage.actuator_length)
       for i, name in enumerate(("theta", "l4"))},
    "joint_torques-f_end": (lambda c, f: chain.joint_torques(c, (0.0,) * 6, f), (17.0,), 0,
                            "f_end", None),
    **{f"sweep_torque_vs_angle-{arg}": (analysis.sweep_torque_vs_angle, (60.0, -2.0, -1.0, 1.0),
                                        i, name, ("sweep-angle", flag))
       for i, (arg, name, flag) in enumerate(_ANGLE_SWEEP_ARGS)},
    **{f"{sweep}-{arg}": (getattr(analysis, sweep), (-1.0, 0.0, 20.0, 5.0), i, name,
                          (command, flag))
       for sweep, command in _FORCE_COMMANDS.items()
       for i, (arg, name, flag) in enumerate(_FORCE_SWEEP_ARGS)},
    **{f"sample_ladder-{name}": (lambda c, *a: analysis.sample_ladder(*a), (0.0, 10.0, 1.0), i,
                                 name, None)
       for i, name in enumerate(("start", "stop", "step"))},
    "ratio_step_direct-theta": (analysis.ratio_step_direct, (-1.0,), 0, "theta", None),
    **{f"calibrate-{name}": (analysis.calibrate, (18.0, 0.4, -1.0), i, name, ("calibrate", flag))
       for i, (name, flag) in enumerate(_CALIBRATE_ARGS)},
}

# the config and the arguments after it that a case's refused values are
# given with, where they are not the default config and the working arguments:
# those of the one-off tests whose cases became rows. The angle sweep runs the
# knee range in 10 deg steps; a force sweep's or the ladder's step is refused
# on the 401-row ladder, which a float32 0.5 step would run in float32; and
# calibrate's targets are zero, so that no search runs.
_BASE = lbvt.load_config(lbvt.base_config_path())
_REFUSED_WITH = {
    "solve_equilibrium-theta": (_DEFAULT, (-1.0, 10.0)),
    "solve_equilibrium-f_cyl": (_DEFAULT, (THETA_88, 60.0)),
    **{f"{entry}-{name}": (_DEFAULT, args) for entry in ("jacobian", "actuator_length")
       for name, args in (("theta", (-1.0, 0.1)), ("l4", (THETA_88, 0.08)))},
    **{f"sweep_torque_vs_angle-{arg}": (_DEFAULT, (60.0, _DEFAULT.theta_min, _DEFAULT.theta_max,
                                                   math.radians(10.0)))
       for arg, _, _ in _ANGLE_SWEEP_ARGS},
    **{f"{sweep}-{arg}": (_DEFAULT, (THETA_88, 0.0, 10.0, 1.0) if arg != "step" else
                          (THETA_88, 0.0, 200.0, 0.5))
       for sweep in _FORCE_COMMANDS for arg, _, _ in _FORCE_SWEEP_ARGS},
    **{f"sample_ladder-{name}": (_DEFAULT, (0.0, 1.0, 0.5) if name != "step" else
                                 (0.0, 200.0, 0.5))
       for name in ("start", "stop", "step")},
    **{f"calibrate-{name}": (_BASE, (0.0, 0.0, THETA_88)) for name, _ in _CALIBRATE_ARGS},
}

# each kind of number an argument refuses, made from the number it takes
_KINDS = {"str": str, "bool": bool, "float32": np.float32, "int64": np.int64, "Decimal": Decimal,
          "Fraction": Fraction}
# the refusal of a NaN or infinite value by the name an argument's refusal gives
# it; model._read_finite refuses every other name's
_NOT_FINITE_REFUSALS = {
    "f_cyl": (ValueError, "f_cyl must be non-negative and finite, got {}"),
    "start": (analysis._LadderError, "range start must be finite, got {}"),
    "stop": (analysis._LadderError, "range stop must be finite, got {}"),
    "step": (analysis._LadderError, "step must be positive and finite, got {}"),
}


def _knee_angles(config: MechanismConfig) -> dict:
    """Knee angles outside config's range, by label: -170 and 10 deg, 1e-8 rad past each end."""
    return {"-170deg": math.radians(-170.0), "10deg": math.radians(10.0),
            "min-1e-8": config.theta_min - 1e-8, "max+1e-8": config.theta_max + 1e-8}


def _outside(config: MechanismConfig, theta: float) -> str:
    return f"theta={theta} outside the configured range [{config.theta_min}, {config.theta_max}]"


def _refusals() -> tuple[dict, dict]:
    """REFUSED_NUMBERS and REFUSED_FLAGS: each argument's kinds, non-finite values and range."""
    library, flags = {}, {}

    def row(case, label, value, error, message, config=None, args=None, flag=False,
            replaces=False):
        # flag: lbvt prints this refusal as worded, if a flag sets the argument
        _, working, i, _, cli = NUMBER_ARGUMENTS[case]
        given_config, given = _REFUSED_WITH.get(case, (_DEFAULT, working))
        args = given if args is None else args
        key = f"{case}-{label}"
        assert (key in library) == replaces, key
        library[key] = (case, given_config if config is None else config,
                        args[:i] + (value,) + args[i + 1:], error, message)
        if flag and cli:
            flags[key] = (*cli, str(value), message)

    for case, (_, working, i, name, _) in NUMBER_ARGUMENTS.items():
        given = _REFUSED_WITH.get(case, (None, working))[1]
        for label, make in _KINDS.items():
            row(case, label, make(given[i]), ValueError, f"{name}: expected a number, got {label}")
        error, message = _NOT_FINITE_REFUSALS.get(name, (ValueError,
                                                         name + " must be finite, got {}"))
        # a flag reads a float, and a NaN or infinite angle reads the same in degrees
        for value in (math.nan, math.inf, -math.inf):
            row(case, str(value), value, error, message.format(value), flag=True)
    # solved, unconverged (test_nan_force_is_not_converged); lbvt solve refuses it
    del library["solve_equilibrium-f_cyl-nan"]

    for case in ("solve_equilibrium-f_cyl", "sweep_torque_vs_angle-f_cyl"):
        row(case, "negative", -1.0, ValueError, "f_cyl must be non-negative and finite, got -1.0",
            flag=True)
    row("solve_equilibrium-theta", "0.5rad", 0.5, _AngleError, _outside(_DEFAULT, 0.5))
    for case in ("solve_equilibrium-theta", *(f"{sweep}-theta" for sweep in _FORCE_COMMANDS)):
        for label, theta in _knee_angles(_DEFAULT).items():
            row(case, label, theta, _AngleError, _outside(_DEFAULT, theta))
    for case in ("triggering_force-theta", "ratio_step_direct-theta", "calibrate-theta"):
        for label, theta in _knee_angles(_BASE).items():
            row(case, label, theta, _AngleError, _outside(_BASE, theta), config=_BASE,
                args=(20.0, 0.40, theta) if case == "calibrate-theta" else None)
    # the angle sweep's first sample is its start; a start past the range's end reverses it
    angles = _knee_angles(_DEFAULT)
    for label in ("-170deg", "min-1e-8"):
        row("sweep_torque_vs_angle-theta_from", label, angles[label], _AngleError,
            _outside(_DEFAULT, angles[label]))
    for label in ("10deg", "max+1e-8"):
        row("sweep_torque_vs_angle-theta_from", label, angles[label], analysis._LadderError,
            f"range end {_DEFAULT.theta_max} below start {angles[label]}")
    row("sweep_torque_vs_angle-theta_to", "reversed", angles["-170deg"], analysis._LadderError,
        f"range end {angles['-170deg']} below start {_DEFAULT.theta_min}")
    for case in ("sample_ladder-stop", *(f"{sweep}-f_to" for sweep in _FORCE_COMMANDS)):
        row(case, "reversed", -1.0, analysis._LadderError, "range end -1.0 below start 0.0")
    for sweep in _FORCE_COMMANDS:  # refused before the ladder reads the start
        for label, start in (("-inf", -math.inf), ("negative", -1.0)):
            row(f"{sweep}-f_from", label, start, ValueError,
                f"force range must be non-negative, got start {start}", flag=True,
                replaces=label == "-inf")
    # lbvt sweep-angle restates its ladder's refusals in degrees
    for case in ("sample_ladder-step", "sweep_torque_vs_angle-step",
                 *(f"{sweep}-step" for sweep in _FORCE_COMMANDS)):
        for label, step in (("zero", 0.0), ("negative", -1.0)):
            row(case, label, step, analysis._LadderError,
                f"step must be positive and finite, got {step}",
                flag=case != "sweep_torque_vs_angle-step")
    for case in ("jacobian-l4", "actuator_length-l4"):  # the closure kernel's own refusal
        for label, l4 in (("zero", 0.0), ("negative", -0.1)):
            row(case, label, l4, GeometryError, f"lever length must be positive, got {l4}")
    row("calibrate-target_trigger", "negative", -1.0, ValueError,
        "calibration targets must be non-negative", args=(-1.0, 0.40, THETA_88))
    row("calibrate-target_ratio_step", "negative", -0.1, ValueError,
        "calibration targets must be non-negative", args=(20.0, -0.1, THETA_88))
    return library, flags


# every refused value of a number argument, by id: (NUMBER_ARGUMENTS case,
# the config and the arguments after it that the entry is given, the
# exception's type and its message). A refused kind holds the number the
# argument is given. The refusals of number flags, by the same ids: (command,
# flag, value as typed, message), for lbvt prints the entry's message. At the
# flag only, lbvt solve refuses a NaN --force.
REFUSED_NUMBERS, REFUSED_FLAGS = _refusals()


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
