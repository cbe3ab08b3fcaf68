"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import lbvt
from lbvt import analysis, chain, equilibrium, linkage
from lbvt.cli import run
from lbvt.model import Regime, per_joint_stiffness

from conftest import THETA_88, reduced_chain

DEFAULT = str(lbvt.default_config_path())


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number} FAIL {label} ({elapsed:.3f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} PASS {label} ({elapsed:.3f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_criterion_1_stiffness_identity(default_config):
    with criterion(1, "series stiffness of six four-spring joints is 0.78 Nm/rad", 1.0):
        assert default_config.n_joints == 6
        assert default_config.springs_per_joint == 4
        assert default_config.k_spring == 1.17
        lbvt.total_stiffness(default_config)  # warm-up
        start = time.perf_counter()
        k_total = lbvt.total_stiffness(default_config)
        elapsed = time.perf_counter() - start
        assert abs(k_total - 0.78) < 1e-6
        assert elapsed < 1e-3


def test_criterion_2_jacobian_matches_finite_differences(default_config):
    with criterion(2, "analytic jacobian matches central differences to 1e-6", 1.0):
        l4c = chain.closed_lever(default_config)
        l4o = chain.open_lever(default_config)
        h = 1e-6
        checked = 0
        for theta in np.linspace(default_config.theta_min, default_config.theta_max, 15):
            for l4 in np.linspace(l4c, l4o, 8):
                analytic = linkage.jacobian(default_config, float(theta), float(l4))
                fd = (linkage.actuator_length(default_config, float(theta) + h, float(l4))
                      - linkage.actuator_length(default_config, float(theta) - h, float(l4))
                      ) / (2.0 * h)
                assert abs(analytic - fd) <= 1e-6 * max(abs(analytic), 1e-9)
                checked += 1
        assert checked >= 100


def test_criterion_3_oracle_equivalence():
    grid_step = 1e-3
    with criterion(3, "active-set solver matches the fixed-point grid oracle", 60.0):
        rng = np.random.default_rng(20240811)
        spans = {1: 25.0, 2: 40.0, 3: 52.0}  # beyond each chain's saturation force
        for n in (1, 2, 3):
            cfg = reduced_chain(n)
            forces = rng.uniform(0.0, spans[n], 50)
            for f in forces:
                direct = equilibrium.solve_equilibrium(cfg, THETA_88, float(f))
                oracle = equilibrium.brute_force_equilibrium(
                    cfg, THETA_88, float(f), grid_step)
                assert direct.converged
                for a, b in zip(direct.chain.deflection, oracle.chain.deflection):
                    assert abs(a - b) <= 2.0 * grid_step


def test_criterion_4_triggering_window(default_config):
    with criterion(4, "trigger-sweep plateau ends within [17, 21] N", 10.0):
        table = analysis.sweep_trigger(default_config, THETA_88, 0.0, 50.0, 0.5)
        forces = table.column("f_cyl (N)")
        diam = table.column("diameter (m)")
        plateau = diam[0]
        departure = next(
            (f for f, d in zip(forces, diam) if abs(d - plateau) > 1e-9), None)
        assert departure is not None
        assert 17.0 <= departure <= 21.0


def test_criterion_5_ratio_step(default_config):
    with criterion(5, "saturated/closed transmission ratio step is 0.40 +- 0.05", 10.0):
        table = analysis.sweep_ratio_vs_force(default_config, THETA_88, 0.0, 200.0, 0.5)
        step = analysis.ratio_step_from_sweep(table)
        assert abs(step - 0.40) <= 0.05
        direct = analysis.ratio_step_direct(default_config, THETA_88)
        assert abs(step - direct) <= 1e-9


def test_criterion_6_torque_profile_shape(default_config):
    with criterion(6, "165 N torque profile: amplified, peaked near -88 deg", 30.0):
        table = analysis.sweep_torque_vs_angle(
            default_config, 165.0,
            default_config.theta_min, default_config.theta_max, math.radians(10.0))
        thetas = table.column("theta (deg)")
        lbvt_t = table.column("torque_lbvt (Nm)")
        rigid_t = table.column("torque_rigid (Nm)")
        assert all(f == 1.0 for f in table.column("feasible (-)"))

        # (a) amplification everywhere in the flexed region
        for th, tl, tr in zip(thetas, lbvt_t, rigid_t):
            if th <= -55.0:
                assert tl >= tr - 1e-12
        # (b) peak at the sample nearest -88 deg
        peak_theta = thetas[max(range(len(thetas)), key=lambda i: lbvt_t[i])]
        assert peak_theta == min(thetas, key=lambda t: abs(t - (-88.0)))
        # (c) amplification diminishes beyond -55 deg
        amp = [tl - tr for tl, tr in zip(lbvt_t, rigid_t)]
        beyond = [a for th, a in zip(thetas, amp) if th > -55.0]
        assert len(beyond) >= 2
        assert all(b < max(amp) for b in beyond)
        assert beyond == sorted(beyond, reverse=True)


def test_criterion_7_randomized_invariant_suites(default_config):
    with criterion(7, "complementarity and monotone loading on 10,000 random inputs", 120.0):
        rng = np.random.default_rng(1234)
        k = per_joint_stiffness(default_config)
        a0 = default_config.alpha_preload
        limits = default_config.joint_open_limit
        theta_lo, theta_hi = default_config.theta_min, default_config.theta_max

        # regime consistency on 3,000 random (theta, force) pairs
        for _ in range(3000):
            theta = float(rng.uniform(theta_lo, theta_hi))
            f = float(rng.uniform(0.0, 220.0))
            res = equilibrium.solve_equilibrium(default_config, theta, f)
            assert res.converged
            torques = chain.joint_torques(
                default_config, res.chain.deflection, res.tip_force)
            for dk, reg, lim, a in zip(res.chain.deflection, res.chain.regime,
                                       limits, torques):
                matches = 0
                if dk == 0.0 and a <= k * a0 + 1e-9:
                    matches += 1
                    assert reg is Regime.CLOSED
                elif dk >= lim and a >= k * (a0 + lim) - 1e-9:
                    matches += 1
                    assert reg is Regime.END_STOP
                elif 0.0 < dk < lim and abs(a - k * (a0 + dk)) < 1e-9:
                    matches += 1
                    assert reg is Regime.ACTIVE
                assert matches == 1

        # sub-threshold immobility on 3,000 random angles
        for _ in range(3000):
            theta = float(rng.uniform(theta_lo, theta_hi))
            trigger = equilibrium.triggering_force(default_config, theta)
            f = float(rng.uniform(0.0, 0.999 * trigger))
            res = equilibrium.solve_equilibrium(default_config, theta, f)
            assert res.chain.deflection == (0.0,) * 6
            assert res.chain.l4 == chain.closed_lever(default_config)

        # monotone lever and torque under 100 random increasing force ladders
        for _ in range(100):
            theta = float(rng.uniform(theta_lo, theta_hi))
            ladder = np.sort(rng.uniform(0.0, 220.0, 40))
            prev_l4, prev_t = -1.0, -math.inf
            for f in ladder:
                res = equilibrium.solve_equilibrium(default_config, theta, float(f))
                assert res.converged
                assert res.chain.l4 >= prev_l4 - 1e-12
                assert res.kfe_torque >= prev_t - 1e-12
                prev_l4, prev_t = res.chain.l4, res.kfe_torque


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "every CLI subcommand emits byte-identical outputs", 30.0):
        def run_all(tag: str) -> list[bytes]:
            blobs = []
            base = tmp_path / tag
            base.mkdir()
            assert run(["validate", DEFAULT]) == 0
            for name, extra in (
                ("sweep-angle", ["--force", "165"]),
                ("trigger", ["--theta", "-88"]),
                ("sweep-force", ["--theta", "-88", "--to", "120"]),
                ("ratio", ["--theta", "-88", "--to", "120"]),
            ):
                csv_out = base / f"{name}.csv"
                svg_out = base / f"{name}.svg"
                code = run([name, DEFAULT, *extra,
                            "--out", str(csv_out), "--plot", str(svg_out)])
                assert code == 0
                blobs.append(csv_out.read_bytes())
                blobs.append(svg_out.read_bytes())
            cal_out = base / "calibrated.json"
            code = run(["calibrate", str(lbvt.base_config_path()),
                        "--trigger", "20", "--ratio-step", "0.40",
                        "--theta", "-88", "--out", str(cal_out)])
            assert code == 0
            blobs.append(cal_out.read_bytes())
            return blobs

        first = run_all("one")
        second = run_all("two")
        assert first == second
