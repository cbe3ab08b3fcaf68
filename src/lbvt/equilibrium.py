"""Quasi-static chain equilibrium under a locked knee and a constant actuator force.

The load path is: actuator force -> knee torque through the four-bar jacobian
-> tangential tip force (torque over lever length) -> per-joint chain torques
through the moment geometry. Each joint then obeys one of three regimes:

  closed    deflection 0, applied torque at most the preload holding torque
  active    torque balance, spring torque k * (preload + deflection)
  end stop  deflection at the travel limit, applied torque at least the
            spring torque there

solve_equilibrium runs an active-set scheme over those regimes: for a fixed
regime assignment the active torque balances are solved by damped Newton
iterations, then the worst violated regime condition (one joint per outer
pass, largest violation first, lowest index on ties) is flipped. Torque
exactly at the holding threshold keeps a joint closed. The scheme is
deterministic: identical inputs give identical results. The Newton jacobian
is analytic: opening joint j rotates the chain tip and every later pivot
about pivot j, and only the closure jacobian's dependence on the lever
length is differenced, once per Newton step. Each solve caches its load-map
evaluations by deflection vector, so the residual that starts an outer pass,
repeated line-search trials and the final evaluation cost a dict lookup.
The Newton loop stops early once an accepted step leaves the deflections
unchanged; since its state is then back where the step began, the remaining
passes could only replay that step, so the early stop changes no result.
A non-finite applied torque makes the residual NaN, so such a solve is
reported as not converged. The direct attempt from the closed state is the
one-rung case of the continuation ladder, so both run the same loop.

brute_force_equilibrium is the independent check: it minimizes elastic energy
minus the work fed into the chain over an exhaustive deflection grid, with
the work path-integrated along the uniform-opening ray to each grid node
(all joints scaled together). It evaluates the whole grid through the
solver's own load map (_LoadMap.evaluate on arrays: the same chain geometry,
four-bar closure and joint-torque kernels), so its independence lies in the
method, an energy minimum over a grid against an active-set iteration on
the torque balances. It never iterates. The solver and the oracle build
their result through one helper, _result, from the load map and the final
deflections; each supplies its own residual and convergence flag.
"""

from __future__ import annotations

import math

import numpy as np

from . import chain, linkage
from .model import (
    EquilibriumResult,
    GridSizeError,
    MechanismConfig,
    NoTriggerError,
    Regime,
    per_joint_stiffness,
)

MAX_OUTER = 200
MAX_INNER = 50
DAMPING_FLOOR = 1e-6
RESIDUAL_TOL = 1e-9
_INNER_TOL = 1e-12
_DL4 = 1e-8  # m, forward-difference step of the closure jacobian in l4


class _LoadMap:
    """Applied chain-joint torques as a function of the deflections.

    Takes the closed-chain tip bearing from the caller, or computes it once.
    Float evaluations are cached per instance, keyed by tuple(d): the map is a
    pure function of d, and -0.0 and 0.0 give bit-identical geometry, so a
    repeated point returns the stored result unchanged. evaluate is the
    uncached kernel; counting its calls counts real evaluations.
    """

    def __init__(self, config: MechanismConfig, theta: float, f_cyl: float, bearing=None):
        self.config = config
        self.theta = theta
        self.f_cyl = f_cyl
        if bearing is None:
            bearing = chain.tip_bearing(config, (0.0,) * config.n_joints)
        self.bearing = bearing
        self._cache = {}

    def evaluate(self, d, xp=math):
        """((torques, l4, jac), pivots) at deflections d, without the cache.

        d is one float per joint, or with xp=numpy one equal-shape array per
        joint; every output then has that shape. pivots ends with the tip.
        """
        cfg = self.config
        pivots, tip, _ = chain._geometry(cfg, d, xp)
        l4 = xp.hypot(*tip)
        _, _, _, _, jac = linkage._closure_kernel(cfg, self.theta, l4, self.bearing, xp)
        return (chain._torques(pivots, tip, jac * self.f_cyl / (l4 * l4)), l4, jac), pivots

    def _point(self, d):
        key = tuple(d)
        point = self._cache.get(key)
        if point is None:
            point = self._cache[key] = self.evaluate(key)
        return point

    def torques(self, d):
        """Per-joint applied torques, lever length and jacobian at float deflections d."""
        return self._point(d)[0]

    def derivative(self, d, active):
        """Rows i, columns j of da_i/dd_j over the active joints, as nested lists.

        Opening joint j rotates the tip t and every later pivot about p_j, so
        dt/dd_j = perp(t - p_j) and dl4/dd_j = t . perp(t - p_j) / l4. With
        w_i = t - p_i and a_i = s(l4) * w_i . t, where s = J(l4) f / l4^2,

            da_i/dd_j = s'(l4) dl4/dd_j (w_i . t) + s (c_max(i,j) + w_j x w_i)

        with c_j = w_j x t. dJ/dl4 in s' is one forward difference in l4.
        """
        (_, l4, jac), pivots = self._point(d)
        tx, ty = pivots[-1]
        f = self.f_cyl
        scale = jac * f / (l4 * l4)
        _, _, _, _, jac_up = linkage._closure_kernel(
            self.config, self.theta, l4 + _DL4, self.bearing)
        # ds/dl4 over l4, the factor that turns c_j = l4 dl4/dd_j into ds/dd_j
        ds = f * ((jac_up - jac) / _DL4 - 2.0 * jac / l4) / (l4 * l4 * l4)
        w = [(tx - pivots[i][0], ty - pivots[i][1]) for i in active]
        c = [wx * ty - wy * tx for wx, wy in w]
        rows = []
        for a, (wix, wiy) in enumerate(w):
            g = ds * (wix * tx + wiy * ty)
            rows.append([
                g * c[b] + scale * (c[max(a, b)] + wjx * wiy - wjy * wix)
                for b, (wjx, wjy) in enumerate(w)
            ])
        return rows


def tip_force(kfe_torque: float, l4: float) -> float:
    """Tangential force at the lever tip that carries the given knee torque."""
    if not (l4 > 0.0):
        raise ValueError(f"lever length must be positive, got {l4}")
    return kfe_torque / l4


def _energy(k, a0, d):
    """Spring energy of joint openings d above the closed state; floats or equal-shape arrays."""
    return sum(0.5 * k * ((a0 + dk) ** 2 - a0 * a0) for dk in d)


def potential_energy(config: MechanismConfig, deflection) -> float:
    """Elastic energy stored by opening the chain, zero at the closed state."""
    d = chain._check_deflection(config, deflection)
    return _energy(per_joint_stiffness(config), config.alpha_preload, d)


def _trigger_torque(config: MechanismConfig, theta: float) -> float:
    """Largest closed-chain joint torque per newton of actuator force; preload-independent."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    per_unit, _, _ = _LoadMap(config, theta, 1.0).torques((0.0,) * config.n_joints)
    loaded = [a for a in per_unit if a > 1e-12]
    if not loaded:
        raise NoTriggerError(
            "no chain joint is loaded toward opening at this knee angle; "
            "the mechanism cannot trigger"
        )
    return max(loaded)


def triggering_force(config: MechanismConfig, theta: float) -> float:
    """Smallest actuator force at which any chain joint can start to open.

    The joint torques are proportional to the actuator force while the chain
    is closed, so each joint has a single critical force; the chain moves as
    soon as the most-loaded joint exceeds its holding torque, hence the
    minimum, k * alpha_preload over the largest torque per newton, is returned.
    (A convention waiting for the least-loaded joint would return the maximum
    instead; the two coincide for uniform thresholds with proportional loading.)
    """
    return per_joint_stiffness(config) * config.alpha_preload / _trigger_torque(config, theta)


def _complementarity_residual(d, regimes, torques, k, a0, limits) -> float:
    """Largest regime-condition violation in Nm; NaN if any torque is not finite."""
    if not all(math.isfinite(a) for a in torques):
        return math.nan
    res = 0.0
    for dk, reg, a, lim in zip(d, regimes, torques, limits):
        if reg is Regime.CLOSED:
            res = max(res, a - k * a0)
        elif reg is Regime.END_STOP:
            res = max(res, k * (a0 + lim) - a)
        else:
            res = max(res, abs(a - k * (a0 + dk)))
    return res


def _solve_small(jac, r, k):
    """Newton step -jac\\r with closed forms for the 1x1 and 2x2 cases."""
    m = len(r)
    if m == 1:
        a = jac[0][0]
        return [-r[0] / a if a != 0.0 else -r[0] / k]
    if m == 2:
        det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
        if det != 0.0:
            return [
                (-r[0] * jac[1][1] + r[1] * jac[0][1]) / det,
                (-r[1] * jac[0][0] + r[0] * jac[1][0]) / det,
            ]
        return [-x / k for x in r]
    try:
        return list(np.linalg.solve(jac, [-x for x in r]))
    except np.linalg.LinAlgError:
        return [-x / k for x in r]  # spring-dominated fallback


def _newton_active(load, d, active, k, a0, limits):
    """Damped Newton on the torque balances of the active joints, in place.

    Backtracking halves the step while the residual grows, floored per the
    solver contract. When even the floored step cannot reduce the residual
    the balance has no interior root on this side (the opening torque beats
    the spring), so the full clamped step is taken once to reach the bound
    and hand the joint back to the regime logic.

    The jacobian comes from load.derivative (analytic, minus k on the
    diagonal) at a point whose torques the residual has already evaluated,
    and load.torques serves repeated points from the load map's cache.

    An accepted step that leaves d unchanged (typically an active joint
    pushing past its bound and clamped back) ends the loop. The exit is
    exact: d, the residual, its norm and the bold flag are then what they
    were at the start of the step, and the loop body is deterministic, so
    every remaining pass would rebuild the same jacobian, take the same step
    and end at the same d.
    """
    if not active:
        return load.torques(d)

    def residual(vec):
        torqs, _, _ = load.torques(vec)
        return [torqs[i] - k * (a0 + vec[i]) for i in active]

    r = residual(d)
    norm = max(abs(x) for x in r)
    bold_used = False
    for _ in range(MAX_INNER):
        if norm < _INNER_TOL:
            break
        jac = load.derivative(d, active)
        for i, row in enumerate(jac):
            row[i] -= k
        step = _solve_small(jac, r, k)

        def clamped(lam: float) -> list[float]:
            trial = list(d)
            for idx, j in enumerate(active):
                trial[j] = min(max(d[j] + lam * float(step[idx]), 0.0), limits[j])
            return trial

        lam = 1.0
        accepted = False
        while lam > DAMPING_FLOOR:
            trial = clamped(lam)
            r_trial = residual(trial)
            norm_trial = max(abs(x) for x in r_trial)
            if norm_trial <= norm:
                accepted = True
                break
            lam *= 0.5
        if accepted:
            if trial == d:
                break  # stalled: every later pass would replay this step
            d[:] = trial
            r = r_trial
            norm = norm_trial
        else:
            if bold_used:
                break
            bold_used = True
            d[:] = clamped(1.0)
            r = residual(d)
            norm = max(abs(x) for x in r)
    return load.torques(d)


def _active_set(load, d, regimes, k, a0, limits):
    """Active-set iteration from the given state, in place; returns (torques, outers)."""
    n = len(d)
    torques, _, _ = load.torques(d)
    outer = 0
    for outer in range(1, MAX_OUTER + 1):
        active = [i for i in range(n) if regimes[i] is Regime.ACTIVE]
        for i in range(n):
            if regimes[i] is Regime.CLOSED:
                d[i] = 0.0
            elif regimes[i] is Regime.END_STOP:
                d[i] = limits[i]
        torques, _, _ = _newton_active(load, d, active, k, a0, limits)

        # Worst regime violation; strict exceedance, threshold ties stay put.
        worst = 0.0
        flip: tuple[int, Regime] | None = None
        for i in range(n):
            a = torques[i]
            if regimes[i] is Regime.CLOSED:
                e = a - k * a0
                if e > worst and limits[i] > 0.0:
                    worst, flip = e, (i, Regime.ACTIVE)
            elif regimes[i] is Regime.END_STOP:
                e = k * (a0 + limits[i]) - a
                if e > worst:
                    worst, flip = e, (i, Regime.ACTIVE)
            else:
                r = a - k * (a0 + d[i])
                if d[i] <= 0.0 and r < 0.0 and -r > worst:
                    worst, flip = -r, (i, Regime.CLOSED)
                elif d[i] >= limits[i] and r > 0.0 and r > worst:
                    worst, flip = r, (i, Regime.END_STOP)
        if flip is None:
            break
        regimes[flip[0]] = flip[1]
    return torques, outer


def _check_theta(config: MechanismConfig, theta: float) -> None:
    """Reject a knee angle outside the configured range; NaN fails the test too."""
    if not (config.theta_min - 1e-9 <= theta <= config.theta_max + 1e-9):
        raise ValueError(
            f"theta={theta} outside the configured range "
            f"[{config.theta_min}, {config.theta_max}]"
        )


_CONTINUATION_RUNGS = 8


def _result(load: _LoadMap, d, converged: bool, residual: float,
            iterations: int) -> EquilibriumResult:
    """Equilibrium result at deflections d under the load map's force."""
    # Regimes are rederived from the deflections inside make_chain_state;
    # closed joints hold exact zeros and stopped joints the exact limits, so
    # the rederivation reproduces the solver's assignment.
    state = chain.make_chain_state(load.config, d)
    _, l4, jac = load.torques(d)
    torque = jac * load.f_cyl
    return EquilibriumResult(
        chain=state,
        kfe_torque=torque,
        tip_force=tip_force(torque, l4),
        transmission_ratio=jac,
        input_force=load.f_cyl,
        converged=converged,
        residual=residual,
        iterations=iterations,
    )


def solve_equilibrium(config: MechanismConfig, theta: float, f_cyl: float) -> EquilibriumResult:
    """Deflections and regimes balancing the chain at one knee angle and force.

    Solves directly from the closed state; if that stalls (the opening torque
    can outgrow the spring, so the chain snaps through toward the stops), the
    force is ramped over a fixed ladder with the state carried between rungs,
    which follows the physical loading branch. The direct attempt is the
    one-rung ladder. Returns a non-converged result with the last residual if
    both attempts exhaust their iteration budgets; geometric infeasibility
    raises. Identical inputs give identical results.
    """
    if f_cyl < 0.0 or f_cyl == math.inf:
        raise ValueError(f"f_cyl must be non-negative and finite, got {f_cyl}")
    _check_theta(config, theta)

    n = config.n_joints
    k = per_joint_stiffness(config)
    a0 = config.alpha_preload
    limits = config.joint_open_limit

    load = _LoadMap(config, theta, f_cyl)
    iterations = 0
    for rungs in (1, _CONTINUATION_RUNGS):
        d = [0.0] * n
        regimes = [Regime.CLOSED] * n
        for rung in range(1, rungs + 1):
            rung_load = (load if rung == rungs
                         else _LoadMap(config, theta, f_cyl * rung / rungs, load.bearing))
            torques, outer = _active_set(rung_load, d, regimes, k, a0, limits)
            iterations += outer
        residual = _complementarity_residual(d, regimes, torques, k, a0, limits)
        # written so that a NaN residual or force stops after the direct attempt
        if not (residual >= RESIDUAL_TOL and f_cyl > 0.0):
            break
    return _result(load, d, residual < RESIDUAL_TOL, residual, iterations)


def brute_force_equilibrium(
    config: MechanismConfig, theta: float, f_cyl: float, grid_step: float
) -> EquilibriumResult:
    """Grid-search oracle: minimize elastic energy minus fed-in work.

    Only reduced chains of up to 3 joints are accepted; the deflection box is
    enumerated exhaustively at grid_step resolution (travel limits included as
    exact nodes). The work at each node integrates the applied joint torques
    along the uniform-opening ray from the closed state to the node, with
    fixed Gauss-Legendre quadrature.
    """
    if config.n_joints > 3:
        raise ValueError("grid oracle supports at most 3 chain joints")
    if not (grid_step > 0.0):
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    if not (0.0 <= f_cyl < math.inf):
        raise ValueError(f"f_cyl must be non-negative and finite, got {f_cyl}")
    _check_theta(config, theta)

    axes = []
    for lim in config.joint_open_limit:
        m = int(math.floor(lim / grid_step + 1e-9))
        nodes = np.arange(m + 1) * grid_step
        if nodes[-1] < lim - 1e-15:
            nodes = np.append(nodes, lim)
        axes.append(nodes)
    total = 1
    for ax in axes:
        total *= len(ax)
    if total > 1e8:
        raise GridSizeError(
            f"deflection grid would hold {total} nodes (limit 1e8); "
            "coarsen grid_step or reduce the travel limits"
        )

    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)  # (N, n)

    k = per_joint_stiffness(config)
    a0 = config.alpha_preload
    energy = _energy(k, a0, grid.T)

    load = _LoadMap(config, theta, f_cyl)
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    s_nodes = 0.5 * (gl_x + 1.0)
    s_weights = 0.5 * gl_w
    work = np.zeros(len(grid))
    for s, w in zip(s_nodes, s_weights):
        (a_q, _, _), _ = load.evaluate(s * grid.T, np)
        work += w * sum(a * col for a, col in zip(a_q, grid.T))

    best = int(np.argmin(energy - work))
    d_star = [float(v) for v in grid[best]]

    torques, _, _ = load.torques(d_star)
    regimes = chain.make_chain_state(config, d_star).regime
    residual = _complementarity_residual(
        d_star, regimes, torques, k, a0, config.joint_open_limit
    )
    return _result(load, d_star, True, residual, total)
