"""Quasi-static chain equilibrium under a locked knee and a constant actuator force.

The load path is: actuator force -> knee torque through the four-bar jacobian
-> tangential tip force (torque over lever length) -> per-joint chain torques
through the chain geometry. Each joint then obeys one of three regimes:

  closed    deflection 0, applied torque at most the preload holding torque
  active    torque balance, spring torque k * (preload + deflection)
  end stop  deflection at the travel limit, applied torque at least the
            spring torque there

A joint with no travel is closed and at its stop at once, so no torque
violates it and it never flips. The regime conditions are written once, in
_scan, which returns the largest violation (the residual a solve reports)
and the bound flip that mends the worst one; the solver and the tests' grid
oracle both read their residual from it. The condition under which an
active joint flips to a bound, its residual pushing it past the bound it
sits on, is _pushed, which the Newton runs read too.

solve_equilibrium runs an active-set scheme over those regimes: for a fixed
regime assignment the active torque balances are solved by projected Newton
iterations (Bertsekas, SIAM J. Control Optim. 20(2), 1982), then the scan's
flip is made (one joint per outer pass, largest violation first, lowest index
on ties). The active joints are kept as a list in ascending order, the row
order of the Newton system, and each flip inserts or removes its joint. At
each Newton point an active joint that _pushed finds pushed past its bound is
pinned: it keeps its deflection and leaves the jacobian, the step and the
residual norm, and the full step of the free joints is clamped to the travel
limits. Once every active joint is pinned the run ends with no further
evaluation, and the scan flips the pinned joints one per pass. One free
joint, alone in its run or left free by the others' pins, steps on its slope
(_LoadMap.slope, the 1x1 jacobian as a float); two read _LoadMap.pair, the
2x2 jacobian as four floats, and take its closed form; three or more
eliminate on the jacobian of _LoadMap.derivative. Torque exactly at the
holding threshold keeps a joint closed. The scheme is deterministic:
identical inputs give identical results. The Newton jacobian is analytic:
opening joint j rotates the chain tip and every later pivot about pivot j, and
only the closure jacobian's dependence on the lever length is differenced,
once per derivative. Each load-map evaluation is made once and passed along:
the point a Newton step reaches carries the torques of the next residual, the
pivots of the next jacobian and, at the end, the geometry of the result. A
Newton step must strictly lower the max-norm residual of the free joints; the
first one that does not is still taken (the bold step) and a second one ends
the run, as does a step that would leave the deflections unchanged. A singular
Newton system takes the step r/k instead, the Newton step with the load held
fixed (jacobian -k, residual r = a - k(a0 + d)). A non-finite applied torque
makes the residual NaN, so such a solve is reported as not converged. A Newton
step that is NaN (a huge force overflows the jacobian) ends the run before it
is evaluated, like a stalled step, so such a solve ends unconverged too. The
direct attempt from the closed state is the one-rung case of the continuation
ladder, so both run the same loop. The ladder's first rung starts from the
closed-state point the direct attempt evaluated, reweighed at its force, so a
solve evaluates the closed state once. An intermediate rung stops its Newton
runs at _RUNG_TOL, and the next starts from its point reweighed at the next
force (_LoadMap.reweigh). A caller that holds a converged state of the same
config (a sweep's previous sample) may pass it as start: one more one-rung
attempt then runs from that state first, and the two attempts from closed
follow only if it fails. Evaluations are passed along across a sweep's samples
too: a converged solve's chain keeps the solve's config, angle and final point
in a slot that is not a field (ChainState._origin), and a start that carries
this very config object is taken as it is, its point reweighed at the new
force (at a new angle, with one closure-kernel call for the jacobian). Any
other start is checked, clamped to the travel limits once and evaluated when
its attempt is built (_warm_start).

The independent check is the fixed-point grid oracle in the test suite
(tests/oracle.py). An equilibrium is a fixed point of T(d) = clip(a(d)/k -
a0, 0, limit) per joint, with a(d) the applied joint torques. The oracle
evaluates T once on every node of an exhaustive deflection grid, with numpy
kernels of its own written from the model's equations, and returns the
componentwise minimum of the super-solutions (nodes where T(node) <= node in
every joint): by Tarski's theorem, the least fixed point that loading from
zero force reaches, or a node on or above it. Its independence lies in the
method and in the arithmetic. It builds its result through this module's
_result and _scan, from the deflections it found and the load-map point
there, so the two compare field by field. The library itself runs on the
standard library alone.

This module checks no argument itself: model.py reads theta and f_cyl
(_check_theta, _check_force), and _check_theta gates the config first.
"""

from __future__ import annotations

import math
from bisect import insort

from . import chain, linkage
from .model import (ChainState, EquilibriumResult, MechanismConfig, NoTriggerError, Regime,
                    _check_force, _check_theta, _require_valid, per_joint_stiffness)

MAX_OUTER = 200
MAX_INNER = 50
RESIDUAL_TOL = 1e-9
_INNER_TOL = 1e-12
_RUNG_TOL = 1e-3  # Nm, Newton stop on the ladder's intermediate rungs, which only seed the next
_DL4 = 1e-8  # m, forward-difference step of the closure jacobian in l4


class _LoadMap:
    """Applied chain-joint torques as a function of the deflections.

    Building one computes nothing: the lever bearing comes with the config.
    The map keeps no state: a solve passes each point (torques, l4, jac,
    pivots) on, so counting evaluate calls counts evaluations. Nothing writes
    into a point once it is built, so solves share no mutable state.
    """

    def __init__(self, config: MechanismConfig, theta: float, f_cyl: float):
        self.config = config
        self.theta = theta
        self.f_cyl = f_cyl

    def evaluate(self, d):
        """The point (torques, l4, jac, pivots) at deflections d; pivots ends with the tip."""
        pivots, tip = chain._geometry(self.config, d)
        l4 = math.hypot(*tip)
        jac = linkage._closure_kernel(self.config, self.theta, l4)[4]
        return chain._torques(pivots, tip, jac * self.f_cyl / (l4 * l4)), l4, jac, pivots

    def reweigh(self, theta, l4, jac, pivots):
        """The point (l4, jac, pivots), evaluated at knee angle theta, under this map.

        At this map's angle only the torques depend on the force. At another
        angle the pivots and l4 still hold, since the chain geometry does not
        depend on theta: one closure-kernel call gives jac.
        """
        if theta != self.theta:
            jac = linkage._closure_kernel(self.config, self.theta, l4)[4]
        return chain._torques(pivots, pivots[-1], jac * self.f_cyl / (l4 * l4)), l4, jac, pivots

    def derivative(self, point, active):
        """Rows i, columns j of da_i/dd_j over the active joints at an evaluated point.

        Opening joint j rotates the tip t and every later pivot about p_j, so
        dt/dd_j = perp(t - p_j) and dl4/dd_j = t . perp(t - p_j) / l4. With
        w_i = t - p_i and a_i = s(l4) * w_i . t, where s = J(l4) f / l4^2,

            da_i/dd_j = s'(l4) dl4/dd_j (w_i . t) + s (c_max(i,j) + w_j x w_i)

        with c_j = w_j x t. dJ/dl4 in s' is one forward difference in l4, one
        closure-kernel call at l4 + _DL4 (_scales). The rows are nested lists;
        slope gives one diagonal entry as a float, pair one 2x2 block as four.
        """
        _, l4, jac, pivots = point
        scale, ds = self._scales(l4, jac)
        tx, ty = pivots[-1]
        # (w_x, w_y, c, g = ds * w . t) per active joint
        w = []
        for i in active:
            px, py = pivots[i]
            wx, wy = tx - px, ty - py
            w.append((wx, wy, wx * ty - wy * tx, ds * (wx * tx + wy * ty)))
        return [
            [gi * cj + scale * ((ci if a > b else cj) + wjx * wiy - wjy * wix)
             for b, (wjx, wjy, cj, _) in enumerate(w)]
            for a, (wix, wiy, ci, gi) in enumerate(w)
        ]

    def slope(self, point, j):
        """da_j/dd_j at an evaluated point, derivative(point, [j])[0][0] as a float.

        The same floating-point operations in the same order, with no lists.
        """
        _, l4, jac, pivots = point
        scale, ds = self._scales(l4, jac)
        tx, ty = pivots[-1]
        px, py = pivots[j]
        wx, wy = tx - px, ty - py
        c = wx * ty - wy * tx
        return ds * (wx * tx + wy * ty) * c + scale * (c + wx * wy - wy * wx)

    def pair(self, point, i, j):
        """derivative(point, [i, j]) as four floats (a_ii, a_ij, a_ji, a_jj).

        The same floating-point operations in the same order, with no lists.
        """
        _, l4, jac, pivots = point
        scale, ds = self._scales(l4, jac)
        tx, ty = pivots[-1]
        px, py = pivots[i]
        ix, iy = tx - px, ty - py
        ci, gi = ix * ty - iy * tx, ds * (ix * tx + iy * ty)
        px, py = pivots[j]
        jx, jy = tx - px, ty - py
        cj, gj = jx * ty - jy * tx, ds * (jx * tx + jy * ty)
        return (gi * ci + scale * (ci + ix * iy - iy * ix),
                gi * cj + scale * (cj + jx * iy - jy * ix),
                gj * ci + scale * (cj + ix * jy - iy * jx),
                gj * cj + scale * (cj + jx * jy - jy * jx))

    def _scales(self, l4, jac):
        """(s, ds/dl4 / l4) at lever l4 and kernel value jac, with s = J(l4) f / l4^2.

        ds/dl4 over l4 is the factor that turns c_j = l4 dl4/dd_j into ds/dd_j;
        dJ/dl4 in it is one forward difference, one closure-kernel call.
        """
        jac_up = linkage._closure_kernel(self.config, self.theta, l4 + _DL4)[4]
        f = self.f_cyl
        return jac * f / (l4 * l4), f * ((jac_up - jac) / _DL4 - 2.0 * jac / l4) / (l4 * l4 * l4)


def _trigger_torque(config: MechanismConfig, theta: float) -> float:
    """Largest closed-chain joint torque per newton of actuator force; preload-independent."""
    theta = _check_theta(config, theta)
    per_unit = _LoadMap(config, theta, 1.0).evaluate((0.0,) * config.n_joints)[0]
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
    a_max = _trigger_torque(config, theta)  # gates config before its fields are read
    return per_joint_stiffness(config) * config.alpha_preload / a_max


def _pushed(r, di, lim):
    """The bound an active joint at deflection di is pushed past by its residual r, or None.

    r = a - k (a0 + di) below 0 at di <= 0 pushes it closed, above 0 at
    di >= lim onto its end stop; a Newton run holds such a joint pinned.
    """
    return (Regime.CLOSED if r < 0.0 and di <= 0.0
            else Regime.END_STOP if r > 0.0 and di >= lim else None)


def _scan(d, regimes, torques, k, a0, limits):
    """Worst regime-condition violation at d and the bound flip that mends it.

    Returns (residual, flip). residual is the largest violation in Nm over
    all joints, NaN if any torque is not finite. flip is (joint, regime) for
    the largest violation a bound flip mends, or None: a closed or stopped
    joint violated by its torque goes active, and an active joint pushed
    past the bound it sits on goes to that bound. Violations must be strict,
    so threshold ties stay put, and the lowest index wins a tie. A joint
    with no travel is closed and stopped at once: no torque violates it.
    """
    if not all(map(math.isfinite, torques)):
        return math.nan, None
    closed, active = Regime.CLOSED, Regime.ACTIVE
    hold = k * a0
    residual = worst = 0.0
    flip = None
    # residual >= worst throughout, so a violation that does not beat worst
    # cannot raise the residual either
    for i, (di, reg, a, lim) in enumerate(zip(d, regimes, torques, limits)):
        if not lim > 0.0:
            continue
        if reg is active:
            r = a - k * (a0 + di)
            e = abs(r)
            if e > worst:
                if e > residual:
                    residual = e
                to = _pushed(r, di, lim)
                if to is not None:
                    worst, flip = e, (i, to)
            continue
        e = a - hold if reg is closed else k * (a0 + lim) - a
        if e > worst:
            if e > residual:
                residual = e
            worst, flip = e, (i, active)
    return residual, flip


def _solve_small(jac, r):
    """Newton step -jac\\r in floats; None if jac is singular (a zero pivot).

    Gaussian elimination with partial pivoting. The solver sends it three or
    more rows only: one free joint steps on its slope, with the operations
    elimination would make, (-r - 0) / jac, and two take the 2x2 closed form
    on load.pair's floats in _newton_active.
    """
    m = len(r)
    rows = [row + [-x] for row, x in zip(jac, r)]  # augmented, so jac is not changed
    for c in range(m):
        p, best = c, abs(rows[c][c])
        for i in range(c + 1, m):  # the first largest wins, as with max
            v = abs(rows[i][c])
            if v > best:
                p, best = i, v
        if rows[p][c] == 0.0:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        for row in rows[c + 1:]:
            f = row[c] / pivot[c]
            for j in range(c + 1, m + 1):
                row[j] -= f * pivot[j]
    step = [0.0] * m
    for i in reversed(range(m)):
        row = rows[i]
        step[i] = (row[m] - sum(row[j] * step[j] for j in range(i + 1, m))) / row[i]
    return step


def _newton_active(load, d, point, active, k, a0, limits, tol=_INNER_TOL):
    """Projected Newton on the torque balances of the active joints; d in place, returns its point.

    point is the load-map evaluation at d. At every Newton point an active
    joint that _pushed finds pushed past the bound it sits on (r > 0 at its
    limit, r < 0 at 0) is pinned: it keeps its deflection and leaves the
    jacobian, the linear solve, the step and the max-norm residual, which is
    taken over the free joints alone (0 when none is free). A pinned joint
    is thus never stepped toward a move that the clamp would cancel, nor does
    its residual hide the free joints' progress; _scan flips it to its bound
    once the run ends. The run stops once the norm is below tol, so at once,
    with no derivative and no evaluation, when every active joint is pinned.
    Each pass evaluates the full Newton step of the free joints once, clamped
    to the travel range [0, limit] of each joint. A step must strictly lower
    the norm. The first step that does not, the bold step, is taken anyway:
    the balance then has no interior root on this side (the opening torque
    beats the spring), so the clamped step reaches the bound and hands the
    joint back to the regime logic. A second such step ends the loop.
    Progress stays strict because the hold does not end every cycle: a free
    joint whose residual points into its range can still have its coupled
    step clamped back to the bound it sits on, holding the norm fixed while
    another joint steps back and forth between two points, and a Newton
    step can map a point to its mirror image at the same norm. Accepting
    equal norms would replay such a 2-cycle for all MAX_INNER passes.

    The jacobian is analytic, minus k on the diagonal, over the free joints,
    at the point the last step reached. One free joint takes _newton_one's
    step on load.slope, the same operations as elimination's -r / (J - k) on
    the 1x1 system; two read load.pair and take the 2x2 closed form (Cramer's
    rule) on floats, or the singular step when the determinant is 0; three
    or more eliminate on load.derivative's rows (_solve_small). A
    step that leaves d unchanged ends the loop before it is evaluated: every
    later pass would rebuild the same jacobian and take the same step. So
    does a trial with a NaN deflection, which the clamp lets through: the
    load is too large for the jacobian's floats, and evaluating it would
    raise. One active joint, the common case, runs _newton_one, the same
    loop in scalars.
    """
    if not active:
        return point
    if len(active) == 1:
        return _newton_one(load, d, point, active, k, a0, limits[active[0]], tol)
    free, r, norm = _free_residuals(point[0], d, active, k, a0, limits)
    bold_used = False
    for _ in range(MAX_INNER):
        if norm < tol:
            break
        if len(free) == 1:  # _newton_one's step
            a = load.slope(point, free[0]) - k
            step = [-r[0] / a if a != 0.0 else r[0] / k]
        elif len(free) == 2:  # the 2x2 closed form on floats
            a, b, c, e = load.pair(point, *free)
            a -= k
            e -= k
            r0, r1 = r
            det = a * e - b * c
            if det == 0.0:
                step = [r0 / k, r1 / k]  # singular: the step with the load held, jac = -k
            else:
                step = [(-r0 * e + r1 * b) / det, (-r1 * a + r0 * c) / det]
        else:
            jac = load.derivative(point, free)
            for i, row in enumerate(jac):
                row[i] -= k
            step = _solve_small(jac, r)
            if step is None:
                step = [x / k for x in r]  # singular: the step with the load held, jac = -k
        trial = list(d)
        for j, s in zip(free, step):
            # min(max(x, 0.0), lim) as max and min take it: NaN and -0.0 stay
            x = d[j] + s
            if x < 0.0:
                x = 0.0
            lim = limits[j]
            if x > lim:
                x = lim
            elif x != x:
                trial = d  # NaN, from an overflowing jacobian: stop as if stalled
                break
            trial[j] = x
        if trial == d:
            break  # stalled: every later pass would replay this step
        trial_point = load.evaluate(trial)
        free_trial, r_trial, norm_trial = _free_residuals(trial_point[0], trial, active, k, a0,
                                                          limits)
        if not norm_trial < norm:
            if bold_used:
                break
            bold_used = True
        d[:] = trial
        point, free, r, norm = trial_point, free_trial, r_trial, norm_trial
    return point


def _free_residuals(torques, d, active, k, a0, limits):
    """(free, r, norm): the active joints no bound pins at d, their residuals, max |r| or 0."""
    free, r = [], []
    for i in active:
        ri = torques[i] - k * (a0 + d[i])
        if _pushed(ri, d[i], limits[i]) is None:
            free.append(i)
            r.append(ri)
    return free, r, max(map(abs, r), default=0.0)


def _newton_one(load, d, point, active, k, a0, lim, tol):
    """_newton_active on the one joint in active, of travel limit lim, in scalars.

    The same floating-point operations in the same order: the hold (a pinned
    joint has norm 0, so the run stops at once, before any derivative), the
    Newton step -r / (J - k), or r / k when J - k is 0, then the clamp, the
    stall and NaN tests, the bold step and the strict-progress rule. J is
    load.slope, the 1x1 jacobian as a float.
    """
    (j,) = active
    r = point[0][j] - k * (a0 + d[j])
    norm = abs(r) if _pushed(r, d[j], lim) is None else 0.0
    bold_used = False
    for _ in range(MAX_INNER):
        if norm < tol:
            break
        a = load.slope(point, j) - k
        x = d[j] + (-r / a if a != 0.0 else r / k)
        if x < 0.0:
            x = 0.0
        if x > lim:
            x = lim
        if x == d[j] or x != x:
            break
        trial = list(d)
        trial[j] = x
        trial_point = load.evaluate(trial)
        r_trial = trial_point[0][j] - k * (a0 + x)
        norm_trial = abs(r_trial) if _pushed(r_trial, x, lim) is None else 0.0
        if not norm_trial < norm:
            if bold_used:
                break
            bold_used = True
        d[j] = x
        point, r, norm = trial_point, r_trial, norm_trial
    return point


def _active_set(load, d, point, regimes, k, a0, limits, tol=_INNER_TOL):
    """Active-set iteration from the given state, in place.

    Returns (point at d, outer passes, residual of the state it ends in).
    point is the load-map point at d and tol the Newton runs' stop. The
    active joints are listed once and the list is mended at each flip. Closed
    joints must enter at 0 and stopped joints at their limit. The clamped
    Newton step keeps d in [0, limit], so a joint flips to closed only at d ==
    0 and to its stop only at d == limit: a flip needs no clamp, and the point
    at d stays valid.
    """
    active = [i for i, reg in enumerate(regimes) if reg is Regime.ACTIVE]
    for outer in range(1, MAX_OUTER + 1):
        point = _newton_active(load, d, point, active, k, a0, limits, tol)
        residual, flip = _scan(d, regimes, point[0], k, a0, limits)
        if flip is None:
            break
        i, to = flip
        regimes[i] = to
        if to is Regime.ACTIVE:
            insort(active, i)  # ascending: the row order of the Newton system
        else:
            active.remove(i)
    else:
        residual, _ = _scan(d, regimes, point[0], k, a0, limits)  # after the last flip
    return point, outer, residual


_CONTINUATION_RUNGS = 8


def _result(load: _LoadMap, d, point, converged: bool, residual: float,
            iterations: int) -> EquilibriumResult:
    """Equilibrium result at deflections d from the load map's point there.

    A converged result's chain keeps (config, theta, point) in its _origin
    slot, from which a solve it starts takes its first point (_warm_start).
    """
    # the chain state reads the regimes off the deflections (chain._regimes);
    # closed joints hold exact zeros and stopped joints the exact limits, so
    # that reproduces the solver's assignment.
    _, _, jac, pivots = point
    state = chain._chain_state(load.config, d, pivots)
    if converged:
        object.__setattr__(state, "_origin", (load.config, load.theta, point))
    return EquilibriumResult(
        chain=state,
        transmission_ratio=jac,
        input_force=load.f_cyl,
        converged=converged,
        residual=residual,
        iterations=iterations,
    )


def _warm_start(load: _LoadMap, start: ChainState):
    """Deflections, regimes and load-map point of a warm start, as lists and a point.

    A chain that a converged solve of this very config object returned
    carries that solve's angle and final point (_result): its deflections
    lie within the travel limits and its regimes were read off them, so they
    are taken as they are, and the point is reweighed at this map's angle and
    force. Any other start is checked, clamped once to the travel limits (for
    a deflection within the check's slack past its limit), has its regimes
    read off and is evaluated. Both give the same attempt, bit for bit.
    """
    origin = start._origin
    if origin is not None and origin[0] is load.config:
        _, theta, point = origin
        return list(start.deflection), list(start.regime), load.reweigh(theta, *point[1:])
    limits = load.config.joint_open_limit
    d = [min(max(0.0, x), lim)
         for x, lim in zip(chain._check_deflection(load.config, start.deflection), limits)]
    return d, list(chain._regimes(d, limits)), load.evaluate(d)


def solve_equilibrium(config: MechanismConfig, theta: float, f_cyl: float, *,
                      start: ChainState | None = None) -> EquilibriumResult:
    """Deflections and regimes balancing the chain at one knee angle and force.

    Solves directly from the closed state; if that stalls (the opening torque
    can outgrow the spring, so the chain snaps through toward the stops), the
    force is ramped over a fixed ladder with the state carried between rungs,
    which follows the physical loading branch. Intermediate rungs are solved
    to _RUNG_TOL only, and each later rung starts from the point the last one
    ended on, reweighed at its force. The direct attempt is the one-rung
    ladder. Returns a non-converged result with the last residual if every
    attempt exhausts its iteration budget; geometric infeasibility raises.
    Identical inputs give identical results.

    start is an optional warm start: the chain of a converged solve of the
    same config, typically the previous sample of a sweep. The solve then
    first runs one rung from that state (its regimes read off its
    deflections) and falls back to the closed-state attempts if that does not
    converge. A chain that a converged solve of this very config object
    returned brings the point that solve ended on: the attempt starts from
    it, reweighed at this angle and force, with no check and no load-map
    evaluation (at another angle, one closure-kernel call). Any other start
    (built by hand, copied by dataclasses.replace, or from another config
    object) is checked and evaluated, to the same result bit for bit. A start
    of the wrong length, with a NaN or out-of-range deflection raises
    ValueError. Without start the solve is unchanged. A config that fails
    validation raises ConfigError naming its violations, before any other check.
    theta and f_cyl are read as numbers (model._read_argument); a refused kind, a non-finite
    theta or one outside the config's range raises ValueError, a NaN f_cyl is unconverged.
    """
    _require_valid(config)
    # a NaN force stays an unconverged solve: bench's checker_self_test solves one outside its try
    f_cyl = _check_force(f_cyl, nan_ok=True)
    theta = _check_theta(config, theta)

    n = config.n_joints
    k = per_joint_stiffness(config)
    a0 = config.alpha_preload
    limits = config.joint_open_limit

    load = _LoadMap(config, theta, f_cyl)
    # (start deflections, regimes and point, None for the closed state, and
    # rungs) per attempt; the ladder only helps under load
    attempts = [(None, 1)]
    if f_cyl > 0.0:
        attempts.append((None, _CONTINUATION_RUNGS))
    if start is not None:
        attempts.insert(0, (_warm_start(load, start), 1))

    iterations = 0
    closed_point = None  # evaluated by the direct attempt, reweighed by the ladder
    for warm, rungs in attempts:
        if warm is None:
            d, regimes = [0.0] * n, [Regime.CLOSED] * n
            if closed_point is None:
                closed_point = load.evaluate(d)
            point = closed_point
        else:
            d, regimes, point = warm
        for rung in range(1, rungs + 1):
            rung_load = load if rung == rungs else _LoadMap(config, theta, f_cyl * rung / rungs)
            if rungs > 1:
                point = rung_load.reweigh(theta, *point[1:])
            point, outer, residual = _active_set(rung_load, d, point, regimes, k, a0, limits,
                                                 _RUNG_TOL if rung < rungs else _INNER_TOL)
            iterations += outer
        # written so that a NaN residual stops the attempts
        if not residual >= RESIDUAL_TOL:
            break
    return _result(load, d, point, residual < RESIDUAL_TOL, residual, iterations)

