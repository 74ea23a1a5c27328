"""Vanishing-aspect-ratio model and the convergence study toward it.

In the flat limit the potential is explicit, (1+z)/(1+u), and the
membrane obeys a semilinear heat equation with source -lambda/(1+u)^2.
This module solves that model and measures how the full solver
approaches it as the aspect ratio shrinks.  Its steady solve supplies
only its residual to the Newton loop ``steady.damped_newton``, shared
with the full model, each evaluation returning the tridiagonal Newton
step at its point.  The pull-in voltage is the fold of the discrete
branch, which one Newton solve of the fold equations (the steady
equation and a bordered singularity test) locates.  It starts from the
fold of the continuum branch, whose voltage and profile the first
integral of the steady equation gives in closed form, and which lies
O(h^2) from the discrete one.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .elliptic import solve_potential
from .errors import NonConvergenceError, context
from .evolution import ModelParams, Trajectory, _no_steps, _run_loop, imex_step, run
from .numerics import Grid1D, Grid2D, solve_tridiagonal, trapezoid_2d
from .steady import BranchPoint, damped_newton
from .transform import MembraneState, _check_on_grid

__all__ = [
    "LimitComparison",
    "psi0",
    "run0",
    "steady0",
    "pullin0_detail",
    "PullinResult",
    "shooting_pullin",
    "limit_study",
]

# Centre depth of the continuum flat-limit fold, the maximizer of
# ``_clamp_voltage(1 - d)``: the root of its closed-form slope, to 1e-10.
_CONTINUUM_FOLD_DEPTH = 0.3883467189

# Newton steps that invert the continuum profile at the grid nodes (see
# ``_continuum_start``): at the continuum fold depth the fourth step changes
# no node by more than 1e-8 and the fifth by no more than roundoff, 3.3e-16
# (measured at n_x = 3, 8, 64, 512 and 8192).
_PROFILE_NEWTON_STEPS = 5

# Touchdown floor of the pull-in search: its Newton iterates keep 1 + u
# above it.
_PULLIN_FLOOR = 0.05

# Half-width of the reported pull-in bracket.  The fold solve stops at a
# max-norm residual of max(1e-10, eps_mach/h^2) over the rows of F and the
# fold row g h^2/4, at most 3.7e-9 up to n_x = 8192, which moves its
# voltage by at most that times the 1-norm of the voltage row of the
# inverse extended Jacobian.  That norm measured 0.4587 at the fold for
# every n_x = 2^k from 32 to 8192, all but under 4e-8 of it on the rows
# of F (the voltage is stationary along the branch at the fold, so the
# fold row barely moves it), so the bound is 1.7e-9 at n_x = 8192 and
# 4.6e-11 below n_x = 1343.  1e-8 leaves a factor of about 6 over it at
# n_x = 8192, and of about 220 below n_x = 1343.
_PULLIN_TOL = 1e-8

# Discretization allowance of the pull-in cross-check, per h^2.  The fold
# of the second-order discrete branch lies below the exact pull-in voltage
# by 0.0400 h^2 to leading order: (shoot - fold) / h^2 measured 0.04026 at
# n_x = 8, 0.04009 at 16, 0.04005 at 32 and 0.040037 at 512.  The shoot of
# the check is exact to roundoff and the fold within _PULLIN_TOL, so
# 2 tol_lambda + 0.05 h^2 holds every n_x >= 8 with a quarter of the
# discretization error to spare, at any positive tol_lambda.
_PULLIN_H2_ALLOWANCE = 0.05

# Fractions of the horizon at which ``limit_study`` samples potential errors.
_SAMPLE_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


@dataclass
class LimitComparison:
    """Per-aspect-ratio deviation of the full model from the flat limit.

    ``potential_errors[i]`` holds the L2 potential errors of the i-th
    aspect ratio of ``limit_study``'s ``eps_list`` at the
    ``sample_times`` that every run reached;
    ``sup_errors[i]`` is the max deflection gap over
    the common horizon ``tau``, and ``horizon_shortened`` says that a
    touchdown cut it short of the requested whole steps.
    ``diagnostics[i]`` is the ``Trajectory.diagnostics`` of the run at
    that aspect ratio.
    """

    sup_errors: list[float]
    sample_times: list[float]
    potential_errors: list[list[float]]
    tau: float
    horizon_shortened: bool
    diagnostics: list[Counter]

    @property
    def potential_sup_errors(self) -> list[float]:
        """Largest sampled potential error per aspect ratio, nan for one
        with no sample (a touchdown cut the horizon before the first
        sample time)."""
        return [max(errors, default=math.nan) for errors in self.potential_errors]


def psi0(u0: MembraneState, grid: Grid2D) -> np.ma.MaskedArray:
    """Explicit flat-limit potential on the strip -1 < z < 0.

    ``grid`` spans the x-nodes of ``u0``, and its vertical axis is read
    as z = eta - 1.  Nodes above the membrane (z > u0(x)) are masked: the
    potential is only defined in the gap region.
    """
    _check_on_grid(u0, grid)
    w = 1.0 + u0.u
    eta = grid.eta_nodes  # = 1 + z
    values = eta[None, :] / w[:, None]
    outside = eta[None, :] > w[:, None]
    return np.ma.MaskedArray(values, mask=outside)


def run0(u0: MembraneState, p: ModelParams) -> Trajectory:
    """Run the flat-limit model until equilibrium, touchdown or the
    horizon, every state stored.  Its step needs no potential solve: it
    is the full model's ``imex_step`` with unit diffusion."""
    ones = np.ones(u0.grid.n_cells - 1)
    return _run_loop(u0, p, lambda s: imex_step(s, p.dt, ones, -p.lam / (1.0 + s.u) ** 2), 1)


def steady0(
    lam: float,
    guess: MembraneState,
    floor: float = 0.05,
    fold: bool = False,
) -> BranchPoint:
    """Newton solve of the flat-limit steady problem by ``steady.damped_newton``,
    in at most its ``_NEWTON_MAX_ITER`` iterations, seeded by ``guess`` on
    its grid; returns the ``BranchPoint`` it reached.

    The residual at the state that ``damped_newton`` hands it is
    F = D2 u - lam s, s = 1/w^2 with w = 1 + u, at the interior nodes, and
    its Jacobian J = D2 + diag(2 lam / w^3) is symmetric and tridiagonal,
    so each iteration is one tridiagonal solve.  It stops at the stop
    tolerance of ``damped_newton``, which rises above 1e-10 on fine grids
    because Newton near the fold stalls at the roundoff of the second
    difference.

    Without ``fold`` the voltage is ``lam``.  With ``fold`` the voltage
    becomes an unknown, seeded by ``lam``, and the point solved for is the
    fold of the branch: F = 0 and the fold test g = 0, the minimally
    augmented system of Govaerts (Numerical Methods for Bifurcations of
    Dynamical Equilibria, SIAM 2000).  [v; g] solves the bordered system
    [J e_c; e_c^T 0] [v; g] = [0; 1], e_c the centre node, so J v = -g e_c:
    J is singular exactly when g = 0, and v with v_c = 1 then spans its
    null space.  With J's centre column replaced by e_c the bordered
    system is the tridiagonal M y = -J e_c, y being v with g in place of
    v_c, so each residual evaluation makes one tridiagonal solve and none
    uses the singular J.  The residual's last row is g h^2/4, which
    brings the roundoff of g, about 4 eps/h^2 like that of F, to eps/h^2
    at most, under the stop test of F.

    J being symmetric, v is also the left solution of the bordered
    system, so g_u = 6 lam v^2/w^4 and g_lam = -2 sum(v^2/w^3).  A Newton
    step against the rows (r, r_g) is du = p1 + dlam p2 + beta v with
    M [p1 p2] = [-r, s], one two-column solve whose centre entries mu1,
    mu2 it zeroes: J du = -r + s dlam holds when mu1 + mu2 dlam + g beta
    = 0, and with the fold row g_u du + g_lam dlam = -r_g (both scaled by
    h^2/4) that is a 2x2 system for (dlam, beta).  The fold's tangent is
    (-v, 0): the null vector at centre entry -1, at slope 0.

    Each residual evaluation returns the step at its point, which reuses
    the 1+u and (1+u)^2 of that evaluation.  Without ``fold`` the
    arithmetic is that of the plain expressions, operation by operation,
    so every iterate is the same to the last bit.
    """
    grid = guess.grid
    n_int = grid.n_nodes - 2
    centre = n_int // 2
    h2 = grid.h * grid.h
    scale = 0.25 * h2  # of the fold row
    off = np.full(n_int - 1, 1.0 / h2)
    # the off-diagonals of M, which has no entry off the diagonal in its
    # centre column (below it none when the centre is the last node)
    lower, upper = off.copy(), off.copy()
    lower[centre : centre + 1] = 0.0
    upper[centre - 1] = 0.0

    def residual(state, lam):
        w = 1.0 + state.u[1:-1]
        w2 = w * w
        r = state.bend[1:-1] - lam / w2
        if not fold:
            return r, lambda rhs: solve_tridiagonal(off, -2.0 / h2 + 2.0 * lam / w**3, off, -rhs)

        w3 = w2 * w
        diag = -2.0 / h2 + 2.0 * lam / w3
        column = np.zeros(n_int)  # -J e_c
        column[centre - 1 : centre + 2] = -1.0 / h2
        column[centre] = -diag[centre]
        diag[centre] = 1.0
        v = solve_tridiagonal(lower, diag, upper, column)
        g = v[centre]
        v[centre] = 1.0
        rows = np.concatenate((r, [scale * g]))

        def step(rhs):
            if rhs is None:
                return np.concatenate((-v, [0.0]))
            p = solve_tridiagonal(lower, diag, upper, np.array((-rhs[:n_int], 1.0 / w2)).T)
            mu1, mu2 = p[centre]
            p[centre] = 0.0
            p1, p2 = p.T
            v2 = v * v
            g_u = (6.0 * scale * lam) * v2 / (w2 * w2)
            g_lam = (-2.0 * scale) * np.sum(v2 / w3)
            g_uv = g_u @ v
            a21, b2 = g_u @ p2 + g_lam, -rhs[n_int] - g_u @ p1
            det = mu2 * g_uv - g * a21
            dlam = (-mu1 * g_uv - g * b2) / det
            beta = (mu2 * b2 + a21 * mu1) / det
            return np.concatenate((p1 + dlam * p2 + beta * v, [dlam]))

        return rows, step

    held = "the fold" if fold else None
    return damped_newton(residual, guess, lam, floor, "flat-limit Newton", held)


@dataclass(frozen=True)
class PullinResult:
    """Pull-in voltage located as the fold of the discrete flat-limit
    branch, the exact shoot it was checked against, and what finding it
    cost.  ``bracket`` is lambda_star -/+ ``_PULLIN_TOL``.

    ``diagnostics`` holds the Newton steps of the fold solve under
    ``newton_iters``, and the seconds ``search_s`` spent in the fold
    solve and ``check_s`` in the cross-check."""

    lambda_star: float
    shooting_value: float
    diagnostics: Counter

    @property
    def bracket(self) -> tuple[float, float]:
        return (self.lambda_star - _PULLIN_TOL, self.lambda_star + _PULLIN_TOL)


def _clamp_voltage(gap: float) -> float:
    """Voltage at which the symmetric flat-limit solution with centre gap
    ``gap`` reaches the clamp.

    w = 1+u solves w'' = lam/w^2 with w(0) = gap, w'(0) = 0.  Its first
    integral w'^2 = 2 lam (1/gap - 1/w) integrates in closed form, and
    w(1) = 1 holds exactly when lam = I^2/2 with
    I = sqrt(gap) (sqrt(1-gap) + gap arccosh(1/sqrt(gap))).
    """
    root = math.sqrt(gap)
    i = root * (math.sqrt(1.0 - gap) + gap * math.acosh(1.0 / root))
    return 0.5 * i * i


def _continuum_start(grid: Grid1D, depth: float) -> tuple[float, MembraneState]:
    """(voltage, state) of the continuum flat-limit solution with centre
    depth ``depth``, its profile at the nodes of ``grid``.

    With the centre gap a = 1 - depth the voltage is lam =
    ``_clamp_voltage(a)``, and the first integral w'^2 = 2 lam (1/a - 1/w)
    integrates to |x| = sqrt(a/(2 lam)) (sqrt(w(w-a)) + a arccosh(sqrt(w/a))).
    Put w = a cosh^2(s/2): then f(s) = sinh s + s equals
    y = 2|x| / (a sqrt(a/(2 lam))).  f is increasing and convex for s >= 0,
    and y/2 and asinh y both lie at or above its root, so Newton from the
    smaller falls monotonically onto it, in ``_PROFILE_NEWTON_STEPS``.
    """
    gap = 1.0 - depth
    lam = _clamp_voltage(gap)
    y = np.abs(grid.nodes) * (2.0 / gap * math.sqrt(2.0 * lam / gap))
    s = np.minimum(0.5 * y, np.arcsinh(y))
    for _ in range(_PROFILE_NEWTON_STEPS):
        s -= (np.sinh(s) + s - y) / (np.cosh(s) + 1.0)
    u = 0.5 * gap * (1.0 + np.cosh(s)) - 1.0
    u[0] = u[-1] = 0.0  # w(1) = 1 up to roundoff
    return lam, MembraneState(grid, u)


def shooting_pullin() -> float:
    """Pull-in voltage of the flat-limit model by exact shooting.

    Pull-in is the largest ``_clamp_voltage``, reached at the centre
    depth ``_CONTINUUM_FOLD_DEPTH``.  The voltage has curvature about
    -3.6 there, so the 1e-10 to which that depth is pinned costs
    1.8e-20 in voltage: the value is exact to roundoff, 1.4 ulp below
    the maximum evaluated to 40 digits.
    """
    return _clamp_voltage(1.0 - _CONTINUUM_FOLD_DEPTH)


def pullin0_detail(tol_lambda: float, n_x: int = 512) -> PullinResult:
    """Pull-in voltage of the flat limit on ``n_x`` cells, cross-checked
    against the exact shoot ``shooting_pullin`` to 2 ``tol_lambda`` plus
    the grid's own error allowance ``_PULLIN_H2_ALLOWANCE`` h^2.

    The pull-in voltage is the fold of the discrete branch, located to
    ``_PULLIN_TOL`` by one ``steady0`` fold solve; ``tol_lambda`` sets
    only the cross-check.  The solve starts from the continuum fold
    (``_continuum_start`` at ``_CONTINUUM_FOLD_DEPTH``), which lies
    O(h^2) from the discrete one, so Newton takes 1-4 steps: 1 from
    n_x = 256 on (measured for n_x = 3-39 and the powers of two up to
    8192).  ``diagnostics`` records them as ``newton_iters``.  A fold
    solve that fails re-raises its error, naming the flat-limit pull-in.
    """
    if not tol_lambda > 0.0:
        raise ValueError("tol_lambda must be positive")
    t0 = time.perf_counter()
    grid = Grid1D.uniform(n_x)
    lam, guess = _continuum_start(grid, _CONTINUUM_FOLD_DEPTH)
    with context("flat-limit pull-in"):
        fold = steady0(lam, guess, floor=_PULLIN_FLOOR, fold=True)
    counts = Counter(newton_iters=fold.newton_iters)
    lam_star = fold.lam

    t1 = time.perf_counter()
    counts["search_s"] = t1 - t0
    shooting_value = shooting_pullin()
    h = grid.h
    bound = 2.0 * tol_lambda + _PULLIN_H2_ALLOWANCE * h * h
    if abs(lam_star - shooting_value) > bound:
        raise NonConvergenceError(
            f"pull-in fold ({lam_star:.6f}) disagrees with the shooting "
            f"oracle ({shooting_value:.6f}) beyond 2*tol + "
            f"{_PULLIN_H2_ALLOWANCE}*h^2 = {bound:.3g}",
            residual=abs(lam_star - shooting_value),
        )
    counts["check_s"] = time.perf_counter() - t1
    return PullinResult(lam_star, shooting_value, counts)


def _potential_l2_error(
    u_eps: MembraneState, u_flat: MembraneState, eps: float, grid: Grid2D
) -> float:
    """L2 distance of the two potentials over the strip -1 < z < 0.

    Both are compared at the nodes of ``grid``, on which the full model
    is solved.  Its potential is pulled back to physical coordinates by
    composing with the map, interpolating linearly in eta along each grid
    column; points outside either gap region do not contribute.
    """
    phi = solve_potential(u_eps, eps, grid).phi
    eta = grid.eta_nodes  # = 1 + z on the strip

    w_eps = 1.0 + u_eps.u
    psi_flat = psi0(u_flat, grid)
    both = (eta[None, :] <= w_eps[:, None]) & ~np.ma.getmaskarray(psi_flat)

    # transformed vertical coordinate of each strip node, clipped to the
    # rectangle for the (masked-out) points above the membrane
    eta_query = np.clip(eta[None, :] / w_eps[:, None], 0.0, 1.0)
    psi_eps = np.array([np.interp(q, eta, column) for q, column in zip(eta_query, phi)])

    integrand = np.where(both, (psi_eps - psi_flat.data) ** 2, 0.0)
    return float(np.sqrt(trapezoid_2d(integrand, grid.gx.nodes, eta - 1.0)))


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _states_before_touchdown(traj: Trajectory, steps: int) -> list[MembraneState]:
    """The states of a run that stored every one, from the start up to
    the last before a touchdown (the start alone, if it began at the
    floor).  A run that stopped at an exact fixed point is padded with
    it to ``steps`` steps."""
    states = traj.states
    if traj.outcome == "touchdown":
        return states[: max(len(states) - 1, 1)]
    return states + states[-1:] * (steps + 1 - len(states))


def limit_study(
    u0: MembraneState,
    lam: float,
    eps_list,
    tau: float,
    n_eta: int | None = None,
    dt: float = 1e-3,
    touchdown_floor: float = 0.05,
) -> LimitComparison:
    """Lockstep comparison of the full model against the flat limit.

    All runs share the spatial grid and time step so that only the
    aspect ratio varies, and take ``round(tau/dt)`` steps: the flat
    reference by ``run0`` and each aspect ratio by ``run``, every state
    stored and none stopped short at equilibrium.  Potential errors are
    sampled at the fractions ``_SAMPLE_FRACTIONS`` of ``tau``.  If any
    run reaches the touchdown floor before ``tau``, the horizon shrinks
    to the span every run survives and ``horizon_shortened`` is set; no
    run steps past the flat reference's touchdown.  The aspect ratios
    run on a pool of one thread per aspect ratio, at most one per usable
    core; the runs share nothing, so the result does not depend on the
    pool.  Once every run is done, the deflection errors and the potential
    samples are taken up to the common horizon, the samples solved on the
    same pool.  A ``SolverError`` of an aspect ratio's run or potential
    samples is re-raised with ``eps=<eps>: `` before its message.
    """
    if float(np.max(u0.u)) > 0.0:
        raise ValueError("initial deflection must be nonpositive for the limit study")
    if not tau >= dt:
        raise ValueError("tau must be at least one time step dt")
    eps_list = list(eps_list)
    if not eps_list:
        raise ValueError("eps_list must not be empty")
    n_steps = int(round(tau / dt))
    sample_steps = sorted({max(1, int(round(tau * f / dt))) for f in _SAMPLE_FRACTIONS})

    n_x = u0.grid.n_cells
    grid2d = Grid2D.uniform(n_x, n_eta if n_eta is not None else n_x)

    base = ModelParams(lam=lam, dt=dt, touchdown_floor=touchdown_floor, equilibrium_tol=0.0)

    def params(eps: float, steps: int) -> ModelParams:
        # the horizon lies half a step before the last step's time, so
        # that rounding in the summed step times cannot add or drop a step
        return replace(base, eps=eps, max_time=u0.time + (steps - 0.5) * dt)

    flat = _states_before_touchdown(run0(u0, params(1.0, n_steps)), n_steps)
    flat_alive = len(flat) - 1

    def run_one(eps: float):
        if flat_alive == 0:
            return flat, _no_steps()
        with context(f"eps={eps:g}"):
            traj = run(u0, params(eps, flat_alive), grid2d, thin_every=1)
        return _states_before_touchdown(traj, flat_alive), traj.diagnostics

    def samples(eps: float, states: list[MembraneState]) -> list[float]:
        with context(f"eps={eps:g}"):
            return [_potential_l2_error(states[k], flat[k], eps, grid2d) for k in kept]

    from concurrent.futures import ThreadPoolExecutor  # here: no other kind loads the pool

    # on 2 cores the pool pays: in two batches of 10 alternating in-process
    # pairs, the README limit example took medians of 3.23 and 3.51 s on two
    # threads against 3.40 and 4.46 s on one, faster in 6 and 10 of 10 pairs
    with ThreadPoolExecutor(max_workers=min(len(eps_list), _usable_cores())) as pool:
        runs, diagnostics = map(list, zip(*pool.map(run_one, eps_list)))
        common_alive = min([flat_alive] + [len(states) - 1 for states in runs])
        kept = [k for k in sample_steps if k <= common_alive]
        potential_errors = list(pool.map(samples, eps_list, runs))
    sup_errors = [
        float(max(np.max(np.abs(u.u - f.u)) for u, f in zip(states[: common_alive + 1], flat)))
        for states in runs
    ]
    return LimitComparison(
        sup_errors, [k * dt for k in kept], potential_errors,
        common_alive * dt, common_alive < n_steps, diagnostics,
    )
