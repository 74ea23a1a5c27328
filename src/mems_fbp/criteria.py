"""Release criteria C1-C5 and C12, one check function each.

Each check measures its criterion at the sizes the caller passes and
compares the result with the criterion's fixed tolerance, which is
written only here; it returns ``(ok, detail)``.  The acceptance suite
calls the checks at the acceptance sizes and the ``validate`` kind at
32x32, so both run the same code.
"""

from __future__ import annotations

import numpy as np

from .elliptic import (
    g_eps,
    mms_convergence,
    solve_dirichlet,
    solve_potential,
    solve_potential_split,
)
from .evolution import ModelParams, Trajectory, imex_step, run
from .numerics import Grid1D, Grid2D
from .transform import MembraneState, assemble_coefficients, random_admissible_state

__all__ = [
    "mms_order",
    "dual_formulation",
    "unit_source_at_rest",
    "even_run",
    "symmetry",
    "sign",
    "degeneration",
]

MMS_ORDER = (1.9, 2.1)
SPLIT_TOL = 1e-8
UNIT_SOURCE_TOL = 1e-10
EVEN_TOL = 1e-10
SIGN_TOL = 1e-12
DEGENERATION_TOL = 1e-12


def mms_order(eps_list, n_values) -> tuple[bool, str]:
    """C1: the manufactured-solution field order at each aspect ratio
    lies in [1.9, 2.1] over the grids ``n_values``."""
    lo, hi = MMS_ORDER
    orders = {eps: mms_convergence(eps, n_values).field_order for eps in eps_list}
    ok = all(lo <= order <= hi for order in orders.values())
    shown = ", ".join(f"eps={eps:g}: {order:.3f}" for eps, order in orders.items())
    return ok, f"field orders {shown} in [{lo}, {hi}] over n={tuple(n_values)}"


def dual_formulation(grid2d: Grid2D, count: int, rng: np.random.Generator) -> tuple[bool, str]:
    """C2: the direct and the split potential of ``count`` random
    admissible states agree to ``SPLIT_TOL``."""
    worst = 0.0
    for _ in range(count):
        v = random_admissible_state(grid2d.gx, rng)
        direct = solve_potential(v, 0.7, grid2d).phi
        split = solve_potential_split(v, 0.7, grid2d)
        worst = max(worst, float(np.max(np.abs(direct - split))))
    return worst <= SPLIT_TOL, (
        f"max direct-vs-split gap over {count} states {worst:.2e} <= {SPLIT_TOL:g}"
    )


def unit_source_at_rest(grid2d: Grid2D) -> tuple[bool, str]:
    """C3: the flat membrane feels a unit source at every aspect ratio."""
    v0 = MembraneState.zero(grid2d.gx)
    worst = 0.0
    for eps in (0.01, 0.1, 1.0, 10.0):
        worst = max(worst, float(np.max(np.abs(g_eps(v0, eps, grid2d)[0] - 1.0))))
    return worst <= UNIT_SOURCE_TOL, (
        f"max |g(0) - 1| over four aspect ratios {worst:.2e} <= {UNIT_SOURCE_TOL:g}"
    )


def even_run(n_x: int, n_eta: int, steps: int) -> tuple[Trajectory, float, Grid2D]:
    """The run C4 and C5 inspect: ``steps`` steps at lambda=0.3, eps=0.1
    from the even parabola of depth 0.1, every state stored.

    Returns (trajectory, eps, grid).
    """
    grid2d = Grid2D.uniform(n_x, n_eta)
    x = grid2d.gx.nodes
    u0 = MembraneState(grid2d.gx, -0.1 * (1.0 - x * x))
    p = ModelParams(eps=0.1, lam=0.3, dt=1e-3, equilibrium_tol=1e-14, max_time=steps * 1e-3)
    return run(u0, p, grid2d, thin_every=1), p.eps, grid2d


def symmetry(traj: Trajectory, eps: float, grid2d: Grid2D) -> tuple[bool, str]:
    """C4: every stored state and the potential of the last one off the
    plate are even in x to ``EVEN_TOL``.

    A run that stops at touchdown stores the step that crossed the
    floor, and its gap may already be negative, where no potential
    exists; the potential is then that of the last stored state with a
    positive gap.

    The potential comes from ``solve_dirichlet``, the full operator on
    the whole rectangle with the data of ``solve_potential``, and not
    from the half-rectangle solve that ``solve_potential`` makes for an
    even state, whose mirrored result is even by construction: so C4
    still tests the symmetry of the full operator.
    """
    traj_gap = max(float(np.max(np.abs(s.u - s.u[::-1]))) for s in traj.states)
    eta = np.broadcast_to(grid2d.eta_nodes, grid2d.shape)
    last = next(s for s in reversed(traj.states) if s.min_gap > 0.0)
    coeffs = assemble_coefficients(last, eps, grid2d)
    phi = solve_dirichlet(coeffs, np.zeros(grid2d.shape), eta)
    phi_gap = float(np.max(np.abs(phi - phi[::-1, :])))
    ok = max(traj_gap, phi_gap) <= EVEN_TOL
    return ok, (
        f"asymmetry of {len(traj.states)} states {traj_gap:.2e}, "
        f"of the final potential {phi_gap:.2e}, <= {EVEN_TOL:g}"
    )


def sign(traj: Trajectory) -> tuple[bool, str]:
    """C5: no stored state rises above the undeflected plane by more
    than ``SIGN_TOL``."""
    worst = max(float(np.max(s.u)) for s in traj.states)
    return worst <= SIGN_TOL, f"max u over {len(traj.states)} states {worst:.2e} <= {SIGN_TOL:g}"


def degeneration(n_x: int, steps: int) -> tuple[bool, str]:
    """C12: the full-model stepping kernel fed flat-limit inputs, unit
    diffusion and the squared membrane trace 1/(1+u) of the explicit
    potential as source, tracks the flat-limit step to
    ``DEGENERATION_TOL`` over ``steps`` steps.

    The flat-limit step is solved apart from that kernel: a dense solve of
    (I - dt D2) w = u + dt f on the interior nodes, D2 the second-difference
    matrix and f = -lam/(1+u)^2."""
    grid = Grid1D.uniform(n_x)
    x = grid.nodes
    u_b = MembraneState(grid, -0.2 * (1.0 - x * x))
    u_a = u_b.u
    p = ModelParams(eps=0.1, lam=0.5, dt=1e-3)
    n = n_x - 1
    d2 = (np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1)) / (grid.h * grid.h)
    implicit = np.eye(n) - p.dt * d2
    worst = 0.0
    for _ in range(steps):
        rhs = u_a[1:-1] - p.dt * p.lam / (1.0 + u_a[1:-1]) ** 2
        u_a = np.concatenate(([0.0], np.linalg.solve(implicit, rhs), [0.0]))
        trace = 1.0 / (1.0 + u_b.u)
        u_b = imex_step(u_b, p.dt, np.ones(n), -p.lam * trace * trace)
        worst = max(worst, float(np.max(np.abs(u_a - u_b.u))))
    return worst <= DEGENERATION_TOL, (
        f"flat-limit vs degenerate stepwise gap over {steps} steps {worst:.2e} "
        f"<= {DEGENERATION_TOL:g}"
    )
