"""Steady states, continuation in the voltage parameter, and the
closed-form non-existence threshold.

The steady equation balances the linearized curvature term against the
electrostatic source.  Newton iteration uses the dense tangent
Jacobian: the trace derivative comes from linearizing the potential
solve, dphi/du_j = -A(u)^{-1} dG/du_j with G(u, phi) = A(u) phi - b(u),
so one LU of the potential operator serves every column.  Newton takes
that LU from the residual evaluation at the same iterate, so each
iteration factorizes once.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .elliptic import (
    PotentialField,
    apply_operator,
    solve_potential,
    trace_top,
)
from .errors import DegenerateGeometryError, NoSteadyStateError, NonConvergenceError
from .numerics import (
    Grid1D,
    Grid2D,
    SparseSystem,
    d1_central,
    d2_central,
    damped_newton,
    solve_factored,
)
from .transform import MembraneState, assemble_coefficients

__all__ = [
    "BranchPoint",
    "SteadyBranch",
    "steady_residual",
    "steady_jacobian",
    "solve_steady",
    "continue_branch",
    "nonexistence_bound",
    "trace_lower_bound_check",
]

log = logging.getLogger(__name__)

# Deflection step of the central differences of the operator application.
# The coefficients are smooth rational functions of u and the gap 1 + u,
# so the truncation error is about (step / gap)^2 relative: 4e-10 at the
# default touchdown floor 0.05, with roundoff of the same size.
_OPERATOR_STEP = 1e-6


@dataclass(frozen=True, eq=False)
class BranchPoint:
    lam: float
    state: MembraneState
    min_gap: float
    newton_iters: int


@dataclass
class SteadyBranch:
    """Continuation points ordered by increasing voltage parameter.

    ``newton_iters`` counts the Newton iterations of the accepted points,
    ``jacobians`` the Jacobians built over every attempt, rejected steps
    included, and ``rejected_steps`` the voltage steps whose solve failed.
    """

    points: list[BranchPoint]
    fold_estimate: float | None = None
    fold_interval: tuple[float, float] | None = None
    rejected_steps: int = 0
    newton_iters: int = 0
    jacobians: int = 0

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([pt.lam for pt in self.points])


def steady_residual(
    u: MembraneState,
    lam: float,
    eps: float,
    grid2d: Grid2D | None = None,
    with_potential: bool = False,
):
    """Residual of the steady balance at the interior nodes.

    The source is the squared trace with the (1+eps^2 u_x^2)^(5/2)
    curvature factor over the squared gap.  With ``with_potential``
    returns (residual, potential field), the field carrying its factored
    system for ``steady_jacobian``.
    """
    grid2d = grid2d or Grid2D.square(u.grid)
    field = solve_potential(u, eps, grid2d)
    tr = trace_top(field).dphi_top
    dv = d1_central(u.u, u.grid)
    h = (1.0 + eps * eps * dv * dv) ** 2.5 / (1.0 + u.u) ** 2 * tr * tr
    r = d2_central(u.u, u.grid)[1:-1] - lam * h[1:-1]
    return (r, field) if with_potential else r


def _trace_jacobian(
    u: MembraneState, eps: float, grid2d: Grid2D, field: PotentialField | None = None
):
    """Membrane trace and its derivative by the interior deflections.

    Returns (tr, dtr) at the interior x-nodes, dtr[i, j] = d tr_i / d u_j.
    ``field`` is the potential at ``u`` from ``solve_potential``, whose
    factor is reused; without it the potential is solved here.
    On the grid column of x-node i, G = A(u) phi - b(u) uses coefficients
    sampled at node i, which depend on u_{i-1}, u_i, u_{i+1} only, so
    perturbing every third deflection at once (three colours, central
    differences) yields all of dG/du without a solve.  All right-hand
    sides -dG/du_j are then solved against the one factor of A(u), a
    colour block at a time to bound the dense storage.
    """
    grid = u.grid
    n_int = grid.n_nodes - 2
    nie = grid2d.n_eta - 1
    if field is None:
        field = solve_potential(u, eps, grid2d)
    phi, system, lu = field.phi, field.system, field.lu
    tr = trace_top(field).dphi_top[1:-1]

    def operator_at(shift: np.ndarray) -> np.ndarray:
        shifted = MembraneState(grid, u.u + shift, u.time)
        return apply_operator(assemble_coefficients(shifted, eps, grid2d), phi)

    dtr = np.empty((n_int, n_int))
    for colour in range(3):
        cols = np.arange(colour, n_int, 3)
        shift = np.zeros(grid.n_nodes)
        shift[cols + 1] = _OPERATOR_STEP
        dg = (operator_at(shift) - operator_at(-shift)) / (2.0 * _OPERATOR_STEP)
        # deflection j moves the operator rows of x-nodes j-1, j, j+1
        rhs = np.zeros((n_int, nie, cols.size))
        for k, j in enumerate(cols):
            lo, hi = max(j - 1, 0), min(j + 2, n_int)
            rhs[lo:hi, :, k] = -dg[lo:hi, :]
        block = SparseSystem(system.matrix, rhs.reshape(n_int * nie, cols.size), system.tol)
        dphi = solve_factored(lu, block).reshape(n_int, nie, cols.size)
        # 3-point one-sided trace; the top row phi = 1 does not move
        dtr[:, cols] = (-4.0 * dphi[:, -1, :] + dphi[:, -2, :]) / (2.0 * grid2d.h_eta)
        del rhs, block, dphi
    return tr, dtr


def steady_jacobian(
    u: MembraneState,
    lam: float,
    eps: float,
    grid2d: Grid2D | None = None,
    field: PotentialField | None = None,
) -> np.ndarray:
    """Jacobian of ``steady_residual`` by the interior deflections.

    The curvature factor P = (1+eps^2 u_x^2)^(5/2)/(1+u)^2 and the
    second difference are tridiagonal in u and differentiated in closed
    form; the trace derivative comes from ``_trace_jacobian``.  ``field``
    is the potential at ``u`` as ``steady_residual`` returns it; passing
    it saves the factorization of the potential operator.
    """
    grid2d = grid2d or Grid2D.square(u.grid)
    grid = u.grid
    h = grid.h
    tr, dtr = _trace_jacobian(u, eps, grid2d, field)
    dv = d1_central(u.u, grid)[1:-1]
    w = 1.0 + u.u[1:-1]
    stretch = 1.0 + eps * eps * dv * dv
    p = stretch**2.5 / (w * w)
    dp_du = -2.0 * p / w  # by u_i
    # by u_{i+1} through u_x = (u_{i+1} - u_{i-1}) / 2h; by u_{i-1} negated
    dp_dnext = 5.0 * eps * eps * dv * stretch**1.5 / (w * w) / (2.0 * h)

    jac = (-2.0 * lam * p * tr)[:, None] * dtr
    tr2 = lam * tr * tr
    idx = np.arange(tr.size)
    jac[idx, idx] += -2.0 / (h * h) - tr2 * dp_du
    jac[idx[:-1], idx[:-1] + 1] += 1.0 / (h * h) - tr2[:-1] * dp_dnext[:-1]
    jac[idx[1:], idx[1:] - 1] += 1.0 / (h * h) + tr2[1:] * dp_dnext[1:]
    return jac


def _newton(
    lam: float,
    eps: float,
    guess: MembraneState,
    tol: float,
    grid2d: Grid2D,
    max_iter: int,
    floor: float,
    counts: Counter,
) -> tuple[MembraneState, int]:
    """Damped Newton iteration; returns (state, iterations used).

    Every Jacobian built is counted in ``counts["jacobians"]``.  The
    Jacobian at an iterate reuses the potential (and its LU factor) of
    the residual evaluation there; the latest one is held for this call
    only, so concurrent calls share nothing.
    """
    grid = guess.grid
    latest = {}  # the last residual evaluation: {"u": u_int, "field": potential}

    def state_of(u_int: np.ndarray) -> MembraneState:
        full = np.zeros(grid.n_nodes)
        full[1:-1] = u_int
        return MembraneState(grid, full, guess.time)

    def residual(u_int: np.ndarray) -> np.ndarray:
        r, field = steady_residual(state_of(u_int), lam, eps, grid2d, with_potential=True)
        latest.update(u=u_int, field=field)
        return r

    def newton_step(u_int: np.ndarray, r: np.ndarray) -> np.ndarray:
        counts["jacobians"] += 1
        field = latest["field"] if latest.get("u") is u_int else None
        jac = steady_jacobian(state_of(u_int), lam, eps, grid2d, field)
        try:
            return np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NoSteadyStateError(
                f"singular Jacobian at lambda={lam:g}",
                residual=float(np.max(np.abs(r))),
            ) from exc

    u, iters = damped_newton(
        residual, newton_step, guess.u[1:-1].copy(), tol, max_iter, floor,
        f"Newton at lambda={lam:g}",
    )
    return state_of(u), iters


def solve_steady(
    lam: float,
    eps: float,
    guess: MembraneState,
    tol: float = 1e-10,
    grid2d: Grid2D | None = None,
    max_iter: int = 50,
    floor: float = 0.05,
) -> MembraneState:
    """Steady deflection at the given voltage parameter, seeded from ``guess``."""
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    grid2d = grid2d or Grid2D.square(guess.grid)
    state, _ = _newton(lam, eps, guess, tol, grid2d, max_iter, floor, Counter())
    return state


def continue_branch(
    eps: float,
    lambda_max: float,
    dlambda0: float,
    n_x: int = 64,
    n_eta: int | None = None,
    tol: float = 1e-10,
    max_iter: int = 15,
    floor: float = 0.05,
) -> SteadyBranch:
    """Natural continuation of the minimal branch from zero voltage.

    The voltage step halves on every Newton failure; the branch ends at
    ``lambda_max`` or once the step drops below dlambda0 / 2^10, which
    brackets the fold.  The fold estimate is the bracket midpoint.
    """
    if dlambda0 <= 0.0:
        raise ValueError("dlambda0 must be positive")
    grid = Grid1D.uniform(n_x)
    grid2d = Grid2D.uniform(n_x, n_eta if n_eta is not None else n_x)

    u = MembraneState.zero(grid)
    points = [BranchPoint(0.0, u, 1.0, 0)]
    lam = 0.0
    step = dlambda0
    last_failed_step = None
    counts = Counter()

    while lam < lambda_max:
        if step < dlambda0 / 2**10:
            break
        lam_try = min(lam + step, lambda_max)
        try:
            u_new, iters = _newton(lam_try, eps, u, tol, grid2d, max_iter, floor, counts)
        except (NoSteadyStateError, DegenerateGeometryError, NonConvergenceError) as exc:
            log.debug(
                "eps=%g: rejected lambda=%.12g (step %.6g): %s, residual %s",
                eps, lam_try, lam_try - lam, type(exc).__name__,
                getattr(exc, "residual", None),
            )
            counts["rejected"] += 1
            last_failed_step = lam_try - lam
            step *= 0.5
            continue
        u = u_new
        lam = lam_try
        points.append(BranchPoint(lam, u, u.min_gap, iters))

    fold_estimate = fold_interval = None
    if lam < lambda_max and last_failed_step is not None:
        fold_interval = (lam, lam + last_failed_step)
        fold_estimate = lam + 0.5 * last_failed_step
    return SteadyBranch(
        points,
        fold_estimate,
        fold_interval,
        rejected_steps=counts["rejected"],
        newton_iters=sum(pt.newton_iters for pt in points),
        jacobians=counts["jacobians"],
    )


def nonexistence_bound(eps: float) -> float:
    """Closed-form voltage threshold above which no steady state exists.

    min{2 J(eps), 2/3} / eps with J(r) = r (2r^2 + 3) / (3 (r^2 + 1)^{3/2});
    tends to 2 as the aspect ratio vanishes.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    j = eps * (2.0 * eps * eps + 3.0) / (3.0 * (eps * eps + 1.0) ** 1.5)
    return min(2.0 * j, 2.0 / 3.0) / eps


def trace_lower_bound_check(
    u: MembraneState, eps: float, grid2d: Grid2D | None = None
) -> float:
    """Smallest physical normal derivative of the potential on the membrane.

    The transformed trace divided by the local gap; for steady
    (negative, convex) profiles this should not drop below 1 beyond
    discretization error.
    """
    grid2d = grid2d or Grid2D.square(u.grid)
    tr = trace_top(solve_potential(u, eps, grid2d)).dphi_top
    return float(np.min(tr / (1.0 + u.u)))
