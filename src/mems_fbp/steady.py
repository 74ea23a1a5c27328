"""Steady states, the minimal branch traced in the centre depth up to its
fold, and the closed-form non-existence threshold.

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
from dataclasses import dataclass, replace

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
    "march_to_fold",
    "nonexistence_bound",
    "trace_lower_bound_check",
]

log = logging.getLogger(__name__)

# Deflection step of the central differences of the operator application.
# The coefficients are smooth rational functions of u and the gap 1 + u,
# so the truncation error is about (step / gap)^2 relative: 4e-10 at the
# default touchdown floor 0.05, with roundoff of the same size.
_OPERATOR_STEP = 1e-6

# Step of the centre depth along the branch march.
_DEPTH_STEP = 0.05

# Depth resolution of the fold search.  It stops once the vertex of the
# parabola through its three samples lies within this of the top sample
# and (b - a)(c - b) < this for the sample depths a < b < c.  The vertex
# is off the fold by about |lambda'''/(6 lambda'')| (b - a)(c - b), and
# that ratio is 0.37 in the flat limit and at most about 1 at the eps = 0.1
# and 1 folds, so the top sample is then within 2e-6 of the fold.
_FOLD_XATOL = 1e-6

# Solves allowed in one fold search; 5 reach ``_FOLD_XATOL`` on the
# discrete branches and on the closed-form flat-limit branch.
_FOLD_MAX_SOLVES = 30

# What a depth solve raises when it finds no branch point.
_DEPTH_SOLVE_ERRORS = (DegenerateGeometryError, NonConvergenceError)

# Max-norm residual at which Newton accepts a steady state or branch point.
_NEWTON_TOL = 1e-10

# Newton iterations allowed per branch point, depth sample or fold-search solve.
_BRANCH_MAX_ITER = 15

# Half-width of the reported fold interval.  A depth solve stops at a
# max-norm residual of ``_NEWTON_TOL``, which moves its voltage
# by at most that times the 1-norm of the voltage row of the inverse
# bordered Jacobian: 0.40-0.46 at the eps = 0.1 and 1 folds on the 8x8 to
# 128x128 grids, so 5e-11.  At the fold the voltage is quadratic in the
# depth, |lambda''| at most 3.6, so the fold search, within 2 ``_FOLD_XATOL``
# of the fold, adds at most 1/2 |lambda''| (2e-6)^2 = 7e-12.  1e-8 leaves a
# factor of about 175 over their sum for other grids and aspect ratios.
_FOLD_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class BranchPoint:
    lam: float
    state: MembraneState
    min_gap: float
    newton_iters: int


@dataclass
class SteadyBranch:
    """Points of the minimal branch, ordered by increasing voltage.

    The points are the voltages k * dlambda0 from zero, then
    ``lambda_max`` itself, the located fold or the last depth sample
    (see ``continue_branch``).  ``fold_estimate`` is the largest voltage
    of the branch, None unless the branch was traced past it below
    ``lambda_max``; ``fold_interval`` is fold_estimate -/+ ``_FOLD_TOL``.
    ``newton_iters`` counts the Newton iterations of the points,
    ``jacobians`` the Jacobians built by every solve, depth samples and
    the fold search included, ``rejected_steps`` the depth steps whose
    solve failed and ``fold_solves`` the depth solves of the fold search.
    """

    points: list[BranchPoint]
    fold_estimate: float | None = None
    fold_interval: tuple[float, float] | None = None
    rejected_steps: int = 0
    newton_iters: int = 0
    jacobians: int = 0
    fold_solves: int = 0

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([pt.lam for pt in self.points])


def _source(u: MembraneState, eps: float, field: PotentialField) -> np.ndarray:
    """Electrostatic source at the interior nodes: the squared trace with
    the (1+eps^2 u_x^2)^(5/2) curvature factor over the squared gap.

    It is minus the derivative of ``steady_residual`` by the voltage.
    """
    tr = trace_top(field).dphi_top
    dv = d1_central(u.u, u.grid)
    return ((1.0 + eps * eps * dv * dv) ** 2.5 / (1.0 + u.u) ** 2 * tr * tr)[1:-1]


def steady_residual(
    u: MembraneState,
    lam: float,
    eps: float,
    grid2d: Grid2D,
    with_potential: bool = False,
):
    """Residual of the steady balance at the interior nodes.

    The second difference of ``u`` minus ``lam`` times the source of
    ``_source``.  With ``with_potential`` returns (residual, potential
    field), the field carrying its factored system for
    ``steady_jacobian``.
    """
    field = solve_potential(u, eps, grid2d)
    r = d2_central(u.u, u.grid)[1:-1] - lam * _source(u, eps, field)
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
        block = replace(system, rhs=rhs.reshape(n_int * nie, cols.size))
        dphi = solve_factored(lu, block).reshape(n_int, nie, cols.size)
        # 3-point one-sided trace; the top row phi = 1 does not move
        dtr[:, cols] = (-4.0 * dphi[:, -1, :] + dphi[:, -2, :]) / (2.0 * grid2d.h_eta)
        del rhs, block, dphi
    return tr, dtr


def steady_jacobian(
    u: MembraneState,
    lam: float,
    eps: float,
    grid2d: Grid2D,
    field: PotentialField | None = None,
) -> np.ndarray:
    """Jacobian of ``steady_residual`` by the interior deflections.

    The curvature factor P = (1+eps^2 u_x^2)^(5/2)/(1+u)^2 and the
    second difference are tridiagonal in u and differentiated in closed
    form; the trace derivative comes from ``_trace_jacobian``.  ``field``
    is the potential at ``u`` as ``steady_residual`` returns it; passing
    it saves the factorization of the potential operator.
    """
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
    grid2d: Grid2D,
    max_iter: int,
    floor: float,
    counts: Counter,
    depth: float | None = None,
) -> tuple[MembraneState, float, int]:
    """Damped Newton iteration; returns (state, voltage, iterations used).

    Without ``depth`` the voltage is fixed at ``lam``.  With a depth the
    centre deflection is held at -depth and the voltage becomes the last
    unknown, seeded by ``lam``; each step solves the bordered system
    [J, -h; e_c^T, 0] [du; dlam] = -[r; u_c + depth], where h is the
    source of the residual evaluation and e_c picks the centre node.  The
    voltage rides along in the vector whose entries Newton keeps at
    1 + entry > ``floor``, which holds for any nonnegative voltage.

    Every Jacobian built is counted in ``counts["jacobians"]``.  The
    Jacobian at an iterate reuses the potential (and its LU factor) of
    the residual evaluation there; the latest one is held for this call
    only, so concurrent calls share nothing.
    """
    grid = guess.grid
    n_int = grid.n_nodes - 2
    centre = n_int // 2
    z = guess.u[1:-1].copy()
    if depth is None:
        label = f"Newton at lambda={lam:g}"
    else:
        label = f"Newton at depth={depth:g}"
        z = np.append(z, lam)
    latest = {}  # the potential of the last residual evaluation

    def state_of(z: np.ndarray) -> MembraneState:
        full = np.zeros(grid.n_nodes)
        full[1:-1] = z[:n_int]
        return MembraneState(grid, full, guess.time)

    def lam_of(z: np.ndarray) -> float:
        return lam if depth is None else float(z[n_int])

    def residual(z: np.ndarray) -> np.ndarray:
        r, latest["field"] = steady_residual(
            state_of(z), lam_of(z), eps, grid2d, with_potential=True
        )
        return r if depth is None else np.append(r, z[centre] + depth)

    def newton_step(z: np.ndarray, r: np.ndarray) -> np.ndarray:
        counts["jacobians"] += 1
        u, field = state_of(z), latest["field"]
        jac = steady_jacobian(u, lam_of(z), eps, grid2d, field)
        if depth is not None:
            border = np.zeros((1, n_int + 1))
            border[0, centre] = 1.0
            jac = np.block([[jac, -_source(u, eps, field)[:, None]], [border]])
        try:
            return np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise NoSteadyStateError(
                f"singular Jacobian in {label}", residual=float(np.max(np.abs(r)))
            ) from exc

    z, iters = damped_newton(residual, newton_step, z, _NEWTON_TOL, max_iter, floor, label)
    return state_of(z), lam_of(z), iters


def solve_steady(
    lam: float,
    eps: float,
    guess: MembraneState,
    grid2d: Grid2D,
    max_iter: int = 50,
    floor: float = 0.05,
    counts: Counter | None = None,
) -> MembraneState:
    """Steady deflection at the given voltage parameter, seeded from ``guess``,
    to a max-norm residual of ``_NEWTON_TOL``.

    When ``counts`` is given, the Newton iterations of a converged solve
    are added to ``counts["newton_iters"]`` and every Jacobian built to
    ``counts["jacobians"]``.
    """
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    counts = Counter() if counts is None else counts
    state, _, iters = _newton(lam, eps, guess, grid2d, max_iter, floor, counts)
    counts["newton_iters"] += iters
    return state


def march_to_fold(
    solve, origin: BranchPoint, lambda_max: float, floor: float, label: str
) -> tuple[list[tuple[float, BranchPoint]], tuple[float, BranchPoint] | None, int, int]:
    """March a steady branch in the centre depth d = -u(0) up to its fold.

    ``solve(d, lam, guess)`` returns the branch point at depth d, seeded
    by the voltage ``lam`` and the state ``guess``, and raises
    NoSteadyStateError, DegenerateGeometryError or NonConvergenceError
    when it finds none; the flat limit and the full model each pass
    their own depth solve.  From ``origin`` at d = 0, d steps by
    ``_DEPTH_STEP``, each depth seeded by a secant through the last two
    samples; a failed solve is a rejected step and halves the step.

    Once the voltage falls, the last three samples hold the fold, the
    largest voltage of the branch, with the highest voltage in the
    middle.  The fold search then steps to the vertex of the parabola
    through the three, solving there from the quadratic interpolant of
    their states and voltages, and drops an outer sample so the highest
    voltage stays in the middle.  It returns the middle sample once the
    vertex lies within ``_FOLD_XATOL`` of it and the product of its
    distances to the outer two is below ``_FOLD_XATOL``, which puts it
    within 2 ``_FOLD_XATOL`` of the fold (see ``_FOLD_XATOL``); a vertex
    on the middle sample with outer samples farther off is followed by a
    solve ``_FOLD_XATOL`` beside it, and a flat top (three equal
    voltages) ends the search at once.  A search that has not stopped
    after ``_FOLD_MAX_SOLVES`` solves raises NonConvergenceError, and a
    solve that fails in it re-raises its error, naming the fold search
    and the depth.

    The march also ends once a sample past ``lambda_max`` is followed by a
    higher one, when 1 - d would reach ``floor``, or when the step falls
    below ``_DEPTH_STEP / 2**10``.  ``label`` opens each log line and
    error message.

    Returns (samples, fold, rejected, fold_solves): the (depth, point)
    samples in increasing voltage, ending with the fold when one was
    located; the fold or None; the number of rejected steps; and the
    number of depth solves of the fold search.
    """

    def locate_fold(below, top, above) -> tuple[tuple[float, BranchPoint], int]:
        solves = 0
        while True:
            (da, pa), (db, pb), (dc, pc) = below, top, above
            # vertex of the parabola through the three; with the top in the
            # middle it lies between (da + db) / 2 and (db + dc) / 2
            left, right = (db - da) * (pb.lam - pc.lam), (dc - db) * (pb.lam - pa.lam)
            if left + right == 0.0:  # a flat top
                return top, solves
            d = db - 0.5 * ((db - da) * left - (dc - db) * right) / (left + right)
            if abs(d - db) < _FOLD_XATOL:
                if (db - da) * (dc - db) < _FOLD_XATOL:
                    return top, solves
                # the vertex may sit on the top by its cubic bias alone: a
                # solve beside the top shrinks that bias below _FOLD_XATOL
                d = db + _FOLD_XATOL if dc - db > db - da else db - _FOLD_XATOL
            if solves == _FOLD_MAX_SOLVES:
                raise NonConvergenceError(
                    f"{label}: fold search unsettled after {solves} solves in depth "
                    f"[{da:.8g}, {dc:.8g}], best lambda={pb.lam:.12g} at depth={db:.8g}",
                    residual=abs(d - db),
                )
            # seeded by the quadratic interpolant of the three at d
            w = (
                (d - db) * (d - dc) / ((da - db) * (da - dc)),
                (d - da) * (d - dc) / ((db - da) * (db - dc)),
                (d - da) * (d - db) / ((dc - da) * (dc - db)),
            )
            guess = MembraneState(
                pb.state.grid, w[0] * pa.state.u + w[1] * pb.state.u + w[2] * pc.state.u
            )
            try:
                new = (d, solve(d, w[0] * pa.lam + w[1] * pb.lam + w[2] * pc.lam, guess))
            except _DEPTH_SOLVE_ERRORS as exc:
                exc.args = (f"{label}: fold search failed at depth={d:.8g}: {exc}",)
                raise
            solves += 1
            # keep the top in the middle: drop the outer sample beyond a new
            # top, or replace the outer sample on the new sample's side
            if new[1].lam >= pb.lam:
                below, top, above = (top, new, above) if d > db else (below, new, top)
            elif d > db:
                above = new
            else:
                below = new

    samples = [(0.0, origin)]
    fold = None
    rejected = fold_solves = 0
    step = _DEPTH_STEP
    while True:
        d = samples[-1][0] + step
        if 1.0 - d <= floor or step < _DEPTH_STEP / 2**10:
            break
        (d1, p1), (d0, p0) = samples[-1], samples[max(len(samples) - 2, 0)]
        t = (d - d1) / (d1 - d0) if d1 > d0 else 0.0
        guess = MembraneState(p1.state.grid, p1.state.u + t * (p1.state.u - p0.state.u))
        try:
            sample = (d, solve(d, p1.lam + t * (p1.lam - p0.lam), guess))
        except _DEPTH_SOLVE_ERRORS as exc:
            log.debug(
                "%s: rejected depth=%.8g (step %.6g): %s, residual %s",
                label, d, step, type(exc).__name__, getattr(exc, "residual", None),
            )
            rejected += 1
            step *= 0.5
            continue
        if sample[1].lam < p1.lam:
            fold, fold_solves = locate_fold(samples[-2], samples[-1], sample)
            samples = [s for s in samples if s[0] < fold[0]] + [fold]
            break
        samples.append(sample)
        # past lambda_max, and on the rising side, since the voltage still grows
        if p1.lam >= lambda_max:
            break
    return samples, fold, rejected, fold_solves


def continue_branch(
    eps: float,
    lambda_max: float,
    dlambda0: float,
    n_x: int = 64,
    n_eta: int | None = None,
    floor: float = 0.05,
) -> SteadyBranch:
    """The minimal steady branch from zero voltage, traced in the centre depth.

    The centre deflection d = -u(0) is the continuation parameter and the
    voltage an unknown (``_newton`` with a depth), marched from the flat
    membrane to the fold, past ``lambda_max`` or to ``floor`` by
    ``march_to_fold``.

    The points are the voltages k * dlambda0 below the end of the march,
    each solved at its fixed voltage from the interpolation between the
    two samples around it, then either ``lambda_max`` exactly (no fold),
    or the located fold (``fold_estimate``, with ``fold_interval`` its
    -/+ ``_FOLD_TOL``), or, for a march stopped short of both, its last
    sample (no fold).
    """
    if dlambda0 <= 0.0:
        raise ValueError("dlambda0 must be positive")
    grid = Grid1D.uniform(n_x)
    grid2d = Grid2D.uniform(n_x, n_eta if n_eta is not None else n_x)
    counts = Counter()

    def at_depth(d: float, lam: float, guess: MembraneState) -> BranchPoint:
        state, lam, iters = _newton(
            lam, eps, guess, grid2d, _BRANCH_MAX_ITER, floor, counts, depth=d
        )
        log.debug("eps=%g: depth %.8g at lambda=%.12g, %d Newton iterations", eps, d, lam, iters)
        return BranchPoint(lam, state, state.min_gap, iters)

    origin = BranchPoint(0.0, MembraneState.zero(grid), 1.0, 0)
    samples, fold, rejected, fold_solves = march_to_fold(
        at_depth, origin, lambda_max, floor, f"eps={eps:g}"
    )

    points = [samples[0][1]]
    k = 1
    reached = False  # lambda_max
    for (_, lo), (_, hi) in zip(samples, samples[1:]):
        while not reached and (lam := min(k * dlambda0, lambda_max)) <= hi.lam:
            t = (lam - lo.lam) / (hi.lam - lo.lam)
            guess = MembraneState(grid, lo.state.u + t * (hi.state.u - lo.state.u))
            state, _, iters = _newton(
                lam, eps, guess, grid2d, _BRANCH_MAX_ITER, floor, counts
            )
            points.append(BranchPoint(lam, state, state.min_gap, iters))
            reached = lam == lambda_max
            k += 1
    if not reached and samples[-1][1].lam > points[-1].lam:
        points.append(samples[-1][1])
    fold_estimate = None if reached or fold is None else fold[1].lam
    return SteadyBranch(
        points,
        fold_estimate,
        None if fold_estimate is None else (fold_estimate - _FOLD_TOL, fold_estimate + _FOLD_TOL),
        rejected_steps=rejected,
        newton_iters=sum(pt.newton_iters for pt in points),
        jacobians=counts["jacobians"],
        fold_solves=fold_solves,
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


def trace_lower_bound_check(u: MembraneState, eps: float, grid2d: Grid2D) -> float:
    """Smallest physical normal derivative of the potential on the membrane.

    The transformed trace divided by the local gap; for steady
    (negative, convex) profiles this should not drop below 1 beyond
    discretization error.
    """
    tr = trace_top(solve_potential(u, eps, grid2d)).dphi_top
    return float(np.min(tr / (1.0 + u.u)))
