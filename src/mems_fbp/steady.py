"""Steady states, the minimal branch traced in the centre depth up to its
fold, and the closed-form non-existence threshold.

``damped_newton`` is the one Newton loop of the steady problem, for the
full model here and the flat limit in ``small_aspect``.  It owns the
unknowns (the interior deflections, and the voltage when the centre depth
is held), the border row of a depth solve, the labels and the failure
exits; a model supplies only its residual and its Newton step.
``march_to_fold`` likewise traces either model's branch to its fold.

The full model's steady equation balances the linearized curvature term
against the electrostatic source.  Its Newton step solves by GMRES on the
exact linearization (``linearize``) without forming it.  A product J v is
the closed-form tridiagonal part T v (the second difference and the
curvature factor of the source) plus the source's dependence on the
membrane trace.  The trace change follows from linearizing the potential
solve, dphi = -A(u)^{-1} G_u v with G(u, phi) = A(u) phi - b(u): G_u is
exact, built once per step from three stencil differences of the
potential, and each product is one solve against the LU of A(u) that the
residual evaluation at the same iterate already made, so each Newton
iteration factorizes once.  T, solved in closed form, preconditions
GMRES, which then needs a few such solves per step instead of one per
unknown.

The branch from the flat membrane, and any solve from a guess that
``is_even``, stays exactly even: Newton starts from the guess's exact even
part, its potentials are solved on the half rectangle (``solve_potential``
of an even membrane), and the preconditioner of a Newton step about such
a state returns even vectors, so every GMRES product is one solve against
the half factor and the step stays in the even subspace.  A step about
an iterate that is even only within ``elliptic._EVEN_TOL`` solves for the
even part of its residual, the part that such steps can reduce.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .elliptic import (
    PotentialField,
    is_even,
    solve_potential,
    stencil_derivatives,
    trace_response,
    trace_top,
)
from .errors import (
    DegenerateGeometryError,
    NoSteadyStateError,
    NonConvergenceError,
    SingularSystemError,
)
from .numerics import (
    Grid1D,
    Grid2D,
    d1_central,
    d2_central,
    gmres,
    solve_tridiagonal,
)
from .transform import MembraneState

__all__ = [
    "BranchPoint",
    "SteadyBranch",
    "Linearization",
    "steady_residual",
    "linearize",
    "damped_newton",
    "solve_steady",
    "continue_branch",
    "march_to_fold",
    "nonexistence_bound",
    "trace_lower_bound_check",
]

log = logging.getLogger(__name__)

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

# What a depth or fixed-voltage solve raises when it finds no branch point.
_DEPTH_SOLVE_ERRORS = (DegenerateGeometryError, NonConvergenceError)

# Max-norm residual at which Newton accepts a steady state or branch point.
_NEWTON_TOL = 1e-10

# Stop rule of the GMRES solve of a Newton step: a 2-norm linear residual
# at most the looser of _KRYLOV_RTOL times the 2-norm of the Newton
# residual and _KRYLOV_ATOL.  The residual after a step is its linear
# residual plus the quadratic remainder, so a tenth of _NEWTON_TOL leaves
# the Newton iterations as with an exact solve; it ends the last steps of
# each solve early, which on the 32x32 branches at eps = 0.1, 1, 2 and 3
# takes 510 GMRES iterations instead of 810 for the same Newton steps.
# The relative part bounds the steps far from a solution, where iterates
# can be ill-conditioned (cond(J) up to 1e6 on random admissible states at
# eps near 2.4, n = 32, which still reach 1e-12 within the iteration cap).
_KRYLOV_RTOL = 1e-12
_KRYLOV_ATOL = 0.1 * _NEWTON_TOL

# Newton iterations allowed per branch point, depth sample or fold-search solve.
_BRANCH_MAX_ITER = 15

# Newton iterations allowed per ``solve_steady`` solve.
_STEADY_MAX_ITER = 50

# Halvings of the depth segment in which ``continue_branch`` locates the
# seed of a fixed-voltage point: a width of 0.05 / 2^40 = 5e-14.
_SEED_BISECTIONS = 40

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

    ``diagnostics`` counts what tracing the branch cost: under
    ``newton_iters`` the Newton iterations of the points, ``jacobians``
    the linearizations of every solve (one per Newton step, depth samples
    and the fold search included), ``krylov_iters`` their GMRES
    iterations, ``rejected_steps`` the depth steps whose solve failed,
    ``fold_solves`` the depth solves of the fold search, and
    ``folded_solves`` and ``full_solves`` the potential solves of every
    residual evaluation, on the half rectangle or on the full one (see
    ``elliptic.solve_potential``).
    """

    points: list[BranchPoint]
    diagnostics: Counter
    fold_estimate: float | None = None
    fold_interval: tuple[float, float] | None = None

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([pt.lam for pt in self.points])


def _source(u: MembraneState, eps: float, field: PotentialField) -> np.ndarray:
    """Electrostatic source at the interior nodes: the squared trace with
    the (1+eps^2 u_x^2)^(5/2) curvature factor over the squared gap.

    It is minus the derivative of ``steady_residual`` by the voltage.
    """
    tr = trace_top(field)
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
    field), the field carrying its factored system for ``linearize``.
    """
    field = solve_potential(u, eps, grid2d)
    r = d2_central(u.u, u.grid)[1:-1] - lam * _source(u, eps, field)
    return (r, field) if with_potential else r


@dataclass(frozen=True, eq=False)
class Linearization:
    """The derivative of ``steady_residual`` at one state, as products.

    J = T + diag(``coupling``) dtr: T is tridiagonal (``lower``, ``diag``,
    ``upper``), the second difference and the derivative of the curvature
    factor P = (1+eps^2 u_x^2)^(5/2)/(1+u)^2 of the source; ``coupling``
    is -2 lam P tr and dtr the derivative of the membrane trace tr.  With
    ``border``, the operator is the bordered [J, -h; e_c^T, 0] of a depth
    solve, acting on (deflection change, voltage change), where h is the
    ``source`` and e_c picks the centre node; ``border`` holds T^{-1} h.
    """

    field: PotentialField
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    coupling: np.ndarray
    source: np.ndarray
    # G_u v = dg[0] v + dg[1] D1 v + dg[2] D2 v at interior node (i, j)
    dg: np.ndarray
    border: np.ndarray | None = None

    def trace_change(self, v: np.ndarray) -> np.ndarray:
        """dtr v for one deflection change v, or for each column of v.

        The potential changes by dphi solving A dphi = -G_u v with zero
        boundary values (phi = eta there for every membrane), so dtr v
        is the ``trace_response`` of -G_u v, all columns in one call.
        """
        n, h = self.diag.size, self.field.grid.gx.h
        cols = v.reshape(n, -1)
        padded = np.zeros((n + 2, cols.shape[1]))
        padded[1:-1] = cols
        d1 = (padded[2:] - padded[:-2]) / (2.0 * h)
        d2 = (padded[2:] - 2.0 * cols + padded[:-2]) / (h * h)
        dg = self.dg[..., None]
        rhs = -(dg[0] * cols[:, None] + dg[1] * d1[:, None] + dg[2] * d2[:, None])
        return trace_response(self.field, rhs)[1:-1].reshape(v.shape)

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """The linearization applied to ``z``."""
        n = self.diag.size
        v = z[:n]
        out = self.diag * v + self.coupling * self.trace_change(v)
        out[1:] += self.lower * v[:-1]
        out[:-1] += self.upper * v[1:]
        if self.border is None:
            return out
        return np.concatenate((out - self.source * z[n], [v[n // 2]]))

    def precondition(self, y: np.ndarray) -> np.ndarray:
        """Solve with T, or with the bordered [T, -h; e_c^T, 0] by block
        elimination: x = a + b dlam, where T a is y but its last entry,
        T b = h, and dlam makes x_c that last entry.

        About the even state of a ``folded`` field, the deflection part of
        x, border term included, is then replaced by its even part, so
        every vector that GMRES multiplies, and the step it returns, is
        exactly even and its products solve against the half factor.
        """
        n = self.diag.size
        x = solve_tridiagonal(self.lower, self.diag, self.upper, y[:n])
        if self.border is not None:
            dlam = (y[n] - x[n // 2]) / self.border[n // 2]
            x = x + self.border * dlam
        if self.field.folded:
            x = 0.5 * (x + x[::-1])
        return x if self.border is None else np.concatenate((x, [dlam]))


def linearize(
    u: MembraneState,
    lam: float,
    eps: float,
    grid2d: Grid2D,
    field: PotentialField,
    bordered: bool = False,
) -> Linearization:
    """The ``Linearization`` of ``steady_residual`` at ``u`` and ``lam``.

    ``field`` is the potential at ``u`` as ``steady_residual`` returns
    it, whose LU factor serves every product.  ``bordered`` adds the
    border of a depth solve.

    The operator weights are linear in a_xeta, a_etaeta and b_eta, which
    depend on the deflection only through w = 1 + u_i, u_x and u_xx at
    the grid column of node i.  So G_u v = F_w v + F_x D1 v + F_xx D2 v
    node by node, each F being the chain-rule factors of the three
    coefficients times ``stencil_derivatives`` of the potential.
    """
    grid = u.grid
    h = grid.h
    tr = trace_top(field)[1:-1]
    e2 = eps * eps
    w = 1.0 + u.u[1:-1]
    dv = d1_central(u.u, grid)[1:-1]
    stretch = 1.0 + e2 * dv * dv
    p = stretch**2.5 / (w * w)
    dp_du = -2.0 * p / w  # by u_i
    # by u_{i+1} through u_x = (u_{i+1} - u_{i-1}) / 2h; by u_{i-1} negated
    dp_dnext = 5.0 * e2 * dv * stretch**1.5 / (w * w) / (2.0 * h)
    tr2 = lam * tr * tr
    lower = 1.0 / (h * h) + tr2[1:] * dp_dnext[1:]
    diag = -2.0 / (h * h) - tr2 * dp_du
    upper = 1.0 / (h * h) - tr2[:-1] * dp_dnext[:-1]

    # with s = u_x/w and q = u_xx/w: a_xeta = -2 e2 eta s,
    # a_etaeta = (1 + e2 eta^2 u_x^2)/w^2, b_eta = e2 eta (2 s^2 - q), and G
    # is minus their sum against d_xe, d_ee, d_e plus a fixed eps^2 d_xx term
    eta = grid2d.eta_nodes[None, 1:-1]
    s = (dv / w)[:, None]
    q = (d2_central(u.u, grid)[1:-1] / w)[:, None]
    a_ee = (1.0 + e2 * eta * eta * (dv * dv)[:, None]) / (w * w)[:, None]
    d_xe, d_ee, d_e = stencil_derivatives(field.phi, grid2d)
    dg = np.empty((3,) + d_e.shape)
    dg[0] = 2.0 * a_ee * d_ee - e2 * eta * (2.0 * s * d_xe + (q - 4.0 * s * s) * d_e)
    dg[1] = 2.0 * e2 * eta * (d_xe - eta * s * d_ee - 2.0 * s * d_e)
    dg[2] = e2 * eta * d_e
    dg /= w[:, None]

    source = p * tr * tr
    border = solve_tridiagonal(lower, diag, upper, source) if bordered else None
    return Linearization(field, lower, diag, upper, -2.0 * lam * p * tr, source, dg, border)


def damped_newton(
    residual,
    step,
    guess: MembraneState,
    lam: float,
    tol: float,
    max_iter: int,
    floor: float,
    model: str,
    depth: float | None = None,
) -> tuple[MembraneState, float, int]:
    """Damped Newton iteration for a steady state of either model; returns
    (state, voltage, iterations used).

    The model supplies ``residual(u, lam)``, its residual at the interior
    deflections u and the voltage lam, and ``step(u, lam, r)``, the full
    Newton step from the point of the latest residual evaluation, whose
    residual is r.  Without ``depth`` the unknowns are u, seeded by the
    interior of ``guess``, and the voltage is fixed at ``lam``.  With a
    depth the centre deflection is held at -depth and the voltage becomes
    the last unknown, seeded by ``lam``: r ends with the border row
    u_c + depth, and ``step`` returns (du, dlam) solving the bordered
    system [J, -h; e_c^T, 0] [du; dlam] = -r, where h is the source (minus
    the residual's derivative by the voltage) and e_c picks the centre
    node.  The voltage rides along in the vector whose entries Newton keeps
    at 1 + entry > ``floor``, which holds for any nonnegative voltage.

    Each step is halved up to eight times until the trial point keeps
    every 1 + entry above ``floor`` and lowers the max-norm residual.
    Returns at the first iterate with max-norm residual <= ``tol``, its
    state at the time of ``guess``.  Raises DegenerateGeometryError when
    the guess, or every trial point of a line search, lies at or below the
    floor, and NoSteadyStateError when a line search stalls or
    ``max_iter`` steps do not reach ``tol``.  Every error message opens
    with ``model`` and the voltage or depth ("Newton at lambda=0.1"), and
    so does that of a NoSteadyStateError raised by ``step``.
    """
    grid = guess.grid
    n = grid.n_nodes - 2
    if depth is None:
        label = f"{model} at lambda={lam:g}"
        z = guess.u[1:-1].copy()
    else:
        label = f"{model} at depth={depth:g}"
        z = np.empty(n + 1)
        z[:n] = guess.u[1:-1]
        z[n] = lam

    def lam_of(z):
        return lam if depth is None else z[n]

    def full_residual(z):
        if depth is None:
            return residual(z, lam)
        r = np.empty(n + 1)
        r[:n] = residual(z[:n], z[n])
        r[n] = z[n // 2] + depth
        return r

    # 1 + min(z) is min(1 + z) exactly, since rounding is monotone
    if 1.0 + float(z.min()) <= floor:
        raise DegenerateGeometryError(f"{label}: initial guess already below the touchdown floor")
    r = full_residual(z)
    rnorm = float(np.abs(r).max())
    for it in range(max_iter + 1):
        if rnorm <= tol:
            full = np.zeros(n + 2)
            full[1:-1] = z[:n]
            return MembraneState(grid, full, guess.time), float(lam_of(z)), it
        if it == max_iter:
            break
        try:
            dz = step(z[:n], lam_of(z), r)
        except NoSteadyStateError as exc:
            exc.args = (f"{label}: {exc}",)
            raise

        any_admissible = False
        for k in range(9):  # full step plus up to 8 halvings
            z_try = z + 0.5**k * dz
            if 1.0 + float(z_try.min()) > floor:
                any_admissible = True
                r_try = full_residual(z_try)
                rnorm_try = float(np.abs(r_try).max())
                if rnorm_try < rnorm:
                    z, r, rnorm = z_try, r_try, rnorm_try
                    break
        else:
            if not any_admissible:
                raise DegenerateGeometryError(f"{label}: iterates touch down")
            raise NoSteadyStateError(f"{label}: stalled (residual {rnorm:.3e})", residual=rnorm)
    raise NoSteadyStateError(
        f"{label}: no steady state after {max_iter} iterations (residual {rnorm:.3e})",
        residual=rnorm,
    )


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
    """``damped_newton`` on the full model, at the fixed voltage ``lam`` or,
    with ``depth``, at that centre depth; returns (state, voltage,
    iterations used).

    Each step linearizes once (``linearize``, counted in
    ``counts["jacobians"]``) and solves by ``gmres`` on the products,
    preconditioned by the tridiagonal part, to the stop rule of
    ``_KRYLOV_RTOL`` and ``_KRYLOV_ATOL``; its iterations add to
    ``counts["krylov_iters"]``, and a GMRES solve that misses the rule
    within as many iterations as unknowns raises NoSteadyStateError
    carrying its linear residual.  Each residual evaluation adds one to
    ``counts["folded_solves"]`` or ``counts["full_solves"]``, as its
    potential was solved on the half rectangle or not.  A guess that
    ``is_even`` is replaced by its exact even part, so its iterates stay
    exactly even, and on a folded field GMRES solves for the even part of
    the residual (see the module docstring).  The linearization
    at an iterate reuses the potential (and its LU factor) of the
    residual evaluation there; the latest one is held for this call only,
    so concurrent calls share nothing.
    """
    grid = guess.grid
    if is_even(guess):
        # start from its exact even part, at most _EVEN_TOL / 2 away, so every
        # iterate is exactly even: the preconditioner returns even steps
        guess = MembraneState(grid, 0.5 * (guess.u + guess.u[::-1]), guess.time)
    latest = {}  # the potential of the last residual evaluation

    def state_of(u: np.ndarray) -> MembraneState:
        full = np.zeros(grid.n_nodes)
        full[1:-1] = u
        return MembraneState(grid, full, guess.time)

    def residual(u: np.ndarray, lam: float) -> np.ndarray:
        r, field = steady_residual(state_of(u), lam, eps, grid2d, with_potential=True)
        counts["folded_solves" if field.folded else "full_solves"] += 1
        latest["field"] = field
        return r

    def step(u: np.ndarray, lam: float, r: np.ndarray) -> np.ndarray:
        counts["jacobians"] += 1
        bound = max(_KRYLOV_RTOL * float(np.linalg.norm(r)), _KRYLOV_ATOL)
        try:
            lin = linearize(
                state_of(u), lam, eps, grid2d, latest["field"], bordered=depth is not None
            )
            rhs = -r
            if lin.field.folded:
                # solve for the even part of r alone: even steps cannot reduce
                # the odd part left by an iterate not exactly even
                half = rhs[: lin.diag.size]  # a view: the deflection rows
                half[:] = 0.5 * (half + half[::-1])
            dz, iters, linear = gmres(lin.matvec, rhs, lin.precondition, bound, r.size)
        except SingularSystemError as exc:
            raise NoSteadyStateError(
                f"singular linearization: {exc}", residual=float(np.max(np.abs(r)))
            ) from exc
        counts["krylov_iters"] += iters
        if not linear <= bound:
            raise NoSteadyStateError(
                f"GMRES linear residual {linear:.3e} above {bound:.3e} after {iters} iterations",
                residual=linear,
            )
        return dz

    return damped_newton(residual, step, guess, lam, _NEWTON_TOL, max_iter, floor, "Newton", depth)


def solve_steady(
    lam: float,
    eps: float,
    guess: MembraneState,
    grid2d: Grid2D,
    floor: float = 0.05,
    counts: Counter | None = None,
) -> MembraneState:
    """Steady deflection at the given voltage parameter, seeded from ``guess``,
    to a max-norm residual of ``_NEWTON_TOL`` in at most ``_STEADY_MAX_ITER``
    Newton iterations.

    When ``counts`` is given, the Newton iterations of a converged solve
    are added to ``counts["newton_iters"]``, every linearization (one per
    Newton step) to ``counts["jacobians"]``, their GMRES iterations to
    ``counts["krylov_iters"]`` and the potential solves of the residual
    evaluations to ``counts["folded_solves"]`` and ``counts["full_solves"]``
    (see ``_newton``); all five keys are set, the first three at 0 for a
    guess that already converges.
    """
    if not lam >= 0.0:
        raise ValueError("lambda must be nonnegative")
    counts = Counter() if counts is None else counts
    counts.update(newton_iters=0, jacobians=0, krylov_iters=0, folded_solves=0, full_solves=0)
    state, _, iters = _newton(lam, eps, guess, grid2d, _STEADY_MAX_ITER, floor, counts)
    counts["newton_iters"] += iters
    return state


def _lagrange_weights(nodes, x: float) -> list[float]:
    """Weights of the values at ``nodes`` in their Lagrange interpolant at ``x``."""
    weights = []
    for k, node in enumerate(nodes):
        num = den = 1.0
        for m, other in enumerate(nodes):
            if m != k:
                num *= x - other
                den *= node - other
        weights.append(num / den)
    return weights


def march_to_fold(
    solve, origin: BranchPoint, lambda_max: float, floor: float, label: str, counts: Counter
) -> tuple[list[tuple[float, BranchPoint]], tuple[float, BranchPoint] | None]:
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
    error message.  The rejected steps add to ``counts["rejected_steps"]``
    and the depth solves of the fold search to ``counts["fold_solves"]``;
    both keys are set, at 0 when there were none.

    Returns (samples, fold): the (depth, point) samples in increasing
    voltage, ending with the fold when one was located, and the fold or
    None.
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
            w = _lagrange_weights((da, db, dc), d)
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

    counts.update(rejected_steps=0, fold_solves=0)
    samples = [(0.0, origin)]
    fold = None
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
            counts["rejected_steps"] += 1
            step *= 0.5
            continue
        if sample[1].lam < p1.lam:
            fold, solves = locate_fold(samples[-2], samples[-1], sample)
            counts["fold_solves"] += solves
            samples = [s for s in samples if s[0] < fold[0]] + [fold]
            break
        samples.append(sample)
        # past lambda_max, and on the rising side, since the voltage still grows
        if p1.lam >= lambda_max:
            break
    return samples, fold


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
    each solved at its fixed voltage, seeded by the cubic interpolant of
    the four samples nearest it at the depth where the interpolated
    voltage is its own (found by bisection between the two samples around
    it); a point whose solve fails re-raises its error, naming eps and
    the voltage.  Then either ``lambda_max`` exactly (no fold),
    or the located fold (``fold_estimate``, with ``fold_interval`` its
    -/+ ``_FOLD_TOL``), or, for a march stopped short of both, its last
    sample (no fold).
    """
    if not dlambda0 > 0.0:
        raise ValueError("dlambda0 must be positive")
    grid = Grid1D.uniform(n_x)
    grid2d = Grid2D.uniform(n_x, n_eta if n_eta is not None else n_x)
    counts = Counter(jacobians=0, krylov_iters=0, folded_solves=0, full_solves=0)

    def at_depth(d: float, lam: float, guess: MembraneState) -> BranchPoint:
        state, lam, iters = _newton(
            lam, eps, guess, grid2d, _BRANCH_MAX_ITER, floor, counts, depth=d
        )
        log.debug("eps=%g: depth %.8g at lambda=%.12g, %d Newton iterations", eps, d, lam, iters)
        return BranchPoint(lam, state, state.min_gap, iters)

    origin = BranchPoint(0.0, MembraneState.zero(grid), 1.0, 0)
    samples, fold = march_to_fold(at_depth, origin, lambda_max, floor, f"eps={eps:g}", counts)

    def point_at(lam: float, segment: int) -> BranchPoint:
        # seeded from the cubic interpolant of the four samples nearest the
        # segment, at the depth where its voltage is lam
        start = max(0, min(segment - 1, len(samples) - 4))
        window = samples[start : start + 4]
        nodes = [d for d, _ in window]
        lo, hi = samples[segment][0], samples[segment + 1][0]
        for _ in range(_SEED_BISECTIONS):
            mid = 0.5 * (lo + hi)
            w = _lagrange_weights(nodes, mid)
            if sum(wk * pt.lam for wk, (_, pt) in zip(w, window)) < lam:
                lo = mid
            else:
                hi = mid
        w = _lagrange_weights(nodes, 0.5 * (lo + hi))
        guess = MembraneState(grid, sum(wk * pt.state.u for wk, (_, pt) in zip(w, window)))
        try:
            state, _, iters = _newton(lam, eps, guess, grid2d, _BRANCH_MAX_ITER, floor, counts)
        except _DEPTH_SOLVE_ERRORS as exc:
            exc.args = (f"eps={eps:g}: branch point at lambda={lam:.12g} failed: {exc}",)
            raise
        return BranchPoint(lam, state, state.min_gap, iters)

    points = [samples[0][1]]
    k = 1
    reached = False  # lambda_max
    for segment, (_, hi) in enumerate(samples[1:]):
        while not reached and (lam := min(k * dlambda0, lambda_max)) <= hi.lam:
            points.append(point_at(lam, segment))
            reached = lam == lambda_max
            k += 1
    if not reached and samples[-1][1].lam > points[-1].lam:
        points.append(samples[-1][1])
    fold_estimate = None if reached or fold is None else fold[1].lam
    counts["newton_iters"] = sum(pt.newton_iters for pt in points)
    return SteadyBranch(
        points,
        counts,
        fold_estimate,
        None if fold_estimate is None else (fold_estimate - _FOLD_TOL, fold_estimate + _FOLD_TOL),
    )


def nonexistence_bound(eps: float) -> float:
    """Closed-form voltage threshold above which no steady state exists.

    min{2 J(eps), 2/3} / eps with J(r) = r (2r^2 + 3) / (3 (r^2 + 1)^{3/2});
    tends to 2 as the aspect ratio vanishes.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    j = eps * (2.0 * eps * eps + 3.0) / (3.0 * (eps * eps + 1.0) ** 1.5)
    return min(2.0 * j, 2.0 / 3.0) / eps


def trace_lower_bound_check(u: MembraneState, eps: float, grid2d: Grid2D) -> float:
    """Smallest physical normal derivative of the potential on the membrane.

    The transformed trace divided by the local gap; for steady
    (negative, convex) profiles this should not drop below 1 beyond
    discretization error.
    """
    tr = trace_top(solve_potential(u, eps, grid2d))
    return float(np.min(tr / (1.0 + u.u)))
