"""Steady states, the minimal branch traced in the centre depth up to its
fold, and the closed-form non-existence threshold.

``damped_newton`` is the one Newton loop of the steady problem, for the
full model here and the flat limit in ``small_aspect``.  It owns the
unknowns (the interior deflections, and the voltage when the centre depth
is held), the border row of a depth solve, the labels and the failure
exits; a model supplies only its residual and its Newton step.
``march_to_fold`` likewise traces either model's branch to its fold,
from a start that the caller gives: the flat membrane for the full
model, a depth near the closed-form fold for the flat limit.  A
converged depth solve makes one more step with its last Jacobian,
whose solution is the branch tangent (du/dd, dlambda/dd) (Keller's
predictor-corrector continuation); the march seeds each depth from the
cubic Hermite interpolant of the last two samples and their tangents,
and locates the fold, where dlambda/dd vanishes, on the Hermite cubic of
the voltage.

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
import math
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

# Step of the centre depth along the branch march.  Seeded by the Hermite
# interpolant of the last two samples, a depth solve at this step is
# rejected on none of the n = 8-64, eps = 0.1-3 branches nor in the flat
# limit, and none takes more than 5 Newton steps.
_DEPTH_STEP = 0.1

# Depth resolution of the fold search.  Its estimates d_k are the maxima
# of the Hermite cubic of the voltage on the bracket, and it returns the
# sample solved at d_k once |d_{k+1} - d_k| < this.  The cubic matches the
# voltage and its slope at both bracket ends, so when one end lies at
# d_k, |d_k - d*| from the fold d*, the cubic's slope at d* errs by about
# |lambda''''| w^2 |d_k - d*| / 12 over a bracket of width w, and d_{k+1}
# by that over |lambda''|: |d_{k+1} - d*| <= rho |d_k - d*|, with rho at
# most 0.012 measured on the flat-limit and the n = 8-64, eps = 0.1-3
# branches (w <= 0.1).  So |d_k - d*| <= |d_k - d_{k+1}| + rho |d_k - d*|
# < _FOLD_XATOL / (1 - rho), and the returned sample lies within
# 2 _FOLD_XATOL of the fold, where its slope |dlambda/dd| is at most
# 2 |lambda''| _FOLD_XATOL (|lambda''| = 3.0-6.9 at those folds).
_FOLD_XATOL = 1e-6

# Solves allowed in one fold search; 3 or fewer reach ``_FOLD_XATOL`` on
# the n = 8-64, eps = 0.1-3 branches and 2 in the flat limit.
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
# seed of a fixed-voltage point: a width of 0.1 / 2^40 = 9e-14.
_SEED_BISECTIONS = 40

# Half-width of the reported fold interval.  A depth solve stops at a
# max-norm residual of ``_NEWTON_TOL``, which moves its voltage
# by at most that times the 1-norm of the voltage row of the inverse
# bordered Jacobian: 0.40-0.46 at the eps = 0.1 and 1 folds on the 8x8 to
# 128x128 grids, so 5e-11.  At the fold the voltage is quadratic in the
# depth, |lambda''| at most 6.9 on the n = 8-64, eps = 0.1-3 branches, so
# the Hermite fold search, within 2 ``_FOLD_XATOL`` of the fold, adds at
# most 1/2 |lambda''| (2e-6)^2 = 1.4e-11.  1e-8 leaves a factor of about
# 150 over their sum for other grids and aspect ratios.
_FOLD_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class BranchPoint:
    """A steady state that ``damped_newton`` reached: the voltage ``lam``,
    the ``state``, the Newton iterations it took and the max-norm
    ``residual`` it stopped at (the border row of a depth solve included).

    A depth solve also gives the branch ``tangent`` there, the derivative
    by the centre depth d of (the interior deflections, the voltage): its
    entry at the held centre node is -1 and its last entry is dlambda/dd,
    the ``slope``.  At a fold the slope vanishes and the deflection part
    spans the null space of the Jacobian.  A point solved at a fixed
    voltage has no tangent.
    """

    lam: float
    state: MembraneState
    newton_iters: int
    residual: float
    tangent: np.ndarray | None = None

    @property
    def slope(self) -> float:
        """dlambda/dd, the last entry of the ``tangent``."""
        return float(self.tangent[-1])


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
    the linearizations of every solve (one per Newton step and one per
    tangent, depth samples and the fold search included), ``krylov_iters``
    their GMRES iterations, ``tangent_solves`` the tangents of the
    converged depth solves, ``rejected_steps`` the depth steps whose solve
    failed, ``fold_solves`` the depth solves of the fold search, and
    ``folded_solves`` and ``full_solves`` the potential solves of every
    residual evaluation, on the half rectangle or on the full one (see
    ``elliptic.solve_potential``).
    """

    points: list[BranchPoint]
    diagnostics: Counter
    fold_estimate: float | None = None
    fold_interval: tuple[float, float] | None = None


def _source(u: MembraneState, eps: float, field: PotentialField) -> np.ndarray:
    """Electrostatic source at the interior nodes: the squared trace with
    the (1+eps^2 u_x^2)^(5/2) curvature factor over the squared gap.

    It is minus the derivative of ``steady_residual`` by the voltage.
    """
    tr = trace_top(field)
    dv = d1_central(u.u, u.grid)
    return ((1.0 + eps * eps * dv * dv) ** 2.5 / (1.0 + u.u) ** 2 * tr * tr)[1:-1]


def steady_residual(
    u: MembraneState, lam: float, eps: float, grid2d: Grid2D
) -> tuple[np.ndarray, PotentialField]:
    """Residual of the steady balance at the interior nodes, and the
    potential field it solved.

    The residual is the second difference of ``u`` minus ``lam`` times the
    source of ``_source``; the field carries its factored system for
    ``linearize``.
    """
    field = solve_potential(u, eps, grid2d)
    return d2_central(u.u, u.grid)[1:-1] - lam * _source(u, eps, field), field


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
        """dtr v for the deflection change v at the interior nodes.

        The potential changes by dphi solving A dphi = -G_u v with zero
        boundary values (phi = eta there for every membrane), so dtr v
        is the ``trace_response`` of -G_u v.
        """
        h = self.field.grid.gx.h
        padded = np.zeros(v.size + 2)
        padded[1:-1] = v
        d1 = (padded[2:] - padded[:-2]) / (2.0 * h)
        d2 = (padded[2:] - 2.0 * v + padded[:-2]) / (h * h)
        g_w, g_x, g_xx = self.dg
        rhs = -(g_w * v[:, None] + g_x * d1[:, None] + g_xx * d2[:, None])
        return trace_response(self.field, rhs)[1:-1]

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
) -> BranchPoint:
    """Damped Newton iteration for a steady state of either model; returns
    the ``BranchPoint`` it reached.

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
    Returns at the first iterate with max-norm residual <= ``tol``: its
    voltage, its state at the time of ``guess``, the steps taken and that
    residual.  With a depth it first makes one more ``step`` there, whose
    r is the unit border row: the bordered system [J, -h; e_c^T, 0] t =
    (0, -1) is the depth derivative of the branch equations, so that step
    is the point's ``tangent``; it is not one of the ``newton_iters``.

    Raises DegenerateGeometryError when the guess, or every trial point
    of a line search, lies at or below the floor, and NoSteadyStateError
    when a line search stalls or ``max_iter`` steps do not reach ``tol``.
    Every error message opens with ``model`` and the voltage or depth
    ("Newton at lambda=0.1"), and so does that of a NoSteadyStateError
    raised by ``step``.
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

    def labelled_step(z, r):
        try:
            return step(z[:n], lam_of(z), r)
        except NoSteadyStateError as exc:
            exc.args = (f"{label}: {exc}",)
            raise

    # 1 + min(z) is min(1 + z) exactly, since rounding is monotone
    if 1.0 + float(z.min()) <= floor:
        raise DegenerateGeometryError(f"{label}: initial guess already below the touchdown floor")
    r = full_residual(z)
    rnorm = float(np.abs(r).max())
    for it in range(max_iter + 1):
        if rnorm <= tol:
            tangent = None
            if depth is not None:
                unit = np.zeros(n + 1)
                unit[n] = 1.0
                tangent = labelled_step(z, unit)
            full = np.zeros(n + 2)
            full[1:-1] = z[:n]
            state = MembraneState(grid, full, guess.time)
            return BranchPoint(float(lam_of(z)), state, it, rnorm, tangent)
        if it == max_iter:
            break
        dz = labelled_step(z, r)

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
) -> BranchPoint:
    """``damped_newton`` on the full model, at the fixed voltage ``lam`` or,
    with ``depth``, at that centre depth; returns the point it reached.

    Each step linearizes once (``linearize``, counted in
    ``counts["jacobians"]``) and solves by ``gmres`` on the products,
    preconditioned by the tridiagonal part, to the stop rule of
    ``_KRYLOV_RTOL`` and ``_KRYLOV_ATOL``; its iterations add to
    ``counts["krylov_iters"]``.  The tangent of a depth solve is one more
    such step, against the LU that the last residual evaluation made, so
    it factorizes nothing and counts as a linearization and its GMRES
    iterations alike.  A GMRES solve that misses the rule
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
        r, field = steady_residual(state_of(u), lam, eps, grid2d)
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
) -> BranchPoint:
    """Steady deflection at the given voltage parameter, seeded from ``guess``,
    to a max-norm residual of ``_NEWTON_TOL`` in at most ``_STEADY_MAX_ITER``
    Newton iterations; returns the ``BranchPoint`` reached, whose
    ``residual`` is the max-norm residual of its state.

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
    point = _newton(lam, eps, guess, grid2d, _STEADY_MAX_ITER, floor, counts)
    counts["newton_iters"] += point.newton_iters
    return point


def _hermite_weights(da: float, db: float, d: float) -> tuple[float, float, float, float]:
    """Weights of the value at ``da``, the slope at ``da``, the value at
    ``db`` and the slope at ``db`` in their cubic Hermite interpolant at d."""
    h = db - da
    t = (d - da) / h
    s = 1.0 - t
    return (1.0 + 2.0 * t) * s * s, h * t * s * s, t * t * (3.0 - 2.0 * t), -h * t * t * s


def _voltage_at(d: float, a, b) -> float:
    """The cubic Hermite interpolant at depth d of the voltages of the
    (depth, point) samples a and b."""
    (da, pa), (db, pb) = a, b
    w = _hermite_weights(da, db, d)
    return w[0] * pa.lam + w[1] * pa.slope + w[2] * pb.lam + w[3] * pb.slope


def _seed(d: float, a, b=None) -> tuple[float, MembraneState]:
    """Voltage and state at depth d of the cubic Hermite interpolant of the
    (depth, point) samples a and b, or of the Euler step from a alone."""
    da, pa = a
    if b is None:
        terms = [(pa, 1.0, d - da)]
    else:
        w = _hermite_weights(da, b[0], d)
        terms = [(pa, w[0], w[1]), (b[1], w[2], w[3])]
    u = np.zeros_like(pa.state.u)
    lam = 0.0
    for pt, value, slope in terms:
        u += value * pt.state.u
        u[1:-1] += slope * pt.tangent[:-1]
        lam += value * pt.lam + slope * pt.slope
    return lam, MembraneState(pa.state.grid, u)


def _fold_depth(a, b) -> float:
    """Depth of the maximum of the cubic Hermite interpolant of the voltages
    of the (depth, point) samples a and b, where the voltage rises or is
    level at a and falls at b."""
    (da, pa), (db, pb) = a, b
    h = db - da
    # by t = (d - da) / h the cubic's slope is q(t) = qa t^2 + qb t + c with
    # q(0) = c >= 0 > q(1); the root where q falls through zero, in [0, 1),
    # in the form free of cancellation (qb > 0 makes qa < 0)
    c, rise = h * pa.slope, pb.lam - pa.lam
    qa = 3.0 * (c + h * pb.slope) - 6.0 * rise
    qb = 6.0 * rise - 4.0 * c - 2.0 * h * pb.slope
    disc = math.sqrt(max(qb * qb - 4.0 * qa * c, 0.0))
    t = (-qb - disc) / (2.0 * qa) if qb > 0.0 else 2.0 * c / (disc - qb)
    return da + t * h


def march_to_fold(
    solve,
    start: tuple[float, float, MembraneState],
    lambda_max: float,
    floor: float,
    label: str,
    counts: Counter,
) -> tuple[list[tuple[float, BranchPoint]], tuple[float, BranchPoint] | None]:
    """March a steady branch in the centre depth d = -u(0) up to its fold.

    ``solve(d, lam, guess)`` returns the branch point at depth d, tangent
    included, seeded by the voltage ``lam`` and the state ``guess``, and
    raises NoSteadyStateError, DegenerateGeometryError or
    NonConvergenceError when it finds none; the flat limit and the full
    model each pass their own depth solve.  The march starts at
    ``start = (depth, voltage guess, state guess)``: the flat membrane
    (0, 0, flat), whose solve takes no Newton step, or any depth below
    the fold.  Its solve is the first sample; a failure there re-raises
    its error naming the start and the depth, and a first sample whose
    voltage falls (dlambda/dd < 0) lies past the fold, which the search
    below would then miss, and raises NonConvergenceError naming its
    depth and slope.  d steps by ``_DEPTH_STEP``, the first depth seeded
    by the Euler step along the start's tangent and each later one by the
    cubic Hermite interpolant through the last two samples; a failed
    solve is a rejected step and halves the step.

    The first sample whose voltage falls (dlambda/dd < 0) and the one
    before it bracket the fold, the largest voltage of the branch.  The
    fold search solves at the maximum of the Hermite cubic of the voltage
    on the bracket, seeded by the Hermite interpolant there, and the new
    sample replaces the end whose slope has its sign.  It returns that
    sample once the next estimate lies within ``_FOLD_XATOL`` of it,
    which puts it within 2 ``_FOLD_XATOL`` of the fold (see
    ``_FOLD_XATOL``).  A search that has not stopped after
    ``_FOLD_MAX_SOLVES`` solves raises NonConvergenceError, and a solve
    that fails in it re-raises its error, naming the fold search and the
    depth.

    The march also ends once a sample past ``lambda_max`` is followed by a
    higher one, when 1 - d would reach ``floor``, or when the step falls
    below ``_DEPTH_STEP / 2**10``.  ``label`` opens each log line and
    error message; every depth solve logs its depth, voltage, slope and
    Newton iterations at DEBUG.  The rejected steps add to
    ``counts["rejected_steps"]``, the depth solves of the fold search to
    ``counts["fold_solves"]`` and the tangents of the converged depth
    solves to ``counts["tangent_solves"]``; all three keys are set, at 0
    when there were none.

    Returns (samples, fold): the (depth, point) samples in increasing
    voltage, from the start and ending with the fold when one was
    located, and the fold or None.
    """

    def solve_at(d: float, lam: float, guess: MembraneState) -> tuple[float, BranchPoint]:
        pt = solve(d, lam, guess)
        counts["tangent_solves"] += 1
        log.debug(
            "%s: depth %.8g at lambda=%.12g, dlambda/dd=%.6g, %d Newton iterations",
            label, d, pt.lam, pt.slope, pt.newton_iters,
        )
        return d, pt

    def locate_fold(rise, fall) -> tuple[tuple[float, BranchPoint], int]:
        d = _fold_depth(rise, fall)
        for solves in range(1, _FOLD_MAX_SOLVES + 1):
            lam, guess = _seed(d, rise, fall)
            try:
                new = solve_at(d, lam, guess)
            except _DEPTH_SOLVE_ERRORS as exc:
                exc.args = (f"{label}: fold search failed at depth={d:.8g}: {exc}",)
                raise
            if new[1].slope >= 0.0:
                rise = new
            else:
                fall = new
            d = _fold_depth(rise, fall)
            if abs(d - new[0]) < _FOLD_XATOL:
                return new, solves
        best = max(rise, fall, key=lambda sample: sample[1].lam)
        raise NonConvergenceError(
            f"{label}: fold search unsettled after {solves} solves in depth "
            f"[{rise[0]:.8g}, {fall[0]:.8g}], best lambda={best[1].lam:.12g} "
            f"at depth={best[0]:.8g}",
            residual=abs(d - new[0]),
        )

    counts.update(rejected_steps=0, fold_solves=0, tangent_solves=0)
    d = start[0]
    try:
        first = solve_at(*start)
    except _DEPTH_SOLVE_ERRORS as exc:
        exc.args = (f"{label}: start failed at depth={d:.8g}: {exc}",)
        raise
    if first[1].slope < 0.0:
        raise NonConvergenceError(
            f"{label}: start at depth={d:.8g} lies past the fold "
            f"(dlambda/dd={first[1].slope:.6g} < 0)"
        )
    samples = [first]
    fold = None
    step = _DEPTH_STEP
    while True:
        d = samples[-1][0] + step
        if 1.0 - d <= floor or step < _DEPTH_STEP / 2**10:
            break
        lam, guess = _seed(d, *samples[-2:])
        try:
            sample = solve_at(d, lam, guess)
        except _DEPTH_SOLVE_ERRORS as exc:
            log.debug(
                "%s: rejected depth=%.8g (step %.6g): %s, residual %s",
                label, d, step, type(exc).__name__, getattr(exc, "residual", None),
            )
            counts["rejected_steps"] += 1
            step *= 0.5
            continue
        if sample[1].slope < 0.0:
            fold, solves = locate_fold(samples[-1], sample)
            counts["fold_solves"] += solves
            samples = [s for s in samples if s[0] < fold[0]] + [fold]
            break
        samples.append(sample)
        # past lambda_max, and on the rising side, since the voltage still grows
        if samples[-2][1].lam >= lambda_max:
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
    voltage an unknown (``_newton`` with a depth, which also gives the
    branch tangent), marched from the flat membrane to the fold, past
    ``lambda_max`` or to ``floor`` by ``march_to_fold``.

    The points are the voltages k * dlambda0 below the end of the march,
    each solved at its fixed voltage, seeded by the cubic Hermite
    interpolant of the two samples around it at the depth where its
    voltage is the point's own (found by bisection); a point whose solve
    fails re-raises its error, naming eps and the voltage.  Then either
    ``lambda_max`` exactly (no fold), or the located fold
    (``fold_estimate``, with ``fold_interval`` its -/+ ``_FOLD_TOL``), or,
    for a march stopped short of both, its last sample (no fold).
    """
    if not dlambda0 > 0.0:
        raise ValueError("dlambda0 must be positive")
    grid = Grid1D.uniform(n_x)
    grid2d = Grid2D.uniform(n_x, n_eta if n_eta is not None else n_x)
    counts = Counter(jacobians=0, krylov_iters=0, folded_solves=0, full_solves=0)

    def at_depth(d: float, lam: float, guess: MembraneState) -> BranchPoint:
        return _newton(lam, eps, guess, grid2d, _BRANCH_MAX_ITER, floor, counts, depth=d)

    samples, fold = march_to_fold(
        at_depth, (0.0, 0.0, MembraneState.zero(grid)), lambda_max, floor, f"eps={eps:g}", counts
    )

    def point_at(lam: float, segment: int) -> BranchPoint:
        a, b = samples[segment], samples[segment + 1]
        lo, hi = a[0], b[0]
        for _ in range(_SEED_BISECTIONS):
            mid = 0.5 * (lo + hi)
            if _voltage_at(mid, a, b) < lam:
                lo = mid
            else:
                hi = mid
        guess = _seed(0.5 * (lo + hi), a, b)[1]
        try:
            return _newton(lam, eps, guess, grid2d, _BRANCH_MAX_ITER, floor, counts)
        except _DEPTH_SOLVE_ERRORS as exc:
            exc.args = (f"eps={eps:g}: branch point at lambda={lam:.12g} failed: {exc}",)
            raise

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
