"""Steady states, the minimal branch traced in the centre depth up to its
fold, and the closed-form non-existence threshold.

``damped_newton`` is the one Newton loop of the steady problem, for the
full model here and the flat limit in ``small_aspect``.  It owns the
unknowns (the interior deflections, and the voltage when a model holds
something else: the full model its centre depth, the flat limit its
fold), the one iteration cap ``_NEWTON_MAX_ITER``, the labels and the
failure exits.  It builds the clamped state of each trial point once and
hands it to the model; a model supplies only its residual of that state,
the held row included, each evaluation of which also returns the Newton
step at its point.  Each model makes its whole steady solve in one
function that hands ``damped_newton`` its residual: the full model's is
``solve_steady``, at a fixed voltage or a held centre depth, the flat
limit's ``small_aspect.steady0``.
``march_to_fold`` traces the full model's branch to its fold, from the
flat membrane.  A converged depth solve makes one more step with its
last Jacobian, whose solution is the branch tangent (du/dd, dlambda/dd)
(Keller's predictor-corrector continuation); the march seeds each depth
from the cubic Hermite interpolant of the last two samples and their
tangents, and locates the fold, where dlambda/dd vanishes, on the
Hermite cubic of the voltage.

The full model's steady equation balances the linearized curvature term
against the electrostatic source.  Its Newton step solves by GMRES on the
exact linearization without forming it (``Linearization.solve`` on the
products of ``linearize``).  A product J v is the closed-form tridiagonal
part T v (the second difference and the curvature factor of the source)
plus the source's dependence on the membrane trace.  The trace change
follows from linearizing the potential solve, dphi = -A(u)^{-1} G_u v
with G(u, phi) = A(u) phi - b(u): G_u is exact, built once per step from
three stencil differences of the potential, with the central differences
of the deflection folded in, as three column fields, its weights of
v_{i-1}, v_i and v_{i+1}; one 3-point rule applies them and T's
bands.  Each product is one solve against the LU of A(u) that the
residual evaluation returning the step made at the same iterate, so each
Newton iteration factorizes once.  T, solved in closed form,
preconditions GMRES, which then needs a few such solves per step instead
of one per unknown.

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
    g_eps,
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
    context,
)
from .numerics import Grid1D, Grid2D, gmres, solve_tridiagonal
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
# rejected on none of the n = 8-64, eps = 0.1-3 branches, and none takes
# more than 5 Newton steps.
_DEPTH_STEP = 0.1

# Depth resolution of the fold search.  Its estimates d_k are the maxima
# of the Hermite cubic of the voltage on the bracket, and it returns the
# sample solved at d_k once |d_{k+1} - d_k| < this.  The cubic matches the
# voltage and its slope at both bracket ends, so when one end lies at
# d_k, |d_k - d*| from the fold d*, the cubic's slope at d* errs by about
# |lambda''''| w^2 |d_k - d*| / 12 over a bracket of width w, and d_{k+1}
# by that over |lambda''|: |d_{k+1} - d*| <= rho |d_k - d*|, with rho at
# most 0.012 measured on the n = 8-64, eps = 0.1-3 branches (w <= 0.1).
# So |d_k - d*| <= |d_k - d_{k+1}| + rho |d_k - d*| < _FOLD_XATOL /
# (1 - rho), and the returned sample lies within
# 2 _FOLD_XATOL of the fold, where its slope |dlambda/dd| is at most
# 2 |lambda''| _FOLD_XATOL (|lambda''| = 3.0-6.9 at those folds).
_FOLD_XATOL = 1e-6

# Solves allowed in one fold search; 3 or fewer reach ``_FOLD_XATOL`` on
# the n = 8-64, eps = 0.1-3 branches.
_FOLD_MAX_SOLVES = 30

# What a depth or fixed-voltage solve raises when it finds no branch point.
_DEPTH_SOLVE_ERRORS = (DegenerateGeometryError, NonConvergenceError)

# Max-norm residual at which Newton accepts a steady state or branch point,
# on grids up to n_x = 1342 (see ``damped_newton``).
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

# Newton iterations allowed per steady solve of either model.  No solve
# that converges comes near it: a depth sample takes at most 5 steps (see
# ``_DEPTH_STEP``), a branch point at a fixed voltage 1-2, the flat limit's
# fold 1-4, and the golden ``steady`` case from the flat membrane 4.
_NEWTON_MAX_ITER = 50

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
    ``residual`` it stopped at (the held row of a depth or fold solve
    included).

    Its ``depth`` is the centre depth d = -u at node ``n_nodes // 2``,
    the node whose deflection a depth solve holds (right of x = 0 when
    n_x is odd).  A depth solve, and the flat limit's fold solve, also
    give the branch ``tangent`` there, the derivative by d of (the
    interior deflections, the voltage): its entry at that node is -1 and
    its last entry is dlambda/dd, the ``slope``.  At a fold the slope
    vanishes and the deflection part spans the null space of the
    Jacobian.  A point solved at a fixed voltage has no tangent.
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

    @property
    def depth(self) -> float:
        """The centre depth d, -u at node ``n_nodes // 2``."""
        return -float(self.state.u[self.state.grid.n_nodes // 2])


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

    @property
    def fold_interval(self) -> tuple[float, float] | None:
        if self.fold_estimate is None:
            return None
        return (self.fold_estimate - _FOLD_TOL, self.fold_estimate + _FOLD_TOL)


def steady_residual(
    u: MembraneState, lam: float, eps: float, grid2d: Grid2D
) -> tuple[np.ndarray, PotentialField]:
    """Residual of the steady balance at the interior nodes, and the
    potential field it solved.

    The balance is that of ``evolution.step`` divided by its curvature
    factor (1+eps^2 u_x^2)^(-3/2): the second difference of ``u`` minus
    ``lam`` times the source P tr^2, with P = (1+eps^2 u_x^2)^(5/2)/(1+u)^2,
    formed as (1+eps^2 u_x^2)^(3/2) times the source of ``g_eps``.  The
    field carries its factored system for ``linearize``.
    """
    g, field = g_eps(u, eps, grid2d)
    dv = u.slope
    source = (1.0 + eps * eps * dv * dv) ** 1.5 * g
    return u.bend[1:-1] - lam * source[1:-1], field


def _three_point(prev: np.ndarray, mid: np.ndarray, nxt: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row i of the result is prev[i-1] v[i-1] + mid[i] v[i] + nxt[i] v[i+1],
    the tridiagonal product with bands (``prev``, ``mid``, ``nxt``), one
    row shorter off the diagonal; with column fields for bands, and
    v[:, None], it applies the same stencil at every column."""
    out = mid * v
    out[1:] += prev * v[:-1]
    out[:-1] += nxt * v[1:]
    return out


@dataclass(frozen=True, eq=False)
class Linearization:
    """The derivative of ``steady_residual`` at one state, as products.

    J = T + diag(``coupling``) dtr: T is tridiagonal (``lower``, ``diag``,
    ``upper``), the second difference and the derivative of the curvature
    factor P = (1+eps^2 u_x^2)^(5/2)/(1+u)^2 of the source; ``coupling``
    is -2 lam P tr and dtr the derivative of the membrane trace tr, which
    ``trace_change`` takes through G_u.  ``g_u`` holds G_u as three
    column fields, its weights of v_{i-1}, v_i and v_{i+1} at each
    interior node (i, j), the differences of the deflection folded in, so
    T and G_u both apply as 3-point rules (``_three_point``).  With
    ``border``, the operator is the bordered [J, -h; e_c^T, 0] of a depth
    solve, acting on (deflection change, voltage change), where h is the
    ``source`` and e_c picks the centre node; ``border`` holds T^{-1} h.
    ``solve`` makes the Newton step with it: GMRES on ``matvec``,
    preconditioned by ``precondition``.
    """

    field: PotentialField
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    coupling: np.ndarray
    source: np.ndarray
    g_u: tuple[np.ndarray, np.ndarray, np.ndarray]
    border: np.ndarray | None = None

    def trace_change(self, v: np.ndarray) -> np.ndarray:
        """dtr v for the deflection change v at the interior nodes.

        The potential changes by dphi solving A dphi = -G_u v with zero
        boundary values (phi = eta there for every membrane), so dtr v
        is the ``trace_response`` of -G_u v.
        """
        return trace_response(self.field, -_three_point(*self.g_u, v[:, None]))[1:-1]

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """The linearization applied to ``z``."""
        n = self.diag.size
        v = z[:n]
        out = _three_point(self.lower, self.diag, self.upper, v)
        out += self.coupling * self.trace_change(v)
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

    def solve(self, rhs: np.ndarray, counts: Counter) -> np.ndarray:
        """The Newton step dz solving J dz = -rhs, J this operator: ``gmres``
        on ``matvec``, preconditioned by ``precondition``, to a 2-norm
        linear residual at most the looser of ``_KRYLOV_RTOL`` times that
        of rhs and ``_KRYLOV_ATOL``.  About a ``folded`` field it solves
        for the even part of rhs alone.  Adds the GMRES iterations to
        ``counts["krylov_iters"]``, also those of a solve that misses the
        rule within as many iterations as unknowns, which then raises
        NoSteadyStateError carrying its linear residual.
        """
        bound = max(_KRYLOV_RTOL * float(np.linalg.norm(rhs)), _KRYLOV_ATOL)
        b = -rhs
        if self.field.folded:
            # even steps cannot reduce the odd part left by an iterate not
            # exactly even
            half = b[: self.diag.size]  # a view: the deflection rows
            half[:] = 0.5 * (half + half[::-1])
        dz, iters, linear = gmres(self.matvec, b, self.precondition, bound, rhs.size)
        counts["krylov_iters"] += iters
        if not linear <= bound:
            raise NoSteadyStateError(
                f"GMRES linear residual {linear:.3e} above {bound:.3e} after {iters} iterations",
                residual=linear,
            )
        return dz


def linearize(
    u: MembraneState, lam: float, eps: float, field: PotentialField, bordered: bool = False
) -> Linearization:
    """The ``Linearization`` of ``steady_residual`` at ``u`` and ``lam``.

    ``field`` is the potential at ``u`` as ``steady_residual`` returns
    it, on its grid, whose LU factor serves every product.  ``bordered``
    adds the border of a depth solve.

    The operator weights are linear in a_xeta, a_etaeta and b_eta, which
    depend on the deflection only through w = 1 + u_i, u_x and u_xx at
    the grid column of node i.  So G_u v = F_w v + F_x D1 v + F_xx D2 v
    node by node, each F being the chain-rule factors of the three
    coefficients times ``stencil_derivatives`` of the potential; with the
    central differences D1 and D2 folded in, these are three column
    fields, the weights of v_{i-1}, v_i and v_{i+1}, which
    ``_three_point`` applies like T's bands.
    """
    h = u.grid.h
    tr = trace_top(field)[1:-1]
    e2 = eps * eps
    w = 1.0 + u.u[1:-1]
    dv = u.slope[1:-1]
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
    eta = field.grid.eta_nodes[None, 1:-1]
    s = (dv / w)[:, None]
    q = (u.bend[1:-1] / w)[:, None]
    a_ee = (1.0 + e2 * eta * eta * (dv * dv)[:, None]) / (w * w)[:, None]
    d_xe, d_ee, d_e = stencil_derivatives(field.phi, field.grid)
    w_col = w[:, None]
    f_w = (2.0 * a_ee * d_ee - e2 * eta * (2.0 * s * d_xe + (q - 4.0 * s * s) * d_e)) / w_col
    # F_x / 2h and F_xx / h^2: D1 and D2 weigh the neighbours by -/+ 1/2h and 1/h^2
    f_x = e2 * eta * (d_xe - eta * s * d_ee - 2.0 * s * d_e) / (h * w_col)
    f_xx = e2 * eta * d_e / (h * h * w_col)
    g_u = ((f_xx - f_x)[1:], f_w - 2.0 * f_xx, (f_xx + f_x)[:-1])

    source = p * tr * tr
    border = solve_tridiagonal(lower, diag, upper, source) if bordered else None
    return Linearization(field, lower, diag, upper, -2.0 * lam * p * tr, source, g_u, border)


def damped_newton(
    residual,
    guess: MembraneState,
    lam: float,
    floor: float,
    model: str,
    held: str | None = None,
) -> BranchPoint:
    """Damped Newton iteration for a steady state of either model; returns
    the ``BranchPoint`` it reached.

    The loop owns the unknowns: the interior deflections, seeded by the
    interior of ``guess``, and with ``held`` the voltage as the last
    unknown, seeded by ``lam``; without ``held`` the voltage is fixed at
    ``lam``.  It builds the state of each point it evaluates once, with
    the clamped ends and the time of ``guess`` (the guess itself at the
    start), and hands it to the model's ``residual(state, lam)``, which
    returns (r, step): its residual r at that state and voltage, and the
    Newton step there, ``step(rhs)`` solving J x = -rhs with J the
    Jacobian there, so an iteration's step is ``step(r)``.  With ``held``
    the model's residual has one more row, the equation that ``held``
    names: the full model holds its centre depth ("depth=0.3", the row
    u_c + depth at the node of ``BranchPoint.depth``) and the flat limit
    its fold ("the fold", a singularity test).  J is then the Jacobian of
    all rows by (u, lam), ``step`` returns (du, dlam), and ``step(None)``
    returns the branch ``tangent`` at the point.  The voltage rides along
    in the vector whose entries Newton keeps at 1 + entry > ``floor``,
    which holds for any nonnegative voltage, so ``lam`` must be one.

    Each step is halved up to eight times until the trial point keeps
    every 1 + entry above ``floor`` and lowers the max-norm residual; a
    rejected trial's step is dropped before the next trial is evaluated.
    Returns at the first iterate whose max-norm residual is at most the
    stop tolerance: its voltage, the state that was evaluated there, the
    steps taken and that residual, and with ``held`` that iterate's
    ``step(None)``, which is not one of the ``newton_iters``.

    The stop tolerance is ``_NEWTON_TOL``, raised to eps/h^2 on the
    guess's grid: that is the roundoff of the second difference of a
    deflection below 1 in size, and near the flat limit's fold Newton
    stalls at up to half of it, which is above 1e-10 from n_x = 2048 on.
    The tolerance is ``_NEWTON_TOL`` itself up to n_x = 1342.

    Raises ValueError when ``lam`` is not nonnegative,
    DegenerateGeometryError when the guess, or every trial point of a
    line search, lies at or below the floor, and NoSteadyStateError when
    a line search stalls or ``_NEWTON_MAX_ITER`` steps do not reach the
    stop tolerance.
    Every error message opens with ``model`` and the voltage or what is
    held ("Newton at lambda=0.1", "Newton at depth=0.3"), and so does
    that of a NoSteadyStateError raised by ``step``.
    """
    if not lam >= 0.0:
        raise ValueError("lambda must be nonnegative")
    grid = guess.grid
    tol = max(_NEWTON_TOL, np.finfo(float).eps / (grid.h * grid.h))
    n = grid.n_nodes - 2
    z = guess.u[1:-1] if held is None else np.concatenate((guess.u[1:-1], [lam]))
    label = f"{model} at lambda={lam:g}" if held is None else f"{model} at {held}"

    def evaluate(z):
        state = MembraneState.clamped(grid, z[:n], guess.time)
        return (state, *residual(state, lam if held is None else z[n]))

    # 1 + min(z) is min(1 + z) exactly, since rounding is monotone
    if 1.0 + float(z.min()) <= floor:
        raise DegenerateGeometryError(f"{label}: initial guess already below the touchdown floor")
    state = guess
    r, step = residual(state, lam)
    rnorm = float(np.abs(r).max())
    for it in range(_NEWTON_MAX_ITER + 1):
        if rnorm <= tol:
            tangent = None
            if held is not None:
                with context(label, NoSteadyStateError):
                    tangent = step(None)
            return BranchPoint(float(lam if held is None else z[n]), state, it, rnorm, tangent)
        if it == _NEWTON_MAX_ITER:
            break
        with context(label, NoSteadyStateError):
            dz = step(r)

        any_admissible = False
        for k in range(9):  # full step plus up to 8 halvings
            z_try = z + 0.5**k * dz
            if 1.0 + float(z_try.min()) > floor:
                any_admissible = True
                trial = evaluate(z_try)
                rnorm_try = float(np.abs(trial[1]).max())
                if rnorm_try < rnorm:
                    z, (state, r, step), rnorm = z_try, trial, rnorm_try
                    break
                trial = None  # free what its step holds before the next evaluation
        else:
            if not any_admissible:
                raise DegenerateGeometryError(f"{label}: iterates touch down")
            raise NoSteadyStateError(f"{label}: stalled (residual {rnorm:.3e})", residual=rnorm)
    raise NoSteadyStateError(
        f"{label}: no steady state after {_NEWTON_MAX_ITER} iterations (residual {rnorm:.3e})",
        residual=rnorm,
    )


def solve_steady(
    lam: float,
    eps: float,
    guess: MembraneState,
    grid2d: Grid2D,
    floor: float = 0.05,
    counts: Counter | None = None,
    depth: float | None = None,
) -> BranchPoint:
    """``damped_newton`` on the full model, at the fixed voltage ``lam`` or,
    with ``depth``, at that centre depth, seeded from ``guess``, to its
    stop tolerance in at most ``_NEWTON_MAX_ITER`` iterations; returns the
    ``BranchPoint`` reached, whose ``residual`` is the max-norm residual
    of its state.  A depth solve appends the border row
    u_c + depth to each residual, u_c the deflection at the node of
    ``BranchPoint.depth``, and seeds its voltage by ``lam``.

    Each residual evaluation solves the potential of the state that
    ``damped_newton`` built, adding one to ``counts["folded_solves"]`` or
    ``counts["full_solves"]`` as that was done on the half rectangle or
    not.  Its step linearizes there (``linearize``, counted in
    ``counts["jacobians"]``) against that potential's LU factor and
    solves by ``Linearization.solve``, whose GMRES iterations add to
    ``counts["krylov_iters"]``; a singular linearization raises
    NoSteadyStateError carrying the max-norm of the right-hand side.  The
    tangent of a depth solve is one more such step, so it factorizes
    nothing and counts as a linearization and its GMRES iterations alike.
    The Newton iterations of a converged solve add to
    ``counts["newton_iters"]``.  All five keys are set, at 0 when nothing
    was counted; without ``counts`` they go to a Counter of the call's own.

    A guess that ``is_even`` is replaced by its exact even part, so its
    iterates stay exactly even (see the module docstring).  Every
    potential belongs to one call, so concurrent calls share nothing.
    """
    grid = guess.grid
    if is_even(guess):
        # start from its exact even part, at most _EVEN_TOL / 2 away, so every
        # iterate is exactly even: the preconditioner returns even steps
        guess = MembraneState(grid, 0.5 * (guess.u + guess.u[::-1]), guess.time)
    counts = Counter() if counts is None else counts
    counts.update(newton_iters=0, jacobians=0, krylov_iters=0, folded_solves=0, full_solves=0)
    n = grid.n_nodes - 2

    def residual(state: MembraneState, lam: float):
        r, field = steady_residual(state, lam, eps, grid2d)
        counts["folded_solves" if field.folded else "full_solves"] += 1
        if depth is not None:
            r = np.concatenate((r, [state.u[grid.n_nodes // 2] + depth]))

        def step(rhs: np.ndarray | None) -> np.ndarray:
            if rhs is None:
                # the tangent: the depth derivative of the branch equations
                # is the bordered system against the unit border row
                rhs = np.zeros(n + 1)
                rhs[n] = 1.0
            counts["jacobians"] += 1
            try:
                return linearize(state, lam, eps, field, depth is not None).solve(rhs, counts)
            except SingularSystemError as exc:
                raise NoSteadyStateError(
                    f"singular linearization: {exc}", residual=float(np.max(np.abs(rhs)))
                ) from exc

        return r, step

    held = None if depth is None else f"depth={depth:g}"
    point = damped_newton(residual, guess, lam, floor, "Newton", held)
    counts["newton_iters"] += point.newton_iters
    return point


def _hermite_weights(da: float, db: float, d: float) -> tuple[float, float, float, float]:
    """Weights of the value at ``da``, the slope at ``da``, the value at
    ``db`` and the slope at ``db`` in their cubic Hermite interpolant at d."""
    h = db - da
    t = (d - da) / h
    s = 1.0 - t
    return (1.0 + 2.0 * t) * s * s, h * t * s * s, t * t * (3.0 - 2.0 * t), -h * t * t * s


def _voltage_at(d: float, a: BranchPoint, b: BranchPoint) -> float:
    """The cubic Hermite interpolant at depth d of the voltages of the
    depth-solved points a and b, each at its own ``depth``."""
    w = _hermite_weights(a.depth, b.depth, d)
    return w[0] * a.lam + w[1] * a.slope + w[2] * b.lam + w[3] * b.slope


def _seed(d: float, a: BranchPoint, b: BranchPoint | None = None) -> tuple[float, MembraneState]:
    """Voltage and state at depth d of the cubic Hermite interpolant of the
    depth-solved points a and b, or of the Euler step from a alone."""
    if b is None:
        terms = [(a, 1.0, d - a.depth)]
    else:
        w = _hermite_weights(a.depth, b.depth, d)
        terms = [(a, w[0], w[1]), (b, w[2], w[3])]
    grid = a.state.grid
    u = np.zeros(grid.n_nodes - 2)
    lam = 0.0
    for pt, value, slope in terms:
        u += value * pt.state.u[1:-1]
        u += slope * pt.tangent[:-1]
        lam += value * pt.lam + slope * pt.slope
    return lam, MembraneState.clamped(grid, u)


def _fold_depth(a: BranchPoint, b: BranchPoint) -> float:
    """Depth of the maximum of the cubic Hermite interpolant of the voltages
    of the depth-solved points a and b, where the voltage rises or is
    level at a and falls at b."""
    h = b.depth - a.depth
    # by t = (d - a.depth) / h the cubic's slope is q(t) = qa t^2 + qb t + c
    # with q(0) = c >= 0 > q(1); the root where q falls through zero, in
    # [0, 1), in the form free of cancellation (qb > 0 makes qa < 0)
    c, rise = h * a.slope, b.lam - a.lam
    qa = 3.0 * (c + h * b.slope) - 6.0 * rise
    qb = 6.0 * rise - 4.0 * c - 2.0 * h * b.slope
    disc = math.sqrt(max(qb * qb - 4.0 * qa * c, 0.0))
    t = (-qb - disc) / (2.0 * qa) if qb > 0.0 else 2.0 * c / (disc - qb)
    return a.depth + t * h


def march_to_fold(
    solve,
    grid: Grid1D,
    lambda_max: float,
    floor: float,
    label: str,
    counts: Counter,
) -> tuple[list[BranchPoint], BranchPoint | None]:
    """March a steady branch in the centre depth d = -u(0) up to its fold.

    ``solve(d, lam, guess)`` returns the branch point at depth d, tangent
    included, whose centre node (see ``BranchPoint.depth``) holds d,
    seeded by the voltage ``lam`` and the state ``guess``, and raises
    NoSteadyStateError, DegenerateGeometryError or NonConvergenceError
    when it finds none.  The march starts from the flat membrane on
    ``grid`` at depth 0 and voltage 0, whose solve takes no Newton step
    and is the first sample; a failure there re-raises its error naming
    the start.  The voltage rises there (at the flat membrane
    the Jacobian is the second difference and the source at rest is
    positive, so dlambda/dd > 0).  d steps by ``_DEPTH_STEP``, the first
    depth seeded by the Euler step along the start's tangent and each later
    one by the cubic Hermite interpolant through the last two samples; a
    failed solve is a rejected step and halves the step.

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

    Returns (samples, fold): the sampled points in increasing voltage,
    each at its own ``depth``, from the start and ending with the fold
    when one was located, and the fold or None.
    """

    def solve_at(d: float, lam: float, guess: MembraneState) -> BranchPoint:
        pt = solve(d, lam, guess)
        counts["tangent_solves"] += 1
        log.debug(
            "%s: depth %.8g at lambda=%.12g, dlambda/dd=%.6g, %d Newton iterations",
            label, d, pt.lam, pt.slope, pt.newton_iters,
        )
        return pt

    def locate_fold(rise: BranchPoint, fall: BranchPoint) -> tuple[BranchPoint, int]:
        d = _fold_depth(rise, fall)
        for solves in range(1, _FOLD_MAX_SOLVES + 1):
            lam, guess = _seed(d, rise, fall)
            with context(f"{label}: fold search failed at depth={d:.8g}", _DEPTH_SOLVE_ERRORS):
                new = solve_at(d, lam, guess)
            if new.slope >= 0.0:
                rise = new
            else:
                fall = new
            d = _fold_depth(rise, fall)
            if abs(d - new.depth) < _FOLD_XATOL:
                return new, solves
        best = max(rise, fall, key=lambda pt: pt.lam)
        raise NonConvergenceError(
            f"{label}: fold search unsettled after {solves} solves in depth "
            f"[{rise.depth:.8g}, {fall.depth:.8g}], best lambda={best.lam:.12g} "
            f"at depth={best.depth:.8g}",
            residual=abs(d - new.depth),
        )

    counts.update(rejected_steps=0, fold_solves=0, tangent_solves=0)
    with context(f"{label}: start failed at depth=0", _DEPTH_SOLVE_ERRORS):
        samples = [solve_at(0.0, 0.0, MembraneState.zero(grid))]
    fold = None
    step = _DEPTH_STEP
    while True:
        d = samples[-1].depth + step
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
        if sample.slope < 0.0:
            fold, solves = locate_fold(samples[-1], sample)
            counts["fold_solves"] += solves
            samples = [s for s in samples if s.depth < fold.depth] + [fold]
            break
        samples.append(sample)
        # past lambda_max, and on the rising side, since the voltage still grows
        if samples[-2].lam >= lambda_max:
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
    voltage an unknown (``solve_steady`` with a depth, which also gives
    the branch tangent), marched from the flat membrane to the fold, past
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
    if not lambda_max > 0.0:
        raise ValueError("lambda_max must be positive")
    grid = Grid1D.uniform(n_x)
    grid2d = Grid2D.uniform(n_x, n_eta if n_eta is not None else n_x)
    counts = Counter()

    def at_depth(d: float, lam: float, guess: MembraneState) -> BranchPoint:
        return solve_steady(lam, eps, guess, grid2d, floor, counts, depth=d)

    samples, fold = march_to_fold(at_depth, grid, lambda_max, floor, f"eps={eps:g}", counts)

    def point_at(lam: float, segment: int) -> BranchPoint:
        a, b = samples[segment], samples[segment + 1]
        lo, hi = a.depth, b.depth
        for _ in range(_SEED_BISECTIONS):
            mid = 0.5 * (lo + hi)
            if _voltage_at(mid, a, b) < lam:
                lo = mid
            else:
                hi = mid
        guess = _seed(0.5 * (lo + hi), a, b)[1]
        with context(
            f"eps={eps:g}: branch point at lambda={lam:.12g} failed", _DEPTH_SOLVE_ERRORS
        ):
            return solve_steady(lam, eps, guess, grid2d, floor, counts)

    points = [samples[0]]
    k = 1
    reached = False  # lambda_max
    for segment, hi in enumerate(samples[1:]):
        while not reached and (lam := min(k * dlambda0, lambda_max)) <= hi.lam:
            points.append(point_at(lam, segment))
            reached = lam == lambda_max
            k += 1
    if not reached and samples[-1].lam > points[-1].lam:
        points.append(samples[-1])
    fold_estimate = None if reached or fold is None else fold.lam
    counts["newton_iters"] = sum(pt.newton_iters for pt in points)
    return SteadyBranch(points, counts, fold_estimate)


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
