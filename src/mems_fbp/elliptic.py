"""Potential solves on the fixed rectangle.

Discretizes the mapped operator with a 9-point second-order stencil:
central differences for the pure second derivatives and the vertical
drift, a 4-corner cross stencil for the mixed derivative.  Dirichlet
data is eliminated into the right-hand side, so the unknowns are the
interior nodes only.  They are numbered in a nested-dissection order,
cached per grid shape with the matrix's sparsity pattern, so the
assembled matrix is factorized as it stands; only the gather of the
right-hand side and the scatter of the solution see that numbering, and
no other module does.  Every solve here takes one path (``_solve``):
form the right-hand side b once, on the grid, assemble the matrix on
the cached pattern, factorize and solve for b gathered in its numbering
(``numerics.solve_sparse``), then ``_scatter_checked``: scatter onto the
grid and check the residual against the same b on the full 9-point
stencil.  ``solve_potential`` decides for every potential, of a time
step, a steady residual or a check alike: the potential of an even
membrane takes that path on the folded pattern, the half rectangle
x >= 0, and its solution is mirrored onto x < 0 before the same check.
``trace_response`` solves against the factor a potential keeps, half or
full, with its forcing as b, and checks through the same helper.
``solve_dirichlet`` always solves the full system, for references that
must not assume the symmetry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .numerics import Grid1D, Grid2D, check_residual, d1_central, solve_sparse
from .transform import MembraneState, OperatorCoefficients, assemble_coefficients

__all__ = [
    "PotentialField",
    "assemble_system",
    "solve_dirichlet",
    "solve_potential",
    "solve_potential_split",
    "is_even",
    "stencil_derivatives",
    "trace_top",
    "trace_response",
    "g_eps",
    "mms_convergence",
    "MmsResult",
]


@dataclass(frozen=True, eq=False)
class PotentialField:
    """Nodal values of the transformed potential on the rectangle.

    A field from ``solve_potential`` also carries the LU factor of its
    assembled system, in the numbering of ``assemble_system``, and the
    stencil ``weights`` of its operator, with which each solve against
    the factor is checked; other fields do not.  A ``folded`` field, the
    potential of an even membrane, keeps the factor of the half
    rectangle.
    """

    grid: Grid2D
    phi: np.ndarray
    lu: object | None = None
    weights: np.ndarray | None = None
    folded: bool = False


# Relative residual tolerance of the potential solves, and of the
# manufactured-solution solves of ``mms_convergence``.
_POTENTIAL_TOL = 1e-10
_MMS_TOL = 1e-12

# Largest max_i |u_i - u_{n_x - i}| of a membrane whose potential
# ``solve_potential`` solves on the half rectangle.  The mirrored
# solution phi is checked against the full system A(u) phi = b(u).  Its
# rows at x >= 0 are those of the half system, solved to rounding
# (relative residual below 1e-14); at x < 0 they differ from their
# mirror images only through the coefficients' dependence on the odd
# part of u, so the residual there is -(da_xeta d_xe + da_etaeta d_ee +
# db_eta d_e) phi, linear in the asymmetry.  Under the worst odd
# perturbation (alternating signs) the relative residual per unit of
# asymmetry measured at most 500, over grids 16^2 to 512^2, 1024 x 8 and
# 8 x 256, eps 0.01 to 10 and depths to 0.8; inside this tolerance it is
# then below 5e-12, twenty times inside _POTENTIAL_TOL, so an even state
# does not need a second, full factorization.  Time stepping from an
# even state keeps the asymmetry at rounding level (at most 1.3e-15 in
# runs up to touchdown).  A steady Newton from a guess inside this
# tolerance starts from its exact even part and keeps its iterates exactly
# even (see ``steady._newton``).
_EVEN_TOL = 1e-14


# Stencil offsets (di, dj) in the order of the weight stack of
# _stencil_weights.  _apply_stencil sums the weights in this order, which
# fixes the rounding of every right-hand side's ring share and residual.
_OFFSETS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1), (1, 1), (-1, -1), (1, -1), (-1, 1))


def _stencil_weights(coeffs: OperatorCoefficients) -> np.ndarray:
    """Interior-node weights of A = -(mapped operator).

    Returns an array of shape (9, n_x - 1, n_eta - 1), one slab per
    offset of ``_OFFSETS``.
    """
    g = coeffs.grid
    hx, he = g.gx.h, g.h_eta
    sl = (slice(1, -1), slice(1, -1))
    c_xx = coeffs.a_xx[sl] / (hx * hx)
    c_ee = coeffs.a_etaeta[sl] / (he * he)
    c_e = coeffs.b_eta[sl] / (2.0 * he)
    c_xe = coeffs.a_xeta[sl] / (4.0 * hx * he)
    w = np.empty((len(_OFFSETS),) + c_xx.shape)
    w[0] = 2.0 * c_xx + 2.0 * c_ee
    w[1] = w[2] = -c_xx
    w[3] = -c_ee + c_e
    w[4] = -c_ee - c_e
    w[5] = w[6] = -c_xe
    w[7] = w[8] = c_xe
    return w


def stencil_derivatives(phi: np.ndarray, grid: Grid2D):
    """The cross, second and first vertical differences of ``phi``.

    Returns (d_xe, d_ee, d_e) at the interior nodes, each of shape
    (n_x - 1, n_eta - 1): the 4-corner d_x d_eta, the central d_etaeta and
    the central d_eta of ``_stencil_weights``, the boundary ring of the full
    nodal field ``phi`` entering like any other node.  At the potential,
    A phi - b is -(eps^2 d_xx + a_xeta d_xe + a_etaeta d_ee + b_eta d_e)
    phi, so these are minus its derivatives by the three coefficient
    fields that depend on the membrane.
    """
    hx, he = grid.gx.h, grid.h_eta
    up, mid, down = phi[1:-1, 2:], phi[1:-1, 1:-1], phi[1:-1, :-2]
    d_xe = (phi[2:, 2:] + phi[:-2, :-2] - phi[2:, :-2] - phi[:-2, 2:]) / (4.0 * hx * he)
    return d_xe, (up - 2.0 * mid + down) / (he * he), (up - down) / (2.0 * he)


@dataclass(frozen=True, eq=False)
class _Pattern:
    """Index maps of the 9-point operator, or of its fold, on one grid shape.

    The unknowns are the interior nodes of columns ``first`` to n_x - 1,
    numbered in the nested-dissection order ``perm`` of that block:
    unknown k is the node of lexicographic block index ``perm[k]``, which
    sits at (``nodes[0][k]``, ``nodes[1][k]``) of the interior block.
    ``indices``/``indptr`` are the CSC structure of the matrix in this
    numbering and ``take`` picks its stored entries, in CSC order, from
    the flattened weight stack; ``extra_slots``/``extra_take`` add the
    weights that the fold maps onto an entry already taken (none when
    unfolded).  The pattern holds the matrix only: a right-hand side is
    formed on the grid and gathered by ``nodes``.
    """

    n: int
    first: int
    perm: np.ndarray
    nodes: tuple[np.ndarray, np.ndarray]
    indices: np.ndarray
    indptr: np.ndarray
    take: np.ndarray
    extra_slots: np.ndarray
    extra_take: np.ndarray


def _dissection_order(nix: int, nie: int) -> np.ndarray:
    """Nested-dissection order of the unknowns of an nix x nie interior grid.

    A block is cut by one grid line across its longer side.  One line
    separates the 9-point stencil, so the two halves are ordered
    recursively and the line is eliminated after both.  Blocks of at
    most 8 nodes keep lexicographic order.
    """
    parts = []

    def dissect(block: np.ndarray) -> None:
        if block.size <= 8:
            parts.append(block.ravel())
        elif block.shape[0] >= block.shape[1]:
            m = block.shape[0] // 2
            dissect(block[:m])
            dissect(block[m + 1 :])
            parts.append(block[m])
        else:
            m = block.shape[1] // 2
            dissect(block[:, :m])
            dissect(block[:, m + 1 :])
            parts.append(block[:, m])

    dissect(np.arange(nix * nie).reshape(nix, nie))
    return np.concatenate(parts)


@functools.lru_cache(maxsize=32)
def _pattern(n_x: int, n_eta: int, folded: bool = False) -> _Pattern:
    """The cached ``_Pattern`` of a grid with n_x by n_eta cells.

    Unfolded, the unknowns are all interior nodes and the matrix is A.
    Folded, they are the interior nodes with x >= 0, columns
    (n_x + 1) // 2 to n_x - 1, and a stencil reference to interior column
    i goes to column max(i, n_x - i): the matrix is R A E, the rows of A
    at these nodes applied to their mirror extension.  Its arrays are
    shared by every matrix of that shape, so they are made read-only.
    """
    first = (n_x + 1) // 2 if folded else 1
    nix, nie = n_x - first, n_eta - 1
    n = nix * nie
    n_all = (n_x - 1) * nie  # nodes of the interior block, and weights per offset
    perm = _dissection_order(nix, nie)
    rank = np.empty(n, dtype=np.intp)  # rank[m]: the number of block node m
    rank[perm] = np.arange(n)
    ii, jj = np.meshgrid(np.arange(first, n_x), np.arange(1, n_eta), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    k = (ii - 1) * nie + (jj - 1)  # interior-block index of each unknown's node
    rows, cols, take = [], [], []
    for o, (di, dj) in enumerate(_OFFSETS):
        ni, nj = ii + di, jj + dj
        inside = (ni >= 1) & (ni <= n_x - 1) & (nj >= 1) & (nj <= nie)
        ci = np.maximum(ni, n_x - ni) if folded else ni
        rows.append(rank[inside])
        cols.append(rank[((ci - first) * nie + (nj - 1))[inside]])
        take.append(o * n_all + k[inside])
    rows, cols, take = (np.concatenate(a) for a in (rows, cols, take))
    order = np.lexsort((rows, cols))  # by column, then row: sorted CSC
    rows, cols, take = rows[order], cols[order], take[order]
    repeat = np.zeros(rows.size, dtype=bool)  # a second weight for the entry before
    repeat[1:] = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
    slot = np.cumsum(~repeat) - 1
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols[~repeat], minlength=n), out=indptr[1:])
    pattern = _Pattern(
        n=n,
        first=first,
        perm=perm,
        nodes=(perm // nie + (first - 1), perm % nie),
        indices=rows[~repeat].astype(np.int32),
        indptr=indptr,
        take=take[~repeat].astype(np.int32),
        extra_slots=slot[repeat],
        extra_take=take[repeat],
    )
    for a in (pattern.perm, *pattern.nodes, pattern.indices, pattern.indptr, pattern.take,
              pattern.extra_slots, pattern.extra_take):
        a.flags.writeable = False
    return pattern


def assemble_system(weights: np.ndarray, folded: bool = False) -> sp.csc_matrix:
    """The matrix A = -(mapped operator) on the interior unknowns.

    ``weights`` is the stack of ``_stencil_weights`` of the operator's
    coefficients.  The unknowns are numbered in the nested-dissection
    order of the ``_pattern`` cached with the grid shape, so the matrix
    is P A P^T for the lexicographic A; ``folded`` assembles the fold
    R A E onto x >= 0 instead.  Returns it CSC on the cached sparsity
    pattern with every stencil entry stored (zero weights included).  A
    right-hand side is formed on the grid and gathered by the pattern's
    ``nodes`` (see ``_solve``).
    """
    p = _pattern(weights.shape[1] + 1, weights.shape[2] + 1, folded)
    w = weights.ravel()
    data = w[p.take]
    np.add.at(data, p.extra_slots, w[p.extra_take])
    return sp.csc_matrix((data, p.indices, p.indptr), shape=(p.n, p.n))


def _apply_stencil(w: np.ndarray, field: np.ndarray) -> np.ndarray:
    """The weight stack ``w`` of ``_stencil_weights`` applied to the nodal
    ``field``, its boundary ring included, at the interior nodes: A x for
    the interior values x of a field that is zero on the ring, the ring's
    share of the right-hand side for one that is zero inside."""
    n_x, n_eta = field.shape[0] - 1, field.shape[1] - 1
    out = np.zeros(w.shape[1:])
    for weight, (di, dj) in zip(w, _OFFSETS):
        out += weight * field[1 + di : n_x + di, 1 + dj : n_eta + dj]
    return out


def _scatter_checked(
    weights: np.ndarray, x: np.ndarray, p: _Pattern, rhs: np.ndarray, tol: float
) -> np.ndarray:
    """The nodal solution of a solve on pattern ``p``, checked on the full system.

    ``rhs`` is the right-hand side b of the full system on the interior
    nodes, and ``x`` the solution of the system on ``p`` for
    ``rhs[p.nodes]``.  The unknowns fill the interior of a nodal field w
    that is zero on the boundary ring, and a folded ``p``'s are mirrored
    onto x < 0.  The residual A w - b, the full stencil ``weights``
    applied to w less ``rhs``, must pass ``check_residual`` at ``tol``.
    On a folded pattern its rows at x >= 0 are those of the half system,
    so this one check covers them too; at x < 0 it fails when the
    membrane or the data is not even.  Returns w.
    """
    w = np.zeros((rhs.shape[0] + 2, rhs.shape[1] + 2))
    w[1:-1, 1:-1][p.nodes] = x
    w[1 : p.first] = w[::-1][1 : p.first]  # w[i] = w[n_x - i]; none unfolded
    residual = _apply_stencil(weights, w) - rhs
    check_residual(residual, rhs, tol)
    return w


def _solve(
    weights: np.ndarray,
    rhs_field: np.ndarray,
    dirichlet: np.ndarray,
    tol: float,
    folded: bool = False,
):
    """Solve -(mapped operator) w = rhs with the given boundary values.

    The one path of every potential solve.  The right-hand side b is
    formed once, on the grid: the interior of ``rhs_field`` less the
    share of the boundary ring of ``dirichlet``, the stencil ``weights``
    applied to that ring.  The matrix that ``assemble_system`` makes of
    the weights, on the full pattern or the ``folded`` one (for data
    even in x), is factorized and solved by ``solve_sparse`` for b
    gathered in the pattern's numbering, and the solution scattered onto
    the grid and checked against the same b at relative residual ``tol``
    by ``_scatter_checked``.  Callers hand over the weights rather than
    the coefficients, which are then freed before the factorization.
    Returns (w, lu): the nodal solution, on the ring the Dirichlet data,
    and the factor of the assembled matrix.
    """
    p = _pattern(weights.shape[1] + 1, weights.shape[2] + 1, folded)
    w = dirichlet.astype(float)
    w[1:-1, 1:-1] = 0.0
    rhs = rhs_field[1:-1, 1:-1] - _apply_stencil(weights, w)
    x, lu = solve_sparse(assemble_system(weights, folded), rhs[p.nodes])
    w[1:-1, 1:-1] = _scatter_checked(weights, x, p, rhs, tol)[1:-1, 1:-1]
    return w, lu


def solve_dirichlet(
    coeffs: OperatorCoefficients,
    rhs_field: np.ndarray,
    dirichlet: np.ndarray,
    tol: float = _POTENTIAL_TOL,
) -> np.ndarray:
    """Solve -(mapped operator) w = rhs with the given boundary values.

    Always on the full rectangle, whatever the symmetry of the data.
    """
    return _solve(_stencil_weights(coeffs), rhs_field, dirichlet, tol)[0]


def _eta_field(grid: Grid2D) -> np.ndarray:
    return np.broadcast_to(grid.eta_nodes, grid.shape).copy()


def solve_potential(v: MembraneState, eps: float, grid: Grid2D) -> PotentialField:
    """Transformed potential: operator annihilates phi, boundary data eta.

    A membrane that ``is_even`` is solved on the half rectangle, with half
    the unknowns and under half the fill of the full factor; its field is
    ``folded``.  The field keeps the LU factor and the stencil weights,
    so that a linearization about ``v`` needs no second factorization.
    """
    weights = _stencil_weights(assemble_coefficients(v, eps, grid))
    folded = is_even(v)
    zero, eta = np.zeros(grid.shape), _eta_field(grid)
    phi, lu = _solve(weights, zero, eta, _POTENTIAL_TOL, folded)
    return PotentialField(grid, phi, lu, weights, folded)


def solve_potential_split(v: MembraneState, eps: float, grid: Grid2D) -> PotentialField:
    """Same potential via the homogeneous-data split.

    Solves for the deviation from eta with zero boundary values and the
    operator applied to eta as source, then adds eta back.  Only the
    eta-derivative of eta is nonzero, so that source is the b_eta field.
    """
    coeffs = assemble_coefficients(v, eps, grid)
    capital_phi = solve_dirichlet(coeffs, coeffs.b_eta, np.zeros(grid.shape))
    return PotentialField(grid, capital_phi + _eta_field(grid))


def _top_derivative(phi: np.ndarray, h_eta: float) -> np.ndarray:
    """The one-sided 3-point d/d eta of nodal values ``phi`` at eta = 1."""
    return (3.0 * phi[:, -1] - 4.0 * phi[:, -2] + phi[:, -3]) / (2.0 * h_eta)


def trace_top(field: PotentialField) -> np.ndarray:
    """One-sided 3-point vertical derivative along eta = 1, per x-node.

    Second order (exact on quadratics in eta), so it does not degrade
    the global accuracy of the trace-driven source term.
    """
    return _top_derivative(field.phi, field.grid.h_eta)


def trace_response(field: PotentialField, forcing: np.ndarray) -> np.ndarray:
    """Membrane trace of the solution w of A w = ``forcing``, w = 0 on the boundary.

    A is the operator of ``field``, a field from ``solve_potential``,
    whose LU factor, half or full, solves for w; w is checked on the full
    stencil by ``_scatter_checked`` at the residual tolerance of the
    potential solve.  The half factor of a ``folded`` field solves for
    the mirror extension of w: a ``forcing`` that is not even in x then
    raises NonConvergenceError.  ``forcing`` holds the interior values,
    shape (n_x - 1, n_eta - 1).  Returns the ``trace_top`` of w, shape
    (n_x + 1,).
    """
    grid = field.grid
    p = _pattern(grid.gx.n_cells, grid.n_eta, field.folded)
    x = field.lu.solve(forcing[p.nodes])
    w = _scatter_checked(field.weights, x, p, forcing, _POTENTIAL_TOL)
    return _top_derivative(w, grid.h_eta)


def is_even(v: MembraneState) -> bool:
    """Whether ``solve_potential`` solves the potential of ``v`` on the
    half rectangle: max_i |u_i - u_{n_x - i}| <= ``_EVEN_TOL``."""
    return float(np.max(np.abs(v.u - v.u[::-1]))) <= _EVEN_TOL


def g_eps(v: MembraneState, eps: float, grid: Grid2D) -> np.ndarray:
    """Electrostatic source profile: squared membrane trace of the
    potential times the geometric prefactor (1 + eps^2 v_x^2)/(1+v)^2.

    The potential is that of ``solve_potential``.
    """
    tr = trace_top(solve_potential(v, eps, grid))
    dv = d1_central(v.u, v.grid)
    pre = (1.0 + eps * eps * dv * dv) / (1.0 + v.u) ** 2
    return pre * tr * tr


@dataclass(frozen=True)
class MmsResult:
    n_values: tuple[int, ...]
    h_values: np.ndarray
    field_errors: np.ndarray
    trace_errors: np.ndarray
    field_order: float
    trace_order: float


def _mms_profile(grid: Grid1D) -> MembraneState:
    x = grid.nodes
    return MembraneState(grid, -0.25 * (1.0 - x * x))


def _mms_forcing(eps: float, grid: Grid2D) -> np.ndarray:
    """Analytic -(mapped operator) applied to the manufactured solution
    sin(pi (x+1)/2) sin(pi eta), with coefficients in closed form for
    the parabolic profile -(1 - x^2)/4."""
    x = grid.gx.nodes[:, None]
    eta = grid.eta_nodes[None, :]
    e2 = eps * eps

    w = 0.75 + 0.25 * x * x        # 1 + v
    dv = 0.5 * x
    d2v = 0.5
    a_xeta = -2.0 * e2 * eta * dv / w
    a_etaeta = (1.0 + e2 * eta * eta * dv * dv) / (w * w)
    b_eta = e2 * eta * (2.0 * (dv / w) ** 2 - d2v / w)

    sx = np.sin(np.pi * (x + 1.0) / 2.0)
    cx = np.cos(np.pi * (x + 1.0) / 2.0)
    se = np.sin(np.pi * eta)
    ce = np.cos(np.pi * eta)
    p = np.pi
    phi_xx = -(p / 2.0) ** 2 * sx * se
    phi_xe = (p * p / 2.0) * cx * ce
    phi_ee = -p * p * sx * se
    phi_e = p * sx * ce
    return -(e2 * phi_xx + a_xeta * phi_xe + a_etaeta * phi_ee + b_eta * phi_e)


def mms_convergence(eps: float, n_values=(32, 64, 128)) -> MmsResult:
    """Manufactured-solution refinement study for the mapped solver.

    Solves the homogeneous-boundary problem with the analytic forcing on
    each grid and fits the observed max-norm orders of the field and of
    its membrane trace.
    """
    field_errors, trace_errors, hs = [], [], []
    for n in n_values:
        grid = Grid2D.uniform(n, n)
        v = _mms_profile(grid.gx)
        coeffs = assemble_coefficients(v, eps, grid)
        forcing = _mms_forcing(eps, grid)
        numeric = solve_dirichlet(coeffs, forcing, np.zeros(grid.shape), _MMS_TOL)

        x = grid.gx.nodes[:, None]
        eta = grid.eta_nodes[None, :]
        exact = np.sin(np.pi * (x + 1.0) / 2.0) * np.sin(np.pi * eta)
        field_errors.append(float(np.max(np.abs(numeric - exact))))

        tr = trace_top(PotentialField(grid, numeric))
        exact_tr = -np.pi * np.sin(np.pi * (grid.gx.nodes + 1.0) / 2.0)
        trace_errors.append(float(np.max(np.abs(tr - exact_tr))))
        hs.append(grid.gx.h)

    hs = np.asarray(hs)
    field_errors = np.asarray(field_errors)
    trace_errors = np.asarray(trace_errors)
    field_order = float(np.polyfit(np.log(hs), np.log(field_errors), 1)[0])
    trace_order = float(np.polyfit(np.log(hs), np.log(trace_errors), 1)[0])
    return MmsResult(tuple(n_values), hs, field_errors, trace_errors, field_order, trace_order)

