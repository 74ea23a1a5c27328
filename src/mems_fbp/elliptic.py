"""Potential solves on the fixed rectangle.

Discretizes the mapped operator with a 9-point second-order stencil:
central differences for the pure second derivatives and the vertical
drift, a 4-corner cross stencil for the mixed derivative.  Dirichlet
data is eliminated into the right-hand side, so the unknowns are the
interior nodes only.  They are numbered in a nested-dissection order,
cached per grid shape, so the assembled matrix is factorized as it
stands; the solves here scatter each solution back to the grid, and no
other module sees that numbering.  The potential of an even membrane
can be solved on the half rectangle x >= 0 (``potential_values``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GridTooCoarseError
from .numerics import (
    Grid1D,
    Grid2D,
    SparseSystem,
    check_residual,
    d1_central,
    factorize,
    solve_factored,
    solve_sparse,
)
from .transform import MembraneState, OperatorCoefficients, assemble_coefficients

__all__ = [
    "PotentialField",
    "assemble_system",
    "solve_dirichlet",
    "solve_potential",
    "solve_potential_split",
    "is_even",
    "potential_values",
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

    A field from ``solve_potential`` also carries the sparse system of
    its interior values, in the numbering of ``assemble_system``, and the
    system's LU factor; other fields do not.
    """

    grid: Grid2D
    phi: np.ndarray
    system: SparseSystem | None = None
    lu: object | None = None


# Relative residual tolerance of the potential solves, and of the
# manufactured-solution solves of ``mms_convergence``.
_POTENTIAL_TOL = 1e-10
_MMS_TOL = 1e-12

# Largest max_i |u_i - u_{n_x - i}| of a membrane whose potential
# ``potential_values`` solves on the half rectangle.  The mirrored
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
# runs up to touchdown).
_EVEN_TOL = 1e-14


# Stencil offsets (di, dj) in the order of the weight stack of
# _stencil_weights.  assemble_system subtracts the Dirichlet ring from
# the right-hand side in this order, which fixes its rounding.
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
    unfolded).  ``ring_rows``, ``ring_take`` and ``ring_nodes`` list the
    couplings to the Dirichlet ring in offset order: unknown, weight,
    ring node.
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
    ring_rows: np.ndarray
    ring_take: np.ndarray
    ring_nodes: tuple[np.ndarray, np.ndarray]


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
    ring_rows, ring_take, ring_i, ring_j = [], [], [], []
    for o, (di, dj) in enumerate(_OFFSETS):
        ni, nj = ii + di, jj + dj
        inside = (ni >= 1) & (ni <= n_x - 1) & (nj >= 1) & (nj <= nie)
        ci = np.maximum(ni, n_x - ni) if folded else ni
        rows.append(rank[inside])
        cols.append(rank[((ci - first) * nie + (nj - 1))[inside]])
        take.append(o * n_all + k[inside])
        ring = ~inside
        ring_rows.append(rank[ring])
        ring_take.append(o * n_all + k[ring])
        ring_i.append(ni[ring])
        ring_j.append(nj[ring])
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
        ring_rows=np.concatenate(ring_rows),
        ring_take=np.concatenate(ring_take),
        ring_nodes=(np.concatenate(ring_i), np.concatenate(ring_j)),
    )
    for a in (pattern.perm, *pattern.nodes, pattern.indices, pattern.indptr, pattern.take,
              pattern.extra_slots, pattern.extra_take, pattern.ring_rows, pattern.ring_take,
              *pattern.ring_nodes):
        a.flags.writeable = False
    return pattern


def assemble_system(
    coeffs: OperatorCoefficients,
    rhs_field: np.ndarray,
    dirichlet: np.ndarray,
    tol: float = 1e-10,
) -> SparseSystem:
    """Assemble A x = b for A = -(mapped operator) with Dirichlet data.

    ``rhs_field`` and ``dirichlet`` are full nodal fields; only the
    interior of the former and the boundary ring of the latter are used.
    The unknowns are numbered in the nested-dissection order cached with
    the grid shape, so the system is P A P^T x = P b for the lexicographic
    A and b.  The matrix is CSC on the cached sparsity pattern, with every
    stencil entry stored (zero weights included).
    """
    g = coeffs.grid
    w = _stencil_weights(coeffs).ravel()
    return _assemble(_pattern(g.gx.n_cells, g.n_eta), w, rhs_field, dirichlet, tol)


def _assemble(
    p: _Pattern, w: np.ndarray, rhs_field: np.ndarray, dirichlet: np.ndarray, tol: float
) -> SparseSystem:
    """The system of pattern ``p`` from the flattened weight stack ``w``."""
    rhs = rhs_field[1:-1, 1:-1][p.nodes].astype(float, copy=False)
    np.subtract.at(rhs, p.ring_rows, w[p.ring_take] * dirichlet[p.ring_nodes])
    data = w[p.take]
    np.add.at(data, p.extra_slots, w[p.extra_take])
    matrix = sp.csc_matrix((data, p.indices, p.indptr), shape=(p.n, p.n))
    return SparseSystem(matrix=matrix, rhs=rhs, tol=tol)


def solve_dirichlet(
    coeffs: OperatorCoefficients,
    rhs_field: np.ndarray,
    dirichlet: np.ndarray,
    tol: float = 1e-10,
) -> np.ndarray:
    """Solve -(mapped operator) w = rhs with the given boundary values."""
    system = assemble_system(coeffs, rhs_field, dirichlet, tol)
    x, _ = solve_sparse(system)
    g = coeffs.grid
    full = dirichlet.astype(float)
    full[1:-1, 1:-1][_pattern(g.gx.n_cells, g.n_eta).nodes] = x
    return full


def _eta_field(grid: Grid2D) -> np.ndarray:
    return np.broadcast_to(grid.eta_nodes, grid.shape).copy()


def solve_potential(v: MembraneState, eps: float, grid: Grid2D) -> PotentialField:
    """Transformed potential: operator annihilates phi, boundary data eta.

    The field keeps the assembled system and its LU factor, so that a
    linearization about ``v`` needs no second factorization.
    """
    coeffs = assemble_coefficients(v, eps, grid)
    phi = _eta_field(grid)
    system = assemble_system(coeffs, np.zeros(grid.shape), phi, _POTENTIAL_TOL)
    x, lu = solve_sparse(system)
    phi[1:-1, 1:-1][_pattern(grid.gx.n_cells, grid.n_eta).nodes] = x
    return PotentialField(grid, phi, system, lu)


def solve_potential_split(v: MembraneState, eps: float, grid: Grid2D) -> PotentialField:
    """Same potential via the homogeneous-data split.

    Solves for the deviation from eta with zero boundary values and the
    operator applied to eta as source, then adds eta back.  Only the
    eta-derivative of eta is nonzero, so that source is the b_eta field.
    """
    coeffs = assemble_coefficients(v, eps, grid)
    capital_phi = solve_dirichlet(coeffs, coeffs.b_eta, np.zeros(grid.shape), _POTENTIAL_TOL)
    return PotentialField(grid, capital_phi + _eta_field(grid))


def _top_derivative(phi: np.ndarray, h_eta: float) -> np.ndarray:
    """The one-sided 3-point d/d eta of nodal values ``phi`` at eta = 1."""
    return (3.0 * phi[:, -1] - 4.0 * phi[:, -2] + phi[:, -3]) / (2.0 * h_eta)


def trace_top(field: PotentialField) -> np.ndarray:
    """One-sided 3-point vertical derivative along eta = 1, per x-node.

    Second order (exact on quadratics in eta), so it does not degrade
    the global accuracy of the trace-driven source term.
    """
    grid = field.grid
    if grid.n_eta < 3:
        raise GridTooCoarseError(
            f"trace extraction needs at least 3 vertical cells, got {grid.n_eta}"
        )
    return _top_derivative(field.phi, grid.h_eta)


def trace_response(field: PotentialField, forcing: np.ndarray) -> np.ndarray:
    """Membrane traces of the solutions w of A w = ``forcing``, w = 0 on the boundary.

    A is the operator of ``field``, a field from ``solve_potential``, and
    its LU factor serves every column.  ``forcing`` holds interior
    values, shape (n_x - 1, n_eta - 1), or (n_x - 1, n_eta - 1, k) for k
    columns solved in one call.  Returns the ``trace_top`` of each w,
    shape (n_x + 1,) or (n_x + 1, k).
    """
    grid = field.grid
    nodes = _pattern(grid.gx.n_cells, grid.n_eta).nodes
    system = SparseSystem(field.system.matrix, forcing[nodes], field.system.tol)
    w = np.zeros(grid.shape + forcing.shape[2:])
    w[1:-1, 1:-1][nodes] = solve_factored(field.lu, system)
    return _top_derivative(w, grid.h_eta)


def _apply_stencil(w: np.ndarray, field: np.ndarray) -> np.ndarray:
    """The weight stack ``w`` of ``_stencil_weights`` applied to the nodal
    ``field``, its boundary ring included, at the interior nodes: A x - b
    for the interior values x and the Dirichlet data of ``field`` (no
    source)."""
    n_x, n_eta = field.shape[0] - 1, field.shape[1] - 1
    out = np.zeros(w.shape[1:])
    for weight, (di, dj) in zip(w, _OFFSETS):
        out += weight * field[1 + di : n_x + di, 1 + dj : n_eta + dj]
    return out


def _folded_potential(v: MembraneState, eps: float, grid: Grid2D) -> np.ndarray:
    """Nodal potential of an even membrane, solved on the half rectangle.

    The fold R A E of the potential operator (see ``_pattern``) is
    factorized and solved for the nodes with x >= 0, and the solution is
    mirrored onto x < 0.  The result is exactly even and is checked
    against the full system A phi = b, applied as a stencil, with the
    residual test of ``solve_potential``.
    """
    n_x, n_eta = grid.gx.n_cells, grid.n_eta
    w = _stencil_weights(assemble_coefficients(v, eps, grid))
    ring = _eta_field(grid)  # the Dirichlet data, and zero inside: no source
    ring[1:-1, 1:-1] = 0.0
    half = _pattern(n_x, n_eta, folded=True)
    system = _assemble(half, w.ravel(), ring, ring, _POTENTIAL_TOL)
    phi = ring.copy()
    phi[1:-1, 1:-1][half.nodes] = factorize(system).solve(system.rhs)
    phi[: half.first] = phi[::-1][: half.first]  # phi[i] = phi[n_x - i]
    residual, rhs = _apply_stencil(w, phi), -_apply_stencil(w, ring)
    check_residual(residual.ravel(), rhs.ravel(), _POTENTIAL_TOL)
    return phi


def is_even(v: MembraneState) -> bool:
    """Whether ``potential_values`` solves the potential of ``v`` on the
    half rectangle: max_i |u_i - u_{n_x - i}| <= ``_EVEN_TOL``."""
    return float(np.max(np.abs(v.u - v.u[::-1]))) <= _EVEN_TOL


def potential_values(v: MembraneState, eps: float, grid: Grid2D) -> np.ndarray:
    """Nodal values of the potential of ``solve_potential``.

    A membrane that ``is_even`` is solved on the half rectangle by
    ``_folded_potential``, with half the unknowns and under half the fill
    of the full factor; any other by ``solve_potential``.
    """
    if is_even(v):
        return _folded_potential(v, eps, grid)
    return solve_potential(v, eps, grid).phi


def g_eps(v: MembraneState, eps: float, grid: Grid2D) -> np.ndarray:
    """Electrostatic source profile: squared membrane trace of the
    potential times the geometric prefactor (1 + eps^2 v_x^2)/(1+v)^2.

    The potential is that of ``potential_values``.
    """
    tr = trace_top(PotentialField(grid, potential_values(v, eps, grid)))
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

