"""Potential solves on the fixed rectangle.

Discretizes the mapped operator with a 9-point second-order stencil:
central differences for the pure second derivatives and the vertical
drift, a 4-corner cross stencil for the mixed derivative.  Dirichlet
data is eliminated into the right-hand side, so the unknowns are the
interior nodes only.
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
    d1_central,
    solve_sparse,
)
from .transform import (
    MembraneState,
    OperatorCoefficients,
    assemble_coefficients,
    source_f_v,
)

__all__ = [
    "PotentialField",
    "TraceProfile",
    "apply_operator",
    "assemble_system",
    "solve_dirichlet",
    "solve_potential",
    "solve_potential_split",
    "trace_top",
    "g_eps",
    "stencil_is_positive_type",
    "mms_convergence",
    "MmsResult",
]


@dataclass(frozen=True, eq=False)
class PotentialField:
    """Nodal values of the transformed potential on the rectangle.

    A field from ``solve_potential`` also carries the sparse system of
    its interior values and the system's LU factor; other fields do not.
    """

    grid: Grid2D
    phi: np.ndarray
    system: SparseSystem | None = None
    lu: object | None = None

    def max_principle_violation(self) -> float:
        """How far the field leaves [0, 1] (0 when the bounds hold)."""
        return float(max(-np.min(self.phi), np.max(self.phi) - 1.0, 0.0))


@dataclass(frozen=True, eq=False)
class TraceProfile:
    """Vertical derivative of the potential along the membrane edge eta = 1."""

    grid: Grid1D
    dphi_top: np.ndarray


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


def apply_operator(coeffs: OperatorCoefficients, phi: np.ndarray) -> np.ndarray:
    """-(mapped operator) applied to the full nodal field ``phi``.

    Returns the interior-node values, shape (n_x - 1, n_eta - 1); the
    boundary ring of ``phi`` enters through the stencil like any other
    node, so at the potential this is A phi_int - b of ``assemble_system``.
    """
    nx, ne = coeffs.grid.shape
    out = np.zeros((nx - 2, ne - 2))
    for (di, dj), w in zip(_OFFSETS, _stencil_weights(coeffs)):
        out += w * phi[1 + di : nx - 1 + di, 1 + dj : ne - 1 + dj]
    return out


@dataclass(frozen=True, eq=False)
class _Pattern:
    """Index maps of the 9-point operator on one grid shape.

    ``indices``/``indptr`` are the CSC structure of A and ``take`` picks
    its stored entries, in CSC order, from the flattened weight stack.
    ``ring_rows``, ``ring_take`` and ``ring_nodes`` list the couplings to
    the Dirichlet ring in offset order: interior row, weight, ring node.
    """

    n: int
    indices: np.ndarray
    indptr: np.ndarray
    take: np.ndarray
    ring_rows: np.ndarray
    ring_take: np.ndarray
    ring_nodes: tuple[np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=16)
def _pattern(n_x: int, n_eta: int) -> _Pattern:
    """The cached ``_Pattern`` of a grid with n_x by n_eta cells.

    Its arrays are shared by every matrix of that shape, so they are
    made read-only.
    """
    nix, nie = n_x - 1, n_eta - 1
    n = nix * nie
    ii, jj = np.meshgrid(np.arange(1, n_x), np.arange(1, n_eta), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    k = np.arange(n)
    rows, cols, take = [], [], []
    ring_rows, ring_take, ring_i, ring_j = [], [], [], []
    for o, (di, dj) in enumerate(_OFFSETS):
        ni, nj = ii + di, jj + dj
        inside = (ni >= 1) & (ni <= nix) & (nj >= 1) & (nj <= nie)
        rows.append(k[inside])
        cols.append(((ni - 1) * nie + (nj - 1))[inside])
        take.append(o * n + k[inside])
        ring = ~inside
        ring_rows.append(k[ring])
        ring_take.append(o * n + k[ring])
        ring_i.append(ni[ring])
        ring_j.append(nj[ring])
    rows, cols, take = (np.concatenate(a) for a in (rows, cols, take))
    order = np.lexsort((rows, cols))  # by column, then row: sorted CSC
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    pattern = _Pattern(
        n=n,
        indices=rows[order].astype(np.int32),
        indptr=indptr,
        take=take[order],
        ring_rows=np.concatenate(ring_rows),
        ring_take=np.concatenate(ring_take),
        ring_nodes=(np.concatenate(ring_i), np.concatenate(ring_j)),
    )
    for a in (pattern.indices, pattern.indptr, pattern.take, pattern.ring_rows,
              pattern.ring_take, *pattern.ring_nodes):
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
    The matrix is CSC on the cached sparsity pattern of the grid shape,
    with every stencil entry stored (zero weights included).
    """
    g = coeffs.grid
    p = _pattern(g.gx.n_cells, g.n_eta)
    w = _stencil_weights(coeffs).ravel()
    rhs = rhs_field[1:-1, 1:-1].astype(float).ravel()
    np.subtract.at(rhs, p.ring_rows, w[p.ring_take] * dirichlet[p.ring_nodes])
    matrix = sp.csc_matrix((w[p.take], p.indices, p.indptr), shape=(p.n, p.n))
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
    full = dirichlet.astype(float)
    full[1:-1, 1:-1] = x.reshape(coeffs.grid.gx.n_nodes - 2, coeffs.grid.n_eta - 1)
    return full


def _eta_field(grid: Grid2D) -> np.ndarray:
    return np.broadcast_to(grid.eta_nodes, grid.shape).copy()


def solve_potential(
    v: MembraneState, eps: float, grid: Grid2D, tol: float = 1e-10
) -> PotentialField:
    """Transformed potential: operator annihilates phi, boundary data eta.

    The field keeps the assembled system and its LU factor, so that a
    linearization about ``v`` needs no second factorization.
    """
    coeffs = assemble_coefficients(v, eps, grid)
    phi = _eta_field(grid)
    system = assemble_system(coeffs, np.zeros(grid.shape), phi, tol)
    x, lu = solve_sparse(system)
    phi[1:-1, 1:-1] = x.reshape(grid.gx.n_nodes - 2, grid.n_eta - 1)
    return PotentialField(grid, phi, system, lu)


def solve_potential_split(
    v: MembraneState, eps: float, grid: Grid2D, tol: float = 1e-10
) -> PotentialField:
    """Same potential via the homogeneous-data split.

    Solves for the deviation from eta with zero boundary values and the
    operator applied to eta as source, then adds eta back.
    """
    coeffs = assemble_coefficients(v, eps, grid)
    f = source_f_v(v, eps, grid)
    capital_phi = solve_dirichlet(coeffs, f, np.zeros(grid.shape), tol)
    return PotentialField(grid, capital_phi + _eta_field(grid))


def trace_top(field: PotentialField) -> TraceProfile:
    """One-sided 3-point vertical derivative along eta = 1, per x-node.

    Second order (exact on quadratics in eta), so it does not degrade
    the global accuracy of the trace-driven source term.
    """
    grid = field.grid
    if grid.n_eta < 3:
        raise GridTooCoarseError(
            f"trace extraction needs at least 3 vertical cells, got {grid.n_eta}"
        )
    phi = field.phi
    d = (3.0 * phi[:, -1] - 4.0 * phi[:, -2] + phi[:, -3]) / (2.0 * grid.h_eta)
    return TraceProfile(grid.gx, d)


def g_eps(v: MembraneState, eps: float, grid: Grid2D, tol: float = 1e-10) -> np.ndarray:
    """Electrostatic source profile: squared membrane trace of the
    potential times the geometric prefactor (1 + eps^2 v_x^2)/(1+v)^2."""
    field = solve_potential(v, eps, grid, tol)
    tr = trace_top(field).dphi_top
    dv = d1_central(v.u, v.grid)
    pre = (1.0 + eps * eps * dv * dv) / (1.0 + v.u) ** 2
    return pre * tr * tr


def stencil_is_positive_type(coeffs: OperatorCoefficients, tol: float = 1e-14) -> bool:
    """True when every off-diagonal stencil weight is nonpositive.

    Only then does the discrete solution inherit the maximum principle;
    the cross stencil breaks this whenever the membrane has slope.
    """
    return bool(np.max(_stencil_weights(coeffs)[1:]) <= tol)


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


def mms_convergence(eps: float, n_values=(32, 64, 128), tol: float = 1e-12) -> MmsResult:
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
        numeric = solve_dirichlet(coeffs, forcing, np.zeros(grid.shape), tol)

        x = grid.gx.nodes[:, None]
        eta = grid.eta_nodes[None, :]
        exact = np.sin(np.pi * (x + 1.0) / 2.0) * np.sin(np.pi * eta)
        field_errors.append(float(np.max(np.abs(numeric - exact))))

        tr = trace_top(PotentialField(grid, numeric)).dphi_top
        exact_tr = -np.pi * np.sin(np.pi * (grid.gx.nodes + 1.0) / 2.0)
        trace_errors.append(float(np.max(np.abs(tr - exact_tr))))
        hs.append(grid.gx.h)

    hs = np.asarray(hs)
    field_errors = np.asarray(field_errors)
    trace_errors = np.asarray(trace_errors)
    field_order = float(np.polyfit(np.log(hs), np.log(field_errors), 1)[0])
    trace_order = float(np.polyfit(np.log(hs), np.log(trace_errors), 1)[0])
    return MmsResult(tuple(n_values), hs, field_errors, trace_errors, field_order, trace_order)

