"""Potential solves on the fixed rectangle.

Discretizes the mapped operator with a 9-point second-order stencil:
central differences for the pure second derivatives and the vertical
drift, a 4-corner cross stencil for the mixed derivative.  Dirichlet
data is eliminated into the right-hand side, so the unknowns are the
interior nodes only.
"""

from __future__ import annotations

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
    "dump_potential_csv",
]


@dataclass(frozen=True, eq=False)
class PotentialField:
    """Nodal values of the transformed potential on the rectangle."""

    grid: Grid2D
    phi: np.ndarray

    def max_principle_violation(self) -> float:
        """How far the field leaves [0, 1] (0 when the bounds hold)."""
        return float(max(-np.min(self.phi), np.max(self.phi) - 1.0, 0.0))


@dataclass(frozen=True, eq=False)
class TraceProfile:
    """Vertical derivative of the potential along the membrane edge eta = 1."""

    grid: Grid1D
    dphi_top: np.ndarray


def _stencil_weights(coeffs: OperatorCoefficients):
    """Interior-node weights of A = -(mapped operator), per offset.

    Returns a dict {(di, dj): weight array over interior nodes}.
    """
    g = coeffs.grid
    hx, he = g.gx.h, g.h_eta
    sl = (slice(1, -1), slice(1, -1))
    c_xx = coeffs.a_xx[sl] / (hx * hx)
    c_ee = coeffs.a_etaeta[sl] / (he * he)
    c_e = coeffs.b_eta[sl] / (2.0 * he)
    c_xe = coeffs.a_xeta[sl] / (4.0 * hx * he)
    return {
        (0, 0): 2.0 * c_xx + 2.0 * c_ee,
        (-1, 0): -c_xx,
        (1, 0): -c_xx,
        (0, -1): -c_ee + c_e,
        (0, 1): -c_ee - c_e,
        (1, 1): -c_xe,
        (-1, -1): -c_xe,
        (1, -1): c_xe,
        (-1, 1): c_xe,
    }


def apply_operator(coeffs: OperatorCoefficients, phi: np.ndarray) -> np.ndarray:
    """-(mapped operator) applied to the full nodal field ``phi``.

    Returns the interior-node values, shape (n_x - 1, n_eta - 1); the
    boundary ring of ``phi`` enters through the stencil like any other
    node, so at the potential this is A phi_int - b of ``assemble_system``.
    """
    nx, ne = coeffs.grid.shape
    out = np.zeros((nx - 2, ne - 2))
    for (di, dj), w in _stencil_weights(coeffs).items():
        out += w * phi[1 + di : nx - 1 + di, 1 + dj : ne - 1 + dj]
    return out


def assemble_system(
    coeffs: OperatorCoefficients,
    rhs_field: np.ndarray,
    dirichlet: np.ndarray,
    tol: float = 1e-10,
) -> SparseSystem:
    """Assemble A x = b for A = -(mapped operator) with Dirichlet data.

    ``rhs_field`` and ``dirichlet`` are full nodal fields; only the
    interior of the former and the boundary ring of the latter are used.
    """
    g = coeffs.grid
    nx, ne = g.shape
    nix, nie = nx - 2, ne - 2
    ii, jj = np.meshgrid(np.arange(1, nx - 1), np.arange(1, ne - 1), indexing="ij")
    k = (ii - 1) * nie + (jj - 1)

    rhs = rhs_field[1:-1, 1:-1].astype(float).copy()
    rows, cols, vals = [], [], []
    for (di, dj), w in _stencil_weights(coeffs).items():
        if di == 0 and dj == 0:
            rows.append(k.ravel())
            cols.append(k.ravel())
            vals.append(w.ravel())
            continue
        ni, nj = ii + di, jj + dj
        interior = (ni >= 1) & (ni <= nx - 2) & (nj >= 1) & (nj <= ne - 2)
        rows.append(k[interior])
        cols.append(((ni - 1) * nie + (nj - 1))[interior])
        vals.append(w[interior])
        bnd = ~interior
        np.subtract.at(rhs, (ii[bnd] - 1, jj[bnd] - 1), w[bnd] * dirichlet[ni[bnd], nj[bnd]])

    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nix * nie, nix * nie),
    ).tocsr()
    return SparseSystem(matrix=matrix, rhs=rhs.ravel(), tol=tol)


def solve_dirichlet(
    coeffs: OperatorCoefficients,
    rhs_field: np.ndarray,
    dirichlet: np.ndarray,
    tol: float = 1e-10,
) -> np.ndarray:
    """Solve -(mapped operator) w = rhs with the given boundary values."""
    system = assemble_system(coeffs, rhs_field, dirichlet, tol)
    x = solve_sparse(system)
    full = dirichlet.astype(float).copy()
    full[1:-1, 1:-1] = x.reshape(coeffs.grid.gx.n_nodes - 2, coeffs.grid.n_eta - 1)
    return full


def _eta_field(grid: Grid2D) -> np.ndarray:
    return np.broadcast_to(grid.eta_nodes, grid.shape).copy()


def solve_potential(
    v: MembraneState, eps: float, grid: Grid2D, tol: float = 1e-10
) -> PotentialField:
    """Transformed potential: operator annihilates phi, boundary data eta."""
    coeffs = assemble_coefficients(v, eps, grid)
    zeros = np.zeros(grid.shape)
    phi = solve_dirichlet(coeffs, zeros, _eta_field(grid), tol)
    return PotentialField(grid, phi)


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
    weights = _stencil_weights(coeffs)
    return all(
        np.max(w) <= tol for offset, w in weights.items() if offset != (0, 0)
    )


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


def dump_potential_csv(field: PotentialField, path) -> None:
    """Debug dump: one row per eta level, one column per x node."""
    grid = field.grid
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("eta," + ",".join(repr(float(x)) for x in grid.gx.nodes) + "\n")
        for j, eta in enumerate(grid.eta_nodes):
            row = ",".join(repr(float(val)) for val in field.phi[:, j])
            fh.write(f"{eta!r},{row}\n")
