"""Grids, finite-difference kernels, linear solvers and the damped Newton
loop used by all modules.

Everything here is pure and operates on plain numpy arrays; grid objects
are immutable after construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import MatrixRankWarning, splu

from .errors import (
    DegenerateGeometryError,
    NoSteadyStateError,
    NonConvergenceError,
    SingularSystemError,
)

__all__ = [
    "Grid1D",
    "Grid2D",
    "SparseSystem",
    "grids_match",
    "solve_tridiagonal",
    "factorize",
    "solve_factored",
    "solve_sparse",
    "damped_newton",
    "d1_central",
    "d2_central",
    "fit_exponential_rate",
    "trapezoid_2d",
]


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform node grid on the interval [-1, 1]."""

    n_cells: int
    nodes: np.ndarray
    h: float

    @classmethod
    def uniform(cls, n_cells: int) -> "Grid1D":
        if n_cells < 3:
            raise ValueError(f"need at least 3 cells, got {n_cells}")
        nodes = np.linspace(-1.0, 1.0, n_cells + 1)
        return cls(n_cells=n_cells, nodes=nodes, h=2.0 / n_cells)

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Tensor-product grid on the rectangle [-1, 1] x [0, 1].

    ``gx`` spans the lateral direction, ``eta_nodes`` the vertical one.
    Nodal fields are stored as arrays of shape (gx.n_nodes, n_eta + 1)
    indexed ``[i, j]`` for node (x_i, eta_j).
    """

    gx: Grid1D
    n_eta: int
    eta_nodes: np.ndarray
    h_eta: float

    @classmethod
    def uniform(cls, n_x: int, n_eta: int) -> "Grid2D":
        if n_eta < 3:
            raise ValueError(f"need at least 3 vertical cells, got {n_eta}")
        return cls(
            gx=Grid1D.uniform(n_x),
            n_eta=n_eta,
            eta_nodes=np.linspace(0.0, 1.0, n_eta + 1),
            h_eta=1.0 / n_eta,
        )

    @classmethod
    def square(cls, gx: Grid1D) -> "Grid2D":
        """Rectangle grid with as many vertical cells as ``gx`` has lateral ones."""
        return cls(
            gx=gx,
            n_eta=gx.n_cells,
            eta_nodes=np.linspace(0.0, 1.0, gx.n_cells + 1),
            h_eta=1.0 / gx.n_cells,
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.gx.n_nodes, self.n_eta + 1)

    @property
    def n_interior(self) -> int:
        return (self.gx.n_cells - 1) * (self.n_eta - 1)


def grids_match(a: Grid1D, b: Grid1D) -> bool:
    return a.n_cells == b.n_cells and np.array_equal(a.nodes, b.nodes)


@dataclass(frozen=True, eq=False)
class SparseSystem:
    """A sparse linear system A x = rhs with a solve tolerance.

    The potential solver assembles ``matrix`` column-compressed (CSC), the
    format SuperLU factorizes; other sparse formats are converted first.
    """

    matrix: sp.spmatrix
    rhs: np.ndarray
    tol: float = 1e-10


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Thomas algorithm for a tridiagonal system.

    ``lower``/``upper`` may be scalars (broadcast) or arrays of length
    n-1; ``diag`` and ``rhs`` have length n.  Intended for strictly
    diagonally dominant or SPD matrices; no pivoting is performed.
    """
    diag = np.asarray(diag, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.size
    if rhs.size != n:
        raise ValueError(f"rhs length {rhs.size} != diagonal length {n}")
    if np.isscalar(lower) or np.ndim(lower) == 0:
        lower = np.full(n - 1, float(lower))
    else:
        lower = np.asarray(lower, dtype=float)
    if np.isscalar(upper) or np.ndim(upper) == 0:
        upper = np.full(n - 1, float(upper))
    else:
        upper = np.asarray(upper, dtype=float)
    if lower.size != n - 1 or upper.size != n - 1:
        raise ValueError("off-diagonals must have length n-1")

    cp = np.empty(n - 1)
    x = np.empty(n)
    piv = diag[0]
    if piv == 0.0:
        raise SingularSystemError("zero pivot at row 0")
    x[0] = rhs[0] / piv
    for i in range(1, n):
        cp[i - 1] = upper[i - 1] / piv
        piv = diag[i] - lower[i - 1] * cp[i - 1]
        if piv == 0.0:
            raise SingularSystemError(f"zero pivot at row {i}")
        x[i] = (rhs[i] - lower[i - 1] * x[i - 1]) / piv
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


def factorize(matrix: sp.spmatrix):
    """Sparse LU factor of ``matrix`` (a SuperLU object).

    Raises SingularSystemError on a (numerically) singular matrix.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            # the stencil pattern is structurally symmetric, so the
            # AT+A ordering roughly halves the LU fill of the default;
            # tocsc() is a no-op on the CSC matrices of assemble_system
            return splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except (RuntimeError, MatrixRankWarning) as exc:
            raise SingularSystemError(f"singular system: {exc}") from exc


def solve_factored(lu, system: SparseSystem) -> np.ndarray:
    """Solve ``system`` with the factor ``lu`` of its matrix, checking the residual.

    ``system.rhs`` may be a vector or a matrix of right-hand sides, one
    per column.  Raises SingularSystemError on a non-finite solution and
    NonConvergenceError if the residual of any column exceeds
    ``tol * ||rhs column||_2``.
    """
    b = system.rhs
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("singular system: non-finite solution")
    residual = np.atleast_1d(np.linalg.norm(system.matrix @ x - b, axis=0))
    bound = system.tol * np.atleast_1d(np.linalg.norm(b, axis=0))
    k = int(np.argmax(residual - bound))
    if residual[k] > bound[k] + 1e-300:
        raise NonConvergenceError(
            f"sparse solve residual {residual[k]:.3e} exceeds {bound[k]:.3e}",
            residual=float(residual[k]),
        )
    return x


def solve_sparse(system: SparseSystem):
    """Direct sparse solve of ``system`` with a residual check.

    Returns (x, lu), the LU factor serving further solves with the same
    matrix.  Deterministic for fixed inputs.  Raises SingularSystemError
    on a (numerically) singular matrix and NonConvergenceError if the
    residual exceeds ``tol * ||rhs||_2``.
    """
    lu = factorize(system.matrix)
    return solve_factored(lu, system), lu


def damped_newton(residual, newton_step, u, tol, max_iter, floor, label):
    """Damped Newton iteration for interior deflection values ``u``.

    ``residual(u)`` returns the residual vector and ``newton_step(u, r)``
    the full Newton step from ``u`` with residual ``r``.  Each step is
    halved up to eight times until the trial point keeps min(1+u) above
    ``floor`` and lowers the max-norm residual.  Returns the first
    iterate with max-norm residual <= ``tol`` and the number of steps
    taken.  Raises DegenerateGeometryError when the guess, or every
    trial point of a line search, lies at or below the floor, and
    NoSteadyStateError when a line search stalls or ``max_iter`` steps
    do not reach ``tol``.  ``label`` opens every error message.
    """
    if float(np.min(1.0 + u)) <= floor:
        raise DegenerateGeometryError(f"{label}: initial guess already below the touchdown floor")
    r = residual(u)
    for it in range(max_iter + 1):
        rnorm = float(np.max(np.abs(r)))
        if rnorm <= tol:
            return u, it
        if it == max_iter:
            break
        step = newton_step(u, r)

        accepted = False
        any_admissible = False
        alpha = 1.0
        for _ in range(9):  # full step plus up to 8 halvings
            u_try = u + alpha * step
            if float(np.min(1.0 + u_try)) > floor:
                any_admissible = True
                r_try = residual(u_try)
                if float(np.max(np.abs(r_try))) < rnorm:
                    u, r = u_try, r_try
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            if not any_admissible:
                raise DegenerateGeometryError(f"{label}: iterates touch down")
            raise NoSteadyStateError(
                f"{label}: stalled (residual {rnorm:.3e})", residual=rnorm
            )
    raise NoSteadyStateError(
        f"{label}: no steady state after {max_iter} iterations (residual {rnorm:.3e})",
        residual=rnorm,
    )


def _check_length(f: np.ndarray, grid: Grid1D) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.size != grid.n_nodes:
        raise ValueError(f"array length {f.size} != node count {grid.n_nodes}")
    return f


def d1_central(f, grid: Grid1D) -> np.ndarray:
    """First derivative: 2nd-order central inside, 3-point one-sided at the ends."""
    f = _check_length(f, grid)
    h = grid.h
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    # difference form of (-3 f0 + 4 f1 - f2): exact zero on constants
    out[0] = (4.0 * (f[1] - f[0]) - (f[2] - f[0])) / (2.0 * h)
    out[-1] = -(4.0 * (f[-2] - f[-1]) - (f[-3] - f[-1])) / (2.0 * h)
    return out


def d2_central(f, grid: Grid1D) -> np.ndarray:
    """Second derivative: 2nd-order central inside, 4-point one-sided at the ends.

    The endpoint stencil (2, -5, 4, -1)/h^2 keeps second order and is
    exact on quadratics, like the interior formula.
    """
    f = _check_length(f, grid)
    h2 = grid.h * grid.h
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h2
    # (2, -5, 4, -1) written as twice the first second-difference minus
    # the next one: exact zero on constants
    out[0] = (2.0 * (f[0] - 2.0 * f[1] + f[2]) - (f[1] - 2.0 * f[2] + f[3])) / h2
    out[-1] = (2.0 * (f[-1] - 2.0 * f[-2] + f[-3]) - (f[-2] - 2.0 * f[-3] + f[-4])) / h2
    return out


def fit_exponential_rate(times, values) -> tuple[float, float]:
    """Least-squares rate of exponential decay/growth.

    Fits log(values) = rate * t + c and returns (rate, r_squared).
    For constant data r^2 is undefined and reported as 0.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size != v.size:
        raise ValueError("times and values must have equal length")
    if v.size < 5:
        raise ValueError(f"need at least 5 samples, got {v.size}")
    if np.any(v <= 0.0):
        raise ValueError("values must be strictly positive")
    y = np.log(v)
    rate, intercept = np.polyfit(t, y, 1)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0, 0.0
    ss_res = float(np.sum((y - (rate * t + intercept)) ** 2))
    return float(rate), 1.0 - ss_res / ss_tot


def trapezoid_2d(field: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Trapezoid-rule integral of a nodal field over a tensor grid."""
    return float(np.trapezoid(np.trapezoid(field, y, axis=1), x))
