"""Grids, linear solvers, a rate fit and a 2-D quadrature used by all
modules; the differences of a membrane are its state's (``transform``),
and the Newton loop of the steady problem is ``steady.damped_newton``.

Everything here is pure and operates on plain numpy arrays; grid objects
are immutable after construction.  The sparse direct solve
(``solve_sparse``: factorize and solve) eliminates the unknowns in the
order they are numbered.  Choosing that numbering, and checking the
residual (``check_residual``) on the system the solve stands for, are
the caller's part: ``elliptic`` assembles the matrix in
nested-dissection order, forms each right-hand side on the grid, routes
every potential solve through this one function and checks each
solution on the full 9-point stencil against that same right-hand side.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.sparse.linalg import splu

from .errors import NonConvergenceError, SingularSystemError

__all__ = [
    "Grid1D",
    "Grid2D",
    "solve_tridiagonal",
    "check_residual",
    "solve_sparse",
    "gmres",
    "fit_exponential_rate",
    "trapezoid_2d",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform node grid of ``n_cells`` cells on the interval [-1, 1].

    The nodes and the spacing follow from the cell count, so two grids
    are equal exactly when their counts are.
    """

    n_cells: int

    def __post_init__(self):
        if self.n_cells < 3:
            raise ValueError(f"need at least 3 cells, got {self.n_cells}")

    @classmethod
    def uniform(cls, n_cells: int) -> "Grid1D":
        return cls(n_cells)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.n_cells + 1)

    @property
    def h(self) -> float:
        return 2.0 / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1


@dataclass(frozen=True)
class Grid2D:
    """Tensor-product grid on the rectangle [-1, 1] x [0, 1].

    ``gx`` spans the lateral direction, ``n_eta`` uniform cells the
    vertical one.  Nodal fields are stored as arrays of shape
    (gx.n_nodes, n_eta + 1) indexed ``[i, j]`` for node (x_i, eta_j).  A
    grid of fewer than 3 vertical cells, too few for the 3-point trace at
    eta = 1, raises ValueError.
    """

    gx: Grid1D
    n_eta: int

    def __post_init__(self):
        if self.n_eta < 3:
            raise ValueError(f"need at least 3 vertical cells, got {self.n_eta}")

    @classmethod
    def uniform(cls, n_x: int, n_eta: int) -> "Grid2D":
        return cls(Grid1D.uniform(n_x), n_eta)

    @functools.cached_property
    def eta_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_eta + 1)

    @property
    def h_eta(self) -> float:
        return 1.0 / self.n_eta

    @property
    def shape(self) -> tuple[int, int]:
        return (self.gx.n_nodes, self.n_eta + 1)


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a tridiagonal system with LAPACK ``dgtsv``.

    ``lower``/``upper`` are arrays of length n-1, ``diag`` has length n
    and ``rhs`` shape (n,) or (n, k), k right-hand sides solved in the
    one call.  No input is overwritten.  Mismatched lengths raise
    ValueError, and an exactly zero pivot of the elimination with partial
    pivoting raises SingularSystemError naming its (0-based) row.
    """
    lower, diag, upper, rhs = (np.asarray(a, dtype=float) for a in (lower, diag, upper, rhs))
    n = diag.size
    if lower.shape != (n - 1,) or upper.shape != (n - 1,):
        raise ValueError("off-diagonals must have length n-1")
    if rhs.ndim == 0 or rhs.shape[0] != n:
        raise ValueError(f"rhs of shape {rhs.shape} does not match diagonal length {n}")
    *_, x, info = dgtsv(lower, diag, upper, rhs)
    if info > 0:
        raise SingularSystemError(f"zero pivot at row {info - 1}")
    return x


def check_residual(residual: np.ndarray, rhs: np.ndarray, tol: float) -> None:
    """Check the residual A x - b of a solve of A x = b.

    ``residual`` and ``rhs`` are vectors; a grid array counts as the vector
    of its entries.  Raises SingularSystemError if the residual is not
    finite (a non-finite solution) and NonConvergenceError if its 2-norm
    exceeds ``tol`` times that of the right-hand side.
    """
    if not np.all(np.isfinite(residual)):
        raise SingularSystemError("singular system: non-finite solution")
    norm = float(np.linalg.norm(residual))
    bound = tol * float(np.linalg.norm(rhs))
    if norm > bound + 1e-300:
        raise NonConvergenceError(
            f"sparse solve residual {norm:.3e} exceeds {bound:.3e}", residual=norm
        )


def solve_sparse(matrix, rhs: np.ndarray):
    """Direct sparse solve of ``matrix`` x = ``rhs``.

    ``rhs`` is a vector or a matrix of right-hand sides, one per column.
    Returns (x, lu), the LU factor (a SuperLU object) serving further
    solves with the same matrix.  The unknowns are eliminated in their
    given order: SuperLU adds no column ordering of its own, so the
    caller numbers them for low fill.  A matrix that is not CSC is
    converted first.  Deterministic for fixed inputs.  Raises
    SingularSystemError on a (numerically) singular matrix; the residual
    is the caller's to check (``check_residual``).
    """
    # ``relax`` stays at SuperLU's default: with SciPy 1.17.1 a process that
    # factorized with relax=64 beside default calls, as the benchmark's speed
    # probe makes them beside the program's, crashed at exit (a segfault in
    # 1 of 9 runs of such a script; none in 6 with the default alone).
    # ``panel_size`` must stay small: under MALLOC_CHECK_=3, three
    # factorizations of the 128^2 folded operator at panel_size=32 aborted or
    # segfaulted in 3 of 3 runs; 1, 2, 4, 16 and the default crashed in none
    try:
        lu = splu(matrix.tocsc(), permc_spec="NATURAL", panel_size=4)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularSystemError(f"singular system: {exc}") from exc
    return lu.solve(rhs), lu


def gmres(matvec, b, precondition, atol, max_iter):
    """Solve A x = b by GMRES from x = 0, right-preconditioned and unrestarted.

    ``matvec(v)`` applies A and ``precondition(v)`` applies the inverse of
    the preconditioner M.  Iteration k extends the Krylov basis of A M^{-1}
    by one vector, orthogonalized by modified Gram-Schmidt, and updates the
    Givens rotations of the Hessenberg matrix, whose last rotated entry is
    the 2-norm residual ||b - A x|| of the iterate (right preconditioning
    leaves the residual unscaled).  Stops at the first iteration whose
    residual is <= ``atol``, at an exact (happy) breakdown, or after
    ``max_iter`` iterations.  Returns (x, iterations, residual); the caller
    decides what a residual above ``atol`` means.
    """
    beta = float(np.linalg.norm(b))
    if not beta > atol:
        return np.zeros_like(b, dtype=float), 0, beta
    basis = np.empty((max_iter + 1, b.size))
    hess = np.zeros((max_iter + 1, max_iter))
    cos, sin = np.zeros(max_iter), np.zeros(max_iter)
    g = np.zeros(max_iter + 1)
    g[0] = beta
    basis[0] = b / beta
    residual, m = beta, 0  # m: columns of the least-squares problem
    for k in range(max_iter):
        w = matvec(precondition(basis[k]))
        for i in range(k + 1):
            hess[i, k] = w @ basis[i]
            w -= hess[i, k] * basis[i]
        norm_w = float(np.linalg.norm(w))
        column = hess[: k + 2, k]
        column[k + 1] = norm_w
        for i in range(k):
            column[i], column[i + 1] = (
                cos[i] * column[i] + sin[i] * column[i + 1],
                cos[i] * column[i + 1] - sin[i] * column[i],
            )
        rho = float(np.hypot(column[k], column[k + 1]))
        if rho == 0.0:  # A M^{-1} singular on the basis: no further progress
            break
        cos[k], sin[k] = column[k] / rho, column[k + 1] / rho
        column[k], column[k + 1] = rho, 0.0
        g[k + 1], g[k] = -sin[k] * g[k], cos[k] * g[k]
        residual, m = abs(float(g[k + 1])), k + 1
        if residual <= atol or norm_w == 0.0:
            break
        basis[k + 1] = w / norm_w
    if m == 0:
        return np.zeros_like(b, dtype=float), 0, residual
    y = np.linalg.solve(hess[:m, :m], g[:m])
    return precondition(basis[:m].T @ y), m, residual


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
