"""Grids, finite-difference kernels and linear solvers used by all
modules; the Newton loop of the steady problem is ``steady.damped_newton``.

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

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.sparse.linalg import splu

from .errors import GridTooCoarseError, NonConvergenceError, SingularSystemError

__all__ = [
    "Grid1D",
    "Grid2D",
    "grids_match",
    "solve_tridiagonal",
    "check_residual",
    "solve_sparse",
    "gmres",
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
    indexed ``[i, j]`` for node (x_i, eta_j).  A grid of fewer than 3
    vertical cells, too few for the 3-point trace at eta = 1, raises
    GridTooCoarseError.
    """

    gx: Grid1D
    n_eta: int
    eta_nodes: np.ndarray
    h_eta: float

    def __post_init__(self):
        if self.n_eta < 3:
            raise GridTooCoarseError(f"need at least 3 vertical cells, got {self.n_eta}")

    @classmethod
    def uniform(cls, n_x: int, n_eta: int) -> "Grid2D":
        return cls(
            gx=Grid1D.uniform(n_x),
            n_eta=n_eta,
            eta_nodes=np.linspace(0.0, 1.0, n_eta + 1),
            h_eta=1.0 / n_eta,
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.gx.n_nodes, self.n_eta + 1)


def grids_match(a: Grid1D, b: Grid1D) -> bool:
    return a.n_cells == b.n_cells and np.array_equal(a.nodes, b.nodes)


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
    # 1 of 9 runs of such a script; none in 6 with the default alone)
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
