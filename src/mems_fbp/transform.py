"""Mapping between the physical membrane domain and the fixed rectangle.

The region between ground plate and membrane {(x, z): -1 < z < v(x)} is
pulled onto [-1,1] x [0,1] by (x, z) -> (x, (1+z)/(1+v(x))).  Under this
map the Laplacian becomes a v-dependent operator with a mixed-derivative
term and a first-order vertical drift; this module assembles its
coefficient fields.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .numerics import Grid1D, Grid2D

__all__ = [
    "MembraneState",
    "OperatorCoefficients",
    "assemble_coefficients",
    "random_admissible_state",
]

# Sine modes, leading coefficient scale and least gap of
# ``random_admissible_state``.
_RANDOM_MODES = 6
_RANDOM_AMPLITUDE = 0.3
_RANDOM_MIN_GAP = 0.3


def _d1(f: np.ndarray, h: float) -> np.ndarray:
    """First derivative: 2nd-order central inside, 3-point one-sided at the ends."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    # difference form of (-3 f0 + 4 f1 - f2): exact zero on constants
    out[0] = (4.0 * (f[1] - f[0]) - (f[2] - f[0])) / (2.0 * h)
    out[-1] = -(4.0 * (f[-2] - f[-1]) - (f[-3] - f[-1])) / (2.0 * h)
    return out


def _d2(f: np.ndarray, h: float) -> np.ndarray:
    """Second derivative: 2nd-order central inside, 4-point one-sided at the ends.

    The endpoint stencil (2, -5, 4, -1)/h^2 keeps second order and is
    exact on quadratics, like the interior formula.
    """
    h2 = h * h
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h2
    # (2, -5, 4, -1) written as twice the first second-difference minus
    # the next one: exact zero on constants
    out[0] = (2.0 * (f[0] - 2.0 * f[1] + f[2]) - (f[1] - 2.0 * f[2] + f[3])) / h2
    out[-1] = (2.0 * (f[-1] - 2.0 * f[-2] + f[-3]) - (f[-2] - 2.0 * f[-3] + f[-4])) / h2
    return out


@dataclass(frozen=True, eq=False)
class MembraneState:
    """Deflection profile on a 1-D grid at a given time, with its slope
    and bending.

    Clamped at both ends: construction rejects a deflection that is not a
    vector of the grid's node count, whose end values exceed 1e-12 in size,
    or that holds a NaN or an infinity, with ValueError in that order of
    checks.  The state keeps its own read-only copy ``u`` of the
    deflection, with the end values that pass (roundoff such as
    sin(k*pi), or -0.0) snapped to +0.0, so u[0] = u[-1] = +0.0 always;
    the interior values are kept as given.  ``slope`` (u_x) and ``bend``
    (u_xx), the only differences of the deflection that the package
    takes, are read-only and computed at most once per state.
    """

    grid: Grid1D
    u: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        u = np.array(self.u, dtype=float)
        if u.shape != (self.grid.n_nodes,):
            raise ValueError(f"deflection shape {u.shape} != node count ({self.grid.n_nodes},)")
        first, last = float(u[0]), float(u[-1])
        if abs(first) > 1e-12 or abs(last) > 1e-12:
            raise ValueError("membrane must be clamped: u(-1) = u(1) = 0")
        if not np.isfinite(u).all():
            raise ValueError("deflection contains non-finite values")
        u[0] = u[-1] = 0.0  # snap roundoff-level end values (e.g. sin(k*pi)) and -0.0
        u.flags.writeable = False
        object.__setattr__(self, "u", u)

    @functools.cached_property
    def slope(self) -> np.ndarray:
        """u_x: central inside, 3-point one-sided at the clamped ends."""
        out = _d1(self.u, self.grid.h)
        out.flags.writeable = False
        return out

    @functools.cached_property
    def bend(self) -> np.ndarray:
        """u_xx: central inside, 4-point one-sided at the clamped ends, so
        exact on quadratics at every node."""
        out = _d2(self.u, self.grid.h)
        out.flags.writeable = False
        return out

    @property
    def min_gap(self) -> float:
        """Smallest distance 1 + u to the ground plate."""
        return 1.0 + float(self.u.min())  # min(1 + u) exactly: rounding is monotone

    def interp(self, x) -> np.ndarray:
        """Piecewise-linear interpolation of the deflection."""
        return np.interp(x, self.grid.nodes, self.u)

    @classmethod
    def zero(cls, grid: Grid1D) -> "MembraneState":
        return cls(grid, np.zeros(grid.n_nodes))

    @classmethod
    def clamped(cls, grid: Grid1D, interior: np.ndarray, time: float = 0.0) -> "MembraneState":
        """The state whose deflection is ``interior`` at the interior nodes
        of ``grid``, between the clamped ends' zeros."""
        return cls(grid, np.concatenate(([0.0], interior, [0.0])), time)


@dataclass(frozen=True, eq=False)
class OperatorCoefficients:
    """Nodal coefficient fields of the mapped elliptic operator.

    The operator is
        a_xx d_xx + a_xeta d_x d_eta + a_etaeta d_etaeta + b_eta d_eta
    with a_xx = eps^2 constant, held as a number; the other three are
    nodal fields on ``grid``.
    """

    grid: Grid2D
    a_xx: float
    a_xeta: np.ndarray
    a_etaeta: np.ndarray
    b_eta: np.ndarray


def _check_on_grid(v: MembraneState, grid: Grid2D):
    """Check that ``grid`` spans the x-nodes of ``v`` (ValueError) and that
    ``v`` stays above the ground plate (DegenerateGeometryError)."""
    if grid.gx != v.grid:
        raise ValueError("2-D grid does not share the membrane's x-nodes")
    if v.min_gap <= 0.0:
        raise DegenerateGeometryError(
            f"membrane touches the ground plate (min gap {v.min_gap:.3e})"
        )


def assemble_coefficients(v: MembraneState, eps: float, grid: Grid2D) -> OperatorCoefficients:
    """Evaluate the four coefficient fields of the mapped operator on ``grid``."""
    if not eps > 0.0:
        raise ValueError("aspect ratio must be positive")
    _check_on_grid(v, grid)

    eta = grid.eta_nodes
    w = 1.0 + v.u
    dv = v.slope
    s = dv / w
    q = v.bend / w
    e2 = eps * eps

    a_xeta = -2.0 * e2 * np.outer(s, eta)
    a_etaeta = (1.0 + e2 * np.outer(dv * dv, eta * eta)) / (w * w)[:, None]
    # the operator applied to eta itself: eps^2 eta (2 s^2 - q)
    b_eta = e2 * np.outer(2.0 * s * s - q, eta)
    return OperatorCoefficients(grid, e2, a_xeta, a_etaeta, b_eta)


def random_admissible_state(grid: Grid1D, rng: np.random.Generator) -> MembraneState:
    """Random smooth clamped deflection with min(1+u) >= ``_RANDOM_MIN_GAP``.

    A sine series of ``_RANDOM_MODES`` modes with random coefficients of
    standard deviation ``_RANDOM_AMPLITUDE / k^2``, rescaled when it dips
    too close to the plate.  Used for randomized solver cross-checks.
    """
    x = grid.nodes
    u = np.zeros_like(x)
    for k in range(1, _RANDOM_MODES + 1):
        u += rng.normal(0.0, _RANDOM_AMPLITUDE / (k * k)) * np.sin(k * np.pi * (x + 1.0) / 2.0)
    u[0] = u[-1] = 0.0  # sin(k*pi) is only zero up to roundoff
    depth = float(np.max(-u))
    if depth > 1.0 - _RANDOM_MIN_GAP:
        u *= (1.0 - _RANDOM_MIN_GAP) / depth
    return MembraneState(grid, u)
