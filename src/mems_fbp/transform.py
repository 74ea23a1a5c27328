"""Mapping between the physical membrane domain and the fixed rectangle.

The region between ground plate and membrane {(x, z): -1 < z < v(x)} is
pulled onto [-1,1] x [0,1] by (x, z) -> (x, (1+z)/(1+v(x))).  Under this
map the Laplacian becomes a v-dependent operator with a mixed-derivative
term and a first-order vertical drift; this module assembles its
coefficient fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .numerics import Grid1D, Grid2D, d1_central, d2_central, grids_match

__all__ = [
    "MembraneState",
    "OperatorCoefficients",
    "assemble_coefficients",
    "random_admissible_state",
]

# Sine modes and leading coefficient scale of ``random_admissible_state``.
_RANDOM_MODES = 6
_RANDOM_AMPLITUDE = 0.3


@dataclass(frozen=True, eq=False)
class MembraneState:
    """Deflection profile on a 1-D grid at a given time.

    Clamped at both ends: construction rejects a deflection that is not a
    vector of the grid's node count, whose end values exceed 1e-12 in size,
    or that holds a NaN or an infinity, with ValueError in that order of
    checks.  End values that pass (roundoff such as sin(k*pi), or -0.0)
    are snapped to +0.0 in a copy, so u[0] = u[-1] = +0.0 always; the
    interior values are kept as given.
    """

    grid: Grid1D
    u: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.shape != (self.grid.n_nodes,):
            raise ValueError(f"deflection shape {u.shape} != node count ({self.grid.n_nodes},)")
        first, last = float(u[0]), float(u[-1])
        if abs(first) > 1e-12 or abs(last) > 1e-12:
            raise ValueError("membrane must be clamped: u(-1) = u(1) = 0")
        if not np.isfinite(u).all():
            raise ValueError("deflection contains non-finite values")
        if first or last or math.copysign(1.0, first) < 0.0 or math.copysign(1.0, last) < 0.0:
            u = u.copy()  # snap roundoff-level end values (e.g. sin(k*pi)) and -0.0
            u[0] = u[-1] = 0.0
        object.__setattr__(self, "u", u)

    @property
    def min_gap(self) -> float:
        """Smallest distance 1 + u to the ground plate."""
        return 1.0 + float(self.u.min())  # min(1 + u) exactly: rounding is monotone

    def interp(self, x) -> np.ndarray:
        """Piecewise-linear interpolation of the deflection."""
        return np.interp(x, self.grid.nodes, self.u)

    @classmethod
    def zero(cls, grid: Grid1D, time: float = 0.0) -> "MembraneState":
        return cls(grid, np.zeros(grid.n_nodes), time)


@dataclass(frozen=True, eq=False)
class OperatorCoefficients:
    """Nodal coefficient fields of the mapped elliptic operator.

    The operator is
        a_xx d_xx + a_xeta d_x d_eta + a_etaeta d_etaeta + b_eta d_eta
    with a_xx = eps^2 constant.
    """

    grid: Grid2D
    a_xx: np.ndarray
    a_xeta: np.ndarray
    a_etaeta: np.ndarray
    b_eta: np.ndarray


def _check_admissible(v: MembraneState):
    if v.min_gap <= 0.0:
        raise DegenerateGeometryError(
            f"membrane touches the ground plate (min gap {v.min_gap:.3e})"
        )


def assemble_coefficients(v: MembraneState, eps: float, grid: Grid2D) -> OperatorCoefficients:
    """Evaluate the four coefficient fields of the mapped operator on ``grid``."""
    if not eps > 0.0:
        raise ValueError("aspect ratio must be positive")
    if not grids_match(grid.gx, v.grid):
        raise ValueError("2-D grid does not share the membrane's x-nodes")
    _check_admissible(v)

    eta = grid.eta_nodes
    w = 1.0 + v.u
    dv = d1_central(v.u, v.grid)
    s = dv / w
    q = d2_central(v.u, v.grid) / w
    e2 = eps * eps

    a_xx = np.full(grid.shape, e2)
    a_xeta = -2.0 * e2 * np.outer(s, eta)
    a_etaeta = (1.0 + e2 * np.outer(dv * dv, eta * eta)) / (w * w)[:, None]
    # the operator applied to eta itself: eps^2 eta (2 s^2 - q)
    b_eta = e2 * np.outer(2.0 * s * s - q, eta)
    return OperatorCoefficients(grid, a_xx, a_xeta, a_etaeta, b_eta)


def random_admissible_state(
    grid: Grid1D, rng: np.random.Generator, min_gap: float = 0.3
) -> MembraneState:
    """Random smooth clamped deflection with min(1+u) >= min_gap.

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
    if depth > 1.0 - min_gap:
        u *= (1.0 - min_gap) / depth
    return MembraneState(grid, u)
