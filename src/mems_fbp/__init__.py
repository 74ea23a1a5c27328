"""Numerical laboratory for an electrostatically actuated membrane with
curvature: mapped potential solves, quasilinear evolution, steady-state
continuation with fold detection, and the vanishing-aspect-ratio limit.
"""

from .errors import (
    ConfigError,
    DegenerateGeometryError,
    NoSteadyStateError,
    NonConvergenceError,
    SingularSystemError,
    SolverError,
)
from .evolution import ModelParams, Trajectory
from .numerics import Grid1D, Grid2D
from .transform import MembraneState, OperatorCoefficients

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateGeometryError",
    "Grid1D",
    "Grid2D",
    "MembraneState",
    "ModelParams",
    "NoSteadyStateError",
    "NonConvergenceError",
    "OperatorCoefficients",
    "SingularSystemError",
    "SolverError",
    "Trajectory",
    "__version__",
]
