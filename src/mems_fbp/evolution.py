"""Time stepping for the quasilinear membrane equation.

One semi-implicit step treats the diffusion implicitly with the
curvature coefficient frozen at the current state and the electrostatic
source explicitly, so each step costs one tridiagonal solve plus one
potential solve.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .elliptic import g_eps, is_even, solve_potential
from .errors import SolverError
from .numerics import Grid2D, d1_central, solve_tridiagonal, trapezoid_2d
from .transform import MembraneState

__all__ = [
    "ModelParams",
    "Trajectory",
    "imex_step",
    "step",
    "run",
    "total_energy",
]

MODES = ("quasilinear", "linearized")

@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical parameters of a membrane run.

    ``eps`` is the device aspect ratio, ``lam`` the dimensionless
    voltage parameter.  ``mode`` selects the full curvature operator or
    its linearized-stretching variant (the source term is unchanged).
    The ``kinds`` metadata of a field names the experiment kinds of the
    command-line driver that read it as a config key.
    """

    eps: float = field(default=0.1, metadata={"kinds": ("evolve", "steady", "continuation")})
    lam: float = field(default=0.0, metadata={"kinds": ("evolve", "steady", "limit-study")})
    mode: str = field(default="quasilinear", metadata={"kinds": ("evolve",)})
    dt: float = field(default=1e-3, metadata={"kinds": ("evolve", "limit-study")})
    touchdown_floor: float = field(
        default=0.05, metadata={"kinds": ("evolve", "steady", "continuation", "limit-study")}
    )
    equilibrium_tol: float = field(default=1e-9, metadata={"kinds": ("evolve",)})
    max_time: float = field(default=50.0, metadata={"kinds": ("evolve",)})

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if not self.lam >= 0.0:
            raise ValueError("lambda must be nonnegative")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not 0.0 < self.touchdown_floor < 1.0:
            raise ValueError("touchdown_floor must lie in (0, 1)")
        if not self.equilibrium_tol >= 0.0:
            raise ValueError("equilibrium_tol must be nonnegative")
        if not self.max_time > 0.0:
            raise ValueError("max_time must be positive")


@dataclass
class Trajectory:
    """Stored (possibly thinned) states of a run plus its outcome.

    ``diagnostics`` counts what the run did; ``run`` records the steps
    taken and how their potentials were solved.
    """

    states: list[MembraneState]
    outcome: str  # converged | touchdown | max_time_reached
    touchdown_time: float | None = None
    energy_series: list[tuple[float, float]] | None = field(default=None)
    diagnostics: Counter = field(default_factory=Counter)

    @property
    def final(self) -> MembraneState:
        return self.states[-1]


def _diffusion_interior(u: MembraneState, p: ModelParams) -> np.ndarray:
    if p.mode == "linearized":
        return np.ones(u.grid.n_nodes - 2)
    dv = d1_central(u.u, u.grid)[1:-1]
    return (1.0 + p.eps * p.eps * dv * dv) ** -1.5


def imex_step(u: MembraneState, dt: float, diffusion_int: np.ndarray, forcing: np.ndarray) -> MembraneState:
    """One implicit-diffusion / explicit-forcing step with clamped ends.

    Solves (I - dt * D * d_xx) u_new = u + dt * forcing on the interior
    nodes.  ``forcing`` is a full nodal array; its end values are unused.
    """
    h = u.grid.h
    r = dt * diffusion_int / (h * h)
    rhs_int = u.u[1:-1] + dt * forcing[1:-1]
    sol = solve_tridiagonal(-r[1:], 1.0 + 2.0 * r, -r[:-1], rhs_int)
    u_new = np.zeros_like(u.u)
    u_new[1:-1] = sol
    return MembraneState(u.grid, u_new, u.time + dt)


def step(u: MembraneState, p: ModelParams, grid2d: Grid2D) -> MembraneState:
    """Advance one time step; the potential is re-solved at the current state."""
    forcing = -p.lam * g_eps(u, p.eps, grid2d)
    return imex_step(u, p.dt, _diffusion_interior(u, p), forcing)


def _run_loop(u0, p, step_fn, thin_every) -> Trajectory:
    """Shared driver: iterate until equilibrium, touchdown or the horizon.

    A step that fails with a ``SolverError`` re-raises it, type and
    ``residual`` kept, with its 1-based index and start time before the
    message; any other exception passes through untouched.
    """
    states = [u0]
    if u0.min_gap <= p.touchdown_floor:
        return Trajectory(states, "touchdown", u0.time)

    u = u0
    k = 0
    while True:
        try:
            u_new = step_fn(u)
        except SolverError as exc:
            exc.args = (f"step {k + 1} from t={u.time:.12g}: {exc}",)
            raise
        k += 1
        if u_new.min_gap <= p.touchdown_floor:
            outcome, touchdown_time, stop = "touchdown", u_new.time, True
        elif float(np.max(np.abs(u_new.u - u.u))) / p.dt <= p.equilibrium_tol:
            outcome, touchdown_time, stop = "converged", None, True
        elif u_new.time >= p.max_time - 1e-12:
            outcome, touchdown_time, stop = "max_time_reached", None, True
        else:
            stop = False
        if stop or k % thin_every == 0:
            states.append(u_new)
        if stop:
            return Trajectory(states, outcome, touchdown_time)
        u = u_new


def run(
    u0: MembraneState,
    p: ModelParams,
    grid2d: Grid2D,
    thin_every: int = 10,
    record_energy: bool = False,
) -> Trajectory:
    """Run the membrane until equilibrium, touchdown or ``max_time``.

    The trajectory's ``diagnostics`` count the ``steps`` taken and how
    the potential solve of each was made: ``folded_solves`` on the half
    rectangle for a state that ``is_even``, ``full_solves`` otherwise
    (see ``elliptic.solve_potential``).  With ``record_energy`` the
    ``total_energy`` of every stored state is evaluated after the run;
    these evaluations are not counted.
    """
    counts = Counter(steps=0, folded_solves=0, full_solves=0)

    def one_step(s: MembraneState) -> MembraneState:
        counts["steps"] += 1
        counts["folded_solves" if is_even(s) else "full_solves"] += 1
        return step(s, p, grid2d)

    traj = _run_loop(u0, p, one_step, thin_every)
    traj.diagnostics = counts
    if record_energy:
        traj.energy_series = [(s.time, total_energy(s, p, grid2d)) for s in traj.states]
    return traj


def total_energy(u: MembraneState, p: ModelParams, grid2d: Grid2D) -> float:
    """Stretching energy minus the weighted electrostatic field energy.

    The field integral over the physical gap region is evaluated on the
    rectangle: the change of variables contributes the local gap width
    as Jacobian, and the physical gradient of the potential is rebuilt
    from the transformed one.
    """
    x = u.grid.nodes
    dv = d1_central(u.u, u.grid)
    e2 = p.eps * p.eps
    elastic = float(np.trapezoid(np.sqrt(1.0 + e2 * dv * dv) - 1.0, x))
    if p.lam == 0.0:
        return elastic

    phi = solve_potential(u, p.eps, grid2d).phi
    w = 1.0 + u.u
    eta = grid2d.eta_nodes

    # phi derivatives on the rectangle (2nd-order, one-sided at edges)
    dphi_x, dphi_e = np.gradient(phi, u.grid.h, grid2d.h_eta, edge_order=2)

    # physical gradient through the map: d_z = d_eta / (1+v),
    # d_x picks up the slope term -eta v_x/(1+v) d_eta
    psi_z = dphi_e / w[:, None]
    psi_x = dphi_x - (dv / w)[:, None] * eta[None, :] * dphi_e
    integrand = (e2 * psi_x**2 + psi_z**2) * w[:, None]
    electro = trapezoid_2d(integrand, x, eta)
    return elastic - 0.5 * p.lam * electro

