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

from .elliptic import PotentialField, g_eps, solve_potential
from .errors import context
from .numerics import Grid2D, solve_tridiagonal, trapezoid_2d
from .transform import MembraneState

__all__ = [
    "ModelParams",
    "Trajectory",
    "imex_step",
    "step",
    "run",
    "total_energy",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical parameters of a membrane run.

    ``eps`` is the device aspect ratio, ``lam`` the dimensionless
    voltage parameter.  The ``kinds`` metadata of a field names the
    experiment kinds of the command-line driver that read it as a config
    key.
    """

    eps: float = field(default=0.1, metadata={"kinds": ("evolve", "steady")})
    lam: float = field(default=0.0, metadata={"kinds": ("evolve", "steady", "limit-study")})
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

    The last stored state is the one the run stopped at.  ``diagnostics``
    counts what the run did; ``run`` records the steps taken and how their
    potentials were solved.
    """

    states: list[MembraneState]
    outcome: str  # converged | touchdown | max_time_reached
    energy_series: list[tuple[float, float]] | None = field(default=None)
    diagnostics: Counter = field(default_factory=Counter)

    @property
    def final(self) -> MembraneState:
        return self.states[-1]

    @property
    def touchdown_time(self) -> float | None:
        """The time of the final state if the run touched down, else None."""
        return self.final.time if self.outcome == "touchdown" else None


def imex_step(u: MembraneState, dt: float, diffusion_int: np.ndarray, forcing: np.ndarray) -> MembraneState:
    """One implicit-diffusion / explicit-forcing step with clamped ends.

    Solves (I - dt * D * d_xx) u_new = u + dt * forcing on the interior
    nodes.  ``forcing`` is a full nodal array; its end values are unused.
    """
    h = u.grid.h
    r = dt * diffusion_int / (h * h)
    rhs_int = u.u[1:-1] + dt * forcing[1:-1]
    sol = solve_tridiagonal(-r[1:], 1.0 + 2.0 * r, -r[:-1], rhs_int)
    return MembraneState.clamped(u.grid, sol, u.time + dt)


def step(u: MembraneState, p: ModelParams, grid2d: Grid2D) -> tuple[MembraneState, PotentialField]:
    """Advance one time step; the potential is re-solved at the current state.

    Returns (new state, the potential of ``u`` that drove the step).
    """
    source, field = g_eps(u, p.eps, grid2d)
    # the curvature factor (1 + eps^2 u_x^2)^(-3/2), frozen over the step
    dv = u.slope[1:-1]
    return imex_step(u, p.dt, (1.0 + p.eps * p.eps * dv * dv) ** -1.5, -p.lam * source), field


def _no_steps() -> Counter:
    """The diagnostics of a run before its first step."""
    return Counter(steps=0, folded_solves=0, full_solves=0)


def _run_loop(u0, p, step_fn, thin_every) -> Trajectory:
    """Shared driver: iterate until equilibrium, touchdown or the horizon.

    A step that fails with a ``SolverError`` re-raises it, type and
    ``residual`` kept, with its 1-based index and start time before the
    message; any other exception passes through untouched.
    """
    states = [u0]
    if u0.min_gap <= p.touchdown_floor:
        return Trajectory(states, "touchdown")

    u = u0
    k = 0
    while True:
        with context(f"step {k + 1} from t={u.time:.12g}"):
            u_new = step_fn(u)
        k += 1
        if u_new.min_gap <= p.touchdown_floor:
            outcome, stop = "touchdown", True
        elif float(np.max(np.abs(u_new.u - u.u))) / p.dt <= p.equilibrium_tol:
            outcome, stop = "converged", True
        elif u_new.time >= p.max_time - 1e-12:
            outcome, stop = "max_time_reached", True
        else:
            stop = False
        if stop or k % thin_every == 0:
            states.append(u_new)
        if stop:
            return Trajectory(states, outcome)
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
    rectangle, ``full_solves`` on the whole (the ``folded`` flag of the
    step's field, see ``elliptic.solve_potential``).  With
    ``record_energy`` the ``total_energy`` of every stored state with a
    positive gap is recorded, so not that of a touchdown step that crossed
    the plate, which has no gap region.  A stored state's energy comes
    from the potential that the step from it solved; the last stored state
    starts no step, so its potential is solved for its energy alone, and
    that solve is not counted.  A ``thin_every`` below 1 raises ValueError.
    """
    if thin_every < 1:
        raise ValueError(f"thin_every must be at least 1, got {thin_every}")
    counts = _no_steps()
    energies = []

    def one_step(s: MembraneState) -> MembraneState:
        s_new, field = step(s, p, grid2d)
        # a state that starts a step is stored when its index is a
        # multiple of thin_every (the stop rule stores only states that
        # start none)
        if record_energy and counts["steps"] % thin_every == 0:
            energies.append((s.time, total_energy(s, p, field)))
        counts["steps"] += 1
        counts["folded_solves" if field.folded else "full_solves"] += 1
        return s_new

    traj = _run_loop(u0, p, one_step, thin_every)
    traj.diagnostics = counts
    if record_energy:
        last = traj.final
        if last.min_gap > 0.0:
            field = solve_potential(last, p.eps, grid2d)
            energies.append((last.time, total_energy(last, p, field)))
        traj.energy_series = energies
    return traj


def total_energy(u: MembraneState, p: ModelParams, field: PotentialField) -> float:
    """The flow's Lyapunov functional E = eps^-2 int(sqrt(1 + eps^2 u_x^2) - 1)
    - lam F, with u_x the state's ``slope`` and F = int(eps^2 psi_x^2 +
    psi_z^2) the field integral over the gap.  ``run`` is its L2 gradient
    flow (the source g_eps is the shape derivative -dF/du), so E falls
    along a run.

    ``field`` is the potential of ``u`` at ``p.eps``, as ``step`` or
    ``solve_potential`` returns it; nothing is solved here.  The field
    integral over the physical gap region is evaluated on the rectangle:
    the change of variables contributes the local gap width as Jacobian,
    and the physical gradient of the potential is rebuilt from the
    transformed one.
    """
    x = u.grid.nodes
    dv = u.slope
    e2 = p.eps * p.eps
    elastic = float(np.trapezoid(np.sqrt(1.0 + e2 * dv * dv) - 1.0, x))
    w = 1.0 + u.u
    eta = field.grid.eta_nodes

    # phi derivatives on the rectangle (2nd-order, one-sided at edges)
    dphi_x, dphi_e = np.gradient(field.phi, u.grid.h, field.grid.h_eta, edge_order=2)

    # physical gradient through the map: d_z = d_eta / (1+v),
    # d_x picks up the slope term -eta v_x/(1+v) d_eta
    psi_z = dphi_e / w[:, None]
    psi_x = dphi_x - (dv / w)[:, None] * eta[None, :] * dphi_e
    integrand = (e2 * psi_x**2 + psi_z**2) * w[:, None]
    electro = trapezoid_2d(integrand, x, eta)
    return elastic / e2 - p.lam * electro

