"""The invariant checks of ``mems_fbp.criteria`` on generated inputs:
random admissible states on small grids, in place of the hand-picked
states of the acceptance suite."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mems_fbp import criteria
from mems_fbp.evolution import ModelParams, run
from mems_fbp.numerics import Grid2D
from mems_fbp.transform import MembraneState, random_admissible_state

grids = st.builds(Grid2D.uniform, st.sampled_from([8, 11, 16]), st.sampled_from([6, 12]))
seeds = st.integers(0, 2**32 - 1)


def _even_state(grid2d: Grid2D, seed: int) -> np.ndarray:
    """A random admissible deflection averaged with its mirror image."""
    u = random_admissible_state(grid2d.gx, np.random.default_rng(seed)).u
    return 0.5 * (u + u[::-1])


def _short_run(u0: np.ndarray, grid2d: Grid2D, eps: float, lam: float):
    p = ModelParams(eps=eps, lam=lam, dt=1e-3, equilibrium_tol=0.0, max_time=0.01)
    return run(MembraneState(grid2d.gx, u0), p, grid2d, thin_every=1), p


@settings(max_examples=10, deadline=None)
@given(grid2d=grids, seed=seeds)
def test_dual_formulation_on_random_states(grid2d, seed):
    ok, detail = criteria.dual_formulation(grid2d, 1, np.random.default_rng(seed))
    assert ok, detail


@settings(max_examples=10, deadline=None)
@given(grid2d=grids, seed=seeds, eps=st.floats(0.05, 2.0), lam=st.floats(0.0, 0.6))
# touches down with its last step past the plate (min gap -0.134)
@example(grid2d=Grid2D.uniform(8, 6), seed=7091, eps=2.0, lam=0.5)
def test_symmetry_from_mirrored_random_states(grid2d, seed, eps, lam):
    traj, p = _short_run(_even_state(grid2d, seed), grid2d, eps, lam)
    ok, detail = criteria.symmetry(traj, p.eps, grid2d)
    assert ok, detail


@settings(max_examples=10, deadline=None)
@given(
    grid2d=grids,
    seed=seeds,
    scale=st.floats(0.0, 1.0),
    eps=st.floats(0.05, 2.0),
    lam=st.floats(0.0, 0.6),
)
def test_sign_from_nonpositive_even_states(grid2d, seed, scale, eps, lam):
    # down to the flat membrane, where any upward push shows at once
    traj, _ = _short_run(-scale * np.abs(_even_state(grid2d, seed)), grid2d, eps, lam)
    ok, detail = criteria.sign(traj)
    assert ok, detail
