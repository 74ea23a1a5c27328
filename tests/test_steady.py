import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mems_fbp import numerics, steady
from mems_fbp.errors import NoSteadyStateError
from mems_fbp.evolution import ModelParams, run
from mems_fbp.numerics import Grid1D, Grid2D
from mems_fbp.steady import (
    continue_branch,
    nonexistence_bound,
    solve_steady,
    steady_jacobian,
    steady_residual,
    trace_lower_bound_check,
)
from mems_fbp.transform import MembraneState, random_admissible_state


@pytest.fixture(scope="module")
def grid():
    return Grid1D.uniform(32)


@pytest.fixture(scope="module")
def grid2d(grid):
    return Grid2D.uniform(32, 32)


@pytest.fixture(scope="module")
def steady_01(grid, grid2d):
    return solve_steady(0.1, 0.1, MembraneState.zero(grid), grid2d=grid2d)


class TestResidual:
    def test_zero_state_zero_voltage(self, grid, grid2d):
        r = steady_residual(MembraneState.zero(grid), 0.0, 0.1, grid2d)
        assert np.max(np.abs(r)) <= 1e-12

    def test_zero_state_unit_voltage(self, grid, grid2d):
        r = steady_residual(MembraneState.zero(grid), 1.0, 0.1, grid2d)
        assert np.max(np.abs(r + 1.0)) <= 1e-10

    def test_evolution_endpoint_nearly_steady(self, grid, grid2d):
        p = ModelParams(eps=0.1, lam=0.2, dt=2e-3, equilibrium_tol=1e-8, max_time=30.0)
        traj = run(MembraneState.zero(grid), p, grid2d, thin_every=500)
        assert traj.outcome == "converged"
        r = steady_residual(traj.final, 0.2, 0.1, grid2d)
        assert np.max(np.abs(r)) <= 1e-6


def central_difference_jacobian(u, lam, eps, grid2d, step=1e-6):
    """Oracle: central differences of the full residual, one column per solve pair."""
    n_int = u.grid.n_nodes - 2
    jac = np.empty((n_int, n_int))
    for j in range(n_int):
        e = np.zeros(u.grid.n_nodes)
        e[j + 1] = step
        plus = steady_residual(MembraneState(u.grid, u.u + e), lam, eps, grid2d)
        minus = steady_residual(MembraneState(u.grid, u.u - e), lam, eps, grid2d)
        jac[:, j] = (plus - minus) / (2.0 * step)
    return jac


def jacobian_error(n, eps, seed, lam=1.0):
    grid = Grid1D.uniform(n)
    grid2d = Grid2D.uniform(n, n)
    u = random_admissible_state(grid, np.random.default_rng(seed))
    oracle = central_difference_jacobian(u, lam, eps, grid2d)
    tangent = steady_jacobian(u, lam, eps, grid2d)
    return float(np.max(np.abs(tangent - oracle)) / np.max(np.abs(oracle)))


class TestJacobian:
    @pytest.mark.parametrize("eps", [0.1, 1.0, 2.0])
    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_matches_central_differences(self, n, eps):
        assert jacobian_error(n, eps, seed=n) <= 1e-6

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), eps=st.floats(0.05, 3.0))
    def test_matches_central_differences_property(self, seed, eps):
        assert jacobian_error(16, eps, seed) <= 1e-6

    def test_electrostatic_part_matches(self):
        # the residual is linear in lambda, so J(0) - J(1) isolates the
        # source derivative, which the curvature stencil would otherwise dominate
        grid = Grid1D.uniform(24)
        grid2d = Grid2D.uniform(24, 24)
        u = random_admissible_state(grid, np.random.default_rng(5))
        tangent = steady_jacobian(u, 0.0, 0.7, grid2d) - steady_jacobian(u, 1.0, 0.7, grid2d)
        oracle = central_difference_jacobian(
            u, 0.0, 0.7, grid2d
        ) - central_difference_jacobian(u, 1.0, 0.7, grid2d)
        assert np.max(np.abs(tangent - oracle)) <= 1e-6 * np.max(np.abs(oracle))

    def test_one_factorization_per_newton_iteration(self, monkeypatch, grid, grid2d):
        counts = {"splu": 0, "residual": 0, "jacobian": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(numerics, "splu", counted("splu", numerics.splu))
        monkeypatch.setattr(steady, "steady_residual", counted("residual", steady_residual))
        monkeypatch.setattr(steady, "steady_jacobian", counted("jacobian", steady_jacobian))
        solve_steady(0.3, 0.1, MembraneState.zero(grid), grid2d=grid2d)
        assert counts["jacobian"] >= 3
        assert counts["splu"] == counts["residual"]


class TestSolveSteady:
    def test_zero_voltage_returns_flat(self, grid, grid2d, rng):
        from mems_fbp.transform import random_admissible_state

        guess = random_admissible_state(grid, rng)
        u = solve_steady(0.0, 0.1, guess, grid2d=grid2d)
        assert np.max(np.abs(u.u)) <= 1e-12

    def test_small_voltage_properties(self, steady_01):
        u = steady_01.u
        assert np.max(u[1:-1]) < 0.0
        assert np.min(u[2:] - 2.0 * u[1:-1] + u[:-2]) > -1e-10
        assert np.max(np.abs(u - u[::-1])) <= 1e-10

    def test_residual_certified(self, steady_01, grid2d):
        r = steady_residual(steady_01, 0.1, 0.1, grid2d)
        assert np.max(np.abs(r)) <= 1e-10

    def test_matches_long_time_evolution(self, grid, grid2d, steady_01):
        p = ModelParams(eps=0.1, lam=0.1, dt=2e-3, equilibrium_tol=1e-8, max_time=30.0)
        traj = run(MembraneState.zero(grid), p, grid2d, thin_every=500)
        assert np.max(np.abs(traj.final.u - steady_01.u)) <= 1e-6

    def test_beyond_pullin_fails(self, grid, grid2d):
        with pytest.raises(NoSteadyStateError) as exc_info:
            solve_steady(1.5, 0.1, MembraneState.zero(grid), grid2d=grid2d, max_iter=12)
        assert exc_info.value.residual is not None

    def test_stability_of_branch_state(self, grid, grid2d, steady_01):
        # perturbed start relaxes back (local exponential stability)
        pert = 1e-2 * np.sin(np.pi * (grid.nodes + 1.0) / 2.0)
        u0 = MembraneState(grid, steady_01.u - pert)
        p = ModelParams(eps=0.1, lam=0.1, dt=2e-3, equilibrium_tol=1e-8, max_time=30.0)
        traj = run(u0, p, grid2d, thin_every=500)
        assert traj.outcome == "converged"
        assert np.max(np.abs(traj.final.u - steady_01.u)) <= 1e-6


class TestContinuation:
    def test_branch_below_fold(self, grid2d):
        branch = continue_branch(0.1, lambda_max=0.3, dlambda0=0.1, n_x=32, n_eta=32)
        lams = branch.lambdas
        assert lams[0] == 0.0
        assert np.all(np.diff(lams) > 0)
        assert lams[-1] == pytest.approx(0.3)
        assert branch.fold_estimate is None
        gaps = [pt.min_gap for pt in branch.points]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        for pt in branch.points[1:]:
            r = steady_residual(pt.state, pt.lam, 0.1, grid2d)
            assert np.max(np.abs(r)) <= 1e-10
            assert np.max(pt.state.u) <= 1e-12
            assert np.max(np.abs(pt.state.u - pt.state.u[::-1])) <= 1e-10

    def test_fold_detection(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="mems_fbp.steady"):
            branch = continue_branch(1.0, lambda_max=2.0, dlambda0=0.1, n_x=24, n_eta=24)
        assert branch.fold_estimate is not None
        # every step halving below the fold is a logged rejection
        rejected = [r for r in caplog.records if "rejected lambda" in r.getMessage()]
        assert branch.rejected_steps == len(rejected) >= 9
        assert all("residual" in r.getMessage() for r in rejected)
        assert branch.newton_iters == sum(pt.newton_iters for pt in branch.points)
        assert branch.jacobians > branch.newton_iters
        lo, hi = branch.fold_interval
        assert lo <= branch.fold_estimate <= hi
        assert hi - lo <= 0.1 / 2**9
        assert branch.fold_estimate <= nonexistence_bound(1.0)
        # beyond the bracket the solve fails from the last branch point
        last = branch.points[-1]
        with pytest.raises(NoSteadyStateError):
            solve_steady(hi + 0.05, 1.0, last.state, max_iter=10,
                         grid2d=Grid2D.uniform(24, 24))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            continue_branch(0.1, 1.0, -0.05)


class TestNonexistenceBound:
    def test_closed_form_values(self):
        assert nonexistence_bound(0.1) == pytest.approx(1.983504, abs=1e-5)
        assert nonexistence_bound(1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_small_aspect_limit(self):
        # expansion 2 - (5/3) eps^2 near zero
        assert abs(nonexistence_bound(0.01) - 2.0) <= 2e-4

    def test_domain_error(self):
        with pytest.raises(ValueError):
            nonexistence_bound(0.0)
        with pytest.raises(ValueError):
            nonexistence_bound(-0.3)

    def test_against_quadrature_oracle(self):
        from scipy.integrate import quad

        for eps in (0.05, 0.3, 0.7, 2.0):
            j, _ = quad(lambda s: (1.0 + s * s) ** -2.5, 0.0, eps)
            assert nonexistence_bound(eps) == pytest.approx(
                min(2.0 * j, 2.0 / 3.0) / eps, rel=1e-10
            )


class TestTraceLowerBound:
    def test_flat_membrane_exactly_one(self, grid, grid2d):
        val = trace_lower_bound_check(MembraneState.zero(grid), 0.1, grid2d)
        assert abs(val - 1.0) <= 1e-12

    def test_steady_state_bound(self, steady_01, grid2d):
        assert trace_lower_bound_check(steady_01, 0.1, grid2d) >= 1.0 - 1e-3

    def test_refinement(self):
        violations = []
        for n in (16, 32, 64):
            g2 = Grid2D.uniform(n, n)
            u = solve_steady(0.2, 0.1, MembraneState.zero(g2.gx), grid2d=g2)
            violations.append(max(0.0, 1.0 - trace_lower_bound_check(u, 0.1, g2)))
        # the discrete trace stays at or above 1; any violation must shrink
        # by roughly the discretization order under doubling
        for coarse, fine in zip(violations, violations[1:]):
            assert fine <= max(coarse / 3.0, 1e-12)
