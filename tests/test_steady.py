import logging
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mems_fbp import elliptic, numerics, small_aspect, steady
from mems_fbp.errors import (
    DegenerateGeometryError,
    NoSteadyStateError,
    NonConvergenceError,
    SingularSystemError,
)
from mems_fbp.evolution import ModelParams, run
from mems_fbp.numerics import Grid1D, Grid2D
from mems_fbp.steady import (
    BranchPoint,
    continue_branch,
    damped_newton,
    linearize,
    march_to_fold,
    nonexistence_bound,
    solve_steady,
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
    return solve_steady(0.1, 0.1, MembraneState.zero(grid), grid2d=grid2d).state


class TestResidual:
    def test_zero_state_zero_voltage(self, grid, grid2d):
        r = steady_residual(MembraneState.zero(grid), 0.0, 0.1, grid2d)[0]
        assert np.max(np.abs(r)) <= 1e-12

    def test_zero_state_unit_voltage(self, grid, grid2d):
        r = steady_residual(MembraneState.zero(grid), 1.0, 0.1, grid2d)[0]
        assert np.max(np.abs(r + 1.0)) <= 1e-10

    def test_evolution_endpoint_nearly_steady(self, grid, grid2d):
        p = ModelParams(eps=0.1, lam=0.2, dt=2e-3, equilibrium_tol=1e-8, max_time=30.0)
        traj = run(MembraneState.zero(grid), p, grid2d, thin_every=500)
        assert traj.outcome == "converged"
        r = steady_residual(traj.final, 0.2, 0.1, grid2d)[0]
        assert np.max(np.abs(r)) <= 1e-6


def central_difference_jacobian(u, lam, eps, grid2d, step=1e-6):
    """Oracle: central differences of the full residual, one column per solve pair."""
    n_int = u.grid.n_nodes - 2
    jac = np.empty((n_int, n_int))
    for j in range(n_int):
        e = np.zeros(u.grid.n_nodes)
        e[j + 1] = step
        plus = steady_residual(MembraneState(u.grid, u.u + e), lam, eps, grid2d)[0]
        minus = steady_residual(MembraneState(u.grid, u.u - e), lam, eps, grid2d)[0]
        jac[:, j] = (plus - minus) / (2.0 * step)
    return jac


def linearize_at(u, lam, eps, grid2d, bordered=False):
    """``linearize`` about ``u`` with the potential that ``steady_residual``
    returns there, as the Newton step takes it."""
    field = steady_residual(u, lam, eps, grid2d)[1]
    return linearize(u, lam, eps, grid2d, field, bordered=bordered)


def dense_jacobian(u, lam, eps, grid2d):
    """Dense matrix of ``linearize``: its tridiagonal part plus the trace
    term, one ``trace_change`` product per column."""
    lin = linearize_at(u, lam, eps, grid2d)
    tridiagonal = np.diag(lin.diag) + np.diag(lin.lower, -1) + np.diag(lin.upper, 1)
    trace = np.column_stack([lin.trace_change(e) for e in np.eye(lin.diag.size)])
    return tridiagonal + lin.coupling[:, None] * trace


def jacobian_error(n, eps, seed, lam=1.0):
    grid = Grid1D.uniform(n)
    grid2d = Grid2D.uniform(n, n)
    u = random_admissible_state(grid, np.random.default_rng(seed))
    oracle = central_difference_jacobian(u, lam, eps, grid2d)
    tangent = dense_jacobian(u, lam, eps, grid2d)
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
        tangent = dense_jacobian(u, 0.0, 0.7, grid2d) - dense_jacobian(u, 1.0, 0.7, grid2d)
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
        monkeypatch.setattr(steady, "linearize", counted("jacobian", linearize))
        solve_steady(0.3, 0.1, MembraneState.zero(grid), grid2d=grid2d)
        assert counts["jacobian"] >= 3
        assert counts["splu"] == counts["residual"]
        # depth solves, with the voltage as unknown, reuse the factor too
        counts.update(splu=0, residual=0, jacobian=0)
        continue_branch(1.0, 2.0, 0.05, n_x=8)
        assert counts["jacobian"] >= 3
        assert counts["splu"] == counts["residual"]


def directional_difference(u, lam, eps, grid2d, v, mu=None, step=1e-6):
    """Oracle: central difference of the residual along v (and along the
    voltage by mu, with the centre row of a depth solve appended)."""

    def at(sign):
        full = u.u.copy()
        full[1:-1] += sign * step * v
        r = steady_residual(
            MembraneState(u.grid, full), lam + sign * step * (mu or 0.0), eps, grid2d
        )[0]
        return r if mu is None else np.append(r, full[full.size // 2])

    return (at(1.0) - at(-1.0)) / (2.0 * step)


def relative_error(value, oracle):
    return float(np.max(np.abs(value - oracle)) / np.max(np.abs(oracle)))


class TestLinearization:
    @settings(max_examples=16, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        eps=st.floats(0.05, 3.0),
        n=st.integers(8, 24),
        lam=st.floats(0.1, 2.0),
        bordered=st.booleans(),
    )
    def test_matvec_matches_central_differences(self, seed, eps, n, lam, bordered):
        grid = Grid1D.uniform(n)
        grid2d = Grid2D.uniform(n, n)
        rng = np.random.default_rng(seed)
        u = random_admissible_state(grid, rng)
        v = rng.normal(size=n - 1)
        mu = float(rng.normal()) if bordered else None
        z = v if mu is None else np.append(v, mu)

        def product(lam):
            return linearize_at(u, lam, eps, grid2d, bordered=bordered).matvec(z)

        oracle = directional_difference(u, lam, eps, grid2d, v, mu)
        assert relative_error(product(lam), oracle) <= 1e-6
        # the source part alone, which the second difference would dominate
        source = directional_difference(u, 0.0, eps, grid2d, v, mu) - oracle
        assert relative_error(product(0.0) - product(lam), source) <= 1e-6

    def test_preconditioner_inverts_the_tridiagonal_part(self, grid, grid2d):
        u = random_admissible_state(grid, np.random.default_rng(3))
        for bordered in (False, True):
            lin = linearize_at(u, 0.7, 1.0, grid2d, bordered=bordered)
            tridiagonal = replace(lin, coupling=np.zeros_like(lin.coupling))
            y = np.random.default_rng(4).normal(size=lin.diag.size + bordered)
            x = tridiagonal.matvec(lin.precondition(y))
            assert np.max(np.abs(x - y)) <= 1e-10 * np.max(np.abs(y))

    @pytest.mark.parametrize("bordered", [False, True])
    def test_preconditioner_is_even_about_an_even_state(self, grid, grid2d, bordered):
        x = grid.nodes
        u = MembraneState(grid, -0.3 * (1.0 - x * x) ** 2)
        lin = linearize_at(u, 0.7, 1.0, grid2d, bordered=bordered)
        assert lin.field.folded
        n = lin.diag.size
        y = np.random.default_rng(5).normal(size=n + bordered)  # not even
        v = lin.precondition(y)[:n]
        assert np.array_equal(v, v[::-1])
        assert np.max(np.abs(v)) > 0.0

    def test_missed_stop_rule_names_newton_and_iterations(self, monkeypatch, grid, grid2d):
        monkeypatch.setattr(steady, "_KRYLOV_RTOL", 0.0)
        monkeypatch.setattr(steady, "_KRYLOV_ATOL", 0.0)
        with pytest.raises(NoSteadyStateError) as info:
            solve_steady(0.1, 0.1, MembraneState.zero(grid), grid2d=grid2d)
        message = str(info.value)
        n_int = grid.n_nodes - 2
        assert message.startswith("Newton at lambda=0.1: GMRES linear residual")
        assert message.endswith(f"after {n_int} iterations")
        # the linear residual, at roundoff of the right-hand side
        assert 0.0 < info.value.residual < 1e-10

    @pytest.mark.parametrize("depth", [None, 0.3])
    def test_a_step_keeps_its_own_point(self, monkeypatch, depth):
        # the step of one residual evaluation, called after a later one at
        # another point, is the step taken right after its own evaluation
        model = {}

        def spy(residual, *args):
            model["residual"] = residual
            return damped_newton(residual, *args)

        monkeypatch.setattr(steady, "damped_newton", spy)
        grid, grid2d = Grid1D.uniform(16), Grid2D.uniform(16, 16)
        n = grid.n_nodes - 2
        steady._newton(0.2, 1.0, MembraneState.zero(grid), grid2d, 15, 0.05, Counter(), depth)
        x = grid.nodes[1:-1]
        first, later = -0.3 * (1.0 - x * x) * (1.0 + 0.2 * x), -0.2 * (1.0 - x**4)
        rhs = np.ones(n if depth is None else n + 1)
        _, step = model["residual"](first, 0.31)
        right_after = step(rhs)
        _, later_step = model["residual"](later, 0.25)
        assert np.array_equal(step(rhs), right_after)
        assert not np.array_equal(later_step(rhs), right_after)


def flat_newton(lam, guess, floor, max_iter, depth, monkeypatch):
    # the flat limit's voltage-free mode holds the fold, not a depth
    monkeypatch.setattr(small_aspect, "_STEADY0_MAX_ITER", max_iter)
    return small_aspect.steady0(lam, guess=guess, floor=floor, fold=depth is not None)


def full_newton(lam, guess, floor, max_iter, depth, monkeypatch):
    monkeypatch.setattr(steady, "_STEADY_MAX_ITER", max_iter)
    grid2d = Grid2D.uniform(guess.grid.n_cells, guess.grid.n_cells)
    if depth is None:
        return solve_steady(lam, 1.0, guess, grid2d, floor)
    return steady._newton(lam, 1.0, guess, grid2d, max_iter, floor, Counter(), depth=depth)


@pytest.mark.parametrize(
    "model, solve", [("flat-limit Newton", flat_newton), ("Newton", full_newton)]
)
class TestNewtonExits:
    """The failure exits of ``steady.damped_newton``, through either model,
    at a fixed voltage and with the voltage free: the full model at a fixed
    centre depth, the flat limit at its fold."""

    grid = Grid1D.uniform(8)

    @staticmethod
    def label(model, depth, lam=0.2):
        if depth is None:
            return f"{model} at lambda={lam:g}"
        return f"{model} at the fold" if model.startswith("flat") else f"{model} at depth={depth:g}"

    @pytest.mark.parametrize("depth", [None, 0.3])
    def test_guess_below_the_floor(self, model, solve, depth, monkeypatch):
        x = self.grid.nodes
        guess = MembraneState(self.grid, -0.96 * (1.0 - x * x))  # gap 0.04 <= 0.05
        with pytest.raises(DegenerateGeometryError) as info:
            solve(0.2, guess, 0.05, 50, depth, monkeypatch)
        message = f"{self.label(model, depth)}: initial guess already below the touchdown floor"
        assert str(info.value) == message

    @pytest.mark.parametrize("depth", [None, 0.3])
    def test_every_trial_point_at_the_floor(self, model, solve, depth, monkeypatch):
        # the first step deflects the flat membrane, so even its 1/256 lies
        # below a floor a hair under the flat gap of 1
        with pytest.raises(DegenerateGeometryError) as info:
            solve(0.2, MembraneState.zero(self.grid), 1.0 - 1e-12, 50, depth, monkeypatch)
        assert str(info.value) == f"{self.label(model, depth)}: iterates touch down"

    def test_stalled_line_search(self, model, solve, monkeypatch):
        # far above pull-in no step lowers the residual
        with pytest.raises(NoSteadyStateError) as info:
            solve(2.0, MembraneState.zero(self.grid), 0.05, 50, None, monkeypatch)
        residual = info.value.residual
        message = f"{self.label(model, None, 2.0)}: stalled (residual {residual:.3e})"
        assert str(info.value) == message
        assert residual > 1.0

    @pytest.mark.parametrize("depth", [None, 0.3])
    def test_iteration_cap(self, model, solve, depth, monkeypatch):
        with pytest.raises(NoSteadyStateError) as info:
            solve(0.2, MembraneState.zero(self.grid), 0.05, 1, depth, monkeypatch)
        residual = info.value.residual
        message = (
            f"{self.label(model, depth)}: no steady state after 1 iterations "
            f"(residual {residual:.3e})"
        )
        assert str(info.value) == message
        assert residual > steady._NEWTON_TOL


class TestSolveSteady:
    @pytest.mark.parametrize("lam", [-0.1, float("nan")])
    def test_negative_voltage_rejected(self, grid, grid2d, lam):
        with pytest.raises(ValueError, match="lambda must be nonnegative"):
            solve_steady(lam, 0.1, MembraneState.zero(grid), grid2d=grid2d)

    def test_singular_linearization_carries_the_residual(self, monkeypatch):
        # a zero pivot in the tridiagonal preconditioner of the first step
        def singular(*args):
            raise SingularSystemError("zero pivot at row 2")

        monkeypatch.setattr(steady, "solve_tridiagonal", singular)
        guess, grid2d = MembraneState.zero(Grid1D.uniform(8)), Grid2D.uniform(8, 8)
        with pytest.raises(NoSteadyStateError) as info:
            solve_steady(0.2, 1.0, guess, grid2d)
        message = "Newton at lambda=0.2: singular linearization: zero pivot at row 2"
        assert str(info.value) == message
        r, _ = steady_residual(guess, 0.2, 1.0, grid2d)
        assert info.value.residual == float(np.max(np.abs(r))) > 0.0

    def test_zero_voltage_returns_flat(self, grid, grid2d, rng):
        from mems_fbp.transform import random_admissible_state

        guess = random_admissible_state(grid, rng)
        u = solve_steady(0.0, 0.1, guess, grid2d=grid2d).state
        assert np.max(np.abs(u.u)) <= 1e-12

    def test_small_voltage_properties(self, steady_01):
        u = steady_01.u
        assert np.max(u[1:-1]) < 0.0
        assert np.min(u[2:] - 2.0 * u[1:-1] + u[:-2]) > -1e-10
        assert np.max(np.abs(u - u[::-1])) <= 1e-10

    def test_residual_certified(self, steady_01, grid2d):
        r = steady_residual(steady_01, 0.1, 0.1, grid2d)[0]
        assert np.max(np.abs(r)) <= 1e-10

    def test_matches_long_time_evolution(self, grid, grid2d, steady_01):
        p = ModelParams(eps=0.1, lam=0.1, dt=2e-3, equilibrium_tol=1e-8, max_time=30.0)
        traj = run(MembraneState.zero(grid), p, grid2d, thin_every=500)
        assert np.max(np.abs(traj.final.u - steady_01.u)) <= 1e-6

    def test_beyond_pullin_fails(self, grid, grid2d, monkeypatch):
        monkeypatch.setattr(steady, "_STEADY_MAX_ITER", 12)
        with pytest.raises(NoSteadyStateError) as exc_info:
            solve_steady(1.5, 0.1, MembraneState.zero(grid), grid2d=grid2d)
        assert exc_info.value.residual is not None

    def test_stability_of_branch_state(self, grid, grid2d, steady_01):
        # perturbed start relaxes back (local exponential stability)
        pert = 1e-2 * np.sin(np.pi * (grid.nodes + 1.0) / 2.0)
        u0 = MembraneState(grid, steady_01.u - pert)
        p = ModelParams(eps=0.1, lam=0.1, dt=2e-3, equilibrium_tol=1e-8, max_time=30.0)
        traj = run(u0, p, grid2d, thin_every=500)
        assert traj.outcome == "converged"
        assert np.max(np.abs(traj.final.u - steady_01.u)) <= 1e-6

    # guesses near an even state: nudged by an odd 1e-15 or 4e-15, within
    # _EVEN_TOL; a parabola on n_x = 1000, whose nodes are not mirrored
    # exactly; nudged by 1e-11 or 1e-13, beyond _EVEN_TOL
    @pytest.mark.parametrize(
        "n_x, nudge, lam, eps",
        [(128, 1e-15, 0.2, 1.0), (512, 4e-15, 0.2, 1.0), (1000, 0.0, 0.2, 1.0),
         (128, 1e-11, 0.3, 0.1), (512, 1e-13, 0.3, 0.1)],
    )
    def test_near_even_guess_converges_as_on_the_full_operator(
        self, n_x, nudge, lam, eps, monkeypatch
    ):
        # A guess within _EVEN_TOL is folded from the start; Newton starts from
        # its even part, as at 512 an odd part of 4e-15 would leave a residual of
        # about 1e-9, above _NEWTON_TOL.  An uneven guess is solved on the full
        # rectangle until an iterate comes within _EVEN_TOL of even; even steps
        # cannot reduce the odd part of its residual, so GMRES, which solves for
        # the even part alone, would miss its stop rule otherwise.
        grid2d = Grid2D.uniform(n_x, 16)
        x = grid2d.gx.nodes
        odd = np.random.default_rng(1).normal(size=x.size)
        odd = (1.0 - x * x) * (odd - odd[::-1])
        guess = MembraneState(grid2d.gx, -0.1 * (1.0 - x * x) + nudge * odd / np.max(np.abs(odd)))
        near = elliptic.is_even(guess)
        assert near == (nudge < 1e-14) and np.any(guess.u != guess.u[::-1])
        folded, full = Counter(), Counter()
        u = solve_steady(lam, eps, guess, grid2d, counts=folded).state
        with monkeypatch.context() as m:
            m.setattr(steady, "is_even", lambda v: False)
            m.setattr(elliptic, "is_even", lambda v: False)
            ref = solve_steady(lam, eps, guess, grid2d, counts=full).state
        assert folded["folded_solves"] > 0 and (folded["full_solves"] == 0) == near
        for key in ("newton_iters", "jacobians", "krylov_iters"):
            assert folded[key] == full[key], key
        assert np.max(np.abs(u.u - ref.u)) <= 1e-12


class TestContinuation:
    def test_branch_below_fold(self, grid2d):
        for lambda_max, dlambda0 in ((0.3, 0.1), (0.32, 0.08)):
            branch = continue_branch(0.1, lambda_max, dlambda0, n_x=32, n_eta=32)
            lams = np.array([p.lam for p in branch.points])
            # the reported voltages are k * dlambda0, landing on lambda_max
            assert lams.size == round(lambda_max / dlambda0) + 1
            assert np.max(np.abs(lams - dlambda0 * np.arange(lams.size))) <= 1e-12
            assert lams[-1] == lambda_max
            assert branch.fold_estimate is None and branch.fold_interval is None
            gaps = [pt.state.min_gap for pt in branch.points]
            assert all(b <= a for a, b in zip(gaps, gaps[1:]))
            for pt in branch.points[1:]:
                r = steady_residual(pt.state, pt.lam, 0.1, grid2d)[0]
                assert np.max(np.abs(r)) <= 1e-10
                assert np.max(pt.state.u) <= 1e-12
                assert np.max(np.abs(pt.state.u - pt.state.u[::-1])) <= 1e-10

    def test_fold_detection(self, caplog, monkeypatch):
        with caplog.at_level(logging.DEBUG, logger="mems_fbp.steady"):
            branch = continue_branch(1.0, lambda_max=2.0, dlambda0=0.1, n_x=24, n_eta=24)
        assert branch.fold_estimate is not None
        # every failed depth solve is a logged rejection
        rejected = [r for r in caplog.records if "rejected depth" in r.getMessage()]
        diagnostics = branch.diagnostics
        assert diagnostics["rejected_steps"] == len(rejected)
        assert all("residual" in r.getMessage() for r in rejected)
        assert diagnostics["newton_iters"] == sum(pt.newton_iters for pt in branch.points)
        assert diagnostics["jacobians"] > diagnostics["newton_iters"]
        # the located fold is the last point, inside its stated interval
        assert branch.points[-1].lam == branch.fold_estimate
        assert branch.fold_estimate == max(p.lam for p in branch.points)
        lo, hi = branch.fold_interval
        assert lo <= branch.fold_estimate <= hi
        assert hi - lo <= 2 * steady._FOLD_TOL
        assert hi - lo <= 0.1 / 2**9
        assert branch.fold_estimate <= nonexistence_bound(1.0)
        # beyond the bracket the solve fails from the last branch point
        last = branch.points[-1]
        monkeypatch.setattr(steady, "_STEADY_MAX_ITER", 10)
        with pytest.raises(NoSteadyStateError):
            solve_steady(hi + 0.05, 1.0, last.state, grid2d=Grid2D.uniform(24, 24))

    def test_failed_depth_solve_halves_the_step(self, monkeypatch, caplog):
        newton = steady._newton
        depths = []

        def failing_once(*args, depth=None, **kwargs):
            if depth is not None:
                depths.append(depth)
                if len(depths) == 3:  # after the origin's tangent solve at depth 0
                    raise NoSteadyStateError("injected", residual=1.0)
            return newton(*args, depth=depth, **kwargs)

        monkeypatch.setattr(steady, "_newton", failing_once)
        with caplog.at_level(logging.DEBUG, logger="mems_fbp.steady"):
            branch = continue_branch(1.0, lambda_max=2.0, dlambda0=0.1, n_x=8)
        rejected = [r for r in caplog.records if "rejected depth" in r.getMessage()]
        assert branch.diagnostics["rejected_steps"] == len(rejected) == 1
        assert "NoSteadyStateError, residual 1.0" in rejected[0].getMessage()
        step = steady._DEPTH_STEP
        assert depths[:4] == pytest.approx([0.0, step, 2 * step, 1.5 * step], abs=1e-15)
        assert branch.fold_estimate is not None

    def test_fold_converges_under_refinement(self):
        folds = [
            continue_branch(0.1, lambda_max=2.0, dlambda0=0.05, n_x=n).fold_estimate
            for n in (16, 32, 64)
        ]
        order = np.log2((folds[1] - folds[0]) / (folds[2] - folds[1]))
        assert 1.9 <= order <= 2.1
        assert folds[1] == pytest.approx(0.3482489329, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.1, 1.0])
    def test_fold_converges_at_second_order_in_each_direction(self, eps):
        # each grid direction refined alone, the other held at 16 cells: at
        # eps 1 the two errors nearly cancel on square grids, whose observed
        # order then reads about 3
        for cells in (lambda n: dict(n_x=n, n_eta=16), lambda n: dict(n_x=16, n_eta=n)):
            folds = [
                continue_branch(eps, lambda_max=2.0, dlambda0=0.05, **cells(n)).fold_estimate
                for n in (16, 32, 64)
            ]
            assert (folds[1] - folds[0]) / (folds[2] - folds[1]) == pytest.approx(4.0, abs=0.1)

    def test_failed_branch_point_names_eps_and_voltage(self, monkeypatch):
        newton = steady._newton

        def failing_points(*args, depth=None, **kwargs):
            if depth is None:
                raise NoSteadyStateError("Newton stalled", residual=0.25)
            return newton(*args, depth=depth, **kwargs)

        monkeypatch.setattr(steady, "_newton", failing_points)
        with pytest.raises(NoSteadyStateError) as info:
            continue_branch(1.0, lambda_max=2.0, dlambda0=0.1, n_x=8)
        assert str(info.value) == "eps=1: branch point at lambda=0.1 failed: Newton stalled"
        assert info.value.residual == 0.25

    def test_cubic_seeds_take_one_or_two_newton_iterations(self):
        branch = continue_branch(0.1, lambda_max=2.0, dlambda0=0.05, n_x=16)
        assert all(1 <= pt.newton_iters <= 2 for pt in branch.points[1:-1])
        assert branch.diagnostics["krylov_iters"] >= branch.diagnostics["jacobians"]

    @pytest.mark.parametrize("eps", [0.1, 1.0])
    @pytest.mark.parametrize("n", [16, 32])
    def test_fold_tolerance_derivation(self, eps, n, monkeypatch):
        # _FOLD_TOL takes the voltage row of the inverse bordered Jacobian to
        # have a 1-norm of 0.40-0.46 at these folds
        branch = continue_branch(eps, lambda_max=2.0, dlambda0=0.05, n_x=n)
        fold = branch.points[-1]
        grid2d = Grid2D.uniform(n, n)
        # J in odd directions too: the full factor, not the half one of the even fold
        with monkeypatch.context() as m:
            m.setattr(elliptic, "is_even", lambda v: False)
            jac = dense_jacobian(fold.state, fold.lam, eps, grid2d)
        source = steady_residual(fold.state, 0.0, eps, grid2d)[0] - steady_residual(
            fold.state, 1.0, eps, grid2d
        )[0]
        m = jac.shape[0]
        bordered = np.zeros((m + 1, m + 1))
        bordered[:m, :m] = jac
        bordered[:m, m] = -source
        bordered[m, m // 2] = 1.0
        row = np.linalg.inv(bordered)[m]
        assert np.sum(np.abs(row)) <= 0.5
        if n == 32:
            expected = {0.1: 0.34824893288292, 1.0: 0.24238884297202}[eps]
            assert branch.fold_estimate == pytest.approx(expected, abs=1e-10)

    def test_rejects_bad_step(self):
        for dlambda0 in (-0.05, float("nan")):
            with pytest.raises(ValueError, match="dlambda0"):
                continue_branch(0.1, 1.0, dlambda0)

    @pytest.mark.parametrize("eps", [0.1, 1.0])
    def test_folded_branch_matches_the_full_one(self, eps, monkeypatch):
        # oracle: the same branch with every potential solved on the full rectangle
        folded = continue_branch(eps, 2.0, 0.05, n_x=16)
        with monkeypatch.context() as m:
            m.setattr(elliptic, "is_even", lambda v: False)
            full = continue_branch(eps, 2.0, 0.05, n_x=16)
        assert folded.diagnostics["full_solves"] == 0
        assert full.diagnostics["folded_solves"] == 0
        assert folded.diagnostics["folded_solves"] == full.diagnostics["full_solves"] > 0
        solves = ("folded_solves", "full_solves")
        assert {k: v for k, v in folded.diagnostics.items() if k not in solves} == {
            k: v for k, v in full.diagnostics.items() if k not in solves
        }
        assert abs(folded.fold_estimate - full.fold_estimate) <= 1e-12


# Folds of the n x n branches (lambda_max 2, dlambda0 0.05) as located by
# the parabolic fold search of a march at depth step 0.05, to _FOLD_TOL.
GUARD_FOLDS = {
    8: {0.1: 0.3459419099366, 0.5: 0.3128150255151, 1.0: 0.2425036615350, 2.0: 0.1404833138089,
        3.0: 0.0964616752896},
    16: {0.1: 0.3477894969955, 0.5: 0.3138959663634, 1.0: 0.2424005454283, 2.0: 0.1388555841529,
         3.0: 0.0937625880942},
    32: {0.1: 0.3482489328830, 0.5: 0.3141682678708, 1.0: 0.2423888429720, 2.0: 0.1384536534199,
         3.0: 0.0930308898609},
    64: {0.1: 0.3483636447018, 0.5: 0.3142366319582, 1.0: 0.2423875519040, 2.0: 0.1383553891233,
         3.0: 0.0928453555205},
}


@pytest.mark.parametrize("n", sorted(GUARD_FOLDS))
def test_depth_step_guard(n):
    # at _DEPTH_STEP the Hermite-seeded march rejects no step, finds the same
    # folds and seeds every fixed-voltage point within 2 Newton steps (1 at
    # eps 0.1), as the step of 0.05 did
    for eps, pinned in GUARD_FOLDS[n].items():
        branch = continue_branch(eps, 2.0, 0.05, n_x=n)
        assert branch.diagnostics["rejected_steps"] == 0, eps
        assert abs(branch.fold_estimate - pinned) <= steady._FOLD_TOL, eps
        iters = [pt.newton_iters for pt in branch.points[1:-1]]
        assert 0 < len(iters) and max(iters) <= (1 if eps == 0.1 else 2), eps


def depth_solve(n, eps):
    """The full model's depth solve on the n x n grid, from the flat
    membrane or a given guess, as ``continue_branch`` makes it."""
    grid2d = Grid2D.uniform(n, n)

    def solve(d, guess=None):
        guess = MembraneState.zero(grid2d.gx) if guess is None else guess
        return steady._newton(0.2, eps, guess, grid2d, 15, 0.05, Counter(), depth=d)

    return solve


def branch_vector(pt):
    """(interior deflections, voltage) of a branch point, ordered as its tangent."""
    return np.concatenate((pt.state.u[1:-1], [pt.lam]))


class TestTangent:
    @pytest.mark.parametrize("eps", [0.1, 1.0])
    def test_matches_central_differences(self, eps):
        # the tangent at d = 0.2 against central differences of depth solves
        # at d -/+ delta, which err by delta^2 / 6 times the third derivative:
        # the error over delta^2 measured 1.35 at eps 0.1 and 3.8 at eps 1, so
        # it is below 5 delta^2 and falls fourfold from delta = 0.02 to 0.01
        # (a Newton residual of 1e-10 adds at most about 1e-8)
        solve = depth_solve(16, eps)
        tangent = solve(0.2).tangent
        assert tangent[7] == pytest.approx(-1.0, abs=1e-12)  # the held centre node
        errors = []
        for delta in (0.02, 0.01):
            difference = branch_vector(solve(0.2 + delta)) - branch_vector(solve(0.2 - delta))
            errors.append(np.max(np.abs(difference / (2.0 * delta) - tangent)))
        assert errors[1] <= 5.0 * 0.01**2
        assert 3.8 <= errors[0] / errors[1] <= 4.2

    @pytest.mark.parametrize("eps", [0.1, 1.0])
    def test_fold_tangent_spans_the_null_space(self, eps, monkeypatch):
        n = 16
        grid2d = Grid2D.uniform(n, n)
        fold = continue_branch(eps, 2.0, 0.05, n_x=n).points[-1]
        d = -fold.state.u[n // 2]
        # the stop rule of the fold search bounds the slope there by
        # 2 |lambda''| _FOLD_XATOL, lambda'' from the tangents 1e-3 away
        solve = depth_solve(n, eps)
        curvature = (solve(d + 1e-3, fold.state).slope - solve(d - 1e-3, fold.state).slope) / 2e-3
        assert abs(fold.slope) <= 2.0 * abs(curvature) * steady._FOLD_XATOL
        # the deflection part phi solves J phi = slope * h up to the tangent's
        # GMRES stop rule, a 2-norm of 1e-11, so ||J phi|| is at most 1.05
        # |slope| ||h|| (measured 1.0001); J in odd directions too, from the
        # full factor
        with monkeypatch.context() as m:
            m.setattr(elliptic, "is_even", lambda v: False)
            jac = dense_jacobian(fold.state, fold.lam, eps, grid2d)
        source = steady_residual(fold.state, 0.0, eps, grid2d)[0] - steady_residual(
            fold.state, 1.0, eps, grid2d
        )[0]
        phi = fold.tangent[:-1]
        assert np.max(np.abs(jac @ phi)) <= 1.05 * abs(fold.slope) * np.max(np.abs(source))


def march_voltage(voltage, slope):
    """``march_to_fold`` on the branch lambda = voltage(d), solved exactly
    by a PDE-free depth solve whose tangent ends with dlambda/dd =
    slope(d); returns (fold, fold-search solves)."""

    def solve(d, lam, guess):
        return BranchPoint(voltage(d), guess, 0, 0.0, np.array([0.0, -1.0, 0.0, slope(d)]))

    counts = Counter()
    flat = MembraneState.zero(Grid1D.uniform(4))
    samples, fold = march_to_fold(solve, (0.0, 0.0, flat), np.inf, 0.05, "test", counts)
    assert counts["rejected_steps"] == 0 and samples[-1] == fold
    return fold, counts["fold_solves"]


def clamp_voltage(d):
    """The closed-form flat-limit branch: the voltage at centre depth d."""
    return small_aspect._clamp_voltage(1.0 - d)


def clamp_slope(d):
    """dlambda/dd of ``clamp_voltage``: a central difference at step 1e-6,
    one-sided at d = 0, within about 1e-10 of it off the origin."""
    lo = max(d - 1e-6, 0.0)
    return (clamp_voltage(d + 1e-6) - clamp_voltage(lo)) / (d + 1e-6 - lo)


class TestFoldSearch:
    def test_closed_form_flat_limit_branch(self):
        (_, fold), solves = march_voltage(clamp_voltage, clamp_slope)
        assert fold.lam == pytest.approx(0.350004119343, abs=1e-12)
        assert solves <= 6

    @settings(max_examples=200, deadline=None)
    @given(
        peak=st.floats(0.2, 0.8),
        curvature=st.floats(1.0, 10.0),
        skew=st.floats(-0.25, 0.25),
    )
    # a peak near the midpoint of two depths 0.05 apart, at the largest skew
    @example(peak=0.27482, curvature=4.0, skew=0.25)
    def test_single_peaked_branches(self, peak, curvature, skew):
        # lambda'(d) = 0 only at the peak in [0, 1]: the other root lies
        # 1 / (3 |skew|) >= 4/3 away
        def q(d):
            e = d - peak
            return -0.5 * curvature * e * e + skew * curvature * e**3

        def dq(d):
            e = d - peak
            return -curvature * e + 3.0 * skew * curvature * e * e

        (depth, fold), solves = march_voltage(lambda d: q(d) - q(0.0), dq)
        assert abs(depth - peak) <= 1e-5
        assert abs(fold.lam + q(0.0)) <= 1e-10
        assert solves <= 8

    def test_flat_top_returns_the_middle_sample(self):
        # a plateau at 0.3 over depths 0.25-0.45: the march stops at 0.5,
        # the first falling sample; the Hermite maximum on [0.4, 0.5] is the
        # level end 0.4, and one solve there ends the search
        (depth, fold), solves = march_voltage(
            lambda d: min(0.3, 1.2 * d, 0.3 - (d - 0.45)),
            lambda d: 1.2 if d < 0.25 else 0.0 if d < 0.45 else -1.0,
        )
        assert fold.lam == 0.3 and 0.4 <= depth <= 0.45
        assert solves == 1

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(steady, "_FOLD_MAX_SOLVES", 1)
        with pytest.raises(NonConvergenceError) as info:
            march_voltage(clamp_voltage, clamp_slope)
        message = str(info.value)
        assert "test: fold search unsettled after 1 solves" in message
        assert "in depth [0.3, 0.388349" in message and "best lambda=0.35000" in message
        assert 0.0 < info.value.residual < 0.05

    def test_failed_start_names_the_start(self):
        def solve(d, lam, guess):
            raise NoSteadyStateError("Newton stalled", residual=0.5)

        start = (0.2, 0.1, MembraneState.zero(Grid1D.uniform(4)))
        with pytest.raises(NoSteadyStateError) as info:
            march_to_fold(solve, start, np.inf, 0.05, "test", Counter())
        assert str(info.value) == "test: start failed at depth=0.2: Newton stalled"
        assert info.value.residual == 0.5

    def test_start_past_the_fold_raises(self):
        # a falling first sample would reach the fold search as the rising
        # end of its bracket and give a wrong fold without an error; the full
        # model's depth solve at eps 1 on 8x8, whose fold lies at depth 0.3066
        solve = depth_solve(8, 1.0)
        start = (0.5, 0.2, MembraneState.zero(Grid1D.uniform(8)))
        with pytest.raises(NonConvergenceError) as info:
            march_to_fold(
                lambda d, lam, guess: solve(d, guess), start, np.inf, 0.05, "eps=1", Counter()
            )
        message = str(info.value)
        assert message.startswith("eps=1: start at depth=0.5 lies past the fold")
        assert "(dlambda/dd=-0.35" in message

    def test_failed_solve_names_the_fold_search(self):
        def voltage(d):
            if abs(d / 0.05 - round(d / 0.05)) > 1e-9:  # off the march grid
                raise NoSteadyStateError("Newton stalled", residual=0.5)
            return clamp_voltage(d)

        with pytest.raises(NoSteadyStateError) as info:
            march_voltage(voltage, clamp_slope)
        assert str(info.value).startswith("test: fold search failed at depth=0.38")
        assert str(info.value).endswith(": Newton stalled")
        assert info.value.residual == 0.5


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
        with pytest.raises(ValueError):
            nonexistence_bound(float("nan"))

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
            u = solve_steady(0.2, 0.1, MembraneState.zero(g2.gx), grid2d=g2).state
            violations.append(max(0.0, 1.0 - trace_lower_bound_check(u, 0.1, g2)))
        # the discrete trace stays at or above 1; any violation must shrink
        # by roughly the discretization order under doubling
        for coarse, fine in zip(violations, violations[1:]):
            assert fine <= max(coarse / 3.0, 1e-12)
