import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize_scalar

from mems_fbp import criteria, small_aspect, steady
from mems_fbp.errors import DegenerateGeometryError, NoSteadyStateError, NonConvergenceError
from mems_fbp.evolution import ModelParams
from mems_fbp.numerics import Grid1D, Grid2D, solve_tridiagonal
from mems_fbp.small_aspect import (
    limit_study,
    psi0,
    pullin0_detail,
    run0,
    shooting_pullin,
    steady0,
)
from mems_fbp.steady import BranchPoint, damped_newton, march_to_fold
from mems_fbp.transform import MembraneState


@pytest.fixture(scope="module")
def grid():
    return Grid1D.uniform(32)


class TestExplicitPotential:
    def test_flat_membrane(self, grid):
        g2 = Grid2D.uniform(32, 16)
        psi = psi0(MembraneState.zero(grid), g2)
        # psi = 1 + z = eta on the strip
        assert np.ma.allclose(psi, np.broadcast_to(g2.eta_nodes, g2.shape))
        assert not psi.mask.any()

    def test_grounded_plate(self, grid):
        g2 = Grid2D.uniform(32, 16)
        x = grid.nodes
        psi = psi0(MembraneState(grid, -0.4 * (1.0 - x * x)), g2)
        assert np.all(psi[:, 0] == 0.0)  # z = -1

    def test_midplane_value_and_mask(self, grid):
        # nearly-constant deflection -1/2: at z = -1/2 the potential is 1
        x = grid.nodes
        u = -0.5 * np.ones_like(x) * np.minimum(1.0, 50 * (1 - np.abs(x)))
        state = MembraneState(grid, u)
        g2 = Grid2D.uniform(32, 16)
        psi = psi0(state, g2)
        j = 8  # eta = 0.5 -> z = -0.5
        assert g2.eta_nodes[j] == 0.5
        interior = np.abs(x) <= 0.9
        np.testing.assert_allclose(psi.data[interior, j], 1.0)
        assert not psi.mask[interior, j].any()
        # above the membrane is masked
        assert psi.mask[interior, -1].all()

    def test_touchdown_rejected(self, grid):
        x = grid.nodes
        with pytest.raises(DegenerateGeometryError):
            psi0(MembraneState(grid, -1.01 * (1 - x * x)), Grid2D.uniform(32, 16))


class TestFlatLimitRun:
    def test_zero_voltage_stays_flat(self, grid):
        p = ModelParams(eps=1.0, lam=0.0, dt=1e-3)
        traj = run0(MembraneState.zero(grid), p)
        assert traj.outcome == "converged"
        assert np.max(np.abs(traj.final.u)) == 0.0

    def test_subcritical_settles(self, grid):
        p = ModelParams(eps=1.0, lam=0.3, dt=1e-3, equilibrium_tol=1e-8, max_time=30.0)
        traj = run0(MembraneState.zero(grid), p)
        assert traj.outcome == "converged"
        u = traj.final.u
        assert np.max(u[1:-1]) < 0.0
        assert np.min(u[2:] - 2.0 * u[1:-1] + u[:-2]) > -1e-10
        assert np.max(np.abs(u - u[::-1])) <= 1e-10

    def test_supercritical_touches_down(self, grid):
        p = ModelParams(eps=1.0, lam=5.0, dt=1e-3, max_time=5.0)
        traj = run0(MembraneState.zero(grid), p)
        assert traj.outcome == "touchdown"
        assert traj.touchdown_time is not None


class TestFlatSteady:
    def test_zero_voltage(self):
        u = steady0(0.0, MembraneState.zero(Grid1D.uniform(64))).state
        assert np.max(np.abs(u.u)) <= 1e-12

    def test_matches_long_time_run(self, grid):
        u_star = steady0(0.3, MembraneState.zero(Grid1D.uniform(32))).state
        p = ModelParams(eps=1.0, lam=0.3, dt=1e-3, equilibrium_tol=1e-9, max_time=40.0)
        traj = run0(MembraneState.zero(grid), p)
        assert np.max(np.abs(u_star.u - traj.final.u)) <= 1e-8

    @pytest.mark.parametrize("n_x", [63, 64])
    @pytest.mark.parametrize("depth", [None, 0.3, 0.6])
    def test_matches_the_plain_expressions(self, n_x, depth, monkeypatch):
        # the residual and Newton step as plain expressions, one new array per
        # operation: steady0's must give the same bits, at a point off the
        # branch and along its whole solve
        grid = Grid1D.uniform(n_x)
        n = grid.n_nodes - 2
        h2 = grid.h * grid.h
        off = np.full(n - 1, 1.0 / h2)

        def residual(u, lam):
            full = np.concatenate(([0.0], u, [0.0]))
            return (full[2:] - 2.0 * u + full[:-2]) / h2 - lam / (1.0 + u) ** 2

        def step(u, lam, r):
            diag = -2.0 / h2 + 2.0 * lam / (1.0 + u) ** 3
            if depth is None:
                return solve_tridiagonal(off, diag, off, -r)
            a, b = solve_tridiagonal(off, diag, off, np.array((r[:n], 1.0 / (1.0 + u) ** 2)).T).T
            dlam = (a[n // 2] - r[n]) / b[n // 2]
            return np.concatenate((b * dlam - a, [dlam]))

        model = {}

        def spy(residual, step, *args):
            model["residual"], model["step"] = residual, step
            return damped_newton(residual, step, *args)

        monkeypatch.setattr(small_aspect, "damped_newton", spy)
        guess = MembraneState.zero(grid)
        got = steady0(0.3, guess, depth=depth)

        x = grid.nodes[1:-1]
        u, lam = -0.4 * (1.0 - x * x) * (1.0 + 0.3 * x), 0.31
        r = model["residual"](u, lam)  # a step follows the residual at its point
        assert np.array_equal(r, residual(u, lam))
        if depth is not None:
            r = np.concatenate((r, [u[n // 2] + depth]))
        assert np.array_equal(model["step"](u, lam, r), step(u, lam, r))

        tol = max(1e-10, np.finfo(float).eps / h2)
        want = damped_newton(residual, step, guess, 0.3, tol, 50, 0.05, "reference", depth)
        if depth is not None:
            assert got.lam == want.lam
        assert np.array_equal(got.state.u, want.state.u)

    def test_residual_contract(self):
        u = steady0(0.25, MembraneState.zero(Grid1D.uniform(64)), tol=1e-11).state
        h2 = u.grid.h**2
        d2 = (u.u[2:] - 2 * u.u[1:-1] + u.u[:-2]) / h2
        res = d2 - 0.25 / (1.0 + u.u[1:-1]) ** 2
        assert np.max(np.abs(res)) <= 1e-11

    def test_beyond_pullin_fails(self):
        with pytest.raises(NoSteadyStateError):
            steady0(0.5, MembraneState.zero(Grid1D.uniform(64)))

    def test_depth_mode_matches_fixed_voltage(self):
        # with the centre depth held, the voltage is found; solving at that
        # voltage returns the same state
        point = steady0(0.3, MembraneState.zero(Grid1D.uniform(64)), depth=0.2)
        state, lam = point.state, point.lam
        assert state.u[32] == pytest.approx(-0.2, abs=1e-14)
        assert 0.0 < lam < FLAT_PULLIN
        fixed = steady0(lam, state).state
        assert np.max(np.abs(fixed.u - state.u)) <= 1e-10


def pullin_start(n_x):
    """The start (depth, voltage, state) of ``pullin0_detail``'s march."""
    return small_aspect._continuum_start(Grid1D.uniform(n_x), small_aspect._PULLIN_START_DEPTH)


def flat_march(start):
    """``march_to_fold`` on ``pullin0_detail``'s depth solve from ``start``;
    returns (samples, fold)."""
    return march_to_fold(
        lambda d, lam, guess: steady0(lam, guess, floor=small_aspect._PULLIN_FLOOR, depth=d),
        start, np.inf, small_aspect._PULLIN_FLOOR, "flat-limit pull-in", Counter(),
    )


def flat_branch_vector(pt):
    """(interior deflections, voltage) of a branch point, ordered as its tangent."""
    return np.concatenate((pt.state.u[1:-1], [pt.lam]))


@pytest.mark.parametrize("n_x", [64, 512])
class TestFlatTangent:
    def test_matches_central_differences(self, n_x):
        # the tangent at d = 0.2 against central differences of depth solves
        # at d -/+ delta, which err by delta^2 / 6 times the third derivative:
        # the error over delta^2 measured 1.31 at n_x 64 and 512, so it is
        # below 2 delta^2 and falls fourfold from delta = 0.02 to 0.01
        def solve(d):
            return steady0(0.2, MembraneState.zero(Grid1D.uniform(n_x)), depth=d)

        tangent = solve(0.2).tangent
        assert tangent[n_x // 2 - 1] == pytest.approx(-1.0, abs=1e-12)  # the held centre
        errors = []
        for delta in (0.02, 0.01):
            difference = flat_branch_vector(solve(0.2 + delta)) - flat_branch_vector(
                solve(0.2 - delta)
            )
            errors.append(np.max(np.abs(difference / (2.0 * delta) - tangent)))
        assert errors[1] <= 2.0 * 0.01**2
        assert 3.9 <= errors[0] / errors[1] <= 4.1

    def test_fold_tangent_spans_the_null_space(self, n_x):
        # the fold that pullin0_detail locates, from the same march and start
        _, (d, fold) = flat_march(pullin_start(n_x))
        assert fold.lam == pullin0_detail(1e-3, n_x=n_x).lambda_star
        # the stop rule of the fold search bounds the slope there by
        # 2 |lambda''| _FOLD_XATOL, lambda'' from the tangents 1e-3 away
        near = [steady0(fold.lam, guess=fold.state, depth=d + s).slope for s in (1e-3, -1e-3)]
        curvature = (near[0] - near[1]) / 2e-3
        assert abs(fold.slope) <= 2.0 * abs(curvature) * steady._FOLD_XATOL
        # the deflection part phi solves T phi = slope * h with T the dense
        # Jacobian and h = 1/(1+u)^2, up to the roundoff of the tridiagonal
        # solve (3.5e-11 at n_x 512, 0.7 % of |slope| ||h||)
        u = fold.state.u[1:-1]
        h2 = fold.state.grid.h ** 2
        off = np.full(u.size - 1, 1.0 / h2)
        jac = np.diag(-2.0 / h2 + 2.0 * fold.lam / (1.0 + u) ** 3) + np.diag(off, 1) + np.diag(
            off, -1
        )
        phi = fold.tangent[:-1]
        source = 1.0 / (1.0 + u) ** 2
        assert np.max(np.abs(jac @ phi)) <= 1.05 * abs(fold.slope) * np.max(np.abs(source))


# pull-in voltage of u'' = lam/(1+u)^2 on (-1, 1), u(+-1) = 0
FLAT_PULLIN = 0.350004119343
# folds of its second-order discretisation on 256 and 512 cells, by a
# centre-out march of the symmetric discrete solution
FLAT_FOLD_256 = 0.3500016756410
FLAT_FOLD_512 = 0.3500035084199


@pytest.fixture(scope="module")
def detail():
    return pullin0_detail(1e-3, n_x=256)


class TestPullin:
    def test_bracket_contract(self, detail):
        # the bracket is the located fold -/+ the stated bound; it holds the
        # discrete fold, with a steady state below it and none above it
        lo, hi = detail.bracket
        tol = small_aspect._PULLIN_TOL
        assert (lo, hi) == (detail.lambda_star - tol, detail.lambda_star + tol)
        assert tol <= 1e-8
        assert lo <= FLAT_FOLD_256 <= hi
        steady0(lo - 1e-3, MembraneState.zero(Grid1D.uniform(256)))  # succeeds
        with pytest.raises((NoSteadyStateError, DegenerateGeometryError)):
            steady0(hi + 1e-3, MembraneState.zero(Grid1D.uniform(256)))

    def test_shooting_agreement(self, detail):
        assert detail.shooting_value is not None
        assert abs(detail.lambda_star - detail.shooting_value) <= 2e-3

    def test_known_threshold_region(self, detail):
        # the threshold of u'' = lam/(1+u)^2 on (-1,1) sits near 0.35
        assert 0.34 <= detail.lambda_star <= 0.36

    def test_solvable_upper_bracket_rejected(self, monkeypatch):
        # a branch whose voltage rises up to the touchdown floor has no fold
        # to locate; the error names the phase and where the march ended
        monkeypatch.setattr(
            small_aspect,
            "steady0",
            lambda lam, guess, depth=None, **kw: BranchPoint(
                depth, guess, 0, 0.0, np.eye(guess.grid.n_nodes - 1)[-1]
            ),
        )
        with pytest.raises(
            NonConvergenceError, match="pull-in search.*depth=0.938347, lambda=0.938347"
        ):
            pullin0_detail(1e-3, n_x=32)

    @pytest.mark.parametrize("tol", [0.0, -1e-4, float("nan")])
    def test_tolerance_must_be_positive(self, tol):
        # a NaN bound would pass the shooting cross-check vacuously
        with pytest.raises(ValueError, match="tol_lambda must be positive"):
            pullin0_detail(tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            shooting_pullin(tol)

    @pytest.mark.parametrize("tol_lambda", [1e-3, 1e-4, 1e-5])
    def test_discrete_fold_whatever_the_tolerance(self, tol_lambda):
        result = pullin0_detail(tol_lambda, n_x=512)
        assert abs(result.lambda_star - FLAT_FOLD_512) <= small_aspect._PULLIN_TOL
        assert result.diagnostics["failed_solves"] == 0

    def test_converges_under_refinement(self):
        errors = [
            abs(pullin0_detail(1e-4, n_x=n).lambda_star - FLAT_PULLIN) for n in (128, 256, 512)
        ]
        orders = np.log2([errors[0] / errors[1], errors[1] / errors[2]])
        assert np.all((1.9 <= orders) & (orders <= 2.1))

    @settings(max_examples=30, deadline=None)
    @given(n_x=st.integers(8, 512))
    def test_fold_lags_the_pullin_by_0_04_h2(self, n_x):
        # the second-order discrete fold lies 0.0400 h^2 below the exact
        # pull-in to leading order, odd n_x (no node at x = 0) included:
        # measured 0.04026 at n_x = 8, 0.04021 at 9, 0.04005 at 33 and
        # 0.040038 at 256; the located fold is within _PULLIN_TOL of it
        h2 = (2.0 / n_x) ** 2
        lag = (FLAT_PULLIN - pullin0_detail(1e-4, n_x=n_x).lambda_star) / h2
        slack = small_aspect._PULLIN_TOL / h2
        assert 0.0400 - slack <= lag <= 0.0403 + slack

    def test_search_work_is_pinned(self):
        # the depth solves and Newton steps of one search at the benchmark's
        # n_x: a change meant to leave the algorithm alone must keep them, and
        # a change to the search updates them on purpose
        counts = pullin0_detail(1e-4, n_x=512).diagnostics
        pinned = {
            "solves": 3, "fold_solves": 1, "failed_solves": 0, "newton_iters": 5,
            "tangent_solves": 3, "start_depth": small_aspect._PULLIN_START_DEPTH,
        }
        assert {key: counts[key] for key in pinned} == pinned

    @pytest.mark.parametrize("n_x", [3, 4, 5, 6, 7, 8, 16, 64, 512, 2048, 8192])
    def test_start_agrees_with_the_march_from_flat(self, n_x):
        # the start near the continuum fold rises, reaches the fold in at
        # most 4 depth solves and finds the fold of the march from the flat
        # membrane: the two searches differ by 2.2e-11 at most (n_x 4)
        result = pullin0_detail(1e-4, n_x=n_x)
        counts = result.diagnostics
        assert counts["solves"] <= 4 and counts["failed_solves"] == 0
        samples, _ = flat_march(pullin_start(n_x))
        assert samples[0][0] == counts["start_depth"] and samples[0][1].slope > 0.0
        _, (_, fold) = flat_march((0.0, 0.0, MembraneState.zero(Grid1D.uniform(n_x))))
        assert abs(result.lambda_star - fold.lam) <= 1e-10

    def test_start_past_the_fold_raises(self):
        # a falling first sample would reach the fold search as the rising
        # end of its bracket and give a wrong fold without an error
        depth = small_aspect._CONTINUUM_FOLD_DEPTH + 0.05
        start = small_aspect._continuum_start(Grid1D.uniform(64), depth)
        with pytest.raises(NonConvergenceError) as info:
            flat_march(start)
        message = str(info.value)
        assert message.startswith("flat-limit pull-in: start at depth=0.43834672 lies past")
        assert "(dlambda/dd=-0.1" in message

    def test_continuum_fold_depth_is_pinned(self):
        # the maximizer of the closed-form voltage, by a root of its slope:
        # the voltage is flat to roundoff within sqrt(eps_mach / 1.8) = 1e-8
        # of its maximum, so a maximization of it resolves the depth to 1e-8
        # only; the root of a central difference at step 1e-5 lies 3.7e-11
        # from that of the exact slope
        def slope(d):
            return clamp_voltage(d + 1e-5) - clamp_voltage(d - 1e-5)

        root = brentq(slope, 0.3, 0.5, xtol=1e-13)
        assert abs(small_aspect._CONTINUUM_FOLD_DEPTH - root) <= 1e-9
        peak = minimize_scalar(
            lambda d: -clamp_voltage(d), bounds=small_aspect._SHOOTING_DEPTHS,
            method="bounded", options={"xatol": 1e-10},
        ).x
        assert abs(small_aspect._CONTINUUM_FOLD_DEPTH - peak) <= 1e-8

    def test_continuum_start_is_the_continuum_solution(self):
        # the seed solves the continuum problem: its nodal values match a
        # numerical shot from the centre to 1e-9, ends clamped
        depth, lam, state = small_aspect._continuum_start(
            Grid1D.uniform(64), small_aspect._PULLIN_START_DEPTH
        )
        assert depth == small_aspect._PULLIN_START_DEPTH
        assert lam == clamp_voltage(depth)
        x = state.grid.nodes[32:]
        shot = solve_ivp(
            lambda _, y: [y[1], lam / (1.0 + y[0]) ** 2], (0.0, 1.0), [-depth, 0.0],
            t_eval=x, rtol=1e-12, atol=1e-14,
        )
        assert np.max(np.abs(shot.y[0] - state.u[32:])) <= 1e-9
        assert state.u[0] == state.u[-1] == 0.0
        assert np.array_equal(state.u, state.u[::-1])

    def test_fine_grid_above_roundoff(self):
        # at n_x = 2048 a 1e-10 residual is below the roundoff of the
        # second difference; the discretisation error there is below 1e-7
        result = pullin0_detail(1e-4, n_x=2048)
        assert abs(result.lambda_star - FLAT_PULLIN) <= 1e-4 + 1e-7


def clamp_voltage(depth: float) -> float:
    """The closed-form flat-limit voltage at centre depth ``depth``."""
    return small_aspect._clamp_voltage(1.0 - depth)


def _numerical_shot_voltage(depth: float) -> float:
    """Voltage whose solution from the axis with u(0) = -depth, u'(0) = 0
    reaches u(1) = 0, by integrating the ODE numerically: the reference
    for the closed form of ``shooting_pullin``."""

    def endpoint(lam: float) -> float:
        sol = solve_ivp(
            lambda _, y: [y[1], lam / (1.0 + y[0]) ** 2],
            (0.0, 1.0),
            [-depth, 0.0],
            rtol=1e-10,
            atol=1e-12,
        )
        return float(sol.y[0, -1])

    hi = 0.1
    while endpoint(hi) < 0.0:
        hi *= 2.0
    return brentq(endpoint, 1e-12, hi, xtol=1e-13)


class TestExactShooting:
    @pytest.mark.parametrize("depth", [0.05, 0.2, 0.39, 0.6, 0.95])
    def test_matches_numerical_shot(self, depth):
        assert small_aspect._clamp_voltage(1.0 - depth) == pytest.approx(
            _numerical_shot_voltage(depth), abs=1e-8
        )

    def test_within_tol_of_the_maximum(self):
        peak = -minimize_scalar(
            lambda d: -_numerical_shot_voltage(d),
            bounds=small_aspect._SHOOTING_DEPTHS,
            method="bounded",
            options={"xatol": 1e-5},
        ).fun
        assert peak == pytest.approx(FLAT_PULLIN, abs=1e-9)
        for tol in (1e-2, 1e-3, 1e-5, 1e-7):
            assert abs(shooting_pullin(tol) - peak) <= tol


def test_folds_approach_flat_limit_pullin(detail):
    """Cross-module study: the continuation fold tends to the flat-limit
    pull-in voltage as the aspect ratio shrinks."""
    from mems_fbp.steady import continue_branch

    gaps = []
    for eps in (0.2, 0.1, 0.05):
        branch = continue_branch(eps, lambda_max=1.0, dlambda0=0.05, n_x=32, n_eta=32)
        assert branch.fold_estimate is not None
        gaps.append(abs(branch.fold_estimate - detail.lambda_star))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestDegenerationConsistency:
    def test_stepwise_match(self):
        ok, detail = criteria.degeneration(32, 100)
        assert ok, detail


class TestLimitStudy:
    def test_zero_voltage_zero_errors(self, grid):
        comp = limit_study(MembraneState.zero(grid), 0.0, [0.2, 0.1], 0.05,
                           n_eta=16, dt=1e-3)
        assert max(comp.sup_errors) <= 1e-12
        assert max(comp.potential_sup_errors) <= 1e-12

    def test_errors_decrease_with_eps(self, grid):
        comp = limit_study(MembraneState.zero(grid), 0.5, [0.2, 0.1], 0.2,
                           n_eta=16, dt=2e-3)
        assert comp.tau == pytest.approx(0.2)
        assert comp.sup_errors[1] < comp.sup_errors[0]
        assert comp.potential_sup_errors[1] < comp.potential_sup_errors[0]

    def test_nonpositive_states_throughout(self, grid):
        p = ModelParams(eps=1.0, lam=0.4, dt=1e-3, max_time=0.2)
        traj = run0(MembraneState.zero(grid), p, thin_every=1)
        assert all(np.max(s.u) <= 1e-12 for s in traj.states)

    def test_horizon_shortening_warns(self, grid):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            comp = limit_study(MembraneState.zero(grid), 3.0, [0.1], 2.0,
                               n_eta=16, dt=1e-3)
        assert comp.tau < 2.0
        assert any("shortened" in str(w.message) for w in caught)

    def test_no_potential_sample_reads_nan(self):
        # touchdown cuts the horizon before the first sample time, 2.0 / 4
        with pytest.warns(UserWarning, match="shortened"):
            comp = limit_study(MembraneState.zero(Grid1D.uniform(32)), 3.0, [0.1], 2.0, n_eta=16)
        assert comp.tau == pytest.approx(0.114)
        assert comp.potential_errors == [[]]
        sup = comp.potential_sup_errors
        assert len(sup) == 1 and np.isnan(sup[0])

    def test_positive_initial_data_rejected(self, grid):
        x = grid.nodes
        bump = MembraneState(grid, 0.1 * (1.0 - x * x))
        with pytest.raises(ValueError):
            limit_study(bump, 0.5, [0.1], 0.1)

    def test_start_at_the_floor_compares_nothing(self, grid):
        x = grid.nodes
        at_floor = MembraneState(grid, -0.96 * (1.0 - x * x))  # gap 0.04 <= 0.05
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            comp = limit_study(at_floor, 0.5, [0.2, 0.1], 0.05, n_eta=16, dt=1e-3)
        assert comp.sup_errors == [0.0, 0.0]
        assert comp.tau == 0.0 and comp.horizon_shortened
        assert [c["steps"] for c in comp.diagnostics] == [0, 0]

    def test_tau_below_one_step_rejected(self, grid):
        with pytest.raises(ValueError, match="tau"):
            limit_study(MembraneState.zero(grid), 0.5, [0.1], 4e-4, dt=1e-3)

    def test_no_aspect_ratio_rejected(self, grid):
        with pytest.raises(ValueError, match="eps_list must not be empty"):
            limit_study(MembraneState.zero(grid), 0.5, [], 0.1)

    def test_tau_rounded_to_whole_steps_is_not_shortened(self, grid):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            comp = limit_study(MembraneState.zero(grid), 0.5, [0.1], 0.0333, n_eta=16, dt=1e-3)
        assert comp.tau == pytest.approx(0.033)
        assert not comp.horizon_shortened and not caught
        assert comp.diagnostics[0]["steps"] == 33

    def test_diagnostics_count_each_run(self, grid):
        x = grid.nodes
        u0 = MembraneState(grid, -0.2 * (1.0 - x * x))
        comp = limit_study(u0, 0.5, [0.2, 0.1], 0.02, n_eta=16, dt=1e-3)
        assert comp.diagnostics == [{"steps": 20, "folded_solves": 20, "full_solves": 0}] * 2

    def test_flat_touchdown_caps_every_run(self):
        grid = Grid1D.uniform(16)
        p = ModelParams(eps=1.0, lam=3.0, dt=1e-3, max_time=2.0, equilibrium_tol=0.0)
        flat = run0(MembraneState.zero(grid), p, thin_every=1)
        assert flat.outcome == "touchdown"
        survived = len(flat.states) - 2
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            comp = limit_study(MembraneState.zero(grid), 3.0, [0.05, 0.02], 2.0, n_eta=8)
        # neither run touches down before the flat reference, so each is
        # stopped at the steps the flat one survived
        assert comp.horizon_shortened and round(comp.tau / 1e-3) == survived
        assert [c["steps"] for c in comp.diagnostics] == [survived, survived]

    def test_pooled_runs_match_single_aspect_ratio_studies(self, grid):
        # the aspect ratios run side by side: nothing one run solves may
        # leak into the other
        kwargs = dict(n_eta=16, dt=2e-3)
        both = limit_study(MembraneState.zero(grid), 0.5, [0.2, 0.1], 0.1, **kwargs)
        singles = [
            limit_study(MembraneState.zero(grid), 0.5, [eps], 0.1, **kwargs) for eps in (0.2, 0.1)
        ]
        assert not both.horizon_shortened
        assert all(s.tau == both.tau and not s.horizon_shortened for s in singles)
        assert both.eps_values == [0.2, 0.1]
        assert both.sup_errors == [s.sup_errors[0] for s in singles]
        assert both.potential_errors == [s.potential_errors[0] for s in singles]
        assert both.diagnostics == [s.diagnostics[0] for s in singles]

    def test_one_usable_core_gives_the_same_result(self, grid, monkeypatch):
        import concurrent.futures

        pools = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        kwargs = dict(n_eta=16, dt=2e-3)
        cores = small_aspect._usable_cores()
        pooled = limit_study(MembraneState.zero(grid), 0.5, [0.2, 0.1], 0.1, **kwargs)
        monkeypatch.setattr(small_aspect, "_usable_cores", lambda: 1)
        serial = limit_study(MembraneState.zero(grid), 0.5, [0.2, 0.1], 0.1, **kwargs)
        assert pools == [min(2, cores), 1]
        assert serial == pooled
