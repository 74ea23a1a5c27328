import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq, minimize_scalar

from mems_fbp import criteria, small_aspect, steady
from mems_fbp.errors import (
    DegenerateGeometryError,
    NoSteadyStateError,
    NonConvergenceError,
    SingularSystemError,
)
from mems_fbp.evolution import ModelParams, imex_step
from mems_fbp.numerics import Grid1D, Grid2D, solve_tridiagonal
from mems_fbp.small_aspect import (
    limit_study,
    psi0,
    pullin0_detail,
    run0,
    shooting_pullin,
    steady0,
)
from mems_fbp.steady import damped_newton
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


def flat_model(monkeypatch):
    """A dict that receives the residual which ``steady0`` hands to
    ``damped_newton``, under ``"residual"``, once ``steady0`` is called."""
    model = {}

    def spy(residual, *args):
        model["residual"] = residual
        return damped_newton(residual, *args)

    monkeypatch.setattr(small_aspect, "damped_newton", spy)
    return model


def fold_start(n_x, depth=small_aspect._CONTINUUM_FOLD_DEPTH):
    """(voltage, state) of the continuum solution at centre depth ``depth``
    on ``n_x`` cells, by default where ``pullin0_detail`` starts its fold
    solve."""
    return small_aspect._continuum_start(Grid1D.uniform(n_x), depth)


def flat_fold(n_x):
    """The fold solve of ``pullin0_detail`` on ``n_x`` cells."""
    return steady0(*fold_start(n_x), floor=small_aspect._PULLIN_FLOOR, fold=True)


def jacobian_bands(point):
    """(diagonal, off-diagonal) of the flat-limit Jacobian at ``point``."""
    u, h2 = point.state.u[1:-1], point.state.grid.h ** 2
    return -2.0 / h2 + 2.0 * point.lam / (1.0 + u) ** 3, np.full(u.size - 1, 1.0 / h2)


class TestFlatSteady:
    def test_zero_voltage(self):
        u = steady0(0.0, MembraneState.zero(Grid1D.uniform(64))).state
        assert np.max(np.abs(u.u)) <= 1e-12

    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("lam", [-0.1, float("nan")])
    def test_negative_voltage_rejected(self, grid, lam, fold):
        with pytest.raises(ValueError, match="lambda must be nonnegative"):
            steady0(lam, MembraneState.zero(grid), fold=fold)

    def test_matches_long_time_run(self, grid):
        u_star = steady0(0.3, MembraneState.zero(Grid1D.uniform(32))).state
        p = ModelParams(eps=1.0, lam=0.3, dt=1e-3, equilibrium_tol=1e-9, max_time=40.0)
        traj = run0(MembraneState.zero(grid), p)
        assert np.max(np.abs(u_star.u - traj.final.u)) <= 1e-8

    @pytest.mark.parametrize("n_x", [63, 64])
    @pytest.mark.parametrize("depth", [None, 0.3, 0.6])
    def test_matches_the_plain_expressions(self, n_x, depth, monkeypatch):
        # the residual and its Newton step as plain expressions, one new array
        # per operation: at a fixed voltage (depth None) steady0's must give
        # the same bits, at a point off the branch and along its whole solve.
        # The fold solve, started from the continuum solution at centre depth
        # ``depth``, on either side of the fold, is checked against dense
        # linear algebra: the fold test g from the bordered matrix, and the
        # step from the Jacobian of both rows by central differences
        grid = Grid1D.uniform(n_x)
        n = grid.n_nodes - 2
        c = n // 2
        h2 = grid.h * grid.h
        off = np.full(n - 1, 1.0 / h2)

        def rows(u, lam):
            full = np.concatenate(([0.0], u, [0.0]))
            f = (full[2:] - 2.0 * u + full[:-2]) / h2 - lam / (1.0 + u) ** 2
            if depth is None:
                return f, None
            bordered = np.zeros((n + 1, n + 1))
            bordered[:n, :n] = np.diag(-2.0 / h2 + 2.0 * lam / (1.0 + u) ** 3)
            bordered[:n, :n] += np.diag(off, 1) + np.diag(off, -1)
            bordered[c, n] = bordered[n, c] = 1.0
            v_g = np.linalg.solve(bordered, np.eye(n + 1)[n])
            return np.concatenate((f, [0.25 * h2 * v_g[n]])), v_g[:n]

        def residual(state, lam):
            u = state.u[1:-1]
            r, v = rows(u, lam)

            def step(rhs):
                if depth is None:
                    diag = -2.0 / h2 + 2.0 * lam / (1.0 + u) ** 3
                    return solve_tridiagonal(off, diag, off, -rhs)
                if rhs is None:
                    return np.concatenate((-v, [0.0]))
                z = np.concatenate((u, [lam]))
                jac = np.empty((n + 1, n + 1))
                for k, e in enumerate(1e-6 * np.eye(n + 1)):
                    up, down = z + e, z - e
                    jac[:, k] = (rows(up[:n], up[n])[0] - rows(down[:n], down[n])[0]) / 2e-6
                return np.linalg.solve(jac, -rhs)

            return r, step

        model = flat_model(monkeypatch)
        if depth is None:
            lam0, guess = 0.3, MembraneState.zero(grid)
        else:
            lam0, guess = fold_start(n_x, depth)
        got = steady0(lam0, guess, fold=depth is not None)

        x = grid.nodes[1:-1]
        point = MembraneState.clamped(grid, -0.4 * (1.0 - x * x) * (1.0 + 0.3 * x))
        lam = 0.31
        r, step = model["residual"](point, lam)
        want_r, want_step = residual(point, lam)
        if depth is None:
            assert np.array_equal(r, want_r)
            assert np.array_equal(step(r), want_step(r))
            want = damped_newton(residual, guess, 0.3, 0.05, "reference")
            assert np.array_equal(got.state.u, want.state.u)
            return
        assert np.array_equal(r[:n], want_r[:n])
        assert r[n] == pytest.approx(want_r[n], rel=1e-9)
        want_dz = want_step(r)
        assert np.max(np.abs(step(r) - want_dz)) <= 1e-6 * np.max(np.abs(want_dz))
        want = damped_newton(residual, guess, lam0, 0.05, "reference", "the fold")
        assert abs(got.lam - want.lam) <= 1e-12
        assert np.max(np.abs(got.state.u - want.state.u)) <= 1e-9

    @pytest.mark.parametrize("depth", [None, 0.3])
    def test_a_step_keeps_its_own_point(self, depth, monkeypatch):
        # the step of one evaluation, called after a later one at another
        # point, is the step taken right after its own evaluation; at a fixed
        # voltage (depth None) or in the fold solve from centre depth ``depth``
        grid = Grid1D.uniform(32)
        n = grid.n_nodes - 2
        model = flat_model(monkeypatch)
        if depth is None:
            steady0(0.3, MembraneState.zero(grid))
        else:
            steady0(*fold_start(32, depth), fold=True)
        x = grid.nodes[1:-1]
        first, later = -0.3 * (1.0 - x * x), -0.2 * (1.0 - x**4)
        rhs = np.ones(n if depth is None else n + 1)
        _, step = model["residual"](MembraneState.clamped(grid, first), 0.31)
        right_after = step(rhs)
        _, later_step = model["residual"](MembraneState.clamped(grid, later), 0.25)
        assert np.array_equal(step(rhs), right_after)
        assert not np.array_equal(later_step(rhs), right_after)

    def test_residual_contract(self, monkeypatch):
        monkeypatch.setattr(steady, "_NEWTON_TOL", 1e-11)
        u = steady0(0.25, MembraneState.zero(Grid1D.uniform(64))).state
        h2 = u.grid.h**2
        d2 = (u.u[2:] - 2 * u.u[1:-1] + u.u[:-2]) / h2
        res = d2 - 0.25 / (1.0 + u.u[1:-1]) ** 2
        assert np.max(np.abs(res)) <= 1e-11

    def test_beyond_pullin_fails(self):
        with pytest.raises(NoSteadyStateError):
            steady0(0.5, MembraneState.zero(Grid1D.uniform(64)))


@pytest.mark.parametrize("n_x", [64, 512])
class TestFlatTangent:
    def test_matches_central_differences(self, n_x):
        # the fold's tangent against the chord of the two steady states at the
        # voltage 1.8 delta^2 below it, one on each side of the fold: a central
        # difference in the centre depth about the fold, up to the asymmetry of
        # the branch, so its error is second order in delta (over delta^2 it
        # measured 0.313-0.314 at n_x 64 and 512 for delta = 0.005-0.02)
        fold = flat_fold(n_x)
        grid, c = fold.state.grid, n_x // 2 - 1
        tangent = fold.tangent
        errors = []
        for delta in (0.02, 0.01):
            sides = []
            for sign in (1.0, -1.0):
                seed = fold.state.u.copy()
                seed[1:-1] += sign * delta * tangent[:-1]
                sides.append(steady0(fold.lam - 1.8 * delta**2, MembraneState(grid, seed)).state)
            deeper, shallower = (state.u[1:-1] for state in sides)
            chord = (deeper - shallower) / (shallower[c] - deeper[c])
            errors.append(np.max(np.abs(chord - tangent[:-1])))
        assert errors[1] <= 0.5 * 0.01**2
        assert 3.9 <= errors[0] / errors[1] <= 4.1

    def test_fold_tangent_spans_the_null_space(self, n_x):
        # the fold equations at the returned point: F within the stop rule,
        # and a Jacobian whose smallest eigenvalue is nil against its largest
        # (2e-17-6e-17 of it measured here; 1.2e-5 at n_x 64 and 1.9e-7 at 512
        # on the branch at 1e-4 below the fold voltage)
        fold = flat_fold(n_x)
        u = fold.state.u
        h2 = fold.state.grid.h ** 2
        stop = max(1e-10, np.finfo(float).eps / h2)
        f = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2 - fold.lam / (1.0 + u[1:-1]) ** 2
        assert fold.residual <= stop and np.max(np.abs(f)) <= stop
        diag, off = jacobian_bands(fold)
        eigenvalues = np.abs(eigvalsh_tridiagonal(diag, off))
        assert eigenvalues.min() <= 1e-12 * eigenvalues.max()
        # the tangent is the null vector at centre entry -1, at slope 0:
        # J t = g e_c, and the stop rule bounds the fold row g h^2/4
        tangent = fold.tangent
        assert tangent[n_x // 2 - 1] == -1.0 and fold.slope == 0.0
        phi = tangent[:-1]
        jac_phi = diag * phi
        jac_phi[1:] += off * phi[:-1]
        jac_phi[:-1] += off * phi[1:]
        assert np.max(np.abs(jac_phi)) <= 4.0 / h2 * stop


# pull-in voltage of u'' = lam/(1+u)^2 on (-1, 1), u(+-1) = 0
FLAT_PULLIN = 0.350004119343
# folds of its second-order discretisation on 256 and 512 cells, by a
# centre-out march of the symmetric discrete solution
FLAT_FOLD_256 = 0.3500016756410
FLAT_FOLD_512 = 0.3500035084199
# folds of the discrete branch recorded from a depth march from the flat
# membrane (a flat-limit depth solve with the Hermite fold search of
# ``march_to_fold``, to 2e-6 in depth, 7.2e-12 in voltage)
MARCH_FOLDS = {
    3: 0.3333333333333328,
    4: 0.33961516376066864,
    5: 0.3435167456064111,
    6: 0.34551014363672167,
    7: 0.3467118372986855,
    8: 0.3474877468584359,
    9: 0.3480182147742909,
    10: 0.3483968877430903,
    11: 0.34867665387364355,
    12: 0.34888920635807086,
    13: 0.3490544833225071,
    14: 0.3491855391553602,
    15: 0.34929121265923535,
    16: 0.34937766172045004,
    17: 0.3494492833904,
    18: 0.3495092854665839,
    19: 0.3495600527022197,
    20: 0.34960338786532835,
    21: 0.34964067425562523,
    22: 0.34967298762642757,
    23: 0.3497011747480475,
    24: 0.3497259095117964,
    25: 0.34974773362521994,
    26: 0.34976708655243616,
    27: 0.34978432783014357,
    28: 0.3497997539001678,
    29: 0.3498136109464807,
    30: 0.3498261047848825,
    31: 0.3498374085543684,
    32: 0.34984766875129264,
    33: 0.3498570100023991,
    34: 0.3498655388690616,
    35: 0.3498733469012874,
    36: 0.34988051310580626,
    37: 0.3498871059534162,
    38: 0.3498931850212161,
    39: 0.3498988023438094,
    64: 0.3499650169203081,
    128: 0.34999434437603394,
    256: 0.35000167564100637,
    512: 0.35000350841982114,
    1024: 0.3500039666121825,
    2048: 0.3500040811601064,
    4096: 0.3500041097970958,
    8192: 0.3500041169563105,
}


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

    def test_failed_fold_solve_names_the_pullin(self, monkeypatch):
        monkeypatch.setattr(steady, "_NEWTON_MAX_ITER", 0)
        with pytest.raises(NoSteadyStateError) as info:
            pullin0_detail(1e-3, n_x=32)
        assert str(info.value).startswith(
            "flat-limit pull-in: flat-limit Newton at the fold: no steady state after 0 "
        )
        assert info.value.residual > 1e-10

    @pytest.mark.parametrize("tol", [0.0, -1e-4, float("nan")])
    def test_tolerance_must_be_positive(self, tol):
        # a NaN bound would pass the shooting cross-check vacuously
        with pytest.raises(ValueError, match="tol_lambda must be positive"):
            pullin0_detail(tol)

    @pytest.mark.parametrize("tol_lambda", [1e-3, 1e-4, 1e-5])
    def test_discrete_fold_whatever_the_tolerance(self, tol_lambda):
        result = pullin0_detail(tol_lambda, n_x=512)
        assert abs(result.lambda_star - FLAT_FOLD_512) <= small_aspect._PULLIN_TOL
        assert result.diagnostics["newton_iters"] == 1

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
        # the Newton steps of one search at the benchmark's n_x: a change
        # meant to leave the algorithm alone must keep them, and a change to
        # the search updates them on purpose
        counts = pullin0_detail(1e-4, n_x=512).diagnostics
        assert sorted(counts) == ["check_s", "newton_iters", "search_s"]
        assert counts["newton_iters"] == 1

    @pytest.mark.parametrize("n_x", sorted(MARCH_FOLDS))
    def test_start_agrees_with_the_march_from_flat(self, n_x):
        # the fold solve from the continuum fold finds the fold of the depth
        # march from the flat membrane (the two differ by 2.2e-11 at most, at
        # n_x 4), in at most the Newton steps measured: 4 at n_x 3, 3 up to
        # 12, 2 up to 128 and 1 from 256 on
        result = pullin0_detail(1e-4, n_x=n_x)
        assert abs(result.lambda_star - MARCH_FOLDS[n_x]) <= 1e-10
        most = 4 if n_x == 3 else 3 if n_x <= 12 else 2 if n_x <= 128 else 1
        assert 0 < result.diagnostics["newton_iters"] <= most

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
            lambda d: -clamp_voltage(d), bounds=(0.05, 0.95),
            method="bounded", options={"xatol": 1e-10},
        ).x
        assert abs(small_aspect._CONTINUUM_FOLD_DEPTH - peak) <= 1e-8

    def test_continuum_start_is_the_continuum_solution(self):
        # the seed solves the continuum problem: its nodal values match a
        # numerical shot from the centre to 1e-9, ends clamped
        depth = small_aspect._CONTINUUM_FOLD_DEPTH
        lam, state = fold_start(64)
        assert -state.u[32] == pytest.approx(depth, abs=1e-15)
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

    @pytest.mark.parametrize("n_x", [32, 512])
    def test_tolerance_derivation(self, n_x):
        # _PULLIN_TOL takes the voltage row of the inverse extended Jacobian,
        # rows F and g h^2/4 by (u, lambda), to have a 1-norm of 0.4587 at
        # the fold, nearly all of it on the rows of F
        fold = flat_fold(n_x)
        u = fold.state.u[1:-1]
        h2 = fold.state.grid.h ** 2
        w = 1.0 + u
        v = -fold.tangent[:-1]
        diag, off = jacobian_bands(fold)
        n = u.size
        extended = np.zeros((n + 1, n + 1))
        extended[:n, :n] = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        extended[:n, n] = -1.0 / w**2
        extended[n, :n] = 0.25 * h2 * 6.0 * fold.lam * v**2 / w**4
        extended[n, n] = -0.25 * h2 * 2.0 * np.sum(v**2 / w**3)
        row = np.linalg.inv(extended)[n]
        assert np.sum(np.abs(row)) == pytest.approx(0.4587, abs=1e-4)
        assert abs(row[n]) <= 1e-6


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

    def test_matches_the_numerical_shot_peak(self):
        peak = -minimize_scalar(
            lambda d: -_numerical_shot_voltage(d),
            bounds=(0.05, 0.95),
            method="bounded",
            options={"xatol": 1e-5},
        ).fun
        assert peak == pytest.approx(FLAT_PULLIN, abs=1e-9)
        assert abs(shooting_pullin() - peak) <= 1e-9

    def test_within_roundoff_of_the_exact_maximum(self):
        # the closed form at the pinned depth in 40-digit arithmetic; the
        # depth is pinned to 1e-9, which moves the voltage at the maximum by
        # at most 1/2 |lambda''| (1e-9)^2 = 1.8e-18, 0.03 ulp
        with localcontext() as ctx:
            ctx.prec = 40
            gap = 1 - Decimal(small_aspect._CONTINUUM_FOLD_DEPTH)
            root = gap.sqrt()
            acosh = (1 / root + (1 / gap - 1).sqrt()).ln()
            i = root * ((1 - gap).sqrt() + gap * acosh)
            peak = i * i / 2
            assert abs(Decimal(shooting_pullin()) - peak) <= 2 * Decimal(math.ulp(0.35))


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

    def test_a_wrong_stepping_kernel_fails(self, monkeypatch):
        # the kernel with its diffusion number r scaled by 1.7, patched into
        # both modules, so that a flat side that stepped through it would
        # agree with it
        def wrong(u, dt, diffusion_int, forcing):
            return imex_step(u, dt, 1.7 * diffusion_int, forcing)

        monkeypatch.setattr(criteria, "imex_step", wrong)
        monkeypatch.setattr(small_aspect, "imex_step", wrong)
        ok, detail = criteria.degeneration(32, 100)
        assert not ok, detail


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

    def test_errors_fall_at_second_order_in_eps(self, grid):
        # below pull-in the full model differs from the flat limit by
        # O(eps^2): halving eps quarters the sup error (4.0046 and 4.0013
        # at 32x8; 4.0059 and 4.0016 at 32x32)
        comp = limit_study(MembraneState.zero(grid), 0.3, [0.2, 0.1, 0.05], 0.5,
                           n_eta=8, dt=1e-3)
        assert not comp.horizon_shortened
        sup = comp.sup_errors
        assert sup[0] / sup[1] == pytest.approx(4.0, abs=0.05)
        assert sup[1] / sup[2] == pytest.approx(4.0, abs=0.05)

    def test_nonpositive_states_throughout(self, grid):
        p = ModelParams(eps=1.0, lam=0.4, dt=1e-3, max_time=0.2)
        traj = run0(MembraneState.zero(grid), p)
        assert all(np.max(s.u) <= 1e-12 for s in traj.states)

    def test_horizon_shortening_is_recorded(self, grid):
        comp = limit_study(MembraneState.zero(grid), 3.0, [0.1], 2.0,
                           n_eta=16, dt=1e-3)
        assert comp.tau < 2.0
        assert comp.horizon_shortened

    def test_samples_only_up_to_the_common_horizon(self, monkeypatch):
        # eps 1 touches down after 55 steps while eps 0.1 runs 115: each is
        # sampled once, at t = 0.05, and eps 0.1 not at 0.1, past the horizon
        sampled = []
        solve = small_aspect._potential_l2_error

        def counted(u_eps, u_flat, eps, grid):
            sampled.append(eps)
            return solve(u_eps, u_flat, eps, grid)

        monkeypatch.setattr(small_aspect, "_potential_l2_error", counted)
        comp = limit_study(MembraneState.zero(Grid1D.uniform(16)), 3.0, [1.0, 0.1], 0.2, n_eta=8)
        assert comp.tau == pytest.approx(0.054) and comp.horizon_shortened
        assert comp.sample_times == [0.05]
        assert sorted(sampled) == [0.1, 1.0]

    def test_failed_sample_names_its_eps(self, grid, monkeypatch):
        def singular(u_eps, u_flat, eps, grid):
            raise SingularSystemError("singular system: forced")

        monkeypatch.setattr(small_aspect, "_potential_l2_error", singular)
        with pytest.raises(SingularSystemError, match="^eps=0.1: singular system: forced$"):
            limit_study(MembraneState.zero(grid), 0.5, [0.1], 0.05, n_eta=8)

    def test_no_potential_sample_reads_nan(self):
        # touchdown cuts the horizon before the first sample time, 2.0 / 4
        comp = limit_study(MembraneState.zero(Grid1D.uniform(32)), 3.0, [0.1], 2.0, n_eta=16)
        assert comp.tau == pytest.approx(0.114) and comp.horizon_shortened
        assert comp.sample_times == [] and comp.potential_errors == [[]]
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
        comp = limit_study(MembraneState.zero(grid), 0.5, [0.1], 0.0333, n_eta=16, dt=1e-3)
        assert comp.tau == pytest.approx(0.033)
        assert not comp.horizon_shortened
        assert comp.diagnostics[0]["steps"] == 33

    def test_diagnostics_count_each_run(self, grid):
        x = grid.nodes
        u0 = MembraneState(grid, -0.2 * (1.0 - x * x))
        comp = limit_study(u0, 0.5, [0.2, 0.1], 0.02, n_eta=16, dt=1e-3)
        assert comp.diagnostics == [{"steps": 20, "folded_solves": 20, "full_solves": 0}] * 2

    def test_flat_touchdown_caps_every_run(self):
        grid = Grid1D.uniform(16)
        p = ModelParams(eps=1.0, lam=3.0, dt=1e-3, max_time=2.0, equilibrium_tol=0.0)
        flat = run0(MembraneState.zero(grid), p)
        assert flat.outcome == "touchdown"
        survived = len(flat.states) - 2
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
        assert both.sup_errors == [s.sup_errors[0] for s in singles]
        assert all(s.sample_times == both.sample_times for s in singles)
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

    def test_pool_leaves_the_warning_filters_as_they_were(self, grid, monkeypatch):
        # warnings.filters is one list for the process: a solve that saves
        # and restores it on each pool thread can restore another thread's
        # saved copy and leave that thread's filter behind
        import warnings

        monkeypatch.setattr(small_aspect, "_usable_cores", lambda: 3)  # one thread per eps
        u0 = MembraneState(grid, -0.1 * (1.0 - grid.nodes**2))
        before = list(warnings.filters)
        limit_study(u0, 0.5, [0.2, 0.1, 0.05], 0.05, n_eta=16, dt=1e-3)
        assert warnings.filters == before
