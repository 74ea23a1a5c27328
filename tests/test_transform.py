import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mems_fbp import elliptic, evolution, steady, transform
from mems_fbp.errors import DegenerateGeometryError
from mems_fbp.evolution import ModelParams
from mems_fbp.numerics import Grid1D, Grid2D
from mems_fbp.transform import (
    MembraneState,
    assemble_coefficients,
    random_admissible_state,
)


class TestMembraneState:
    def test_requires_clamped_ends(self, grid32):
        u = np.full(grid32.n_nodes, -0.1)
        with pytest.raises(ValueError, match="clamped"):
            MembraneState(grid32, u)

    def test_length_check(self, grid32):
        with pytest.raises(ValueError):
            MembraneState(grid32, np.zeros(5))

    def test_negative_zero_ends_snap_to_positive_zero(self, grid32):
        x = grid32.nodes
        u = -0.2 * (1.0 - x * x)
        assert np.signbit(u[0]) and np.signbit(u[-1])
        v = MembraneState(grid32, u)
        assert v.u[0] == v.u[-1] == 0.0
        assert not np.signbit(v.u[0]) and not np.signbit(v.u[-1])
        assert np.array_equal(v.u[1:-1], u[1:-1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_deflection_rejected(self, grid32, bad):
        u = np.zeros(grid32.n_nodes)
        u[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            MembraneState(grid32, u)

    def test_largest_finite_deflection_accepted(self, grid32):
        u = np.zeros(grid32.n_nodes)
        u[1:-1] = np.finfo(float).max
        assert np.array_equal(MembraneState(grid32, u).u, u)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    @pytest.mark.filterwarnings("error")
    def test_generated_inputs_follow_the_rules(self, data):
        n_cells = data.draw(st.integers(3, 40))
        grid = Grid1D.uniform(n_cells)
        size = data.draw(st.sampled_from([grid.n_nodes] * 4 + [grid.n_nodes - 1, grid.n_nodes + 1]))
        u = np.array(data.draw(st.lists(st.floats(-0.9, 0.9), min_size=size, max_size=size)))
        specials = [np.nan, np.inf, -np.inf, np.finfo(float).max]
        for i in data.draw(st.lists(st.integers(1, size - 2), max_size=3)):
            u[i] = data.draw(st.sampled_from(specials))
        ends = st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1e-11, -1e-11] + specials[:3])
        u[0], u[-1] = data.draw(ends), data.draw(ends)
        given_u = u.copy()

        # the documented rules, in their order
        if size != grid.n_nodes:
            error = "node count"
        elif abs(u[0]) > 1e-12 or abs(u[-1]) > 1e-12:
            error = "clamped"
        elif not np.isfinite(u).all():
            error = "non-finite"
        else:
            error = None
        if error is not None:
            with pytest.raises(ValueError, match=error):
                MembraneState(grid, u)
        else:
            v = MembraneState(grid, u)
            assert v.u[0] == v.u[-1] == 0.0
            assert not np.signbit(v.u[0]) and not np.signbit(v.u[-1])
            assert np.array_equal(v.u[1:-1], given_u[1:-1])
        assert np.array_equal(u, given_u, equal_nan=True)  # the input is left alone

    def test_min_gap(self, parabola32):
        assert abs(parabola32.min_gap - 0.75) <= 1e-15

    def test_state_owns_a_read_only_deflection(self, grid32):
        x = grid32.nodes
        given_u = -0.2 * (1.0 - x * x)
        v = MembraneState(grid32, given_u)
        u, slope = v.u.copy(), v.slope.copy()
        given_u[5] = 0.7
        assert np.array_equal(v.u, u) and np.array_equal(v.slope, slope)
        for derived in (v.u, v.slope, v.bend):
            with pytest.raises(ValueError, match="read-only"):
                derived[3] = 1.0


class TestDerivatives:
    """The state's ``slope`` and ``bend``, and the stencils behind them."""

    def test_constant(self, grid32):
        # a clamped state cannot be a nonzero constant, so the stencils
        # are taken on one directly
        f = np.full(grid32.n_nodes, 3.7)
        assert np.max(np.abs(transform._d1(f, grid32.h))) == 0.0
        assert np.max(np.abs(transform._d2(f, grid32.h))) == 0.0
        flat = MembraneState.zero(grid32)
        assert not np.any(flat.slope) and not np.any(flat.bend)

    def test_quadratic_exactness(self, grid32):
        x = grid32.nodes
        v = MembraneState(grid32, -0.3 * (1.0 - x * x))
        np.testing.assert_allclose(v.bend, 0.6, rtol=1e-12)
        np.testing.assert_allclose(v.slope, 0.6 * x, atol=1e-13)

    @pytest.mark.parametrize("name,exact", [
        ("slope", lambda x: 0.5 * np.pi * np.cos(np.pi * x)),
        ("bend", lambda x: -0.5 * np.pi**2 * np.sin(np.pi * x)),
    ])
    def test_refinement_order(self, name, exact):
        errors, hs = [], []
        for n in (32, 64, 128):
            g = Grid1D.uniform(n)
            err = getattr(MembraneState(g, 0.5 * np.sin(np.pi * g.nodes)), name) - exact(g.nodes)
            errors.append(np.max(np.abs(err[1:-1])))
            hs.append(g.h)
        order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert 1.9 <= order <= 2.1

    def test_each_state_is_differenced_once(self, monkeypatch, grid2d_32, parabola32):
        """One Newton iteration, a residual and a linearization at one
        state, takes its slope and bending once each; one evolution step
        takes its slope once."""
        calls = {"_d1": 0, "_d2": 0}

        def counted(name, stencil):
            def wrapper(f, h):
                calls[name] += 1
                return stencil(f, h)

            return wrapper

        for name in calls:
            monkeypatch.setattr(transform, name, counted(name, getattr(transform, name)))
        lam, eps = 0.2, 0.5
        v = MembraneState(grid2d_32.gx, parabola32.u)
        _, field = steady.steady_residual(v, lam, eps, grid2d_32)
        steady.linearize(v, lam, eps, field)
        assert calls == {"_d1": 1, "_d2": 1}
        calls.update(_d1=0, _d2=0)
        fresh = MembraneState(grid2d_32.gx, parabola32.u)
        evolution.step(fresh, ModelParams(eps=eps, lam=lam), grid2d_32)
        assert calls["_d1"] == 1


class TestCoefficients:
    def test_flat_membrane_fields(self, grid2d_32):
        v = MembraneState.zero(grid2d_32.gx)
        c = assemble_coefficients(v, 0.3, grid2d_32)
        np.testing.assert_allclose(c.a_xx, 0.09, rtol=1e-15)
        assert np.max(np.abs(c.a_xeta)) == 0.0
        np.testing.assert_allclose(c.a_etaeta, 1.0, rtol=1e-15)
        assert np.max(np.abs(c.b_eta)) == 0.0

    def test_spot_value(self, grid32, grid2d_32, parabola32):
        # v = -(1-x^2)/4 at (x, eta) = (0.5, 1): slope 1/4, gap 13/16
        c = assemble_coefficients(parabola32, 1.0, grid2d_32)
        i = np.argmin(np.abs(grid32.nodes - 0.5))
        assert abs(grid32.nodes[i] - 0.5) <= 1e-14
        assert abs(c.a_xeta[i, -1] - (-8.0 / 13.0)) <= 1e-13

    def test_parity_for_even_profile(self, grid2d_32, parabola32):
        c = assemble_coefficients(parabola32, 0.7, grid2d_32)
        assert np.max(np.abs(c.a_etaeta - c.a_etaeta[::-1, :])) <= 1e-14
        assert np.max(np.abs(c.b_eta - c.b_eta[::-1, :])) <= 1e-13
        assert np.max(np.abs(c.a_xeta + c.a_xeta[::-1, :])) <= 1e-13

    def test_ellipticity_symbol(self, grid2d_32, rng):
        # nodal 2x2 symbol of the principal part stays positive definite
        for _ in range(5):
            v = random_admissible_state(grid2d_32.gx, rng)
            c = assemble_coefficients(v, 1.5, grid2d_32)
            off = 0.5 * c.a_xeta
            trace = c.a_xx + c.a_etaeta
            det = c.a_xx * c.a_etaeta - off * off
            smallest = 0.5 * (trace - np.sqrt(trace * trace - 4.0 * det))
            assert np.min(smallest) > 0.0
            assert np.min(c.a_etaeta) >= 1.0 / (1.0 + np.max(v.u)) ** 2 - 1e-12

    def test_touchdown_rejected(self, grid32, grid2d_32):
        x = grid32.nodes
        v = MembraneState(grid32, -1.05 * (1.0 - x * x))
        with pytest.raises(DegenerateGeometryError):
            assemble_coefficients(v, 1.0, grid2d_32)

    @pytest.mark.parametrize("eps", [0.0, -0.1, float("nan")])
    def test_nonpositive_aspect_ratio_rejected(self, parabola32, grid2d_32, eps):
        with pytest.raises(ValueError, match="aspect ratio must be positive"):
            assemble_coefficients(parabola32, eps, grid2d_32)

    def test_grid_mismatch(self, parabola32):
        other = Grid2D.uniform(16, 16)
        with pytest.raises(ValueError):
            assemble_coefficients(parabola32, 1.0, other)


class TestSourceField:
    """``b_eta`` is the mapped operator applied to eta itself, the source
    of the homogeneous-data split."""

    def test_flat_membrane(self, grid2d_32):
        v = MembraneState.zero(grid2d_32.gx)
        assert np.max(np.abs(assemble_coefficients(v, 1.0, grid2d_32).b_eta)) == 0.0

    def test_vanishes_at_bottom(self, grid2d_32, parabola32):
        f = assemble_coefficients(parabola32, 1.0, grid2d_32).b_eta
        assert np.max(np.abs(f[:, 0])) == 0.0

    def test_spot_value(self, grid32, grid2d_32, parabola32):
        # at (0, 1): slope 0, curvature 1/2, gap 3/4 -> -2/3
        f = assemble_coefficients(parabola32, 1.0, grid2d_32).b_eta
        i = np.argmin(np.abs(grid32.nodes))
        assert abs(f[i, -1] - (-2.0 / 3.0)) <= 1e-13


def pulled_back_errors(eps: float, n: int) -> tuple[float, float]:
    """The map's two errors on an n x n grid, for H = cos(kx) cosh(eps k
    (1 + z)), which solves eps^2 H_xx + H_zz = 0 between the plate and
    the membrane u: the largest 9-point residual of the mapped operator
    applied to H at the nodes' physical points, and the largest error of
    the membrane trace over the gap against dH/dz on the membrane."""
    k = 1.3
    grid = Grid2D.uniform(n, n)
    x = grid.gx.nodes
    u = -0.3 * (1.0 - x * x) + 0.1 * x * (1.0 - x * x)
    z = np.outer(1.0 + u, grid.eta_nodes) - 1.0
    h = np.cos(k * x)[:, None] * np.cosh(eps * k * (1.0 + z))
    weights = elliptic._stencil_weights(assemble_coefficients(MembraneState(grid.gx, u), eps, grid))
    h_z = np.cos(k * x) * eps * k * np.sinh(eps * k * (1.0 + u))
    trace = elliptic._top_derivative(h, grid.h_eta) / (1.0 + u)
    return np.max(np.abs(elliptic._apply_stencil(weights, h))), np.max(np.abs(trace - h_z))


@pytest.mark.parametrize("eps", [0.1, 1.0])
def test_map_matches_the_physical_laplacian_at_second_order(eps):
    # The coefficients come from their derivation, not from a forcing that
    # restates them, so a wrong term in the map leaves an O(1) residual.
    # Measured ratios per halving, n = 16 to 256: residual 4.00 at eps 0.1
    # and 2.64, 3.24, 3.60, 3.79 at eps 1, where the mixed and drift terms
    # reach their asymptotic range only on fine grids; trace 3.90-3.99.
    errors = np.array([pulled_back_errors(eps, n) for n in (16, 32, 64, 128, 256)])
    residual, trace = (errors[:-1] / errors[1:]).T
    if eps < 0.5:
        assert np.all(np.abs(residual - 4.0) <= 0.1), residual
    else:
        assert np.all(np.diff(residual) > 0.0) and residual[0] >= 2.5, residual
        assert 3.7 <= residual[-1] <= 4.1, residual
    assert np.all(np.abs(trace - 4.0) <= 0.15), trace


class TestRandomAdmissible:
    def test_contract(self, grid32, rng):
        for _ in range(10):
            v = random_admissible_state(grid32, rng)
            assert v.u[0] == 0.0 and v.u[-1] == 0.0
            assert v.min_gap >= 0.3 - 1e-12
