import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mems_fbp.errors import DegenerateGeometryError
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


class TestRandomAdmissible:
    def test_contract(self, grid32, rng):
        for _ in range(10):
            v = random_admissible_state(grid32, rng, min_gap=0.3)
            assert v.u[0] == 0.0 and v.u[-1] == 0.0
            assert v.min_gap >= 0.3 - 1e-12
