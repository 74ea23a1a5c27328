import numpy as np
import pytest

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
