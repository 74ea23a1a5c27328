import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mems_fbp import elliptic
from mems_fbp.errors import GridTooCoarseError
from mems_fbp.numerics import Grid1D, Grid2D
from mems_fbp.transform import (
    MembraneState,
    assemble_coefficients,
    random_admissible_state,
)


class TestSolvePotential:
    @pytest.mark.parametrize("eps", [0.01, 0.1, 1.0, 10.0])
    def test_flat_membrane_gives_eta(self, grid2d_32, eps):
        v = MembraneState.zero(grid2d_32.gx)
        phi = elliptic.solve_potential(v, eps, grid2d_32).phi
        assert np.max(np.abs(phi - grid2d_32.eta_nodes[None, :])) <= 1e-12

    def test_boundary_values_are_eta(self, grid2d_32, parabola32):
        phi = elliptic.solve_potential(parabola32, 0.5, grid2d_32).phi
        eta = grid2d_32.eta_nodes
        assert np.array_equal(phi[0, :], eta)
        assert np.array_equal(phi[-1, :], eta)
        assert np.all(phi[:, 0] == 0.0) and np.all(phi[:, -1] == 1.0)

    def test_even_profile_gives_even_potential(self, grid2d_32, rng):
        for _ in range(3):
            v = random_admissible_state(grid2d_32.gx, rng)
            u_even = 0.5 * (v.u + v.u[::-1])
            phi = elliptic.solve_potential(
                MembraneState(grid2d_32.gx, u_even), 0.7, grid2d_32
            ).phi
            assert np.max(np.abs(phi - phi[::-1, :])) <= 1e-10

    def test_max_principle_when_stencil_positive(self, grid2d_32):
        v = MembraneState.zero(grid2d_32.gx)
        coeffs = assemble_coefficients(v, 1.0, grid2d_32)
        assert elliptic.stencil_is_positive_type(coeffs)
        field = elliptic.solve_potential(v, 1.0, grid2d_32)
        assert field.max_principle_violation() <= 1e-10

    def test_max_principle_deflected(self, grid2d_32, parabola32):
        # cross-term stencil is not of positive type here; the bounds are
        # only asserted when the check passes, but record the observation
        coeffs = assemble_coefficients(parabola32, 1.0, grid2d_32)
        field = elliptic.solve_potential(parabola32, 1.0, grid2d_32)
        if elliptic.stencil_is_positive_type(coeffs):
            assert field.max_principle_violation() <= 1e-10
        else:
            pytest.skip("stencil not of positive type on this state")


class TestSplitFormulation:
    def test_flat_membrane(self, grid2d_32):
        v = MembraneState.zero(grid2d_32.gx)
        phi = elliptic.solve_potential_split(v, 2.0, grid2d_32).phi
        assert np.max(np.abs(phi - grid2d_32.eta_nodes[None, :])) <= 1e-12

    def test_agreement_with_direct(self, rng):
        grid = Grid2D.uniform(64, 64)
        worst = 0.0
        for _ in range(5):
            v = random_admissible_state(grid.gx, rng)
            direct = elliptic.solve_potential(v, 0.7, grid).phi
            split = elliptic.solve_potential_split(v, 0.7, grid).phi
            worst = max(worst, float(np.max(np.abs(direct - split))))
        assert worst <= 1e-8

    def test_parity(self, grid2d_32, parabola32):
        phi = elliptic.solve_potential_split(parabola32, 0.5, grid2d_32).phi
        assert np.max(np.abs(phi - phi[::-1, :])) <= 1e-10


class TestTrace:
    def test_exact_on_linear(self, grid2d_32):
        field = elliptic.PotentialField(
            grid2d_32, np.broadcast_to(grid2d_32.eta_nodes, grid2d_32.shape)
        )
        tr = elliptic.trace_top(field).dphi_top
        np.testing.assert_allclose(tr, 1.0, rtol=1e-13)

    def test_exact_on_quadratic(self, grid2d_32):
        field = elliptic.PotentialField(
            grid2d_32, np.broadcast_to(grid2d_32.eta_nodes**2, grid2d_32.shape)
        )
        tr = elliptic.trace_top(field).dphi_top
        np.testing.assert_allclose(tr, 2.0, rtol=1e-12)

    def test_too_coarse(self):
        grid = Grid2D(
            gx=Grid1D.uniform(8),
            n_eta=2,
            eta_nodes=np.linspace(0, 1, 3),
            h_eta=0.5,
        )
        field = elliptic.PotentialField(grid, np.zeros(grid.shape))
        with pytest.raises(GridTooCoarseError):
            elliptic.trace_top(field)


class TestSourceProfile:
    @pytest.mark.parametrize("eps", [0.01, 0.1, 1.0, 10.0])
    def test_unit_at_rest(self, grid2d_32, eps):
        g = elliptic.g_eps(MembraneState.zero(grid2d_32.gx), eps, grid2d_32)
        assert np.max(np.abs(g - 1.0)) <= 1e-10

    def test_nonnegative(self, grid2d_32, rng):
        for _ in range(5):
            v = random_admissible_state(grid2d_32.gx, rng)
            assert np.min(elliptic.g_eps(v, 1.3, grid2d_32)) >= 0.0

    def test_even_profile_gives_even_source(self, grid2d_32, parabola32):
        g = elliptic.g_eps(parabola32, 0.4, grid2d_32)
        assert np.max(np.abs(g - g[::-1])) <= 1e-10


class TestManufacturedSolution:
    @pytest.mark.parametrize("eps", [0.1, 1.0])
    def test_second_order(self, eps):
        result = elliptic.mms_convergence(eps, (16, 32, 64))
        assert 1.9 <= result.field_order <= 2.1
        assert 1.9 <= result.trace_order <= 2.1

    def test_errors_decrease(self):
        result = elliptic.mms_convergence(0.5, (16, 32, 64))
        assert np.all(np.diff(result.field_errors) < 0)


def test_assembled_system_structure(grid2d_32, parabola32):
    from mems_fbp.transform import assemble_coefficients

    coeffs = assemble_coefficients(parabola32, 0.5, grid2d_32)
    system = elliptic.assemble_system(coeffs, np.zeros(grid2d_32.shape), np.zeros(grid2d_32.shape))
    n_int = (grid2d_32.gx.n_cells - 1) * (grid2d_32.n_eta - 1)
    assert system.matrix.shape == (n_int, n_int)
    assert np.max(np.diff(system.matrix.indptr)) <= 9  # 9-point stencil bound


def coo_reference_system(coeffs, rhs_field, dirichlet):
    """Reference assembly: the 9-point weights scattered as COO triplets
    and converted to CSC, the Dirichlet ring subtracted offset by offset."""
    g = coeffs.grid
    hx, he = g.gx.h, g.h_eta
    sl = (slice(1, -1), slice(1, -1))
    c_xx = coeffs.a_xx[sl] / (hx * hx)
    c_ee = coeffs.a_etaeta[sl] / (he * he)
    c_e = coeffs.b_eta[sl] / (2.0 * he)
    c_xe = coeffs.a_xeta[sl] / (4.0 * hx * he)
    weights = {
        (0, 0): 2.0 * c_xx + 2.0 * c_ee,
        (-1, 0): -c_xx,
        (1, 0): -c_xx,
        (0, -1): -c_ee + c_e,
        (0, 1): -c_ee - c_e,
        (1, 1): -c_xe,
        (-1, -1): -c_xe,
        (1, -1): c_xe,
        (-1, 1): c_xe,
    }
    nx, ne = g.shape
    nix, nie = nx - 2, ne - 2
    ii, jj = np.meshgrid(np.arange(1, nx - 1), np.arange(1, ne - 1), indexing="ij")
    k = (ii - 1) * nie + (jj - 1)
    rhs = rhs_field[1:-1, 1:-1].astype(float).copy()
    rows, cols, vals = [], [], []
    for (di, dj), w in weights.items():
        ni, nj = ii + di, jj + dj
        interior = (ni >= 1) & (ni <= nx - 2) & (nj >= 1) & (nj <= ne - 2)
        rows.append(k[interior])
        cols.append(((ni - 1) * nie + (nj - 1))[interior])
        vals.append(w[interior])
        bnd = ~interior
        np.subtract.at(rhs, (ii[bnd] - 1, jj[bnd] - 1), w[bnd] * dirichlet[ni[bnd], nj[bnd]])
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nix * nie, nix * nie),
    ).tocsr().tocsc()
    return matrix, rhs.ravel()


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(3, 3), (8, 3), (3, 7), (12, 5), (6, 16), (16, 16), (24, 20)]),
    eps=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_assembly_matches_coo_reference(shape, eps, seed):
    rng = np.random.default_rng(seed)
    grid = Grid2D.uniform(*shape)
    v = random_admissible_state(grid.gx, rng, min_gap=0.1)
    coeffs = assemble_coefficients(v, eps, grid)
    rhs_field = rng.normal(size=grid.shape)
    dirichlet = rng.normal(size=grid.shape)
    system = elliptic.assemble_system(coeffs, rhs_field, dirichlet)
    matrix, rhs = coo_reference_system(coeffs, rhs_field, dirichlet)
    assert system.matrix.format == "csc"
    for name in ("indptr", "indices", "data"):
        ours, ref = getattr(system.matrix, name), getattr(matrix, name)
        assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes(), name
    assert rhs.dtype == system.rhs.dtype and rhs.tobytes() == system.rhs.tobytes()
