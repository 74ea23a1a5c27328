from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from mems_fbp import elliptic, transform
from mems_fbp.errors import NonConvergenceError
from mems_fbp.numerics import Grid2D, solve_sparse
from mems_fbp.transform import (
    MembraneState,
    assemble_coefficients,
    random_admissible_state,
)


def full_potential(v, eps, grid):
    """The potential of ``v`` from the full operator on the whole rectangle,
    whatever its symmetry: the reference for the folded solve."""
    eta = np.broadcast_to(grid.eta_nodes, grid.shape)
    coeffs = assemble_coefficients(v, eps, grid)
    return elliptic.solve_dirichlet(coeffs, np.zeros(grid.shape), eta)


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
        # the full operator, not the fold, whose potential is even by construction
        for _ in range(3):
            v = random_admissible_state(grid2d_32.gx, rng)
            u_even = 0.5 * (v.u + v.u[::-1])
            phi = full_potential(MembraneState(grid2d_32.gx, u_even), 0.7, grid2d_32)
            assert np.max(np.abs(phi - phi[::-1, :])) <= 1e-10

    def test_max_principle_flat(self, grid2d_32):
        v = MembraneState.zero(grid2d_32.gx)
        field = elliptic.solve_potential(v, 1.0, grid2d_32)
        assert np.min(field.phi) >= -1e-10 and np.max(field.phi) <= 1.0 + 1e-10

    @pytest.mark.parametrize("depth", [0.25, 0.4, 0.6, 0.8])
    def test_max_principle_deflected(self, grid2d_32, depth):
        # the cross-derivative stencil is not of positive type on a sloped
        # membrane, yet the discrete potential stays within [0, 1]
        x = grid2d_32.gx.nodes
        v = MembraneState(grid2d_32.gx, -depth * (1.0 - x * x))
        field = elliptic.solve_potential(v, 1.0, grid2d_32)
        assert np.min(field.phi) >= -1e-10 and np.max(field.phi) <= 1.0 + 1e-10


class TestSplitFormulation:
    def test_flat_membrane(self, grid2d_32):
        v = MembraneState.zero(grid2d_32.gx)
        phi = elliptic.solve_potential_split(v, 2.0, grid2d_32)
        assert np.max(np.abs(phi - grid2d_32.eta_nodes[None, :])) <= 1e-12

    def test_agreement_with_direct(self, rng):
        grid = Grid2D.uniform(64, 64)
        worst = 0.0
        for _ in range(5):
            v = random_admissible_state(grid.gx, rng)
            direct = elliptic.solve_potential(v, 0.7, grid).phi
            split = elliptic.solve_potential_split(v, 0.7, grid)
            worst = max(worst, float(np.max(np.abs(direct - split))))
        assert worst <= 1e-8

    def test_parity(self, grid2d_32, parabola32):
        phi = elliptic.solve_potential_split(parabola32, 0.5, grid2d_32)
        assert np.max(np.abs(phi - phi[::-1, :])) <= 1e-10


class TestTrace:
    def test_exact_on_linear(self, grid2d_32):
        phi = np.broadcast_to(grid2d_32.eta_nodes, grid2d_32.shape)
        tr = elliptic._top_derivative(phi, grid2d_32.h_eta)
        np.testing.assert_allclose(tr, 1.0, rtol=1e-13)

    def test_exact_on_quadratic(self, grid2d_32):
        phi = np.broadcast_to(grid2d_32.eta_nodes**2, grid2d_32.shape)
        tr = elliptic._top_derivative(phi, grid2d_32.h_eta)
        np.testing.assert_allclose(tr, 2.0, rtol=1e-12)

    def test_too_coarse(self):
        """A grid too coarse for the 3-point trace cannot be made at all."""
        with pytest.raises(ValueError, match="at least 3 vertical cells"):
            Grid2D.uniform(8, 2)


class TestSourceProfile:
    @pytest.mark.parametrize("eps", [0.01, 0.1, 1.0, 10.0])
    def test_unit_at_rest(self, grid2d_32, eps):
        g = elliptic.g_eps(MembraneState.zero(grid2d_32.gx), eps, grid2d_32)[0]
        assert np.max(np.abs(g - 1.0)) <= 1e-10

    def test_nonnegative(self, grid2d_32, rng):
        for _ in range(5):
            v = random_admissible_state(grid2d_32.gx, rng)
            assert np.min(elliptic.g_eps(v, 1.3, grid2d_32)[0]) >= 0.0

    def test_even_profile_gives_even_source(self, grid2d_32, parabola32):
        g = elliptic.g_eps(parabola32, 0.4, grid2d_32)[0]
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


class Formed(Exception):
    """Carries the system that ``elliptic._solve`` hands to ``solve_sparse``."""


def formed_system(weights, rhs_field, dirichlet, folded=False):
    """The matrix and right-hand side that ``elliptic._solve`` factorizes
    and solves, caught on their way into ``solve_sparse``."""

    def catch(matrix, rhs):
        raise Formed(matrix, rhs)

    with mock.patch.object(elliptic, "solve_sparse", catch), pytest.raises(Formed) as info:
        elliptic._solve(weights, rhs_field, dirichlet, elliptic._POTENTIAL_TOL, folded)
    return info.value.args


def test_assembled_system_structure(grid2d_32, parabola32):
    coeffs = assemble_coefficients(parabola32, 0.5, grid2d_32)
    matrix = elliptic.assemble_system(elliptic._stencil_weights(coeffs))
    n_int = (grid2d_32.gx.n_cells - 1) * (grid2d_32.n_eta - 1)
    assert matrix.shape == (n_int, n_int)
    assert np.max(np.diff(matrix.indptr)) <= 9  # 9-point stencil bound


def coo_reference_system(coeffs, rhs_field, dirichlet):
    """Reference assembly: the 9-point weights scattered as COO triplets
    and converted to CSC, the Dirichlet ring subtracted offset by offset."""
    g = coeffs.grid
    hx, he = g.gx.h, g.h_eta
    sl = (slice(1, -1), slice(1, -1))
    c_ee = coeffs.a_etaeta[sl] / (he * he)
    c_xx = np.full(c_ee.shape, coeffs.a_xx / (hx * hx))
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


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(3, 3), (8, 3), (3, 7), (12, 5), (6, 16), (16, 16), (24, 20)]),
    eps=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.sampled_from(["source", "ring", "both"]),
    folded=st.booleans(),
)
def test_assembly_matches_coo_reference(shape, eps, seed, data, folded):
    # every solve of the program has a zero source or a zero ring; there
    # the system matches the reference bit for bit, folded or not
    rng = np.random.default_rng(seed)
    grid = Grid2D.uniform(*shape)
    with mock.patch.object(transform, "_RANDOM_MIN_GAP", 0.1):
        v = random_admissible_state(grid.gx, rng)
    coeffs = assemble_coefficients(v, eps, grid)
    zero = np.zeros(grid.shape)
    rhs_field = zero if data == "ring" else rng.normal(size=grid.shape)
    dirichlet = zero if data == "source" else rng.normal(size=grid.shape)
    ours_matrix, ours_rhs = formed_system(
        elliptic._stencil_weights(coeffs), rhs_field, dirichlet, folded
    )
    matrix, rhs = coo_reference_system(coeffs, rhs_field, dirichlet)
    if data == "both":
        # the program subtracts the ring's share, summed in offset order,
        # from the source: the reference's rhs of a zero source is minus that sum
        rhs = rhs_field[1:-1, 1:-1].ravel() + coo_reference_system(coeffs, zero, dirichlet)[1]
    # the unknowns are numbered in the pattern's dissection order: P b
    p = elliptic._pattern(*shape, folded)
    rhs = rhs.reshape(shape[0] - 1, shape[1] - 1)[p.nodes]
    assert rhs.dtype == ours_rhs.dtype and rhs.tobytes() == ours_rhs.tobytes()
    assert ours_matrix.format == "csc"
    if folded:
        return  # the fold of the full matrix is checked by the test of the fold below
    # and P A P^T
    matrix = matrix[p.perm][:, p.perm].tocsr().tocsc()
    for name in ("indptr", "indices", "data"):
        ours, ref = getattr(ours_matrix, name), getattr(matrix, name)
        assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes(), name


def natural_reference(v, eps, grid):
    """Coefficients and the lexicographically numbered matrix and rhs of
    the potential solve at ``v``, assembled by the COO reference."""
    coeffs = assemble_coefficients(v, eps, grid)
    eta = np.broadcast_to(grid.eta_nodes, grid.shape)
    return (coeffs, *coo_reference_system(coeffs, np.zeros(grid.shape), eta))


@pytest.mark.parametrize(
    "shape", [(3, 3), (4, 3), (3, 7), (17, 3), (12, 5), (16, 12), (31, 17), (32, 32)]
)
def test_dissection_order_is_a_cached_permutation(shape):
    pattern = elliptic._pattern(*shape)
    assert elliptic._pattern(*shape) is pattern
    perm = pattern.perm
    n = (shape[0] - 1) * (shape[1] - 1)
    assert np.array_equal(np.sort(perm), np.arange(n))
    for a in (perm, *pattern.nodes, pattern.indices, pattern.indptr, pattern.take):
        assert not a.flags.writeable
    grid = Grid2D.uniform(*shape)
    v = random_admissible_state(grid.gx, np.random.default_rng(7))
    coeffs, matrix, rhs = natural_reference(v, 0.1, grid)
    eta = np.broadcast_to(grid.eta_nodes, grid.shape)
    ours_matrix, ours_rhs = formed_system(
        elliptic._stencil_weights(coeffs), np.zeros(grid.shape), eta
    )
    assert ours_matrix.has_sorted_indices
    assert np.array_equal(ours_matrix.toarray(), matrix.toarray()[perm][:, perm])
    assert np.array_equal(ours_rhs, rhs[perm])


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(8, 8), (16, 12), (9, 21), (24, 24), (32, 32)]),
    eps=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_potential_matches_minimum_degree_reference(shape, eps, seed):
    grid = Grid2D.uniform(*shape)
    v = random_admissible_state(grid.gx, np.random.default_rng(seed))
    field = elliptic.solve_potential(v, eps, grid)
    _, matrix, rhs = natural_reference(v, eps, grid)
    reference = splu(matrix, permc_spec="MMD_AT_PLUS_A").solve(rhs)
    x = field.phi[1:-1, 1:-1].ravel()
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize(
    "shape, bound",
    [((32, 32), 1.0), ((128, 128), 1.0),
     ((8, 8), 1.1), ((16, 12), 1.1), ((24, 24), 1.1), ((48, 48), 1.1), ((64, 32), 1.1)],
)
def test_dissection_fill_against_minimum_degree(shape, bound):
    grid = Grid2D.uniform(*shape)
    v = random_admissible_state(grid.gx, np.random.default_rng(7))
    coeffs, matrix, rhs = natural_reference(v, 0.1, grid)
    eta = np.broadcast_to(grid.eta_nodes, grid.shape)
    weights = elliptic._stencil_weights(coeffs)
    ours = solve_sparse(*formed_system(weights, np.zeros(grid.shape), eta))[1]
    mmd = splu(matrix, permc_spec="MMD_AT_PLUS_A")
    fill, mmd_fill = ours.L.nnz + ours.U.nnz, mmd.L.nnz + mmd.U.nnz
    if bound == 1.0:
        assert fill < mmd_fill
    else:
        assert fill <= bound * mmd_fill


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(3, 3), (8, 5), (5, 12), (16, 16), (24, 20)]),
    eps=st.floats(0.05, 5.0),
    seed=st.integers(0, 2**32 - 1),
    even=st.booleans(),
)
def test_trace_response_matches_a_separate_dirichlet_solve(shape, eps, seed, even):
    # an even membrane and forcing: the half factor, checked on the full system
    rng = np.random.default_rng(seed)
    grid = Grid2D.uniform(*shape)
    v = random_admissible_state(grid.gx, rng)
    if even:
        v = MembraneState(grid.gx, 0.5 * (v.u + v.u[::-1]))
    field = elliptic.solve_potential(v, eps, grid)
    assert field.folded == even
    coeffs = assemble_coefficients(v, eps, grid)
    k = 3
    forcing = rng.normal(size=(grid.gx.n_cells - 1, grid.n_eta - 1, k))
    if even:
        forcing = forcing + forcing[::-1]
    for c in range(k):
        trace = elliptic.trace_response(field, forcing[..., c])
        rhs_field = np.zeros(grid.shape)
        rhs_field[1:-1, 1:-1] = forcing[..., c]
        w = elliptic.solve_dirichlet(coeffs, rhs_field, np.zeros(grid.shape))
        expected = elliptic._top_derivative(w, grid.h_eta)
        assert np.linalg.norm(trace - expected) <= 1e-9 * np.linalg.norm(expected)


@pytest.mark.parametrize("shape", [(3, 3), (4, 3), (8, 5), (9, 7), (16, 12), (17, 10)])
def test_folded_system_is_the_half_rows_of_the_full_system_on_mirrored_values(shape):
    """The fold is R A E: the rows of A at the nodes with x >= 0, applied
    to the mirror extension of their values, with R b as right-hand side."""
    grid = Grid2D.uniform(*shape)
    n_x = shape[0]
    v = random_admissible_state(grid.gx, np.random.default_rng(3))  # the map needs no symmetry
    coeffs = assemble_coefficients(v, 0.3, grid)
    eta = np.broadcast_to(grid.eta_nodes, grid.shape)
    zero = np.zeros(grid.shape)
    full_p = elliptic._pattern(*shape)
    half_p = elliptic._pattern(*shape, folded=True)
    assert elliptic._pattern(*shape, folded=True) is half_p
    assert half_p.n == (n_x - (n_x + 1) // 2) * (shape[1] - 1)
    for a in (half_p.perm, *half_p.nodes, half_p.take, half_p.extra_slots, half_p.extra_take):
        assert not a.flags.writeable
    weights = elliptic._stencil_weights(coeffs)
    full_matrix, full_rhs = formed_system(weights, zero, eta)
    half_matrix, half_rhs = formed_system(weights, zero, eta, folded=True)

    full_index = {node: k for k, node in enumerate(zip(*full_p.nodes))}
    half_index = {node: k for k, node in enumerate(zip(*half_p.nodes))}
    rows = [full_index[node] for node in zip(*half_p.nodes)]
    extend = np.zeros((full_p.n, half_p.n))  # E: interior column i takes column max(i, n_x - i)
    for k, (i, j) in enumerate(zip(*full_p.nodes)):
        extend[k, half_index[(max(i, n_x - 2 - i), j)]] = 1.0
    assert half_matrix.has_sorted_indices
    assert np.array_equal(half_matrix.toarray(), full_matrix.toarray()[rows] @ extend)
    assert np.array_equal(half_rhs, full_rhs[rows])


def full_path_g(v, eps, grid):
    """``g_eps`` computed from the potential of the full operator."""
    tr = elliptic._top_derivative(full_potential(v, eps, grid), grid.h_eta)
    dv = v.slope
    return (1.0 + eps * eps * dv * dv) / (1.0 + v.u) ** 2 * tr * tr


@settings(max_examples=40, deadline=None)
@given(
    n_x=st.integers(3, 40),
    n_eta=st.integers(3, 24),
    eps=st.floats(0.01, 10.0),
    depth=st.floats(0.0, 0.8),
    power=st.floats(0.5, 3.0),
)
def test_folded_potential_matches_the_full_solve(n_x, n_eta, eps, depth, power):
    grid = Grid2D.uniform(n_x, n_eta)
    x = grid.gx.nodes
    bump = -depth * (1.0 - x * x) ** power  # single-peaked
    v = MembraneState(grid.gx, 0.5 * (bump + bump[::-1]))
    assert elliptic.is_even(v)
    field = elliptic.solve_potential(v, eps, grid)
    phi = field.phi
    assert field.folded
    assert np.array_equal(phi, phi[::-1])
    assert np.max(np.abs(phi - full_potential(v, eps, grid))) <= 1e-12
    g = elliptic.g_eps(v, eps, grid)[0]
    assert np.max(np.abs(g - full_path_g(v, eps, grid))) <= 1e-12 * np.max(np.abs(g))

    # one node moved by twice the threshold: the full solve, bit for bit
    u = v.u.copy()
    u[n_x - 1] += 2.0 * elliptic._EVEN_TOL
    uneven = MembraneState(grid.gx, u)
    assert not elliptic.is_even(uneven)
    field = elliptic.solve_potential(uneven, eps, grid)
    assert not field.folded
    assert np.array_equal(field.phi, full_potential(uneven, eps, grid))
    assert np.array_equal(elliptic.g_eps(uneven, eps, grid)[0], full_path_g(uneven, eps, grid))


@pytest.mark.parametrize("shape", [(128, 128), (512, 16), (1024, 8), (33, 17)])
@pytest.mark.parametrize("eps", [1.0, 10.0])
def test_asymmetry_at_the_threshold_stays_inside_the_residual_tolerance(shape, eps):
    """The worst odd perturbation (alternating signs) of a deep even
    membrane, as large as the folded path admits, leaves the mirrored
    potential a tenth of the residual tolerance of the full system."""
    grid = Grid2D.uniform(*shape)
    n_x = shape[0]
    x = grid.gx.nodes
    i = np.arange(n_x + 1)
    alternating = (-1.0) ** i
    odd = np.where(2 * i > n_x, alternating, 0.0) - np.where(2 * i < n_x, alternating[::-1], 0.0)
    odd[0] = odd[-1] = 0.0
    even = -0.8 * (1.0 - x * x)
    even = 0.5 * (even + even[::-1])
    v = MembraneState(grid.gx, even + 0.4995 * elliptic._EVEN_TOL * odd)
    assert elliptic.is_even(v)
    assert float(np.max(np.abs(v.u - v.u[::-1]))) > 0.99 * elliptic._EVEN_TOL
    phi = elliptic.solve_potential(v, eps, grid).phi
    coeffs = assemble_coefficients(v, eps, grid)
    weights = elliptic._stencil_weights(coeffs)
    matrix, rhs = formed_system(weights, np.zeros(grid.shape), phi)
    x_full = phi[1:-1, 1:-1][elliptic._pattern(*shape).nodes]
    residual = np.linalg.norm(matrix @ x_full - rhs) / np.linalg.norm(rhs)
    assert residual <= 0.1 * elliptic._POTENTIAL_TOL


def tilted(grid, depth=0.3, tilt=0.5):
    x = grid.nodes
    return MembraneState(grid, -depth * (1.0 - x * x) * (1.0 + tilt * x))


def test_folded_check_rejects_an_uneven_membrane(monkeypatch):
    """Admitted by a forged ``is_even``, a clearly uneven membrane is solved
    on the half rectangle; its mirrored solution fails the full check."""
    grid = Grid2D.uniform(16, 12)
    v = tilted(grid.gx)
    monkeypatch.setattr(elliptic, "is_even", lambda v: True)
    with pytest.raises(NonConvergenceError, match="sparse solve residual") as info:
        elliptic.solve_potential(v, 1.0, grid)
    assert info.value.residual > 1e-6


@pytest.mark.parametrize("tilt", [0.0, 0.5])
def test_residual_check_fires_on_both_patterns(monkeypatch, tilt):
    """A solution off by 1e-6 fails the full-stencil check, whether the
    membrane is even (half pattern) or not (full pattern)."""
    grid = Grid2D.uniform(16, 12)
    v = tilted(grid.gx, tilt=tilt)
    assert elliptic.is_even(v) == (tilt == 0.0)
    real = elliptic.solve_sparse

    def perturbed(matrix, rhs):
        x, lu = real(matrix, rhs)
        return x + 1e-6, lu

    monkeypatch.setattr(elliptic, "solve_sparse", perturbed)
    with pytest.raises(NonConvergenceError, match="sparse solve residual") as info:
        elliptic.solve_potential(v, 1.0, grid)
    weights = elliptic._stencil_weights(assemble_coefficients(v, 1.0, grid))
    eta = np.broadcast_to(grid.eta_nodes, grid.shape)
    rhs = formed_system(weights, np.zeros(grid.shape), eta)[1]
    assert info.value.residual > elliptic._POTENTIAL_TOL * np.linalg.norm(rhs)


def test_trace_response_rejects_a_factor_of_another_membrane():
    grid = Grid2D.uniform(16, 12)
    field = elliptic.solve_potential(tilted(grid.gx), 1.0, grid)
    other = elliptic.solve_potential(tilted(grid.gx, tilt=-0.5), 1.0, grid)
    forcing = np.random.default_rng(0).normal(size=(grid.gx.n_cells - 1, grid.n_eta - 1))
    elliptic.trace_response(field, forcing)  # its own factor passes
    forged = replace(field, lu=other.lu)
    with pytest.raises(NonConvergenceError, match="sparse solve residual"):
        elliptic.trace_response(forged, forcing)


def test_folded_trace_response_rejects_an_odd_forcing():
    """The half factor cannot answer an odd forcing; the full check says so."""
    grid = Grid2D.uniform(16, 12)
    x = grid.gx.nodes
    field = elliptic.solve_potential(MembraneState(grid.gx, -0.4 * (1.0 - x * x)), 1.0, grid)
    assert field.folded
    forcing = np.random.default_rng(2).normal(size=(grid.gx.n_cells - 1, grid.n_eta - 1))
    with pytest.raises(NonConvergenceError, match="sparse solve residual") as info:
        elliptic.trace_response(field, forcing - forcing[::-1])
    assert info.value.residual > 1e-6
