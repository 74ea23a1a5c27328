import numpy as np
import pytest
import scipy.sparse as sp

from mems_fbp.errors import NonConvergenceError, SingularSystemError
from mems_fbp.numerics import (
    Grid1D,
    Grid2D,
    check_residual,
    d1_central,
    d2_central,
    fit_exponential_rate,
    gmres,
    solve_sparse,
    solve_tridiagonal,
)


class TestGrids:
    def test_grid1d_uniform(self):
        g = Grid1D.uniform(64)
        assert g.nodes[0] == -1.0 and g.nodes[-1] == 1.0
        assert g.n_nodes == 65
        diffs = np.diff(g.nodes)
        assert np.all(np.abs(diffs - g.h) <= 1e-14 * g.h)

    def test_grid2d_uniform(self):
        g = Grid2D.uniform(16, 24)
        assert g.eta_nodes[0] == 0.0 and g.eta_nodes[-1] == 1.0
        assert g.shape == (17, 25)

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            Grid1D.uniform(2)


class TestTridiagonal:
    def test_identity(self):
        x = solve_tridiagonal([0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0], [2.0, 3.0, 4.0])
        np.testing.assert_allclose(x, [2.0, 3.0, 4.0], rtol=0, atol=0)

    def test_two_by_two(self):
        x = solve_tridiagonal([1.0], [2.0, 2.0], [1.0], [3.0, 3.0])
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-15)

    def test_random_dominant_residual(self, rng):
        n = 50
        lower = rng.uniform(-1, 1, n - 1)
        upper = rng.uniform(-1, 1, n - 1)
        diag = 3.0 + rng.uniform(0, 1, n)  # strictly dominant
        rhs = rng.standard_normal(n)
        x = solve_tridiagonal(lower, diag, upper, rhs)
        A = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        res = np.max(np.abs(A @ x - rhs))
        assert res <= 1e-12 * (np.max(np.abs(rhs)) + 1.0)

    def test_two_right_hand_sides_in_one_call(self, rng):
        n = 40
        lower = rng.uniform(-1, 1, n - 1)
        upper = rng.uniform(-1, 1, n - 1)
        diag = 3.0 + rng.uniform(0, 1, n)
        rhs = rng.standard_normal((n, 2))
        x = solve_tridiagonal(lower, diag, upper, rhs)
        A = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        assert x.shape == (n, 2)
        np.testing.assert_allclose(x, np.linalg.solve(A, rhs), rtol=0, atol=1e-13)

    def test_zero_pivot_named(self):
        with pytest.raises(SingularSystemError, match="row 1"):
            solve_tridiagonal([1.0], [1.0, 1.0], [1.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            solve_tridiagonal([1.0], [1.0, 1.0, 1.0], [1.0], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("rhs", [[1.0, 1.0], [1.0, 1.0, 1.0, 1.0], 1.0])
    def test_rhs_length_mismatch(self, rhs):
        with pytest.raises(ValueError, match="does not match diagonal length 3"):
            solve_tridiagonal([1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0], rhs)


class TestSolveSparse:
    def test_identity(self, rng):
        b = rng.standard_normal(10)
        x, _ = solve_sparse(sp.eye(10, format="csr"), b)
        np.testing.assert_allclose(x, b, atol=1e-14)

    def _laplacian(self, m):
        # standard 5-point Laplacian on an m x m interior block
        n = m * m
        main = 4.0 * np.ones(n)
        off = -np.ones(n - 1)
        off[m - 1 :: m] = 0.0
        far = -np.ones(n - m)
        return sp.diags([main, off, off, far, far], [0, 1, -1, m, -m], format="csr")

    def test_laplacian_vs_dense_lu(self, rng):
        A = self._laplacian(8)
        # forcing from a known quadratic on the unit square
        h = 1.0 / 9.0
        xy = np.array([(i * h, j * h) for i in range(1, 9) for j in range(1, 9)])
        b = h * h * (2.0 * xy[:, 0] * (1 - xy[:, 0]) + 2.0 * xy[:, 1] * (1 - xy[:, 1]))
        x = solve_sparse(A, b)[0]
        x_dense = np.linalg.solve(A.toarray(), b)
        assert np.max(np.abs(x - x_dense)) <= 1e-10

    @pytest.mark.parametrize("dim", [20, 100, 200])
    def test_matches_dense_lu_random(self, dim, rng):
        A = sp.random(dim, dim, density=0.05, random_state=rng, format="csr")
        A = A + sp.eye(dim) * dim  # shift to safe diagonal dominance
        b = rng.standard_normal(dim)
        x = solve_sparse(A.tocsr(), b)[0]
        x_dense = np.linalg.solve(A.toarray(), b)
        assert np.max(np.abs(x - x_dense)) <= 1e-9

    def test_singular_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SingularSystemError):
            solve_sparse(A, np.array([1.0, 1.0]))


class TestCheckResidual:
    def test_non_finite_residual_is_singular(self):
        with pytest.raises(SingularSystemError, match="non-finite"):
            check_residual(np.array([0.0, np.nan]), np.ones(2), 1e-10)

    def test_residual_norm_against_the_bound(self):
        rhs = np.ones(4)  # ||rhs||_2 = 2, bound 2e-10
        check_residual(np.full(4, 0.9e-10), rhs, 1e-10)  # norm 1.8e-10: inside
        with pytest.raises(NonConvergenceError, match="6.000e-10 exceeds 2.000e-10") as info:
            check_residual(np.full(4, 3e-10), rhs, 1e-10)
        assert info.value.residual == pytest.approx(6e-10, rel=1e-12)

    def test_grid_array_is_one_vector(self):
        # the 2-norm over every entry against that of the whole right-hand
        # side, as the potential check reads its grid
        rhs = np.ones((4, 3))  # norm sqrt(12), bound 3.464e-10
        residual = np.zeros((4, 3))
        residual[:, 1] = 2e-10  # norm 4e-10
        with pytest.raises(NonConvergenceError, match="4.000e-10 exceeds 3.464e-10"):
            check_residual(residual, rhs, 1e-10)


class TestGmres:
    @staticmethod
    def system(n=20, seed=0):
        rng = np.random.default_rng(seed)
        a = np.eye(n) * 4.0 + rng.normal(size=(n, n))  # nonsymmetric
        return a, rng.normal(size=n)

    def test_solves_to_the_absolute_bound(self):
        a, b = self.system()
        x, iters, residual = gmres(lambda v: a @ v, b, lambda v: v, 1e-10, b.size)
        assert residual <= 1e-10
        # the reported residual is the true one, up to roundoff
        assert abs(np.linalg.norm(b - a @ x) - residual) <= 1e-12
        assert 0 < iters <= b.size

    def test_exact_preconditioner_takes_one_iteration(self):
        a, b = self.system()
        inverse = np.linalg.inv(a)
        x, iters, residual = gmres(lambda v: a @ v, b, lambda v: inverse @ v, 1e-10, b.size)
        assert iters == 1 and residual <= 1e-10
        assert np.max(np.abs(a @ x - b)) <= 1e-10

    def test_iteration_cap_reports_the_residual(self):
        a, b = self.system()
        x, iters, residual = gmres(lambda v: a @ v, b, lambda v: v, 1e-10, 3)
        assert iters == 3
        assert residual > 1e-10
        assert abs(np.linalg.norm(b - a @ x) - residual) <= 1e-10 * np.linalg.norm(b)

    def test_zero_right_hand_side(self):
        a, _ = self.system()
        x, iters, residual = gmres(lambda v: a @ v, np.zeros(20), lambda v: v, 0.0, 20)
        assert iters == 0 and residual == 0.0 and not np.any(x)

    def test_breakdown_on_the_first_vector_returns_zeros(self):
        # A M^{-1} maps b to zero: the first Krylov vector brings no
        # progress, so GMRES stops with x = 0 and the residual ||b||
        b = np.arange(1.0, 6.0)
        x, iters, residual = gmres(np.zeros_like, b, lambda v: v, 1e-10, b.size)
        assert iters == 0 and not np.any(x)
        assert residual == np.linalg.norm(b)


class TestDerivatives:
    def test_constant(self, grid32):
        f = np.full(grid32.n_nodes, 3.7)
        assert np.max(np.abs(d1_central(f, grid32))) == 0.0
        assert np.max(np.abs(d2_central(f, grid32))) == 0.0

    def test_quadratic_exactness(self, grid32):
        f = grid32.nodes**2
        np.testing.assert_allclose(d2_central(f, grid32), 2.0, rtol=1e-12)
        np.testing.assert_allclose(d1_central(f, grid32), 2.0 * grid32.nodes, atol=1e-13)

    @pytest.mark.parametrize("op,exact", [
        (d1_central, lambda x: np.pi * np.cos(np.pi * x)),
        (d2_central, lambda x: -np.pi**2 * np.sin(np.pi * x)),
    ])
    def test_refinement_order(self, op, exact):
        errors, hs = [], []
        for n in (32, 64, 128):
            g = Grid1D.uniform(n)
            err = op(np.sin(np.pi * g.nodes), g) - exact(g.nodes)
            errors.append(np.max(np.abs(err[1:-1])))
            hs.append(g.h)
        order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert 1.9 <= order <= 2.1

    def test_length_mismatch(self, grid32):
        with pytest.raises(ValueError):
            d1_central(np.zeros(7), grid32)
        with pytest.raises(ValueError):
            d2_central(np.zeros(7), grid32)


class TestFitExponentialRate:
    def test_pure_decay(self):
        t = np.linspace(0, 3, 40)
        rate, r2 = fit_exponential_rate(t, np.exp(-2.0 * t))
        assert abs(rate + 2.0) <= 1e-8
        assert abs(r2 - 1.0) <= 1e-12

    def test_constant_values(self):
        rate, r2 = fit_exponential_rate(np.linspace(0, 1, 6), np.full(6, 2.5))
        assert rate == 0.0 and r2 == 0.0

    def test_noisy_decay(self, rng):
        t = np.linspace(0, 5, 200)
        v = 3.0 * np.exp(-0.5 * t) * (1.0 + 0.001 * rng.standard_normal(t.size))
        rate, r2 = fit_exponential_rate(t, v)
        assert abs(rate + 0.5) <= 0.01
        assert r2 > 0.99

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential_rate(np.arange(5.0), np.array([1.0, 1.0, 0.0, 1.0, 1.0]))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_exponential_rate(np.arange(4.0), np.ones(4))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_exponential_rate(np.arange(6.0), np.ones(5))
