import numpy as np
import pytest

from mems_fbp import criteria, elliptic, numerics
from mems_fbp import evolution
from mems_fbp.errors import NonConvergenceError
from mems_fbp.evolution import ModelParams, Trajectory, run, step, total_energy
from mems_fbp.numerics import Grid1D, Grid2D
from mems_fbp.steady import steady_residual
from mems_fbp.transform import MembraneState


@pytest.fixture(scope="module")
def grid():
    return Grid1D.uniform(32)


@pytest.fixture(scope="module")
def grid2d(grid):
    return Grid2D.uniform(32, 16)


@pytest.fixture
def splu_calls(monkeypatch):
    """A list that gains one entry per ``numerics.splu`` factorization."""
    real, calls = numerics.splu, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(numerics, "splu", counted)
    return calls


@pytest.fixture(scope="module")
def settled(grid, grid2d):
    """Converged run at small voltage, every state stored."""
    p = ModelParams(eps=0.1, lam=0.1, dt=2e-3, equilibrium_tol=1e-7, max_time=30.0)
    traj = run(MembraneState.zero(grid), p, grid2d, thin_every=1)
    return p, traj


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(eps=-1.0, lam=0.1)
        with pytest.raises(ValueError):
            ModelParams(eps=0.1, lam=-0.1)
        with pytest.raises(ValueError):
            ModelParams(eps=0.1, lam=0.1, touchdown_floor=1.5)
        for name in ("eps", "lam", "dt", "touchdown_floor", "equilibrium_tol", "max_time"):
            with pytest.raises(ValueError):
                ModelParams(**{name: float("nan")})


class TestStep:
    def test_zero_voltage_fixed_point(self, grid, grid2d):
        p = ModelParams(eps=0.1, lam=0.0)
        u1 = step(MembraneState.zero(grid), p, grid2d)[0]
        assert np.max(np.abs(u1.u)) == 0.0
        assert u1.time == p.dt

    def test_curvature_flow_decays(self, grid, grid2d):
        x = grid.nodes
        u = MembraneState(grid, -0.1 * np.sin(np.pi * (x + 1.0) / 2.0))
        p = ModelParams(eps=1.0, lam=0.0, dt=1e-3)
        norms = [np.max(np.abs(u.u))]
        for _ in range(20):
            u = step(u, p, grid2d)[0]
            norms.append(np.max(np.abs(u.u)))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_one_step_against_dense_oracle(self, grid, grid2d):
        # from rest the step is a single implicit-diffusion solve with
        # constant forcing; reproduce it with a dense solver
        p = ModelParams(eps=0.3, lam=1.0, dt=1e-3)
        u1 = step(MembraneState.zero(grid), p, grid2d)[0]

        n = grid.n_nodes - 2
        r = p.dt / grid.h**2
        A = (1.0 + 2.0 * r) * np.eye(n) - r * (np.eye(n, k=1) + np.eye(n, k=-1))
        expected = np.linalg.solve(A, np.full(n, -p.dt))
        assert np.max(np.abs(u1.u[1:-1] - expected)) <= 1e-12

    def test_curved_step_against_dense_oracle(self, grid, grid2d):
        # at zero voltage a step is one implicit solve whose diffusion is the
        # curvature factor (1 + eps^2 u_x^2)^(-3/2) at the current state,
        # which falls to 0.61 on this profile; unit diffusion fails here
        x = grid.nodes
        u = MembraneState(grid, -0.4 * np.sin(np.pi * (x + 1.0) / 2.0))
        p = ModelParams(eps=1.0, lam=0.0, dt=1e-3)
        u1 = step(u, p, grid2d)[0]

        slope = (u.u[2:] - u.u[:-2]) / (2.0 * grid.h)
        factor = (1.0 + p.eps**2 * slope**2) ** -1.5
        assert factor.min() < 0.62
        r = p.dt * factor / grid.h**2
        A = np.diag(1.0 + 2.0 * r) - np.diag(r[1:], -1) - np.diag(r[:-1], 1)
        expected = np.linalg.solve(A, u.u[1:-1])
        assert np.max(np.abs(u1.u[1:-1] - expected)) <= 1e-12


class TestRun:
    def test_one_factorization_per_step(self, monkeypatch):
        # folded (even start) or full (uneven start), each step's potential
        # takes the one solve path: one assembly, one factorization
        calls = {"splu": 0, "assemble_system": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(numerics, "splu")
        counted(elliptic, "assemble_system")
        grid = Grid1D.uniform(16)
        x = grid.nodes
        tilted = MembraneState(grid, -0.1 * (1.0 - x * x) * (1.0 + 0.2 * x))
        p = ModelParams(eps=0.1, lam=0.3, dt=1e-3, max_time=0.02)
        for u0, solves in ((MembraneState.zero(grid), "folded_solves"), (tilted, "full_solves")):
            calls.update(splu=0, assemble_system=0)
            traj = run(u0, p, Grid2D.uniform(16, 12), thin_every=1)
            assert traj.outcome == "max_time_reached"
            assert len(traj.states) - 1 == 20
            assert traj.diagnostics["steps"] == traj.diagnostics[solves] == 20
            assert calls == {"splu": 20, "assemble_system": 20}

    @pytest.mark.parametrize("thin_every", [0, -3])
    def test_thin_every_below_one_rejected_before_any_solve(
        self, splu_calls, grid, grid2d, thin_every
    ):
        # checked at entry: 0 would divide by zero after the first solve,
        # and -3 would store every third state
        p = ModelParams(eps=0.1, lam=0.3, max_time=0.01)
        with pytest.raises(ValueError, match="thin_every must be at least 1"):
            run(MembraneState.zero(grid), p, grid2d, thin_every=thin_every)
        assert splu_calls == []

    @pytest.mark.parametrize("thin_every", [10, 1])
    def test_recorded_energy_solves_no_potential_twice(self, splu_calls, thin_every):
        # a stored state's energy reuses the potential its step solved; only
        # the last stored state, which starts no step, is factorized again
        grid2d = Grid2D.uniform(32, 32)
        x = grid2d.gx.nodes
        u0 = MembraneState(grid2d.gx, -0.1 * (1.0 - x * x))
        p = ModelParams(eps=0.1, lam=0.3, dt=1e-3, equilibrium_tol=0.0, max_time=0.1)
        for record_energy, extra in ((True, 1), (False, 0)):
            splu_calls.clear()
            traj = run(u0, p, grid2d, thin_every=thin_every, record_energy=record_energy)
            assert traj.diagnostics["steps"] == 100
            assert len(splu_calls) == 100 + extra
        fresh = [
            (s.time, total_energy(s, p, elliptic.solve_potential(s, p.eps, grid2d)))
            for s in traj.states
        ]
        assert run(u0, p, grid2d, thin_every=thin_every, record_energy=True).energy_series == fresh

    def test_recorded_energy_skips_a_state_past_the_plate(self, splu_calls):
        grid2d = Grid2D.uniform(16, 12)
        p = ModelParams(eps=0.1, lam=10.0, dt=1e-2, max_time=5.0)
        traj = run(MembraneState.zero(grid2d.gx), p, grid2d, thin_every=1, record_energy=True)
        assert traj.outcome == "touchdown" and traj.final.min_gap <= 0.0
        assert len(splu_calls) == traj.diagnostics["steps"]
        assert [t for t, _ in traj.energy_series] == [s.time for s in traj.states[:-1]]

    def test_diagnostics_count_the_steps_and_their_solves(self, grid, grid2d):
        p = ModelParams(eps=0.1, lam=0.3, dt=1e-3, max_time=0.01)
        x = grid.nodes
        even = run(MembraneState(grid, -0.1 * (1.0 - x * x)), p, grid2d)
        assert even.diagnostics == {"steps": 10, "folded_solves": 10, "full_solves": 0}
        tilted = MembraneState(grid, -0.1 * (1.0 - x * x) * (1.0 + 0.2 * x))
        uneven = run(tilted, p, grid2d)
        assert uneven.diagnostics == {"steps": 10, "folded_solves": 0, "full_solves": 10}

    def test_failed_step_names_its_index_and_time(self, grid):
        p = ModelParams(eps=0.1, lam=0.1, dt=0.01)
        u0 = MembraneState(grid, -0.1 * (1.0 - grid.nodes**2))

        def shrink_then_fail(u):
            if u.time > 0.015:
                raise NonConvergenceError("sparse solve residual too large", residual=0.5)
            return MembraneState(u.grid, 0.9 * u.u, u.time + p.dt)

        with pytest.raises(NonConvergenceError) as info:
            evolution._run_loop(u0, p, shrink_then_fail, thin_every=1)
        assert str(info.value) == "step 3 from t=0.02: sparse solve residual too large"
        assert info.value.residual == 0.5

    def test_zero_voltage_immediate_convergence(self, grid, grid2d):
        p = ModelParams(eps=0.1, lam=0.0)
        traj = run(MembraneState.zero(grid), p, grid2d)
        assert traj.outcome == "converged"
        assert np.max(np.abs(traj.final.u)) == 0.0

    def test_small_voltage_settles(self, settled):
        p, traj = settled
        assert traj.outcome == "converged"
        u = traj.final.u
        assert np.max(u[1:-1]) < 0.0  # negative
        assert np.min(u[2:] - 2.0 * u[1:-1] + u[:-2]) > -1e-10  # convex
        assert np.max(np.abs(u - u[::-1])) <= 1e-10  # even

    def test_large_voltage_touches_down(self, grid, grid2d):
        p = ModelParams(eps=0.1, lam=10.0, dt=1e-3, max_time=5.0)
        traj = run(MembraneState.zero(grid), p, grid2d)
        assert traj.outcome == "touchdown"
        assert traj.touchdown_time is not None
        assert traj.final.min_gap <= p.touchdown_floor

    def test_times_strictly_increasing(self, settled):
        _, traj = settled
        times = [s.time for s in traj.states]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_equilibrium_consistency(self, settled, grid2d):
        p, traj = settled
        res = steady_residual(traj.final, p.lam, p.eps, grid2d)[0]
        assert np.max(np.abs(res)) <= 100.0 * p.equilibrium_tol

    def test_exponential_approach(self, settled):
        from mems_fbp.numerics import fit_exponential_rate

        p, traj = settled
        final = traj.final.u
        errs = np.array([np.max(np.abs(s.u - final)) for s in traj.states[:-1]])
        times = np.array([s.time for s in traj.states[:-1]])
        # the last steps measure the termination ramp, not the physical
        # decay; the last clean decade sits well above that tail
        tail = max(errs[-1], 1e-14)
        mask = (errs >= 1e3 * tail) & (errs <= 1e4 * tail)
        rate, r2 = fit_exponential_rate(times[mask], errs[mask])
        assert rate < 0.0
        assert r2 >= 0.99

    def test_step_size_robustness(self, grid, grid2d):
        def settle(dt):
            p = ModelParams(eps=0.1, lam=0.1, dt=dt, equilibrium_tol=1e-7, max_time=30.0)
            return run(MembraneState.zero(grid), p, grid2d, thin_every=1000).final.u

        u1 = settle(4e-3)
        u2 = settle(2e-3)
        u3 = settle(1e-3)
        d12 = np.max(np.abs(u1 - u2))
        d23 = np.max(np.abs(u2 - u3))
        # first-order scheme with a dt-independent fixed point: halving dt
        # must not grow the change (allow a floor at the stopping tolerance)
        assert d23 <= 4.0 * max(d12, 1e-9)


class TestEnergy:
    def test_rest_zero_voltage(self, grid, grid2d):
        p = ModelParams(eps=0.1, lam=0.0)
        rest = MembraneState.zero(grid)
        assert total_energy(rest, p, elliptic.solve_potential(rest, p.eps, grid2d)) == 0.0

    @pytest.mark.parametrize("eps", [0.01, 0.3])
    def test_rest_unit_voltage(self, grid, grid2d, eps):
        # flat membrane: no stretching, and the field integral F is density
        # 1 over a 2x1 gap, so E = -lam F = -2
        p = ModelParams(eps=eps, lam=1.0)
        rest = MembraneState.zero(grid)
        e = total_energy(rest, p, elliptic.solve_potential(rest, p.eps, grid2d))
        assert abs(e + 2.0) <= 1e-10

    def test_monotone_under_curvature_flow(self, grid, grid2d):
        x = grid.nodes
        u = MembraneState(grid, -0.1 * np.sin(np.pi * (x + 1.0) / 2.0))
        p = ModelParams(eps=1.0, lam=0.0, dt=1e-3)
        energies = []
        for _ in range(20):
            u_next, field = step(u, p, grid2d)
            energies.append(total_energy(u, p, field))
            u = u_next
        energies.append(total_energy(u, p, elliptic.solve_potential(u, p.eps, grid2d)))
        assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))

    @pytest.mark.parametrize("eps", [0.1, 1.0])
    def test_falls_by_the_dissipation_along_a_run(self, eps):
        # E falls in every step, and its total fall over t in [0, 0.3]
        # matches the discrete dissipation dt sum |(u_{k+1} - u_k)/dt|^2.
        # The relative gap is 2.8 % (eps 0.1) and 4.0 % (eps 1) at dt 1e-3:
        # an O(dt) part of about 0.2-0.3 % per 1e-3 (dt 1e-3, 5e-4, 2.5e-4
        # give 2.82, 2.61, 2.49 % and 4.02, 3.72, 3.57 %) on a spatial part
        # near 2.4 % and 3.4 % that dt cannot remove (1.1 % and 1.5 % at
        # n 64).  The bound is 5 %, and halving dt must take 0.1 % off.
        grid2d = Grid2D.uniform(32, 32)
        x = grid2d.gx.nodes
        u0 = MembraneState(grid2d.gx, -0.2 * (1.0 - x * x) * (1.0 + 0.3 * x))
        gaps = []
        for dt in (1e-3, 5e-4):
            p = ModelParams(eps=eps, lam=0.2, dt=dt, equilibrium_tol=0.0, max_time=0.3)
            traj = run(u0, p, grid2d, thin_every=1, record_energy=True)
            energy = np.array([e for _, e in traj.energy_series])
            assert len(energy) == round(0.3 / dt) + 1
            assert np.all(np.diff(energy) < 0.0)
            u = np.array([s.u for s in traj.states])
            dissipation = np.sum(np.trapezoid(np.diff(u, axis=0) ** 2, x)) / dt
            gaps.append((energy[0] - energy[-1] - dissipation) / dissipation)
        assert 0.0 < gaps[1] < gaps[0] - 1e-3 and gaps[0] < 0.05

    @pytest.mark.parametrize("eps", [0.1, 1.0])
    def test_source_is_the_shape_derivative_of_the_field_integral(self, eps):
        # F = E(lam=0) - E(lam=1) on one potential; its central difference
        # along v matches -int g_eps v to 1.1e-5, 2.4e-6, 4.6e-7 (eps 0.1)
        # and 1.0e-4, 3.7e-5, 1.0e-5 (eps 1) at n 32, 64, 128: each halving
        # of h divides the gap by 4.4, 5.3 and 2.8, 3.6.  Asserted: by 2.
        def field_integral(u, grid2d):
            field = elliptic.solve_potential(u, eps, grid2d)
            zero, unit = ModelParams(eps=eps, lam=0.0), ModelParams(eps=eps, lam=1.0)
            return total_energy(u, zero, field) - total_energy(u, unit, field)

        gaps, s = [], 1e-4
        for n in (32, 64, 128):
            grid2d = Grid2D.uniform(n, n)
            x = grid2d.gx.nodes
            u = -0.2 * (1.0 - x * x) * (1.0 + 0.3 * x)
            v = (1.0 - x * x) * np.cos(1.3 * x)
            plus, minus = (MembraneState(grid2d.gx, u + t * v) for t in (s, -s))
            difference = (field_integral(plus, grid2d) - field_integral(minus, grid2d)) / (2 * s)
            source = elliptic.g_eps(MembraneState(grid2d.gx, u), eps, grid2d)[0]
            derivative = -np.trapezoid(source * v, x)
            gaps.append(abs(difference - derivative) / abs(derivative))
        assert gaps[0] < 2e-4
        assert gaps[1] < gaps[0] / 2 and gaps[2] < gaps[1] / 2

    def test_recorded_series(self, grid, grid2d):
        p = ModelParams(eps=0.1, lam=0.2, dt=1e-3, max_time=0.01)
        traj = run(MembraneState.zero(grid), p, grid2d, thin_every=2, record_energy=True)
        assert traj.energy_series is not None
        assert len(traj.energy_series) == len(traj.states)


class TestStructurePreservation:
    def test_zero_initial_state(self, grid, grid2d):
        p = ModelParams(eps=0.1, lam=0.3, dt=1e-3, max_time=0.05)
        traj = run(MembraneState.zero(grid), p, grid2d, thin_every=1)
        assert criteria.sign(traj)[0]
        assert criteria.symmetry(traj, p.eps, grid2d)[0]

    def test_even_nonpositive_data(self, grid, grid2d):
        x = grid.nodes
        u0 = MembraneState(grid, -0.1 * (1.0 - x * x))
        p = ModelParams(eps=0.1, lam=0.5, dt=1e-3, max_time=0.1)
        traj = run(u0, p, grid2d, thin_every=1)
        assert criteria.sign(traj)[0]
        assert criteria.symmetry(traj, p.eps, grid2d)[0]

    def test_uneven_data_detected(self, grid, grid2d):
        x = grid.nodes
        u0 = MembraneState(grid, -0.1 * (1.0 - x * x) * (1.0 + 0.5 * x))
        p = ModelParams(eps=0.1, lam=0.5, dt=1e-3, max_time=0.02)
        traj = run(u0, p, grid2d, thin_every=1)
        assert not criteria.symmetry(traj, p.eps, grid2d)[0]
        assert criteria.sign(traj)[0]

    def test_state_above_the_plane_detected(self, grid):
        x = grid.nodes
        bump = MembraneState(grid, 0.01 * (1.0 - x * x), time=1e-3)
        traj = Trajectory([MembraneState.zero(grid), bump], "max_time_reached")
        ok, detail = criteria.sign(traj)
        assert not ok
        assert "1.00e-02" in detail
