"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them all); tolerances are fixed, not tuned per run.  C1-C5 and C12 call
the checks of ``mems_fbp.criteria`` at the acceptance sizes, the same
checks the ``validate`` kind runs at 32x32; the other tolerances are
fixed here.  Shared expensive computations live in module-scoped
fixtures.
"""

import time

import numpy as np
import pytest

from mems_fbp import criteria, small_aspect, steady
from mems_fbp.evolution import ModelParams, run, step
from mems_fbp.numerics import Grid1D, Grid2D, fit_exponential_rate
from mems_fbp.transform import MembraneState


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}")


# ----------------------------------------------------------------------
# shared expensive artifacts
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def run_even_sign():
    """1000-step run at lambda=0.3, eps=0.1 from even nonpositive data."""
    traj, eps, grid2d = criteria.even_run(48, 32, 1000)
    assert len(traj.states) == 1001  # initial state plus 1000 steps
    return traj, eps, grid2d


@pytest.fixture(scope="module")
def steady_and_evolution():
    """Newton steady state and long-time evolution at (0.2, 0.1).

    The IMEX step's fixed points are the discrete steady states at any dt
    (``test_steady_states_are_fixed_points_of_the_flow``), so the
    evolution steps at dt 0.1 to the same limit."""
    grid = Grid1D.uniform(64)
    grid2d = Grid2D.uniform(64, 32)
    t0 = time.perf_counter()
    u_star = steady.solve_steady(0.2, 0.1, MembraneState.zero(grid), grid2d=grid2d).state
    p = ModelParams(eps=0.1, lam=0.2, dt=0.1, equilibrium_tol=1e-8, max_time=30.0)
    traj = run(MembraneState.zero(grid), p, grid2d, thin_every=1000)
    elapsed = time.perf_counter() - t0
    return grid2d, u_star, traj, elapsed


@pytest.fixture(scope="module")
def branch_eps01_n128():
    """Continuation branch at eps=0.1 on the n=128 grid (trace checks)."""
    return steady.continue_branch(0.1, lambda_max=0.32, dlambda0=0.08, n_x=128, n_eta=128)


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------


def test_c01_elliptic_mms_order():
    t0 = time.perf_counter()
    ok, detail = criteria.mms_order((0.1, 1.0), (32, 64, 128))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report("C1", ok, f"{detail}, {elapsed:.1f}s < 30s")
    assert ok


def test_c02_dual_formulation_oracle():
    t0 = time.perf_counter()
    ok, detail = criteria.dual_formulation(Grid2D.uniform(64, 64), 20, np.random.default_rng(1))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report("C2", ok, f"{detail}, {elapsed:.1f}s < 60s")
    assert ok


def test_c03_unit_source_at_rest():
    ok, detail = criteria.unit_source_at_rest(Grid2D.uniform(64, 64))
    report("C3", ok, detail)
    assert ok


def test_c04_symmetry_preservation(run_even_sign):
    ok, detail = criteria.symmetry(*run_even_sign)
    report("C4", ok, detail)
    assert ok


def test_c05_sign_preservation(run_even_sign):
    ok, detail = criteria.sign(run_even_sign[0])
    report("C5", ok, detail)
    assert ok


def test_c06_steady_cross_oracle(steady_and_evolution):
    _, u_star, traj, elapsed = steady_and_evolution
    gap = float(np.max(np.abs(u_star.u - traj.final.u)))
    u = u_star.u
    negative = float(np.max(u[1:-1])) < 0.0
    convex = float(np.min(u[2:] - 2.0 * u[1:-1] + u[:-2])) > -1e-10
    even = float(np.max(np.abs(u - u[::-1]))) <= 1e-10
    ok = gap <= 1e-6 and negative and convex and even and elapsed < 300.0
    report(
        "C6",
        ok,
        f"Newton-vs-evolution gap {gap:.2e} <= 1e-6; negative={negative} "
        f"convex={convex} even={even}; {elapsed:.0f}s < 300s",
    )
    assert ok


def test_c07_exponential_stability(steady_and_evolution):
    grid2d, u_star, _, _ = steady_and_evolution
    grid = u_star.grid
    pert = -0.01 * np.sin(np.pi * (grid.nodes + 1.0) / 2.0)
    u = MembraneState(grid, u_star.u + pert)
    p = ModelParams(eps=0.1, lam=0.2, dt=2e-3, equilibrium_tol=1e-8, max_time=30.0)
    times, errs = [], []
    while True:
        times.append(u.time)
        errs.append(float(np.max(np.abs(u.u - u_star.u))))
        u_next = step(u, p, grid2d)[0]
        done = float(np.max(np.abs(u_next.u - u.u))) / p.dt <= p.equilibrium_tol
        u = u_next
        if done or u.time > p.max_time:
            break
    times = np.array(times)
    errs = np.array(errs)
    floor = max(errs[-1], 1e-14)
    mask = (errs >= 10.0 * floor) & (errs <= 100.0 * floor)
    rate, r2 = fit_exponential_rate(times[mask], errs[mask])
    ok = r2 >= 0.99 and rate < 0.0
    report("C7", ok, f"final-decade fit over {mask.sum()} samples: rate={rate:.3f} < 0, r^2={r2:.6f} >= 0.99")
    assert ok


def test_c08_nonexistence_bound_and_folds():
    b01 = steady.nonexistence_bound(0.1)
    b1 = steady.nonexistence_bound(1.0)
    b001 = steady.nonexistence_bound(0.01)
    closed_form_ok = (
        abs(b01 - 1.9835) <= 1e-3
        and abs(b1 - 2.0 / 3.0) <= 1e-6
        and abs(b001 - 2.0) <= 2e-4
    )
    folds = {}
    for eps in (0.1, 1.0):
        branch = steady.continue_branch(eps, lambda_max=2.0, dlambda0=0.05, n_x=48, n_eta=48)
        folds[eps] = branch.fold_estimate
    folds_ok = (
        folds[0.1] is not None
        and folds[1.0] is not None
        and folds[0.1] <= b01
        and folds[1.0] <= b1
    )
    ok = closed_form_ok and folds_ok
    report(
        "C8",
        ok,
        f"bounds: {b01:.6f}~1.9835, {b1:.7f}~2/3, {b001:.6f}~2; "
        f"folds {folds} below bounds={folds_ok}",
    )
    assert ok


def test_c09_trace_inequality(branch_eps01_n128):
    branch = branch_eps01_n128
    grid2d = Grid2D.uniform(128, 128)
    worst = min(
        steady.trace_lower_bound_check(pt.state, 0.1, grid2d) for pt in branch.points
    )
    bound_ok = worst >= 1.0 - 1e-3

    # refinement of the bound violation at a shared branch voltage
    lam_ref = 0.24
    violations = []
    for n in (32, 64):
        g2 = Grid2D.uniform(n, n)
        u = steady.solve_steady(lam_ref, 0.1, MembraneState.zero(g2.gx), grid2d=g2).state
        violations.append(max(0.0, 1.0 - steady.trace_lower_bound_check(u, 0.1, g2)))
    point = next(pt for pt in branch.points if abs(pt.lam - lam_ref) < 1e-12)
    violations.append(max(0.0, 1.0 - steady.trace_lower_bound_check(point.state, 0.1, grid2d)))

    if max(violations) <= 1e-12:
        refine_ok = True
        refine_msg = "no violation at any grid (order-2 decay vacuous)"
    else:
        ratios = [c / max(f, 1e-300) for c, f in zip(violations, violations[1:])]
        refine_ok = all(r >= 3.0 for r in ratios)
        refine_msg = f"violations {violations}, doubling ratios {ratios} >= 3"
    ok = bound_ok and refine_ok
    report(
        "C9",
        ok,
        f"min physical trace over {len(branch.points)} branch points = {worst:.6f} "
        f">= 0.999; {refine_msg}",
    )
    assert ok


def test_c10_small_aspect_pullin():
    result = small_aspect.pullin0_detail(1e-4)
    lo, hi = result.bracket
    bracket_ok = lo <= result.lambda_star <= hi and hi - lo <= 1e-4
    oracle_gap = abs(result.lambda_star - result.shooting_value)
    ok = bracket_ok and oracle_gap <= 2e-4
    report(
        "C10",
        ok,
        f"pull-in {result.lambda_star:.6f}, bracket width {hi - lo:.2e} <= 1e-4, "
        f"shooting gap {oracle_gap:.2e} <= 2e-4",
    )
    assert ok


def test_c11_small_aspect_limit():
    t0 = time.perf_counter()
    grid = Grid1D.uniform(64)
    comp = small_aspect.limit_study(
        MembraneState.zero(grid), 0.5, [0.2, 0.1, 0.05], 1.0, n_eta=64, dt=1e-3
    )
    elapsed = time.perf_counter() - t0
    sup = comp.sup_errors
    pot = comp.potential_sup_errors
    decreasing = all(a > b for a, b in zip(sup, sup[1:])) and all(
        a > b for a, b in zip(pot, pot[1:])
    )
    ok = decreasing and elapsed < 900.0
    report(
        "C11",
        ok,
        f"sup errors {['%.3e' % e for e in sup]} and potential errors "
        f"{['%.3e' % e for e in pot]} strictly decreasing; {elapsed:.0f}s < 900s",
    )
    assert ok


def test_c12_degeneration_consistency():
    ok, detail = criteria.degeneration(64, 100)
    report("C12", ok, detail)
    assert ok
