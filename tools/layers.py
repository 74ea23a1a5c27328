"""Time the program's kernels layer by layer and write ``BENCH_<label>.json``.

    python tools/layers.py --label baseline

Run from anywhere; the program is imported from ``src/`` of this checkout
and the workloads from ``bench/tasks.py``, so the table times what the
benchmark runs.  The process pins itself to one core and BLAS to one
thread.  Each kernel is timed on one state, the parabola
u = -d (1 - x^2) with d the deepest ``evolve`` parabola, at the largest
``evolve`` voltage, on an n x n grid for each n of ``--sizes``: the
``continuation`` grid, 64, the ``evolve`` grid and 256 by default.  The
state is even, so every potential is the folded one; sparse assembly and
the LU factor are also timed unfolded, on the whole rectangle, as a
membrane that is not even takes them.  An n_eta sweep times the LU factor
and one evolution step at the ``evolve`` n_x for n_eta from 8 to 128,
up to the largest n.  The potential kernels and the evolution step are
timed at the ``evolve`` aspect ratio; the residual, the linearization,
one Krylov product and the GMRES Newton step at each ``continuation``
aspect ratio, and at n <= 128 only.  So is one
continuation to the fold, ``steady.continue_branch`` at the
``continuation`` task's lambda_max and voltage step, with the
factorizations, GMRES iterations, tangent solves and points of one run.
One flat-limit pull-in (a fold solve) is timed at the ``flat-pullin`` n_x
and at 2048.
A sample times enough back-to-back calls to last about ``MIN_SAMPLE_S``;
the file gives the median and quartiles of the per-call seconds over
``--samples`` samples, after one warm-up call.  It is written to
``--out-dir``, the checkout by default.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import tasks  # noqa: E402

from mems_fbp import elliptic, evolution, numerics, small_aspect, steady, transform  # noqa: E402

EPS = tasks.EVOLVE_EPS
LAM = max(tasks.EVOLVE_LAMBDA)
DEPTH = max(tasks.EVOLVE_DEPTH)
SIZES = sorted({tasks.CONTINUATION_N, 64, tasks.EVOLVE_N, 256})
ETA_SIZES = (8, 16, 32, 64, 128)
# a sample repeats a kernel, as often as its warm-up call says, to last
# about this long, so that timer resolution and call overhead stay small
MIN_SAMPLE_S = 0.02
FLAT_SIZES = (tasks.PULLIN_N, 2048)
# the steady kernels (residual, linearization, Krylov product, GMRES
# step) run in the benchmark at the continuation grid; they are timed up
# to this n, which shows how they grow
MAX_NEWTON_N = 128
# lambda_max and (the midpoint of) dlambda0 of a ``continuation`` task
BRANCH_LAMBDA_MAX = 2.0
BRANCH_DLAMBDA0 = 0.05


def _machine() -> dict:
    model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _commit() -> dict:
    def git(*args, env=None):
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, env=env)
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain", "--", "src", "tools")
    # the trees src/ and tools/ have as measured: a commit holding them has
    # the same tree hashes, also when the file was written before it
    with tempfile.TemporaryDirectory() as tmp:
        index = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=index)
        git("add", "--", "src", "tools", env=index)
        trees = {d: git("write-tree", f"--prefix={d}/", env=index) for d in ("src", "tools")}
    return {
        "hash": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "trees": trees,
    }


def _time(fn, samples: int) -> dict:
    """Median and quartiles of the per-call seconds of ``fn()``."""
    t0 = time.perf_counter()
    fn()  # warm-up: caches, first-touch allocation
    calls = max(1, round(MIN_SAMPLE_S / (time.perf_counter() - t0)))
    per_call = []
    for _ in range(samples):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t0) / calls)
    q1, median, q3 = np.percentile(per_call, [25, 50, 75])
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "calls_per_sample": calls}


def _state(n_x: int, n_eta: int) -> tuple[numerics.Grid2D, transform.MembraneState]:
    grid2d = numerics.Grid2D.uniform(n_x, n_eta)
    x = grid2d.gx.nodes
    return grid2d, transform.MembraneState(grid2d.gx, -DEPTH * (1.0 - x * x))


def _factor(weights: np.ndarray, folded: bool):
    """A call that factorizes the ``folded`` or full system of ``weights``
    and solves it once."""
    matrix = elliptic.assemble_system(weights, folded=folded)
    rhs = np.ones(matrix.shape[0])
    return lambda: numerics.solve_sparse(matrix, rhs)


def kernels(n: int, samples: int) -> dict:
    """The per-call seconds of each potential kernel and of one evolution
    step on the n x n grid."""
    grid2d, u = _state(n, n)
    p = evolution.ModelParams(eps=EPS, lam=LAM)
    coeffs = transform.assemble_coefficients(u, EPS, grid2d)
    weights = elliptic._stencil_weights(coeffs)
    factor = _factor(weights, folded=True)
    _, lu = factor()
    rhs = np.ones(lu.shape[0])
    field = elliptic.solve_potential(u, EPS, grid2d)

    def timed(fn):
        return _time(fn, samples)

    return {
        "coefficient_assembly": timed(lambda: transform.assemble_coefficients(u, EPS, grid2d)),
        "stencil_weights": timed(lambda: elliptic._stencil_weights(coeffs)),
        "sparse_assembly": timed(lambda: elliptic.assemble_system(weights, folded=True)),
        "sparse_assembly_unfolded": timed(lambda: elliptic.assemble_system(weights)),
        "lu_factor": timed(factor),
        "lu_factor_unfolded": timed(_factor(weights, folded=False)),
        "triangular_solve": timed(lambda: lu.solve(rhs)),
        "trace_extraction": timed(lambda: elliptic.trace_top(field)),
        "evolution_step": timed(lambda: evolution.step(u, p, grid2d)),
    }


def eta_sweep(n_eta: int, samples: int) -> dict:
    """The per-call seconds of the folded LU factor and of one evolution
    step at the ``evolve`` n_x and ``n_eta`` vertical cells."""
    grid2d, u = _state(tasks.EVOLVE_N, n_eta)
    p = evolution.ModelParams(eps=EPS, lam=LAM)
    weights = elliptic._stencil_weights(transform.assemble_coefficients(u, EPS, grid2d))
    return {
        "lu_factor": _time(_factor(weights, folded=True), samples),
        "evolution_step": _time(lambda: evolution.step(u, p, grid2d), samples),
    }


def steady_kernels(eps: float, n: int, samples: int) -> dict:
    """The per-call seconds of the residual, the linearization, one Krylov
    product and one Newton step of the full model on the n x n grid at
    ``eps``."""
    grid2d, u = _state(n, n)
    r, field = steady.steady_residual(u, LAM, eps, grid2d)
    lin = steady.linearize(u, LAM, eps, field)

    def newton_step(counts):
        steady._newton_step(u, LAM, eps, field, r, counts, bordered=False)
        return counts

    out = {
        "steady_residual": _time(lambda: steady.steady_residual(u, LAM, eps, grid2d), samples),
        "linearize": _time(lambda: steady.linearize(u, LAM, eps, field), samples),
        "krylov_product": _time(lambda: lin.matvec(r), samples),
        "gmres_newton_step": _time(lambda: newton_step(Counter()), samples),
    }
    out["gmres_newton_step"]["iterations"] = newton_step(Counter())["krylov_iters"]
    return out


def branch_to_fold(eps: float, n: int, samples: int) -> dict:
    """The seconds of one continuation to the fold on the n x n grid at
    ``eps``, and the solver counts of one such run."""

    def branch():
        return steady.continue_branch(eps, BRANCH_LAMBDA_MAX, BRANCH_DLAMBDA0, n_x=n, n_eta=n)

    out = _time(branch, samples)
    run = branch()
    counts = run.diagnostics
    out.update(
        factorizations=counts["folded_solves"] + counts["full_solves"],
        krylov_iters=counts["krylov_iters"],
        tangent_solves=counts["tangent_solves"],
        points=len(run.points),
    )
    return out


def measure(label: str, sizes, samples: int) -> dict:
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    newton_sizes = [n for n in sizes if n <= MAX_NEWTON_N]
    eta_sizes = [n for n in ETA_SIZES if n <= max(sizes)]
    return {
        "label": label,
        "machine": _machine(),
        "commit": _commit(),
        "method": {
            "pinned_core": core,
            "blas_threads": 1,
            "samples": samples,
            "min_sample_s": MIN_SAMPLE_S,
            "statistic": "median and quartiles of the per-call seconds over the samples",
            "state": f"u = -{DEPTH} (1 - x^2), lambda {LAM}, n_x = n_eta = n, folded; "
            f"kernels at eps {EPS}, steady_kernels at each eps they list",
            "lu_factor": "numerics.solve_sparse: the factorization and one triangular solve",
            "unfolded": "sparse_assembly_unfolded and lu_factor_unfolded: the system on the "
            "whole rectangle, as for a membrane that is not even",
            "eta_sweep": f"lu_factor and evolution_step at n_x = {tasks.EVOLVE_N}, "
            "n_eta as keyed, folded",
            "krylov_product": "steady.Linearization.matvec of the residual, one GMRES "
            "product: the tridiagonal part and one trace_change",
            "gmres_newton_step": "steady._newton_step on the residual: steady.linearize and "
            "numerics.gmres on its even part, to the tolerance of a Newton step",
            "workloads": {
                "evolve": f"kernels at n = {tasks.EVOLVE_N}",
                "continuation": f"kernels, steady_kernels and branch_to_fold at "
                f"n = {tasks.CONTINUATION_N}",
                "flat-pullin": f"flat_fold_solve at n_x = {tasks.PULLIN_N}",
            },
        },
        "kernels": {str(n): kernels(n, samples) for n in sizes},
        "eta_sweep": {str(n_eta): eta_sweep(n_eta, samples) for n_eta in eta_sizes},
        "steady_kernels": {
            repr(eps): {str(n): steady_kernels(eps, n, samples) for n in newton_sizes}
            for eps in tasks.CONTINUATION_EPS
        },
        "branch_to_fold": {
            repr(eps): {str(n): branch_to_fold(eps, n, samples) for n in newton_sizes}
            for eps in tasks.CONTINUATION_EPS
        },
        "flat_fold_solve": {
            str(n): _time(lambda: small_aspect.pullin0_detail(1e-6, n), samples)
            for n in FLAT_SIZES
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    parser.add_argument("--samples", type=int, default=31)
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    result = measure(args.label, args.sizes, args.samples)
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
