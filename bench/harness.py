"""Runs a workload's tasks through the public CLI entry points and turns
the outcome into the benchmark's metrics.

Each task is ``cli.parse_config`` plus ``cli.run_experiment`` with one
thread, called in this process; the task's wall time covers exactly those
two calls.  Output checks run after the clock stops.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import tasks
import tracing

CAL_EVERY_S = 2.0
CAL_FRACTION = 0.1
LAYERS = ("cli", "evolution", "steady", "small_aspect", "elliptic", "transform", "numerics")


def _nine_point(n: int):
    """A fixed operator with the 9-point sparsity of the program's potential
    matrix on an n x n interior grid, built here rather than by the program."""
    import numpy as np
    import scipy.sparse as sp

    t1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    d1 = sp.diags([-1.0, 1.0], [-1, 1], shape=(n, n))
    eye = sp.identity(n)
    a = sp.kron(t1, eye) + 4.0 * sp.kron(eye, t1) + 0.25 * sp.kron(d1, d1)
    return a.tocoo(), np.ones(n * n)


class SpeedProbe:
    """Machine speed from a fixed kernel that does not use the program.

    The reference machine's vCPUs are shared with other tenants, and their
    throughput switches between regimes that last from seconds to minutes
    (the same flat-pullin task took 0.12 s in one and 0.21 s in the other).
    ``block`` times the kernel next to the measured work on the same vCPU;
    scaling a time by reference_s / kernel time reports it at the reference
    speed, so that a regime change between runs does not read as a change
    of the program.  Regimes slow interpreted code more than a large sparse
    factorization, so each kernel does one kind of work: a SuperLU
    factorization on a 128 x 128 grid (``lu128``, for evolve), assembly
    and factorization on a 32 x 32 grid (``lu32``, for continuation), or
    interpreted tridiagonal sweeps and SciPy ODE solves (``interpreted``,
    for flat-pullin and for set-up, which is mostly imports).
    """

    # mean kernel seconds on the reference machine in its fast regime
    REFERENCE_S = {"lu128": 0.05, "lu32": 0.047, "interpreted": 0.026}
    FOR_WORKLOAD = {"evolve": "lu128", "continuation": "lu32", "flat-pullin": "interpreted"}

    def __init__(self, kernel: str):
        self.reference_s = self.REFERENCE_S[kernel]
        self._run = getattr(self, "_" + kernel)
        if kernel == "lu128":
            matrix, self._rhs = _nine_point(127)
            self._matrix = matrix.tocsc()
        elif kernel == "lu32":
            self._matrix, self._rhs = _nine_point(31)

    def _lu128(self) -> None:
        from scipy.sparse.linalg import splu

        splu(self._matrix, permc_spec="MMD_AT_PLUS_A").solve(self._rhs)

    def _lu32(self) -> None:
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        m = self._matrix
        for _ in range(20):
            a = sp.coo_matrix((m.data * 1.0, (m.row, m.col)), shape=m.shape).tocsr()
            splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(self._rhs)

    def _interpreted(self) -> None:
        from scipy.integrate import solve_ivp

        n = 511
        x = [0.0] * n
        for _ in range(200):
            piv, prev = 2.0, 0.0
            for i in range(n):
                piv = 2.5 - 1.0 / piv
                prev = (1.0 + prev) / piv
                x[i] = prev
        for depth in range(20):
            solve_ivp(lambda _, y: [y[1], 0.3 / (1.0 + y[0]) ** 2], (0.0, 1.0),
                      [-0.01 * depth, 0.0], rtol=1e-9, atol=1e-11)

    def block(self, seconds: float) -> float:
        """Mean seconds of kernel runs over about ``seconds`` (at least 5 runs).

        The mean, not the median: the measured work integrates the speed
        over its whole duration, regime switches included."""
        times = []
        start = time.perf_counter()
        while len(times) < 5 or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - t0)
        return statistics.fmean(times)

    def scale(self, kernel_s: float) -> float:
        return self.reference_s / kernel_s


@dataclass
class TaskResult:
    index: int
    wall_s: float
    rc: int | None
    problems: list[str]
    facts: dict = field(default_factory=dict)
    artifact_bytes: int = 0
    kernel_s: float = float("nan")  # SpeedProbe time around the task

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_task(index: int, config: Path, out: Path, checker: tasks.Checker,
             rec: tracing.SpanRecorder | None = None) -> TaskResult:
    """One CLI run, timed, then checked.  The output directory is removed."""
    from mems_fbp import cli

    rc, problems = None, []
    if rec is not None:
        rec.task = index
    t0 = time.perf_counter()
    try:
        with rec.span("cli.task") if rec is not None else nullcontext():
            cfg = cli.parse_config(config)
            cfg.out_dir, cfg.threads = str(out), 1
            rc = cli.run_experiment(cfg, quiet=True)
    except Exception as exc:  # a task that raises is a failed task, not a crashed run
        problems.append(f"raised {type(exc).__name__}: {exc}")
        traceback.print_exc()
    wall = time.perf_counter() - t0

    facts, size = {}, 0
    if rc is not None:
        problems, facts = checker.check(index, tasks.load_config(config), out, rc)
    if out.exists():
        size = _tree_bytes(out)
        shutil.rmtree(out)
    return TaskResult(index, wall, rc, problems, facts, size)


def tail(walls: list[float]) -> tuple[float, int] | None:
    """Highest percentile of ``walls`` with at least ten samples beyond it,
    as (value, percentile); None with fewer than 11 samples."""
    n = len(walls)
    if n < 11:
        return None
    k = n - 11  # ten samples lie above index k
    return sorted(walls)[k], (100 * (k + 1)) // n


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(config: Path, work: Path, checker: tasks.Checker) -> None:
    """Run the shortened form of ``config`` once, untimed and unchecked."""
    path = work / "warmup.json"
    path.write_text(json.dumps(tasks.warmup_config(tasks.load_config(config))), encoding="utf-8")
    run_task(-1, path, work / "warmup", checker)


def run_untraced(configs: list[Path], work: Path, checker: tasks.Checker,
                 probe: SpeedProbe, task_s: float) -> list[TaskResult]:
    """Runs the tasks with speed blocks between them, at least every
    CAL_EVERY_S; each task's ``kernel_s`` is the mean of the two blocks
    that bracket it.  A block lasts CAL_FRACTION of the work it brackets
    (``task_s`` is the expected seconds of one task)."""
    block_s = CAL_FRACTION * max(CAL_EVERY_S, task_s)
    results, pending = [], []
    before = probe.block(block_s)
    last = time.perf_counter()
    for i, c in enumerate(configs):
        pending.append(run_task(i, c, work / f"out_{i:04d}", checker))
        if time.perf_counter() - last >= CAL_EVERY_S or i == len(configs) - 1:
            after = probe.block(block_s)
            for r in pending:
                r.kernel_s = 0.5 * (before + after)
            results += pending
            pending, before, last = [], after, time.perf_counter()
    return results


def run_traced(configs: list[Path], work: Path, checker: tasks.Checker,
               rec: tracing.SpanRecorder) -> tuple[list[TaskResult], list[TaskResult]]:
    """Each task once untraced and then once traced, for the overhead."""
    plain, traced = [], []
    for i, c in enumerate(configs):
        plain.append(run_task(i, c, work / f"plain_{i:04d}", checker))
        with tracing.traced(rec):
            traced.append(run_task(i, c, work / f"traced_{i:04d}", checker, rec))
    return plain, traced


def end_to_end(setup_s: float, task_walls: list[float]) -> dict:
    """End-to-end metrics of an untraced run, {name: (value, unit)}, from
    times already scaled to the reference speed."""
    return {
        "setup_s": (setup_s, "s"),
        "task_wall_s_p50": (statistics.median(task_walls), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def layer_metrics(workload: str, rec: tracing.SpanRecorder, traced: list[TaskResult],
                  plain: list[TaskResult]) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, {name: (value, unit)}, and the
    count identities that failed.  ``plain`` are the same tasks untraced."""
    calls, busy = rec.calls, rec.busy
    self_s = rec.self_times()
    metrics = {
        "numerics.lu_factor.calls": (calls(tracing.LU_FACTOR), "count"),
        "numerics.lu_factor.busy_s": (busy(tracing.LU_FACTOR), "s"),
        "numerics.lu_solve.calls": (calls(tracing.LU_SOLVE), "count"),
        "numerics.lu_solve.busy_s": (busy(tracing.LU_SOLVE), "s"),
        "numerics.solve_sparse.busy_s": (busy("numerics.solve_sparse"), "s"),
        "numerics.lu_nnz": (rec.lu_nnz_max, "count"),
        "numerics.lu_bytes": (12 * rec.lu_nnz_max, "B"),
        "numerics.solve_tridiagonal.calls": (calls("numerics.solve_tridiagonal"), "count"),
        "numerics.solve_tridiagonal.busy_s": (busy("numerics.solve_tridiagonal"), "s"),
        "transform.assemble_coefficients.calls": (calls("transform.assemble_coefficients"), "count"),
        "transform.assemble_coefficients.busy_s": (busy("transform.assemble_coefficients"), "s"),
        "elliptic.solve_potential.calls": (calls("elliptic.solve_potential"), "count"),
        "elliptic.solve_potential.busy_s": (busy("elliptic.solve_potential"), "s"),
        "elliptic.assemble_system.busy_s": (busy("elliptic.assemble_system"), "s"),
        "elliptic.trace_top.busy_s": (busy("elliptic.trace_top"), "s"),
        "evolution.step.calls": (calls("evolution.step"), "count"),
        "evolution.step.busy_s": (busy("evolution.step"), "s"),
        "evolution.imex_step.busy_s": (busy("evolution.imex_step"), "s"),
        "steady.steady_residual.calls": (calls(tracing.RESIDUAL), "count"),
        "steady.steady_residual.busy_s": (busy(tracing.RESIDUAL), "s"),
        "small_aspect.steady0.calls": (calls("small_aspect.steady0"), "count"),
        "small_aspect.steady0.failed": (rec.failures["small_aspect.steady0"], "count"),
        "small_aspect.steady0.busy_s": (busy("small_aspect.steady0"), "s"),
        "small_aspect.shooting_pullin.busy_s": (busy("small_aspect.shooting_pullin"), "s"),
        "cli.parse_config.busy_s": (busy("cli.parse_config"), "s"),
        "cli.artifact_bytes": (sum(r.artifact_bytes for r in traced), "B"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")

    # residual evaluations at a voltage the branch later accepted
    accepted = {
        (r.index, eps): lams
        for r in traced
        for eps, lams in r.facts.get("accepted", {}).items()
    }
    useful = sum(1 for task, eps, lam in rec.residual_points if lam in accepted.get((task, eps), ()))
    n_res = len(rec.residual_points)
    metrics["steady.useful_residual_share"] = (useful / n_res if n_res else 0.0, "ratio")
    metrics["steady.points_accepted"] = (sum(len(v) for v in accepted.values()), "count")
    metrics["steady.newton_iters"] = (sum(r.facts.get("newton_iters", 0) for r in traced), "count")
    traced_wall = sum(r.wall_s for r in traced)
    metrics["trace.overhead"] = (traced_wall / sum(r.wall_s for r in plain) - 1.0, "ratio")

    value = {k: v for k, (v, _) in metrics.items()}
    problems = []
    root = sum(s.end - s.start for s in rec.spans if s.parent is None)
    if abs(sum(self_s.values()) - root) > 1e-9 * max(root, 1.0) or root > traced_wall:
        problems.append(f"layer self times add up to {sum(self_s.values())} s, task spans {root} s")
    if workload == "flat-pullin":
        for name in ("numerics.lu_factor.calls", "elliptic.solve_potential.calls"):
            if value[name] != 0:
                problems.append(f"{name} = {value[name]} on flat-pullin")
    elif workload == "evolve":
        steps = sum(r.facts.get("steps", 0) for r in traced)
        for name in ("numerics.lu_factor.calls", "evolution.step.calls"):
            if value[name] != steps:
                problems.append(f"{name} = {value[name]}, steps taken = {steps}")
    elif workload == "continuation":
        from_steady = sum(
            1 for s in rec.spans
            if s.name == "elliptic.solve_potential"
            and s.parent is not None
            and rec.spans[s.parent].name == tracing.RESIDUAL
        )
        if value["steady.steady_residual.calls"] != from_steady:
            problems.append(
                f"steady_residual calls {value['steady.steady_residual.calls']} != "
                f"potential solves from steady {from_steady}"
            )
    return metrics, problems
