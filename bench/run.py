"""Benchmark of the mems_fbp CLI on three seeded workloads.

    python3 bench/run.py --workload evolve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The program is imported from
``src/`` of that checkout and driven in-process through
``mems_fbp.cli.parse_config`` and ``mems_fbp.cli.run_experiment`` with one
thread and BLAS pinned to one thread.  A run executes a fixed list of
tasks drawn from ``--seed`` (its length follows from ``--seconds``),
checks every output, prints one human-readable line per metric and, as
the last line, a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics, with
times scaled to the reference machine's speed (see
``harness.SpeedProbe``; the unscaled values are printed too);
``--trace 1`` runs each task untraced and then traced and reports the
per-layer metrics, unscaled.  Scratch files live in ``.bench_out/`` of
the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Import mems_fbp from this checkout's src/ and nowhere else."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import mems_fbp.cli

    origin = Path(mems_fbp.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"mems_fbp was imported from {origin}, not from {SRC}")


def setup(workload: str, seed: int, count: int, directory: Path) -> list[Path]:
    """Import the program and write the task configs."""
    _import_program()
    import tasks

    return tasks.write_configs(workload, seed, count, directory)


def probe_setup(workload: str, seed: int, count: int, directory: Path) -> float:
    """Seconds ``setup`` takes in a fresh interpreter, as a user starting a
    run would pay them (interpreter start-up excluded)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe", str(count), str(directory)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", nargs=2, metavar=("COUNT", "DIR"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be non-negative")
    if not (SRC / "mems_fbp" / "__init__.py").is_file():
        return _fail(f"no program source at {SRC}; run from the root of a checkout")

    if args.setup_probe:
        t0 = time.perf_counter()
        setup(args.workload, args.seed, int(args.setup_probe[0]), Path(args.setup_probe[1]))
        print(repr(time.perf_counter() - t0))
        return 0

    # speed blocks, tasks and set-up probes share one vCPU (see harness.SpeedProbe)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(BENCH_DIR))
    import tasks

    if args.workload not in tasks.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; expected one of {tasks.WORKLOADS}")
    count = tasks.task_count(args.workload, args.seconds)
    if args.trace:
        count = max(1, count // 2)  # every task runs twice, untraced and traced
    work = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, count, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, count: int, work: Path) -> int:
    try:
        configs = setup(args.workload, args.seed, count, work / "configs")
    except ImportError as exc:
        return _fail(f"cannot import the program: {exc}")
    import harness
    import tasks
    import tracing

    checker = tasks.Checker(args.workload, args.seed, tasks.load_reference())
    lines, problems = [], []
    harness.warm_up(configs[0], work, checker)
    if args.trace:
        rec = tracing.SpanRecorder()
        plain, results = harness.run_traced(configs, work, checker, rec)
        metrics, problems = harness.layer_metrics(args.workload, rec, results, plain)
        attempted = plain + results
        rec.dump(ROOT / ".bench_out" / f"spans-{args.workload}.jsonl")
        lines.append(f"traced tasks: {len(results)} (each also run untraced for trace.overhead)")
    else:
        setup_probe = harness.SpeedProbe("interpreted")
        before = setup_probe.block(0.0)
        setups = [
            probe_setup(args.workload, args.seed, count, work / f"probe{k}")
            for k in range(SETUP_SAMPLES)
        ]
        setup_s = statistics.median(setups)
        setup_scale = setup_probe.scale(0.5 * (before + setup_probe.block(0.0)))
        probe = harness.SpeedProbe(harness.SpeedProbe.FOR_WORKLOAD[args.workload])
        attempted = harness.run_untraced(
            configs, work, checker, probe, tasks.NOMINAL_TASK_S[args.workload])
        walls = [r.wall_s for r in attempted]
        scales = [probe.scale(r.kernel_s) for r in attempted]
        scaled = [w * k for w, k in zip(walls, scales)]
        metrics = harness.end_to_end(setup_s * setup_scale, scaled)
        lines.append(
            f"unscaled: setup_s {setup_s:.6f} s (speed scale {setup_scale:.4f}), "
            f"task_wall_s_p50 {statistics.median(walls):.6f} s "
            f"(speed scale {min(scales):.4f} to {max(scales):.4f})"
        )
        tail = harness.tail(scaled)
        if tail is None:
            lines.append(f"task_wall_s_tail: undefined with {len(walls)} tasks (needs 11)")
        else:
            lines.append(f"task_wall_s_tail: {tail[0]:.6f} s (p{tail[1]} of {len(walls)} tasks)")
    out = {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}

    import numpy
    import scipy

    lines.append(
        f"machine: {os.cpu_count()} cpus, Python {platform.python_version()}, "
        f"NumPy {numpy.__version__}, SciPy {scipy.__version__}, BLAS threads pinned to 1"
    )
    failed = sum(r.failed for r in attempted)
    lines.append(f"failed_share: {failed / len(attempted):.6f} ({failed} of {len(attempted)} tasks)")
    for r in attempted:
        for p in r.problems:
            lines.append(f"task {r.index} FAILED: {p}")
    for p in problems:
        lines.append(f"trace check FAILED: {p}")
    for name, m in out.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    for line in lines:
        print(f"{args.workload} {line}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
