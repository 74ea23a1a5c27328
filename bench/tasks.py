"""Seeded task configs for each workload and the checks on their outputs.

A task is one CLI run.  Every drawn value comes from ``--seed`` and the
task's index, so one seed always yields byte-identical config files; the
program only ever sees those files.  The ranges, and why they were chosen:

- evolve: lambda in [0.1, 0.3] stays below the eps = 0.1 fold (about
  0.348), so no task touches down; parabola depth in [0, 0.2];
  ``equilibrium_tol`` 0 makes every task run the same 200-step horizon.
- continuation: ``dlambda0`` within 1e-5 (relative) of the CLI default
  0.05.  Near the fold the number of failed Newton attempts is a chaotic
  function of ``dlambda0``: over [0.045, 0.055] one task took 4975 to 6633
  potential solves, a spread a one-task run cannot average out.  Within
  1e-5 it stays within about 2% (5630 to 5772 solves), while every voltage
  the solver visits still differs from seed to seed.
- flat-pullin: ``tol_lambda`` in [5e-5, 2e-4] around the CLI default
  1e-4; n_x = 512 keeps the absolute 1e-10 residual test of the flat-limit
  Newton above roundoff (at 2048 it is not, and the shooting oracle
  rejects the result).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import oracles

DEFAULT_SEED = 0

EVOLVE_EPS = 0.1
EVOLVE_N = 128
EVOLVE_DT = 1e-3
EVOLVE_STEPS = 200
EVOLVE_LAMBDA = (0.1, 0.3)
EVOLVE_DEPTH = (0.0, 0.2)

CONTINUATION_N = 32
CONTINUATION_EPS = (0.1, 1.0)
CONTINUATION_DLAMBDA0 = (0.05 * (1.0 - 1e-5), 0.05 * (1.0 + 1e-5))

PULLIN_N = 512
PULLIN_TOL = (5e-5, 2e-4)

# Wall seconds of one task on the 2-core reference machine; a run of
# ``--seconds`` s executes round(seconds / nominal) tasks, so the task list
# of a run depends only on the seed and the run length.
NOMINAL_TASK_S = {"evolve": 14.0, "continuation": 20.0, "flat-pullin": 0.15}
WORKLOADS = tuple(NOMINAL_TASK_S)

# Tolerances of the output checks.  They are loose enough for a linear
# solver that stops at its own 1e-10 relative residual instead of a direct
# solve, and tight enough to catch a wrong stencil or coefficient.
SIGN_TOL = 1e-10        # largest upward deflection of a stored state
EVEN_TOL = 1e-8         # largest |u(x) - u(-x)| of a stored state
PROFILE_TOL = 1e-7      # final profile against the stored reference
# The natural-continuation fold estimate sits at most half its last
# bracket (dlambda0 / 2^10) above the fold; Newton failing just short of
# the fold may leave it lower.
FOLD_BELOW = 2e-3
FOLD_ABOVE = 2e-4


def task_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_TASK_S[workload]))


def _uniform(rng, bounds) -> float:
    return float(rng.uniform(*bounds))


def task_config(workload: str, seed: int, index: int) -> dict:
    """The config of task ``index`` of ``workload`` under ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    if workload == "evolve":
        return {
            "kind": "evolve",
            "eps": EVOLVE_EPS,
            "lambda": _uniform(rng, EVOLVE_LAMBDA),
            "initial_condition": {"parabola": _uniform(rng, EVOLVE_DEPTH)},
            "equilibrium_tol": 0.0,
            "dt": EVOLVE_DT,
            "max_time": EVOLVE_STEPS * EVOLVE_DT,
            "n_x": EVOLVE_N,
            "n_eta": EVOLVE_N,
        }
    if workload == "continuation":
        return {
            "kind": "continuation",
            "eps_list": list(CONTINUATION_EPS),
            "lambda_max": 2.0,
            "dlambda0": _uniform(rng, CONTINUATION_DLAMBDA0),
            "n_x": CONTINUATION_N,
            "n_eta": CONTINUATION_N,
        }
    if workload == "flat-pullin":
        return {"kind": "pullin", "n_x": PULLIN_N, "tol_lambda": _uniform(rng, PULLIN_TOL)}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warmup_config(cfg: dict) -> dict:
    """A short task on the same code paths and array sizes as ``cfg``, run
    untimed first so that lazy imports and allocator growth are not timed."""
    if cfg["kind"] == "evolve":
        return dict(cfg, max_time=5 * cfg["dt"])
    if cfg["kind"] == "continuation":
        return dict(cfg, lambda_max=2 * cfg["dlambda0"])
    return dict(cfg)


def write_configs(workload: str, seed: int, count: int, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(count):
        path = directory / f"task_{index:04d}.json"
        path.write_text(
            json.dumps(task_config(workload, seed, index), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        paths.append(path)
    return paths


def load_config(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def evolve_steps(cfg: dict) -> int:
    """Steps the evolution loop takes to reach ``max_time`` when it neither
    converges nor touches down (time is accumulated step by step)."""
    t, steps = 0.0, 0
    while True:
        t += cfg["dt"]
        steps += 1
        if t >= cfg["max_time"] - 1e-12:
            return steps


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def load_reference() -> dict:
    return json.loads(oracles.REFERENCE_PATH.read_text(encoding="utf-8"))


class Checker:
    """Checks one workload's task outputs against values the benchmark
    computes itself (``oracles``) or stored from them (``reference.json``),
    and extracts what the per-layer metrics read from the outputs."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        if workload == "flat-pullin":
            self.pullin_exact = oracles.flat_pullin_exact()
            self.pullin_disc_error = abs(
                oracles.flat_pullin_discrete(PULLIN_N) - self.pullin_exact
            )

    def check(self, index: int, cfg: dict, out: Path, rc: int) -> tuple[list[str], dict]:
        """Returns (problems, facts); a task failed when problems is non-empty."""
        if rc != 0:
            return [f"exit status {rc}"], {}
        try:
            return getattr(self, "_" + self.workload.replace("-", "_"))(index, cfg, out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"], {}

    def _evolve(self, index, cfg, out):
        problems = []
        run = json.loads((out / "run.json").read_text(encoding="utf-8"))
        if run["outcome"] != "max_time_reached":
            problems.append(f"outcome {run['outcome']!r}, expected 'max_time_reached'")
        steps = round(run["final_time"] / cfg["dt"])
        if steps != evolve_steps(cfg):
            problems.append(f"{steps} steps, expected {evolve_steps(cfg)}")
        header, rows = _read_csv(out / "trajectory.csv")
        if rows.shape[1] != cfg["n_x"] + 2 or len(header) != rows.shape[1]:
            problems.append(f"trajectory has {rows.shape[1]} columns")
            return problems, {"steps": steps}
        u = rows[:, 1:]
        if not np.all(np.isfinite(u)):
            problems.append("trajectory holds non-finite values")
            return problems, {"steps": steps}
        if float(np.max(u)) > SIGN_TOL:
            problems.append(f"stored state above the plane: max u = {float(np.max(u)):.3e}")
        asym = float(np.max(np.abs(u - u[:, ::-1])))
        if asym > EVEN_TOL:
            problems.append(f"stored state not even in x: {asym:.3e}")
        ref = self.reference["evolve"].get(f"{self.seed}:{index}")
        if ref is not None:
            gap = float(np.max(np.abs(u[-1] - np.asarray(ref["final_u"]))))
            if gap > PROFILE_TOL:
                problems.append(f"final profile differs from the reference by {gap:.3e}")
        return problems, {"steps": steps}

    def _continuation(self, index, cfg, out):
        problems = []
        meta = json.loads((out / "branch.json").read_text(encoding="utf-8"))["branches"]
        accepted, iters = {}, 0
        for eps in cfg["eps_list"]:
            key = repr(float(eps))
            ref = self.reference["continuation"][key]
            fold = meta[key]["fold_estimate"]
            if fold is None:
                problems.append(f"eps={key}: no fold reported")
            else:
                if fold > oracles.nonexistence_bound(eps):
                    problems.append(f"eps={key}: fold {fold} above the non-existence bound")
                if not ref["fold"] - FOLD_BELOW <= fold <= ref["fold"] + FOLD_ABOVE:
                    problems.append(
                        f"eps={key}: fold {fold} outside the reference bracket around {ref['fold']}"
                    )
            header, rows = _read_csv(out / f"branch_eps{key}.csv")
            lam = rows[:, header.index("lambda")]
            accepted[float(eps)] = {float(v) for v in lam if v > 0.0}
            iters += int(rows[:, header.index("newton_iters")].sum())
        return problems, {"accepted": accepted, "newton_iters": iters}

    def _flat_pullin(self, index, cfg, out):
        result = json.loads((out / "pullin.json").read_text(encoding="utf-8"))
        allowed = cfg["tol_lambda"] + self.pullin_disc_error
        miss = abs(result["lambda_star"] - self.pullin_exact)
        if not miss <= allowed:
            return [
                f"lambda* {result['lambda_star']} is {miss:.2e} from {self.pullin_exact:.6f}, "
                f"allowed {allowed:.2e}"
            ], {}
        return [], {}
