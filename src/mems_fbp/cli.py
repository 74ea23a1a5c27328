"""Experiment driver: JSON config in, CSV/JSON artifacts out.

Numbers in CSV files use the shortest round-trip representation, so a
fixed config (and seed) reproduces byte-identical tables.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import criteria, evolution, small_aspect, steady
from .errors import ConfigError, SolverError, context
from .evolution import ModelParams
from .numerics import Grid1D, Grid2D
from .transform import MembraneState

__all__ = ["ExperimentConfig", "parse_config", "run_experiment", "main"]

log = logging.getLogger("mems_fbp")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_TOUCHDOWN = 4


def _fail(tag: str, message: str, code: int) -> int:
    """Report a failed run on stderr as ``mems-fbp: ERROR[tag] message``;
    returns the exit status ``code``."""
    print(f"mems-fbp: ERROR[{tag}] {message}", file=sys.stderr)
    return code


def _read_by(*kinds: str, **kwargs):
    """A config field read by the experiment ``kinds`` only; a config of
    any other kind that sets it is rejected."""
    return field(metadata={"kinds": kinds}, **kwargs)


@dataclass
class ExperimentConfig:
    """A validated experiment config.

    Every config key is declared once: the model keys are the fields of
    ``params`` (JSON ``lambda`` is ``lam``), every other key is a field
    here under its JSON name, and ``parse_config`` checks each JSON value
    against the declared type.  A field's ``kinds`` metadata names the
    kinds that read it (every kind, without it).
    """

    kind: str
    params: ModelParams = field(default_factory=ModelParams)
    n_x: int = _read_by("evolve", "steady", "continuation", "pullin", "limit-study", default=128)
    n_eta: int = _read_by("evolve", "steady", "continuation", "limit-study", default=128)
    # "zero" | {"parabola": depth} | {"csv": path}; for the kinds that read
    # it, parse_config replaces it with the checked start state on the n_x grid
    initial_condition: str | dict = _read_by("evolve", "steady", "limit-study", default="zero")
    out_dir: str = "."
    seed: int = _read_by("validate", default=0)
    thin_every: int = _read_by("evolve", default=10)
    record_energy: bool = _read_by("evolve", default=False)
    require_survival: bool = _read_by("evolve", "limit-study", default=False)
    dump_profiles: bool = _read_by("continuation", default=False)
    lambda_max: float = _read_by("continuation", default=2.0)
    dlambda0: float = _read_by("continuation", default=0.05)
    eps_list: list[float] = _read_by(
        "continuation", "limit-study", default_factory=lambda: [0.2, 0.1, 0.05]
    )
    tau: float = _read_by("limit-study", default=1.0)
    tol_lambda: float = _read_by("pullin", default=1e-4)


_JSON_NAMES = {"lam": "lambda"}  # field name -> JSON key, where they differ


@cache
def _keys(cls) -> dict:
    """JSON key -> (field name, declared type, kinds that read it) of the
    config fields of ``cls``."""
    hints = get_type_hints(cls)
    return {
        _JSON_NAMES.get(f.name, f.name): (f.name, hints[f.name], f.metadata.get("kinds", KINDS))
        for f in fields(cls)
        if f.name != "params"
    }


def _typed(key: str, value, hint):
    """``value`` if its JSON type matches ``hint`` (an int counts as a float
    and is stored as one; a bool is never a number); otherwise a ConfigError.
    A float must be finite: JSON ``NaN`` and ``Infinity`` are rejected."""
    if get_origin(hint) is list:
        if isinstance(value, list):
            return [_typed(key, v, get_args(hint)[0]) for v in value]
    elif isinstance(value, bool):
        if hint is bool:
            return value
    elif hint is float and isinstance(value, (int, float)):
        if -sys.float_info.max <= value <= sys.float_info.max:  # no NaN, infinity or huge int
            return float(value)
        raise ConfigError(f"invalid field {key!r}: expected a finite number, got {value}")
    elif isinstance(value, get_args(hint) or hint):
        return value
    expected = hint.__name__ if isinstance(hint, type) else hint
    raise ConfigError(f"invalid field {key!r}: expected {expected}, got {type(value).__name__}")


def parse_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config, filling defaults."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an int of too many digits, too deep nesting
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    model_keys, other_keys = _keys(ModelParams), _keys(ExperimentConfig)
    keys = model_keys | other_keys
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
    if "kind" not in raw:
        raise ConfigError("missing required field 'kind'")
    kind = _typed("kind", raw["kind"], str)
    if kind not in KINDS:
        raise ConfigError(f"invalid field 'kind': {kind!r} is not one of {KINDS}")
    for key in raw:
        if kind not in keys[key][2]:
            raise ConfigError(f"config key {key!r} is not read by kind {kind!r}")

    def values(keys):
        return {
            name: _typed(key, raw[key], hint)
            for key, (name, hint, _) in keys.items()
            if key in raw
        }

    model = values(model_keys)  # a ConfigError here is not wrapped below
    try:
        params = ModelParams(**model)
    except ValueError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc
    cfg = ExperimentConfig(params=params, **values(other_keys))

    def fail(name, why):
        raise ConfigError(f"invalid field {name!r}: {why}")

    if cfg.n_x < 8 or cfg.n_eta < 8:
        fail("n_x/n_eta", "grid sizes must be at least 8")
    if cfg.thin_every < 1:
        fail("thin_every", "must be at least 1")
    if cfg.seed < 0:
        fail("seed", "must be nonnegative")

    if kind in other_keys["initial_condition"][2]:  # a kind that starts from a state
        ic, grid = cfg.initial_condition, Grid1D.uniform(cfg.n_x)
        if ic == "zero":
            u, source = np.zeros(grid.n_nodes), "zero"
        elif isinstance(ic, dict) and set(ic) == {"parabola"}:
            depth = _typed("initial_condition", ic["parabola"], float)
            if not 0.0 <= depth < 1.0:
                fail("initial_condition", "parabola depth must lie in [0, 1)")
            u, source = -depth * (1.0 - grid.nodes * grid.nodes), "parabola"
        elif isinstance(ic, dict) and set(ic) == {"csv"}:
            csv = _typed("initial_condition", ic["csv"], str)
            if not Path(csv).exists():
                fail("initial_condition", f"csv path {csv!r} does not exist")
            source = f"csv {csv!r}"
            try:
                u = np.loadtxt(csv, delimiter=",", ndmin=1)
            except (OSError, ValueError) as exc:
                fail("initial_condition", f"{source}: {exc}")
        else:
            fail("initial_condition", "expected 'zero', {'parabola': depth} or {'csv': path}")
        try:  # checks shape, clamped ends, finiteness; snaps the ends to +0.0
            cfg.initial_condition = start = MembraneState(grid, u)
        except ValueError as exc:
            fail("initial_condition", f"{source}: {exc}")
        if kind == "limit-study" and np.max(start.u) > 0.0:
            fail("initial_condition", f"{source}: limit-study needs a deflection <= 0")

    if not cfg.eps_list:
        fail("eps_list", "must be a non-empty list")
    if any(e <= 0 for e in cfg.eps_list):
        fail("eps_list", "entries must be positive")
    if len(set(cfg.eps_list)) < len(cfg.eps_list):
        fail("eps_list", "entries must be distinct")
    for name in ("tau", "tol_lambda", "dlambda0", "lambda_max"):
        if getattr(cfg, name) <= 0:
            fail(name, "must be positive")
    if kind == "limit-study" and cfg.tau < params.dt:
        fail("tau", f"must be at least one time step dt={params.dt:g}")
    return cfg


def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _params_dict(p: ModelParams) -> dict:
    return {_JSON_NAMES.get(name, name): value for name, value in asdict(p).items()}


def _mkdir(path: Path, what: str) -> None:
    """Make directory ``path`` and its parents; a ConfigError naming it as
    ``what`` if it cannot be made."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make {what} {str(path)!r}: {exc}") from exc


def _stop_record(state: MembraneState, eps: float) -> dict:
    """Where a run's last state stands: the x of its smallest gap (the
    leftmost of equal ones), its centre gap 1 + u(0) (linear between the
    middle nodes when n_x is odd) and eps max|u_x|, u_x the state's
    ``slope``, one-sided at the clamped ends."""
    return {
        "min_gap_x": float(state.grid.nodes[np.argmin(state.u)]),
        "centre_gap": 1.0 + float(state.interp(0.0)),
        "eps_max_slope": eps * float(np.max(np.abs(state.slope))),
    }


def _run_evolve(cfg: ExperimentConfig, out: Path) -> tuple[dict, int]:
    u0 = cfg.initial_condition
    grid2d = Grid2D.uniform(cfg.n_x, cfg.n_eta)
    traj = evolution.run(
        u0, cfg.params, grid2d, thin_every=cfg.thin_every, record_energy=cfg.record_energy
    )
    header = ["time"] + [f"x={_fmt(x)}" for x in u0.grid.nodes]
    _write_csv(out / "trajectory.csv", header, ([s.time] + list(s.u) for s in traj.states))
    if traj.energy_series is not None:
        _write_csv(out / "energy.csv", ["time", "energy"], traj.energy_series)
    log.info("evolve: outcome=%s final_time=%g", traj.outcome, traj.final.time)
    record = {
        "params": _params_dict(cfg.params),
        "n_x": cfg.n_x,
        "n_eta": cfg.n_eta,
        "outcome": traj.outcome,
        "touchdown_time": traj.touchdown_time,
        "final_time": traj.final.time,
        "states_stored": len(traj.states),
        "stop": _stop_record(traj.final, cfg.params.eps),
        "diagnostics": traj.diagnostics,
    }
    if cfg.require_survival and traj.outcome == "touchdown":
        message = f"evolution: touchdown at t={traj.touchdown_time:g} before the horizon"
        return record, _fail("touchdown", message, EXIT_TOUCHDOWN)
    return record, EXIT_OK


def _run_steady(cfg: ExperimentConfig, out: Path) -> tuple[dict, int]:
    lam, eps = cfg.params.lam, cfg.params.eps
    grid2d = Grid2D.uniform(cfg.n_x, cfg.n_eta)
    counts = Counter()
    # a failed solve says which side of the paper's threshold it was on
    bound = steady.nonexistence_bound(eps)
    where = f"steady: lambda={lam:g} at eps={eps:g} lies"
    if lam > bound:
        where += f" above the non-existence bound {bound:.4g}, where no steady state exists"
    else:
        where += (
            f" below the non-existence bound {bound:.4g}, which does not decide;"
            " the continuation kind locates the fold"
        )
    with context(where):
        point = steady.solve_steady(
            lam, eps, cfg.initial_condition, grid2d, cfg.params.touchdown_floor, counts
        )
    state = point.state
    _write_csv(out / "profile.csv", ["x", "u"], zip(state.grid.nodes, state.u))
    log.info("steady: min_gap=%g", state.min_gap)
    return {
        "lambda": lam,
        "eps": eps,
        "n_x": cfg.n_x,
        "n_eta": cfg.n_eta,
        "residual_inf": point.residual,
        "min_gap": state.min_gap,
        "max_deflection": float(np.max(np.abs(state.u))),
        "diagnostics": counts,
    }, EXIT_OK


def _branch_rows(branch):
    for pt in branch.points:
        yield [pt.lam, pt.state.min_gap, float(np.max(np.abs(pt.state.u))), pt.newton_iters]


def _run_continuation(cfg: ExperimentConfig, out: Path) -> tuple[dict, int]:
    tags = [f"_eps{_fmt(eps)}" for eps in cfg.eps_list]
    if cfg.dump_profiles:
        # made before any branch is computed: a file in the way is a config error
        for tag in tags:
            _mkdir(out / f"profiles{tag}", "profile directory")

    branches = [
        steady.continue_branch(
            eps,
            cfg.lambda_max,
            cfg.dlambda0,
            n_x=cfg.n_x,
            n_eta=cfg.n_eta,
            floor=cfg.params.touchdown_floor,
        )
        for eps in cfg.eps_list
    ]
    meta = {}
    for eps, tag, branch in zip(cfg.eps_list, tags, branches):
        _write_csv(
            out / f"branch{tag}.csv",
            ["lambda", "min_gap", "max_deflection", "newton_iters"],
            _branch_rows(branch),
        )
        if cfg.dump_profiles:
            for idx, pt in enumerate(branch.points):
                _write_csv(
                    out / f"profiles{tag}" / f"point_{idx:03d}.csv",
                    ["x", "u"],
                    zip(pt.state.grid.nodes, pt.state.u),
                )
        meta[_fmt(eps)] = {
            "points": len(branch.points),
            "last_lambda": branch.points[-1].lam,
            "fold_estimate": branch.fold_estimate,
            "fold_interval": list(branch.fold_interval) if branch.fold_interval else None,
            "nonexistence_bound": steady.nonexistence_bound(eps),
            "diagnostics": branch.diagnostics,
        }
        log.info(
            "continuation eps=%g: %d points, fold=%s", eps, len(branch.points), branch.fold_estimate
        )
    return {"branches": meta}, EXIT_OK


def _run_pullin(cfg: ExperimentConfig, out: Path) -> tuple[dict, int]:
    result = small_aspect.pullin0_detail(cfg.tol_lambda, n_x=cfg.n_x)
    log.info("pullin: lambda*=%.6f bracket=%s", result.lambda_star, result.bracket)
    return {
        "lambda_star": result.lambda_star,
        "bracket": list(result.bracket),
        "shooting_oracle": result.shooting_value,
        "tol_lambda": cfg.tol_lambda,
        "n_x": cfg.n_x,
        "diagnostics": result.diagnostics,
    }, EXIT_OK


def _run_limit_study(cfg: ExperimentConfig, out: Path) -> tuple[dict, int]:
    comp = small_aspect.limit_study(
        cfg.initial_condition,
        cfg.params.lam,
        cfg.eps_list,
        cfg.tau,
        n_eta=cfg.n_eta,
        dt=cfg.params.dt,
        touchdown_floor=cfg.params.touchdown_floor,
    )
    header = ["eps", "sup_error"] + [f"potential_error@t={_fmt(t)}" for t in comp.sample_times]
    rows = zip(cfg.eps_list, comp.sup_errors, comp.potential_errors)
    _write_csv(out / "limit_study.csv", header, ([eps, sup, *errors] for eps, sup, errors in rows))
    log.info("limit-study: tau_used=%g sup_errors=%s", comp.tau, comp.sup_errors)
    record = {
        "lambda": cfg.params.lam,
        "eps_list": cfg.eps_list,
        "tau_requested": cfg.tau,
        "tau_used": comp.tau,
        "horizon_shortened": comp.horizon_shortened,
        "warnings": (
            [f"touchdown before the horizon; comparison shortened to t={comp.tau:g}"]
            if comp.horizon_shortened
            else []
        ),
        "diagnostics": comp.diagnostics,
    }
    if cfg.require_survival and comp.horizon_shortened:
        message = f"limit-study: horizon shortened to t={comp.tau:g}"
        return record, _fail("touchdown", message, EXIT_TOUCHDOWN)
    return record, EXIT_OK


def _validate_checks(cfg: ExperimentConfig) -> list[tuple[str, tuple[bool, str]]]:
    """Release criteria C1-C5 and C12 at 32x32: (name, (ok, detail)) pairs."""
    rng = np.random.default_rng(cfg.seed)
    traj, eps, grid2d = criteria.even_run(32, 32, 50)
    return [
        ("elliptic_mms_order", criteria.mms_order((0.1,), (16, 32, 64))),
        ("unit_source_at_rest", criteria.unit_source_at_rest(grid2d)),
        ("potential_symmetry", criteria.symmetry(traj, eps, grid2d)),
        ("dual_formulation_agreement", criteria.dual_formulation(grid2d, 5, rng)),
        ("sign_preservation", criteria.sign(traj)),
        ("flat_limit_consistency", criteria.degeneration(32, 50)),
    ]


def _run_validate(cfg: ExperimentConfig, out: Path) -> tuple[dict, int]:
    report = {}
    all_ok = True
    for name, (ok, detail) in _validate_checks(cfg):
        all_ok &= ok
        report[name] = {"passed": ok, "detail": detail}
        log.info("validate: %s: %s (%s)", name, "PASS" if ok else "FAIL", detail)
    record = {"checks": report, "all_passed": all_ok}
    if not all_ok:
        return record, _fail("solver", "validate: one or more checks failed", EXIT_SOLVER)
    return record, EXIT_OK


# kind -> (runner, record file); a runner writes its tables and returns
# its record and exit status
_RUNNERS = {
    "evolve": (_run_evolve, "run.json"),
    "steady": (_run_steady, "steady.json"),
    "continuation": (_run_continuation, "branch.json"),
    "pullin": (_run_pullin, "pullin.json"),
    "limit-study": (_run_limit_study, "limit_study.json"),
    "validate": (_run_validate, "validate.json"),
}
KINDS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig, quiet: bool = False) -> int:
    """Dispatch one experiment; returns the process exit status.

    The kind's runner computes and writes its tables; its record goes to
    the kind's JSON file with ``kind`` and ``wall_time_s``, the seconds
    the runner took, also when the run then fails (a touchdown under
    ``require_survival``, a failed check).
    Progress goes to the ``mems_fbp`` logger at INFO, which ``quiet``
    silences for the length of the run.  A directory that cannot be made
    (``out_dir`` names a file, or a path under one, or a file is in the
    way of a continuation's profiles, found before any branch is
    computed) returns ``EXIT_CONFIG``.  A ``SolverError`` is reported
    under its class name and returns ``EXIT_SOLVER``, with no record; any
    other exception propagates.
    """
    out = Path(cfg.out_dir)
    runner, record_file = _RUNNERS[cfg.kind]
    level = log.level
    log.setLevel(logging.WARNING if quiet else logging.INFO)
    try:
        _mkdir(out, "output directory")
        start = time.perf_counter()
        record, status = runner(cfg, out)
        wall = time.perf_counter() - start
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    except SolverError as exc:
        return _fail("solver", f"{type(exc).__name__}: {exc}", EXIT_SOLVER)
    finally:
        log.setLevel(level)
    _write_json(out / record_file, {**record, "kind": cfg.kind, "wall_time_s": wall})
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mems-fbp",
        description="Membrane/potential free-boundary experiments from a JSON config.",
    )
    parser.add_argument("config", help="path to the JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        return _fail("config", str(exc), EXIT_CONFIG)
    if args.out is not None:
        cfg.out_dir = args.out
    progress = logging.StreamHandler(sys.stdout)
    progress.setFormatter(logging.Formatter("%(message)s"))
    log.addHandler(progress)
    try:
        return run_experiment(cfg, quiet=args.quiet)
    finally:
        log.removeHandler(progress)


if __name__ == "__main__":
    sys.exit(main())
