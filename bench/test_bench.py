"""Tests of the benchmark harness itself, on task sizes far below the
workloads' so that they run in seconds."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import harness
import oracles
import tasks
import tracing
from mems_fbp import cli, evolution, steady
from mems_fbp.numerics import Grid1D, Grid2D
from mems_fbp.transform import MembraneState

SMALL = {
    "evolve": {"kind": "evolve", "eps": 0.1, "lambda": 0.25, "dt": 1e-3, "max_time": 0.01,
               "equilibrium_tol": 0.0, "initial_condition": {"parabola": 0.1},
               "n_x": 16, "n_eta": 12},
    "continuation": {"kind": "continuation", "eps_list": [0.1, 1.0], "lambda_max": 2.0,
                     "dlambda0": 0.05, "n_x": 8, "n_eta": 8},
    "flat-pullin": {"kind": "pullin", "n_x": 512, "tol_lambda": 2e-4},
}
NO_REFERENCE_SEED = 12345


def _write(directory: Path, cfgs: list[dict]) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, cfg in enumerate(cfgs):
        path = directory / f"task_{i:04d}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        paths.append(path)
    return paths


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, task=0)


def test_self_time_subtracts_the_union_of_children():
    rec = tracing.SpanRecorder()
    rec.spans = [
        _span("cli.task", 0.0, 10.0, None),
        _span("steady.steady_residual", 1.0, 3.0, 0),
        _span("steady.steady_residual", 2.0, 5.0, 0),   # overlaps its sibling
        _span("numerics.lu_factor", 9.0, 12.0, 0),      # runs past its parent
        _span("elliptic.solve_potential", 1.5, 2.5, 1),
    ]
    self_s = rec.self_times()
    # parent: 10 - |[1,5] u [9,10]| = 5
    assert self_s["cli"] == pytest.approx(5.0)
    # residual spans: (2 - 1) + 3
    assert self_s["steady"] == pytest.approx(4.0)
    assert self_s["elliptic"] == pytest.approx(1.0)
    assert self_s["numerics"] == pytest.approx(3.0)


def test_missing_traced_name_fails_loudly(monkeypatch):
    monkeypatch.delattr(steady, "steady_residual")
    with pytest.raises(LookupError, match="steady_residual"):
        with tracing.traced(tracing.SpanRecorder()):
            pass
    assert not hasattr(evolution.step, "__wrapped__")  # nothing was left patched


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    real_run = cli.run_experiment
    calls = []

    def corrupting_run(cfg, quiet=False):
        rc = real_run(cfg, quiet)
        calls.append(cfg.out_dir)
        if len(calls) == 2:  # flip the second task's final state above the plane
            path = Path(cfg.out_dir) / "trajectory.csv"
            lines = path.read_text(encoding="utf-8").splitlines()
            row = lines[-1].split(",")
            row[5] = repr(-float(row[5]))
            lines[-1] = ",".join(row)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return rc

    monkeypatch.setattr(cli, "run_experiment", corrupting_run)
    configs = _write(tmp_path / "cfg", [SMALL["evolve"]] * 3)
    checker = tasks.Checker("evolve", NO_REFERENCE_SEED, tasks.load_reference())
    results = harness.run_untraced(configs, tmp_path, checker, harness.SpeedProbe("interpreted"), 0.1)
    assert [r.failed for r in results] == [False, True, False]
    assert any("above the plane" in p for p in results[1].problems)
    assert sum(r.failed for r in results) / len(results) == pytest.approx(1 / 3)


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_one_seed_gives_identical_configs(tmp_path, workload):
    a = tasks.write_configs(workload, 7, 3, tmp_path / "a")
    b = tasks.write_configs(workload, 7, 3, tmp_path / "b")
    c = tasks.write_configs(workload, 8, 3, tmp_path / "c")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    assert [p.read_bytes() for p in a] != [p.read_bytes() for p in c]
    for path in a:
        cli.parse_config(path)  # the program accepts every generated config


EXACT = (
    "numerics.lu_factor.calls",
    "elliptic.solve_potential.calls",
    "steady.steady_residual.calls",
    "numerics.solve_tridiagonal.calls",
    "numerics.lu_nnz",
)


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_traced_counts_repeat_exactly(tmp_path, workload):
    checker = tasks.Checker(workload, NO_REFERENCE_SEED, tasks.load_reference())
    configs = _write(tmp_path / "cfg", [SMALL[workload]])
    counts = []
    for attempt in range(2):
        rec = tracing.SpanRecorder()
        plain, traced = harness.run_traced(configs, tmp_path / str(attempt), checker, rec)
        metrics, problems = harness.layer_metrics(workload, rec, traced, plain)
        assert not problems
        counts.append({name: metrics[name][0] for name in EXACT})
    assert counts[0] == counts[1]
    if workload == "flat-pullin":
        assert counts[0]["numerics.lu_factor.calls"] == 0
    else:
        assert counts[0]["numerics.lu_factor.calls"] > 0


def test_oracle_evolution_matches_the_program():
    model = oracles.MappedModel(16, 12, 0.1)
    u0 = -0.15 * (1.0 - model.x**2)
    grid = Grid1D.uniform(16)
    params = evolution.ModelParams(eps=0.1, lam=0.25, equilibrium_tol=0.0, max_time=0.03)
    traj = evolution.run(MembraneState(grid, u0), params, Grid2D.uniform(16, 12))
    steps = tasks.evolve_steps({"dt": params.dt, "max_time": params.max_time})
    assert np.max(np.abs(traj.final.u - model.evolve(u0, 0.25, 1e-3, steps))) < 1e-12


def test_oracle_fold_lies_in_the_program_bracket():
    for eps in tasks.CONTINUATION_EPS:
        fold = oracles.MappedModel(8, 8, eps).steady_fold(np.arange(0.05, 0.9, 0.05))
        branch = steady.continue_branch(eps, 2.0, 0.05, n_x=8)
        lo, hi = branch.fold_interval
        assert lo <= fold <= hi
        assert fold < oracles.nonexistence_bound(eps)


def test_flat_pullin_oracles_agree():
    exact = oracles.flat_pullin_exact()
    assert exact == pytest.approx(0.35, abs=1e-5)
    # second order: the error shrinks fourfold per refinement
    e1 = abs(oracles.flat_pullin_discrete(256) - exact)
    e2 = abs(oracles.flat_pullin_discrete(512) - exact)
    assert 3.0 < e1 / e2 < 5.0


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(tasks.WORKLOADS)
    fake = [harness.TaskResult(0, 1.0, 0, [])]
    e2e = harness.end_to_end(1.0, [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    layers, _ = harness.layer_metrics("evolve", tracing.SpanRecorder(), fake, fake)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}


def test_tail_needs_ten_samples_beyond():
    assert harness.tail([1.0] * 10) is None
    value, pct = harness.tail([float(i) for i in range(20)])
    assert value == 9.0 and pct == 50
