"""``tools/layers.py`` writes the layer table with every key it promises.

The script pins its process to one core, so it runs in a child process
here, at n = 16 with one sample; only the keys are checked.
"""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "layers.py"


def test_writes_every_key(tmp_path):
    subprocess.run(
        [sys.executable, str(TOOL), "--label", "smoke", "--sizes", "16", "--samples", "1",
         "--out-dir", str(tmp_path)],
        check=True, capture_output=True, timeout=60,
    )
    table = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert set(table) == {
        "label", "machine", "commit", "method", "kernels", "eta_sweep", "steady_kernels",
        "branch_to_fold", "flat_fold_solve", "kinds",
    }
    assert set(table["machine"]) == {"cpu_model", "cores", "python", "numpy", "scipy"}
    assert set(table["commit"]) == {"hash", "dirty", "trees"}
    assert set(table["commit"]["trees"]) == {"src", "tools"}
    assert {
        "pinned_core", "blas_threads", "samples", "statistic", "workloads", "unfolded", "eta_sweep",
        "kinds",
    } <= set(table["method"])
    timing = {"median_s", "q1_s", "q3_s", "calls_per_sample"}
    assert set(table["kernels"]) == {"16"}
    kernels = table["kernels"]["16"]
    assert set(kernels) == {
        "coefficient_assembly", "stencil_weights", "sparse_assembly", "sparse_assembly_unfolded",
        "lu_factor", "lu_factor_unfolded", "triangular_solve", "trace_extraction",
        "evolution_step",
    }
    assert all(set(entry) == timing for entry in kernels.values())
    assert set(table["eta_sweep"]) == {"8", "16"}
    for sweep in table["eta_sweep"].values():
        assert set(sweep) == {"lu_factor", "evolution_step"}
        assert all(set(entry) == timing for entry in sweep.values())
    assert set(table["steady_kernels"]) == {"0.1", "1.0"}
    for by_size in table["steady_kernels"].values():
        assert set(by_size) == {"16"}
        steady = by_size["16"]
        assert set(steady) == {
            "steady_residual", "linearize", "krylov_product", "gmres_newton_step",
        }
        assert all(timing <= set(entry) for entry in steady.values())
        assert "iterations" in steady["gmres_newton_step"]
    assert set(table["branch_to_fold"]) == {"0.1", "1.0"}
    for by_size in table["branch_to_fold"].values():
        assert set(by_size) == {"16"}
        branch = by_size["16"]
        assert set(branch) == timing | {
            "factorizations", "krylov_iters", "tangent_solves", "points",
            "factorizations_march", "factorizations_points", "krylov_tangents", "krylov_newton",
        }
        assert branch["factorizations"] > 0 and branch["points"] > 1
        assert branch["factorizations_march"] > 0 and branch["factorizations_points"] > 0
        assert (
            branch["factorizations_march"] + branch["factorizations_points"]
            == branch["factorizations"]
        )
        assert branch["krylov_tangents"] + branch["krylov_newton"] == branch["krylov_iters"]
    assert set(table["flat_fold_solve"]) == {"512", "2048"}
    assert all(set(entry) == timing for entry in table["flat_fold_solve"].values())
    # every golden case's config, run through the CLI to its recorded status
    golden = Path(__file__).parent / "golden"
    manifest = json.loads((golden / "manifest.json").read_text())
    assert set(table["kinds"]) == set(manifest["exit_codes"])
    for case, entry in table["kinds"].items():
        assert set(entry) == {"kind", "exit_status", "runs", "median_s", "q1_s", "q3_s"}
        assert entry["kind"] == json.loads((golden / case / "config.json").read_text())["kind"]
        assert entry["exit_status"] == manifest["exit_codes"][case]
        assert entry["runs"] == 1 and 0.0 < entry["q1_s"] <= entry["median_s"] <= entry["q3_s"]
