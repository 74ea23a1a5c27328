import json
import sys

import numpy as np
import pytest

from mems_fbp.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_TOUCHDOWN,
    main,
    parse_config,
    run_experiment,
)
from mems_fbp.errors import ConfigError


def write_config(tmp_path, name="cfg.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return path


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        path = write_config(tmp_path, kind="evolve", **{"lambda": 0.1}, eps=0.1)
        cfg = parse_config(path)
        assert cfg.kind == "evolve"
        assert cfg.n_x == 128 and cfg.n_eta == 128
        assert cfg.params.dt == 1e-3
        assert cfg.params.lam == 0.1
        assert cfg.ic_kind == "zero"

    def test_unknown_kind(self, tmp_path):
        path = write_config(tmp_path, kind="frobnicate")
        with pytest.raises(ConfigError, match="kind"):
            parse_config(path)

    def test_negative_eps(self, tmp_path):
        path = write_config(tmp_path, kind="evolve", eps=-0.1)
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, kind="evolve", frobnicator=3)
        with pytest.raises(ConfigError, match="frobnicator"):
            parse_config(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "kind": "evolve",\n  oops\n}')
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(path)

    def test_grid_floor(self, tmp_path):
        path = write_config(tmp_path, kind="evolve", n_x=4)
        with pytest.raises(ConfigError, match="at least 8"):
            parse_config(path)

    def test_parabola_depth_range(self, tmp_path):
        path = write_config(tmp_path, kind="evolve", initial_condition={"parabola": 1.2})
        with pytest.raises(ConfigError, match="depth"):
            parse_config(path)

    def test_missing_csv_path(self, tmp_path):
        path = write_config(
            tmp_path, kind="evolve", initial_condition={"csv": str(tmp_path / "nope.csv")}
        )
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(path)

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.json")]) == EXIT_CONFIG
        assert "ERROR[config]" in capsys.readouterr().err


class TestEvolveKind:
    def test_touchdown_recorded(self, tmp_path):
        path = write_config(
            tmp_path,
            kind="evolve",
            **{"lambda": 10.0},
            eps=0.1,
            n_x=24,
            n_eta=16,
            max_time=2.0,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        assert meta["outcome"] == "touchdown"
        assert meta["touchdown_time"] > 0.0
        header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("time,x=")

    def test_require_survival_exit_code(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            kind="evolve",
            **{"lambda": 10.0},
            eps=0.1,
            n_x=24,
            n_eta=16,
            max_time=2.0,
            require_survival=True,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_TOUCHDOWN
        assert "ERROR[touchdown]" in capsys.readouterr().err

    def test_deterministic_csv(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            path = write_config(
                tmp_path,
                name=f"cfg_{tag}.json",
                kind="evolve",
                **{"lambda": 0.4},
                eps=0.2,
                n_x=16,
                n_eta=8,
                max_time=0.05,
                initial_condition={"parabola": 0.2},
                out_dir=str(tmp_path / tag),
            )
            assert main([str(path), "--quiet"]) == EXIT_OK
            outs.append((tmp_path / tag / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_custom_csv_ic(self, tmp_path):
        grid_n = 16
        x = np.linspace(-1, 1, grid_n + 1)
        ic = -0.1 * (1 - x * x)
        ic_path = tmp_path / "ic.csv"
        ic_path.write_text("\n".join(repr(float(v)) for v in ic))
        path = write_config(
            tmp_path,
            kind="evolve",
            **{"lambda": 0.0},
            n_x=grid_n,
            n_eta=8,
            max_time=0.01,
            initial_condition={"csv": str(ic_path)},
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK


class TestOtherKinds:
    def test_steady_artifacts(self, tmp_path):
        path = write_config(
            tmp_path,
            kind="steady",
            **{"lambda": 0.1},
            eps=0.1,
            n_x=16,
            n_eta=16,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        meta = json.loads((tmp_path / "out" / "steady.json").read_text())
        assert meta["residual_inf"] <= 1e-10
        assert (tmp_path / "out" / "profile.csv").exists()

    def test_steady_failure_exit_code(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            kind="steady",
            **{"lambda": 1.5},
            eps=1.0,
            n_x=16,
            n_eta=16,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("mems-fbp: ERROR[solver]")
        assert len(err.strip().splitlines()) == 1

    def test_continuation_artifacts(self, tmp_path):
        path = write_config(
            tmp_path,
            kind="continuation",
            eps=1.0,
            n_x=16,
            n_eta=16,
            lambda_max=0.08,
            dlambda0=0.04,
            eps_list=[1.0],
            dump_profiles=True,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        lines = (tmp_path / "out" / "branch.csv").read_text().splitlines()
        assert lines[0] == "lambda,min_gap,max_deflection,newton_iters"
        assert len(lines) == 4  # header + lambda in {0, 0.04, 0.08}
        assert (tmp_path / "out" / "profiles" / "point_000.csv").exists()
        meta = json.loads((tmp_path / "out" / "branch.json").read_text())
        diag = meta["branches"]["1.0"]["diagnostics"]
        assert diag["rejected_steps"] == 0
        assert diag["newton_iters"] == sum(
            float(line.split(",")[-1]) for line in lines[1:]
        )
        assert diag["jacobians"] == diag["newton_iters"]

    def test_continuation_threads_match_serial(self, tmp_path):
        # two eps branches to their folds, run concurrently and in turn:
        # nothing a branch factorizes may leak into the other
        outputs = {}
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so that shared state shows
        try:
            for threads in (2, 1):
                out = tmp_path / f"out{threads}"
                path = write_config(
                    tmp_path,
                    f"cfg{threads}.json",
                    kind="continuation",
                    n_x=10,
                    n_eta=10,
                    lambda_max=2.0,
                    dlambda0=0.05,
                    eps_list=[0.1, 1.0],
                    out_dir=str(out),
                )
                assert main([str(path), "--quiet", "--threads", str(threads)]) == EXIT_OK
                outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        finally:
            sys.setswitchinterval(switch_interval)
        assert sorted(outputs[1]) == ["branch.json", "branch_eps0.1.csv", "branch_eps1.0.csv"]
        assert outputs[2] == outputs[1]

    def test_steady_honours_touchdown_floor(self, tmp_path, capsys):
        fields = dict(kind="steady", eps=0.1, n_x=16, n_eta=16, out_dir=str(tmp_path / "out"))
        fields["lambda"] = 0.1
        assert main([str(write_config(tmp_path, **fields)), "--quiet"]) == EXIT_OK
        # the steady state deflects by more than 1e-3, so no iterate may reach it
        path = write_config(tmp_path, "high.json", touchdown_floor=0.999, **fields)
        assert main([str(path), "--quiet"]) == EXIT_SOLVER
        assert "DegenerateGeometryError" in capsys.readouterr().err

    def test_continuation_honours_touchdown_floor(self, tmp_path):
        path = write_config(
            tmp_path,
            kind="continuation",
            eps=1.0,
            n_x=16,
            n_eta=16,
            lambda_max=0.08,
            dlambda0=0.04,
            eps_list=[1.0],
            touchdown_floor=0.999,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        meta = json.loads((tmp_path / "out" / "branch.json").read_text())["branches"]["1.0"]
        # the floor, not the fold, stops the branch far below lambda_max
        assert meta["fold_estimate"] is not None and meta["fold_estimate"] < 0.01
        assert meta["diagnostics"]["rejected_steps"] > 0

    @pytest.mark.parametrize("kind", ["steady", "continuation"])
    def test_linearized_mode_rejected(self, tmp_path, kind):
        path = write_config(tmp_path, kind=kind, mode="linearized")
        with pytest.raises(ConfigError, match="'mode'"):
            parse_config(path)

    def test_continuation_initial_condition_rejected(self, tmp_path):
        path = write_config(
            tmp_path, kind="continuation", initial_condition={"parabola": 0.2}
        )
        with pytest.raises(ConfigError, match="'initial_condition'"):
            parse_config(path)

    def test_pullin_artifacts(self, tmp_path):
        path = write_config(
            tmp_path,
            kind="pullin",
            n_x=128,
            tol_lambda=2e-3,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        meta = json.loads((tmp_path / "out" / "pullin.json").read_text())
        lo, hi = meta["bracket"]
        assert lo <= meta["lambda_star"] <= hi
        assert abs(meta["lambda_star"] - meta["shooting_oracle"]) <= 2 * meta["tol_lambda"]

    def test_limit_study_artifacts(self, tmp_path):
        path = write_config(
            tmp_path,
            kind="limit-study",
            **{"lambda": 0.5},
            n_x=16,
            n_eta=8,
            eps_list=[0.2, 0.1],
            tau=0.05,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        lines = (tmp_path / "out" / "limit_study.csv").read_text().splitlines()
        assert lines[0].startswith("eps,sup_error,potential_error@t=")
        assert len(lines) == 3

    def test_validate_kind(self, tmp_path):
        path = write_config(
            tmp_path, kind="validate", seed=7, out_dir=str(tmp_path / "out")
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "validate.json").read_text())
        assert report["all_passed"] is True
        assert set(report["checks"]) == {
            "elliptic_mms_order",
            "unit_source_at_rest",
            "potential_symmetry",
            "dual_formulation_agreement",
            "sign_preservation",
            "flat_limit_consistency",
        }
