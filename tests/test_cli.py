import itertools
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from mems_fbp import evolution
from mems_fbp.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_TOUCHDOWN,
    KINDS,
    ExperimentConfig,
    _keys,
    main,
    parse_config,
    run_experiment,
)
from mems_fbp.errors import (
    ConfigError,
    DegenerateGeometryError,
    GridTooCoarseError,
    NoSteadyStateError,
    NonConvergenceError,
    SingularSystemError,
)
from mems_fbp.numerics import Grid1D, Grid2D
from mems_fbp.transform import MembraneState


# JSON key -> (field name, declared type, kinds that read it) of every config key
CONFIG_KEYS = _keys(evolution.ModelParams) | _keys(ExperimentConfig)


def write_config(tmp_path, name="cfg.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return path


def failing_step(fails):
    """``evolution.step`` that, on its n-th call, raises ``fails(u, p, n)``
    when that is an exception."""
    step = evolution.step
    calls = itertools.count(1)

    def failing(u, p, grid2d):
        error = fails(u, p, next(calls))
        if error is not None:
            raise error
        return step(u, p, grid2d)

    return failing


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        path = write_config(tmp_path, kind="evolve", **{"lambda": 0.1}, eps=0.1)
        cfg = parse_config(path)
        assert cfg.kind == "evolve"
        assert cfg.n_x == 128 and cfg.n_eta == 128
        assert cfg.params.dt == 1e-3
        assert cfg.params.lam == 0.1
        # the initial condition is parsed into the checked start state
        assert isinstance(cfg.initial_condition, MembraneState)
        assert cfg.initial_condition.grid.n_cells == 128
        assert not np.any(cfg.initial_condition.u)

    def test_every_start_form_is_one_checked_state(self, tmp_path):
        # the ends of a parabola and the -0.0 ends of a csv both come out +0.0
        x = Grid1D.uniform(16).nodes
        ic_path = tmp_path / "ic.csv"
        ic_path.write_text("\n".join(["-0.0"] + ["-0.1"] * 15 + ["-0.0"]))
        parabola = -0.2 * (1.0 - x * x)
        parabola[0] = parabola[-1] = 0.0
        expected = {"parabola": (0.2, parabola), "csv": (str(ic_path), np.r_[0.0, [-0.1] * 15, 0.0])}
        for form, (value, u) in expected.items():
            path = write_config(tmp_path, kind="limit-study", n_x=16, initial_condition={form: value})
            assert parse_config(path).initial_condition.u.tobytes() == u.tobytes()

    def test_int_for_float_key_stored_as_float(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, kind="limit-study", eps_list=[1], tau=2))
        assert cfg.eps_list == [1.0] and isinstance(cfg.eps_list[0], float)
        assert cfg.tau == 2.0 and isinstance(cfg.tau, float)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("kind", 5),
            ("lambda", "0.1"),
            ("eps", True),
            ("out_dir", ["out"]),
            ("dt", "1e-3"),
            ("touchdown_floor", None),
            ("equilibrium_tol", [1e-9]),
            ("max_time", False),
            ("n_x", 64.0),
            ("n_eta", True),
            ("initial_condition", 0),
            ("initial_condition", {"parabola": "0.2"}),
            ("initial_condition", {"csv": 5}),
            ("out_dir", 5),
            ("seed", 1.5),
            ("thin_every", "10"),
            ("record_energy", "false"),
            ("require_survival", 1),
            ("dump_profiles", 0),
            ("lambda_max", "2"),
            ("dlambda0", True),
            ("eps_list", 0.1),
            ("eps_list", [0.1, "0.2"]),
            ("eps_list", [True]),
            ("tau", None),
            ("tol_lambda", "1e-4"),
        ],
    )
    def test_wrong_json_type_names_the_key(self, tmp_path, key, value):
        # each case runs under a kind that reads its key, so the type is checked
        kind = {
            "seed": "validate",
            "dump_profiles": "continuation",
            "lambda_max": "continuation",
            "dlambda0": "continuation",
            "eps_list": "limit-study",
            "tau": "limit-study",
            "tol_lambda": "pullin",
        }.get(key, "evolve")
        fields = {"kind": kind, key: value}
        with pytest.raises(ConfigError, match=f"'{key}': expected"):
            parse_config(write_config(tmp_path, **fields))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "key", [k for k, (_, hint, _) in CONFIG_KEYS.items() if hint in (float, list[float])]
    )
    def test_non_finite_number_exit_code(self, tmp_path, capsys, key, value):
        # JSON NaN and Infinity parse as floats; every number key refuses them
        kind = CONFIG_KEYS[key][2][0]
        out = tmp_path / "out"
        entry = [0.1, value] if key == "eps_list" else value
        path = write_config(tmp_path, kind=kind, out_dir=str(out), **{key: entry})
        assert main([str(path), "--quiet"]) == EXIT_CONFIG
        message = f"ERROR[config] invalid field '{key}': expected a finite number, got {value}"
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields, key",
        [
            # pullin reads neither eps nor lambda; eps is the first
            (
                {"kind": "pullin", "eps": 0.5, "lambda": 3.0, "n_x": 64, "tol_lambda": 1e-3},
                "eps",
            ),
            ({"kind": "evolve", "tau": 2.0}, "tau"),
            ({"kind": "pullin", "dump_profiles": True}, "dump_profiles"),
            ({"kind": "continuation", "eps": 0.5}, "eps"),
        ],
    )
    def test_key_the_kind_does_not_read_rejected(self, tmp_path, fields, key):
        kind = fields["kind"]
        with pytest.raises(ConfigError, match=f"config key '{key}' is not read by kind '{kind}'"):
            parse_config(write_config(tmp_path, **fields))

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

    @pytest.mark.parametrize(
        "text, message",
        [
            (b'{"kind": "evolve", "out_dir": "caf\xe9"}', "cannot read config: 'utf-8' codec"),
            (b'{"kind": "evolve", "n_x": ' + b"1" * 5000 + b"}", "Exceeds the limit"),
            (b'{"kind": "evolve", "eps_list": ' + b"[" * 100000 + b"]" * 100000 + b"}",
             "maximum recursion depth exceeded"),
        ],
        ids=["not-utf8", "int-of-5000-digits", "nested-100000-deep"],
    )
    def test_unreadable_config_exit_code(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match=message):
            parse_config(path)
        assert main([str(path), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("mems-fbp: ERROR[config] ") and message in err

    @pytest.mark.parametrize("under", ["", "sub"])
    @pytest.mark.parametrize("flag", [False, True])
    def test_unusable_output_directory_exit_code(self, tmp_path, capsys, under, flag):
        # out_dir or --out names an existing file, or a path under one
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out = str(blocker / under) if under else str(blocker)
        path = write_config(tmp_path, kind="pullin", n_x=8, **({} if flag else {"out_dir": out}))
        assert main([str(path), "--quiet"] + (["--out", out] if flag else [])) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"mems-fbp: ERROR[config] cannot make output directory {out!r}: ")
        assert blocker.read_text() == "not a directory"

    @pytest.mark.parametrize(
        "eps_list, blocked", [([1.0], "profiles_eps1.0"), ([0.5, 1.0], "profiles_eps1.0")]
    )
    def test_file_in_the_way_of_the_profiles_exit_code(
        self, tmp_path, capsys, monkeypatch, eps_list, blocked
    ):
        # a file where a continuation dumps its profiles is reported before
        # any branch is computed
        from mems_fbp import steady

        def no_branch(*args, **kwargs):
            raise AssertionError("a branch was computed")

        monkeypatch.setattr(steady, "continue_branch", no_branch)
        out = tmp_path / "out"
        out.mkdir()
        (out / blocked).write_text("not a directory")
        path = write_config(
            tmp_path, kind="continuation", n_x=8, n_eta=8, eps_list=eps_list,
            dump_profiles=True, out_dir=str(out),
        )
        assert main([str(path), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        message = f"mems-fbp: ERROR[config] cannot make profile directory {str(out / blocked)!r}: "
        assert err.startswith(message)
        assert len(err.strip().splitlines()) == 1
        assert not any(p.name.startswith("branch") for p in out.iterdir())

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

    @pytest.mark.parametrize(
        "values",
        [
            ["0.0", "-0.1", "0.0"],  # 3 values for 17 nodes
            ["0.0"] + ["deep"] * 15 + ["0.0"],
            ["0.0"] + ["-0.1"] * 7 + ["nan"] + ["-0.1"] * 7 + ["0.0"],
        ],
        ids=["wrong-length", "non-numeric", "nan"],
    )
    def test_bad_csv_initial_condition_exit_code(self, tmp_path, capsys, values):
        ic_path = tmp_path / "ic.csv"
        ic_path.write_text("\n".join(values))
        path = write_config(
            tmp_path, kind="evolve", n_x=16, n_eta=8, initial_condition={"csv": str(ic_path)},
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_CONFIG
        assert "ERROR[config] invalid field 'initial_condition': csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "validate", "seed": -1}, "'seed': must be nonnegative"),
            ({"kind": "continuation", "lambda_max": -0.3}, "'lambda_max': must be positive"),
            ({"kind": "continuation", "lambda_max": 0}, "'lambda_max': must be positive"),
            ({"kind": "evolve", "equilibrium_tol": -1e-9}, "equilibrium_tol must be nonnegative"),
            ({"kind": "limit-study", "tau": 4e-4}, "'tau': must be at least one time step"),
            ({"kind": "limit-study", "initial_condition": "above.csv"}, "deflection <= 0"),
        ],
        ids=["negative-seed", "negative-lambda_max", "zero-lambda_max",
             "negative-equilibrium_tol", "tau-below-dt", "limit-study-csv-above-plane"],
    )
    def test_out_of_range_value_exit_code(self, tmp_path, capsys, fields, message):
        if fields.get("initial_condition") == "above.csv":
            ic_path = tmp_path / "above.csv"
            x = np.linspace(-1.0, 1.0, 17)
            ic_path.write_text("\n".join(str(v) for v in (0.1 * (1.0 - x * x)).tolist()))
            fields = dict(fields, n_x=16, n_eta=8, initial_condition={"csv": str(ic_path)})
        path = write_config(tmp_path, out_dir=str(tmp_path / "out"), **fields)
        assert main([str(path), "--quiet"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ([{"kind": "evolve"}], "config must be a JSON object"),
            ({"n_x": 16}, "missing required field 'kind'"),
            ({"kind": "evolve", "thin_every": 0}, "'thin_every': must be at least 1"),
            (
                {"kind": "evolve", "n_x": 16, "initial_condition": {"csv": "two-columns.csv"}},
                "'initial_condition': csv",
            ),
            (
                {"kind": "evolve", "initial_condition": {"sine": 0.1}},
                "'initial_condition': expected 'zero'",
            ),
            ({"kind": "limit-study", "eps_list": []}, "'eps_list': must be a non-empty list"),
            ({"kind": "limit-study", "eps_list": [0.1, 0]}, "'eps_list': entries must be positive"),
            ({"kind": "limit-study", "eps_list": [-0.1]}, "'eps_list': entries must be positive"),
        ],
        ids=["not-an-object", "no-kind", "zero-thin_every", "two-column-csv",
             "unknown-initial-condition", "empty-eps_list", "zero-eps", "negative-eps"],
    )
    def test_rejected_config_exit_code(self, tmp_path, capsys, config, message):
        if isinstance(config, dict) and config.get("initial_condition") == {"csv": "two-columns.csv"}:
            ic_path = tmp_path / "two-columns.csv"
            ic_path.write_text("\n".join(["0.0,0.0"] + ["-0.1,-0.1"] * 15 + ["0.0,0.0"]))
            config = dict(config, initial_condition={"csv": str(ic_path)})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([str(path), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("mems-fbp: ERROR[config] ") and message in err
        assert not out.exists()

    def test_readme_example_configs_parse(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        examples = re.findall(r"echo '(\{.*?\})'", readme, flags=re.DOTALL)
        assert len(examples) == 5
        for text in examples:
            path = tmp_path / "example.json"
            path.write_text(text)
            parse_config(path)

    def test_readme_config_block_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```jsonc\n(.*?)```", readme, flags=re.DOTALL)
        text = "\n".join(line.partition("//")[0] for line in block.splitlines())
        keys = json.loads(text, object_pairs_hook=lambda pairs: [k for k, _ in pairs])
        assert len(keys) == len(set(keys))
        assert set(keys) == set(CONFIG_KEYS)

    def test_readme_config_block_names_the_kinds_of_every_key(self):
        # each key's comment, continuation lines included, ends in the kinds
        # that read it: "all kinds", "all kinds but A and B" or "A, B"
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```jsonc\n(.*?)```", readme, flags=re.DOTALL)
        groups = []  # (keys of a line, its comment and those of the lines below)
        for line in block.splitlines():
            code, _, comment = line.partition("//")
            keys = re.findall(r'"(\w+)"\s*:', code)
            if keys:
                groups.append((keys, [comment]))
            elif comment and groups:
                groups[-1][1].append(comment)
        documented = {}
        for keys, comments in groups:
            phrase = " ".join(" ".join(comments).split()).rpartition(";")[2].strip()
            if phrase.startswith("all kinds"):
                _, _, but = phrase.partition(" but ")
                kinds = set(KINDS) - set(re.split(r",\s*|\s+and\s+", but) if but else [])
            else:
                kinds = set(re.split(r",\s*", phrase))
            assert kinds <= set(KINDS), (keys, phrase)
            documented.update((key, kinds) for key in keys)
        assert documented == {key: set(kinds) for key, (_, _, kinds) in CONFIG_KEYS.items()}

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.json")]) == EXIT_CONFIG
        assert "ERROR[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["continuation", "limit-study"])
    def test_repeated_eps_rejected(self, tmp_path, capsys, kind):
        # each entry of eps_list names one branch or one run, and its artifacts
        out = tmp_path / "out"
        path = write_config(
            tmp_path, kind=kind, n_x=8, n_eta=8, eps_list=[0.1, 0.2, 0.1], out_dir=str(out)
        )
        assert main([str(path), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "mems-fbp: ERROR[config] invalid field 'eps_list': entries must be distinct\n"
        assert not out.exists()

    def test_thread_count_is_not_an_option(self, tmp_path, capsys):
        path = write_config(tmp_path, kind="pullin", n_x=32, out_dir=str(tmp_path / "out"))
        with pytest.raises(SystemExit) as info:
            main([str(path), "--threads", "2"])
        assert info.value.code == EXIT_CONFIG  # argparse's usage error
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


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

    @pytest.mark.parametrize("eps", [1.0, 0.5])
    def test_stop_tells_an_end_blow_up_from_a_centre_touchdown(self, tmp_path, eps):
        # above pull-in at lambda 1 on 32x32 at dt 1e-4, both runs touch down:
        # at eps 0.5 the centre reaches the floor (measured centre gap 0.032,
        # eps max|u_x| 0.65); at eps 1 the slope at the clamped ends blows up
        # and the node next to an end passes the floor while the centre gap
        # is still 0.59 (eps max|u_x| 32)
        path = write_config(
            tmp_path, kind="evolve", **{"lambda": 1.0}, eps=eps, n_x=32, n_eta=32, dt=1e-4,
            thin_every=100000, out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        assert meta["outcome"] == "touchdown"
        stop = meta["stop"]
        assert sorted(stop) == ["centre_gap", "eps_max_slope", "min_gap_x"]
        if eps == 0.5:
            assert stop["min_gap_x"] == 0.0 and stop["centre_gap"] <= 0.05
            assert stop["eps_max_slope"] < 1.0
        else:
            # the blow-up is mirror-symmetric: which end crosses first is a
            # rounding tie, so only the distance from the centre is fixed
            assert abs(stop["min_gap_x"]) == 0.9375 and stop["centre_gap"] > 0.5
            assert stop["eps_max_slope"] > 15.0

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

    @pytest.mark.parametrize("survive, code", [(False, EXIT_OK), (True, EXIT_TOUCHDOWN)])
    def test_energy_of_a_run_that_crossed_the_plate(self, tmp_path, capsys, survive, code):
        # the last step of this run lands past the plate (min gap -1.24): it
        # has no gap region and no energy, so energy.csv stops one state short
        fields = dict(
            kind="evolve", **{"lambda": 10.0}, eps=0.1, n_x=16, n_eta=8, dt=0.05,
            max_time=2.0, require_survival=survive,
        )
        runs = {}
        for energy in (False, True):
            out = tmp_path / f"energy_{energy}"
            path = write_config(tmp_path, record_energy=energy, out_dir=str(out), **fields)
            assert main([str(path), "--quiet"]) == code
            runs[energy] = json.loads((out / "run.json").read_text())
            runs[energy].pop("wall_time_s")
        assert runs[True] == runs[False]
        assert runs[True]["outcome"] == "touchdown"
        rows = (tmp_path / "energy_True" / "energy.csv").read_text().splitlines()[1:]
        assert len(rows) == runs[True]["states_stored"] - 1
        assert ("ERROR[touchdown]" in capsys.readouterr().err) == survive

    def test_failed_step_exit_code(self, tmp_path, monkeypatch, capsys):
        from mems_fbp import evolution
        from mems_fbp.errors import SingularSystemError

        step = evolution.step
        taken = []

        def failing_third(u, p, grid2d):
            taken.append(u.time)
            if len(taken) == 3:
                raise SingularSystemError("injected failure")
            return step(u, p, grid2d)

        monkeypatch.setattr(evolution, "step", failing_third)
        path = write_config(
            tmp_path, kind="evolve", **{"lambda": 0.1}, n_x=8, n_eta=8, dt=0.01,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "SingularSystemError: step 3 from t=0.02: injected failure" in err

    @pytest.mark.parametrize(
        "cls",
        [
            SingularSystemError,
            NonConvergenceError,
            NoSteadyStateError,
            DegenerateGeometryError,
            GridTooCoarseError,
        ],
    )
    def test_every_solver_error_exits_named(self, tmp_path, monkeypatch, capsys, cls):
        monkeypatch.setattr(
            evolution, "step", failing_step(lambda u, p, n: cls("boom") if n == 2 else None)
        )
        path = write_config(
            tmp_path, kind="evolve", **{"lambda": 0.1}, n_x=8, n_eta=8,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err == f"mems-fbp: ERROR[solver] {cls.__name__}: step 2 from t=0.001: boom\n"

    def test_other_step_exception_propagates(self, tmp_path, monkeypatch):
        error = KeyError("boom")
        monkeypatch.setattr(
            evolution, "step", failing_step(lambda u, p, n: error if n == 2 else None)
        )
        path = write_config(
            tmp_path, kind="evolve", **{"lambda": 0.1}, n_x=8, n_eta=8,
            out_dir=str(tmp_path / "out"),
        )
        with pytest.raises(KeyError) as info:
            main([str(path), "--quiet"])
        assert info.value is error and info.value.args == ("boom",)

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


    def test_even_parabola_solves_every_step_folded(self, tmp_path):
        path = write_config(
            tmp_path,
            kind="evolve",
            **{"lambda": 0.3},
            eps=0.1,
            max_time=0.005,
            initial_condition={"parabola": 0.1},
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        assert meta["n_x"] == meta["n_eta"] == 128
        assert meta["diagnostics"] == {"steps": 5, "folded_solves": 5, "full_solves": 0}
        # the clamped ends of -depth * (1 - x^2) are written as +0.0
        first = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1].split(",")
        assert first[1] == first[-1] == "0.0"

    def test_uneven_csv_initial_condition_solves_every_step_in_full(self, tmp_path):
        x = np.linspace(-1, 1, 17)
        ic_path = tmp_path / "ic.csv"
        ic_path.write_text("\n".join(repr(float(v)) for v in -0.1 * (1 - x * x) * (1 + 0.3 * x)))
        path = write_config(
            tmp_path,
            kind="evolve",
            **{"lambda": 0.3},
            n_x=16,
            n_eta=8,
            max_time=0.01,
            initial_condition={"csv": str(ic_path)},
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        meta = json.loads((tmp_path / "out" / "run.json").read_text())
        assert meta["diagnostics"] == {"steps": 10, "folded_solves": 0, "full_solves": 10}


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

    def test_steady_diagnostics_count_the_jacobians(self, tmp_path, monkeypatch):
        from mems_fbp import steady

        jacobians = []
        build = steady.linearize

        def counted(*args, **kwargs):
            jacobians.append(args[1])
            return build(*args, **kwargs)

        monkeypatch.setattr(steady, "linearize", counted)
        path = write_config(
            tmp_path,
            kind="steady",
            **{"lambda": 0.2},
            eps=0.1,
            n_x=16,
            n_eta=16,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        diagnostics = json.loads((tmp_path / "out" / "steady.json").read_text())["diagnostics"]
        # one linearization per Newton step of the one solve, and one
        # potential solve, on the half rectangle, per residual evaluation
        krylov = diagnostics.pop("krylov_iters")
        residuals = diagnostics.pop("folded_solves")
        assert diagnostics == {
            "newton_iters": len(jacobians), "jacobians": len(jacobians), "full_solves": 0
        }
        assert residuals >= len(jacobians) + 1
        assert len(jacobians) > 0
        assert len(jacobians) <= krylov <= 15 * len(jacobians)

    @pytest.mark.parametrize("start", ["parabola", "uneven-csv"])
    def test_steady_reports_the_residual_newton_stopped_at(self, tmp_path, monkeypatch, start):
        # residual_inf is the residual of the last Newton iterate, as a
        # recomputation gives it, and the run solves no potential besides
        # the residual evaluations that its diagnostics count
        from mems_fbp import steady

        if start == "parabola":
            initial_condition = {"parabola": 0.1}
        else:
            x = np.linspace(-1, 1, 17)
            ic_path = tmp_path / "ic.csv"
            ic_path.write_text(
                "\n".join(repr(float(v)) for v in -0.1 * (1 - x * x) * (1 + 0.3 * x))
            )
            initial_condition = {"csv": str(ic_path)}
        solves = []
        solve = steady.solve_potential

        def counted(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(steady, "solve_potential", counted)
        lam, eps, n_x, n_eta = 0.3, 0.5, 16, 8
        path = write_config(
            tmp_path, kind="steady", **{"lambda": lam}, eps=eps, n_x=n_x, n_eta=n_eta,
            initial_condition=initial_condition, out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        meta = json.loads((tmp_path / "out" / "steady.json").read_text())
        diagnostics = meta["diagnostics"]
        assert len(solves) == diagnostics["folded_solves"] + diagnostics["full_solves"]
        assert (diagnostics["full_solves"] > 0) == (start == "uneven-csv")

        u = np.loadtxt(tmp_path / "out" / "profile.csv", delimiter=",", skiprows=1)[:, 1]
        state = MembraneState(Grid1D.uniform(n_x), u)
        r = steady.steady_residual(state, lam, eps, Grid2D.uniform(n_x, n_eta))[0]
        assert meta["residual_inf"] == float(np.max(np.abs(r)))
        assert 0.0 < meta["residual_inf"] <= 1e-10

    def test_steady_gmres_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        from mems_fbp import steady

        monkeypatch.setattr(steady, "_KRYLOV_RTOL", 0.0)
        monkeypatch.setattr(steady, "_KRYLOV_ATOL", 0.0)
        path = write_config(
            tmp_path, kind="steady", **{"lambda": 0.1}, eps=0.1, n_x=8, n_eta=8,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("mems-fbp: ERROR[solver] NoSteadyStateError: Newton at lambda=0.1: ")
        assert "after 7 iterations" in err

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

    def test_continuation_artifacts(self, tmp_path, monkeypatch):
        from mems_fbp import steady

        jacobians = []
        build = steady.linearize

        def counted(*args, **kwargs):
            jacobians.append(args[1])
            return build(*args, **kwargs)

        monkeypatch.setattr(steady, "linearize", counted)
        path = write_config(
            tmp_path,
            kind="continuation",
            n_x=16,
            n_eta=16,
            lambda_max=0.08,
            dlambda0=0.04,
            eps_list=[1.0],
            dump_profiles=True,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        lines = (tmp_path / "out" / "branch_eps1.0.csv").read_text().splitlines()
        assert lines[0] == "lambda,min_gap,max_deflection,newton_iters"
        assert len(lines) == 4  # header + lambda in {0, 0.04, 0.08}
        assert (tmp_path / "out" / "profiles_eps1.0" / "point_000.csv").exists()
        meta = json.loads((tmp_path / "out" / "branch.json").read_text())
        diag = meta["branches"]["1.0"]["diagnostics"]
        assert diag["rejected_steps"] == 0
        assert diag["newton_iters"] == sum(
            float(line.split(",")[-1]) for line in lines[1:]
        )
        # every linearization, in the depth march as at the reported voltages
        assert diag["jacobians"] == len(jacobians)
        assert diag["krylov_iters"] >= diag["jacobians"]

    def test_failed_branch_point_exit_code(self, tmp_path, monkeypatch, capsys):
        from mems_fbp import steady

        newton = steady._newton

        def failing_points(*args, depth=None, **kwargs):
            if depth is None:
                raise NoSteadyStateError("injected failure", residual=1.0)
            return newton(*args, depth=depth, **kwargs)

        monkeypatch.setattr(steady, "_newton", failing_points)
        path = write_config(
            tmp_path, kind="continuation", eps_list=[0.5], n_x=8, n_eta=8, lambda_max=0.04,
            dlambda0=0.04, out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "NoSteadyStateError: eps=0.5: branch point at lambda=0.04 failed: injected" in err

    @pytest.mark.parametrize(
        "eps_list, dump_profiles",
        [([0.5], False), ([0.5], True), ([1.0, 0.5], True)],
        ids=["one", "one-profiles", "two-profiles"],
    )
    def test_continuation_names_every_branch_by_its_eps(self, tmp_path, eps_list, dump_profiles):
        # one branch or several, each writes branch_eps<eps>.csv and
        # profiles_eps<eps>/ and has its entry in branch.json
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            kind="continuation",
            n_x=8,
            n_eta=8,
            lambda_max=0.04,
            dlambda0=0.04,
            eps_list=eps_list,
            dump_profiles=dump_profiles,
            out_dir=str(out),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        keys = [repr(eps) for eps in eps_list]
        expected = ["branch.json"] + [f"branch_eps{key}.csv" for key in keys]
        if dump_profiles:
            expected += [f"profiles_eps{key}" for key in keys]
            for key in keys:
                assert (out / f"profiles_eps{key}" / "point_000.csv").exists()
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)
        assert sorted(json.loads((out / "branch.json").read_text())["branches"]) == sorted(keys)

    def test_continuation_defaults_to_the_shared_eps_list(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, kind="continuation"))
        assert cfg.eps_list == [0.2, 0.1, 0.05]

    def test_continuation_eps_conflicting_with_eps_list_rejected(self, tmp_path):
        # continuation reads its aspect ratios from eps_list alone, so even an
        # eps that agrees with it is rejected
        for eps_list in ([0.1, 0.5], [0.5]):
            path = write_config(tmp_path, kind="continuation", eps=0.5, eps_list=eps_list)
            with pytest.raises(
                ConfigError, match="config key 'eps' is not read by kind 'continuation'"
            ):
                parse_config(path)

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
        assert meta["last_lambda"] < 0.01
        assert meta["fold_estimate"] is None and meta["fold_interval"] is None

    @pytest.mark.parametrize("kind", KINDS)
    def test_mode_is_an_unknown_key(self, tmp_path, kind):
        # every kind solves the quasilinear equation; no key selects another model
        path = write_config(tmp_path, kind=kind, mode="quasilinear")
        with pytest.raises(ConfigError, match="unknown config key 'mode'"):
            parse_config(path)

    def test_continuation_initial_condition_rejected(self, tmp_path):
        # continuation starts from the flat membrane
        path = write_config(
            tmp_path, kind="continuation", initial_condition={"parabola": 0.2}
        )
        with pytest.raises(ConfigError, match="'initial_condition' is not read by kind"):
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

    def test_pullin_on_a_coarse_grid(self, tmp_path):
        # the fold on 16 cells lies 0.0401 h^2 = 6.3e-4 below the shoot, more
        # than 2 tol_lambda away but inside the grid's allowance
        out = tmp_path / "out"
        path = write_config(tmp_path, kind="pullin", n_x=16)
        assert main([str(path), "--out", str(out), "--quiet"]) == EXIT_OK
        meta = json.loads((out / "pullin.json").read_text())
        assert 2 * meta["tol_lambda"] < meta["shooting_oracle"] - meta["lambda_star"] < 7e-4

    @pytest.mark.parametrize("shift, code", [(3e-4, EXIT_OK), (4e-4, EXIT_SOLVER)])
    def test_pullin_cross_check_bound(self, tmp_path, monkeypatch, capsys, shift, code):
        # on 16 cells the bound is 2e-4 + 0.05 h^2 = 9.81e-4 and the fold sits
        # 6.26e-4 below the shoot: a shift of 3e-4 stays inside, 4e-4 does not
        from mems_fbp import small_aspect

        shooting = small_aspect.shooting_pullin
        monkeypatch.setattr(small_aspect, "shooting_pullin", lambda: shooting() + shift)
        out = tmp_path / "out"
        path = write_config(tmp_path, kind="pullin", n_x=16)
        assert main([str(path), "--out", str(out), "--quiet"]) == code
        assert (out / "pullin.json").exists() == (code == EXIT_OK)
        if code == EXIT_SOLVER:
            assert "beyond 2*tol + 0.05*h^2 = 0.000981" in capsys.readouterr().err

    def test_pullin_oracle_does_not_move_with_the_tolerance(self, tmp_path):
        # the oracle is the closed-form continuum pull-in; tol_lambda sets
        # only the bound it is checked to
        oracles = []
        for tol in (1e-3, 1e-5):
            out = tmp_path / f"tol_{tol:g}"
            path = write_config(tmp_path, kind="pullin", n_x=512, tol_lambda=tol)
            assert main([str(path), "--out", str(out), "--quiet"]) == EXIT_OK
            oracles.append(json.loads((out / "pullin.json").read_text())["shooting_oracle"])
        assert oracles == [0.35000411934274966] * 2

    def test_pullin_diagnostics_count_the_solves(self, tmp_path, monkeypatch):
        from mems_fbp import small_aspect

        seen = {"solves": 0, "tridiagonal": 0}
        steady0, solve_tridiagonal = small_aspect.steady0, small_aspect.solve_tridiagonal

        def counted_steady0(*args, **kwargs):
            seen["solves"] += 1
            return steady0(*args, **kwargs)

        def counted_tridiagonal(*args):
            seen["tridiagonal"] += 1
            return solve_tridiagonal(*args)

        monkeypatch.setattr(small_aspect, "steady0", counted_steady0)
        monkeypatch.setattr(small_aspect, "solve_tridiagonal", counted_tridiagonal)
        path = write_config(
            tmp_path, kind="pullin", n_x=128, tol_lambda=2e-3, out_dir=str(tmp_path / "out")
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        diagnostics = json.loads((tmp_path / "out" / "pullin.json").read_text())["diagnostics"]
        # one fold solve: a tridiagonal solve per residual evaluation (for the
        # fold test) and one per Newton step, and its tangent costs none
        assert seen["solves"] == 1
        assert diagnostics["newton_iters"] == 2
        assert seen["tridiagonal"] == 2 * diagnostics["newton_iters"] + 1
        assert diagnostics["search_s"] > 0.0 and diagnostics["check_s"] > 0.0

    def test_diagnostics_keep_their_zero_counts(self, tmp_path):
        # the flat membrane is the steady state at zero voltage: no Newton step
        steady_cfg = write_config(
            tmp_path, "steady.json", kind="steady", **{"lambda": 0.0}, eps=0.1, n_x=16, n_eta=16
        )
        assert main([str(steady_cfg), "--out", str(tmp_path / "steady"), "--quiet"]) == EXIT_OK
        meta = json.loads((tmp_path / "steady" / "steady.json").read_text())
        assert meta["diagnostics"] == {
            "newton_iters": 0, "jacobians": 0, "krylov_iters": 0,
            "folded_solves": 1, "full_solves": 0,
        }
        # a branch that stops below its fold rejects no step and searches no fold
        cont = write_config(
            tmp_path, "cont.json", kind="continuation", eps_list=[1.0], n_x=16, n_eta=16,
            lambda_max=0.08, dlambda0=0.04,
        )
        assert main([str(cont), "--out", str(tmp_path / "cont"), "--quiet"]) == EXIT_OK
        diag = json.loads((tmp_path / "cont" / "branch.json").read_text())["branches"]["1.0"][
            "diagnostics"
        ]
        assert sorted(diag) == [
            "fold_solves", "folded_solves", "full_solves", "jacobians", "krylov_iters",
            "newton_iters", "rejected_steps", "tangent_solves",
        ]
        assert diag["rejected_steps"] == 0 and diag["fold_solves"] == 0
        # a floor that stops the march before its first step: only the solve
        # of its start, the flat membrane, with no Newton step and one tangent
        floored = write_config(
            tmp_path, "floored.json", kind="continuation", eps_list=[1.0], n_x=16, n_eta=16,
            lambda_max=0.08, dlambda0=0.04, touchdown_floor=0.95,
        )
        assert main([str(floored), "--out", str(tmp_path / "floored"), "--quiet"]) == EXIT_OK
        meta = json.loads((tmp_path / "floored" / "branch.json").read_text())["branches"]["1.0"]
        assert meta["points"] == 1 and meta["diagnostics"] == {
            "newton_iters": 0, "jacobians": 1, "krylov_iters": 1, "tangent_solves": 1,
            "rejected_steps": 0, "fold_solves": 0, "folded_solves": 1, "full_solves": 0,
        }
        pullin = write_config(tmp_path, "pullin.json", kind="pullin", n_x=128, tol_lambda=2e-3)
        assert main([str(pullin), "--out", str(tmp_path / "pullin"), "--quiet"]) == EXIT_OK
        diagnostics = json.loads((tmp_path / "pullin" / "pullin.json").read_text())["diagnostics"]
        assert sorted(diagnostics) == ["check_s", "newton_iters", "search_s"]

    def test_fold_solves_on_default_configs(self, tmp_path):
        # the continuation defaults on a 32x32 grid, the pull-in defaults on
        # the benchmark's 512 cells
        cont = write_config(tmp_path, "cont.json", kind="continuation", n_x=32, n_eta=32)
        assert main([str(cont), "--out", str(tmp_path / "cont"), "--quiet"]) == EXIT_OK
        meta = json.loads((tmp_path / "cont" / "branch.json").read_text())
        for branch in meta["branches"].values():
            assert branch["fold_estimate"] is not None
            assert 0 < branch["diagnostics"]["fold_solves"] <= 6
        pullin = write_config(tmp_path, "pullin.json", kind="pullin", n_x=512)
        assert main([str(pullin), "--out", str(tmp_path / "pullin"), "--quiet"]) == EXIT_OK
        diagnostics = json.loads((tmp_path / "pullin" / "pullin.json").read_text())["diagnostics"]
        assert 0 < diagnostics["newton_iters"] <= 2

    def test_failed_fold_search_exit_code(self, tmp_path, monkeypatch, capsys):
        from mems_fbp import small_aspect

        # one Newton step is too few for the fold solve on 64 cells
        monkeypatch.setattr(small_aspect, "_STEADY0_MAX_ITER", 1)
        path = write_config(tmp_path, kind="pullin", n_x=64, out_dir=str(tmp_path / "out"))
        assert main([str(path), "--quiet"]) == EXIT_SOLVER
        assert not (tmp_path / "out" / "pullin.json").exists()
        err = capsys.readouterr().err
        assert (
            "NoSteadyStateError: flat-limit pull-in: flat-limit Newton at the fold: "
            "no steady state after 1 iterations" in err
        )

    def test_progress_on_stdout_unless_quiet(self, tmp_path, capsys):
        path = write_config(
            tmp_path, kind="pullin", n_x=64, tol_lambda=2e-3, out_dir=str(tmp_path / "out")
        )
        assert main([str(path)]) == EXIT_OK
        # the discrete fold on 64 cells is 0.3499650169
        assert capsys.readouterr().out.startswith("pullin: lambda*=0.349965 ")
        assert main([str(path), "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert not logging.getLogger("mems_fbp").handlers

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

    def test_limit_study_diagnostics_per_eps(self, tmp_path):
        path = write_config(
            tmp_path,
            kind="limit-study",
            **{"lambda": 0.5},
            n_x=16,
            n_eta=8,
            eps_list=[0.2, 0.1],
            tau=0.02,
            initial_condition={"parabola": 0.2},
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        meta = json.loads((tmp_path / "out" / "limit_study.json").read_text())
        assert meta["diagnostics"] == [{"steps": 20, "folded_solves": 20, "full_solves": 0}] * 2

    def test_limit_study_rounded_tau_survives(self, tmp_path, capsys):
        # 0.0333 rounds to 33 whole steps of 1e-3: no touchdown shortened it
        path = write_config(
            tmp_path,
            kind="limit-study",
            **{"lambda": 0.5},
            n_x=16,
            n_eta=8,
            eps_list=[0.1],
            tau=0.0333,
            require_survival=True,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_OK
        meta = json.loads((tmp_path / "out" / "limit_study.json").read_text())
        assert meta["tau_used"] == pytest.approx(0.033)
        assert meta["horizon_shortened"] is False and meta["warnings"] == []
        assert capsys.readouterr().err == ""

    def test_limit_study_touchdown_exit_code(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            kind="limit-study",
            **{"lambda": 3.0},
            n_x=16,
            n_eta=8,
            eps_list=[0.05, 0.02],
            tau=2.0,
            require_survival=True,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_TOUCHDOWN
        meta = json.loads((tmp_path / "out" / "limit_study.json").read_text())
        assert meta["horizon_shortened"] is True
        assert meta["warnings"] == [
            f"touchdown before the horizon; comparison shortened to t={meta['tau_used']:g}"
        ]
        # the flat reference touches down first: each run stops at its horizon
        steps = round(meta["tau_used"] / 1e-3)
        assert [d["steps"] for d in meta["diagnostics"]] == [steps, steps]
        assert "ERROR[touchdown] limit-study" in capsys.readouterr().err

    def test_limit_study_failed_run_names_its_eps(self, tmp_path, monkeypatch, capsys):
        def at_eps_01(u, p, n):
            if p.eps == 0.1 and u.time > 0.0015:
                return SingularSystemError("singular system: forced")
            return None

        monkeypatch.setattr(evolution, "step", failing_step(at_eps_01))
        path = write_config(
            tmp_path,
            kind="limit-study",
            **{"lambda": 0.5},
            n_x=16,
            n_eta=8,
            eps_list=[0.2, 0.1],
            tau=0.005,
            out_dir=str(tmp_path / "out"),
        )
        assert main([str(path), "--quiet"]) == EXIT_SOLVER
        assert capsys.readouterr().err == (
            "mems-fbp: ERROR[solver] SingularSystemError: eps=0.1: step 3 from t=0.002: "
            "singular system: forced\n"
        )

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

    def test_validate_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from mems_fbp import criteria

        monkeypatch.setattr(criteria, "sign", lambda traj: (False, "forced failure"))
        path = write_config(tmp_path, kind="validate", out_dir=str(tmp_path / "out"))
        assert main([str(path), "--quiet"]) == EXIT_SOLVER
        report = json.loads((tmp_path / "out" / "validate.json").read_text())
        assert report["all_passed"] is False
        assert report["checks"]["sign_preservation"] == {
            "passed": False,
            "detail": "forced failure",
        }
        assert all(
            check["passed"] for name, check in report["checks"].items()
            if name != "sign_preservation"
        )
        assert "ERROR[solver]" in capsys.readouterr().err


# kind -> (a small config of the kind, the file of its JSON record)
SMALL_RUNS = {
    "evolve": ({"n_x": 16, "n_eta": 8, "max_time": 0.005}, "run.json"),
    "steady": ({"lambda": 0.3, "n_x": 16, "n_eta": 8}, "steady.json"),
    "continuation": ({"eps_list": [1.0], "n_x": 16, "n_eta": 8}, "branch.json"),
    "pullin": ({"n_x": 16}, "pullin.json"),
    "limit-study": ({"n_x": 8, "n_eta": 8, "eps_list": [0.1], "tau": 0.005}, "limit_study.json"),
    "validate": ({}, "validate.json"),
}


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_records_its_kind_and_wall_time(tmp_path, kind):
    fields, record = SMALL_RUNS[kind]
    path = write_config(tmp_path, kind=kind, out_dir=str(tmp_path / "out"), **fields)
    assert main([str(path), "--quiet"]) == EXIT_OK
    meta = json.loads((tmp_path / "out" / record).read_text())
    assert meta["kind"] == kind and meta["wall_time_s"] >= 0.0
