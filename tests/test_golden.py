"""Golden artifacts: each case under ``tests/golden/`` reruns to the
artifacts committed beside its config.

A case directory holds ``config.json``, the start file it names, if any
(a csv path is read from the case directory), and ``artifacts/``, what
the run wrote.  ``manifest.json`` records each case's exit status and the
NumPy and SciPy versions that wrote the files.  A CSV must match byte for
byte and a JSON record key for key, apart from the timing keys
``TIMING_KEYS``.  Under other NumPy or SciPy versions the bytes may differ
in roundoff, so every number, also one inside a string, is compared to the
relative tolerance ``RTOL`` (absolute ``ATOL`` near zero) instead, and the
test warns that it did so.

A change that is meant to change the artifacts rewrites them with::

    PYTHONPATH=src python tests/test_golden.py [CASE ...]

which reruns the named cases, or every case when none is named, and
updates their manifest entries.  A rewritten JSON record keeps the
committed value of each timing key, so a case whose numbers did not move
rewrites to the same bytes.
"""

import contextlib
import json
import math
import re
import shutil
import sys
import warnings
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest
import scipy

from mems_fbp.cli import _write_json, main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
TIMING_KEYS = ("wall_time_s", "search_s", "check_s")
VERSIONS = {"numpy": np.__version__, "scipy": scipy.__version__}
RTOL, ATOL = 1e-6, 1e-12  # ATOL: for values at roundoff level
NUMBER = re.compile(r"([-+]?\d+\.?\d*(?:[eE][-+]?\d+)?)")


def run_case(out: Path) -> int:
    """Run the case in the working directory into ``out``; its exit status."""
    return main(["config.json", "--quiet", "--out", str(out)])


def untimed(record):
    """``record`` without its timing keys, at any depth."""
    if isinstance(record, dict):
        return {k: untimed(v) for k, v in record.items() if k not in TIMING_KEYS}
    if isinstance(record, list):
        return [untimed(v) for v in record]
    return record


def close(expected, actual) -> bool:
    """Whether ``actual`` matches ``expected`` with every float, also one
    written inside a string, to ``RTOL`` or ``ATOL`` and everything else
    exactly."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and expected.keys() == actual.keys()
            and all(close(expected[k], actual[k]) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(map(close, expected, actual))
        )
    if isinstance(expected, str) and isinstance(actual, str):
        parts, others = NUMBER.split(expected), NUMBER.split(actual)
        return len(parts) == len(others) and all(
            close(float(e), float(a)) if i % 2 else e == a
            for i, (e, a) in enumerate(zip(parts, others))
        )
    if isinstance(expected, float) and isinstance(actual, float):
        both_nan = math.isnan(expected) and math.isnan(actual)
        return both_nan or math.isclose(expected, actual, rel_tol=RTOL, abs_tol=ATOL)
    return type(expected) is type(actual) and expected == actual


def files_under(directory: Path) -> list[Path]:
    return sorted(p.relative_to(directory) for p in directory.rglob("*") if p.is_file())


@pytest.mark.filterwarnings("default:golden artifacts:UserWarning")
@pytest.mark.parametrize("case", CASES)
def test_case_reruns_to_its_golden_artifacts(case, tmp_path, monkeypatch):
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    expected_dir, out = GOLDEN / case / "artifacts", tmp_path / "out"
    monkeypatch.chdir(GOLDEN / case)
    assert run_case(out) == manifest["exit_codes"][case]
    assert files_under(out) == files_under(expected_dir)

    exact = manifest["versions"] == VERSIONS
    if not exact:
        warnings.warn(
            f"golden artifacts of {manifest['versions']} compared under {VERSIONS} "
            f"to a relative tolerance of {RTOL} (absolute {ATOL})"
        )
    for name in files_under(expected_dir):
        expected, actual = (expected_dir / name).read_bytes(), (out / name).read_bytes()
        if name.suffix == ".json":
            expected, actual = untimed(json.loads(expected)), untimed(json.loads(actual))
        elif not exact:
            expected, actual = expected.decode(), actual.decode()
        if exact:
            assert actual == expected, name
        else:
            assert close(expected, actual), name


def readme_artifacts() -> dict[str, list[tuple[str, bool]]]:
    """kind -> (name pattern, optional) of each ``.csv`` and ``.json`` name
    that README's "Artifacts per kind" table gives in the kind's files
    column; a name preceded by "optional" is optional."""
    readme = (GOLDEN.parents[1] / "README.md").read_text(encoding="utf-8")
    (table,) = re.findall(r"### Artifacts per kind\n\n(.*?)\n\n", readme, flags=re.DOTALL)
    rows = {}
    for line in table.splitlines()[2:]:
        _, kind, files, _, _ = line.split("|")
        names = re.findall(r"(optional )?`([^`]+\.(?:csv|json))`", files)
        rows[kind.strip()] = [(name, bool(optional)) for optional, name in names]
    return rows


@pytest.mark.parametrize("case", CASES)
def test_readme_names_exactly_the_golden_artifacts(case):
    kind = json.loads((GOLDEN / case / "config.json").read_text())["kind"]
    names = readme_artifacts()[kind]
    written = [str(p) for p in files_under(GOLDEN / case / "artifacts")]
    assert [f for f in written if not any(fnmatch(f, name) for name, _ in names)] == []
    required = [name for name, optional in names if not optional]
    assert [name for name in required if not any(fnmatch(f, name) for f in written)] == []


def keep_timings(fresh, committed):
    """``fresh`` with each timing key that ``committed`` has at the same
    place, in nested objects too, set to its committed value."""
    if isinstance(fresh, dict) and isinstance(committed, dict):
        return {
            k: committed[k]
            if k in TIMING_KEYS and k in committed
            else keep_timings(v, committed.get(k))
            for k, v in fresh.items()
        }
    return fresh


def rewrite(golden: Path, cases) -> None:
    """Rerun each of ``cases`` into its ``artifacts/`` under ``golden``,
    keeping the committed timing values of its JSON records, and record
    its exit status and the versions in the manifest.  Under versions
    other than the manifest's, only a rewrite of every case is allowed:
    the manifest names one pair of versions for all files."""
    manifest = json.loads((golden / "manifest.json").read_text())
    if manifest["versions"] != VERSIONS and set(cases) != set(manifest["exit_codes"]):
        raise SystemExit(
            f"artifacts of {manifest['versions']}: rewrite every case under {VERSIONS}"
        )
    for case in cases:
        out = golden / case / "artifacts"
        committed = {
            name: json.loads((out / name).read_text())
            for name in files_under(out)
            if name.suffix == ".json"
        }
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.chdir(golden / case):
            manifest["exit_codes"][case] = run_case(out)
        for name, record in committed.items():
            if (out / name).is_file():
                _write_json(out / name, keep_timings(json.loads((out / name).read_text()), record))
    manifest["versions"] = VERSIONS
    (golden / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def test_rewrite_keeps_every_file(tmp_path):
    # a rewrite of cases whose numbers did not move changes no byte, timing
    # keys included, so that a rewrite shows only what a change moved
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    if manifest["versions"] != VERSIONS:
        pytest.skip(f"golden artifacts of {manifest['versions']}, running under {VERSIONS}")
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy)
    rewrite(copy, CASES)
    assert files_under(copy) == files_under(GOLDEN)
    changed = [
        f for f in files_under(GOLDEN) if (copy / f).read_bytes() != (GOLDEN / f).read_bytes()
    ]
    assert changed == []


if __name__ == "__main__":
    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if unknown:
        raise SystemExit(f"no golden case {unknown}; the cases are {CASES}")
    rewrite(GOLDEN, sys.argv[1:] or CASES)
