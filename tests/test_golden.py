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

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from mems_fbp.cli import main

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


def rewrite() -> None:
    """Rerun every case into its ``artifacts/`` and record the exit
    statuses and versions in the manifest."""
    exit_codes = {}
    for case in CASES:
        out = GOLDEN / case / "artifacts"
        shutil.rmtree(out, ignore_errors=True)
        os.chdir(GOLDEN / case)
        exit_codes[case] = run_case(out)
    manifest = {"exit_codes": exit_codes, "versions": VERSIONS}
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    rewrite()
