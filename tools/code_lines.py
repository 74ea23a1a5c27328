"""Count the code lines of Python files: lines that are not blank, not a
comment and not inside a module, class or function docstring.

Prints each file's count and the total::

    python tools/code_lines.py src/mems_fbp

A path that does not exist exits with status 2 and a one-line message.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers (from 1) that the docstrings of ``source`` span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of the Python module ``source``."""
    skip = docstring_lines(source)
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "paths", nargs="*", type=Path, default=[Path("src")],
        help="Python files, and directories to search for them (default: src)",
    )
    paths = parser.parse_args(argv).paths
    for path in paths:
        if not path.exists():
            parser.exit(2, f"{parser.prog}: no such file or directory: {path}\n")
    files = sorted(f for path in paths for f in (path.rglob("*.py") if path.is_dir() else [path]))
    total = 0
    for f in files:
        count = code_lines(f.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
