"""``tools/code_lines.py`` counts what is left of a module once blank
lines, comments and docstrings are taken out."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

MODULE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves a code line

# a comment line


class Shape:
    """Class docstring."""

    sides = 0


def area(r):
    """Function docstring,

    with a blank line inside.
    """
    text = """not a docstring:
    an ordinary string"""
    return math.pi * r * r, text
'''


def test_counts_code_outside_blanks_comments_and_docstrings():
    # import, class, sides, def, the two lines of text, return
    assert code_lines.code_lines(MODULE) == 7


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["7", "1", "8"]
    assert lines[-1].split()[1] == "total"


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=30
    )


def test_help_prints_usage_and_exits_zero():
    done = run_tool("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: code_lines.py")


def test_missing_path_exits_two_with_one_line(tmp_path):
    done = run_tool(str(tmp_path / "absent"))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        f"code_lines.py: no such file or directory: {tmp_path / 'absent'}"
    ]
