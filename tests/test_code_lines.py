"""``tools/code_lines.py`` counts what is left of a module once blank
lines, comments and docstrings are taken out."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).parents[1] / "tools" / "code_lines.py"
)
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
