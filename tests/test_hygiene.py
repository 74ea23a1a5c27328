"""Static checks on the package source: what a module exports exists and
is used, and what it imports it uses.  They guard changes that delete
code."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mems_fbp

MODULES = ["mems_fbp"] + [
    f"mems_fbp.{info.name}" for info in pkgutil.iter_modules(mems_fbp.__path__)
]


def parse(name):
    return ast.parse(Path(importlib.import_module(name).__file__).read_text())


def exported(tree):
    """The string entries of the module-level ``__all__``, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return None


@pytest.mark.parametrize("name", [m for m in MODULES if exported(parse(m)) is not None])
def test_every_export_resolves(name):
    names = exported(parse(name))
    module = importlib.import_module(name)
    assert [n for n in names if not hasattr(module, n)] == []
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = parse(name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(exported(tree) or [])  # a re-export counts as a use
    unused = sorted(f"{n} (line {line})" for n, line in imported.items() if n not in used)
    assert unused == []


def names_used(tree):
    """Every name read or attribute taken anywhere in ``tree``."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


@pytest.mark.parametrize("name", MODULES)
def test_every_private_definition_is_used(name):
    """A module-level private function or class is referenced somewhere in
    the package outside its own definition: a merge that leaves a helper
    without callers fails here."""
    tree = parse(name)
    others = set().union(*(names_used(parse(m)) for m in MODULES if m != name))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
        if node.name not in names_used(rest) | others:
            unused.append(f"{node.name} (line {node.lineno})")
    assert unused == []


# Public names that the package itself never uses, kept because each backs
# an acceptance criterion of tests/test_acceptance.py that calls it.
CRITERION_EXPORTS = {
    "fit_exponential_rate": "C7",
    "trace_lower_bound_check": "C9",
}


@pytest.mark.parametrize("name", [m for m in MODULES if exported(parse(m)) is not None])
def test_every_export_is_used(name):
    """A name in a module's ``__all__`` is used in the package outside its
    own definition: a public function used only by its own unit tests is
    deleted, unless it backs an acceptance criterion."""
    tree = parse(name)
    others = set().union(*(names_used(parse(m)) for m in MODULES if m != name))
    unused = []
    for export in exported(tree):
        rest = [n for n in tree.body if getattr(n, "name", None) != export]
        used = names_used(ast.Module(body=rest, type_ignores=[])) | others
        if export not in used and export not in CRITERION_EXPORTS:
            unused.append(export)
    assert unused == []


@pytest.mark.parametrize("name", MODULES)
def test_no_np_append(name):
    """No module calls ``np.append``: it copies its whole input on every
    call and hides that copy in a loop.  A vector that grows by a border
    entry is filled into a preallocated array, or concatenated once."""
    tree = parse(name)
    appends = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "append"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    ] + [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == "numpy"
        and any(alias.name == "append" for alias in node.names)
    ]
    assert appends == []
