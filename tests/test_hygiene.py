"""Static checks on the package source: what a module exports exists and
is used, and what it imports it uses.  They guard changes that delete
code."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from collections import Counter
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


def name_uses(tree):
    """How often each name is read or taken as an attribute in ``tree``."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


# Public methods and properties that the package itself never uses, kept
# because each backs an acceptance criterion of tests/test_acceptance.py.
CRITERION_MEMBERS = {
    "LimitComparison.potential_sup_errors": "C11",
}


@pytest.mark.parametrize("name", [m for m in MODULES if exported(parse(m)) is not None])
def test_every_public_member_is_used(name):
    """A public method or property of a class in a module's ``__all__`` is
    used in the package outside its own definition, unless it backs an
    acceptance criterion: a member used only by tests is deleted."""
    tree = parse(name)
    others = set().union(*(names_used(parse(m)) for m in MODULES if m != name))
    uses = name_uses(tree)
    unused = []
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name in exported(tree)):
            continue
        for member in cls.body:
            if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                continue
            qualified = f"{cls.name}.{member.name}"
            outside = (uses - name_uses(member))[member.name] or member.name in others
            if not outside and qualified not in CRITERION_MEMBERS:
                unused.append(qualified)
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


WARNING_FILTER_CALLS = ("catch_warnings", "simplefilter", "filterwarnings", "resetwarnings")


@pytest.mark.parametrize("name", MODULES)
def test_no_warning_filter_changes(name):
    """No module changes the warning filters: ``warnings.filters`` is one
    list for the whole process, so a save and restore of it in one thread
    races with another thread's (``limit_study`` runs solves on a pool),
    and a solver's failure is an exception it raises, not a warning."""
    nodes = list(ast.walk(parse(name)))
    names = [(n.lineno, n.attr) for n in nodes if isinstance(n, ast.Attribute)]
    names += [(n.lineno, n.id) for n in nodes if isinstance(n, ast.Name)]
    names += [(n.lineno, a.name) for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names]
    assert [f"{n} (line {line})" for line, n in names if n in WARNING_FILTER_CALLS] == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "mems_fbp.errors"])
def test_no_exception_args_assignment(name):
    """Only ``errors.context`` rewrites an exception's ``args``: a solve
    that names where a failure happened re-raises it through that helper."""
    assigned = [
        node.lineno
        for node in ast.walk(parse(name))
        if isinstance(node, ast.Attribute)
        and node.attr == "args"
        and isinstance(node.ctx, ast.Store)
    ]
    assert assigned == []


# Optional parameters that no call in the package sets, each with why it stays.
UNSET_DEFAULTS = {
    ("cli", "main", "argv"): "the console entry point calls main() without arguments",
    ("errors", "SolverError.__init__", "residual"): "set through its subclasses' constructors",
}


def calls_by_name(trees):
    """Callee name -> (positional argument counts, keyword names) over every
    call in ``trees``; a ``*args`` or ``**kwargs`` splat counts as setting
    every positional or keyword parameter."""
    seen = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            positional, keywords = seen.setdefault(name, (set(), set()))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positional.add(float("inf") if starred else len(node.args))
            keywords.update(k.arg or "**" for k in node.keywords)
    return seen


def optional_parameters(tree):
    """(qualified name, callee name, parameter, positional index or None) of
    every parameter with a default of every function in ``tree``; the
    callee name of ``__init__`` is its class, and a method's index skips
    ``self`` or ``cls``."""

    def visit(body, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                skip = 1 if cls else 0
                listed = args.posonlyargs + args.args
                callee = cls if node.name == "__init__" else node.name
                first = len(listed) - len(args.defaults)
                for index, arg in enumerate(listed[first:], first - skip):
                    yield f"{prefix}{node.name}", callee, arg.arg, index
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{prefix}{node.name}", callee, arg.arg, None
                yield from visit(node.body, f"{prefix}{node.name}.", None)

    yield from visit(tree.body, "", None)


def is_set(calls, callee, param, index):
    """Whether some call in ``calls`` (see ``calls_by_name``) sets ``param``
    of ``callee``, by keyword or by position."""
    positional, keywords = calls.get(callee, (set(), set()))
    by_position = index is not None and any(n > index for n in positional)
    return by_position or param in keywords or "**" in keywords


def test_every_default_is_overridden():
    """An optional parameter of a package function is set by some call in
    the package, by keyword or by position; one that only tests set is
    deleted, unless ``UNSET_DEFAULTS`` gives the reason it stays, and every
    entry there is still such a parameter.  Calls are matched by the
    callee's name alone."""
    calls = calls_by_name(parse(m) for m in MODULES)
    unset = set()
    for name in MODULES:
        for qualified, callee, param, index in optional_parameters(parse(name)):
            if not is_set(calls, callee, param, index):
                unset.add((name.rpartition(".")[2], qualified, param))
    assert unset == set(UNSET_DEFAULTS)


def test_every_test_only_default_is_set_by_a_test():
    """An ``UNSET_DEFAULTS`` entry kept because tests set it is set by some
    call in a module under ``tests/``."""
    tests = Path(__file__).parent
    calls = calls_by_name(ast.parse(path.read_text()) for path in sorted(tests.glob("*.py")))
    unset = []
    for (module, qualified, param), reason in UNSET_DEFAULTS.items():
        if not reason.startswith("set by tests only"):
            continue
        for name, callee, arg, index in optional_parameters(parse(f"mems_fbp.{module}")):
            if (name, arg) == (qualified, param) and not is_set(calls, callee, arg, index):
                unset.append((module, qualified, param))
    assert unset == []


def test_cli_start_up_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize adds 0.2-0.3 s to a fresh import of the CLI
    # on a 2-core machine, and no part of the package needs it
    src = Path(mems_fbp.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", "import sys, mems_fbp.cli; print('scipy.optimize' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def test_only_run_experiment_times_a_run_and_writes_its_record():
    """In ``mems_fbp.cli`` only ``run_experiment`` calls ``_write_json`` and
    ``time.perf_counter``: one function writes every kind's JSON record,
    with its ``kind`` and ``wall_time_s``, and the runners do neither."""
    recorded = ("_write_json", "time.perf_counter", "perf_counter")
    callers = {
        (getattr(top, "name", None), ast.unparse(node.func))
        for top in parse("mems_fbp.cli").body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in recorded
    }
    assert callers == {("run_experiment", "_write_json"), ("run_experiment", "time.perf_counter")}


def annotated_names(arg):
    """The names in the annotation of parameter ``arg``."""
    if arg.annotation is None:
        return set()
    return {node.id for node in ast.walk(arg.annotation) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("name", MODULES)
def test_no_grid_beside_a_potential(name):
    """No function takes a ``Grid2D`` beside a ``PotentialField``: the
    field carries the grid it was solved on, and a second grid could only
    disagree with it."""
    both = []
    for node in ast.walk(parse(name)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            names = set().union(*map(annotated_names, params))
            if {"Grid2D", "PotentialField"} <= names:
                both.append(f"{node.name} (line {node.lineno})")
    assert both == []


def owner_of(node, attr):
    """The source of X when ``node`` is the attribute ``X.attr``, else None."""
    if isinstance(node, ast.Attribute) and node.attr == attr:
        return ast.unparse(node.value)
    return None


def state_differencing_calls(tree):
    """Lines of the calls in ``tree`` that pass a state's deflection
    ``X.u`` beside its grid: ``X.grid`` itself or a local name that the
    enclosing function binds to ``X.grid``."""
    lines = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        grids = {
            target.id: owner_of(node.value, "grid")
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and owner_of(node.value, "grid")
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            args = node.args + [k.value for k in node.keywords]
            deflections = {owner_of(a, "u") for a in args} - {None}
            with_grid = {owner_of(a, "grid") for a in args}
            with_grid |= {grids.get(a.id) for a in args if isinstance(a, ast.Name)}
            if deflections & with_grid:
                lines.add(node.lineno)
    return sorted(lines)


def test_the_differencing_rule_sees_every_shape():
    source = """
def direct(s):
    return f(s.u, s.grid)

def by_keyword(pt):
    return f(pt.state.u, grid=pt.state.grid)

def by_local(s):
    grid = s.grid
    return f(s.u, grid)

def allowed(s, t):
    grid = t.grid
    return f(s.u, t.grid), f(s.u, grid), f(s.u, s.grid.h), f(s.slope, s.grid)
"""
    assert state_differencing_calls(ast.parse(source)) == [3, 6, 10]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_differences_a_state_itself(name):
    """No call passes a state's deflection beside its grid, the shape of a
    call that differences the state: ``MembraneState.slope`` and ``bend``
    are the package's only differences of a deflection, each taken once
    per state."""
    assert state_differencing_calls(parse(name)) == []


STENCILS = {"_d1", "_d2"}


def stencil_references(tree):
    """Lines that name the private stencils ``_d1`` or ``_d2``, as a name,
    an attribute or an imported name."""
    lines = []
    for node in ast.walk(tree):
        named = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
        if named & STENCILS:
            lines.append(node.lineno)
    return lines


def test_only_transform_references_the_stencils():
    """Only ``transform`` references its stencils ``_d1`` and ``_d2``: the
    other modules read a state's ``slope`` and ``bend``, and ``steady``
    applies G_u by the column fields that fold the differences in."""
    found = {name: stencil_references(parse(name)) for name in MODULES}
    assert found.pop("mems_fbp.transform")  # the rule sees its own module's calls
    assert {name: lines for name, lines in found.items() if lines} == {}


def is_interior_slice(node):
    """Whether ``node`` is the slice 1:-1, stepless."""
    if not (isinstance(node, ast.Slice) and node.step is None):
        return False
    lower, upper = node.lower, node.upper
    minus_one = (
        isinstance(upper, ast.UnaryOp)
        and isinstance(upper.op, ast.USub)
        and isinstance(upper.operand, ast.Constant)
        and upper.operand.value == 1
    ) or (isinstance(upper, ast.Constant) and upper.value == -1)
    return isinstance(lower, ast.Constant) and lower.value == 1 and minus_one


def interior_fills(tree):
    """Lines that assign into the interior slice ``[1:-1]`` of a 1-D
    vector, by ``=`` or an augmented assignment; the 2-D slice
    ``[1:-1, 1:-1]`` is not one."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Subscript) and is_interior_slice(sub.slice):
                    lines.append(node.lineno)
    return lines


def test_the_interior_rule_sees_every_shape():
    source = """
full[1:-1] = z
u[1:-1] += slope * t
a, b[1:-1] = 1, 2
w[1:-1, 1:-1] = 0.0
x = u[1:-1]
u[1:] = 0.0
v[1:-1:2] = 0.0
"""
    assert interior_fills(ast.parse(source)) == [2, 3, 4]


def test_only_transform_fills_an_interior():
    """No module but ``transform`` assigns into the interior ``[1:-1]`` of
    a node vector: a deflection is its interior values between two clamped
    zeros, and ``MembraneState.clamped`` is the one place that says so."""
    found = {name: interior_fills(parse(name)) for name in MODULES}
    assert found.pop("mems_fbp.transform")  # the rule sees the stencils' own fills
    assert {name: lines for name, lines in found.items() if lines} == {}


def callers(tree, callee):
    """Where ``tree`` calls ``callee``, by name or as an attribute: per
    call, the qualified name (``f`` or ``Class.f``) of the module-level
    function or method whose body, nested functions included, holds it,
    or ``<module>`` outside every function."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
                continue
            where = "<module>"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{prefix}{node.name}"
            for call in ast.walk(node):
                func = getattr(call, "func", None)
                if isinstance(call, ast.Call) and callee in (
                    getattr(func, "id", None), getattr(func, "attr", None)
                ):
                    found.append(where)

    visit(tree.body, "")
    return found


def test_the_caller_rule_sees_every_shape():
    source = """
def outer():
    def inner():
        return solve(r)
    return inner

class Lin:
    def step(self):
        return numerics.solve(r)

def passed_on():
    return solve

solve(r)
"""
    assert callers(ast.parse(source), "solve") == ["outer", "Lin.step", "<module>"]


def test_one_steady_solve_per_model():
    """Each model's whole steady solve is one function that hands
    ``damped_newton`` its residual, ``steady.solve_steady`` and
    ``small_aspect.steady0``, and the Newton step's GMRES solve is the one
    method ``Linearization.solve``."""
    found = {
        callee: {name: where for name in MODULES if (where := callers(parse(name), callee))}
        for callee in ("damped_newton", "gmres")
    }
    assert found == {
        "damped_newton": {
            "mems_fbp.small_aspect": ["steady0"], "mems_fbp.steady": ["solve_steady"]
        },
        "gmres": {"mems_fbp.steady": ["Linearization.solve"]},
    }
