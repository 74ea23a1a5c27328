"""In-memory span recorder and the table of wrapped program functions.

Spans are opened around calls into the program's public functions by
replacing each function in the namespace of the module that calls it,
so the program itself carries no tracing code.  A span's layer is the
part of its name before the first dot.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module whose namespace is patched, attribute, span name).  A function
# is listed once per calling module, because `from x import f` copies the
# name; both entries share one span name so their calls add up.
WRAPPED = (
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run_experiment", "cli.run_experiment"),
    ("evolution", "run", "evolution.run"),
    ("evolution", "step", "evolution.step"),
    ("evolution", "imex_step", "evolution.imex_step"),
    ("evolution", "g_eps", "elliptic.g_eps"),
    ("evolution", "solve_tridiagonal", "numerics.solve_tridiagonal"),
    ("steady", "continue_branch", "steady.continue_branch"),
    ("steady", "steady_residual", "steady.steady_residual"),
    ("steady", "solve_potential", "elliptic.solve_potential"),
    ("steady", "trace_top", "elliptic.trace_top"),
    ("small_aspect", "pullin0_detail", "small_aspect.pullin0_detail"),
    ("small_aspect", "steady0", "small_aspect.steady0"),
    ("small_aspect", "shooting_pullin", "small_aspect.shooting_pullin"),
    ("small_aspect", "solve_tridiagonal", "numerics.solve_tridiagonal"),
    ("elliptic", "solve_potential", "elliptic.solve_potential"),
    ("elliptic", "trace_top", "elliptic.trace_top"),
    ("elliptic", "assemble_coefficients", "transform.assemble_coefficients"),
    ("elliptic", "assemble_system", "elliptic.assemble_system"),
    ("elliptic", "solve_sparse", "numerics.solve_sparse"),
    ("numerics", "splu", "numerics.lu_factor"),
)

LU_FACTOR = "numerics.lu_factor"
LU_SOLVE = "numerics.lu_solve"
RESIDUAL = "steady.steady_residual"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """Collects nested spans of one thread, plus what the spans alone
    cannot tell: failures per span name, the largest LU factor, and the
    (task, eps, lambda) of every steady residual evaluation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.failures: Counter = Counter()
        self.lu_nnz_max = 0
        self.residual_points: list[tuple[int, float, float]] = []
        self.task = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.task))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def busy(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus the union of
        its children's intervals clipped to it."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for idx, s in enumerate(self.spans):
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(idx, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.layer] = out.get(s.layer, 0.0) + (s.end - s.start) - covered
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class _TracedLU:
    """Stands in for a SuperLU factor so that its solves become spans."""

    def __init__(self, lu, rec: SpanRecorder):
        self._lu = lu
        self._rec = rec

    def solve(self, *args, **kwargs):
        with self._rec.span(LU_SOLVE):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _wrap(fn, name: str, rec: SpanRecorder):
    if name == LU_FACTOR:

        @functools.wraps(fn)
        def factor(*args, **kwargs):
            with rec.span(name):
                lu = fn(*args, **kwargs)
            rec.lu_nnz_max = max(rec.lu_nnz_max, lu.L.nnz + lu.U.nnz)
            return _TracedLU(lu, rec)

        return factor

    signature = inspect.signature(fn) if name == RESIDUAL else None

    @functools.wraps(fn)
    def traced_fn(*args, **kwargs):
        if signature is not None:
            bound = signature.bind(*args, **kwargs).arguments
            rec.residual_points.append((rec.task, float(bound["eps"]), float(bound["lam"])))
        with rec.span(name):
            try:
                return fn(*args, **kwargs)
            except Exception:
                rec.failures[name] += 1
                raise

    return traced_fn


@contextmanager
def traced(rec: SpanRecorder):
    """Patch every entry of WRAPPED for the duration of the block.

    Fails before patching anything if a listed name is missing, so that a
    rename in the program cannot silently drop a layer to zero.
    """
    targets = []
    for module_name, attr, span_name in WRAPPED:
        module = importlib.import_module(f"mems_fbp.{module_name}")
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise LookupError(
                f"traced function mems_fbp.{module_name}.{attr} no longer exists; "
                "update WRAPPED in bench/tracing.py"
            )
        targets.append((module, attr, fn, span_name))
    try:
        for module, attr, fn, span_name in targets:
            setattr(module, attr, _wrap(fn, span_name, rec))
        yield rec
    finally:
        for module, attr, fn, _ in targets:
            setattr(module, attr, fn)
