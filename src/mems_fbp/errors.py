"""Exception types shared by the solver modules.

Every failure of a solve is a ``SolverError``: a singular system, an
iteration that misses its tolerance (and so a steady state that Newton
cannot find) and a membrane at the ground plate.  In this laboratory
such a failure is often the finding itself, touchdown or no steady state
past the fold, so the command-line driver reports each one under its
class name with exit status 3.  Each also derives from ``ValueError`` or
``RuntimeError``, so a caller that catches the builtin still catches it.

``ConfigError`` is not a solver failure: it rejects an experiment's input
before any solve starts, and the driver reports it with exit status 2.

``context`` names where a failure happened: a solve that catches one from
a step it delegated re-raises it with its own label before the message.
"""

from __future__ import annotations

from contextlib import contextmanager


class SolverError(Exception):
    """A solve failed.

    Carries the last residual norm in ``residual``, None where no
    residual is known.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SingularSystemError(SolverError, ValueError):
    """A linear system is (numerically) singular."""


class NonConvergenceError(SolverError, RuntimeError):
    """An iterative procedure stopped without meeting its tolerance."""


class DegenerateGeometryError(SolverError, ValueError):
    """The membrane touches (or crosses) the ground plate, so the
    mapped elliptic problem degenerates."""


class NoSteadyStateError(NonConvergenceError):
    """Newton iteration for a steady state failed to converge."""


class ConfigError(ValueError):
    """An experiment configuration file is malformed or invalid."""


@contextmanager
def context(prefix: str, errors=SolverError):
    """Re-raise an ``errors`` exception of the block as the same object, its
    message now ``prefix: `` and the old message; its type and ``residual``
    are kept.  Any other exception passes through untouched."""
    try:
        yield
    except errors as exc:
        exc.args = (f"{prefix}: {exc}",)
        raise
