"""Every solver failure is a ``SolverError``; a bad config is not one."""

import inspect

import pytest

from mems_fbp import errors
from mems_fbp.errors import (
    ConfigError,
    DegenerateGeometryError,
    GridTooCoarseError,
    NoSteadyStateError,
    NonConvergenceError,
    SingularSystemError,
    SolverError,
)

# Each solver failure and the builtin base it keeps.
BUILTIN_BASES = {
    SingularSystemError: ValueError,
    NonConvergenceError: RuntimeError,
    NoSteadyStateError: RuntimeError,
    DegenerateGeometryError: ValueError,
    GridTooCoarseError: ValueError,
}


def test_every_class_but_config_error_is_a_solver_error():
    defined = {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__
    }
    assert defined - {SolverError, ConfigError} == set(BUILTIN_BASES)
    assert not issubclass(ConfigError, SolverError)


@pytest.mark.parametrize("cls, base", BUILTIN_BASES.items())
def test_solver_error_keeps_its_builtin_base(cls, base):
    error = cls("boom")
    assert isinstance(error, SolverError) and isinstance(error, base)
    assert error.residual is None and str(error) == "boom"
    assert cls("boom", residual=0.5).residual == 0.5
