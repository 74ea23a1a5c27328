"""Every solver failure is a ``SolverError``; a bad config is not one."""

import inspect

import pytest

from mems_fbp import errors
from mems_fbp.errors import (
    ConfigError,
    DegenerateGeometryError,
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


class TestContext:
    """``errors.context`` re-raises a failure with where it happened."""

    @staticmethod
    def raised(error, *args):
        with pytest.raises(type(error)) as info:
            with errors.context(*args):
                raise error
        return info.value

    def test_same_object_and_type_come_back(self):
        error = NoSteadyStateError("stalled")
        assert self.raised(error, "Newton at lambda=0.5") is error
        assert type(error) is NoSteadyStateError

    def test_residual_is_kept(self):
        error = DegenerateGeometryError("touchdown", residual=0.25)
        assert self.raised(error, "step 3 from t=0.002").residual == 0.25

    def test_prefix_format(self):
        error = self.raised(SolverError("stalled (residual 1.000e-01)"), "Newton at lambda=0.5")
        assert error.args == ("Newton at lambda=0.5: stalled (residual 1.000e-01)",)

    @pytest.mark.parametrize(
        "error", [ValueError("not a solver error"), DegenerateGeometryError("not listed")]
    )
    def test_other_exceptions_pass_through_unchanged(self, error):
        assert self.raised(error, "label", NoSteadyStateError).args == (error.args[0],)

    def test_a_block_that_raises_nothing_is_unaffected(self):
        with errors.context("label"):
            value = 1
        assert value == 1
