import numpy as np
import pytest
from hypothesis import settings

from mems_fbp.numerics import Grid1D, Grid2D
from mems_fbp.transform import MembraneState

# Every run draws the same examples, from a seed fixed by each test's source,
# so a property test that fails once fails on every run, here and elsewhere.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


@pytest.fixture
def grid32():
    return Grid1D.uniform(32)


@pytest.fixture
def grid2d_32(grid32):
    return Grid2D.uniform(32, 32)


@pytest.fixture
def parabola32(grid32):
    x = grid32.nodes
    return MembraneState(grid32, -0.25 * (1.0 - x * x))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
