"""Shared test plumbing: the acceptance suite records one verdict line per
criterion and this hook prints them after the run, outside capture; the
curvature tests take `curvature_3d` on a whole grid."""
import numpy as np
import pytest

from levelseg.active import ActiveSet
from levelseg.solver import curvature_3d

ACCEPTANCE_LINES = []


@pytest.fixture
def record_criterion():
    return ACCEPTANCE_LINES.append


@pytest.fixture(scope="session")
def grid_curvature():
    """`curvature_3d` at every voxel of a 3-D array `v`, gathered as `step`
    gathers it: through the `stencil` of an active set of the whole grid,
    whose coordinates are clamped to the grid as by edge padding."""
    def curvature(v, dx):
        whole = ActiveSet(v.shape, np.arange(v.size), None, None)
        return curvature_3d(v.take(whole.stencil), dx).reshape(v.shape)
    return curvature


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
