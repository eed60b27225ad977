"""Shared test plumbing: the acceptance suite records one verdict line per
criterion and this hook prints them after the run, outside capture; the
curvature tests take `curvature_3d` on a whole grid; the tree-count tests
count cKDTree builds; the suite-level tests read the 18 suite runs, made
once per session."""
import importlib
import time
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from scipy.spatial import cKDTree

from levelseg.active import ActiveSet
from levelseg.phantom import default_suite, generate_phantom, suite_config, tube_seed
from levelseg.postprocess import postprocess
from levelseg.solver import EvolutionResult, curvature_3d, evolve
from levelseg.speed import Model
from levelseg.volumes import BinaryMask, VoxelIndex

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


@pytest.fixture
def tree_count(monkeypatch):
    """The sizes of the trees that cleanup and scoring build."""
    built = []

    def counting_tree(pts):
        built.append(len(pts))
        return cKDTree(pts)

    for name in ("levelseg.metrics", "levelseg.postprocess"):
        monkeypatch.setattr(importlib.import_module(name), "cKDTree", counting_tree)
    return built


class SuiteRun(NamedTuple):
    """One side of a suite run: the `evolve` result, its mask after
    `postprocess`, and the side's truth tube and seed."""
    result: EvolutionResult
    cleaned: BinaryMask
    truth: BinaryMask
    seed: VoxelIndex


def run_suite():
    """The 18 suite runs as `runs`, keyed (phantom, model, side), and the
    `seconds` taken to make them: every model on every suite phantom under
    `suite_config`, one `evolve` call on both tube seeds, then
    `postprocess` per side."""
    start = time.perf_counter()
    runs = {}
    for spec in default_suite():
        raw, *truths = generate_phantom(spec)
        seeds = [tube_seed(spec, side) for side in ("left", "right")]
        for model in Model:
            results = evolve(raw, suite_config(spec.name, model), seeds)
            for side, seed, truth, result in zip(("left", "right"), seeds, truths, results):
                runs[spec.name, model, side] = SuiteRun(
                    result, postprocess(result.mask, seed), truth, seed)
    return SimpleNamespace(runs=runs, seconds=time.perf_counter() - start)


@pytest.fixture(scope="session")
def suite_runs():
    return run_suite()


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
