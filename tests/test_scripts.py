"""Smoke tests of the scripts under `scripts/`, which drive the library by
hand and so break silently when its API changes."""
import importlib.util
from pathlib import Path

import pytest

from levelseg.phantom import SUITE_PARAMS, generate_phantom, suite_spec, tube_seed
from levelseg.preprocess import preprocess_pipeline
from levelseg.solver import SolverConfig
from levelseg.speed import Model, build_speed, cfl_dt

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def cost_gap():
    spec = importlib.util.spec_from_file_location("cost_gap", SCRIPTS / "cost_gap.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("model", list(Model))
def test_cost_gap_profile_runs_on_easy(cost_gap, model):
    spec = suite_spec("easy")
    raw, truth, _ = generate_phantom(spec)
    image, tissue = preprocess_pipeline(raw, SUITE_PARAMS["easy"]["sigma"])
    cfg = SolverConfig(model=model, n_max=20)
    act = build_speed(image, tissue, cfg)
    dt, curve, crossing, wall = cost_gap.profile(cfg, raw, act, tube_seed(spec, "left"), truth)
    assert dt == cfl_dt(act, cfg)
    assert [n for n, _ in curve] == [10, 20]
    assert all(0.0 < d <= 1.0 for _, d in curve)
    assert crossing is None or crossing[0] in (10, 20)
    assert wall > 0.0
