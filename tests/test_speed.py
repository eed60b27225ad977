"""Edge-stopping velocity, its gradient and the CFL time-step bounds."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelseg.preprocess import tissue_mask
from levelseg.solver import SolverConfig
from levelseg.speed import (
    DegenerateSpeedError,
    Model,
    SpeedField,
    build_speed,
    cfl_dt,
)
from levelseg.volumes import BinaryMask, ScalarVolume

DX = 0.1
CFG = SolverConfig(p=2, dx=DX)


def _vol(arr):
    return ScalarVolume(np.asarray(arr, dtype=float))


def _all_tissue(dims):
    return BinaryMask(np.ones(dims, dtype=bool))


def _constant_field(g_value, dims=(5, 5, 5)):
    zero = np.zeros(dims)
    return SpeedField(np.full(dims, g_value), (zero, zero, zero))


# ------------------------------------------------------------- build_speed

def test_speed_flat_region_is_one():
    sp = build_speed(_vol(np.full((5, 5, 5), 0.3)), _all_tissue((5, 5, 5)), CFG)
    assert np.all(sp.g == 1.0)


def test_speed_unit_gradient_is_half():
    # |grad I| = 1 with p = 2 -> g = 0.5 at interior voxels
    ii = np.arange(9)[:, None, None] * np.ones((1, 9, 9))
    sp = build_speed(_vol(DX * ii), _all_tissue((9, 9, 9)), CFG)
    assert np.allclose(sp.g[1:-1], 0.5)


def test_speed_slope_three_is_tenth():
    ii = np.arange(9)[:, None, None] * np.ones((1, 9, 9))
    sp = build_speed(_vol(3.0 * DX * ii), _all_tissue((9, 9, 9)), CFG)
    assert np.allclose(sp.g[1:-1], 0.1)


def test_speed_zeroed_outside_tissue():
    dims = (5, 5, 5)
    tissue = np.zeros(dims, dtype=bool)
    tissue[2, 2, 2] = True
    sp = build_speed(_vol(np.full(dims, 1.0)), BinaryMask(tissue), CFG)
    assert sp.g[2, 2, 2] == 1.0
    assert np.sum(sp.g) == 1.0


def test_speed_p_validation():
    # the exponent is checked where it is configured
    with pytest.raises(ValueError, match="p must be >= 1"):
        SolverConfig(p=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), scale=st.floats(0.1, 100.0), p=st.integers(1, 4))
def test_speed_bounds_under_intensity_scaling(seed, scale, p):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0, 1, size=(6, 6, 6))
    sp = build_speed(_vol(scale * vals), _all_tissue((6, 6, 6)),
                     SolverConfig(p=p, dx=DX))
    assert np.all(sp.g > 0.0)
    assert np.all(sp.g <= 1.0)


def test_grad_g_is_np_gradient_of_g():
    rng = np.random.default_rng(5)
    dims = (7, 8, 9)
    tissue = BinaryMask(rng.random(dims) < 0.8)
    sp = build_speed(_vol(rng.uniform(0, 1, size=dims)), tissue, CFG)
    assert len(sp.grad_g) == 3
    for got, want in zip(sp.grad_g, np.gradient(sp.g, DX)):
        assert np.array_equal(got, want)


# ------------------------------------------------------------------ cfl_dt

def test_cfl_geodesic1_constant_speed():
    # g = 1, zero gradients -> lambda = 1/3, dt = dx/3 = 1/30
    sp = _constant_field(1.0)
    assert cfl_dt(sp, SolverConfig(model=Model.GEODESIC1, dx=0.1)) == pytest.approx(1.0 / 30.0)


def test_cfl_parabolic():
    sp = _constant_field(1.0)
    assert cfl_dt(sp, SolverConfig(model=Model.GEODESIC2, dx=0.1)) == pytest.approx(
        0.0025, rel=1e-15)


def test_cfl_classical_half_speed():
    sp = _constant_field(0.5)
    assert cfl_dt(sp, SolverConfig(model=Model.CLASSICAL, dx=0.1)) == pytest.approx(0.1 / 1.5)


def test_cfl_degenerate():
    sp = _constant_field(0.0)
    with pytest.raises(DegenerateSpeedError, match="degenerate speed field"):
        cfl_dt(sp, SolverConfig(model=Model.GEODESIC1))
    with pytest.raises(DegenerateSpeedError):
        cfl_dt(sp, SolverConfig(model=Model.CLASSICAL))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), mu=st.floats(0.1, 1.0), eta=st.floats(0.1, 1.0))
def test_cfl_standard_bound_at_unit_weights(seed, mu, eta):
    # for mu <= 1 and eta <= 1 the unweighted bound is the smaller, so the
    # step is bitwise the unweighted one
    rng = np.random.default_rng(seed)
    sp = build_speed(_vol(rng.uniform(0, 5, size=(6, 6, 6))), _all_tissue((6, 6, 6)), CFG)
    sup_g = np.abs(sp.g).max()
    sup_gx, sup_gy, sup_gz = (np.abs(c).max() for c in sp.grad_g)
    standard = (1.0 / (3.0 * sup_g + (sup_gx + sup_gy + sup_gz))) * DX
    assert cfl_dt(sp, SolverConfig(model=Model.GEODESIC1, mu=mu, eta=eta, dx=DX)) == standard


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), model=st.sampled_from(list(Model)),
       density=st.floats(0.05, 1.0), mu=st.floats(0.1, 10.0), eta=st.floats(0.1, 10.0))
def test_cfl_equals_bound_over_sup_norms(seed, model, density, mu, eta):
    # the sup-norms of g and of each gradient component, taken from the
    # arrays and summed x, then y, then z
    rng = np.random.default_rng(seed)
    tissue = rng.random((6, 7, 5)) < density
    tissue[3, 3, 2] = True
    sp = build_speed(_vol(rng.uniform(0, 5, size=(6, 7, 5))), BinaryMask(tissue), CFG)
    sup_g = float(np.abs(sp.g).max())
    sup_gx, sup_gy, sup_gz = (float(np.abs(c).max()) for c in sp.grad_g)
    if model is Model.CLASSICAL:
        want = DX / (3.0 * sup_g)
    elif model is Model.GEODESIC1:
        grad_sum = sup_gx + sup_gy + sup_gz
        want = 1.0 / max(3.0 * sup_g + grad_sum, 3.0 * mu * sup_g + eta * grad_sum) * DX
    else:
        want = 0.25 * DX * DX
    assert cfl_dt(sp, SolverConfig(model=model, mu=mu, eta=eta, dx=DX)) == want


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31),
       model=st.sampled_from([Model.CLASSICAL, Model.GEODESIC1]),
       mu=st.floats(0.1, 10.0), eta=st.floats(0.1, 10.0))
def test_cfl_monotone_bound(seed, model, mu, eta):
    # (dt/dx) * (alpha_x + alpha_y + alpha_z) <= 1 at every voxel, with the
    # LLF dissipation coefficients: g per axis for the classical model,
    # mu*g + eta*|d g/d axis| for the geodesic one
    rng = np.random.default_rng(seed)
    sp = build_speed(_vol(rng.uniform(0, 5, size=(6, 6, 6))), _all_tissue((6, 6, 6)), CFG)
    dt = cfl_dt(sp, SolverConfig(model=model, mu=mu, eta=eta, dx=DX))
    g = sp.g
    if model is Model.CLASSICAL:
        alpha_sum = 3.0 * g
    else:
        alpha_sum = 3.0 * mu * g + eta * sum(np.abs(c) for c in sp.grad_g)
    assert (dt / DX) * alpha_sum.max() <= 1.0 + 1e-12
