"""Edge-stopping velocity, its gradient and the CFL time-step bounds."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelseg.preprocess import tissue_mask
from levelseg.speed import (
    DegenerateSpeedError,
    Model,
    SpeedField,
    build_speed,
    cfl_dt,
    gradient_centered,
)
from levelseg.volumes import BinaryMask, ScalarVolume

DX = 0.1


def _vol(arr):
    return ScalarVolume(np.asarray(arr, dtype=float))


def _all_tissue(dims):
    return BinaryMask(np.ones(dims, dtype=bool))


def _constant_field(g_value, dims=(5, 5, 5)):
    g = ScalarVolume(np.full(dims, g_value))
    zero = ScalarVolume(np.zeros(dims))
    return SpeedField(g, (zero, zero, zero), g_value, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------- gradient

def test_gradient_constant_is_zero():
    gx, gy, gz = gradient_centered(_vol(np.full((5, 5, 5), 3.0)), DX)
    assert np.all(gx.values == 0) and np.all(gy.values == 0) and np.all(gz.values == 0)


def test_gradient_ramp_oracle():
    ii = np.arange(6)[:, None, None] * np.ones((1, 6, 6))
    gx, gy, gz = gradient_centered(_vol(2.5 * ii), DX)
    assert np.allclose(gx.values, 2.5 / DX)  # slope c per voxel divided by dx
    assert np.allclose(gy.values, 0.0)
    assert np.allclose(gz.values, 0.0)


def test_gradient_plane_ratio():
    ii, jj, kk = np.meshgrid(np.arange(7), np.arange(7), np.arange(7), indexing="ij")
    gx, gy, gz = gradient_centered(_vol(ii + 2 * jj + 3 * kk), DX)
    interior = (slice(1, -1),) * 3
    assert np.allclose(gy.values[interior] / gx.values[interior], 2.0)
    assert np.allclose(gz.values[interior] / gx.values[interior], 3.0)


# ------------------------------------------------------------- build_speed

def test_speed_flat_region_is_one():
    sp = build_speed(_vol(np.full((5, 5, 5), 0.3)), _all_tissue((5, 5, 5)), 2, DX)
    assert np.all(sp.g.values == 1.0)
    assert sp.sup_g == 1.0


def test_speed_unit_gradient_is_half():
    # |grad I| = 1 with p = 2 -> g = 0.5 at interior voxels
    ii = np.arange(9)[:, None, None] * np.ones((1, 9, 9))
    sp = build_speed(_vol(DX * ii), _all_tissue((9, 9, 9)), 2, DX)
    assert np.allclose(sp.g.values[1:-1], 0.5)


def test_speed_slope_three_is_tenth():
    ii = np.arange(9)[:, None, None] * np.ones((1, 9, 9))
    sp = build_speed(_vol(3.0 * DX * ii), _all_tissue((9, 9, 9)), 2, DX)
    assert np.allclose(sp.g.values[1:-1], 0.1)


def test_speed_zeroed_outside_tissue():
    dims = (5, 5, 5)
    tissue = np.zeros(dims, dtype=bool)
    tissue[2, 2, 2] = True
    sp = build_speed(_vol(np.full(dims, 1.0)), BinaryMask(tissue), 2, DX)
    assert sp.g.values[2, 2, 2] == 1.0
    assert np.sum(sp.g.values) == 1.0


def test_speed_p_validation():
    with pytest.raises(ValueError):
        build_speed(_vol(np.zeros((5, 5, 5))), _all_tissue((5, 5, 5)), 0, DX)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), scale=st.floats(0.1, 100.0), p=st.integers(1, 4))
def test_speed_bounds_under_intensity_scaling(seed, scale, p):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0, 1, size=(6, 6, 6))
    sp = build_speed(_vol(scale * vals), _all_tissue((6, 6, 6)), p, DX)
    assert np.all(sp.g.values > 0.0)
    assert np.all(sp.g.values <= 1.0)


def test_cached_sup_norms():
    rng = np.random.default_rng(5)
    sp = build_speed(_vol(rng.uniform(0, 1, size=(7, 7, 7))), _all_tissue((7, 7, 7)), 2, DX)
    assert sp.sup_g == np.abs(sp.g.values).max()
    assert sp.sup_gx == np.abs(sp.grad_g[0].values).max()
    assert sp.sup_gy == np.abs(sp.grad_g[1].values).max()
    assert sp.sup_gz == np.abs(sp.grad_g[2].values).max()


# ------------------------------------------------------------------ cfl_dt

def test_cfl_geodesic1_constant_speed():
    # g = 1, zero gradients -> lambda = 1/3, dt = dx/3 = 1/30
    sp = _constant_field(1.0)
    assert cfl_dt(sp, Model.GEODESIC1, dx=0.1) == pytest.approx(1.0 / 30.0)


def test_cfl_parabolic():
    sp = _constant_field(1.0)
    assert cfl_dt(sp, Model.GEODESIC2, dx=0.1) == pytest.approx(0.0025, rel=1e-15)


def test_cfl_classical_half_speed():
    sp = _constant_field(0.5)
    assert cfl_dt(sp, Model.CLASSICAL, dx=0.1) == pytest.approx(0.1 / 1.5)


def test_cfl_degenerate():
    sp = _constant_field(0.0)
    with pytest.raises(DegenerateSpeedError, match="degenerate speed field"):
        cfl_dt(sp, Model.GEODESIC1)
    with pytest.raises(DegenerateSpeedError):
        cfl_dt(sp, Model.CLASSICAL)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), mu=st.floats(0.1, 1.0), eta=st.floats(0.1, 1.0))
def test_cfl_standard_bound_at_unit_weights(seed, mu, eta):
    # for mu <= 1 and eta <= 1 the unweighted bound is the smaller, so the
    # step is bitwise the unweighted one
    rng = np.random.default_rng(seed)
    sp = build_speed(_vol(rng.uniform(0, 5, size=(6, 6, 6))), _all_tissue((6, 6, 6)), 2, DX)
    standard = (1.0 / (3.0 * sp.sup_g + (sp.sup_gx + sp.sup_gy + sp.sup_gz))) * DX
    assert cfl_dt(sp, Model.GEODESIC1, mu=mu, eta=eta, dx=DX) == standard


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31),
       model=st.sampled_from([Model.CLASSICAL, Model.GEODESIC1]),
       mu=st.floats(0.1, 10.0), eta=st.floats(0.1, 10.0))
def test_cfl_monotone_bound(seed, model, mu, eta):
    # (dt/dx) * (alpha_x + alpha_y + alpha_z) <= 1 at every voxel, with the
    # LLF dissipation coefficients: g per axis for the classical model,
    # mu*g + eta*|d g/d axis| for the geodesic one
    rng = np.random.default_rng(seed)
    sp = build_speed(_vol(rng.uniform(0, 5, size=(6, 6, 6))), _all_tissue((6, 6, 6)), 2, DX)
    dt = cfl_dt(sp, model, mu=mu, eta=eta, dx=DX)
    g = sp.g.values
    if model is Model.CLASSICAL:
        alpha_sum = 3.0 * g
    else:
        alpha_sum = 3.0 * mu * g + eta * sum(np.abs(c.values) for c in sp.grad_g)
    assert (dt / DX) * alpha_sum.max() <= 1.0 + 1e-12
