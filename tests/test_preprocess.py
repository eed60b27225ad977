"""Clipping, slice equalization, Gaussian smoothing and the tissue mask."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelseg.preprocess import (
    CLIP_THRESHOLD,
    EQUALIZATION_BINS,
    TISSUE_INTERVAL,
    clip_hu,
    equalize_slices,
    gaussian_smooth,
    preprocess_pipeline,
    tissue_mask,
)
from levelseg.solver import SolverConfig
from levelseg.volumes import ScalarVolume


def _vol(arr):
    return ScalarVolume(np.asarray(arr, dtype=float))


def _random_vol(seed, dims=(8, 8, 4), lo=-200.0, hi=500.0):
    rng = np.random.default_rng(seed)
    return _vol(rng.uniform(lo, hi, size=dims))


# ---------------------------------------------------------------- clipping

def test_clip_examples():
    vals = np.zeros((3, 3, 3))
    vals[0, 0, 0] = 130.0
    vals[1, 1, 1] = 100.0
    vals[2, 2, 2] = -50.0
    out = clip_hu(_vol(vals))
    assert out.values[0, 0, 0] == 0.0    # above threshold -> zeroed
    assert out.values[1, 1, 1] == 100.0  # below -> untouched
    assert out.values[2, 2, 2] == -50.0  # negative -> untouched


def test_clip_threshold_not_strict_below():
    vals = np.full((3, 3, 3), 120.0)
    out = clip_hu(_vol(vals))
    assert np.all(out.values == 120.0)  # strictly-above rule


def test_clip_does_not_mutate_input():
    vol = _vol(np.full((3, 3, 3), 200.0))
    clip_hu(vol)
    assert np.all(vol.values == 200.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_clip_idempotent(seed):
    vol = _random_vol(seed)
    once = clip_hu(vol)
    twice = clip_hu(once)
    assert np.array_equal(once.values, twice.values)
    assert np.all(once.values <= CLIP_THRESHOLD)


# ------------------------------------------------------------ equalization

def test_equalize_two_level_slice():
    # 50% value a, 50% value b>a -> CDF outputs {0.5, 1.0}
    vals = np.zeros((4, 4, 3))
    vals[:2, :, :] = 10.0
    vals[2:, :, :] = 90.0
    out = equalize_slices(_vol(vals))
    assert set(np.unique(out.values)) == {0.5, 1.0}
    assert np.all(out.values[:2] == 0.5)
    assert np.all(out.values[2:] == 1.0)


def test_equalize_constant_slice_is_zero():
    out = equalize_slices(_vol(np.full((4, 4, 3), 42.0)))
    assert np.all(out.values == 0.0)


def test_equalize_slices_independent():
    rng = np.random.default_rng(1)
    vals = rng.uniform(0, 100, size=(6, 6, 5))
    whole = equalize_slices(_vol(vals))
    # permuting the other slices must not change slice 2
    perm = vals[:, :, [4, 3, 2, 1, 0]]
    permuted = equalize_slices(_vol(perm))
    assert np.array_equal(whole.values[:, :, 2], permuted.values[:, :, 2])


def test_equalize_three_level_cdf_oracle():
    # 25% / 25% / 50% mass -> CDF values 0.25, 0.5, 1.0
    vals = np.zeros((4, 4, 3))
    vals[0, :, :] = 0.0
    vals[1, :, :] = 40.0
    vals[2:, :, :] = 80.0
    out = equalize_slices(_vol(vals))
    assert np.allclose(np.unique(out.values), [0.25, 0.5, 1.0])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_equalize_range_and_monotone(seed):
    vol = _random_vol(seed, dims=(7, 7, 3))
    out = equalize_slices(vol)
    assert np.all(out.values >= 0.0) and np.all(out.values <= 1.0)
    # equalization is monotone within each slice
    for k in range(3):
        a = vol.values[:, :, k].ravel()
        b = out.values[:, :, k].ravel()
        order = np.argsort(a, kind="stable")
        assert np.all(np.diff(b[order]) >= -1e-15)


# --------------------------------------------------------------- smoothing

def test_gaussian_sigma_zero_identity():
    vol = _random_vol(7)
    out = gaussian_smooth(vol, 0.0)
    assert np.array_equal(out.values, vol.values)
    assert out.values is not vol.values


def test_gaussian_impulse_peak():
    # response to a unit impulse equals the product of the two 1D kernel
    # peaks; the kernel is truncated at ceil(3 sigma) and renormalized
    sigma = 1.0
    vals = np.zeros((15, 15, 3))
    vals[7, 7, 1] = 1.0
    out = gaussian_smooth(_vol(vals), sigma)
    radius = math.ceil(3 * sigma)
    x = np.arange(-radius, radius + 1)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    k /= k.sum()
    assert out.values[7, 7, 1] == pytest.approx(k[radius] ** 2, rel=1e-12)
    # smoothing is in-plane only: other slices untouched
    assert np.all(out.values[:, :, 0] == 0.0)
    assert np.all(out.values[:, :, 2] == 0.0)


def test_gaussian_constant_unchanged():
    out = gaussian_smooth(_vol(np.full((8, 8, 3), 5.5)), 2.0)
    assert np.allclose(out.values, 5.5, atol=1e-12)


def test_gaussian_negative_sigma_rejected():
    with pytest.raises(ValueError):
        gaussian_smooth(_random_vol(0), -1.0)


def test_gaussian_kernel_beyond_the_slice_rejected():
    # 3*sigma may reach the larger in-plane dimension, 9, and no further;
    # the check comes before the kernel, whose radius ceil(3e308) overflows
    vol = _vol(np.ones((9, 6, 3)))
    assert np.allclose(gaussian_smooth(vol, 3.0).values, 1.0)
    for sigma in (3.0 + 1e-9, 1e308):
        with pytest.raises(ValueError, match="sigma must be <= 3: 3[*]sigma exceeds the 9x6 slice"):
            gaussian_smooth(vol, sigma)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), sigma=st.floats(0.3, 3.0))
def test_gaussian_mean_preserved_interior(seed, sigma):
    # with a normalized kernel a periodic-free check needs an interior
    # window away from the replicated border
    rng = np.random.default_rng(seed)
    vals = np.zeros((40, 40, 3))
    r = math.ceil(3 * sigma)
    vals[15:25, 15:25, :] = rng.uniform(0, 1, size=(10, 10, 3))
    out = gaussian_smooth(_vol(vals), sigma)
    lo, hi = 15 - r, 25 + r
    assert 0 < lo and hi < 40
    assert out.values.sum() == pytest.approx(vals.sum(), abs=1e-9)


# ------------------------------------------------------------- tissue mask

def test_tissue_mask_examples():
    vals = np.zeros((3, 3, 3))
    vals[0, 0, 0] = 50.0    # inside [5, 120]
    vals[1, 1, 1] = 4.0     # below
    vals[2, 2, 2] = 121.0   # above
    mask = tissue_mask(_vol(vals))
    assert bool(mask.values[0, 0, 0]) is True
    assert bool(mask.values[1, 1, 1]) is False
    assert bool(mask.values[2, 2, 2]) is False


def test_tissue_mask_inclusive_bounds():
    vals = np.zeros((3, 3, 3))
    vals[0, 0, 0] = 5.0
    vals[1, 1, 1] = 120.0
    mask = tissue_mask(_vol(vals))
    assert mask.values[0, 0, 0] and mask.values[1, 1, 1]


def test_tissue_mask_counting_oracle():
    rng = np.random.default_rng(11)
    vals = rng.uniform(-100, 200, size=(9, 9, 4))
    mask = tissue_mask(_vol(vals))
    expected = int(np.sum((vals >= 5.0) & (vals <= 120.0)))
    assert mask.count() == expected


# ---------------------------------------------------------------- pipeline

def test_pipeline_composition():
    # the clip threshold, the bin count and the tissue window are the
    # paper's constants
    assert (CLIP_THRESHOLD, EQUALIZATION_BINS, TISSUE_INTERVAL) == (120.0, 256, (5.0, 120.0))
    vol = _random_vol(23)
    image, tissue = preprocess_pipeline(vol, 1.0)
    by_hand = gaussian_smooth(equalize_slices(clip_hu(vol)), 1.0)
    assert np.array_equal(image.values, by_hand.values)
    assert np.array_equal(tissue.values, tissue_mask(vol).values)


def test_config_validation():
    # sigma is the one preprocessing setting a run chooses; it is checked
    # both where it is configured and where the pipeline consumes it
    with pytest.raises(ValueError, match="sigma must be >= 0"):
        SolverConfig(sigma=-0.5)
    with pytest.raises(ValueError, match="sigma must be >= 0"):
        preprocess_pipeline(_random_vol(5), sigma=-0.5)
    assert SolverConfig(sigma=0.0).sigma == 0.0

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31),
       sigma=st.one_of(st.just(0.0), st.floats(0.3, 2.0)))
def test_tissue_mask_invariant_under_smoothing_params(seed, sigma):
    # the mask is built from the raw HU, so sigma must not affect it
    vol = _random_vol(seed)
    _, mask_a = preprocess_pipeline(vol, sigma)
    _, mask_b = preprocess_pipeline(vol, 0.0)
    assert np.array_equal(mask_a.values, mask_b.values)
