"""Slice-wise CT conditioning: intensity clipping, histogram equalization,
Gaussian smoothing and the soft-tissue mask."""
from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import correlate1d

from .volumes import BinaryMask, ScalarVolume


# the soft-tissue window of the raw HU values, inclusive
TISSUE_INTERVAL = (5.0, 120.0)


def clip_hu(vol: ScalarVolume, threshold: float = 120.0) -> ScalarVolume:
    """Set every value strictly above `threshold` to 0 (bone suppression)."""
    out = vol.values.copy()
    out[out > threshold] = 0.0
    return ScalarVolume(out, vol.spacing)


def _equalize_slice(sl, bins):
    lo = sl.min()
    hi = sl.max()
    if hi <= lo:
        return np.zeros_like(sl)
    idx = ((sl - lo) / (hi - lo) * bins).astype(np.int64)
    np.minimum(idx, bins - 1, out=idx)
    counts = np.bincount(idx.ravel(), minlength=bins)
    cdf = np.cumsum(counts) / sl.size
    return cdf[idx]


def equalize_slices(vol: ScalarVolume, bins: int = 256) -> ScalarVolume:
    """Histogram-equalize each z-slice independently.

    Each slice is mapped through its own empirical CDF over `bins`
    equal-width bins spanning that slice's [min, max]; output lies in
    [0, 1] and a constant slice maps to all zeros.
    """
    out = np.empty_like(vol.values)
    for k in range(vol.dims[2]):
        out[:, :, k] = _equalize_slice(vol.values[:, :, k], bins)
    return ScalarVolume(out, vol.spacing)


def _gauss_kernel(sigma):
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_smooth(vol: ScalarVolume, sigma: float) -> ScalarVolume:
    """2D Gaussian smoothing of each z-slice.

    Kernel truncated at radius ceil(3*sigma) and renormalized to sum 1;
    borders handled by edge replication. sigma = 0 is the identity.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0:
        return ScalarVolume(vol.values.copy(), vol.spacing)
    kernel = _gauss_kernel(sigma)
    out = correlate1d(vol.values, kernel, axis=0, mode="nearest")
    out = correlate1d(out, kernel, axis=1, mode="nearest")
    return ScalarVolume(out, vol.spacing)


def tissue_mask(raw_vol: ScalarVolume, interval=TISSUE_INTERVAL) -> BinaryMask:
    """Mask of voxels whose raw HU lies inside [low, high] (inclusive)."""
    low, high = interval
    vals = raw_vol.values
    return BinaryMask((vals >= low) & (vals <= high), raw_vol.spacing)


def preprocess_pipeline(raw_vol: ScalarVolume, sigma: float = 0.0):
    """Clip, equalize and smooth the raw volume with the defaults of
    `clip_hu` and `equalize_slices` and a Gaussian of `sigma`; mask tissue
    from the raw HU inside `TISSUE_INTERVAL`.

    Returns (preprocessed image, tissue mask).
    """
    clipped = clip_hu(raw_vol)
    equalized = equalize_slices(clipped)
    smoothed = gaussian_smooth(equalized, sigma)
    return smoothed, tissue_mask(raw_vol)
