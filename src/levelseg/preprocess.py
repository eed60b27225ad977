"""Slice-wise CT conditioning: intensity clipping, histogram equalization,
Gaussian smoothing and the soft-tissue mask."""
from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import correlate1d

from .volumes import BinaryMask, ScalarVolume


# the paper's constants: the raw-HU soft-tissue window (inclusive), the HU
# above which `clip_hu` takes a voxel for bone, the bins of a slice histogram
TISSUE_INTERVAL = (5.0, 120.0)
CLIP_THRESHOLD = 120.0
EQUALIZATION_BINS = 256


def clip_hu(vol: ScalarVolume) -> ScalarVolume:
    """Zero every value strictly above `CLIP_THRESHOLD` (bone suppression)."""
    out = vol.values.copy()
    out[out > CLIP_THRESHOLD] = 0.0
    return ScalarVolume(out, vol.spacing)


def _equalize_slice(sl):
    lo = sl.min()
    hi = sl.max()
    if hi <= lo:
        return np.zeros_like(sl)
    idx = ((sl - lo) / (hi - lo) * EQUALIZATION_BINS).astype(np.int64)
    np.minimum(idx, EQUALIZATION_BINS - 1, out=idx)
    counts = np.bincount(idx.ravel(), minlength=EQUALIZATION_BINS)
    cdf = np.cumsum(counts) / sl.size
    return cdf[idx]


def equalize_slices(vol: ScalarVolume) -> ScalarVolume:
    """Histogram-equalize each z-slice independently.

    Each slice is mapped through its own empirical CDF over
    `EQUALIZATION_BINS` equal-width bins spanning that slice's [min, max];
    output lies in [0, 1] and a constant slice maps to all zeros.
    """
    out = np.empty_like(vol.values)
    for k in range(vol.dims[2]):
        out[:, :, k] = _equalize_slice(vol.values[:, :, k])
    return ScalarVolume(out, vol.spacing)


def _gauss_kernel(sigma):
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_smooth(vol: ScalarVolume, sigma: float) -> ScalarVolume:
    """2D Gaussian smoothing of each z-slice.

    Kernel truncated at radius ceil(3*sigma) and renormalized to sum 1;
    borders handled by edge replication. sigma = 0 is the identity; a
    3*sigma beyond the larger in-plane dimension is rejected.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if 3.0 * sigma > max(vol.dims[:2]):
        raise ValueError(f"sigma must be <= {max(vol.dims[:2]) / 3.0:g}: "
                         f"3*sigma exceeds the {vol.dims[0]}x{vol.dims[1]} slice")
    if sigma == 0:
        return ScalarVolume(vol.values.copy(), vol.spacing)
    kernel = _gauss_kernel(sigma)
    out = correlate1d(vol.values, kernel, axis=0, mode="nearest")
    out = correlate1d(out, kernel, axis=1, mode="nearest")
    return ScalarVolume(out, vol.spacing)


def tissue_mask(raw_vol: ScalarVolume) -> BinaryMask:
    """Mask of voxels whose raw HU lies inside `TISSUE_INTERVAL`."""
    low, high = TISSUE_INTERVAL
    vals = raw_vol.values
    return BinaryMask((vals >= low) & (vals <= high), raw_vol.spacing)


def preprocess_pipeline(raw_vol: ScalarVolume, sigma: float):
    """Clip and equalize the raw volume and smooth it with a Gaussian of
    `sigma`; mask tissue from the raw HU inside `TISSUE_INTERVAL`.

    Returns (preprocessed image, tissue mask).
    """
    clipped = clip_hu(raw_vol)
    equalized = equalize_slices(clipped)
    smoothed = gaussian_smooth(equalized, sigma)
    return smoothed, tissue_mask(raw_vol)
