"""Segmentation agreement metrics: Dice, Jaccard, Hausdorff and ASSD."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial import cKDTree

from .volumes import BinaryMask


class MetricsError(Exception):
    pass


@dataclass
class MetricsReport:
    dice: float
    jaccard: float
    hausdorff: float
    assd: float

    def to_json(self):
        return json.dumps(asdict(self))


def _check_dims(a: BinaryMask, b: BinaryMask):
    if a.dims != b.dims:
        raise MetricsError(f"mask dims mismatch: {a.dims} vs {b.dims}")


def dice(a: BinaryMask, b: BinaryMask) -> float:
    """Overlap ratio 2|A&B| / (|A| + |B|); two empty masks count as 1."""
    _check_dims(a, b)
    na = np.count_nonzero(a.values)
    nb = np.count_nonzero(b.values)
    if na + nb == 0:
        return 1.0
    inter = np.count_nonzero(a.values & b.values)
    return 2.0 * inter / (na + nb)


def jaccard(a: BinaryMask, b: BinaryMask) -> float:
    """Overlap ratio |A&B| / |AuB|; two empty masks count as 1."""
    _check_dims(a, b)
    union = np.count_nonzero(a.values | b.values)
    if union == 0:
        return 1.0
    inter = np.count_nonzero(a.values & b.values)
    return inter / union


def _surface_mask(m) -> np.ndarray:
    padded = np.pad(m, 1, mode="constant", constant_values=False)
    interior = (
        padded[2:, 1:-1, 1:-1] & padded[:-2, 1:-1, 1:-1]
        & padded[1:-1, 2:, 1:-1] & padded[1:-1, :-2, 1:-1]
        & padded[1:-1, 1:-1, 2:] & padded[1:-1, 1:-1, :-2]
    )
    return m & ~interior


def surface_voxels(mask: BinaryMask) -> np.ndarray:
    """Foreground voxels with at least one of six face-neighbors background
    (out-of-bounds counts as background); returned as an (n, 3) index array."""
    return np.argwhere(_surface_mask(mask.values))


def _distances_to(pts, other_pts, on_other, scale):
    """Distance from each of `pts` to the nearest of `other_pts`, scaled.
    A point that is also in `other_pts` (`on_other`) is its own nearest
    point, at distance 0, so only the rest are queried."""
    d = np.zeros(len(pts))
    off = ~on_other
    if off.any():
        d[off] = cKDTree(other_pts * scale).query(pts[off] * scale)[0]
    return d


def _surface_distances(a: BinaryMask, b: BinaryMask, spacing):
    """Closest-point distances, in physical units, from each surface voxel
    of `a` to the surface of `b` (`d_ab`) and back (`d_ba`)."""
    _check_dims(a, b)
    if not a.values.any() or not b.values.any():
        raise MetricsError("distance metrics require two nonempty masks")
    scale = np.asarray(a.spacing if spacing is None else spacing, dtype=np.float64)
    if not np.all(np.isfinite(scale) & (scale > 0)):
        raise MetricsError("spacing must be finite and positive")
    sa, sb = _surface_mask(a.values), _surface_mask(b.values)
    pa, pb = np.argwhere(sa), np.argwhere(sb)
    d_ab = _distances_to(pa, pb, sb[tuple(pa.T)], scale)
    d_ba = _distances_to(pb, pa, sa[tuple(pb.T)], scale)
    return d_ab, d_ba


def _hausdorff(d_ab, d_ba) -> float:
    return float(max(d_ab.max(), d_ba.max()))


def _assd(d_ab, d_ba) -> float:
    return float((d_ab.sum() + d_ba.sum()) / (len(d_ab) + len(d_ba)))


def hausdorff(a: BinaryMask, b: BinaryMask, spacing=None) -> float:
    """Greatest closest-point distance between the surface voxels of the
    two masks, in physical units."""
    return _hausdorff(*_surface_distances(a, b, spacing))


def assd(a: BinaryMask, b: BinaryMask, spacing=None) -> float:
    """Average symmetric surface distance: pooled mean of closest-point
    distances between the two boundaries, in physical units."""
    return _assd(*_surface_distances(a, b, spacing))


def compute_report(a: BinaryMask, b: BinaryMask, spacing=None) -> MetricsReport:
    """All four metrics, with one pair of surface-distance queries shared
    by the Hausdorff distance and the ASSD."""
    d_ab, d_ba = _surface_distances(a, b, spacing)
    return MetricsReport(
        dice=dice(a, b),
        jaccard=jaccard(a, b),
        hausdorff=_hausdorff(d_ab, d_ba),
        assd=_assd(d_ab, d_ba),
    )
