"""Two-step mask cleanup: slice-wise connected-component reduction followed
by distance-tolerance removal of spurious voxels."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .volumes import BinaryMask, VoxelIndex

_STRUCTURE_8 = np.ones((3, 3), dtype=int)
TOLERANCE_CONSTANT = 0.75


class PostprocessError(Exception):
    pass


@dataclass
class SliceLabeling:
    labels: np.ndarray       # 2D int array, 0 = background
    count: int
    voxels: list             # per component: (n, 2) int array of (i, j)
    centroids: list          # per component: (x, y) float pair


def label_components_2d(slice_mask) -> SliceLabeling:
    """8-connectivity in-plane component labeling of one slice."""
    labels, count = ndimage.label(np.asarray(slice_mask, dtype=bool),
                                  structure=_STRUCTURE_8)
    voxels = []
    centroids = []
    for lbl in range(1, count + 1):
        pts = np.argwhere(labels == lbl)
        voxels.append(pts)
        centroids.append((float(pts[:, 0].mean()), float(pts[:, 1].mean())))
    return SliceLabeling(labels, count, voxels, centroids)


def _select_component(labeling: SliceLabeling, point):
    """Component containing `point` (rounded), else the nearest one."""
    pi = int(round(point[0]))
    pj = int(round(point[1]))
    ni, nj = labeling.labels.shape
    if 0 <= pi < ni and 0 <= pj < nj:
        lbl = labeling.labels[pi, pj]
        if lbl > 0:
            return lbl - 1
    best = None
    best_dist = np.inf
    for idx, pts in enumerate(labeling.voxels):
        d = np.min(np.hypot(pts[:, 0] - point[0], pts[:, 1] - point[1]))
        if d < best_dist:
            best_dist = d
            best = idx
    return best


def reduce_components(mask: BinaryMask, seed: VoxelIndex) -> BinaryMask:
    """Keep one in-plane component per slice: the one containing the seed
    on the seed slice, then the component containing the previous kept
    component's centroid while scanning toward the top and the bottom.
    An empty slice terminates the scan; slices beyond it are cleared."""
    vals = mask.values
    nz = vals.shape[2]
    if not 0 <= seed.k < nz:
        raise PostprocessError(f"seed slice {seed.k} out of range")
    out = np.zeros_like(vals)

    labeling = label_components_2d(vals[:, :, seed.k])
    seed_lbl = labeling.labels[seed.i, seed.j]
    if seed_lbl == 0:
        raise PostprocessError(
            f"seed {seed.as_tuple()} is not foreground in its slice"
        )
    out[:, :, seed.k] = labeling.labels == seed_lbl
    seed_centroid = labeling.centroids[seed_lbl - 1]

    for direction in (1, -1):
        centroid = seed_centroid
        k = seed.k + direction
        while 0 <= k < nz:
            labeling = label_components_2d(vals[:, :, k])
            if labeling.count == 0:
                break  # chain ended; anything beyond stays cleared
            comp = _select_component(labeling, centroid)
            out[:, :, k] = labeling.labels == comp + 1
            centroid = labeling.centroids[comp]
            k += direction
    return BinaryMask(out, mask.spacing)


def clean_spurious(mask: BinaryMask, start_slice: int, direction: int = 1) -> BinaryMask:
    """Remove voxels that appear far from the previous slice's segmentation.

    The start slice and its predecessor (against the scan direction) are
    assumed clean.  Every voxel of a slice carries a tolerance: its
    distance to the previous slice's set plus `TOLERANCE_CONSTANT`.  For
    each later slice, one nearest-neighbour query against the previous
    slice's kept voxels removes every voxel whose distance exceeds the
    tolerance of its nearest previous voxel; the kept voxels' distances
    give their own tolerances.  A voxel present in the previous slice is
    at distance 0 and always kept.  Distances are in-plane Euclidean in
    pixel units.  The scan stops after a slice that is empty or emptied.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    vals = mask.values.copy()
    nz = vals.shape[2]
    if not 0 <= start_slice < nz:
        raise PostprocessError(f"start slice {start_slice} out of range")
    pts = np.argwhere(vals[:, :, start_slice])
    if len(pts) == 0:
        raise PostprocessError(f"start slice {start_slice} is empty")
    prev_idx = start_slice - direction
    tol = np.full(len(pts), TOLERANCE_CONSTANT)
    if 0 <= prev_idx < nz and vals[:, :, prev_idx].any():
        tol += cKDTree(np.argwhere(vals[:, :, prev_idx])).query(pts)[0]

    k = start_slice + direction
    while 0 <= k < nz:
        cur = vals[:, :, k]
        cur_pts = np.argwhere(cur)
        if len(pts) == 0 or len(cur_pts) == 0:
            break
        dist, nearest = cKDTree(pts).query(cur_pts)
        keep = dist <= tol[nearest]
        cur[tuple(cur_pts[~keep].T)] = False
        pts = cur_pts[keep]
        tol = dist[keep] + TOLERANCE_CONSTANT
        k += direction
    return BinaryMask(vals, mask.spacing)


def postprocess(mask: BinaryMask, seed: VoxelIndex, start_slice: int = None) -> BinaryMask:
    """Component reduction followed by spurious-voxel cleaning toward the
    top and then toward the bottom of the volume.

    The two steps are iterated to a fixed point: cleaning can strand
    voxels that are no longer in-plane connected to the kept component,
    which the next reduction pass then removes.  Both steps only remove
    voxels, so the iteration terminates.  The result is idempotent.
    """
    if start_slice is None:
        start_slice = seed.k
    out = mask
    while True:
        prev = out.values
        out = reduce_components(out, seed)
        for direction in (1, -1):
            out = clean_spurious(out, start_slice, direction)
        if np.array_equal(out.values, prev):
            return out
