"""Two-step mask cleanup: slice-wise connected-component reduction followed
by distance-tolerance removal of spurious voxels.

Both steps work slice by slice on Fortran-ordered volumes, where a slice
[:, :, k] is contiguous: labeling it or combining it with its neighbour
runs several times faster than on the strided slice of a C-ordered one."""
from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .volumes import BinaryMask, VoxelIndex

_STRUCTURE_8 = np.ones((3, 3), dtype=int)
TOLERANCE_CONSTANT = 0.75


class PostprocessError(Exception):
    pass


def _centroid(pts):
    return (float(pts[:, 0].mean()), float(pts[:, 1].mean()))


def _label(slice_mask):
    return ndimage.label(np.asarray(slice_mask, dtype=bool), structure=_STRUCTURE_8)


def _component_at(labels, count, point):
    """Label of the component containing `point` (rounded), else of the
    nearest one; only the fallback needs every component's voxels."""
    pi = int(round(point[0]))
    pj = int(round(point[1]))
    ni, nj = labels.shape
    if 0 <= pi < ni and 0 <= pj < nj and labels[pi, pj] > 0:
        return labels[pi, pj]
    best = None
    best_dist = np.inf
    for lbl in range(1, count + 1):
        pts = np.argwhere(labels == lbl)
        d = np.min(np.hypot(pts[:, 0] - point[0], pts[:, 1] - point[1]))
        if d < best_dist:
            best_dist = d
            best = lbl
    return best


def reduce_components(mask: BinaryMask, seed: VoxelIndex) -> BinaryMask:
    """Keep one in-plane component per slice: the one containing the seed
    on the seed slice, then the component containing the previous kept
    component's centroid while scanning toward the top and the bottom.
    An empty slice terminates the scan; slices beyond it are cleared.
    Only the kept component's centroid is computed."""
    vals = np.asarray(mask.values, order="F")
    nz = vals.shape[2]
    if not 0 <= seed.k < nz:
        raise PostprocessError(f"seed slice {seed.k} out of range")
    out = np.zeros_like(vals)

    labels, _ = _label(vals[:, :, seed.k])
    seed_lbl = labels[seed.i, seed.j]
    if seed_lbl == 0:
        raise PostprocessError(
            f"seed {seed.as_tuple()} is not foreground in its slice"
        )
    kept = out[:, :, seed.k]
    np.equal(labels, seed_lbl, out=kept)
    seed_centroid = _centroid(np.argwhere(kept))

    for direction in (1, -1):
        centroid = seed_centroid
        k = seed.k + direction
        while 0 <= k < nz:
            labels, count = _label(vals[:, :, k])
            if count == 0:
                break  # chain ended; anything beyond stays cleared
            kept = out[:, :, k]
            np.equal(labels, _component_at(labels, count, centroid), out=kept)
            centroid = _centroid(np.argwhere(kept))
            k += direction
    return BinaryMask(out, mask.spacing)


def check_start_slice(start_slice: int, nz: int):
    """Raise PostprocessError unless `start_slice` is one of `nz` slices."""
    if not 0 <= start_slice < nz:
        raise PostprocessError(f"start slice {start_slice} out of range")


def clean_spurious(mask: BinaryMask, start_slice: int, direction: int = 1) -> BinaryMask:
    """Remove voxels that appear far from the previous slice's segmentation.

    The start slice and its predecessor (against the scan direction) are
    assumed clean.  Every voxel of a slice carries a tolerance: its
    distance to the previous slice's set plus `TOLERANCE_CONSTANT`.  For
    each later slice, every voxel whose distance exceeds the tolerance of
    its nearest previous voxel is removed; the kept voxels' distances give
    their own tolerances.  Distances are in-plane Euclidean in pixel
    units.  The scan stops after a slice that is empty or emptied.

    A voxel present in the previous slice is its own nearest previous
    voxel, at distance 0, so it is always kept with tolerance
    `TOLERANCE_CONSTANT`.  Only the voxels that moved, those absent from
    the previous slice, are queried against a tree of that slice's
    voxels, and a slice where none moved builds no tree.
    """
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    vals = np.array(mask.values, order="F")
    nz = vals.shape[2]
    check_start_slice(start_slice, nz)
    prev = vals[:, :, start_slice]
    if not prev.any():
        raise PostprocessError(f"start slice {start_slice} is empty")
    # each kept voxel's tolerance, stored at its (i, j)
    tol = np.full(prev.shape, TOLERANCE_CONSTANT)
    before_idx = start_slice - direction
    if 0 <= before_idx < nz:
        before = vals[:, :, before_idx]
        moved = np.argwhere(prev & ~before)
        if len(moved) and before.any():
            tol[tuple(moved.T)] += cKDTree(np.argwhere(before)).query(moved)[0]

    k = start_slice + direction
    while 0 <= k < nz:
        cur = vals[:, :, k]
        moved = np.argwhere(cur & ~prev)
        next_tol = np.full(cur.shape, TOLERANCE_CONSTANT)
        if len(moved):
            prev_pts = np.argwhere(prev)
            dist, nearest = cKDTree(prev_pts).query(moved)
            keep = dist <= tol[tuple(prev_pts[nearest].T)]
            cur[tuple(moved[~keep].T)] = False
            next_tol[tuple(moved[keep].T)] += dist[keep]
        if not cur.any():
            break
        prev, tol = cur, next_tol
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
