"""Slice-wise component reduction and distance-tolerance cleaning."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy import ndimage
from scipy.spatial import cKDTree

from levelseg.postprocess import (
    TOLERANCE_CONSTANT,
    PostprocessError,
    _label,
    clean_spurious,
    postprocess,
    reduce_components,
)
from levelseg.volumes import BinaryMask, VoxelIndex


def _mask(arr):
    return BinaryMask(np.asarray(arr, dtype=bool))


def _disk(nx, ny, center, radius):
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    return (ii - center[0]) ** 2 + (jj - center[1]) ** 2 <= radius**2


def _flood_count(slice_mask):
    """Reference component count by 8-neighbor flood fill."""
    m = np.asarray(slice_mask, dtype=bool)
    seen = np.zeros_like(m)
    count = 0
    for start in map(tuple, np.argwhere(m & ~seen)):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            i, j = stack.pop()
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ni, nj = i + di, j + dj
                    if (0 <= ni < m.shape[0] and 0 <= nj < m.shape[1]
                            and m[ni, nj] and not seen[ni, nj]):
                        seen[ni, nj] = True
                        stack.append((ni, nj))
    return count


# --------------------------------------------------------------- labeling

def test_label_empty():
    labels, count = _label(np.zeros((5, 5), dtype=bool))
    assert count == 0
    assert not labels.any()


def test_label_two_blobs():
    sl = np.zeros((5, 7), dtype=bool)
    sl[1:3, 1:3] = True
    sl[1:3, 5:7] = True
    labels, count = _label(sl)
    assert count == 2
    assert sorted(np.bincount(labels.ravel())[1:]) == [4, 4]


def test_label_diagonal_is_connected():
    sl = np.zeros((4, 4), dtype=bool)
    sl[0, 0] = sl[1, 1] = sl[2, 2] = True
    labels, count = _label(sl)
    assert count == 1
    assert np.array_equal(np.argwhere(labels == 1), [[0, 0], [1, 1], [2, 2]])


def test_label_all_foreground_labeled():
    rng = np.random.default_rng(2)
    sl = rng.random((12, 12)) < 0.4
    labels, count = _label(sl)
    assert np.array_equal(labels > 0, sl)
    ids = np.unique(labels)
    assert set(ids) <= set(range(count + 1))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), density=st.floats(0.1, 0.6))
def test_label_count_matches_flood_fill(seed, density):
    rng = np.random.default_rng(seed)
    sl = rng.random((10, 10)) < density
    assert _label(sl)[1] == _flood_count(sl)


# ------------------------------------------------------- reduce_components

def test_reduce_single_component_unchanged():
    vals = np.zeros((12, 12, 5), dtype=bool)
    for k in range(5):
        vals[:, :, k] = _disk(12, 12, (6, 6), 3)
    mask = _mask(vals)
    out = reduce_components(mask, VoxelIndex(6, 6, 2))
    assert np.array_equal(out.values, vals)


def test_reduce_removes_disjoint_blob_in_seed_slice():
    vals = np.zeros((14, 14, 3), dtype=bool)
    vals[:, :, 1] = _disk(14, 14, (4, 7), 2)
    vals[1:3, 11:13, 1] = True  # far blob
    out = reduce_components(_mask(vals), VoxelIndex(4, 7, 1))
    assert not out.values[1:3, 11:13, 1].any()
    assert out.values[4, 7, 1]


def test_reduce_tracks_drifting_disk():
    # disk drifts one voxel per slice; a stationary far blob must vanish
    nz = 10
    vals = np.zeros((30, 16, nz), dtype=bool)
    blob = np.zeros((30, 16), dtype=bool)
    blob[25:28, 12:15] = True
    for k in range(nz):
        vals[:, :, k] = _disk(30, 16, (5 + k, 8), 3) | blob
    out = reduce_components(_mask(vals), VoxelIndex(5, 8, 0))
    for k in range(nz):
        assert not out.values[25:28, 12:15, k].any()
        assert np.array_equal(out.values[:, :, k], _disk(30, 16, (5 + k, 8), 3))


def test_reduce_seed_not_foreground():
    vals = np.zeros((10, 10, 3), dtype=bool)
    vals[2:5, 2:5, 1] = True
    with pytest.raises(PostprocessError, match="not foreground"):
        reduce_components(_mask(vals), VoxelIndex(8, 8, 1))


def test_reduce_empty_slice_clears_beyond():
    vals = np.zeros((10, 10, 6), dtype=bool)
    vals[4:7, 4:7, 0] = True
    vals[4:7, 4:7, 1] = True
    # slice 2 empty; slices 3..5 contain junk that must be cleared
    vals[1:3, 1:3, 3] = True
    vals[6:9, 6:9, 5] = True
    out = reduce_components(_mask(vals), VoxelIndex(5, 5, 0))
    assert out.values[:, :, :2].sum() == 18
    assert out.values[:, :, 2:].sum() == 0


def test_reduce_centroid_fallback_nearest():
    # previous centroid lands on background of a concave (ring) slice;
    # the nearest component must be selected
    vals = np.zeros((15, 15, 2), dtype=bool)
    vals[:, :, 0] = _disk(15, 15, (7, 7), 2)
    ring = _disk(15, 15, (7, 7), 5) & ~_disk(15, 15, (7, 7), 3)
    vals[:, :, 1] = ring
    out = reduce_components(_mask(vals), VoxelIndex(7, 7, 0))
    assert np.array_equal(out.values[:, :, 1], ring)


# ---------------------------------------------------------- clean_spurious

def test_clean_identical_slices_noop():
    vals = np.zeros((10, 10, 6), dtype=bool)
    vals[3:7, 3:7, :] = True
    out = clean_spurious(_mask(vals), start_slice=0)
    assert np.array_equal(out.values, vals)


def test_clean_removes_far_voxel():
    # new voxel at in-plane distance 2.0 while the nearest previous voxel
    # overlaps the slice before it (tolerance 0.75) -> removed
    vals = np.zeros((12, 12, 3), dtype=bool)
    vals[5, 5, 0] = True
    vals[5, 5, 1] = True
    vals[5, 5, 2] = True
    vals[5, 7, 2] = True  # distance 2.0 from (5,5)
    out = clean_spurious(_mask(vals), start_slice=1)
    assert not out.values[5, 7, 2]
    assert out.values[5, 5, 2]


def test_clean_keeps_near_voxel():
    # distance 1.0 > 0.75 removed, but sub-tolerance growth survives:
    # use the worked pair: 0.5 kept vs 2.0 removed against tol 0.75.
    # on the integer grid the smallest nonzero in-plane distance is 1.0,
    # so exercise the kept case through a voxel that overlaps (distance 0)
    # and the removed case at distance 2.0
    vals = np.zeros((12, 12, 3), dtype=bool)
    vals[5, 5, 0] = True
    vals[5, 5, 1] = True
    vals[5, 6, 1] = True   # tolerance at (5,6): dist 1 to (5,5) + 0.75 = 1.75
    vals[5, 5, 2] = True
    vals[5, 7, 2] = True   # nearest prev voxel (5,6) at dist 1.0 <= 1.75 -> kept
    vals[5, 11, 2] = True  # dist 4.0 from (5,6) > 1.75 -> removed
    out = clean_spurious(_mask(vals), start_slice=1)
    assert out.values[5, 7, 2]
    assert not out.values[5, 11, 2]


def test_clean_tolerance_worked_example():
    # tolerance propagates: a voxel admitted at distance d raises the local
    # tolerance to d + 0.75 for the next slice
    vals = np.zeros((12, 12, 4), dtype=bool)
    vals[5, 5, 0] = True
    vals[5, 5, 1] = True
    vals[5, 5, 2] = True
    vals[5, 5, 3] = True
    vals[8, 5, 3] = True  # distance 3.0 > 0.75 -> removed
    out = clean_spurious(_mask(vals), start_slice=1)
    assert not out.values[8, 5, 3]
    assert out.values[5, 5, 3]


def test_clean_direction_reverse():
    vals = np.zeros((12, 12, 4), dtype=bool)
    vals[5, 5, :] = True
    vals[5, 9, 0] = True  # spurious at the low-z end
    out = clean_spurious(_mask(vals), start_slice=2, direction=-1)
    assert not out.values[5, 9, 0]
    assert out.values[5, 5, 0]


def test_clean_start_slice_validation():
    vals = np.zeros((10, 10, 4), dtype=bool)
    vals[3, 3, 1] = True
    with pytest.raises(PostprocessError, match="empty"):
        clean_spurious(_mask(vals), start_slice=0)
    with pytest.raises(PostprocessError, match="range"):
        clean_spurious(_mask(vals), start_slice=9)
    with pytest.raises(ValueError):
        clean_spurious(_mask(vals), start_slice=1, direction=2)


def _clean_spurious_per_voxel(mask, start_slice, direction=1):
    """Reference: the tolerance rule voxel by voxel, skipping voxels that
    are in the previous slice and querying a second tree for the next
    slice's tolerances."""
    def tolerances(pts, prev_pts):
        if len(prev_pts) == 0:
            return np.full(len(pts), TOLERANCE_CONSTANT)
        return cKDTree(prev_pts).query(pts)[0] + TOLERANCE_CONSTANT

    vals = mask.values.copy()
    nz = vals.shape[2]
    pts = np.argwhere(vals[:, :, start_slice])
    prev_idx = start_slice - direction
    prev_pts = np.argwhere(vals[:, :, prev_idx]) if 0 <= prev_idx < nz else np.empty((0, 2), int)
    tol = tolerances(pts, prev_pts)
    k = start_slice + direction
    while 0 <= k < nz:
        prev_pts, prev_tol = pts, tol
        cur = vals[:, :, k]
        pts = np.argwhere(cur)
        if len(prev_pts) == 0 or len(pts) == 0:
            break
        prev_set = {(int(i), int(j)) for i, j in prev_pts}
        tree = cKDTree(prev_pts)
        for i, j in pts:
            if (int(i), int(j)) in prev_set:
                continue
            dist, i_min = tree.query([i, j])
            if dist > prev_tol[i_min]:
                cur[i, j] = False
        pts = np.argwhere(cur)
        tol = tolerances(pts, prev_pts)
        k += direction
    return BinaryMask(vals, mask.spacing)


def _drifting_disks(seed, direction, start, empty_prev):
    """A disk that drifts and changes size from slice to slice, plus noise:
    voxels are kept and removed at a range of distances and tolerances,
    and some slices lose every voxel or are empty.  Returns the mask and a
    start slice with at least one voxel."""
    rng = np.random.default_rng(seed)
    nx, ny = rng.integers(3, 20, size=2)
    nz = int(rng.integers(3, 10))
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    ci, cj, r = rng.uniform(0, nx), rng.uniform(0, ny), rng.uniform(0.5, 4)
    vals = rng.random((nx, ny, nz)) < rng.uniform(0.0, 0.3)
    for k in range(nz):
        ci, cj = ci + rng.normal(0, 1.5), cj + rng.normal(0, 1.5)
        r = max(0.5, r + rng.normal(0, 1))
        vals[:, :, k] |= (ii - ci) ** 2 + (jj - cj) ** 2 <= r * r
    if rng.random() < 0.3:
        vals[:, :, rng.integers(nz)] = False
    k0 = {"low end": 0, "high end": nz - 1, "inside": int(rng.integers(1, nz - 1))}[start]
    if empty_prev and 0 <= k0 - direction < nz:
        vals[:, :, k0 - direction] = False
    vals[rng.integers(nx), rng.integers(ny), k0] = True
    return _mask(vals), k0


_DRIFTING_DISKS = dict(seed=st.integers(0, 2**32 - 1), direction=st.sampled_from([1, -1]),
                       start=st.sampled_from(["low end", "high end", "inside"]),
                       empty_prev=st.booleans())


def _assert_clean_equals_per_voxel(mask, start, direction=1):
    want = _clean_spurious_per_voxel(mask, start, direction)
    assert np.array_equal(clean_spurious(mask, start, direction).values, want.values)


@settings(max_examples=150, deadline=None)
@given(**_DRIFTING_DISKS)
def test_clean_equals_per_voxel_reference(seed, direction, start, empty_prev):
    mask, k0 = _drifting_disks(seed, direction, start, empty_prev)
    _assert_clean_equals_per_voxel(mask, k0, direction)


def test_clean_builds_no_tree_where_no_voxel_moved(tree_count):
    vals = np.zeros((10, 10, 6), dtype=bool)
    vals[3:7, 3:7, :] = True
    _assert_clean_equals_per_voxel(_mask(vals), 0)
    assert tree_count == []
    vals[7, 4, 3] = True  # one moved voxel: one tree, of slice 2's 16 voxels
    _assert_clean_equals_per_voxel(_mask(vals), 0)
    assert tree_count == [16]


def test_clean_every_voxel_moved_equals_reference():
    # slice 2 is a ring around slice 1's disk: no voxel of it was there
    # before, and slice 1's edge voxels carry raised tolerances
    vals = np.zeros((16, 16, 4), dtype=bool)
    vals[:, :, 0] = _disk(16, 16, (8, 8), 1)
    vals[:, :, 1] = _disk(16, 16, (8, 8), 2)
    vals[:, :, 2] = _disk(16, 16, (8, 8), 3) & ~_disk(16, 16, (8, 8), 2)
    vals[:, :, 3] = _disk(16, 16, (8, 8), 3)
    assert not (vals[:, :, 2] & vals[:, :, 1]).any()
    for direction, start in ((1, 1), (-1, 2)):
        _assert_clean_equals_per_voxel(_mask(vals), start, direction)


def test_clean_tie_between_previous_voxels_equals_reference():
    # (5, 6) and (6, 6) on slice 2 are equidistant from (5, 5), tolerance
    # 0.75, and (5, 7), tolerance 2 + 0.75: the tree's choice between them
    # decides whether they stay, so it must be the reference's choice
    vals = np.zeros((12, 12, 3), dtype=bool)
    vals[5, 5, 0] = True
    vals[5, 5, 1] = vals[5, 7, 1] = True
    vals[5, 5, 2] = vals[5, 6, 2] = vals[6, 6, 2] = True
    _assert_clean_equals_per_voxel(_mask(vals), 1)


# ------------------------------- bitwise oracle: the all-components code

def _reduce_components_all(mask, seed):
    """Frozen copy of the reduction that labels every component of each
    slice and computes every centroid."""
    def labeling(sl):
        # 8-connected labels, and each component's voxels and centroid
        labels, count = ndimage.label(sl, structure=np.ones((3, 3), dtype=int))
        voxels = [np.argwhere(labels == lbl) for lbl in range(1, count + 1)]
        centroids = [(float(v[:, 0].mean()), float(v[:, 1].mean())) for v in voxels]
        return labels, count, voxels, centroids

    def select(labels, voxels, point):
        pi, pj = int(round(point[0])), int(round(point[1]))
        ni, nj = labels.shape
        if 0 <= pi < ni and 0 <= pj < nj and labels[pi, pj] > 0:
            return labels[pi, pj] - 1
        best, best_dist = None, np.inf
        for idx, pts in enumerate(voxels):
            d = np.min(np.hypot(pts[:, 0] - point[0], pts[:, 1] - point[1]))
            if d < best_dist:
                best_dist, best = d, idx
        return best

    vals = mask.values
    nz = vals.shape[2]
    out = np.zeros_like(vals)
    labels, _, _, centroids = labeling(vals[:, :, seed.k])
    seed_lbl = labels[seed.i, seed.j]
    out[:, :, seed.k] = labels == seed_lbl
    seed_centroid = centroids[seed_lbl - 1]
    for direction in (1, -1):
        centroid = seed_centroid
        k = seed.k + direction
        while 0 <= k < nz:
            labels, count, voxels, centroids = labeling(vals[:, :, k])
            if count == 0:
                break
            comp = select(labels, voxels, centroid)
            out[:, :, k] = labels == comp + 1
            centroid = centroids[comp]
            k += direction
    return BinaryMask(out, mask.spacing)


@settings(max_examples=100, deadline=None)
@given(**_DRIFTING_DISKS)
def test_reduce_equals_all_components_reference(seed, direction, start, empty_prev):
    # noise and a drifting disk give several components per slice, and a
    # centroid that can fall on background
    mask, k0 = _drifting_disks(seed, direction, start, empty_prev)
    i, j = np.argwhere(mask.values[:, :, k0])[0]
    seed_voxel = VoxelIndex(int(i), int(j), k0)
    assert np.array_equal(reduce_components(mask, seed_voxel).values,
                          _reduce_components_all(mask, seed_voxel).values)


def test_reduce_centroid_outside_every_component_equals_reference():
    # the ring's hole holds the centroid, and two blobs sit at equal
    # distances from a bar's centroid, so the nearest-component fallback
    # runs, once with a tie
    vals = np.zeros((15, 15, 4), dtype=bool)
    vals[:, :, 0] = _disk(15, 15, (7, 7), 2)
    vals[:, :, 1] = _disk(15, 15, (7, 7), 5) & ~_disk(15, 15, (7, 7), 3)
    vals[7, 1:14, 2] = True
    vals[2:4, 6:9, 3] = vals[11:13, 6:9, 3] = True
    mask = _mask(vals)
    for seed in (VoxelIndex(7, 7, 0), VoxelIndex(7, 3, 2)):
        want = _reduce_components_all(mask, seed).values
        assert np.array_equal(reduce_components(mask, seed).values, want)
    assert want[:, :, 3].any()


# -------------------------------------------------------------- postprocess

def test_postprocess_clean_mask_unchanged():
    vals = np.zeros((16, 16, 8), dtype=bool)
    for k in range(8):
        vals[:, :, k] = _disk(16, 16, (8, 8), 4)
    out = postprocess(_mask(vals), VoxelIndex(8, 8, 4))
    assert np.array_equal(out.values, vals)


def test_postprocess_removes_connected_spur():
    # a blob 8-connected to the tube in a few slices survives component
    # reduction but violates the slice-to-slice tolerance
    vals = np.zeros((24, 24, 9), dtype=bool)
    for k in range(9):
        vals[:, :, k] = _disk(24, 24, (8, 12), 4)
    spur = _disk(24, 24, (17, 12), 3)
    for k in (4, 5):
        vals[:, :, k] |= spur
        vals[12:15, 12, k] = True  # bridge keeps it one component
    tube = sum(int(_disk(24, 24, (8, 12), 4).sum()) for _ in range(9))
    out = postprocess(_mask(vals), VoxelIndex(8, 12, 0), start_slice=0)
    kept = out.count()
    spur_left = int((out.values[:, :, 4] & spur).sum() + (out.values[:, :, 5] & spur).sum())
    assert spur_left == 0
    assert abs(kept - tube) / tube < 0.01


def test_postprocess_output_subset_of_input():
    rng = np.random.default_rng(3)
    vals = np.zeros((14, 14, 6), dtype=bool)
    for k in range(6):
        vals[:, :, k] = _disk(14, 14, (7, 7), 4)
        vals[:, :, k] |= rng.random((14, 14)) < 0.05
    mask = _mask(vals)
    out = postprocess(mask, VoxelIndex(7, 7, 3))
    assert np.all(~out.values | vals)


def test_postprocess_at_most_one_component_per_slice():
    rng = np.random.default_rng(5)
    vals = np.zeros((14, 14, 6), dtype=bool)
    for k in range(6):
        vals[:, :, k] = _disk(14, 14, (7, 7), 3)
        vals[:, :, k] |= rng.random((14, 14)) < 0.08
    out = reduce_components(_mask(vals), VoxelIndex(7, 7, 3))
    for k in range(6):
        assert _label(out.values[:, :, k])[1] <= 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), noise=st.floats(0.0, 0.1))
def test_postprocess_idempotent(seed, noise):
    rng = np.random.default_rng(seed)
    vals = np.zeros((16, 16, 7), dtype=bool)
    for k in range(7):
        vals[:, :, k] = _disk(16, 16, (8, 8), 4)
        vals[:, :, k] |= rng.random((16, 16)) < noise
    mask = _mask(vals)
    once = postprocess(mask, VoxelIndex(8, 8, 3))
    twice = postprocess(once, VoxelIndex(8, 8, 3))
    assert np.array_equal(once.values, twice.values)
