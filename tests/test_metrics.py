"""Dice, Jaccard, Hausdorff and ASSD against brute-force oracles."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelseg.metrics import (
    MetricsError,
    assd,
    compute_report,
    dice,
    hausdorff,
    jaccard,
    surface_voxels,
)
from levelseg.volumes import BinaryMask


def _mask(arr, spacing=(1.0, 1.0, 1.0)):
    return BinaryMask(np.asarray(arr, dtype=bool), spacing)


def _random_pair(seed, max_n=16):
    rng = np.random.default_rng(seed)
    dims = tuple(rng.integers(3, max_n + 1, size=3))
    a = rng.random(dims) < rng.uniform(0.05, 0.6)
    b = rng.random(dims) < rng.uniform(0.05, 0.6)
    return _mask(a), _mask(b)


def _brute_surface(m):
    pts = []
    nx, ny, nz = m.shape
    for i, j, k in np.argwhere(m):
        for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            ni, nj, nk = i + di, j + dj, k + dk
            if not (0 <= ni < nx and 0 <= nj < ny and 0 <= nk < nz) or not m[ni, nj, nk]:
                pts.append((i, j, k))
                break
    return set(pts)


def _brute_hausdorff(pa, pb, spacing):
    sa = np.asarray(sorted(pa), dtype=float) * spacing
    sb = np.asarray(sorted(pb), dtype=float) * spacing
    d_ab = [min(np.linalg.norm(x - y) for y in sb) for x in sa]
    d_ba = [min(np.linalg.norm(y - x) for x in sa) for y in sb]
    return max(max(d_ab), max(d_ba)), (sum(d_ab) + sum(d_ba)) / (len(sa) + len(sb))


# ------------------------------------------------------------ dice/jaccard

def test_dice_identical():
    a, _ = _random_pair(0)
    assert dice(a, a) == 1.0


def test_dice_disjoint():
    vals = np.zeros((4, 4, 4), dtype=bool)
    a = vals.copy(); a[0, 0, 0] = True
    b = vals.copy(); b[3, 3, 3] = True
    assert dice(_mask(a), _mask(b)) == 0.0


def test_dice_half_overlap():
    a = np.zeros((4, 4, 4), dtype=bool)
    b = np.zeros((4, 4, 4), dtype=bool)
    a[0, 0, :4] = True           # |A| = 4
    b[0, 0, 2:] = b[1, 1, :2] = True  # |B| = 4, overlap 2
    assert dice(_mask(a), _mask(b)) == 0.5
    assert jaccard(_mask(a), _mask(b)) == pytest.approx(1 / 3)


def test_both_empty_convention():
    e = _mask(np.zeros((4, 4, 4), dtype=bool))
    assert dice(e, e) == 1.0
    assert jaccard(e, e) == 1.0


def test_dims_mismatch():
    a = _mask(np.zeros((4, 4, 4), dtype=bool))
    b = _mask(np.zeros((4, 4, 5), dtype=bool))
    for fn in (dice, jaccard):
        with pytest.raises(MetricsError, match="mismatch"):
            fn(a, b)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_dice_jaccard_identity_and_symmetry(seed):
    a, b = _random_pair(seed, max_n=10)
    d = dice(a, b)
    j = jaccard(a, b)
    assert d == pytest.approx(2 * j / (1 + j), abs=1e-15)
    assert d == dice(b, a)
    assert j == jaccard(b, a)
    assert j <= d + 1e-15


# ----------------------------------------------------------------- surface

def test_surface_block_26():
    m = np.zeros((5, 5, 5), dtype=bool)
    m[1:4, 1:4, 1:4] = True
    pts = surface_voxels(_mask(m))
    assert len(pts) == 26
    assert (2, 2, 2) not in {tuple(p) for p in pts}


def test_surface_single_and_empty():
    m = np.zeros((3, 3, 3), dtype=bool)
    assert len(surface_voxels(_mask(m))) == 0
    m[1, 1, 1] = True
    assert {tuple(p) for p in surface_voxels(_mask(m))} == {(1, 1, 1)}


def test_surface_face_voxels_included():
    # out-of-bounds counts as background, so a full volume is all surface
    # except its interior
    m = np.ones((4, 4, 4), dtype=bool)
    assert len(surface_voxels(_mask(m))) == 64 - 8


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_surface_matches_brute_force(seed):
    a, _ = _random_pair(seed, max_n=8)
    got = {tuple(p) for p in surface_voxels(a)}
    assert got == _brute_surface(a.values)


# --------------------------------------------------------------- distances

def test_hausdorff_identical_zero():
    a, _ = _random_pair(1)
    if a.count() == 0:
        pytest.skip("empty draw")
    assert hausdorff(a, a) == 0.0
    assert assd(a, a) == 0.0


def test_hausdorff_two_points():
    a = np.zeros((8, 8, 8), dtype=bool); a[1, 1, 1] = True
    b = np.zeros((8, 8, 8), dtype=bool); b[4, 1, 1] = True
    assert hausdorff(_mask(a), _mask(b)) == 3.0
    assert assd(_mask(a), _mask(b)) == 3.0


def test_assd_parallel_planes():
    a = np.zeros((6, 6, 6), dtype=bool); a[:, :, 1] = True
    b = np.zeros((6, 6, 6), dtype=bool); b[:, :, 3] = True
    assert assd(_mask(a), _mask(b)) == 2.0
    assert hausdorff(_mask(a), _mask(b)) == 2.0


def test_distance_requires_nonempty():
    a = _mask(np.zeros((4, 4, 4), dtype=bool))
    b = np.zeros((4, 4, 4), dtype=bool); b[1, 1, 1] = True
    with pytest.raises(MetricsError, match="nonempty"):
        hausdorff(a, _mask(b))
    with pytest.raises(MetricsError, match="nonempty"):
        assd(_mask(b), a)


def test_spacing_scaling():
    rng = np.random.default_rng(9)
    vals_a = rng.random((6, 6, 6)) < 0.3
    vals_b = rng.random((6, 6, 6)) < 0.3
    a1, b1 = _mask(vals_a), _mask(vals_b)
    a2 = _mask(vals_a, spacing=(2.0, 2.0, 2.0))
    b2 = _mask(vals_b, spacing=(2.0, 2.0, 2.0))
    assert hausdorff(a2, b2) == pytest.approx(2 * hausdorff(a1, b1))
    assert assd(a2, b2) == pytest.approx(2 * assd(a1, b1))
    assert dice(a2, b2) == dice(a1, b1)
    assert jaccard(a2, b2) == jaccard(a1, b1)


def test_anisotropic_spacing():
    a = np.zeros((5, 5, 5), dtype=bool); a[2, 2, 1] = True
    b = np.zeros((5, 5, 5), dtype=bool); b[2, 2, 3] = True
    assert hausdorff(_mask(a), _mask(b), spacing=(1.0, 1.0, 2.5)) == 5.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_distances_match_brute_force(seed):
    a, b = _random_pair(seed, max_n=7)
    if a.count() == 0 or b.count() == 0:
        return
    spacing = np.array([1.0, 1.0, 2.0])
    pa = _brute_surface(a.values)
    pb = _brute_surface(b.values)
    want_h, want_assd = _brute_hausdorff(pa, pb, spacing)
    assert hausdorff(a, b, spacing=tuple(spacing)) == pytest.approx(want_h, abs=1e-12)
    assert assd(a, b, spacing=tuple(spacing)) == pytest.approx(want_assd, abs=1e-12)
    assert hausdorff(a, b, spacing=tuple(spacing)) >= assd(a, b, spacing=tuple(spacing)) - 1e-12


# ------------------------------------------------------------------ report

def test_report_json_round_trip():
    rng = np.random.default_rng(13)
    vals = rng.random((6, 6, 6)) < 0.4
    a = _mask(vals)
    report = compute_report(a, a)
    doc = json.loads(report.to_json())
    assert set(doc) == {"dice", "jaccard", "hausdorff", "assd"}
    assert doc["dice"] == 1.0 and doc["hausdorff"] == 0.0


def _assert_report_equals_brute_force(a, b, spacing=None):
    report = compute_report(a, b, spacing)
    want_h, want_assd = _brute_hausdorff(_brute_surface(a.values), _brute_surface(b.values),
                                         np.asarray(spacing or a.spacing))
    assert report.hausdorff == pytest.approx(want_h, abs=1e-12)
    assert report.assd == pytest.approx(want_assd, abs=1e-12)
    return report


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), flip=st.sampled_from([None, 0.0, 0.01, 0.1, 0.5]),
       spacing=st.sampled_from([None, (1.0, 2.0, 0.5)]))
def test_report_equals_each_metric_and_brute_force(seed, flip, spacing):
    # `b` is drawn on its own, or is `a` with a fraction `flip` of its
    # voxels flipped, so the two surfaces share anything from all to few
    # of their voxels; without `spacing` the masks' own (anisotropic)
    # spacing applies
    a, b = _random_pair(seed, max_n=7)
    if flip is not None:
        b = _mask(a.values ^ (np.random.default_rng([seed, 1]).random(a.dims) < flip))
    if a.count() == 0 or b.count() == 0:
        return
    a, b = _mask(a.values, (0.5, 1.0, 3.0)), _mask(b.values, (0.5, 1.0, 3.0))
    report = _assert_report_equals_brute_force(a, b, spacing)
    assert report.dice == dice(a, b)
    assert report.jaccard == jaccard(a, b)
    assert report.hausdorff == hausdorff(a, b, spacing)
    assert report.assd == assd(a, b, spacing)


def test_identical_masks_build_no_tree(tree_count):
    a, _ = _random_pair(4, max_n=7)
    for spacing in (None, (1.0, 1.0, 2.5)):
        _assert_report_equals_brute_force(a, a, spacing)
    assert tree_count == []


def test_disjoint_masks_equal_full_query(tree_count):
    # the brute-force oracle queries every surface voxel of each mask
    a = np.zeros((8, 8, 8), dtype=bool); a[1:4, 1:4, 1:4] = True
    b = np.zeros((8, 8, 8), dtype=bool); b[5:8, 2:6, 3:8] = True
    _assert_report_equals_brute_force(_mask(a), _mask(b), (0.5, 1.0, 3.0))
    # one tree per direction, of every surface voxel
    assert sorted(tree_count) == sorted([26, len(surface_voxels(_mask(b)))])


@pytest.mark.parametrize("spacing", [(float("nan"), 1.0, 1.0), (1.0, float("inf"), 1.0),
                                     (0.0, 1.0, 1.0), (1.0, 1.0, -2.0)])
def test_spacing_must_be_finite_and_positive(spacing):
    # identical masks build no tree, so the check cannot rely on one
    a, b = _random_pair(5)
    for x, y in ((a, a), (a, b)):
        with pytest.raises(MetricsError, match="spacing must be finite and positive"):
            compute_report(x, y, spacing)
        with pytest.raises(MetricsError, match="spacing must be finite and positive"):
            hausdorff(_mask(x.values, spacing), _mask(y.values, spacing))
