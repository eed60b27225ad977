"""Each output check of the benchmark passes on a correct output and fails
on a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""
import numpy as np
import pytest
from scipy import ndimage

import checks

DIMS = (30, 20, 9)
SEED_LEFT = (8, 10, 4)
SEED_RIGHT = (21, 10, 4)   # mirror image of SEED_LEFT about x = 14.5


def _tube(cx, cy, radius):
    ii, jj = np.meshgrid(np.arange(DIMS[0]), np.arange(DIMS[1]), indexing="ij")
    disk = (ii - cx) ** 2 + (jj - cy) ** 2 <= radius ** 2
    return np.repeat(disk[:, :, None], DIMS[2], axis=2)


@pytest.fixture
def truth():
    return _tube(*SEED_LEFT[:2], 5), _tube(*SEED_RIGHT[:2], 5)


@pytest.fixture
def dirty(truth):
    """The left tube with two spurious blobs well away from it."""
    injected = np.zeros(DIMS, dtype=bool)
    injected[26:29, 1:4, 2] = True
    injected[26:29, 15:18, 6] = True
    return truth[0] | injected, injected


def test_correct_outputs_pass(truth, dirty):
    left, right = truth
    mask, injected = dirty
    assert checks.dice_floor("left", left, left, checks.DICE_FLOOR) == []
    assert checks.tube_pair(left, right, SEED_LEFT, SEED_RIGHT) == []
    assert checks.mirror(left, right) == []
    assert checks.cleanup("left", mask, left, left, injected, straight=True) == []
    timing = {"sides": {"left": {"iterations": 50}, "right": {"iterations": 50}}}
    assert checks.iterations(timing, 50, steps=100) == []


def test_eroded_mask_fails_dice_floor(truth):
    left = truth[0]
    eroded = ndimage.binary_erosion(left, iterations=2)
    assert checks.dice_floor("left", eroded, left, checks.DICE_FLOOR)


def test_swapped_masks_fail(truth):
    left, right = truth
    assert len(checks.tube_pair(right, left, SEED_LEFT, SEED_RIGHT)) == 2
    assert checks.dice_floor("left", right, left, checks.DICE_FLOOR)


def test_overlapping_masks_fail(truth):
    left, right = truth
    grown = ndimage.binary_dilation(left, iterations=3)
    assert checks.tube_pair(grown, right, SEED_LEFT, SEED_RIGHT)


def test_asymmetric_masks_fail_mirror(truth):
    left, right = truth
    shifted = np.roll(right, 2, axis=0)
    assert checks.mirror(left, shifted)


def test_mask_grown_in_cleanup_fails(truth, dirty):
    left = truth[0]
    mask, injected = dirty
    grown = mask.copy()
    grown[14, 10, 4] = True   # a voxel outside the input
    assert checks.cleanup("left", mask, grown, left, injected, straight=False)


def test_blobs_left_in_cleanup_fail(truth, dirty):
    mask, injected = dirty
    assert checks.cleanup("left", mask, mask, truth[0], injected, straight=True)


def test_tube_eaten_in_cleanup_fails(truth, dirty):
    left = truth[0]
    mask, injected = dirty
    eaten = ndimage.binary_erosion(left)
    assert checks.cleanup("left", mask, eaten, left, injected, straight=True)


def test_wrong_iteration_counts_fail():
    timing = {"sides": {"left": {"iterations": 50}, "right": {"iterations": 49}}}
    assert checks.iterations(timing, 50)
    timing["sides"]["right"]["iterations"] = 50
    assert checks.iterations(timing, 50, steps=99)


def test_report_overlap_must_match_counts(truth):
    left = truth[0]
    eroded = ndimage.binary_erosion(left)
    inter = int((eroded & left).sum())
    union = int((eroded | left).sum())
    report = {"dice": 2 * inter / (eroded.sum() + left.sum()), "jaccard": inter / union}
    assert checks.overlap_report("left", report, eroded, left) == []
    assert checks.overlap_report("left", dict(report, dice=report["dice"] + 1e-6),
                                 eroded, left)
    assert checks.overlap_report("left", report, left, left)


def test_report_distances_must_match_brute_force():
    a = np.zeros(DIMS, dtype=bool)
    b = np.zeros(DIMS, dtype=bool)
    a[0, 0, 0] = True
    b[3, 4, 0] = True   # 3-4-5 triangle
    assert checks.distance_report("pair", {"hausdorff": 5.0, "assd": 5.0}, a, b) == []
    assert checks.distance_report("pair", {"hausdorff": 5.0, "assd": 4.0}, a, b)
    assert checks.distance_report("pair", {"hausdorff": 10.0, "assd": 10.0}, a, b,
                                  spacing=(1.0, 1.0, 1.0))
    assert checks.distance_report("pair", {"hausdorff": 10.0, "assd": 10.0}, a, b,
                                  spacing=(2.0, 2.0, 2.0)) == []
