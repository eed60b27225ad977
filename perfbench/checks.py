"""Output checks of the benchmark.

Each check takes plain boolean arrays (and report numbers) and returns a
list of problems, empty when the output is correct.  None of them uses
levelseg or a stored copy of earlier output: masks are compared with the
analytic phantom truth or with a property the method must have.
"""
from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.spatial.distance import cdist

# Dice floor of every output mask of the first-order and cleanup workloads,
# as on the medium phantom in the phantom end-to-end acceptance criterion
DICE_FLOOR = 0.90
# Dice floor on the second-order phantom; every mask of seeds 1-10 measured
# 0.902-0.909 (gmfd2 over-segments the tube by about one voxel ring)
SECOND_ORDER_DICE_FLOOR = 0.88
# mirrored left mask vs right mask on the mirror-symmetric second-order
# phantom, whose only asymmetry is its noise: 0 voxels on seeds 1-10; a
# mask shifted by one voxel differs in several hundred
MIRROR_TOLERANCE_VOXELS = 20
# cleanup on straight tubes, as in the phantom end-to-end criterion
MIN_INJECTED_REMOVED = 0.95
MAX_TUBE_CHANGE = 0.01
# report values recomputed here must agree to rounding
REPORT_TOLERANCE = 1e-12
# brute-force pairwise distances are taken in blocks of this many rows
_CDIST_BLOCK = 256


def dice(a, b) -> float:
    total = int(a.sum()) + int(b.sum())
    return 1.0 if total == 0 else 2.0 * int((a & b).sum()) / total


def dice_floor(name, mask, truth, floor):
    d = dice(mask, truth)
    return [] if d >= floor else [f"{name}: Dice {d:.4f} below floor {floor}"]


def tube_pair(left, right, seed_left, seed_right):
    """The two tube masks are disjoint and each contains its own seed."""
    problems = []
    overlap = int((left & right).sum())
    if overlap:
        problems.append(f"left and right masks share {overlap} voxels")
    for side, mask, seed in (("left", left, seed_left), ("right", right, seed_right)):
        if not mask[seed]:
            problems.append(f"{side} mask does not contain its seed {seed}")
    return problems


def mirror(left, right, tolerance=MIRROR_TOLERANCE_VOXELS):
    """On a phantom mirror-symmetric about the x mid-plane, the mirrored left
    mask matches the right one within `tolerance` voxels."""
    diff = int((left[::-1, :, :] != right).sum())
    if diff > tolerance:
        return [f"mirrored left mask differs from right mask in {diff} voxels "
                f"(tolerance {tolerance})"]
    return []


def iterations(timing, n_max, steps=None):
    """Every side of a `segment` run took n_max iterations (the command line
    has no early stop), and a traced run counted as many `step` calls."""
    problems = []
    counts = {side: v["iterations"] for side, v in timing["sides"].items()}
    if sorted(counts) != ["left", "right"] or any(n != n_max for n in counts.values()):
        problems.append(f"timing.json iterations {counts}, expected {n_max} per side")
    if steps is not None and steps != sum(counts.values()):
        problems.append(f"traced step calls {steps} != timing.json iterations "
                        f"{sum(counts.values())}")
    return problems


def cleanup(name, dirty, cleaned, tube, injected, straight):
    """A cleaned mask is a subset of its input; on a straight tube, cleanup
    removes most injected voxels and leaves the tube itself intact."""
    problems = []
    grown = int((cleaned & ~dirty).sum())
    if grown:
        problems.append(f"{name}: cleanup added {grown} voxels")
    if straight:
        removed = 1.0 - int((cleaned & injected).sum()) / int(injected.sum())
        if removed < MIN_INJECTED_REMOVED:
            problems.append(f"{name}: only {removed:.1%} of injected voxels removed")
        change = abs(int((cleaned & tube).sum()) - int(tube.sum())) / int(tube.sum())
        if change >= MAX_TUBE_CHANGE:
            problems.append(f"{name}: tube changed by {change:.2%}")
    return problems


def overlap_report(name, report, mask, truth):
    """Dice and Jaccard of a report equal counts taken from the masks."""
    inter = int((mask & truth).sum())
    union = int((mask | truth).sum())
    expected = {"dice": dice(mask, truth), "jaccard": inter / union if union else 1.0}
    return [f"{name}: report {key} {report[key]!r} != counted {value!r}"
            for key, value in expected.items()
            if abs(report[key] - value) > REPORT_TOLERANCE]


def _surface(mask):
    """Foreground voxels with a background face-neighbour, the volume border
    counting as background."""
    inner = ndimage.binary_erosion(mask, structure=ndimage.generate_binary_structure(3, 1),
                                   border_value=0)
    return np.argwhere(mask & ~inner).astype(np.float64)


def _nearest(points, others):
    return np.concatenate([cdist(points[i:i + _CDIST_BLOCK], others).min(axis=1)
                           for i in range(0, len(points), _CDIST_BLOCK)])


def distance_report(name, report, mask, truth, spacing=(1.0, 1.0, 1.0)):
    """Hausdorff distance and ASSD of a report equal brute-force pairwise
    distances between the two surfaces."""
    pa = _surface(mask) * np.asarray(spacing)
    pb = _surface(truth) * np.asarray(spacing)
    d_ab = _nearest(pa, pb)
    d_ba = _nearest(pb, pa)
    expected = {"hausdorff": float(max(d_ab.max(), d_ba.max())),
                "assd": float((d_ab.sum() + d_ba.sum()) / (len(pa) + len(pb)))}
    return [f"{name}: report {key} {report[key]!r} != brute force {value!r}"
            for key, value in expected.items()
            if abs(report[key] - value) > REPORT_TOLERANCE * max(1.0, value)]
