"""Seeded benchmark inputs: phantom specs for the segmentation workloads and
dirty masks for the cleanup workload.

Everything here is a pure function of the benchmark seed, so the same seed
gives the same volumes and masks.  levelseg is only used to describe and
render phantoms (`PhantomSpec`, `generate_phantom`, `tube_seed`), looked up
through its module at call time so that a traced run sees the call.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import import_module

import numpy as np
from scipy import ndimage

# second-order phantom: two straight tubes mirrored about the x mid-plane,
# on a grid small enough for the parabolic time step's many iterations
SECOND_ORDER_DIMS = (52, 44, 21)
SECOND_ORDER_RADIUS = 9.0
SECOND_ORDER_TUBE_X = 14.0

# cleanup: spurious 3x3 blobs per mask, placed as in the phantom
# end-to-end acceptance criterion (outside a 3-voxel guard of the tube)
BLOBS_PER_MASK = 40
BLOB_GUARD = 3


def _phantom():
    return import_module("levelseg.phantom")


def first_order_spec(seed: int):
    """The `medium` suite phantom (curved, tapering tubes) with each tube
    shifted by up to one voxel in x and y, its radii scaled by up to 3%,
    and the noise drawn from `seed`."""
    ph = _phantom()
    base = ph.suite_spec("medium")
    rng = np.random.default_rng([seed, 1])
    tubes = []
    for tube in base.tubes:
        ox, oy = rng.uniform(-1.0, 1.0, 2)
        scale = rng.uniform(0.97, 1.03)
        tubes.append(ph.TubeSpec([(x + ox, y + oy) for x, y in tube.centers],
                                 [r * scale for r in tube.radii]))
    return replace(base, name="first-order", tubes=tubes, rng_seed=seed)


def second_order_spec(seed: int):
    """Two straight tubes of radius 9 +- 0.25 voxels, mirror images of each
    other about the x mid-plane, in a bed box between two filler bands as in
    the suite phantoms.  Only the low-amplitude noise (std 0.5 HU) breaks
    the mirror symmetry."""
    ph = _phantom()
    nx, ny, nz = SECOND_ORDER_DIMS
    rng = np.random.default_rng([seed, 2])
    radius = SECOND_ORDER_RADIUS + rng.uniform(-0.25, 0.25)
    cy = (ny - 1) / 2.0 + rng.uniform(-0.5, 0.5)
    xm = (nx - 1) / 2.0
    bed = radius + 2.5                   # half-height of the bed box
    band = (ny - 2 - 2 * bed) / 4.0      # half-height of each filler band
    organs = [
        ph.OrganSpec(center=(xm, cy), axes=(xm - 1, bed), hu=-20.0, shape="box"),
        ph.OrganSpec(center=(xm, cy - bed - band), axes=(xm - 1, band), hu=-12.0, shape="box"),
        ph.OrganSpec(center=(xm, cy + bed + band), axes=(xm - 1, band), hu=-8.0, shape="box"),
    ]
    left_x = SECOND_ORDER_TUBE_X
    tubes = [ph.TubeSpec([(left_x, cy)] * nz, [radius] * nz),
             ph.TubeSpec([(nx - 1 - left_x, cy)] * nz, [radius] * nz)]
    return ph.PhantomSpec(
        name="second-order", dims=SECOND_ORDER_DIMS, tubes=tubes, organs=organs,
        bone_center=(xm, cy - bed - band), bone_axes=(3.0, 2.0),
        noise_std=0.5, rng_seed=seed, air_border=1,
    )


@dataclass
class DirtyMask:
    """One cleanup input: a truth tube plus a seed-slice bump and spurious
    blobs."""

    name: str            # "<suite phantom>-<side>"
    straight: bool       # straight tube: cleanup must leave it intact
    seed_voxel: object   # levelseg VoxelIndex inside the tube, on its middle slice
    truth: np.ndarray
    injected: np.ndarray
    dirty: np.ndarray


def _seed_slice_bump(tube, seed_voxel, rng):
    """A 3x3 patch on the seed slice, centred just outside the tube along a
    random direction from the seed.  It is 8-connected to the tube on the
    slice cleanup takes as clean, so a correct cleanup keeps it; it keeps
    Dice below 1 and ASSD above 0 however good the cleanup is."""
    k = seed_voxel.k
    theta = rng.uniform(0.0, 2.0 * np.pi)
    direction = np.array([np.cos(theta), np.sin(theta)])
    origin = np.array([seed_voxel.i, seed_voxel.j], dtype=float)
    r = 0.0
    while True:
        i, j = np.rint(origin + r * direction).astype(int)
        if not tube[i, j, k]:
            break
        r += 0.5
    bump = np.zeros_like(tube)
    bump[i - 1:i + 2, j - 1:j + 2, k] = True
    return bump & ~tube


def _blobs(avoid, rng, count):
    """`count` 3x3 in-plane blobs, each outside a BLOB_GUARD-voxel dilation
    of `avoid`, at positions drawn from `rng`."""
    guard = ndimage.binary_dilation(avoid, iterations=BLOB_GUARD)
    nx, ny, nz = avoid.shape
    injected = np.zeros_like(avoid)
    placed = 0
    while placed < count:
        i = rng.integers(2, nx - 3)
        j = rng.integers(2, ny - 3)
        k = rng.integers(1, nz - 1)
        blob = np.zeros_like(avoid)
        blob[i - 1:i + 2, j - 1:j + 2, k] = True
        if not (blob & guard).any():
            injected |= blob
            placed += 1
    return injected


def cleanup_masks(seed: int):
    """Both truth tubes of the `easy`, `medium` and `hard` suite phantoms,
    each with a seed-slice bump and BLOBS_PER_MASK spurious blobs."""
    ph = _phantom()
    out = []
    for name in ("easy", "medium", "hard"):
        spec = ph.suite_spec(name)
        _, truth_left, truth_right = ph.generate_phantom(spec)
        for side, truth in (("left", truth_left), ("right", truth_right)):
            rng = np.random.default_rng([seed, 3, len(out)])
            seed_voxel = ph.tube_seed(spec, side)
            tube = truth.values
            bump = _seed_slice_bump(tube, seed_voxel, rng)
            injected = _blobs(tube | bump, rng, BLOBS_PER_MASK)
            out.append(DirtyMask(
                name=f"{name}-{side}", straight=name != "medium",
                seed_voxel=seed_voxel, truth=tube, injected=injected,
                dirty=tube | bump | injected,
            ))
    return out
