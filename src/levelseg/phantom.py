"""Synthetic CT-like phantoms with analytic ground truth.

A phantom is a fat background with an air frame, a bone ellipse, optional
non-muscle organ cylinders, and two muscle tubes whose exact voxels form
the ground-truth masks.  Everything is deterministic for a given rng seed.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral
from pathlib import Path

import numpy as np

from .preprocess import TISSUE_INTERVAL
from .solver import SolverConfig
from .speed import Model
from .volumes import BinaryMask, ScalarVolume, VoxelIndex


class PhantomError(Exception):
    pass


@dataclass
class TubeSpec:
    """Per-slice circular cross sections: centers[k] = (x, y), radii[k]."""

    centers: list
    radii: list

    def __post_init__(self):
        if len(self.centers) != len(self.radii):
            raise PhantomError("centers and radii must have equal length")
        if any(r < 2 for r in self.radii):
            raise PhantomError("tube radii must be >= 2 voxels")


@dataclass
class OrganSpec:
    """Elliptical or box cylinder through all slices, at an arbitrary HU level."""

    center: tuple   # (x, y)
    axes: tuple     # semi-axes (ellipse) or half-widths (box) in voxels
    hu: float
    shape: str = "ellipse"  # "ellipse" | "box"


@dataclass
class PhantomSpec:
    name: str
    dims: tuple
    tubes: list                 # two TubeSpec, ground truth
    distractors: list = field(default_factory=list)  # TubeSpec at muscle HU, not truth
    organs: list = field(default_factory=list)       # OrganSpec fillers
    bone_center: tuple = None   # defaults to the volume center
    bone_axes: tuple = (5.0, 7.0)
    hu_muscle: float = 60.0
    hu_fat: float = -100.0
    hu_bone: float = 400.0
    hu_air: float = -1000.0
    noise_std: float = 10.0
    rng_seed: int = 0
    air_border: int = 2

    def __post_init__(self):
        if len(self.tubes) != 2:
            raise PhantomError("a phantom needs exactly two tubes")
        if len(self.dims) != 3 or not all(isinstance(d, Integral) and d > 0
                                          for d in self.dims):
            raise PhantomError(f"dims must be three positive integers, got {self.dims}")
        nz = self.dims[2]
        for tube in self.tubes + self.distractors:
            if len(tube.centers) != nz:
                raise PhantomError("tube must define one cross section per slice")
        low, high = TISSUE_INTERVAL
        if not low <= self.hu_muscle <= high:
            raise PhantomError(
                f"muscle HU must lie inside the tissue interval [{low:g}, {high:g}]")


def _disk_mask(nx, ny, center, radius):
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    return (ii - center[0]) ** 2 + (jj - center[1]) ** 2 <= radius**2


def _ellipse_mask(nx, ny, center, axes):
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    return ((ii - center[0]) / axes[0]) ** 2 + ((jj - center[1]) / axes[1]) ** 2 <= 1.0


def _box_mask(nx, ny, center, half_widths):
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    return (np.abs(ii - center[0]) <= half_widths[0]) & (np.abs(jj - center[1]) <= half_widths[1])


def _organ_mask(nx, ny, organ: OrganSpec):
    if organ.shape == "box":
        return _box_mask(nx, ny, organ.center, organ.axes)
    return _ellipse_mask(nx, ny, organ.center, organ.axes)


def _tube_mask(dims, tube: TubeSpec):
    nx, ny, nz = dims
    out = np.zeros(dims, dtype=bool)
    for k in range(nz):
        out[:, :, k] = _disk_mask(nx, ny, tube.centers[k], tube.radii[k])
    return out


def generate_phantom(spec: PhantomSpec):
    """Render the phantom; returns (raw HU volume, truth_left, truth_right).

    Truth masks are the exact pre-noise tube voxels; the left tube is the
    one with the smaller mean x center.
    """
    nx, ny, nz = spec.dims
    vol = np.full(spec.dims, spec.hu_fat, dtype=np.float64)

    b = spec.air_border
    if b > 0:
        frame = np.ones((nx, ny), dtype=bool)
        frame[b:-b, b:-b] = False
        vol[frame, :] = spec.hu_air

    for organ in spec.organs:
        region = _organ_mask(nx, ny, organ)
        vol[region, :] = organ.hu

    bone_center = spec.bone_center or ((nx - 1) / 2.0, (ny - 1) / 2.0)
    bone = _ellipse_mask(nx, ny, bone_center, spec.bone_axes)
    vol[bone, :] = spec.hu_bone

    for tube in spec.distractors:
        vol[_tube_mask(spec.dims, tube)] = spec.hu_muscle

    tube_masks = [_tube_mask(spec.dims, t) for t in spec.tubes]
    if np.any(tube_masks[0] & tube_masks[1]):
        raise PhantomError("overlapping tubes")
    for m in tube_masks:
        vol[m] = spec.hu_muscle

    if spec.noise_std > 0:
        rng = np.random.default_rng(spec.rng_seed)
        vol = vol + rng.normal(0.0, spec.noise_std, size=spec.dims)

    order = np.argsort([np.mean([c[0] for c in t.centers]) for t in spec.tubes])
    left = BinaryMask(tube_masks[order[0]])
    right = BinaryMask(tube_masks[order[1]])
    return ScalarVolume(vol), left, right


def tube_seed(spec: PhantomSpec, side="left") -> VoxelIndex:
    """Voxel at a tube's center on the middle slice, for initialization."""
    means = [np.mean([c[0] for c in t.centers]) for t in spec.tubes]
    idx = int(np.argmin(means)) if side == "left" else int(np.argmax(means))
    k = spec.dims[2] // 2
    cx, cy = spec.tubes[idx].centers[k]
    return VoxelIndex(int(round(cx)), int(round(cy)), k)


def _straight(center, radius, nz):
    return TubeSpec([center] * nz, [radius] * nz)


def _curved(center, radius_top, radius_bottom, amplitude, nz):
    # the first/last cross sections repeat their neighbours.  The step no
    # longer needs this (its stencils clamp at the grid faces), but
    # dropping it would move the medium phantom's suite masks, so it stays
    centers = []
    radii = []
    for k in range(nz):
        s = k / (nz - 1)
        drift = amplitude * 0.5 * (1.0 - math.cos(2.0 * math.pi * s))
        centers.append((center[0] + drift, center[1]))
        radii.append(radius_bottom + (radius_top - radius_bottom) * 0.5 * (1.0 - math.cos(math.pi * s)))
    centers[0], radii[0] = centers[1], radii[1]
    centers[-1], radii[-1] = centers[-2], radii[-2]
    return TubeSpec(centers, radii)


_BONE_CENTER = (39.5, 12.0)  # inside the upper filler band, away from tubes


def _fillers():
    # Soft structures between fat and muscle HU.  They stay outside the
    # [5, 120] tissue interval but hold enough histogram mass between the
    # bed level and muscle that equalization leaves a strong step at the
    # tube boundaries.  The bed box surrounds the tubes; the two bands
    # fill the rest of the slice.
    return [
        OrganSpec(center=(39.5, 39.5), axes=(38.5, 13.5), hu=-20.0, shape="box"),
        OrganSpec(center=(39.5, 13.0), axes=(38.5, 12.0), hu=-12.0, shape="box"),
        OrganSpec(center=(39.5, 66.0), axes=(38.5, 12.0), hu=-8.0, shape="box"),
        OrganSpec(center=(70.0, 11.0), axes=(2.0, 2.0), hu=-100.0, shape="box"),
    ]


def default_suite():
    """Three canonical phantoms: straight tubes, curved tapering tubes, and
    tubes with a touching same-HU organ."""
    nz_easy, nz_med, nz_hard = 41, 41, 45
    easy = PhantomSpec(
        name="easy",
        dims=(80, 80, nz_easy),
        tubes=[_straight((22.0, 40.0), 11.0, nz_easy),
               _straight((57.0, 40.0), 11.0, nz_easy)],
        organs=_fillers(),
        bone_center=_BONE_CENTER,
        noise_std=0.5,
        air_border=1,
    )
    medium = PhantomSpec(
        name="medium",
        dims=(80, 80, nz_med),
        tubes=[_curved((20.0, 40.0), 13.0, 10.0, 3.0, nz_med),
               _curved((61.0, 40.0), 13.0, 10.0, 3.0, nz_med)],
        organs=_fillers(),
        bone_center=_BONE_CENTER,
        noise_std=2.5,
        air_border=1,
    )
    hard_distractor = TubeSpec(
        [(22.0, 58.0)] * nz_hard,
        [9.0 if 12 <= k <= 30 else 5.0 for k in range(nz_hard)],
    )
    hard = PhantomSpec(
        name="hard",
        dims=(80, 80, nz_hard),
        tubes=[_straight((22.0, 40.0), 11.0, nz_hard),
               _straight((57.0, 40.0), 11.0, nz_hard)],
        distractors=[hard_distractor],
        organs=_fillers(),
        bone_center=_BONE_CENTER,
        noise_std=2.5,
        air_border=1,
    )
    return [easy, medium, hard]


# per-phantom run settings mirroring the per-case choices of the benchmark:
# smoothing deviation, iteration budget for the first-order models, and the
# larger budget the parabolic time step requires
SUITE_PARAMS = {
    "easy": {"sigma": 1.75, "n_max": 400, "n_max_second_order": 2000},
    "medium": {"sigma": 1.75, "n_max": 500, "n_max_second_order": 2500},
    "hard": {"sigma": 1.75, "n_max": 500, "n_max_second_order": 2500},
}


def suite_config(name: str, model: Model) -> SolverConfig:
    """The config of a suite run of `model` on the phantom `name`: its
    `SUITE_PARAMS` sigma and budget, the second-order one for `gmfd2`."""
    params = SUITE_PARAMS[name]
    budget = "n_max_second_order" if model is Model.GEODESIC2 else "n_max"
    return SolverConfig(model=model, sigma=params["sigma"], n_max=params[budget])


def suite_spec(name: str) -> PhantomSpec:
    for spec in default_suite():
        if spec.name == name:
            return spec
    raise PhantomError(f"unknown suite phantom '{name}'")


def spec_to_json(spec: PhantomSpec) -> str:
    return json.dumps(asdict(spec), indent=2)


def _from_doc(cls, doc):
    """`cls(**doc)` with the JSON lists of its `tuple` fields made tuples."""
    tuples = {f.name for f in fields(cls) if f.type == "tuple"}
    return cls(**{k: tuple(v) if k in tuples and v is not None else v
                  for k, v in doc.items()})


def _tube_from_doc(doc):
    return TubeSpec(**{**doc, "centers": [tuple(c) for c in doc["centers"]]})


def spec_from_json(text: str) -> PhantomSpec:
    """Inverse of `spec_to_json`; absent fields take the `PhantomSpec`
    defaults and an absent name reads "custom"."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise PhantomError(f"malformed phantom spec: {e}") from e
    try:
        doc = {"name": "custom", **doc}
        for key in ("tubes", "distractors"):
            if key in doc:
                doc[key] = [_tube_from_doc(t) for t in doc[key]]
        if "organs" in doc:
            doc["organs"] = [_from_doc(OrganSpec, o) for o in doc["organs"]]
        return _from_doc(PhantomSpec, doc)
    except (KeyError, TypeError) as e:
        raise PhantomError(f"invalid phantom spec: {e}") from e


def load_spec(path) -> PhantomSpec:
    return spec_from_json(Path(path).read_text())
