"""Dense 3D volumes, masks and the header+raw file format shared by the toolkit.

Arrays are stored as numpy arrays of shape (nx, ny, nz); the on-disk raw
layout is little-endian with x varying fastest, i.e. linear index
i + nx*(j + ny*k).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_DTYPES = {
    "i16": np.dtype("<i2"),
    "f32": np.dtype("<f4"),
    "u8": np.dtype("u1"),
}


class VolumeError(Exception):
    """Base class for volume I/O and validation failures."""


class HeaderError(VolumeError):
    """Missing file, malformed header or unsupported dtype."""


class RawSizeError(VolumeError):
    """Raw byte count does not match dims and dtype."""


@dataclass(frozen=True)
class VoxelIndex:
    i: int
    j: int
    k: int

    def as_tuple(self):
        return (self.i, self.j, self.k)


@dataclass
class ScalarVolume:
    """3D scalar grid (image intensity, level-set field or speed)."""

    values: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise VolumeError(f"expected a 3D array, got ndim={self.values.ndim}")
        if min(self.values.shape) < 3:
            raise VolumeError(f"dims must be >= 3 per axis, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise VolumeError("volume contains non-finite values")
        self.spacing = tuple(float(s) for s in self.spacing)

    @property
    def dims(self):
        return self.values.shape


@dataclass
class BinaryMask:
    """3D boolean grid; True marks segmented voxels."""

    values: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.values = np.asarray(self.values).astype(bool)
        if self.values.ndim != 3:
            raise VolumeError(f"expected a 3D array, got ndim={self.values.ndim}")
        self.spacing = tuple(float(s) for s in self.spacing)

    @property
    def dims(self):
        return self.values.shape

    def count(self):
        return int(self.values.sum())


def _read_header(path: Path):
    if not path.is_file():
        raise HeaderError(f"header file not found: {path}")
    try:
        header = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise HeaderError(f"malformed header {path}: {e}") from e
    if not isinstance(header, dict):
        raise HeaderError(f"header {path} is not a JSON object")
    for key in ("dims", "spacing", "dtype", "data"):
        if key not in header:
            raise HeaderError(f"header {path} missing field '{key}'")
    dims = header["dims"]
    if not (_is_triple(dims, int) and all(d > 0 for d in dims)):
        raise HeaderError(f"header {path} has invalid dims {dims}: "
                          "expected three positive integers")
    spacing = header["spacing"]
    if not (_is_triple(spacing, (int, float))
            and all(math.isfinite(s) and s > 0 for s in spacing)):
        raise HeaderError(f"header {path} has invalid spacing {spacing}: "
                          "expected three finite positive numbers")
    if not isinstance(header["dtype"], str) or header["dtype"] not in _DTYPES:
        raise HeaderError(f"unsupported dtype {header['dtype']!r} in {path}")
    if not isinstance(header["data"], str):
        raise HeaderError(f"header {path} has invalid data {header['data']!r}: "
                          "expected a file name")
    return header


def _is_triple(value, types):
    """Whether `value` is a list of three numbers of `types`, bools excluded."""
    return (isinstance(value, list) and len(value) == 3
            and all(isinstance(v, types) and not isinstance(v, bool) for v in value))


def _read_raw(header_path: Path, header):
    dims = tuple(int(d) for d in header["dims"])
    dtype = _DTYPES[header["dtype"]]
    raw_path = header_path.parent / header["data"]
    if not raw_path.is_file():
        raise HeaderError(f"raw file not found: {raw_path}")
    raw = raw_path.read_bytes()
    expected = dims[0] * dims[1] * dims[2] * dtype.itemsize
    if len(raw) != expected:
        raise RawSizeError(
            f"{raw_path}: expected {expected} bytes for dims {dims} "
            f"dtype {header['dtype']}, found {len(raw)}"
        )
    arr = np.frombuffer(raw, dtype=dtype).reshape(dims, order="F")
    return arr, tuple(float(s) for s in header["spacing"])


def load_volume(path) -> ScalarVolume:
    """Load a header+raw pair as a ScalarVolume (values widened to float64)."""
    path = Path(path)
    header = _read_header(path)
    arr, spacing = _read_raw(path, header)
    return ScalarVolume(arr.astype(np.float64), spacing)


def load_mask(path) -> BinaryMask:
    """Load a u8 header+raw pair as a BinaryMask (nonzero = foreground)."""
    path = Path(path)
    header = _read_header(path)
    if header["dtype"] != "u8":
        raise HeaderError(f"mask file {path} must use dtype u8, got '{header['dtype']}'")
    arr, spacing = _read_raw(path, header)
    return BinaryMask(arr != 0, spacing)


def store_volume(vol, path, dtype=None):
    """Write a ScalarVolume or BinaryMask as a header+raw pair.

    Masks are always stored as u8 with values in {0, 1}; scalar volumes
    default to f32.
    """
    path = Path(path)
    if isinstance(vol, BinaryMask):
        dtype = "u8"
        arr = vol.values.astype(np.uint8)
    else:
        dtype = dtype or "f32"
        if dtype not in _DTYPES:
            raise HeaderError(f"unsupported dtype '{dtype}'")
        arr = vol.values.astype(_DTYPES[dtype])
    raw_name = path.stem + ".raw"
    header = {
        "dims": list(vol.dims),
        "spacing": list(vol.spacing),
        "dtype": dtype,
        "data": raw_name,
    }
    path.write_text(json.dumps(header, indent=2))
    (path.parent / raw_name).write_bytes(
        np.asfortranarray(arr).tobytes(order="F")
    )
