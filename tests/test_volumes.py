"""Volume containers and the header+raw file format."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelseg.volumes import (
    BinaryMask,
    HeaderError,
    RawSizeError,
    ScalarVolume,
    VolumeError,
    VoxelIndex,
    load_mask,
    load_volume,
    store_volume,
)


def test_scalar_volume_validation():
    with pytest.raises(VolumeError):
        ScalarVolume(np.zeros((4, 4)))
    with pytest.raises(VolumeError):
        ScalarVolume(np.zeros((2, 4, 4)))
    bad = np.zeros((4, 4, 4))
    bad[1, 2, 3] = np.nan
    with pytest.raises(VolumeError):
        ScalarVolume(bad)


def test_voxel_index_frozen_tuple():
    idx = VoxelIndex(1, 2, 3)
    assert idx.as_tuple() == (1, 2, 3)
    with pytest.raises(Exception):
        idx.i = 9


def test_round_trip_constant_f32(tmp_path):
    vol = ScalarVolume(np.full((5, 6, 7), 7.0), spacing=(0.8, 0.8, 2.5))
    store_volume(vol, tmp_path / "c.json")
    back = load_volume(tmp_path / "c.json")
    assert back.dims == (5, 6, 7)
    assert back.spacing == (0.8, 0.8, 2.5)
    assert np.array_equal(back.values, vol.values)


def test_round_trip_i16(tmp_path):
    rng = np.random.default_rng(0)
    vol = ScalarVolume(rng.integers(-1000, 1000, size=(6, 5, 4)).astype(float))
    store_volume(vol, tmp_path / "v.json", dtype="i16")
    back = load_volume(tmp_path / "v.json")
    assert np.array_equal(back.values, vol.values)


def test_round_trip_mask(tmp_path):
    m = np.zeros((4, 4, 4), dtype=bool)
    m[1, 1, 1] = m[2, 2, 2] = m[3, 0, 0] = m[0, 3, 1] = m[1, 0, 3] = True
    mask = BinaryMask(m)
    store_volume(mask, tmp_path / "m.json")
    back = load_mask(tmp_path / "m.json")
    assert back.count() == 5
    assert np.array_equal(back.values, m)


def test_raw_layout_is_x_fastest(tmp_path):
    # voxel (i,j,k) stored at linear offset i + nx*(j + ny*k)
    dims = (3, 4, 5)
    i, j, k = np.indices(dims)
    ramp = i + dims[0] * (j + dims[1] * k)
    store_volume(ScalarVolume(ramp), tmp_path / "r.json", dtype="f32")
    raw = (tmp_path / "r.raw").read_bytes()
    flat = np.frombuffer(raw, dtype="<f4")
    assert np.array_equal(flat, np.arange(3 * 4 * 5, dtype="<f4"))


def test_i16_byte_count(tmp_path):
    store_volume(ScalarVolume(np.zeros((4, 4, 4))), tmp_path / "v.json", dtype="i16")
    assert len((tmp_path / "v.raw").read_bytes()) == 128
    vol = load_volume(tmp_path / "v.json")
    assert vol.values.size == 64


def test_raw_size_mismatch(tmp_path):
    store_volume(ScalarVolume(np.zeros((4, 4, 4))), tmp_path / "v.json", dtype="i16")
    (tmp_path / "v.raw").write_bytes(bytes(100))
    with pytest.raises(RawSizeError):
        load_volume(tmp_path / "v.json")


def test_missing_header(tmp_path):
    with pytest.raises(HeaderError):
        load_volume(tmp_path / "nope.json")
    with pytest.raises(HeaderError):
        load_volume(tmp_path)  # a directory, not a header file


def test_malformed_header(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(HeaderError):
        load_volume(tmp_path / "bad.json")


def test_missing_header_field(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"dims": [4, 4, 4]}))
    with pytest.raises(HeaderError):
        load_volume(tmp_path / "bad.json")


def test_unsupported_dtype(tmp_path):
    store_volume(ScalarVolume(np.zeros((4, 4, 4))), tmp_path / "v.json")
    header = json.loads((tmp_path / "v.json").read_text())
    header["dtype"] = "f64"
    (tmp_path / "v.json").write_text(json.dumps(header))
    with pytest.raises(HeaderError):
        load_volume(tmp_path / "v.json")
    with pytest.raises(HeaderError):
        store_volume(ScalarVolume(np.zeros((4, 4, 4))), tmp_path / "w.json", dtype="f64")


def test_mask_requires_u8(tmp_path):
    store_volume(ScalarVolume(np.zeros((4, 4, 4))), tmp_path / "v.json", dtype="f32")
    with pytest.raises(HeaderError):
        load_mask(tmp_path / "v.json")


def test_corruption_detected_by_values(tmp_path):
    # flipping one raw byte must change the loaded volume
    rng = np.random.default_rng(3)
    vol = ScalarVolume(rng.integers(0, 100, size=(4, 4, 4)).astype(float))
    store_volume(vol, tmp_path / "v.json", dtype="i16")
    raw = bytearray((tmp_path / "v.raw").read_bytes())
    raw[10] ^= 0xFF
    (tmp_path / "v.raw").write_bytes(bytes(raw))
    back = load_volume(tmp_path / "v.json")
    assert not np.array_equal(back.values, vol.values)


@settings(max_examples=25, deadline=None)
@given(
    dims=st.tuples(*[st.integers(3, 8)] * 3),
    seed=st.integers(0, 2**31),
    dtype=st.sampled_from(["i16", "f32", "u8"]),
)
def test_round_trip_property(tmp_path_factory, dims, seed, dtype):
    tmp = tmp_path_factory.mktemp("vol")
    rng = np.random.default_rng(seed)
    if dtype == "i16":
        vals = rng.integers(-(2**15), 2**15, size=dims).astype(float)
    elif dtype == "u8":
        vals = rng.integers(0, 256, size=dims).astype(float)
    else:
        vals = rng.standard_normal(dims).astype(np.float32).astype(float)
    store_volume(ScalarVolume(vals), tmp / "v.json", dtype=dtype)
    back = load_volume(tmp / "v.json")
    assert np.array_equal(back.values, vals)
