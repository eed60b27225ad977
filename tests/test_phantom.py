"""Synthetic phantom generation and its analytic ground truth."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelseg.phantom import (
    OrganSpec,
    PhantomError,
    PhantomSpec,
    TubeSpec,
    default_suite,
    generate_phantom,
    spec_from_json,
    spec_to_json,
    suite_spec,
    tube_seed,
)
from levelseg.preprocess import tissue_mask
from levelseg.volumes import VoxelIndex


def _simple_spec(noise_std=0.0, rng_seed=0, nz=9):
    tubes = [
        TubeSpec([(8.0, 16.0)] * nz, [4.0] * nz),
        TubeSpec([(24.0, 16.0)] * nz, [4.0] * nz),
    ]
    return PhantomSpec(name="t", dims=(32, 32, nz), tubes=tubes,
                       noise_std=noise_std, rng_seed=rng_seed)


def _disk_count(center, radius, nx=32, ny=32):
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    return int(((ii - center[0]) ** 2 + (jj - center[1]) ** 2 <= radius**2).sum())


def test_noiseless_muscle_exact():
    raw, left, right = generate_phantom(_simple_spec(noise_std=0.0))
    assert np.all(raw.values[left.values] == 60.0)
    assert np.all(raw.values[right.values] == 60.0)


def test_truth_cardinality_matches_disks():
    spec = _simple_spec()
    raw, left, right = generate_phantom(spec)
    nz = spec.dims[2]
    assert left.count() == nz * _disk_count((8, 16), 4)
    assert right.count() == nz * _disk_count((24, 16), 4)


def test_determinism():
    spec = _simple_spec(noise_std=10.0, rng_seed=42)
    a, _, _ = generate_phantom(spec)
    b, _, _ = generate_phantom(spec)
    assert np.array_equal(a.values, b.values)


def test_truth_independent_of_noise():
    _, l0, r0 = generate_phantom(_simple_spec(noise_std=0.0))
    _, l1, r1 = generate_phantom(_simple_spec(noise_std=25.0, rng_seed=7))
    assert np.array_equal(l0.values, l1.values)
    assert np.array_equal(r0.values, r1.values)


def test_left_right_ordering():
    spec = _simple_spec()
    spec.tubes = spec.tubes[::-1]  # declaration order must not matter
    _, left, right = generate_phantom(spec)
    assert np.argwhere(left.values)[:, 0].mean() < np.argwhere(right.values)[:, 0].mean()


def test_overlapping_tubes_rejected():
    nz = 9
    tubes = [
        TubeSpec([(14.0, 16.0)] * nz, [4.0] * nz),
        TubeSpec([(18.0, 16.0)] * nz, [4.0] * nz),
    ]
    spec = PhantomSpec(name="x", dims=(32, 32, nz), tubes=tubes)
    with pytest.raises(PhantomError, match="overlap"):
        generate_phantom(spec)


def test_spec_validation():
    nz = 9
    tube = TubeSpec([(8.0, 16.0)] * nz, [4.0] * nz)
    with pytest.raises(PhantomError, match="two tubes"):
        PhantomSpec(name="x", dims=(32, 32, nz), tubes=[tube])
    with pytest.raises(PhantomError, match="radii"):
        TubeSpec([(8.0, 16.0)] * nz, [1.0] * nz)
    with pytest.raises(PhantomError, match="per slice"):
        PhantomSpec(name="x", dims=(32, 32, nz + 1), tubes=[tube, tube])
    with pytest.raises(PhantomError, match="muscle HU"):
        PhantomSpec(name="x", dims=(32, 32, nz),
                    tubes=[tube, TubeSpec([(24.0, 16.0)] * nz, [4.0] * nz)],
                    hu_muscle=200.0)


def test_histogram_contains_levels():
    # every declared HU level present within 5 sigma of the noise
    spec = suite_spec("easy")
    raw, _, _ = generate_phantom(spec)
    tol = 5 * spec.noise_std
    for level in (spec.hu_muscle, spec.hu_fat, spec.hu_bone, spec.hu_air):
        assert np.any(np.abs(raw.values - level) <= tol), level


def test_suite_generates_and_slice_counts():
    suite = default_suite()
    assert [s.name for s in suite] == ["easy", "medium", "hard"]
    for spec in suite:
        raw, left, right = generate_phantom(spec)
        assert raw.dims == spec.dims
        assert left.count() > 0 and right.count() > 0
        assert 31 <= spec.dims[2] <= 57  # clinical slice-count range


def test_unknown_suite_name():
    with pytest.raises(PhantomError, match="unknown"):
        suite_spec("impossible")


def test_hard_distractor_shares_muscle_hu():
    # tissue mask cannot separate the distractor from the tube: they are
    # both at muscle HU and touch over the distractor's wide section
    spec = suite_spec("hard")
    raw, left, _ = generate_phantom(spec)
    mask = tissue_mask(raw)
    assert mask.count() > left.count() * 2 + 100  # distractor adds tissue
    k = 20  # inside the wide section
    col = mask.values[:, :, k]
    # a 4-connected path exists between tube center and distractor center
    from scipy import ndimage
    labels, _ = ndimage.label(col)
    assert labels[22, 40] == labels[22, 58] != 0


def test_tube_seed_positions():
    spec = suite_spec("easy")
    left = tube_seed(spec, "left")
    right = tube_seed(spec, "right")
    assert left.as_tuple() == (22, 40, spec.dims[2] // 2)
    assert right.as_tuple() == (57, 40, spec.dims[2] // 2)


def test_seed_is_muscle():
    for name in ("easy", "medium", "hard"):
        spec = suite_spec(name)
        raw, left, right = generate_phantom(spec)
        assert left.values[tube_seed(spec, "left").as_tuple()]
        assert right.values[tube_seed(spec, "right").as_tuple()]


def test_spec_json_round_trip():
    for name in ("easy", "medium", "hard"):
        spec = suite_spec(name)
        back = spec_from_json(spec_to_json(spec))
        a, la, ra = generate_phantom(spec)
        b, lb, rb = generate_phantom(back)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(la.values, lb.values)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_pairs = st.tuples(_finite, _finite)


@st.composite
def _phantom_specs(draw):
    nz = draw(st.integers(1, 4))

    def tube():
        return TubeSpec(draw(st.lists(_pairs, min_size=nz, max_size=nz)),
                        draw(st.lists(st.floats(2.0, 50.0), min_size=nz, max_size=nz)))

    organ = st.builds(OrganSpec, _pairs, _pairs, _finite, st.sampled_from(["ellipse", "box"]))
    return PhantomSpec(
        name=draw(st.text(max_size=8)),
        dims=(draw(st.integers(1, 100)), draw(st.integers(1, 100)), nz),
        tubes=[tube(), tube()],
        distractors=[tube() for _ in range(draw(st.integers(0, 2)))],
        organs=draw(st.lists(organ, max_size=2)),
        bone_center=draw(st.none() | _pairs),
        bone_axes=draw(_pairs),
        hu_muscle=draw(st.floats(5.0, 120.0)),
        hu_fat=draw(_finite),
        hu_bone=draw(_finite),
        hu_air=draw(_finite),
        noise_std=draw(st.floats(0.0, 100.0)),
        rng_seed=draw(st.integers(0, 2**32)),
        air_border=draw(st.integers(0, 5)),
    )


@settings(max_examples=50, deadline=None)
@given(spec=_phantom_specs())
def test_spec_json_round_trip_property(spec):
    assert spec_from_json(spec_to_json(spec)) == spec


def test_spec_json_absent_fields_take_defaults():
    spec = _simple_spec()
    doc = json.loads(spec_to_json(spec))
    minimal = {key: doc[key] for key in ("name", "dims", "tubes")}
    assert spec_from_json(json.dumps(minimal)) == PhantomSpec(
        name=spec.name, dims=spec.dims, tubes=spec.tubes)
    del minimal["name"]
    assert spec_from_json(json.dumps(minimal)).name == "custom"


def test_spec_json_malformed():
    with pytest.raises(PhantomError, match="malformed"):
        spec_from_json("{nope")
    with pytest.raises(PhantomError, match="invalid"):
        spec_from_json("{\"name\": \"x\"}")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31), noise=st.floats(0.0, 30.0))
def test_truth_invariant_property(seed, noise):
    spec = _simple_spec(noise_std=noise, rng_seed=seed)
    _, left, right = generate_phantom(spec)
    ref_l, ref_r = generate_phantom(_simple_spec())[1:]
    assert np.array_equal(left.values, ref_l.values)
    assert np.array_equal(right.values, ref_r.values)
