"""The 18 suite runs against the digests in `suite_digests.json`; see
README, "Tests".  A change that moves the masks on purpose re-records the
file, which prints the runs that moved:

    PYTHONPATH=src python tests/test_suite_digests.py
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from levelseg.metrics import compute_report

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

DIGESTS = Path(__file__).with_name("suite_digests.json")
MASK_BYTES = "one byte per voxel (0 or 1), the bool mask in C order, as np.ndarray.tobytes()"
STEP_FIELDS = ("iterations", "dt", "active_voxels")


def build():
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "cpu_features": " ".join(sorted(name for name, on in __cpu_features__.items() if on))}


def digests(suite):
    """Per run, keyed phantom/model/side: the loop's iterations, `dt` and
    stepped voxels, and for the raw and the postprocessed mask its hash and
    its report against the truth.  Floats are `float.hex`, so they compare
    bit for bit."""
    out = {}
    for (name, model, side), run in suite.runs.items():
        fields = {"iterations": run.result.iterations, "dt": float(run.result.dt).hex(),
                  "active_voxels": run.result.active_voxels}
        for form, mask in (("raw", run.result.mask), ("cleaned", run.cleaned)):
            fields[f"{form}_sha256"] = hashlib.sha256(mask.values.tobytes(order="C")).hexdigest()
            for metric, value in vars(compute_report(mask, run.truth)).items():
                fields[f"{form}_{metric}"] = value.hex()
        out[f"{name}/{model.value}/{side}"] = fields
    return out


def _moved(before, after, fields=None):
    """The runs whose `fields` (all by default) differ, with those fields."""
    moved = {}
    for key, digest in after.items():
        changed = [f for f in fields or digest if before.get(key, {}).get(f) != digest[f]]
        if changed:
            moved[key] = changed
    return moved


def test_suite_runs_match_digests(suite_runs):
    recorded = json.loads(DIGESTS.read_text())
    measured = digests(suite_runs)
    assert sorted(measured) == sorted(recorded["runs"]) and len(measured) == 18
    moved = _moved(recorded["runs"], measured, STEP_FIELDS)
    assert not moved, f"runs moved: {moved}"
    here = build()
    other = {k: (v, here[k]) for k, v in recorded["build"].items() if v != here[k]}
    if other:
        pytest.skip(f"iterations, dt and active_voxels match; masks and metrics not compared, "
                    f"recorded on another build (recorded, here): {other}")
    moved = _moved(recorded["runs"], measured)
    assert not moved, f"runs moved: {moved}"


if __name__ == "__main__":
    from conftest import run_suite

    before = json.loads(DIGESTS.read_text())["runs"] if DIGESTS.exists() else {}
    runs = digests(run_suite())
    # one line per run, so a diff of the file shows the runs that moved
    lines = [f" {json.dumps(key)}: {json.dumps(digest)}" for key, digest in runs.items()]
    DIGESTS.write_text(
        f'{{"mask_bytes": {json.dumps(MASK_BYTES)},\n"build": {json.dumps(build())},\n'
        '"runs": {\n' + ",\n".join(lines) + "\n}}\n")
    moved = _moved(before, runs)
    for key, fields in moved.items():
        print(f"{key}: {', '.join(fields)}")
    print(f"{len(moved)} of {len(runs)} runs moved; wrote {DIGESTS}")
