"""End-to-end command-line interface checks."""
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from levelseg import solver
from levelseg.cli import main
from levelseg.metrics import dice
from levelseg.phantom import SUITE_PARAMS
from levelseg.preprocess import PreprocessConfig, preprocess_pipeline
from levelseg.speed import build_speed
from levelseg.volumes import load_mask, load_volume


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("phantom")
    assert main(["phantom", "easy", "--out", str(out)]) == 0
    return out


def test_phantom_outputs(phantom_dir):
    names = {p.name for p in phantom_dir.iterdir()}
    assert {"volume.json", "volume.raw", "truth_left.json", "truth_left.raw",
            "truth_right.json", "truth_right.raw", "spec.json"} <= names
    vol = load_volume(phantom_dir / "volume.json")
    assert vol.dims == (80, 80, 41)


def test_phantom_deterministic(phantom_dir, tmp_path):
    assert main(["phantom", "easy", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "volume.raw").read_bytes() == (phantom_dir / "volume.raw").read_bytes()


def test_phantom_bad_spec(tmp_path):
    bad = tmp_path / "spec.json"
    bad.write_text("{broken")
    assert main(["phantom", "--spec", str(bad), "--out", str(tmp_path / "out")]) == 1


def test_phantom_spec_bad_dims(tmp_path, capsys):
    tube = {"centers": [[2, 2]], "radii": [2]}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dims": [8, 8], "tubes": [tube, tube]}))
    assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_segment_end_to_end(phantom_dir, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "segment",
        "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "22,40,20",
        "--seed-right", "57,40,20",
        "--model", "gmfd1",
        "--nmax", "250",
        "--sigma", "1.75",
        "--out", str(out),
    ])
    assert rc == 0
    for name in ("left.mask.json", "right.mask.json", "merged.mask.json",
                 "left.contours.csv", "right.contours.csv",
                 "manifest.json", "timing.json"):
        assert (out / name).exists(), name

    left = load_mask(out / "left.mask.json")
    truth = load_mask(phantom_dir / "truth_left.json")
    assert dice(left, truth) >= 0.90

    timing = json.loads((out / "timing.json").read_text())
    assert timing["sides"]["left"]["iterations"] == 250
    # each side steps the 18-connected component of the active set that
    # holds its seed; the two tubes' components make up the whole set
    image, tissue = preprocess_pipeline(load_volume(phantom_dir / "volume.json"),
                                        PreprocessConfig(sigma=1.75))
    sp = build_speed(image, tissue)
    active = (sp.g.values != 0) | np.any([c.values != 0 for c in sp.grad_g], axis=0)
    labels, count = ndimage.label(active, ndimage.generate_binary_structure(3, 2))
    assert count == 2
    for side, seed in (("left", (22, 40, 20)), ("right", (57, 40, 20))):
        assert timing["sides"][side]["active_voxels"] == (labels == labels[seed]).sum()
    assert sum(v["active_voxels"] for v in timing["sides"].values()) == active.sum()
    merged = load_mask(out / "merged.mask.json")
    right = load_mask(out / "right.mask.json")
    assert np.array_equal(merged.values, left.values | right.values)

    header = (out / "left.contours.csv").read_text().splitlines()[0]
    assert header == "slice,i,j"


def test_segment_manifest(phantom_dir, tmp_path):
    out = tmp_path / "run"
    volume = str(phantom_dir / "volume.json")
    assert main([
        "segment", "--input", volume,
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "gmfd2", "--nmax", "3", "--sigma", "1.75", "--mu", "1.5",
        "--eta", "0.5", "--epsilon", "0.1", "--p", "1", "--dx", "0.2",
        "--postprocess", "--start-slice", "19", "--out", str(out),
    ]) == 0
    assert json.loads((out / "manifest.json").read_text()) == {
        "input": volume, "out": str(out), "model": "gmfd2",
        "seed_left": [22, 40, 20], "seed_right": [57, 40, 20],
        "mu": 1.5, "eta": 0.5, "epsilon": 0.1, "p": 1, "sigma": 1.75, "dx": 0.2,
        "n_max": 3, "seed_radius_voxels": 5.0, "curvature_delta": 1e-08,
        "early_stop": "off", "stagnation_window": 50,
        "hu_clip_threshold": 120.0, "tissue_interval": [5.0, 120.0],
        "equalization_bins": 256, "postprocess": True, "start_slice": 19,
    }


def test_segment_gmfd2_logs_parabolic_dt(phantom_dir, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "segment", "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "gmfd2", "--nmax", "2", "--out", str(out),
    ])
    assert rc == 0
    assert "0.25*dx^2" in capsys.readouterr().err


def test_segment_missing_seed_is_usage_error(phantom_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "segment", "--input", str(phantom_dir / "volume.json"),
            "--seed-left", "22,40,20",
            "--model", "gmfd1", "--nmax", "5", "--out", str(tmp_path / "x"),
        ])
    assert exc.value.code == 2


def test_segment_bad_seed_format(phantom_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "segment", "--input", str(phantom_dir / "volume.json"),
            "--seed-left", "22,40", "--seed-right", "57,40,20",
            "--model", "gmfd1", "--nmax", "5", "--out", str(tmp_path / "x"),
        ])
    assert exc.value.code == 2


def test_segment_seed_outside_tissue(phantom_dir, tmp_path, capsys):
    rc = main([
        "segment", "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "40,12,20",  # bone region
        "--seed-right", "57,40,20",
        "--model", "gmfd1", "--nmax", "5", "--out", str(tmp_path / "x"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_segment_right_seed_outside_tissue_fails_before_stepping(phantom_dir, tmp_path,
                                                               capsys, monkeypatch):
    def no_step(*args):
        raise AssertionError("step called")

    monkeypatch.setattr(solver, "step", no_step)
    rc = main([
        "segment", "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "22,40,20",
        "--seed-right", "40,12,20",  # bone region
        "--model", "gmfd1", "--nmax", "5", "--out", str(tmp_path / "x"),
    ])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "tissue" in err[0], err


def test_segment_worker_error_is_one_line(phantom_dir, tmp_path, capsys, monkeypatch):
    # the right seed runs on the worker thread; its error ends the run
    original = solver.step

    def failing_step(fld, act, cfg, dt):
        if threading.current_thread() is not threading.main_thread():
            raise solver.BlowupError(f"numerical blow-up at iteration {fld.n + 1}")
        return original(fld, act, cfg, dt)

    monkeypatch.setattr(solver, "step", failing_step)
    before = threading.enumerate()
    rc = main([
        "segment", "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "gmfd1", "--nmax", "400", "--out", str(tmp_path / "x"),
    ])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: numerical blow-up at iteration 1"]
    assert threading.enumerate() == before


def test_segment_blowup_is_one_line_without_warnings(phantom_dir, tmp_path):
    # a huge curvature weight makes gmfd2 overflow; numpy's warnings must
    # not precede the one error line
    env = {**os.environ, "PYTHONPATH": str(Path(solver.__file__).parents[1])}
    proc = subprocess.run([
        sys.executable, "-W", "default", "-m", "levelseg.cli", "segment",
        "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "gmfd2", "--epsilon", "1e6", "--nmax", "50",
        "--out", str(tmp_path / "x"),
    ], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1
    assert "Warning" not in proc.stderr, proc.stderr
    err = proc.stderr.splitlines()
    assert [line for line in err if line.startswith("error:")] == err[-1:], err
    assert err[-1] == "error: numerical blow-up at iteration 18"


@pytest.mark.parametrize("weight", ["--mu", "--eta"])
def test_segment_large_weight_keeps_time_step_stable(phantom_dir, tmp_path, weight):
    # the two tubes are separate components of the active set, so only a
    # time step above the weighted CFL bound can carry the left front into
    # the right tube
    out = tmp_path / "run"
    assert main([
        "segment", "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "gmfd1", "--nmax", "400", "--sigma", "1.75", weight, "4",
        "--out", str(out),
    ]) == 0
    left = load_mask(out / "left.mask.json")
    truth_right = load_mask(phantom_dir / "truth_right.json")
    assert not (left.values & truth_right.values).any()


def _write_header(phantom_dir, tmp_path, edit):
    header = json.loads((phantom_dir / "volume.json").read_text())
    (tmp_path / "volume.raw").write_bytes((phantom_dir / "volume.raw").read_bytes())
    (tmp_path / "volume.json").write_text(edit(header))
    return tmp_path / "volume.json"


@pytest.mark.parametrize("edit, message", [
    (lambda h: json.dumps(h)[:-5], "malformed header"),
    (lambda h: json.dumps({k: v for k, v in h.items() if k != "dims"}), "missing field 'dims'"),
    (lambda h: json.dumps({**h, "dims": [h["dims"][0] + 1] + h["dims"][1:]}), "expected"),
], ids=["bad-json", "missing-field", "wrong-raw-size"])
def test_segment_malformed_header_is_one_line(phantom_dir, tmp_path, capsys, edit, message):
    rc = main([
        "segment", "--input", str(_write_header(phantom_dir, tmp_path, edit)),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "gmfd1", "--nmax", "5", "--out", str(tmp_path / "x"),
    ])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err


def test_segment_seed_off_grid(phantom_dir, tmp_path, capsys):
    rc = main([
        "segment", "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "999,40,20", "--seed-right", "57,40,20",
        "--model", "gmfd1", "--nmax", "5", "--out", str(tmp_path / "x"),
    ])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_segment_start_slice_out_of_range(phantom_dir, tmp_path, capsys):
    rc = main([
        "segment", "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "gmfd1", "--nmax", "1", "--out", str(tmp_path / "x"),
        "--postprocess", "--start-slice", "99",
    ])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_bench_iters_cover_both_sides(monkeypatch, capsys):
    monkeypatch.setitem(SUITE_PARAMS["easy"], "n_max", 2)
    monkeypatch.setitem(SUITE_PARAMS["easy"], "n_max_second_order", 3)
    assert main(["bench", "--phantom", "easy"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    # phantom, model, n_max, iters, wall_s, dice_L, dice_R
    assert {(r[1], int(r[2]), int(r[3])) for r in rows} == {
        ("classical", 2, 4), ("gmfd1", 2, 4), ("gmfd2", 3, 6)}


def test_metrics_self(phantom_dir, capsys):
    rc = main(["metrics", str(phantom_dir / "truth_left.json"),
               str(phantom_dir / "truth_left.json")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dice"] == 1.0
    assert doc["hausdorff"] == 0.0


def test_metrics_disjoint_distances_error(phantom_dir, capsys):
    rc = main(["metrics", str(phantom_dir / "truth_left.json"),
               str(phantom_dir / "truth_right.json")])
    # disjoint but nonempty: valid report with dice 0
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dice"] == 0.0
    assert doc["hausdorff"] > 0


def test_metrics_missing_file(tmp_path, capsys):
    rc = main(["metrics", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
