"""End-to-end command-line interface checks."""
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from levelseg import cli, solver
from levelseg.cli import _slice_contours, main
from levelseg.metrics import dice
from levelseg.phantom import SUITE_PARAMS, spec_to_json, suite_spec
from levelseg.preprocess import preprocess_pipeline
from levelseg.solver import SolverConfig
from levelseg.speed import Model, build_speed, cfl_dt
from levelseg.volumes import BinaryMask, VoxelIndex, load_mask, load_volume


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


def test_phantom_out_is_a_file_is_one_line(tmp_path, capsys):
    out = tmp_path / "file"
    out.write_text("")
    assert main(["phantom", "easy", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: [Errno 17] File exists: '{out}'"], err
    assert out.is_file()


@pytest.mark.parametrize("name", ["rim_width", "rim_hu"])
def test_phantom_spec_rim_field_is_one_line(tmp_path, capsys, name):
    # the tube rim is no longer a phantom setting
    doc = json.loads(spec_to_json(suite_spec("easy")))
    doc[name] = 1.0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["phantom", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid phantom spec"), err
    assert name in err[0]
    assert not (tmp_path / "out").exists()


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
    # (g and grad g from their formula, on the whole grid, with the
    # defaults of `p` and `dx` that the run used)
    cfg = SolverConfig()
    image, tissue = preprocess_pipeline(load_volume(phantom_dir / "volume.json"), 1.75)
    ix, iy, iz = np.gradient(image.values, cfg.dx)
    g = 1.0 / (1.0 + np.sqrt(ix * ix + iy * iy + iz * iz)**cfg.p)
    g[~tissue.values] = 0.0
    active = (g != 0) | np.any([c != 0 for c in np.gradient(g, cfg.dx)], axis=0)
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
        "n_max": 3, "seed_radius_voxels": 5.0, "stagnation_window": 0,
        "postprocess": True, "start_slice": 19,
    }


@pytest.fixture
def evolve_configs(monkeypatch):
    """The configs `segment` passes to `evolve`, in call order."""
    configs = []
    original = cli.evolve

    def recording(raw, cfg, seeds):
        configs.append(cfg)
        return original(raw, cfg, seeds)

    monkeypatch.setattr(cli, "evolve", recording)
    return configs


def test_segment_manifest_replays_the_run(phantom_dir, tmp_path, evolve_configs):
    # the manifest holds every field of the config, so the run can be
    # replayed from it alone
    out = tmp_path / "run"
    volume = phantom_dir / "volume.json"
    assert main([
        "segment", "--input", str(volume),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "gmfd1", "--nmax", "40", "--sigma", "1.75", "--mu", "1.5",
        "--eta", "0.5", "--stagnation-window", "5",
        "--out", str(out),
    ]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    fields = {f.name: manifest[f.name] for f in dataclasses.fields(SolverConfig)}
    cfg = SolverConfig(**{**fields, "model": Model(fields["model"])})
    assert evolve_configs == [cfg]
    seeds = [VoxelIndex(*manifest["seed_left"]), VoxelIndex(*manifest["seed_right"])]
    for side, result in zip(("left", "right"), solver.evolve(load_volume(volume), cfg, seeds)):
        assert np.array_equal(load_mask(out / f"{side}.mask.json").values, result.mask.values)


def test_segment_defaults_are_the_config_defaults(phantom_dir, tmp_path, evolve_configs):
    assert main([
        "segment", "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "gmfd2", "--nmax", "1", "--out", str(tmp_path / "run"),
    ]) == 0
    assert evolve_configs == [SolverConfig(model=Model.GEODESIC2, n_max=1)]


@pytest.fixture(scope="module")
def stagnation_run(phantom_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("stagnation")
    assert main([
        "segment", "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "classical", "--nmax", "400", "--sigma", "1.75",
        "--stagnation-window", "50",
        "--out", str(out),
    ]) == 0
    return out


def test_segment_early_stop_stagnation_equals_evolve(phantom_dir, stagnation_run):
    # both sides stagnate before --nmax, with the masks and iteration
    # counts of `evolve` under the same config
    cfg = SolverConfig(model=Model.CLASSICAL, sigma=1.75, n_max=400, stagnation_window=50)
    results = solver.evolve(load_volume(phantom_dir / "volume.json"), cfg,
                            [VoxelIndex(22, 40, 20), VoxelIndex(57, 40, 20)])
    timing = json.loads((stagnation_run / "timing.json").read_text())
    for side, result in zip(("left", "right"), results):
        assert timing["sides"][side]["iterations"] == result.iterations < cfg.n_max
        mask = load_mask(stagnation_run / f"{side}.mask.json")
        assert np.array_equal(mask.values, result.mask.values)
    manifest = json.loads((stagnation_run / "manifest.json").read_text())
    assert manifest["stagnation_window"] == 50 and "early_stop" not in manifest


def test_segment_timing_records_pair_seconds(stagnation_run):
    # the sides' loops overlap, so the pair's elapsed time is recorded too
    timing = json.loads((stagnation_run / "timing.json").read_text())
    seconds = [side["seconds"] for side in timing["sides"].values()]
    assert timing["pair_seconds"] >= max(seconds) > 0


def test_segment_bad_stagnation_window_is_one_line(phantom_dir, tmp_path, capsys):
    rc = main([
        "segment", "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "classical", "--nmax", "5",
        "--stagnation-window", "-1", "--out", str(tmp_path / "x"),
    ])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: stagnation_window must be >= 0"]


def test_segment_negative_sigma_is_one_line(phantom_dir, tmp_path, capsys):
    rc = main([
        "segment", "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "classical", "--nmax", "5", "--sigma", "-1",
        "--out", str(tmp_path / "x"),
    ])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: sigma must be >= 0"]


def test_segment_logs_the_cfl_dt(phantom_dir, tmp_path, capsys):
    # a run's one time step is `cfl_dt`'s: each side logs it (to 6
    # significant digits) and records it in timing.json, and nothing else
    # is logged
    image, tissue = preprocess_pipeline(load_volume(phantom_dir / "volume.json"), 0.0)
    for model in Model:
        out = tmp_path / model.value
        assert main([
            "segment", "--input", str(phantom_dir / "volume.json"),
            "--seed-left", "22,40,20", "--seed-right", "57,40,20",
            "--model", model.value, "--nmax", "2", "--out", str(out),
        ]) == 0
        cfg = SolverConfig(model=model, n_max=2)
        dt = cfl_dt(build_speed(image, tissue, cfg), cfg)
        err = capsys.readouterr().err.splitlines()
        assert [line.split("dt=")[1].split(",")[0] for line in err] == [f"{dt:.6g}"] * 2, err
        timing = json.loads((out / "timing.json").read_text())
        assert [timing["sides"][side]["dt"] for side in ("left", "right")] == [dt, dt]


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


@pytest.mark.parametrize("args, message", [
    (["--p", "100000"], None),
    (["--dx", "1e-300"], "error: degenerate time step: dt = 0 at dx = 1e-300"),
    (["--model", "classical", "--dx", "1e-310"],
     "error: degenerate speed field: grad g overflows at dx = 1e-310"),
], ids=["p-huge", "dx-tiny", "dx-subnormal"])
def test_segment_speed_overflow_is_silent_or_one_line(phantom_dir, tmp_path, args, message):
    # |grad I|**p overflowing leaves g = 0, its limit, and the run goes on;
    # a dt that underflows to 0, or a grad g that overflows (which the
    # classical dt does not read), ends the run in one error line, with no
    # numpy warnings
    out = tmp_path / "x"
    env = {**os.environ, "PYTHONPATH": str(Path(solver.__file__).parents[1])}
    proc = subprocess.run([
        sys.executable, "-W", "default", "-m", "levelseg.cli", "segment",
        "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "gmfd1", "--nmax", "3", "--out", str(out),
    ] + args, capture_output=True, text=True, env=env, timeout=300)
    assert "Warning" not in proc.stderr, proc.stderr
    if message:
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [message]
        assert not out.exists()
    else:
        assert proc.returncode == 0
        assert "error:" not in proc.stderr, proc.stderr
        assert (out / "left.mask.json").is_file()


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
    (lambda h: "5", "not a JSON object"),
    (lambda h: json.dumps({**h, "dims": 4}), "invalid dims"),
    (lambda h: json.dumps({**h, "dims": [80.5] + h["dims"][1:]}), "invalid dims"),
    (lambda h: json.dumps({**h, "dims": [True] + h["dims"][1:]}), "invalid dims"),
    (lambda h: json.dumps({**h, "spacing": 1}), "invalid spacing"),
    (lambda h: json.dumps({**h, "spacing": [1, 1]}), "invalid spacing"),
    (lambda h: json.dumps({**h, "spacing": [0, 1, 1]}), "invalid spacing"),
    (lambda h: json.dumps({**h, "spacing": [1, -1, 1]}), "invalid spacing"),
    (lambda h: json.dumps({**h, "spacing": [1, 1, float("nan")]}), "invalid spacing"),
    (lambda h: json.dumps({**h, "dtype": ["u8"]}), "unsupported dtype"),
    (lambda h: json.dumps({**h, "data": 5}), "invalid data"),
    (lambda h: json.dumps({**h, "data": "."}), "raw file not found"),
], ids=["bad-json", "missing-field", "wrong-raw-size", "not-an-object", "dims-number",
        "dims-float", "dims-bool", "spacing-number", "spacing-two", "spacing-zero",
        "spacing-negative", "spacing-nan", "dtype-list", "data-number", "data-directory"])
def test_segment_malformed_header_is_one_line(phantom_dir, tmp_path, capsys, edit, message):
    rc = main([
        "segment", "--input", str(_write_header(phantom_dir, tmp_path, edit)),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "gmfd1", "--nmax", "5", "--out", str(tmp_path / "x"),
    ])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err


def test_segment_start_slice_out_of_range(phantom_dir, tmp_path, capsys, monkeypatch):
    # the slice is checked against the volume before any evolution
    def no_evolve(*args):
        raise AssertionError("evolve called")

    monkeypatch.setattr(cli, "evolve", no_evolve)
    for start in ("99", "41", "-1"):
        rc = main([
            "segment", "--input", str(phantom_dir / "volume.json"),
            "--seed-left", "22,40,20", "--seed-right", "57,40,20",
            "--model", "gmfd1", "--nmax", "1", "--out", str(tmp_path / "x"),
            "--postprocess", "--start-slice", start,
        ])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: start slice {start} out of range"]


@pytest.mark.parametrize("args, message", [
    (["--p", "0"], "error: p must be >= 1"),
    (["--input", "missing.json"], "error:"),
    (["--postprocess", "--start-slice", "41"], "error: start slice 41 out of range"),
    (["--sigma", "inf"], "error: sigma must be finite"),
    (["--sigma", "nan"], "error: sigma must be finite"),
    (["--sigma", "1e6"], "error: sigma must be <= 26.6667"),
    (["--sigma", "1e308"], "error: sigma must be <= 26.6667"),
    (["--dx", "nan"], "error: dx must be finite"),
    (["--dx", "inf"], "error: dx must be finite"),
    (["--mu", "nan"], "error: mu must be finite"),
    (["--eta", "inf"], "error: eta must be finite"),
    (["--epsilon", "nan"], "error: epsilon must be finite"),
    (["--mu", "-1"], "error: mu must be >= 0"),
    (["--eta", "-1"], "error: eta must be >= 0"),
    (["--epsilon", "-5"], "error: epsilon must be >= 0"),
    (["--seed-left", "999,40,20"], "error: seed (999, 40, 20) lies outside the volume"),
    (["--seed-left", "40,12,20"], "error: seed (40, 12, 20) lies outside the tissue mask"),
    (["--seed-left", "22,40,6"], "error: seed (22, 40, 6) closer than 7.0 voxels to a face"),
    (["--out", "file"], "error: [Errno 17] File exists"),
], ids=["bad-option", "missing-input", "start-slice", "sigma-inf", "sigma-nan",
        "sigma-huge", "sigma-huge-overflow", "dx-nan",
        "dx-inf", "mu-nan", "eta-inf", "epsilon-nan", "mu-negative", "eta-negative",
        "epsilon-negative", "seed-off-grid", "seed-outside-tissue", "seed-near-face",
        "out-is-a-file"])
def test_segment_rejected_run_makes_no_out_dir(phantom_dir, tmp_path, capsys, args, message):
    # `--out` is made once `evolve` has accepted the seeds, so a run
    # rejected for an option, the volume or a seed leaves no directory (a
    # float setting must be finite, a weight >= 0 and 3*sigma within the
    # 80x80 slice), and an `--out` that names a file ends in one error line
    out = tmp_path / "x"
    (tmp_path / "file").write_text("")
    rc = main([
        "segment", "--input", str(phantom_dir / "volume.json"),
        "--seed-left", "22,40,20", "--seed-right", "57,40,20",
        "--model", "gmfd1", "--nmax", "1", "--out", str(out),
    ] + [str(tmp_path / a) if a.endswith(".json") or a == "file" else a for a in args])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message), err
    assert not out.exists() and (tmp_path / "file").is_file()


def test_bench_iters_cover_both_sides(monkeypatch, capsys):
    monkeypatch.setitem(SUITE_PARAMS["easy"], "n_max", 2)
    monkeypatch.setitem(SUITE_PARAMS["easy"], "n_max_second_order", 3)
    assert main(["bench", "--phantom", "easy"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    # phantom, model, n_max, iters, wall_s, dice_L, dice_R
    assert {(r[1], int(r[2]), int(r[3])) for r in rows} == {
        ("classical", 2, 4), ("gmfd1", 2, 4), ("gmfd2", 3, 6)}


def test_bench_unknown_phantom_is_one_line(capsys):
    assert main(["bench", "--phantom", "nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: unknown suite phantom 'nope'"]


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


@pytest.mark.parametrize("spacing", ["nan,1,1", "1,inf,1", "0,1,1"])
def test_metrics_bad_spacing_is_one_line(phantom_dir, capsys, spacing):
    truth = str(phantom_dir / "truth_left.json")
    assert main(["metrics", truth, truth, "--spacing", spacing]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: spacing must be finite and positive"]


def _slice_contours_per_slice(mask):
    """Frozen copy of the contour rows built slice by slice in a loop."""
    m = mask.values
    rows = []
    for k in range(m.shape[2]):
        sl = m[:, :, k]
        if not sl.any():
            continue
        padded = np.pad(sl, 1, mode="constant")
        interior = (
            padded[2:, 1:-1] & padded[:-2, 1:-1] & padded[1:-1, 2:] & padded[1:-1, :-2]
        )
        for i, j in np.argwhere(sl & ~interior):
            rows.append((k, int(i), int(j)))
    return rows


def _csv_bytes(rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["slice", "i", "j"])
    writer.writerows(rows)
    return buf.getvalue().encode()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), order=st.sampled_from(["C", "F"]))
def test_slice_contours_csv_equals_per_slice_loop(seed, order):
    rng = np.random.default_rng(seed)
    dims = tuple(rng.integers(3, 14, size=3))
    vals = rng.random(dims) < rng.uniform(0.1, 0.9)
    vals[:, :, rng.random(dims[2]) < 0.3] = False  # empty slices
    mask = BinaryMask(np.array(vals, order=order))
    assert _csv_bytes(_slice_contours(mask)) == _csv_bytes(_slice_contours_per_slice(mask))


def test_metrics_missing_file(tmp_path, capsys):
    rc = main(["metrics", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
