"""Command-line entry point: segmentation runs, metrics, benchmarks and
phantom generation."""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .metrics import MetricsError, compute_report, dice
from .phantom import (
    PhantomError,
    default_suite,
    generate_phantom,
    load_spec,
    spec_to_json,
    suite_config,
    suite_spec,
    tube_seed,
)
from .postprocess import PostprocessError, check_start_slice, postprocess
from .solver import DICE_TARGET, BlowupError, SeedError, SolverConfig, evolve, steps_to_dice
from .speed import DegenerateSpeedError, Model
from .volumes import BinaryMask, VolumeError, VoxelIndex, load_mask, load_volume, store_volume


def _log(msg):
    print(msg, file=sys.stderr)


def _parse_seed(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"seed must be x,y,z — got '{text}'")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"seed must be integers x,y,z — got '{text}'") from e


def _parse_spacing(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"spacing must be sx,sy,sz — got '{text}'")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"spacing must be numbers — got '{text}'") from e


def _slice_contours(mask: BinaryMask):
    """(slice, i, j) rows for the 4-neighbor in-plane boundary of each slice,
    ordered by slice, then i, then j."""
    m = mask.values
    padded = np.pad(m, ((1, 1), (1, 1), (0, 0)), mode="constant")
    interior = (
        padded[2:, 1:-1] & padded[:-2, 1:-1] & padded[1:-1, 2:] & padded[1:-1, :-2]
    )
    return np.argwhere((m & ~interior).transpose(2, 0, 1)).tolist()


def cmd_segment(args) -> int:
    cfg = SolverConfig(model=Model(args.model), sigma=args.sigma, mu=args.mu,
                       eta=args.eta, epsilon=args.epsilon, p=args.p, dx=args.dx,
                       n_max=args.nmax, stagnation_window=args.stagnation_window)
    raw = load_volume(args.input)
    if args.postprocess and args.start_slice is not None:
        check_start_slice(args.start_slice, raw.dims[2])
    timing = {"model": args.model, "n_max": args.nmax, "sides": {}}
    merged = np.zeros(raw.dims, dtype=bool)
    seeds = [VoxelIndex(*args.seed_left), VoxelIndex(*args.seed_right)]
    start = time.perf_counter()
    results = evolve(raw, cfg, seeds)
    # the sides' loops overlap on two threads, so their `seconds` do not add
    timing["pair_seconds"] = time.perf_counter() - start
    # made once `evolve` has accepted the seeds, so a rejected run leaves none
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for side, seed, result in zip(("left", "right"), seeds, results):
        mask = result.mask
        if args.postprocess:
            start = args.start_slice if args.start_slice is not None else seed.k
            mask = postprocess(mask, seed, start_slice=start)
        store_volume(mask, out / f"{side}.mask.json")
        with open(out / f"{side}.contours.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["slice", "i", "j"])
            writer.writerows(_slice_contours(mask))
        merged |= mask.values
        timing["sides"][side] = {
            "iterations": result.iterations,
            "seconds": result.seconds,
            "dt": result.dt,
            "active_voxels": result.active_voxels,
            "voxels": mask.count(),
        }
        _log(f"{side}: {result.iterations} iterations, {result.seconds:.2f}s, "
             f"dt={result.dt:.6g}, {mask.count()} voxels")
    store_volume(BinaryMask(merged, raw.spacing), out / "merged.mask.json")
    manifest = {"input": args.input, "out": args.out,
                "seed_left": args.seed_left, "seed_right": args.seed_right,
                **asdict(cfg), "model": cfg.model.value,
                "postprocess": args.postprocess, "start_slice": args.start_slice}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    (out / "timing.json").write_text(json.dumps(timing, indent=2))
    return 0


def cmd_metrics(args) -> int:
    a = load_mask(args.mask_a)
    b = load_mask(args.mask_b)
    report = compute_report(a, b, args.spacing)
    print(report.to_json())
    return 0


def cmd_bench(args) -> int:
    """One row per (phantom, model); `n_max` is the budget of one side,
    `iters` totals both sides and `wall_s` is the elapsed time of
    `evolve` on the pair, whose two loops run at once.  The last two
    columns are the left tube's `steps_to_dice`, and a line per phantom
    gives the `gmfd2`/`gmfd1` ratios of both when both models cross."""
    specs = [suite_spec(args.phantom)] if args.phantom else default_suite()
    at = f"@{DICE_TARGET:.2f}"
    header = (f"{'phantom':<8} {'model':<10} {'n_max':>6} {'iters':>6} {'wall_s':>8} "
              f"{'dice_L':>7} {'dice_R':>7} {'n' + at:>7} {'s' + at:>7}")
    print(header)
    print("-" * len(header))
    for spec in specs:
        raw, truth_left, truth_right = generate_phantom(spec)
        crossings = {}
        for model in Model:
            cfg = suite_config(spec.name, model)
            seeds = [tube_seed(spec, "left"), tube_seed(spec, "right")]
            start = time.perf_counter()
            left, right = evolve(raw, cfg, seeds)
            wall = time.perf_counter() - start
            n, seconds = crossings[model] = steps_to_dice(raw, cfg, seeds[0], truth_left)
            print(f"{spec.name:<8} {model.value:<10} {cfg.n_max:>6} "
                  f"{left.iterations + right.iterations:>6} {wall:>8.2f} "
                  f"{dice(left.mask, truth_left):>7.4f} {dice(right.mask, truth_right):>7.4f} "
                  + (f"{n:>7} {seconds:>7.2f}" if n else f"{'never':>7} {'-':>7}"))
        (n1, s1), (n2, s2) = crossings[Model.GEODESIC1], crossings[Model.GEODESIC2]
        if n1 and n2:
            print(f"{spec.name}: gmfd2/gmfd1 to Dice {DICE_TARGET:.2f}: "
                  f"{n2 / n1:.1f}x iterations, {s2 / s1:.1f}x wall")
    return 0


def cmd_phantom(args) -> int:
    if args.spec:
        spec = load_spec(args.spec)
    else:
        spec = suite_spec(args.name)
    raw, truth_left, truth_right = generate_phantom(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    store_volume(raw, out / "volume.json", dtype="f32")
    store_volume(truth_left, out / "truth_left.json")
    store_volume(truth_right, out / "truth_right.json")
    (out / "spec.json").write_text(spec_to_json(spec))
    _log(f"wrote phantom '{spec.name}' ({spec.dims[0]}x{spec.dims[1]}x{spec.dims[2]}) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="levelseg",
                                     description="3D level-set muscle segmentation")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = SolverConfig()

    seg = sub.add_parser("segment", help="segment both muscles from a volume")
    seg.add_argument("--input", required=True)
    seg.add_argument("--seed-left", required=True, type=_parse_seed)
    seg.add_argument("--seed-right", required=True, type=_parse_seed)
    seg.add_argument("--model", required=True, choices=[m.value for m in Model])
    seg.add_argument("--nmax", required=True, type=int)
    seg.add_argument("--stagnation-window", type=int, default=defaults.stagnation_window,
                     help="stop a side once its mask has not changed for this "
                          "many steps; 0 never stops early")
    seg.add_argument("--p", type=int, default=defaults.p)
    seg.add_argument("--sigma", type=float, default=defaults.sigma)
    seg.add_argument("--mu", type=float, default=defaults.mu)
    seg.add_argument("--eta", type=float, default=defaults.eta)
    seg.add_argument("--epsilon", type=float, default=defaults.epsilon)
    seg.add_argument("--dx", type=float, default=defaults.dx)
    seg.add_argument("--out", required=True)
    seg.add_argument("--postprocess", action="store_true")
    seg.add_argument("--start-slice", type=int, default=None)
    seg.set_defaults(func=cmd_segment)

    met = sub.add_parser("metrics", help="compare two masks")
    met.add_argument("mask_a")
    met.add_argument("mask_b")
    met.add_argument("--spacing", type=_parse_spacing, default=None)
    met.set_defaults(func=cmd_metrics)

    ben = sub.add_parser("bench", help="run the model x phantom benchmark")
    ben.add_argument("--phantom", default=None,
                     help="restrict to one suite phantom (easy/medium/hard)")
    ben.set_defaults(func=cmd_bench)

    pha = sub.add_parser("phantom", help="generate a phantom volume")
    pha.add_argument("name", nargs="?", default="easy",
                     help="suite phantom name (ignored with --spec)")
    pha.add_argument("--spec", default=None, help="phantom spec JSON path")
    pha.add_argument("--out", required=True)
    pha.set_defaults(func=cmd_phantom)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VolumeError, PhantomError, SeedError, BlowupError, DegenerateSpeedError,
            PostprocessError, MetricsError, ValueError, OSError) as e:
        _log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
