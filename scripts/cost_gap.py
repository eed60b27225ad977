#!/usr/bin/env python3
"""Dice-versus-iterations profile of the three evolution models.

Usage: python scripts/cost_gap.py [phantom] [--side left|right]

Steps each model manually on one phantom tube, printing the Dice curve
and the iteration/wall-time cost of first reaching Dice 0.90.  The
second-order model pays a parabolic time step, so its crossing comes an
order of magnitude later than the first-order ones.
"""
import argparse
import time

import numpy as np

from levelseg.metrics import dice
from levelseg.phantom import generate_phantom, suite_config, suite_spec, tube_seed
from levelseg.preprocess import preprocess_pipeline
from levelseg.solver import extract_mask, init_levelset, step
from levelseg.speed import Model, build_speed, cfl_dt

TARGET = 0.90


def profile(cfg, raw, speed, seed, truth, check_every=10):
    fld = init_levelset(raw.dims, seed, cfg, raw.spacing)
    dt = cfl_dt(speed, cfg)
    crossing = None
    t0 = time.perf_counter()
    curve = []
    for n in range(1, cfg.n_max + 1):
        fld = step(fld, speed.active, cfg, dt)
        if n % check_every == 0:
            d = dice(extract_mask(fld), truth)
            curve.append((n, d))
            if crossing is None and d >= TARGET:
                crossing = (n, time.perf_counter() - t0)
    wall = time.perf_counter() - t0
    return dt, curve, crossing, wall


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("phantom", nargs="?", default="easy")
    parser.add_argument("--side", default="left", choices=["left", "right"])
    args = parser.parse_args()

    spec = suite_spec(args.phantom)
    raw, truth_left, truth_right = generate_phantom(spec)
    truth = truth_left if args.side == "left" else truth_right
    seed = tube_seed(spec, args.side)
    configs = [suite_config(args.phantom, model) for model in Model]
    # the suite configs differ only in model and budget: one speed field
    image, tissue = preprocess_pipeline(raw, configs[0].sigma)
    speed = build_speed(image, tissue, configs[0])

    crossings = {}
    for cfg in configs:
        dt, curve, crossing, wall = profile(cfg, raw, speed, seed, truth)
        print(f"\n{cfg.model.value}: dt = {dt:.5g}, {cfg.n_max} iterations, {wall:.1f}s")
        for n, d in curve[:: max(1, len(curve) // 10)]:
            print(f"  n={n:5d}  dice={d:.4f}")
        if crossing:
            print(f"  reached {TARGET} at n={crossing[0]} ({crossing[1]:.1f}s)")
            crossings[cfg.model] = crossing
        else:
            print(f"  never reached {TARGET}")

    if Model.GEODESIC1 in crossings and Model.GEODESIC2 in crossings:
        n1, w1 = crossings[Model.GEODESIC1]
        n2, w2 = crossings[Model.GEODESIC2]
        print(f"\ncost gap at dice {TARGET}: {n2 / n1:.1f}x iterations, "
              f"{w2 / w1:.1f}x wall time")


if __name__ == "__main__":
    main()
