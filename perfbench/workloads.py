"""The benchmark's workloads.

A workload is built from the seed in set-up (phantoms rendered, inputs
written to disk) and returns its cases.  A case is one operation the timed
loop runs, `run()`, and the checks of its output, `check(output,
brute_force, steps)`, which return (problems, metric reports).  Every round
runs every case once, in order, so rounds repeat the same operations.

levelseg is reached only through its public entry points, looked up at
call time so that the traced run sees the calls: `cli.main(["segment",
...])` for segmentation, and `load_mask`, `postprocess`, `store_volume` and
`compute_report` for cleanup.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import import_module
from typing import Callable

import checks
import inputs

SIGMA = 1.75
FIRST_ORDER_MODELS = ("classical", "gmfd1")
FIRST_ORDER_N_MAX = 500      # the medium suite phantom's first-order budget
SECOND_ORDER_N_MAX = 600     # the front has settled well before this


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object, bool, int], tuple]


def _ls(module):
    return import_module(f"levelseg.{module}")


def _check_report(name, report, mask, truth, brute_force):
    """A compute_report of `mask` against `truth`, its overlap values
    recounted and, when `brute_force`, its distances recomputed."""
    report = asdict(report)
    problems = checks.overlap_report(name, report, mask.values, truth.values)
    if brute_force:
        problems += checks.distance_report(name, report, mask.values, truth.values,
                                           truth.spacing)
    return problems, report


def _segmentation(spec, models, n_max, dice_floor, mirror, work):
    raw, truth_left, truth_right = _ls("phantom").generate_phantom(spec)
    volume = work / "volume.json"
    _ls("volumes").store_volume(raw, volume)
    truth = {"left": truth_left, "right": truth_right}
    seeds = {side: _ls("phantom").tube_seed(spec, side).as_tuple() for side in truth}

    def case(model):
        out = work / model
        argv = ["segment", "--input", str(volume),
                "--seed-left", ",".join(map(str, seeds["left"])),
                "--seed-right", ",".join(map(str, seeds["right"])),
                "--model", model, "--nmax", str(n_max), "--sigma", str(SIGMA),
                "--out", str(out), "--postprocess"]

        def run():
            status = _ls("cli").main(argv)
            if status != 0:
                raise RuntimeError(f"segment {model} exited with status {status}")

        def check(_, brute_force, steps):
            masks = {side: _ls("volumes").load_mask(out / f"{side}.mask.json")
                     for side in truth}
            problems = checks.tube_pair(masks["left"].values, masks["right"].values,
                                        seeds["left"], seeds["right"])
            if mirror:
                problems += checks.mirror(masks["left"].values, masks["right"].values)
            timing = json.loads((out / "timing.json").read_text())
            problems += checks.iterations(timing, n_max, steps)
            reports = []
            for side, mask in masks.items():
                name = f"{model}/{side}"
                problems += checks.dice_floor(name, mask.values, truth[side].values,
                                              dice_floor)
                found, report = _check_report(
                    name, _ls("metrics").compute_report(mask, truth[side]),
                    mask, truth[side], brute_force)
                problems += found
                reports.append(report)
            return problems, reports

        return Case(model, run, check)

    return [case(model) for model in models]


def first_order(seed, work):
    """`segment --postprocess` with `classical` and `gmfd1` on the seeded
    medium phantom."""
    return _segmentation(inputs.first_order_spec(seed), FIRST_ORDER_MODELS,
                         FIRST_ORDER_N_MAX, checks.DICE_FLOOR, False, work)


def second_order(seed, work):
    """`segment --postprocess --model gmfd2` on the small mirror-symmetric
    phantom."""
    return _segmentation(inputs.second_order_spec(seed), ("gmfd2",),
                         SECOND_ORDER_N_MAX, checks.SECOND_ORDER_DICE_FLOOR, True, work)


def cleanup(seed, work):
    """Load a stored dirty mask, clean it, store it and score it against
    truth, for both tubes of the three suite phantoms."""
    volumes = _ls("volumes")

    def case(dm):
        dirty_path = work / f"{dm.name}.dirty.json"
        clean_path = work / f"{dm.name}.clean.json"
        volumes.store_volume(volumes.BinaryMask(dm.dirty), dirty_path)
        truth = volumes.BinaryMask(dm.truth)

        def run():
            mask = _ls("volumes").load_mask(dirty_path)
            cleaned = _ls("postprocess").postprocess(mask, dm.seed_voxel)
            _ls("volumes").store_volume(cleaned, clean_path)
            return cleaned, _ls("metrics").compute_report(cleaned, truth)

        def check(output, brute_force, _):
            cleaned, report = output
            problems = checks.cleanup(dm.name, dm.dirty, cleaned.values, dm.truth,
                                      dm.injected, dm.straight)
            problems += checks.dice_floor(dm.name, cleaned.values, dm.truth,
                                          checks.DICE_FLOOR)
            stored = _ls("volumes").load_mask(clean_path).values
            if not (stored == cleaned.values).all():
                problems.append(f"{dm.name}: stored mask differs from the returned one")
            found, report = _check_report(dm.name, report, cleaned, truth, brute_force)
            return problems + found, [report]

        return Case(dm.name, run, check)

    return [case(dm) for dm in inputs.cleanup_masks(seed)]


WORKLOADS = {
    "first-order": first_order,
    "second-order": second_order,
    "cleanup": cleanup,
}
