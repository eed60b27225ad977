#!/usr/bin/env python3
"""levelseg benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload first-order --seed 1 --seconds 30 --trace 0

Run from the root of a levelseg checkout; levelseg is imported from its
`src/`.  Set-up builds the workload's inputs from --seed; the timed loop
then runs whole rounds of the workload's cases, at least one and as many
as end nearest to --seconds, and checks every output.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With --trace 0 the metrics are end to end; with --trace 1 levelseg's public
functions are wrapped and the metrics are per layer.  Everything runs in
this one process, on one thread.
"""
import os

# one BLAS/OpenMP thread; must be set before numpy is imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"


def since_process_start():
    """Wall seconds since this process started (Linux; 10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def use_checkout_src():
    """Import levelseg from this checkout's src/; exit when it is missing."""
    if not (SRC / "levelseg" / "__init__.py").is_file():
        sys.exit(f"error: levelseg sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


# -- tracing --------------------------------------------------------------

def _count_changed(counts, args, kwargs, result):
    before = args[0].volume.values
    counts["voxel_updates"] += before.size
    counts["voxels_changed"] += int((before != result.volume.values).sum())


def _count_removed(counts, args, kwargs, result):
    counts["voxels_removed"] += args[0].count() - result.count()


def _count_bytes(counts, args, kwargs, result):
    header = Path(args[1] if len(args) > 1 else kwargs["path"])
    raw = header.parent / json.loads(header.read_text())["data"]
    counts["bytes_written"] += header.stat().st_size + raw.stat().st_size


TRACED = [
    ("levelseg.cli", "cmd_segment", None),
    ("levelseg.solver", "evolve", None),
    ("levelseg.solver", "step", _count_changed),
    ("levelseg.solver", "llf_hamiltonian", None),
    ("levelseg.solver", "curvature_3d", None),
    ("levelseg.preprocess", "preprocess_pipeline", None),
    ("levelseg.speed", "build_speed", None),
    ("levelseg.postprocess", "postprocess", _count_removed),
    ("levelseg.postprocess", "reduce_components", None),
    ("levelseg.postprocess", "clean_spurious", None),
    ("levelseg.metrics", "compute_report", None),
    ("levelseg.volumes", "load_volume", None),
    ("levelseg.volumes", "load_mask", None),
    ("levelseg.volumes", "store_volume", _count_bytes),
    ("levelseg.phantom", "generate_phantom", None),
]


def layer_metrics(tracer, wall_s, faults, kernel_s):
    """Per-layer metrics of one round; a layer the workload does not run
    reads 0.  `faults` and `kernel_s` are the minor page faults and kernel
    CPU time of the process during the round's timed cases."""
    inc, own, calls, counts = tracer.inclusive, tracer.self_time, tracer.calls, tracer.counts
    updates = counts["voxel_updates"]
    step_s = inc["solver.step"]
    return {
        "solver.evolve_s": (inc["solver.evolve"], "s"),
        "solver.step_self_s": (own["solver.step"], "s"),
        "solver.llf_s": (inc["solver.llf_hamiltonian"], "s"),
        "solver.curvature_s": (inc["solver.curvature_3d"], "s"),
        "solver.steps": (calls["solver.step"], "count"),
        "solver.voxel_updates_per_s": (updates / step_s if step_s else 0.0, "1/s"),
        "solver.active_fraction": (counts["voxels_changed"] / updates if updates else 0.0, "1"),
        "preprocess.pipeline_s": (inc["preprocess.preprocess_pipeline"], "s"),
        "speed.build_s": (inc["speed.build_speed"], "s"),
        "postprocess.reduce_s": (inc["postprocess.reduce_components"], "s"),
        "postprocess.clean_s": (inc["postprocess.clean_spurious"], "s"),
        "postprocess.passes": (calls["postprocess.reduce_components"], "count"),
        "postprocess.voxels_removed": (counts["voxels_removed"], "count"),
        "metrics.report_s": (inc["metrics.compute_report"], "s"),
        "volumes.load_s": (inc["volumes.load_volume"] + inc["volumes.load_mask"], "s"),
        "volumes.store_s": (inc["volumes.store_volume"], "s"),
        "volumes.bytes_written": (counts["bytes_written"], "bytes"),
        "cli.self_s": (own["cli.cmd_segment"], "s"),
        "process.minor_faults": (faults, "count"),
        "process.kernel_s": (kernel_s, "s"),
        "trace.hook_s": (tracer.hook_s, "s"),
        "trace.wall_s": (wall_s, "s"),
    }


# -- the run --------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    use_checkout_src()
    tracer = None
    if args.trace:
        tracer = Tracer()
        for module, func, hook in TRACED:
            tracer.wrap(module, func, hook)
    paused = tracer.paused if tracer else contextlib.nullcontext

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cases = WORKLOADS[args.workload](args.seed, work)
    setup_s = since_process_start()
    generate_s = tracer.inclusive["phantom.generate_phantom"] if tracer else 0.0

    attempted = failed = 0
    problems, reports, walls, layers = [], [], [], []
    last_outputs = {}
    started = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        wall = faults = kernel_s = 0
        for case in cases:
            attempted += 1
            steps_before = tracer.calls["solver.step"] if tracer else None
            usage = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            try:
                output = case.run()
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            finally:
                wall += time.perf_counter() - t0
                after = resource.getrusage(resource.RUSAGE_SELF)
                faults += after.ru_minflt - usage.ru_minflt
                kernel_s += after.ru_stime - usage.ru_stime
            steps = tracer.calls["solver.step"] - steps_before if tracer else None
            with paused():
                found, case_reports = case.check(output, False, steps)
            problems += [f"{case.name}: {p}" for p in found]
            reports += case_reports
            last_outputs[case.name] = output
        walls.append(wall)
        if tracer:
            layers.append(layer_metrics(tracer, wall, faults, kernel_s))
        # stop at the round end nearest to --seconds
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(walls) / 2 >= args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # the brute-force distance check allocates large blocks, which would
    # raise malloc's trim threshold and spare later rounds the page faults
    # the program pays on its own, so it runs once, after the timed loop
    with paused():
        for case in cases:
            if case.name in last_outputs:
                found, _ = case.check(last_outputs[case.name], True, None)
                problems += [f"{case.name}: {p}" for p in found]

    print(f"{len(walls)} rounds, wall s: {' '.join(f'{w:.4f}' for w in walls)}",
          file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer:
        metrics = {name: (statistics.fmean(layer[name][0] for layer in layers), unit)
                   for name, (_, unit) in layers[0].items()}
        metrics["phantom.generate_s"] = (generate_s, "s")
    else:
        def mean(key):
            return statistics.fmean(r[key] for r in reports) if reports else 0.0

        metrics = {
            "setup_s": (setup_s, "s"),
            # the mean round: the whole timed loop over its rounds.  A shared
            # host's speed can switch between states tens of percent apart
            # every few seconds; a median or minimum of rounds follows the
            # state a run happened to meet, the mean averages over them
            "wall_s": (statistics.fmean(walls), "s"),
            "dice_mean": (mean("dice"), "1"),
            "assd_mean": (mean("assd"), "voxel"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
