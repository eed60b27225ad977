"""Acceptance suite: one test per release criterion.

Each test records a single PASS/FAIL line; the conftest hook prints them
in the terminal summary so the run log always carries a per-criterion
verdict.
"""
import sys
import time

import numpy as np
from scipy import ndimage
from scipy.spatial.distance import cdist

from levelseg.active import ActiveSet
from levelseg.metrics import assd, dice, hausdorff, jaccard, surface_voxels
from levelseg.phantom import SUITE_PARAMS, generate_phantom, suite_config, suite_spec, tube_seed
from levelseg.postprocess import clean_spurious, postprocess
from levelseg.preprocess import preprocess_pipeline
from levelseg.solver import (
    LevelSetField,
    SolverConfig,
    evolve,
    extract_mask,
    init_levelset,
    llf_hamiltonian,
    step,
)
from levelseg.speed import Model, build_speed, cfl_dt
from levelseg.volumes import BinaryMask, ScalarVolume, VoxelIndex

DX = 0.1


def _report(record, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] {name}: {detail}"
    record(line)
    print(line, file=sys.stderr)
    assert ok, f"{name}: {detail}"


def _active_from_g(g_arr, dx=DX):
    """The active set of the speed field g, as `build_speed` makes it."""
    g = np.asarray(g_arr, dtype=float)
    return ActiveSet.of_speed(g, np.gradient(g, dx))


# 1 -----------------------------------------------------------------------

def test_criterion_hamiltonian_consistency(record_criterion):
    """h(x, a,a, b,b, c,c) = H(x, a, b, c) on 10,000 random draws."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 10_000
    g = rng.uniform(0.01, 1.0, n)
    gx, gy, gz = rng.uniform(-2, 2, (3, n))
    a, b, c = rng.uniform(-3, 3, (3, n))
    mu, eta = 1.0, 0.25
    worst = 0.0
    for model in Model:
        diffs = (a, a, b, b, c, c)
        h = llf_hamiltonian(model, g, (gx, gy, gz), diffs, mu, eta)
        norm = np.sqrt(a * a + b * b + c * c)
        if model is Model.CLASSICAL:
            H = g * norm
        else:
            H = mu * g * norm - eta * (gx * a + gy * b + gz * c)
        worst = max(worst, float(np.abs(h - H).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(record_criterion, "hamiltonian-consistency", ok,
            f"max |h - H| = {worst:.2e} over 30,000 draws, {elapsed:.2f}s")


# 2 -----------------------------------------------------------------------

def test_criterion_monotonicity(record_criterion):
    """1,000 random neighbor increases never decrease an updated value."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    dims = (9, 9, 9)
    violations = 0
    worst = 0.0
    for model in (Model.CLASSICAL, Model.GEODESIC1):
        act = _active_from_g(rng.uniform(0.2, 1.0, size=dims))
        cfg = SolverConfig(model=model, dx=DX)
        dt = cfl_dt(act, cfg)
        for _ in range(10):
            u = rng.standard_normal(dims) * 0.1
            base = step(LevelSetField(ScalarVolume(u)), act, cfg, dt).volume.values
            for _ in range(50):
                i, j, k = rng.integers(0, 9, size=3)
                bumped = u.copy()
                bumped[i, j, k] += rng.uniform(0.001, 0.05)
                out = step(LevelSetField(ScalarVolume(bumped)), act, cfg, dt).volume.values
                # face replication couples a face voxel to itself outside
                # the monotone stencil form; check the interior
                inner = (slice(1, -1),) * 3
                drop = float((base[inner] - out[inner]).max())
                if drop > 1e-12:
                    violations += 1
                    worst = max(worst, drop)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    _report(record_criterion, "monotonicity-under-cfl", ok,
            f"{violations} violations in 1000 perturbations "
            f"(worst drop {worst:.2e}), {elapsed:.2f}s")


# 3 -----------------------------------------------------------------------

def test_criterion_eikonal_expansion(record_criterion):
    """Unit-speed front reaches r0 + 100*dt within 2*dx on a 64^3 grid."""
    t0 = time.perf_counter()
    dims = (64, 64, 64)
    seed = VoxelIndex(31, 31, 31)
    act = _active_from_g(np.ones(dims))
    cfg = SolverConfig(model=Model.CLASSICAL, dx=DX, seed_radius_voxels=5.0)
    # any dt at or below the CFL bound is admissible; a quarter keeps the
    # front well inside the 64^3 domain over 100 steps (the full bound
    # would push the radius past the boundary) and limits the accumulated
    # first-order viscosity lag, which grows with distance travelled
    dt = 0.25 * cfl_dt(act, cfg)
    fld = init_levelset(dims, seed, cfg, (1.0, 1.0, 1.0))
    for _ in range(100):
        fld = step(fld, act, cfg, dt)
    mask = extract_mask(fld).values
    ii, jj, kk = np.meshgrid(*[np.arange(64)] * 3, indexing="ij")
    dist = np.sqrt((ii - 31) ** 2 + (jj - 31) ** 2 + (kk - 31) ** 2)
    radius = float(dist[mask].max()) * DX
    expected = 5 * DX + 100 * dt
    err = abs(radius - expected)
    elapsed = time.perf_counter() - t0
    ok = err <= 2 * DX and elapsed < 30.0
    _report(record_criterion, "eikonal-expansion", ok,
            f"front radius {radius:.3f} vs expected {expected:.3f} "
            f"(|err| = {err:.3f}, budget {2 * DX}), {elapsed:.1f}s")


# 4 -----------------------------------------------------------------------

def test_criterion_curvature_oracle(record_criterion, grid_curvature):
    """Sphere SDF of radius 10*dx reproduces 2/R within 15%, refining."""
    t0 = time.perf_counter()

    def max_rel_err(dx, n, radius):
        c = (n - 1) / 2.0
        ii, jj, kk = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
        v = dx * np.sqrt((ii - c) ** 2 + (jj - c) ** 2 + (kk - c) ** 2) - radius
        kappa = grid_curvature(v, dx)
        near = np.abs(v) <= 0.5 * dx
        return float(np.abs(kappa[near] - 2.0 / radius).max() / (2.0 / radius))

    coarse = max_rel_err(0.1, 41, 10 * 0.1)
    fine = max_rel_err(0.05, 81, 10 * 0.1)
    elapsed = time.perf_counter() - t0
    ok = coarse <= 0.15 and fine < coarse and elapsed < 10.0
    _report(record_criterion, "curvature-oracle", ok,
            f"max rel err {coarse:.3f} at dx=0.1 (budget 0.15), "
            f"{fine:.3f} at dx=0.05, {elapsed:.1f}s")


# 5 -----------------------------------------------------------------------

def test_criterion_second_order_epsilon_zero(record_criterion):
    """Geodesic2 with epsilon = 0 matches Geodesic1 per step to 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    dims = (17, 17, 17)
    worst = 0.0
    for _ in range(10):
        act = _active_from_g(rng.uniform(0.1, 1.0, size=dims))
        u = rng.standard_normal(dims)
        fld = LevelSetField(ScalarVolume(u))
        dt = 0.0025
        cfg1 = SolverConfig(model=Model.GEODESIC1)
        cfg2 = SolverConfig(model=Model.GEODESIC2, epsilon=0.0)
        a = step(fld, act, cfg1, dt).volume.values
        b = step(fld, act, cfg2, dt).volume.values
        worst = max(worst, float(np.abs(a - b).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(record_criterion, "second-order-epsilon-zero", ok,
            f"max per-step difference {worst:.2e} on 10 random fields, {elapsed:.2f}s")


# 6 -----------------------------------------------------------------------

def _run_side(raw, spec_name, model, side, spec):
    return evolve(raw, suite_config(spec_name, model), [tube_seed(spec, side)])[0]


def test_criterion_phantom_end_to_end(record_criterion):
    """Dice >= 0.90 for all models on easy+medium; hard-phantom cleanup."""
    t0 = time.perf_counter()
    lines = []
    ok = True
    for name in ("easy", "medium"):
        spec = suite_spec(name)
        raw, truth_left, truth_right = generate_phantom(spec)
        for model in Model:
            for side, truth in (("left", truth_left), ("right", truth_right)):
                result = _run_side(raw, name, model, side, spec)
                d = dice(result.mask, truth)
                ok = ok and d >= 0.90
                lines.append(f"{name}/{model.value}/{side}={d:.3f}")

    # hard phantom: inject random spurious blobs into the truth tube and
    # verify the cleanup removes them without eating the tube
    spec = suite_spec("hard")
    raw, truth_left, _ = generate_phantom(spec)
    seed = tube_seed(spec, "left")
    tube = truth_left.values
    guard = ndimage.binary_dilation(tube, iterations=3)
    rng = np.random.default_rng(7)
    injected = np.zeros_like(tube)
    placed = 0
    while placed < 40:
        i = rng.integers(2, tube.shape[0] - 3)
        j = rng.integers(2, tube.shape[1] - 3)
        k = rng.integers(1, tube.shape[2] - 1)
        blob = np.zeros_like(tube)
        blob[i - 1:i + 2, j - 1:j + 2, k] = True
        if not (blob & guard).any():
            injected |= blob
            placed += 1
    dirty = BinaryMask(tube | injected)
    cleaned = postprocess(dirty, seed)
    inj_total = int(injected.sum())
    inj_left = int((cleaned.values & injected).sum())
    removed_frac = 1.0 - inj_left / inj_total
    tube_change = abs(int((cleaned.values & tube).sum()) - int(tube.sum())) / tube.sum()
    ok = ok and removed_frac >= 0.95 and tube_change < 0.01

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _report(record_criterion, "phantom-end-to-end", ok,
            " ".join(lines) + f" | cleanup removed {removed_frac:.1%} of "
            f"{inj_total} injected voxels, tube change {tube_change:.2%}, "
            f"{elapsed:.0f}s")


# 7 -----------------------------------------------------------------------

def test_criterion_cost_gap(record_criterion):
    """Second-order model needs >= 5x iterations and wall time of the
    first-order one at matched Dice 0.90 on the easy phantom."""
    spec = suite_spec("easy")
    raw, truth_left, _ = generate_phantom(spec)
    seed = tube_seed(spec, "left")
    sigma = SUITE_PARAMS["easy"]["sigma"]
    image, tissue = preprocess_pipeline(raw, sigma)
    act = build_speed(image, tissue, SolverConfig(p=2, dx=DX))

    def iterations_to_dice(model, n_cap, target=0.90):
        cfg = SolverConfig(model=model, dx=DX, seed_radius_voxels=5.0)
        fld = init_levelset(raw.dims, seed, cfg, raw.spacing)
        dt = cfl_dt(act, cfg)
        # as `evolve` does: dt from the whole set, steps on what the seed reaches
        reached = act.reached(act.components(), fld.volume.values < 0)
        t0 = time.perf_counter()
        for n in range(1, n_cap + 1):
            fld = step(fld, reached, cfg, dt)
            if dice(extract_mask(fld), truth_left) >= target:
                return n, time.perf_counter() - t0
        return None, time.perf_counter() - t0

    n1, w1 = iterations_to_dice(Model.GEODESIC1, 500)
    n2, w2 = iterations_to_dice(Model.GEODESIC2, 2500)
    ok = n1 is not None and n2 is not None
    iter_ratio = n2 / n1 if ok else float("nan")
    wall_ratio = w2 / w1 if ok else float("nan")
    ok = ok and iter_ratio >= 5.0 and wall_ratio >= 5.0
    _report(record_criterion, "cost-gap", ok,
            f"first-order {n1} iters / {w1:.1f}s, second-order {n2} iters / "
            f"{w2:.1f}s -> ratios {iter_ratio:.1f}x iters, {wall_ratio:.1f}x wall")


# 8 -----------------------------------------------------------------------

def test_criterion_metric_oracles(record_criterion):
    """All four metrics match brute-force implementations to 1e-12."""
    rng = np.random.default_rng(99)
    worst = 0.0
    identity_worst = 0.0
    pairs = 0
    while pairs < 100:
        dims = tuple(rng.integers(3, 17, size=3))
        a = BinaryMask(rng.random(dims) < rng.uniform(0.05, 0.6))
        b = BinaryMask(rng.random(dims) < rng.uniform(0.05, 0.6))
        if a.count() == 0 or b.count() == 0:
            continue
        pairs += 1
        na, nb = a.count(), b.count()
        inter = int((a.values & b.values).sum())
        union = int((a.values | b.values).sum())
        d = dice(a, b)
        j = jaccard(a, b)
        worst = max(worst, abs(d - 2 * inter / (na + nb)), abs(j - inter / union))
        identity_worst = max(identity_worst, abs(d - 2 * j / (1 + j)))
        pa = surface_voxels(a).astype(float)
        pb = surface_voxels(b).astype(float)
        dm = cdist(pa, pb)
        d_ab = dm.min(axis=1)
        d_ba = dm.min(axis=0)
        worst = max(worst, abs(hausdorff(a, b) - max(d_ab.max(), d_ba.max())))
        worst = max(worst,
                    abs(assd(a, b) - (d_ab.sum() + d_ba.sum()) / (len(pa) + len(pb))))
    ok = worst <= 1e-12 and identity_worst <= 1e-15
    _report(record_criterion, "metric-oracles", ok,
            f"max deviation {worst:.2e} over 100 pairs, "
            f"dice=2j/(1+j) deviation {identity_worst:.2e}")


# 9 -----------------------------------------------------------------------

def test_criterion_cleanup_unit_suite(record_criterion):
    """Worked tolerance examples pass exactly; postprocess idempotent on
    50 random masks."""
    ok = True
    details = []

    # distance 2.0 against tolerance 0.75 -> removed
    vals = np.zeros((12, 12, 3), dtype=bool)
    vals[5, 5, :] = True
    vals[5, 7, 2] = True
    out = clean_spurious(BinaryMask(vals), start_slice=1)
    removed = not out.values[5, 7, 2] and out.values[5, 5, 2]
    ok = ok and removed
    details.append(f"dist-2.0-removed={removed}")

    # sub-tolerance voxel (distance 0.5 via a half-step tolerance chain:
    # an overlapping voxel has tolerance 0.75, and any voxel within it is
    # kept; on the integer grid the closest realization is distance 0,
    # i.e. an overlapping voxel survives)
    vals = np.zeros((12, 12, 3), dtype=bool)
    vals[5, 5, :] = True
    vals[6, 5, 2] = False
    out = clean_spurious(BinaryMask(vals), start_slice=1)
    kept = bool(out.values[5, 5, 2])
    ok = ok and kept
    details.append(f"overlap-kept={kept}")

    # idempotence on 50 structured random masks
    rng = np.random.default_rng(31)
    failures = 0
    for _ in range(50):
        vals = np.zeros((16, 16, 7), dtype=bool)
        ci, cj = rng.integers(6, 10, size=2)
        ii, jj = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        for k in range(7):
            vals[:, :, k] = (ii - ci) ** 2 + (jj - cj) ** 2 <= 16
            vals[:, :, k] |= rng.random((16, 16)) < rng.uniform(0.0, 0.1)
        mask = BinaryMask(vals)
        seed = VoxelIndex(int(ci), int(cj), 3)
        once = postprocess(mask, seed)
        twice = postprocess(once, seed)
        if not np.array_equal(once.values, twice.values):
            failures += 1
    ok = ok and failures == 0
    details.append(f"idempotence-failures={failures}/50")
    _report(record_criterion, "cleanup-unit-suite", ok, " ".join(details))
