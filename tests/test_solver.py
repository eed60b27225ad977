"""Level-set initialization, upwind differences, the Lax-Friedrichs
Hamiltonian, curvature and the explicit evolution loop."""
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelseg import solver
from levelseg.metrics import dice
from levelseg.phantom import SUITE_PARAMS, generate_phantom, suite_spec, tube_seed
from levelseg.postprocess import postprocess
from levelseg.preprocess import PreprocessConfig, preprocess_pipeline
from levelseg.solver import (
    BlowupError,
    LevelSetField,
    SeedError,
    SolverConfig,
    curvature_3d,
    evolve,
    evolve_seeds,
    extract_mask,
    init_levelset,
    llf_hamiltonian,
    step,
)
from levelseg.speed import Model, SpeedField, build_speed, cfl_dt
from levelseg.volumes import ScalarVolume, VoxelIndex

DX = 0.1


def _speed_from_g(g_arr, dx=DX):
    g = ScalarVolume(np.asarray(g_arr, dtype=float))
    gx, gy, gz = np.gradient(g.values, dx)
    sp = g.spacing
    return SpeedField(
        g,
        (ScalarVolume(gx, sp), ScalarVolume(gy, sp), ScalarVolume(gz, sp)),
        float(np.abs(g.values).max()),
        float(np.abs(gx).max()),
        float(np.abs(gy).max()),
        float(np.abs(gz).max()),
    )


def _unit_speed(dims):
    return _speed_from_g(np.ones(dims))


# ----------------------------------------------------------- init_levelset

def test_init_values_at_key_distances():
    dims = (31, 31, 31)
    seed = VoxelIndex(15, 15, 15)
    fld = init_levelset(dims, DX, seed, 5.0)
    assert fld.volume.values[15, 15, 15] == pytest.approx(-0.5)
    assert fld.volume.values[20, 15, 15] == pytest.approx(0.0)
    assert fld.volume.values[25, 15, 15] == pytest.approx(0.5)


def test_init_levelset_equals_meshgrid_form():
    dims, seed = (23, 17, 19), VoxelIndex(9, 8, 11)
    ii, jj, kk = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
    dist = np.sqrt((ii - seed.i) ** 2.0 + (jj - seed.j) ** 2.0 + (kk - seed.k) ** 2.0)
    fld = init_levelset(dims, DX, seed, 4.5)
    assert np.array_equal(fld.volume.values, DX * dist - DX * 4.5)


def test_init_margin_enforced():
    with pytest.raises(SeedError):
        init_levelset((20, 20, 20), DX, VoxelIndex(6, 10, 10), 5.0)  # 6 < 7
    init_levelset((20, 20, 20), DX, VoxelIndex(7, 10, 10), 5.0)  # boundary ok


def test_init_mask_is_discrete_ball():
    dims = (25, 25, 25)
    seed = VoxelIndex(12, 12, 12)
    fld = init_levelset(dims, DX, seed, 5.0)
    mask = extract_mask(fld)
    ii, jj, kk = np.meshgrid(*[np.arange(25)] * 3, indexing="ij")
    ball = (ii - 12) ** 2 + (jj - 12) ** 2 + (kk - 12) ** 2 < 25.0
    assert np.array_equal(mask.values, ball)


# --------------------------------------------------------- llf_hamiltonian

def test_llf_consistency_345():
    h = llf_hamiltonian(Model.CLASSICAL, 1.0, (0.0, 0.0, 0.0), (3, 3, 4, 4, 0, 0))
    assert h == pytest.approx(5.0, abs=1e-12)


def test_llf_pure_dissipation():
    # symmetric kink: averages vanish, leaving -alpha_x * a with alpha = g = 1
    a = 2.0
    h = llf_hamiltonian(Model.CLASSICAL, 1.0, (0.0, 0.0, 0.0), (-a, a, 0, 0, 0, 0))
    assert h == pytest.approx(-a, abs=1e-12)


def test_llf_geodesic_consistency():
    g, gx, gy, gz = 0.7, 0.2, -0.1, 0.05
    mu, eta = 1.3, 0.4
    a, b, c = 1.0, -2.0, 0.5
    h = llf_hamiltonian(Model.GEODESIC1, g, (gx, gy, gz), (a, a, b, b, c, c), mu, eta)
    expected = mu * g * np.sqrt(a * a + b * b + c * c) - eta * (gx * a + gy * b + gz * c)
    assert h == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(list(Model)),
    g=st.floats(0.01, 1.0),
    grads=st.tuples(*[st.floats(-2, 2)] * 3),
    diffs=st.tuples(*[st.floats(-3, 3)] * 6),
    bump=st.floats(1e-6, 1.0),
    arg=st.integers(0, 5),
)
def test_llf_argument_monotonicity(model, g, grads, diffs, bump, arg):
    # h non-decreasing in the forward differences (p+, q+, r+) and
    # non-increasing in the backward ones, whenever the dissipation
    # coefficients dominate the Hamiltonian slopes (here: mu g >= |grad H|
    # by construction of alpha)
    mu, eta = 1.0, 0.25
    base = llf_hamiltonian(model, g, grads, diffs, mu, eta)
    perturbed = list(diffs)
    perturbed[arg] += bump
    new = llf_hamiltonian(model, g, grads, tuple(perturbed), mu, eta)
    # h non-decreasing in the backward differences and non-increasing in
    # the forward ones, which makes u - dt*h non-decreasing in every
    # neighbor value (the monotone-scheme form)
    if arg % 2 == 0:  # backward difference
        assert new >= base - 1e-10
    else:             # forward difference
        assert new <= base + 1e-10


# ------------------------------------------------------------ curvature_3d

def _sphere_sdf(dims, center, dx):
    ii, jj, kk = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
    d = np.sqrt((ii - center[0]) ** 2 + (jj - center[1]) ** 2 + (kk - center[2]) ** 2)
    return dx * d


def test_curvature_plane_zero():
    ii = np.arange(9)[:, None, None] * np.ones((1, 9, 9))
    kappa = curvature_3d(0.3 * ii, DX)
    assert np.allclose(kappa[2:-2, 2:-2, 2:-2], 0.0, atol=1e-10)


def test_curvature_sphere():
    dims = (41, 41, 41)
    radius = 10 * DX
    v = _sphere_sdf(dims, (20, 20, 20), DX) - radius
    kappa = curvature_3d(v, DX)
    near = np.abs(v) < 0.5 * DX  # voxels adjacent to the front
    vals = kappa[near]
    assert np.allclose(vals, 2.0 / radius, rtol=0.15)


def test_curvature_cylinder():
    dims = (41, 41, 9)
    radius = 10 * DX
    ii, jj = np.meshgrid(np.arange(41), np.arange(41), indexing="ij")
    d2 = DX * np.sqrt((ii - 20) ** 2 + (jj - 20) ** 2) - radius
    v = np.repeat(d2[:, :, None], 9, axis=2)
    kappa = curvature_3d(v, DX)
    near = np.abs(v[:, :, 4]) < 0.5 * DX
    assert np.allclose(kappa[:, :, 4][near], 1.0 / radius, rtol=0.15)


def test_curvature_refines():
    radius = 1.0

    def max_err(dx, n):
        c = (n - 1) / 2.0
        v = _sphere_sdf((n, n, n), (c, c, c), dx) - radius
        kappa = curvature_3d(v, dx)
        near = np.abs(v) < 0.5 * dx
        return np.abs(kappa[near] - 2.0 / radius).max()

    coarse = max_err(0.1, 41)
    fine = max_err(0.05, 81)
    assert fine < coarse


# -------------------------------------------------------------------- step

def test_step_zero_speed_is_noop():
    dims = (15, 15, 15)
    fld = init_levelset(dims, DX, VoxelIndex(7, 7, 7), 5.0)
    sp = _speed_from_g(np.zeros(dims))
    assert sp.active.index.size == 0
    for model in Model:
        cfg = SolverConfig(model=model, seed=VoxelIndex(7, 7, 7))
        out = step(fld, sp.active, cfg, 0.01)
        assert np.array_equal(out.volume.values, fld.volume.values)
        assert out.n == fld.n + 1


def test_step_eikonal_expansion_short():
    # g = 1, classical: the zero level set is a sphere expanding at unit
    # speed, so the front radius grows by dt/dx voxels per step
    dims = (33, 33, 33)
    seed = VoxelIndex(16, 16, 16)
    fld = init_levelset(dims, DX, seed, 5.0)
    sp = _unit_speed(dims)
    cfg = SolverConfig(model=Model.CLASSICAL, seed=seed)
    dt = DX / 3.0
    n = 20
    for _ in range(n):
        fld = step(fld, sp.active, cfg, dt)
    mask = extract_mask(fld).values
    ii, jj, kk = np.meshgrid(*[np.arange(33)] * 3, indexing="ij")
    dist = np.sqrt((ii - 16) ** 2 + (jj - 16) ** 2 + (kk - 16) ** 2)
    radius = dist[mask].max() * DX
    expected = 5 * DX + n * dt
    assert abs(radius - expected) <= 2 * DX


def test_step_classical_nonincreasing_away_from_tip():
    # the cone tip is a local minimum and is averaged upward by the
    # dissipation; the disturbance spreads at most one voxel per step, so
    # beyond that region v sinks and the mask only grows
    dims = (21, 21, 21)
    seed = VoxelIndex(10, 10, 10)
    fld = init_levelset(dims, DX, seed, 5.0)
    sp = _unit_speed(dims)
    cfg = SolverConfig(model=Model.CLASSICAL, seed=seed)
    ii, jj, kk = np.meshgrid(*[np.arange(21)] * 3, indexing="ij")
    away = (ii - 10) ** 2 + (jj - 10) ** 2 + (kk - 10) ** 2 >= 25
    prev = fld.volume.values
    prev_count = extract_mask(fld).count()
    for _ in range(10):
        fld = step(fld, sp.active, cfg, DX / 3.0)
        assert np.all(fld.volume.values[away] <= prev[away] + 1e-12)
        count = extract_mask(fld).count()
        assert count >= prev_count
        prev, prev_count = fld.volume.values, count


def test_step_epsilon_zero_matches_first_order():
    dims = (17, 17, 17)
    seed = VoxelIndex(8, 8, 8)
    rng = np.random.default_rng(31)
    sp = _speed_from_g(rng.uniform(0.2, 1.0, size=dims))
    fld = init_levelset(dims, DX, seed, 5.0)
    cfg1 = SolverConfig(model=Model.GEODESIC1, seed=seed)
    cfg2 = SolverConfig(model=Model.GEODESIC2, epsilon=0.0, seed=seed)
    dt = 0.0025
    a, b = fld, fld
    for _ in range(5):
        a = step(a, sp.active, cfg1, dt)
        b = step(b, sp.active, cfg2, dt)
    assert np.max(np.abs(a.volume.values - b.volume.values)) <= 1e-12


def test_step_monotone_under_cfl():
    # a single-voxel increase of the field never decreases any updated
    # value (interior voxels; face replication couples a face voxel to
    # itself, which is outside the scheme's monotone stencil form)
    dims = (9, 9, 9)
    rng = np.random.default_rng(41)
    sp = _speed_from_g(rng.uniform(0.2, 1.0, size=dims))
    cfg = SolverConfig(model=Model.GEODESIC1, seed=VoxelIndex(4, 4, 4))
    dt = DX / (3.0 * sp.sup_g + sp.sup_gx + sp.sup_gy + sp.sup_gz)
    u = rng.standard_normal(dims) * 0.1
    base = step(LevelSetField(ScalarVolume(u)), sp.active, cfg, dt).volume.values
    for _ in range(200):
        i, j, k = rng.integers(1, 8, size=3)
        bumped = u.copy()
        bumped[i, j, k] += rng.uniform(0.001, 0.05)
        out = step(LevelSetField(ScalarVolume(bumped)), sp.active, cfg, dt).volume.values
        inner = (slice(1, -1),) * 3
        assert np.all(out[inner] >= base[inner] - 1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_blowup_detected():
    dims = (9, 9, 9)
    sp = _unit_speed(dims)
    cfg = SolverConfig(model=Model.CLASSICAL, seed=VoxelIndex(4, 4, 4))
    u = np.zeros(dims)
    u[4, 4, 4] = 1e308
    fld = LevelSetField(ScalarVolume(u), n=6)
    with pytest.raises(BlowupError, match="iteration 7"):
        step(fld, sp.active, cfg, 1e6)


# --------------------------------------------- step on the active set only

def _full_grid_upwind(u, dx):
    out = []
    for axis in range(3):
        d = np.diff(u, axis=axis) / dx
        first = np.take(d, [0], axis=axis)
        last = np.take(d, [-1], axis=axis)
        out.append(np.concatenate([first, d], axis=axis))
        out.append(np.concatenate([d, last], axis=axis))
    return tuple(out)


def _full_grid_curvature(u, dx, delta):
    w = np.pad(u, 1, mode="edge")
    c = w[1:-1, 1:-1, 1:-1]
    xp, xm = w[2:, 1:-1, 1:-1], w[:-2, 1:-1, 1:-1]
    yp, ym = w[1:-1, 2:, 1:-1], w[1:-1, :-2, 1:-1]
    zp, zm = w[1:-1, 1:-1, 2:], w[1:-1, 1:-1, :-2]
    vx = (xp - xm) / (2 * dx)
    vy = (yp - ym) / (2 * dx)
    vz = (zp - zm) / (2 * dx)
    vxx = (xp - 2 * c + xm) / dx**2
    vyy = (yp - 2 * c + ym) / dx**2
    vzz = (zp - 2 * c + zm) / dx**2
    vxy = (w[2:, 2:, 1:-1] + w[:-2, :-2, 1:-1] - w[2:, :-2, 1:-1] - w[:-2, 2:, 1:-1]) / (4 * dx**2)
    vxz = (w[2:, 1:-1, 2:] + w[:-2, 1:-1, :-2] - w[2:, 1:-1, :-2] - w[:-2, 1:-1, 2:]) / (4 * dx**2)
    vyz = (w[1:-1, 2:, 2:] + w[1:-1, :-2, :-2] - w[1:-1, 2:, :-2] - w[1:-1, :-2, 2:]) / (4 * dx**2)
    sq = vx * vx + vy * vy + vz * vz
    num = (
        vxx * (vy * vy + vz * vz)
        + vyy * (vx * vx + vz * vz)
        + vzz * (vx * vx + vy * vy)
        - 2 * vx * vy * vxy
        - 2 * vx * vz * vxz
        - 2 * vy * vz * vyz
    )
    return num / (sq + delta) ** 1.5


def _full_grid_step(fld, speed, cfg, dt):
    """Reference: the explicit update evaluated on every voxel, with
    whole-grid differences, np.gradient and edge-padded curvature."""
    u = fld.volume.values
    g = speed.g.values
    grads = tuple(gg.values for gg in speed.grad_g)
    h = llf_hamiltonian(cfg.model, g, grads, _full_grid_upwind(u, cfg.dx), cfg.mu, cfg.eta)
    if cfg.model is Model.GEODESIC2:
        kappa = _full_grid_curvature(u, cfg.dx, cfg.curvature_delta)
        cx, cy, cz = np.gradient(u, cfg.dx)
        grad_norm = np.sqrt(cx * cx + cy * cy + cz * cz)
        h = h - cfg.epsilon * g * grad_norm * kappa
    return LevelSetField(ScalarVolume(u - dt * h, fld.volume.spacing), fld.n + 1)


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(list(Model)),
    dims=st.tuples(*[st.integers(3, 7)] * 3),
    density=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_equals_full_grid_oracle(model, dims, density, seed):
    # g has zero patches and is nonzero at all eight corners, so every
    # face rule (both ends of every axis) runs on active voxels
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.05, 1.0, dims) * (rng.random(dims) < density)
    lo = [rng.integers(0, n) for n in dims]
    hi = [rng.integers(a, n + 1) for a, n in zip(lo, dims)]
    g[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = 0.0
    g[np.ix_(*[[0, n - 1] for n in dims])] = rng.uniform(0.05, 1.0, (2, 2, 2))
    sp = _speed_from_g(g)
    cfg = SolverConfig(model=model)
    fld = ref = LevelSetField(ScalarVolume(rng.standard_normal(dims) * 0.3))
    for _ in range(3):
        fld = step(fld, sp.active, cfg, 0.002)
        ref = _full_grid_step(ref, sp, cfg, 0.002)
        assert np.array_equal(fld.volume.values, ref.volume.values)


@pytest.fixture(scope="module")
def easy_speed():
    spec = suite_spec("easy")
    raw, _, _ = generate_phantom(spec)
    image, tissue = preprocess_pipeline(raw, PreprocessConfig(sigma=SUITE_PARAMS["easy"]["sigma"]))
    return raw, tube_seed(spec, "left"), build_speed(image, tissue)


@pytest.mark.parametrize("model", list(Model))
def test_step_equals_full_grid_oracle_on_easy(easy_speed, model):
    raw, seed, sp = easy_speed
    cfg = SolverConfig(model=model, seed=seed)
    dt = cfl_dt(sp, model, cfg.mu, cfg.eta, cfg.dx)
    fld = ref = init_levelset(raw.dims, cfg.dx, seed, cfg.seed_radius_voxels, raw.spacing)
    for _ in range(50):
        fld = step(fld, sp.active, cfg, dt)
        ref = _full_grid_step(ref, sp, cfg, dt)
        assert np.array_equal(fld.volume.values, ref.volume.values)
    assert fld.n == ref.n == 50


@pytest.mark.parametrize("model", list(Model))
def test_step_equals_full_grid_oracle_on_all_faces(model):
    # g is nonzero on every face voxel, so the active set touches all six
    # faces, along with its edges and corners
    dims = (6, 7, 8)
    rng = np.random.default_rng(23)
    g = rng.uniform(0.05, 1.0, dims)
    g[2:4, 2:5, 2:6] = 0.0
    sp = _speed_from_g(g)
    coords = np.unravel_index(sp.active.index, dims)
    for axis, n in enumerate(dims):
        assert (coords[axis] == 0).any() and (coords[axis] == n - 1).any()
    cfg = SolverConfig(model=model)
    fld = ref = LevelSetField(ScalarVolume(rng.standard_normal(dims) * 0.3))
    for _ in range(5):
        fld = step(fld, sp.active, cfg, 0.002)
        ref = _full_grid_step(ref, sp, cfg, 0.002)
        assert np.array_equal(fld.volume.values, ref.volume.values)


def test_step_is_pure_and_reuses_tables():
    dims = (11, 11, 11)
    rng = np.random.default_rng(7)
    g = rng.uniform(0.2, 1.0, dims)
    g[:5] = 0.0
    for model in Model:
        sp = _speed_from_g(g)
        cfg = SolverConfig(model=model)
        fld = init_levelset(dims, DX, VoxelIndex(5, 5, 5), 3.0)
        before = fld.volume.values.copy()
        out = step(fld, sp.active, cfg, 0.0025)
        assert np.array_equal(fld.volume.values, before)
        assert out.volume.values is not fld.volume.values
        # the active set is where g or grad g is nonzero; nothing else moves
        grads = [gg.values for gg in sp.grad_g]
        active = (g != 0) | (grads[0] != 0) | (grads[1] != 0) | (grads[2] != 0)
        assert np.array_equal(np.flatnonzero(active), sp.active.index)
        assert not active[:4].any()
        assert np.array_equal(out.volume.values[~active], before[~active])
        # one gather table per model: the 19-point stencil for gmfd2, the
        # 7-point faces table, its first seven rows, for the others
        act = sp.active
        name = "stencil" if model is Model.GEODESIC2 else "faces"
        table = getattr(act, name)
        assert set(vars(act)) & {"stencil", "faces"} == {name}
        for _ in range(3):
            out = step(out, sp.active, cfg, 0.0025)
        assert sp.active is act and getattr(act, name) is table
        assert np.array_equal(act.faces, act.stencil[:7])


# ------------------------------------------------------------ extract_mask

def test_extract_mask_strict_negative():
    vals = np.zeros((3, 3, 3))
    vals[0, 0, 0] = -0.1
    fld = LevelSetField(ScalarVolume(vals))
    mask = extract_mask(fld)
    assert mask.count() == 1  # zeros (the front itself) excluded
    assert np.array_equal(
        extract_mask(LevelSetField(ScalarVolume(np.ones((3, 3, 3))))).values,
        np.zeros((3, 3, 3), dtype=bool),
    )


# ------------------------------------------------------------------ evolve

def _uniform_phantom(dims=(25, 25, 25), hu=60.0):
    # a block of muscle HU surrounded by fat; trivial segmentation target
    vals = np.full(dims, -100.0)
    vals[3:-3, 3:-3, 3:-3] = hu
    return ScalarVolume(vals)


def test_evolve_nmax_zero_returns_initial_sphere():
    vol = _uniform_phantom()
    seed = VoxelIndex(12, 12, 12)
    cfg = SolverConfig(model=Model.GEODESIC1, seed=seed, n_max=0)
    result = evolve(vol, cfg)
    expected = extract_mask(init_levelset(vol.dims, DX, seed, 5.0))
    assert np.array_equal(result.mask.values, expected.values)
    assert result.iterations == 0


def test_evolve_seed_outside_tissue():
    vol = _uniform_phantom()
    cfg = SolverConfig(model=Model.GEODESIC1, seed=VoxelIndex(12, 12, 1), n_max=5)
    with pytest.raises(SeedError, match="tissue"):
        evolve(vol, cfg)


@pytest.mark.parametrize("seed, message", [
    (None, "no seed"),
    (VoxelIndex(999, 12, 12), "outside the volume"),
    (VoxelIndex(12, -1, 12), "outside the volume"),
])
def test_evolve_seed_missing_or_off_grid(seed, message):
    cfg = SolverConfig(model=Model.GEODESIC1, seed=seed, n_max=5)
    with pytest.raises(SeedError, match=message):
        evolve(_uniform_phantom(), cfg)


def test_evolve_deterministic():
    vol = _uniform_phantom()
    cfg = SolverConfig(model=Model.GEODESIC1, seed=VoxelIndex(12, 12, 12), n_max=30)
    a = evolve(vol, cfg)
    b = evolve(vol, cfg)
    assert np.array_equal(a.mask.values, b.mask.values)
    assert a.iterations == b.iterations == 30


def test_evolve_early_stop_stagnation():
    # zero-gradient interior: the front freezes once it reaches the fat
    # boundary where g = 0, so stagnation triggers before n_max
    vol = _uniform_phantom()
    cfg = SolverConfig(
        model=Model.CLASSICAL,
        seed=VoxelIndex(12, 12, 12),
        n_max=5000,
        early_stop="stagnation",
        stagnation_window=10,
    )
    result = evolve(vol, cfg)
    assert result.iterations < 5000


def _whole_set_loop(sp, dims, cfg, act=None):
    """Reference: `step` on the whole active set of `sp` (or on `act`) from
    the sphere at `cfg.seed`, to `cfg.n_max` steps or, with stagnation
    stop, until the whole-grid mask has not changed for
    `cfg.stagnation_window` consecutive steps."""
    fld = init_levelset(dims, cfg.dx, cfg.seed, cfg.seed_radius_voxels)
    dt = cfl_dt(sp, cfg.model, cfg.mu, cfg.eta, cfg.dx)
    prev, stagnant = None, 0
    while fld.n < cfg.n_max and stagnant < cfg.stagnation_window:
        fld = step(fld, sp.active if act is None else act, cfg, dt)
        if cfg.early_stop == "stagnation":
            mask = extract_mask(fld).values
            stagnant = stagnant + 1 if prev is not None and np.array_equal(mask, prev) else 0
            prev = mask
    return fld


def _whole_set_reference(vol, cfg):
    """`_whole_set_loop` on the speed field `evolve` builds for `vol`."""
    image, tissue = preprocess_pipeline(vol, PreprocessConfig())
    sp = build_speed(image, tissue, cfg.p, cfg.dx)
    return _whole_set_loop(sp, vol.dims, cfg), sp


def test_evolve_stagnation_matches_whole_grid_masks():
    vol = _uniform_phantom()
    cfg = SolverConfig(model=Model.GEODESIC1, seed=VoxelIndex(12, 12, 12), n_max=5000,
                       early_stop="stagnation", stagnation_window=10)
    result = evolve(vol, cfg)
    fld, _ = _whole_set_reference(vol, cfg)
    assert result.iterations == fld.n < cfg.n_max
    assert np.array_equal(result.mask.values, extract_mask(fld).values)


@pytest.mark.parametrize("model", list(Model))
def test_evolve_seeds_shared_component_steps_whole_set(model):
    # both seeds lie in the one muscle block: each reaches the whole active
    # set, which the two loops share, and nothing changes
    vol = _uniform_phantom()
    seeds = [VoxelIndex(12, 12, 12), VoxelIndex(9, 14, 11)]
    cfg = SolverConfig(model=model, n_max=40)
    runs, _ = solver._prepare(vol, cfg, seeds, None)
    (_, left), (_, right) = runs
    results = evolve_seeds(vol, cfg, seeds)
    for seed, result, act in zip(seeds, results, (left, right)):
        fld, sp = _whole_set_reference(vol, replace(cfg, seed=seed))
        assert np.array_equal(act.index, sp.active.index)
        assert result.active_voxels == sp.active.index.size
        assert np.array_equal(result.mask.values, extract_mask(fld).values)
        assert result.iterations == fld.n == cfg.n_max
    assert left is right


def _box_volume(dims, boxes):
    """Muscle HU in `boxes`, fat elsewhere: the tissue mask."""
    vals = np.full(dims, -100.0)
    for box in boxes:
        vals[box] = 60.0
    return ScalarVolume(vals)


def _evolve_on_speed(vol, sp, cfg, seeds):
    """`evolve_seeds` on `vol` (for its tissue mask) with the speed field
    `sp`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "build_speed", lambda *args: sp)
        return evolve_seeds(vol, cfg, seeds)


def _two_boxes(rng, gap, ends, textured=True, dims=(30, 12, 12)):
    """Two boxes of g along x, `gap` fat planes apart, `ends` voxels off
    the grid faces (x-, y-, z-, x+, y+, z+): one component of the active
    set for a gap of 1 or 2, two from 3 on."""
    split = 13 + int(rng.integers(0, 3))
    cross = tuple(slice(ends[i], dims[i] - ends[i + 3]) for i in (1, 2))
    boxes = [(slice(ends[0], split),) + cross,
             (slice(split + gap, dims[0] - ends[3]),) + cross]
    g = np.zeros(dims)
    for box in boxes:
        g[box] = rng.uniform(0.05, 1.0, g[box].shape) if textured else 1.0
    # per box, the half-open range of seed x, 4 voxels (the margin of a
    # radius-2 sphere) from the grid faces
    xs = [(4, split), (split + gap, dims[0] - 4)]
    return _box_volume(dims, boxes), _speed_from_g(g), xs


def _check_against_whole_set(vol, sp, cfg, seeds):
    results = _evolve_on_speed(vol, sp, cfg, seeds)
    for seed, result in zip(seeds, results):
        fld = _whole_set_loop(sp, vol.dims, replace(cfg, seed=seed))
        assert np.array_equal(result.mask.values, extract_mask(fld).values)
        assert result.iterations == fld.n


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(list(Model)),
    early_stop=st.sampled_from(["off", "stagnation"]),
    gap=st.integers(1, 5),
    ends=st.tuples(*[st.integers(1, 3)] * 6),
    picks=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_seeds_equals_whole_set_on_two_boxes(model, early_stop, gap, ends, picks, seed):
    # seeds in either box, or both in one; a sphere near the gap can reach
    # the other box's component.  The boxes stay off the grid faces, where
    # the scheme is not monotone (see the test below).
    rng = np.random.default_rng(seed)
    vol, sp, xs = _two_boxes(rng, gap, ends)
    seeds = [VoxelIndex(int(rng.integers(*xs[b])), int(rng.integers(4, 8)),
                        int(rng.integers(4, 8))) for b in picks]
    cfg = SolverConfig(model=model, n_max=60, seed_radius_voxels=2.0,
                       early_stop=early_stop, stagnation_window=5)
    _check_against_whole_set(vol, sp, cfg, seeds)


@pytest.mark.xfail(strict=True, reason="on a grid face the one-sided difference drops the "
                   "dissipation along that axis, so the scheme is not monotone there")
def test_evolve_seeds_equals_whole_set_with_textured_grid_faces():
    # with a textured g on the grid faces normal to y and z, the whole-set
    # loop drives the right box, which the left seed never reaches, below 0
    vol, sp, _ = _two_boxes(np.random.default_rng(0), 3, (1, 0, 0, 1, 0, 0))
    cfg = SolverConfig(model=Model.CLASSICAL, n_max=200, seed_radius_voxels=2.0)
    _check_against_whole_set(vol, sp, cfg, [VoxelIndex(6, 6, 6)])


@pytest.mark.parametrize("model", list(Model))
def test_evolve_seeds_steps_every_component_the_sphere_reaches(model):
    # the seed's sphere crosses the fat gap into the right box's component,
    # so that component must be stepped too: stepping the seed's own
    # component alone gives another mask
    rng = np.random.default_rng(5)
    vol, sp, xs = _two_boxes(rng, 3, (1,) * 6, textured=False, dims=(30, 14, 14))
    labels = sp.active.components()
    assert set(labels) == {1, 2}
    # on the left box's last plane: the sphere reaches 3 planes into the gap
    seed = VoxelIndex(xs[0][1] - 1, 6, 6)
    cfg = SolverConfig(model=model, seed=seed, n_max=30, seed_radius_voxels=3.5)
    result, = _evolve_on_speed(vol, sp, cfg, [seed])
    assert result.active_voxels == sp.active.index.size
    fld = _whole_set_loop(sp, vol.dims, cfg)
    assert np.array_equal(result.mask.values, extract_mask(fld).values)
    flat = np.ravel_multi_index(seed.as_tuple(), vol.dims)
    own = sp.active.restrict(labels == labels[np.searchsorted(sp.active.index, flat)])
    fld = _whole_set_loop(sp, vol.dims, cfg, own)
    assert not np.array_equal(result.mask.values, extract_mask(fld).values)


@pytest.mark.parametrize("model", list(Model))
def test_evolve_seeds_equals_evolve_per_seed(model):
    # two muscle blocks of different widths: the seeds stagnate at
    # different iterations, so one loop ends while the other still runs
    vals = np.full((40, 25, 25), -100.0)
    vals[3:18, 3:-3, 3:-3] = 60.0
    vals[20:37, 3:-3, 3:-3] = 60.0
    vol = ScalarVolume(vals)
    seeds = [VoxelIndex(10, 12, 12), VoxelIndex(28, 12, 12)]
    cfg = SolverConfig(model=model, n_max=1000, early_stop="stagnation", stagnation_window=20)
    pair = evolve_seeds(vol, cfg, seeds)
    singles = [evolve(vol, SolverConfig(model=model, seed=seed, n_max=1000,
                                        early_stop="stagnation", stagnation_window=20))
               for seed in seeds]
    for got, want in zip(pair, singles):
        assert np.array_equal(got.mask.values, want.mask.values)
        assert got.iterations == want.iterations < cfg.n_max
        assert got.dt == want.dt
    assert pair[0].iterations != pair[1].iterations


def test_evolve_seeds_more_workers_than_cores_fast_switching():
    # three workers share the active set while the interpreter switches
    # threads every microsecond; each seed must still get its own result
    vol = _uniform_phantom()
    seeds = [VoxelIndex(12, 12, 12), VoxelIndex(9, 12, 12), VoxelIndex(12, 15, 12),
             VoxelIndex(12, 12, 8)]
    cfg = SolverConfig(model=Model.GEODESIC2, n_max=40)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = evolve_seeds(vol, cfg, seeds)
    finally:
        sys.setswitchinterval(interval)
    for got, seed in zip(results, seeds):
        want = evolve(vol, SolverConfig(model=Model.GEODESIC2, seed=seed, n_max=40))
        assert np.array_equal(got.mask.values, want.mask.values)
        assert got.iterations == want.iterations == 40


def test_evolve_seeds_checks_every_seed_before_stepping(monkeypatch):
    def no_step(*args):
        raise AssertionError("step called")

    monkeypatch.setattr(solver, "step", no_step)
    cfg = SolverConfig(model=Model.GEODESIC1, n_max=5)
    good = VoxelIndex(12, 12, 12)
    with pytest.raises(SeedError, match="outside the volume"):
        evolve_seeds(_uniform_phantom(), cfg, [good, VoxelIndex(12, 99, 12)])
    with pytest.raises(SeedError, match="tissue"):
        evolve_seeds(_uniform_phantom(), cfg, [good, VoxelIndex(12, 12, 1)])
    with pytest.raises(SeedError, match="closer than"):
        evolve_seeds(_uniform_phantom(), cfg, [good, VoxelIndex(12, 12, 4)])
    with pytest.raises(SeedError, match="no seed"):
        evolve_seeds(_uniform_phantom(), cfg, [])


def test_evolve_seeds_stops_the_other_loop_on_error(monkeypatch):
    # the worker's loop raises at its third step; the calling thread's loop
    # stops at its next step and the worker's exception propagates
    calls = {}
    original = solver.step

    def failing_step(fld, act, cfg, dt):
        name = threading.current_thread().name
        calls[name] = calls.get(name, 0) + 1
        if threading.current_thread() is not threading.main_thread() and fld.n == 2:
            raise BlowupError("numerical blow-up at iteration 3")
        time.sleep(0.001)
        return original(fld, act, cfg, dt)

    monkeypatch.setattr(solver, "step", failing_step)
    before = threading.active_count()
    cfg = SolverConfig(model=Model.CLASSICAL, n_max=5000)
    with pytest.raises(BlowupError, match="iteration 3"):
        evolve_seeds(_uniform_phantom(), cfg, [VoxelIndex(12, 12, 12), VoxelIndex(11, 12, 12)])
    assert threading.active_count() == before
    assert calls[threading.main_thread().name] < 5000


# Left tube of the hard phantom at the suite budgets: (raw, postprocessed)
# Dice floors about 0.002 below the measured 0.8368/0.8776 (classical),
# 0.7725/0.7991 (gmfd1) and 0.7515/0.7970 (gmfd2).  No release criterion
# gates the hard phantom's Dice (the left tube shares its component of the
# active set with a distractor); the floors keep a change from lowering it
# unnoticed.
HARD_LEFT_DICE_FLOORS = {
    Model.CLASSICAL: (0.835, 0.875),
    Model.GEODESIC1: (0.770, 0.797),
    Model.GEODESIC2: (0.749, 0.795),
}


@pytest.mark.parametrize("model", list(Model))
def test_hard_phantom_left_dice_floors(model):
    spec = suite_spec("hard")
    raw, truth, _ = generate_phantom(spec)
    params = SUITE_PARAMS["hard"]
    n_max = params["n_max_second_order"] if model is Model.GEODESIC2 else params["n_max"]
    seed = tube_seed(spec, "left")
    result = evolve(raw, SolverConfig(model=model, seed=seed, n_max=n_max),
                    PreprocessConfig(sigma=params["sigma"]))
    raw_floor, cleaned_floor = HARD_LEFT_DICE_FLOORS[model]
    assert dice(result.mask, truth) >= raw_floor
    assert dice(postprocess(result.mask, seed), truth) >= cleaned_floor


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dx=0.0)
    with pytest.raises(ValueError):
        SolverConfig(n_max=-1)
    with pytest.raises(ValueError):
        SolverConfig(early_stop="sometimes")
