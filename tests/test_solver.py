"""Level-set initialization, upwind differences, the Lax-Friedrichs
Hamiltonian, curvature and the explicit evolution loop."""
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from levelseg import solver
from levelseg.active import CONNECTIVITY, ActiveSet
from levelseg.metrics import dice
from levelseg.phantom import SUITE_PARAMS, generate_phantom, suite_spec, tube_seed
from levelseg.preprocess import preprocess_pipeline
from levelseg.solver import (
    BlowupError,
    LevelSetField,
    SeedError,
    SolverConfig,
    evolve,
    extract_mask,
    init_levelset,
    llf_hamiltonian,
    step,
)
from levelseg.speed import Model, build_speed, cfl_dt
from levelseg.volumes import ScalarVolume, VoxelIndex

DX = 0.1
UNIT = (1.0, 1.0, 1.0)
# the grid step of the tests and a seed sphere of 5 voxels
CFG = SolverConfig(dx=DX, seed_radius_voxels=5.0)


def _active_from_g(g_arr, dx=DX):
    """The active set of the speed field g, as `build_speed` makes it."""
    g = np.asarray(g_arr, dtype=float)
    return ActiveSet.of_speed(g, np.gradient(g, dx))


def _unit_active(dims):
    return _active_from_g(np.ones(dims))


def _grid(act, values):
    """The full grid of `act`: `values` on the set, 0 elsewhere.  Outside
    the set g and every component of grad g are 0, so this rebuilds them
    exactly."""
    grid = np.zeros(act.shape, np.asarray(values).dtype)
    grid.put(act.index, values)
    return grid


# ----------------------------------------------------------- init_levelset

def test_init_values_at_key_distances():
    dims = (31, 31, 31)
    seed = VoxelIndex(15, 15, 15)
    fld = init_levelset(dims, seed, CFG, UNIT)
    assert fld.volume.values[15, 15, 15] == pytest.approx(-0.5)
    assert fld.volume.values[20, 15, 15] == pytest.approx(0.0)
    assert fld.volume.values[25, 15, 15] == pytest.approx(0.5)


def test_init_levelset_equals_meshgrid_form():
    dims, seed = (23, 17, 19), VoxelIndex(9, 8, 11)
    ii, jj, kk = np.meshgrid(*[np.arange(n) for n in dims], indexing="ij")
    dist = np.sqrt((ii - seed.i) ** 2.0 + (jj - seed.j) ** 2.0 + (kk - seed.k) ** 2.0)
    fld = init_levelset(dims, seed, SolverConfig(dx=DX, seed_radius_voxels=4.5), UNIT)
    assert np.array_equal(fld.volume.values, DX * dist - DX * 4.5)


def test_init_margin_enforced():
    with pytest.raises(SeedError):
        init_levelset((20, 20, 20), VoxelIndex(6, 10, 10), CFG, UNIT)  # 6 < 7
    init_levelset((20, 20, 20), VoxelIndex(7, 10, 10), CFG, UNIT)  # boundary ok


def test_init_mask_is_discrete_ball():
    dims = (25, 25, 25)
    seed = VoxelIndex(12, 12, 12)
    fld = init_levelset(dims, seed, CFG, UNIT)
    mask = extract_mask(fld)
    ii, jj, kk = np.meshgrid(*[np.arange(25)] * 3, indexing="ij")
    ball = (ii - 12) ** 2 + (jj - 12) ** 2 + (kk - 12) ** 2 < 25.0
    assert np.array_equal(mask.values, ball)


# --------------------------------------------------------- llf_hamiltonian

def test_llf_consistency_345():
    h = llf_hamiltonian(Model.CLASSICAL, 1.0, (0.0, 0.0, 0.0), (3, 3, 4, 4, 0, 0), 1.0, 0.25)
    assert h == pytest.approx(5.0, abs=1e-12)


def test_llf_pure_dissipation():
    # symmetric kink: averages vanish, leaving -alpha_x * a with alpha = g = 1
    a = 2.0
    h = llf_hamiltonian(Model.CLASSICAL, 1.0, (0.0, 0.0, 0.0), (-a, a, 0, 0, 0, 0), 1.0, 0.25)
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


def test_curvature_plane_zero(grid_curvature):
    ii = np.arange(9)[:, None, None] * np.ones((1, 9, 9))
    kappa = grid_curvature(0.3 * ii, DX)
    assert np.allclose(kappa[2:-2, 2:-2, 2:-2], 0.0, atol=1e-10)


def test_curvature_sphere(grid_curvature):
    dims = (41, 41, 41)
    radius = 10 * DX
    v = _sphere_sdf(dims, (20, 20, 20), DX) - radius
    kappa = grid_curvature(v, DX)
    near = np.abs(v) < 0.5 * DX  # voxels adjacent to the front
    vals = kappa[near]
    assert np.allclose(vals, 2.0 / radius, rtol=0.15)


def test_curvature_cylinder(grid_curvature):
    dims = (41, 41, 9)
    radius = 10 * DX
    ii, jj = np.meshgrid(np.arange(41), np.arange(41), indexing="ij")
    d2 = DX * np.sqrt((ii - 20) ** 2 + (jj - 20) ** 2) - radius
    v = np.repeat(d2[:, :, None], 9, axis=2)
    kappa = grid_curvature(v, DX)
    near = np.abs(v[:, :, 4]) < 0.5 * DX
    assert np.allclose(kappa[:, :, 4][near], 1.0 / radius, rtol=0.15)


# -------------------------------------------------------------------- step

def test_step_zero_speed_is_noop():
    dims = (15, 15, 15)
    fld = init_levelset(dims, VoxelIndex(7, 7, 7), CFG, UNIT)
    act = _active_from_g(np.zeros(dims))
    assert act.index.size == 0
    for model in Model:
        cfg = SolverConfig(model=model)
        out = step(fld, act, cfg, 0.01)
        assert np.array_equal(out.volume.values, fld.volume.values)
        assert out.n == fld.n + 1


def test_step_eikonal_expansion_short():
    # g = 1, classical: the zero level set is a sphere expanding at unit
    # speed, so the front radius grows by dt/dx voxels per step
    dims = (33, 33, 33)
    seed = VoxelIndex(16, 16, 16)
    fld = init_levelset(dims, seed, CFG, UNIT)
    act = _unit_active(dims)
    cfg = SolverConfig(model=Model.CLASSICAL)
    dt = DX / 3.0
    n = 20
    for _ in range(n):
        fld = step(fld, act, cfg, dt)
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
    fld = init_levelset(dims, seed, CFG, UNIT)
    act = _unit_active(dims)
    cfg = SolverConfig(model=Model.CLASSICAL)
    ii, jj, kk = np.meshgrid(*[np.arange(21)] * 3, indexing="ij")
    away = (ii - 10) ** 2 + (jj - 10) ** 2 + (kk - 10) ** 2 >= 25
    prev = fld.volume.values
    prev_count = extract_mask(fld).count()
    for _ in range(10):
        fld = step(fld, act, cfg, DX / 3.0)
        assert np.all(fld.volume.values[away] <= prev[away] + 1e-12)
        count = extract_mask(fld).count()
        assert count >= prev_count
        prev, prev_count = fld.volume.values, count


def test_step_epsilon_zero_matches_first_order():
    dims = (17, 17, 17)
    seed = VoxelIndex(8, 8, 8)
    rng = np.random.default_rng(31)
    act = _active_from_g(rng.uniform(0.2, 1.0, size=dims))
    fld = init_levelset(dims, seed, CFG, UNIT)
    cfg1 = SolverConfig(model=Model.GEODESIC1)
    cfg2 = SolverConfig(model=Model.GEODESIC2, epsilon=0.0)
    dt = 0.0025
    a, b = fld, fld
    for _ in range(5):
        a = step(a, act, cfg1, dt)
        b = step(b, act, cfg2, dt)
    assert np.max(np.abs(a.volume.values - b.volume.values)) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_blowup_detected():
    dims = (9, 9, 9)
    act = _unit_active(dims)
    cfg = SolverConfig(model=Model.CLASSICAL)
    u = np.zeros(dims)
    u[4, 4, 4] = 1e308
    fld = LevelSetField(ScalarVolume(u), n=6)
    with pytest.raises(BlowupError, match="iteration 7"):
        step(fld, act, cfg, 1e6)


# --------------------------------------------- step on the active set only

def _padded_faces(u):
    """The edge-padded `u` and the values of its centre and six face
    neighbours (x+, x-, y+, y-, z+, z-) at every voxel: beyond a grid face
    the neighbour is the voxel itself."""
    w = np.pad(u, 1, mode="edge")
    return w, (w[1:-1, 1:-1, 1:-1],
               w[2:, 1:-1, 1:-1], w[:-2, 1:-1, 1:-1],
               w[1:-1, 2:, 1:-1], w[1:-1, :-2, 1:-1],
               w[1:-1, 1:-1, 2:], w[1:-1, 1:-1, :-2])


def _full_grid_upwind(u, dx):
    """The one-sided differences (p-, p+, q-, q+, r-, r+) of `u`."""
    _, (c, *faces) = _padded_faces(u)
    out = []
    for p, m in zip(faces[0::2], faces[1::2]):
        out += [(c - m) / dx, (p - c) / dx]
    return out


def _full_grid_centred(u, dx):
    """The centred gradient (vx, vy, vz) of `u`."""
    _, (_, xp, xm, yp, ym, zp, zm) = _padded_faces(u)
    return (xp - xm) / (2 * dx), (yp - ym) / (2 * dx), (zp - zm) / (2 * dx)


def _full_grid_curvature(u, dx, delta):
    w, (c, xp, xm, yp, ym, zp, zm) = _padded_faces(u)
    vx, vy, vz = _full_grid_centred(u, dx)
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


def _llf_row_wise(model, g, grad_g, diffs, mu, eta):
    pm, pp, qm, qp, rm, rp = diffs
    pa = 0.5 * (pm + pp)
    qa = 0.5 * (qm + qp)
    ra = 0.5 * (rm + rp)
    norm = np.sqrt(pa * pa + qa * qa + ra * ra)
    if model is Model.CLASSICAL:
        h = g * norm
        ax = ay = az = g
    else:
        gx, gy, gz = grad_g
        h = mu * g * norm - eta * (gx * pa + gy * qa + gz * ra)
        ax = mu * g + eta * np.abs(gx)
        ay = mu * g + eta * np.abs(gy)
        az = mu * g + eta * np.abs(gz)
    return h - 0.5 * (ax * (pp - pm) + ay * (qp - qm) + az * (rp - rm))


def _full_grid_step(fld, act, cfg, dt):
    """Reference: the explicit update evaluated on every voxel, axis by
    axis, from the edge-padded field (a zero-flux ghost value beyond each
    grid face), with g and grad g scattered from the active set `act` to
    the whole grid."""
    u = fld.volume.values
    g = _grid(act, act.g)
    grad_g = [_grid(act, c) for c in act.grad_g]
    h = _llf_row_wise(cfg.model, g, grad_g, _full_grid_upwind(u, cfg.dx), cfg.mu, cfg.eta)
    if cfg.model is Model.GEODESIC2:
        kappa = _full_grid_curvature(u, cfg.dx, 1e-8)
        cx, cy, cz = _full_grid_centred(u, cfg.dx)
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
    # g has zero patches and is nonzero at all eight corners, so active
    # voxels lie on both grid faces of every axis
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.05, 1.0, dims) * (rng.random(dims) < density)
    lo = [rng.integers(0, n) for n in dims]
    hi = [rng.integers(a, n + 1) for a, n in zip(lo, dims)]
    g[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = 0.0
    g[np.ix_(*[[0, n - 1] for n in dims])] = rng.uniform(0.05, 1.0, (2, 2, 2))
    act = _active_from_g(g)
    cfg = SolverConfig(model=model)
    fld = ref = LevelSetField(ScalarVolume(rng.standard_normal(dims) * 0.3))
    for _ in range(3):
        fld = step(fld, act, cfg, 0.002)
        ref = _full_grid_step(ref, act, cfg, 0.002)
        assert np.array_equal(fld.volume.values, ref.volume.values)


@pytest.fixture(scope="module")
def easy_speed():
    spec = suite_spec("easy")
    raw, _, _ = generate_phantom(spec)
    image, tissue = preprocess_pipeline(raw, SUITE_PARAMS["easy"]["sigma"])
    return raw, tube_seed(spec, "left"), build_speed(image, tissue, SolverConfig())


@pytest.mark.parametrize("model", list(Model))
def test_step_equals_full_grid_oracle_on_easy(easy_speed, model):
    raw, seed, act = easy_speed
    cfg = SolverConfig(model=model)
    dt = cfl_dt(act, cfg)
    fld = ref = init_levelset(raw.dims, seed, cfg, raw.spacing)
    for _ in range(50):
        fld = step(fld, act, cfg, dt)
        ref = _full_grid_step(ref, act, cfg, dt)
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
    act = _active_from_g(g)
    coords = np.unravel_index(act.index, dims)
    for axis, n in enumerate(dims):
        assert (coords[axis] == 0).any() and (coords[axis] == n - 1).any()
    cfg = SolverConfig(model=model)
    fld = ref = LevelSetField(ScalarVolume(rng.standard_normal(dims) * 0.3))
    for _ in range(5):
        fld = step(fld, act, cfg, 0.002)
        ref = _full_grid_step(ref, act, cfg, 0.002)
        assert np.array_equal(fld.volume.values, ref.volume.values)


def test_step_is_pure_and_reuses_tables():
    dims = (11, 11, 11)
    rng = np.random.default_rng(7)
    g = rng.uniform(0.2, 1.0, dims)
    g[:5] = 0.0
    for model in Model:
        act = _active_from_g(g)
        cfg = SolverConfig(model=model, seed_radius_voxels=3.0)
        fld = init_levelset(dims, VoxelIndex(5, 5, 5), cfg, UNIT)
        before = fld.volume.values.copy()
        out = step(fld, act, cfg, 0.0025)
        assert np.array_equal(fld.volume.values, before)
        assert out.volume.values is not fld.volume.values
        # the active set is where g or grad g is nonzero; nothing else moves
        gx, gy, gz = np.gradient(g, DX)
        active = (g != 0) | (gx != 0) | (gy != 0) | (gz != 0)
        assert np.array_equal(np.flatnonzero(active), act.index)
        assert not active[:4].any()
        assert np.array_equal(out.volume.values[~active], before[~active])
        # one gather table per model: the 19-point stencil for gmfd2, the
        # 7-point faces table, its first seven rows, for the others
        name = "stencil" if model is Model.GEODESIC2 else "faces"
        table = getattr(act, name)
        assert set(vars(act)) & {"stencil", "faces"} == {name}
        for _ in range(3):
            out = step(out, act, cfg, 0.0025)
        assert getattr(act, name) is table
        assert np.array_equal(act.faces, act.stencil[:7])


def test_gmfd1_geodesic_bias_is_the_zero_speed_ring(easy_speed, suite_runs):
    # on the one-voxel ring just outside the tissue mask g = 0 but the
    # centred grad g is not.  There the classical Hamiltonian g|Dv| is
    # zero, while gmfd1's advective term -eta grad g . Dv carries the front
    # one ring out: the raw left mask fills the seed's component of the
    # active set, and its voxels outside the truth are exactly that ring
    _, seed, act = easy_speed
    geodesic = suite_runs.runs["easy", Model.GEODESIC1, "left"]
    active = _grid(act, np.ones(act.index.size, bool))
    labels, _ = ndimage.label(active, CONNECTIVITY)
    component = labels == labels[seed.as_tuple()]
    ring = _grid(act, act.g) == 0
    mask = geodesic.result.mask.values
    assert np.array_equal(mask, component) and mask.sum() == 18_081
    outside = mask & ~geodesic.truth.values
    assert np.array_equal(outside, mask & ring) and outside.sum() == 2_624
    classical = suite_runs.runs["easy", Model.CLASSICAL, "left"]
    assert not (classical.result.mask.values & ring).any()


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
    cfg = SolverConfig(model=Model.GEODESIC1, n_max=0)
    result, = evolve(vol, cfg, [seed])
    expected = extract_mask(init_levelset(vol.dims, seed, cfg, vol.spacing))
    assert np.array_equal(result.mask.values, expected.values)
    assert result.iterations == 0


def test_evolve_seed_outside_tissue():
    vol = _uniform_phantom()
    cfg = SolverConfig(model=Model.GEODESIC1, n_max=5)
    with pytest.raises(SeedError, match="tissue"):
        evolve(vol, cfg, [VoxelIndex(12, 12, 1)])


@pytest.mark.parametrize("seed, message", [
    (None, "no seed"),
    (VoxelIndex(999, 12, 12), "outside the volume"),
    (VoxelIndex(12, -1, 12), "outside the volume"),
])
def test_evolve_seed_missing_or_off_grid(seed, message):
    cfg = SolverConfig(model=Model.GEODESIC1, n_max=5)
    with pytest.raises(SeedError, match=message):
        evolve(_uniform_phantom(), cfg, [seed])


def test_evolve_deterministic():
    vol = _uniform_phantom()
    cfg = SolverConfig(model=Model.GEODESIC1, n_max=30)
    a, = evolve(vol, cfg, [VoxelIndex(12, 12, 12)])
    b, = evolve(vol, cfg, [VoxelIndex(12, 12, 12)])
    assert np.array_equal(a.mask.values, b.mask.values)
    assert a.iterations == b.iterations == 30


def test_evolve_early_stop_stagnation():
    # zero-gradient interior: the front freezes once it reaches the fat
    # boundary where g = 0, so stagnation triggers before n_max
    vol = _uniform_phantom()
    cfg = SolverConfig(
        model=Model.CLASSICAL,
        n_max=5000,
        stagnation_window=10,
    )
    result, = evolve(vol, cfg, [VoxelIndex(12, 12, 12)])
    assert result.iterations < 5000


def _whole_set_loop(whole, dims, cfg, seed, act=None):
    """Reference: `step` on the whole active set `whole` (or on `act`) from
    the sphere at `seed`, to `cfg.n_max` steps or, with a nonzero
    `cfg.stagnation_window`, until the whole-grid mask has not changed for
    that many consecutive steps."""
    fld = init_levelset(dims, seed, cfg, UNIT)
    dt = cfl_dt(whole, cfg)
    prev, stagnant = None, 0
    while fld.n < cfg.n_max:
        fld = step(fld, whole if act is None else act, cfg, dt)
        if cfg.stagnation_window:
            mask = extract_mask(fld).values
            stagnant = stagnant + 1 if prev is not None and np.array_equal(mask, prev) else 0
            prev = mask
            if stagnant >= cfg.stagnation_window:
                break
    return fld


def _whole_set_reference(vol, cfg, seed):
    """`_whole_set_loop` on the active set `evolve` builds for `vol`."""
    image, tissue = preprocess_pipeline(vol, cfg.sigma)
    whole = build_speed(image, tissue, cfg)
    return _whole_set_loop(whole, vol.dims, cfg, seed), whole


def test_evolve_stagnation_matches_whole_grid_masks():
    vol = _uniform_phantom()
    seed = VoxelIndex(12, 12, 12)
    cfg = SolverConfig(model=Model.GEODESIC1, n_max=5000, stagnation_window=10)
    result, = evolve(vol, cfg, [seed])
    fld, _ = _whole_set_reference(vol, cfg, seed)
    assert result.iterations == fld.n < cfg.n_max
    assert np.array_equal(result.mask.values, extract_mask(fld).values)


@pytest.mark.parametrize("model", list(Model))
def test_evolve_seeds_shared_component_steps_whole_set(model):
    # both seeds lie in the one muscle block: each reaches the whole active
    # set, which the two loops share, and nothing changes
    vol = _uniform_phantom()
    seeds = [VoxelIndex(12, 12, 12), VoxelIndex(9, 14, 11)]
    cfg = SolverConfig(model=model, n_max=40)
    runs, _ = solver._prepare(vol, cfg, seeds)
    (_, left), (_, right) = runs
    results = evolve(vol, cfg, seeds)
    for seed, result, act in zip(seeds, results, (left, right)):
        fld, whole = _whole_set_reference(vol, cfg, seed)
        assert np.array_equal(act.index, whole.index)
        assert result.active_voxels == whole.index.size
        assert np.array_equal(result.mask.values, extract_mask(fld).values)
        assert result.iterations == fld.n == cfg.n_max
    assert left is right


def _box_volume(dims, boxes):
    """Muscle HU in `boxes`, fat elsewhere: the tissue mask."""
    vals = np.full(dims, -100.0)
    for box in boxes:
        vals[box] = 60.0
    return ScalarVolume(vals)


def _evolve_on_speed(vol, whole, cfg, seeds):
    """`evolve` on `vol` (for its tissue mask) with the active set `whole`
    of a speed field."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "build_speed", lambda *args: whole)
        return evolve(vol, cfg, seeds)


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
    return _box_volume(dims, boxes), _active_from_g(g), xs


def _check_against_whole_set(vol, whole, cfg, seeds):
    results = _evolve_on_speed(vol, whole, cfg, seeds)
    for seed, result in zip(seeds, results):
        fld = _whole_set_loop(whole, vol.dims, cfg, seed)
        assert np.array_equal(result.mask.values, extract_mask(fld).values)
        assert result.iterations == fld.n


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(list(Model)),
    stagnation_window=st.sampled_from([0, 5]),
    gap=st.integers(1, 5),
    ends=st.tuples(*[st.integers(0, 3)] * 6),
    picks=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_seeds_equals_whole_set_on_two_boxes(model, stagnation_window, gap, ends, picks,
                                                     seed):
    # seeds in either box, or both in one; a sphere near the gap can reach
    # the other box's component, and a box can touch the grid faces
    rng = np.random.default_rng(seed)
    vol, whole, xs = _two_boxes(rng, gap, ends)
    seeds = [VoxelIndex(int(rng.integers(*xs[b])), int(rng.integers(4, 8)),
                        int(rng.integers(4, 8))) for b in picks]
    cfg = SolverConfig(model=model, n_max=60, seed_radius_voxels=2.0,
                       stagnation_window=stagnation_window)
    _check_against_whole_set(vol, whole, cfg, seeds)


def test_evolve_seeds_equals_whole_set_with_textured_grid_faces():
    # g is textured on the grid faces normal to y and z: the whole-set loop
    # keeps the right box, which the left seed never reaches, >= 0
    vol, whole, _ = _two_boxes(np.random.default_rng(0), 3, (1, 0, 0, 1, 0, 0))
    cfg = SolverConfig(model=Model.CLASSICAL, n_max=200, seed_radius_voxels=2.0)
    _check_against_whole_set(vol, whole, cfg, [VoxelIndex(6, 6, 6)])


@pytest.mark.parametrize("model", list(Model))
def test_evolve_seeds_steps_every_component_the_sphere_reaches(model):
    # the seed's sphere crosses the fat gap into the right box's component,
    # so that component must be stepped too: stepping the seed's own
    # component alone gives another mask
    rng = np.random.default_rng(5)
    vol, whole, xs = _two_boxes(rng, 3, (1,) * 6, textured=False, dims=(30, 14, 14))
    labels = whole.components()
    assert set(labels) == {1, 2}
    # on the left box's last plane: the sphere reaches 3 planes into the gap
    seed = VoxelIndex(xs[0][1] - 1, 6, 6)
    cfg = SolverConfig(model=model, n_max=30, seed_radius_voxels=3.5)
    result, = _evolve_on_speed(vol, whole, cfg, [seed])
    assert result.active_voxels == whole.index.size
    fld = _whole_set_loop(whole, vol.dims, cfg, seed)
    assert np.array_equal(result.mask.values, extract_mask(fld).values)
    flat = np.ravel_multi_index(seed.as_tuple(), vol.dims)
    own = whole.restrict(labels == labels[np.searchsorted(whole.index, flat)])
    fld = _whole_set_loop(whole, vol.dims, cfg, seed, own)
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
    cfg = SolverConfig(model=model, n_max=1000, stagnation_window=20)
    pair = evolve(vol, cfg, seeds)
    singles = [evolve(vol, cfg, [seed])[0] for seed in seeds]
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
        results = evolve(vol, cfg, seeds)
    finally:
        sys.setswitchinterval(interval)
    for got, seed in zip(results, seeds):
        want, = evolve(vol, cfg, [seed])
        assert np.array_equal(got.mask.values, want.mask.values)
        assert got.iterations == want.iterations == 40


def test_evolve_seeds_checks_every_seed_before_stepping(monkeypatch):
    def no_step(*args):
        raise AssertionError("step called")

    monkeypatch.setattr(solver, "step", no_step)
    cfg = SolverConfig(model=Model.GEODESIC1, n_max=5)
    good = VoxelIndex(12, 12, 12)
    with pytest.raises(SeedError, match="outside the volume"):
        evolve(_uniform_phantom(), cfg, [good, VoxelIndex(12, 99, 12)])
    with pytest.raises(SeedError, match="tissue"):
        evolve(_uniform_phantom(), cfg, [good, VoxelIndex(12, 12, 1)])
    with pytest.raises(SeedError, match="closer than"):
        evolve(_uniform_phantom(), cfg, [good, VoxelIndex(12, 12, 4)])
    with pytest.raises(SeedError, match="no seed"):
        evolve(_uniform_phantom(), cfg, [])


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
        evolve(_uniform_phantom(), cfg, [VoxelIndex(12, 12, 12), VoxelIndex(11, 12, 12)])
    assert threading.active_count() == before
    assert calls[threading.main_thread().name] < 5000


# ------------------------------------------------ the loop's step and buffers

def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    model=st.sampled_from(list(Model)),
    mu=st.floats(0.1, 10.0),
    eta=st.floats(0.1, 10.0),
    dims=st.tuples(st.integers(12, 16), st.integers(10, 13), st.integers(10, 13)),
    seed=st.integers(0, 2**32 - 1),
)
def test_loop_step_equals_per_axis_reference_bitwise(model, mu, eta, dims, seed):
    # g is textured on the whole grid, so the active set touches all six
    # faces and both seeds reach it whole: their two loops share one set.
    # Every step of both loops, 40 through each loop's reused grids and
    # work arrays, must equal the full-grid oracle, axis by axis, bit for
    # bit
    rng = np.random.default_rng(seed)
    whole = _active_from_g(rng.uniform(0.05, 1.0, dims))
    vol = _box_volume(dims, [(slice(None),) * 3])
    seeds = [VoxelIndex(*(int(rng.integers(4, n - 4)) for n in dims)) for _ in range(2)]
    cfg = SolverConfig(model=model, mu=mu, eta=eta, n_max=40, seed_radius_voxels=2.0)
    checked = {}
    original = solver.step

    def step_against_reference(fld, act, cfg, dt):
        want = _full_grid_step(fld, act, cfg, dt)
        got = original(fld, act, cfg, dt)
        assert got.work is fld.work is not None
        assert got.n == want.n
        assert _same_bits(got.volume.values, want.volume.values)
        checked.setdefault(threading.get_ident(), []).append(act)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "step", step_against_reference)
        results = _evolve_on_speed(vol, whole, cfg, seeds)
    assert [r.iterations for r in results] == [40, 40]
    sets = [act for acts in checked.values() for act in acts]
    assert len(checked) == 2 and len(sets) == 80
    assert all(act is sets[0] for act in sets)
    assert sets[0].index.size == np.prod(dims)


@pytest.mark.parametrize("model", list(Model))
def test_loop_steps_alternate_two_grids_without_allocating(easy_speed, model):
    # after its first step, a loop's fields hold its two grids in turn, and
    # further steps allocate no grid: 50 of them peaked at about 3 kB of
    # traced memory on easy, against 2.1 MB for one grid
    raw, seed, act = easy_speed
    cfg = SolverConfig(model=model)
    dt = cfl_dt(act, cfg)
    fld = init_levelset(raw.dims, seed, cfg, raw.spacing)
    fld = solver.with_workspace(fld, act)
    grids = [volume.values for volume in fld.work.volumes]
    fld = step(fld, act, cfg, dt)
    tracemalloc.start()
    try:
        for i in range(50):
            fld = step(fld, act, cfg, dt)
            assert np.shares_memory(fld.volume.values, grids[i % 2])
            assert not np.shares_memory(fld.volume.values, grids[1 - i % 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fld.n == 51
    assert peak < 16 * 1024 < grids[0].nbytes


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
def test_hard_phantom_left_dice_floors(suite_runs, model):
    run = suite_runs.runs["hard", model, "left"]
    raw_floor, cleaned_floor = HARD_LEFT_DICE_FLOORS[model]
    assert dice(run.result.mask, run.truth) >= raw_floor
    assert dice(run.cleaned, run.truth) >= cleaned_floor


def test_solver_config_validation():
    with pytest.raises(ValueError, match="sigma must be >= 0"):
        SolverConfig(sigma=-0.5)
    with pytest.raises(ValueError):
        SolverConfig(dx=0.0)
    with pytest.raises(ValueError):
        SolverConfig(n_max=-1)
    with pytest.raises(ValueError, match="stagnation_window must be >= 0"):
        SolverConfig(stagnation_window=-1)
    # the one float setting `segment` has no flag for
    with pytest.raises(ValueError, match="seed_radius_voxels must be finite"):
        SolverConfig(seed_radius_voxels=float("inf"))
