"""Front evolution by explicit finite differences with the local
Lax-Friedrichs numerical Hamiltonian, for the classical eikonal model and
the first/second-order geodesic models on 3D grids."""
from __future__ import annotations

import copy
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .active import STENCIL, ActiveSet
from .preprocess import PreprocessConfig, preprocess_pipeline
from .speed import Model, build_speed, cfl_dt
from .volumes import BinaryMask, ScalarVolume, VoxelIndex


class SeedError(Exception):
    pass


class BlowupError(Exception):
    pass


@dataclass
class SolverConfig:
    model: Model = Model.GEODESIC1
    mu: float = 1.0
    eta: float = 0.25
    epsilon: float = 0.05
    p: int = 2
    dx: float = 0.1
    n_max: int = 400
    seed_radius_voxels: float = 5.0
    curvature_delta: float = 1e-8
    early_stop: str = "off"  # "off" | "stagnation"
    stagnation_window: int = 50

    def __post_init__(self):
        if self.dx <= 0:
            raise ValueError("dx must be > 0")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if self.early_stop not in ("off", "stagnation"):
            raise ValueError(f"unknown early_stop mode '{self.early_stop}'")


@dataclass
class LevelSetField:
    volume: ScalarVolume
    n: int = 0


@dataclass
class EvolutionResult:
    mask: BinaryMask
    iterations: int
    seconds: float
    dt: float
    active_voxels: int  # the voxels the loop stepped


def _check_margin(dims, seed: VoxelIndex, radius_voxels):
    margin = radius_voxels + 2
    for c, n in zip(seed.as_tuple(), dims):
        if c < margin or c > n - 1 - margin:
            raise SeedError(
                f"seed {seed.as_tuple()} closer than {margin} voxels to a face of {tuple(dims)}"
            )


def init_levelset(dims, dx, seed: VoxelIndex, radius_voxels=5.0,
                  spacing=(1.0, 1.0, 1.0)) -> LevelSetField:
    """Signed distance to a sphere of `radius_voxels` voxels centered at
    `seed`, in grid units (negative inside)."""
    _check_margin(dims, seed, radius_voxels)
    ii, jj, kk = np.ogrid[:dims[0], :dims[1], :dims[2]]
    dist = np.sqrt(
        (ii - seed.i) ** 2.0 + (jj - seed.j) ** 2.0 + (kk - seed.k) ** 2.0
    )
    v = dx * dist - dx * radius_voxels
    return LevelSetField(ScalarVolume(v, spacing))


def llf_hamiltonian(model: Model, g, grad_g, diffs, mu=1.0, eta=0.25):
    """Local Lax-Friedrichs numerical Hamiltonian (first-order part).

    `g`, the components of `grad_g` and the six entries of `diffs` may be
    scalars or broadcastable arrays.  For the classical model
    H = g*|Dv| with dissipation coefficient g per axis; for the geodesic
    models H0 = mu*g*|Dv| - eta*(grad g . Dv) with coefficients
    mu*g + eta*|d g/d axis|.
    """
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


def curvature_3d(v, dx, delta=1e-8):
    """Mean-curvature term div(Dv/|Dv|) by centered differences.

    `v` is a 3-D array, whose faces are handled by edge replication, or a
    (19, N) array of a field's values at the `STENCIL` neighbours of N
    voxels, as `step` gathers them.  The denominator is regularized by
    `delta` where |Dv| vanishes.
    """
    nb = np.asarray(v, dtype=np.float64)
    if nb.ndim == 3:
        w = np.pad(nb, 1, mode="edge")
        nx, ny, nz = nb.shape
        nb = [w[1 + a:1 + a + nx, 1 + b:1 + b + ny, 1 + c:1 + c + nz]
              for a, b, c in STENCIL]
    (c, xp, xm, yp, ym, zp, zm,
     xy_pp, xy_mm, xy_pm, xy_mp,
     xz_pp, xz_mm, xz_pm, xz_mp,
     yz_pp, yz_mm, yz_pm, yz_mp) = nb

    vx = (xp - xm) / (2 * dx)
    vy = (yp - ym) / (2 * dx)
    vz = (zp - zm) / (2 * dx)
    vxx = (xp - 2 * c + xm) / dx**2
    vyy = (yp - 2 * c + ym) / dx**2
    vzz = (zp - 2 * c + zm) / dx**2

    vxy = (xy_pp + xy_mm - xy_pm - xy_mp) / (4 * dx**2)
    vxz = (xz_pp + xz_mm - xz_pm - xz_mp) / (4 * dx**2)
    vyz = (yz_pp + yz_mm - yz_pm - yz_mp) / (4 * dx**2)

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


def _face_diffs(c, row, on_face, dx):
    """The one-sided differences (p-, p+, q-, q+, r-, r+) from the centre
    values `c` and the face-neighbour rows `row(1)` to `row(6)` of the
    `STENCIL`: on a face, where one neighbour is the voxel itself, both
    are the one available difference."""
    out = []
    for axis, f in enumerate(on_face):
        p, m = row(1 + 2 * axis), row(2 + 2 * axis)
        minus, plus = (c - m) / dx, (p - c) / dx
        minus[f] = plus[f] = (p[f] - m[f]) / dx
        out += [minus, plus]
    return out


# an overflow or invalid operation leaves a non-finite value, which the
# finite check turns into a BlowupError: numpy's warnings would only precede
# that error.  The error state is per thread and per context.
@np.errstate(all="ignore")
def step(fld: LevelSetField, act: ActiveSet, cfg: SolverConfig, dt: float) -> LevelSetField:
    """One explicit update, returned as a new field; `fld` is left as it is.

    The update is evaluated on the voxels of `act` only: the speed field's
    active set, or the components of it that a seed reaches.  Every other
    voxel's value is copied unchanged; outside the active set the update
    is exactly zero (see `levelseg.active`).
    """
    u = fld.volume.values
    if cfg.model is Model.GEODESIC2:
        nb = u.take(act.stencil)
        row = nb.__getitem__
    else:
        # gathered row by row, so that at most three rows are alive at once
        def row(k):
            return u.take(act.faces[k])
    c = row(0)
    diffs = _face_diffs(c, row, act.on_face, cfg.dx)
    h = llf_hamiltonian(cfg.model, act.g, act.grad_g, diffs, cfg.mu, cfg.eta)
    if cfg.model is Model.GEODESIC2:
        kappa = curvature_3d(nb, cfg.dx, cfg.curvature_delta)
        # the centred gradient of np.gradient: one-sided on a face
        centred = []
        for axis, f in enumerate(act.on_face):
            p, m = nb[1 + 2 * axis], nb[2 + 2 * axis]
            d = (p - m) / (2 * cfg.dx)
            d[f] = (p[f] - m[f]) / cfg.dx
            centred.append(d)
        cx, cy, cz = centred
        grad_norm = np.sqrt(cx * cx + cy * cy + cz * cz)
        h = h - cfg.epsilon * act.g * grad_norm * kappa
    new = c - dt * h
    if not np.all(np.isfinite(new)):
        raise BlowupError(f"numerical blow-up at iteration {fld.n + 1}")
    # a copy, not a new ScalarVolume: every value outside the active set
    # was checked finite when `fld` was built
    volume = copy.copy(fld.volume)
    volume.values = u.copy()
    volume.values.put(act.index, new)
    return LevelSetField(volume, fld.n + 1)


def extract_mask(fld: LevelSetField) -> BinaryMask:
    """Segmented region: strictly negative level-set values."""
    return BinaryMask(fld.volume.values < 0, fld.volume.spacing)


def _prepare(raw_vol: ScalarVolume, cfg: SolverConfig, seeds, pre_cfg):
    """Check every seed, preprocess and build the speed field; return the
    time step and, per seed, its initial field and the components of the
    active set that field reaches, with the step's table built.  The
    full-grid image, tissue mask, g, grad g and component labels and the
    whole active set are freed on return; seeds that reach the same
    components share one set."""
    if not seeds or None in seeds:
        raise SeedError("no seed given")
    for seed in seeds:
        if not all(0 <= c < n for c, n in zip(seed.as_tuple(), raw_vol.dims)):
            raise SeedError(f"seed {seed.as_tuple()} lies outside the volume {tuple(raw_vol.dims)}")
    image, tissue = preprocess_pipeline(raw_vol, pre_cfg or PreprocessConfig())
    for seed in seeds:
        if not tissue.values[seed.i, seed.j, seed.k]:
            raise SeedError(f"seed {seed.as_tuple()} lies outside the tissue mask")
        _check_margin(raw_vol.dims, seed, cfg.seed_radius_voxels)
    speed = build_speed(image, tissue, cfg.p, cfg.dx)
    del image, tissue
    dt = cfl_dt(speed, cfg.model, cfg.mu, cfg.eta, cfg.dx)
    whole = speed.active
    del speed
    labels = whole.components()
    table = "stencil" if cfg.model is Model.GEODESIC2 else "faces"
    sets, runs = {}, []
    for seed in seeds:
        fld = init_levelset(raw_vol.dims, cfg.dx, seed, cfg.seed_radius_voxels,
                            raw_vol.spacing)
        act = whole.reached(labels, fld.volume.values < 0)
        act = sets.setdefault(act.index.tobytes(), act)
        # the table is a cached property: build it before threads share it
        getattr(act, table)
        runs.append((fld, act))
    return runs, dt


def _evolve_one(fld: LevelSetField, act: ActiveSet, cfg: SolverConfig, dt: float,
                abort: threading.Event) -> EvolutionResult:
    """Run up to n_max explicit steps from `fld` on `act`, or stop early
    once `abort` is set."""
    start = time.perf_counter()
    prev_mask = None
    stagnant = 0
    for _ in range(cfg.n_max):
        if abort.is_set():
            break
        fld = step(fld, act, cfg, dt)
        if cfg.early_stop == "stagnation":
            # u never changes outside `act`, so the signs inside it tell
            # whether the mask moved
            mask = fld.volume.values.take(act.index) < 0
            if prev_mask is not None and np.array_equal(mask, prev_mask):
                stagnant += 1
                if stagnant >= cfg.stagnation_window:
                    break
            else:
                stagnant = 0
            prev_mask = mask
    elapsed = time.perf_counter() - start
    return EvolutionResult(extract_mask(fld), fld.n, elapsed, dt, act.index.size)


def evolve(raw_vol: ScalarVolume, cfg: SolverConfig, seeds,
           pre_cfg: PreprocessConfig = None) -> list[EvolutionResult]:
    """Segment one region of `raw_vol` per `VoxelIndex` in `seeds`, with
    `cfg` for every seed; return one `EvolutionResult` per seed, in order.
    A run of one seed passes a list of one.

    Every seed is checked before any work starts.  The volume is
    preprocessed (with `PreprocessConfig()` when `pre_cfg` is None) and
    the speed field built once.  Each seed is then stepped only on the
    18-connected components of the active set that its initial sphere
    reaches (see `levelseg.active` for why the masks are unchanged).  The
    first seed's loop runs on the calling thread and each further seed's
    on a worker thread, each reading its own set, or one it shares
    read-only with seeds that reach the same components.  numpy releases
    the GIL inside its array loops, so the loops overlap.  When a loop
    raises, the others stop at their next step and the exception
    propagates.
    """
    seeds = list(seeds)
    runs, dt = _prepare(raw_vol, cfg, seeds, pre_cfg)
    abort = threading.Event()

    def run(fld, act):
        try:
            return _evolve_one(fld, act, cfg, dt, abort)
        except BaseException:
            abort.set()
            raise

    with ThreadPoolExecutor(max_workers=max(len(seeds) - 1, 1)) as pool:
        rest = [pool.submit(run, *r) for r in runs[1:]]
        first = run(*runs[0])
        return [first] + [future.result() for future in rest]
