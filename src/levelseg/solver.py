"""Front evolution by explicit finite differences with the local
Lax-Friedrichs numerical Hamiltonian, for the classical eikonal model and
the first/second-order geodesic models on 3D grids."""
from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .active import ActiveSet
from .preprocess import preprocess_pipeline
from .speed import Model, build_speed, cfl_dt
from .volumes import BinaryMask, ScalarVolume, VoxelIndex


class SeedError(Exception):
    pass


class BlowupError(Exception):
    pass


CURVATURE_DELTA = 1e-8  # regularizes the curvature where |Dv| vanishes
DICE_TARGET = 0.90  # the Dice at which the paper compares the models' cost


@dataclass
class SolverConfig:
    """Every setting of a run, each defined here once: the preprocessing
    `sigma`, the model and its weights, the speed exponent, the grid step,
    the seed sphere, the budget and the early stop (once the mask has not
    changed for `stagnation_window` steps; 0 never stops early).  Every
    float setting must be finite, and `sigma` and the weights >= 0."""

    model: Model = Model.GEODESIC1
    sigma: float = 0.0
    mu: float = 1.0
    eta: float = 0.25
    epsilon: float = 0.05
    p: int = 2
    dx: float = 0.1
    n_max: int = 400
    seed_radius_voxels: float = 5.0
    stagnation_window: int = 0

    def __post_init__(self):
        for name in ("sigma", "mu", "eta", "epsilon", "dx", "seed_radius_voxels"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("sigma", "mu", "eta", "epsilon"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.dx <= 0:
            raise ValueError("dx must be > 0")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if self.stagnation_window < 0:
            raise ValueError("stagnation_window must be >= 0")


class Workspace:
    """Arrays reused from one call to the next: the kernels' work arrays,
    each of some rows of one trailing `shape` and made at its first use,
    and, for a loop (`with_workspace`), the two grids its steps alternate
    between."""

    def __init__(self, shape, volume: ScalarVolume = None):
        self.shape = tuple(shape)
        self._arrays = {}
        # `step` reads one grid and writes the active voxels of the other.
        # Outside the active set the two hold the same values for the
        # whole run, so nothing else needs writing
        self.volumes = None if volume is None else (
            volume, ScalarVolume(volume.values.copy(), volume.spacing))

    def __call__(self, name, rows=None, dtype=np.float64):
        """The work array `name`: `rows` rows of `shape`, or one."""
        array = self._arrays.get(name)
        if array is None:
            lead = () if rows is None else (rows,)
            array = self._arrays[name] = np.empty(lead + self.shape, dtype)
        return array


@dataclass
class LevelSetField:
    volume: ScalarVolume
    n: int = 0
    # the workspace of the loop that steps this field, if any
    work: Workspace | None = field(default=None, repr=False, compare=False)


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


def init_levelset(dims, seed: VoxelIndex, cfg: SolverConfig, spacing) -> LevelSetField:
    """Signed distance to a sphere of `cfg.seed_radius_voxels` voxels
    centered at `seed`, in grid units of `cfg.dx` (negative inside)."""
    _check_margin(dims, seed, cfg.seed_radius_voxels)
    ii, jj, kk = np.ogrid[:dims[0], :dims[1], :dims[2]]
    dist = np.sqrt(
        (ii - seed.i) ** 2.0 + (jj - seed.j) ** 2.0 + (kk - seed.k) ** 2.0
    )
    v = cfg.dx * dist - cfg.dx * cfg.seed_radius_voxels
    return LevelSetField(ScalarVolume(v, spacing))


def _sum3(rows, out):
    """rows[0] + rows[1] + rows[2], in that order, into `out`.  The sum
    starts from -0.0, so that a sum of negative zeros stays -0.0."""
    return np.add.reduce(rows, axis=0, out=out, initial=-0.0)


def llf_hamiltonian(model: Model, g, grad_g, diffs, mu, eta, work=None):
    """Local Lax-Friedrichs numerical Hamiltonian (first-order part).

    `diffs` holds the six one-sided differences (p-, p+, q-, q+, r-, r+)
    as rows, scalars or arrays; `g` and the three rows of `grad_g`
    broadcast against one row.  For the classical model H = g*|Dv| with
    dissipation coefficient g per axis; for the geodesic models
    H0 = mu*g*|Dv| - eta*(grad g . Dv) with coefficients
    mu*g + eta*|d g/d axis|.  The three axes are evaluated at once, on
    (3, ...) stacks.  The result is an array of `work`, a `Workspace` of
    the shape of one row (a new one when None).
    """
    d = np.asarray(diffs, dtype=np.float64)
    w = work or Workspace(d.shape[1:])
    minus, plus = d[0::2], d[1::2]
    avg, t3, s, h = w("avg", 3), w("t3", 3), w("s"), w("h")
    np.add(minus, plus, out=avg)
    avg *= 0.5
    np.multiply(avg, avg, out=t3)
    np.sqrt(_sum3(t3, s), out=s)
    if model is Model.CLASSICAL:
        np.multiply(g, s, out=h)
        alpha = g
    else:
        grad = np.asarray(grad_g)
        mu_g = np.multiply(mu, g, out=w("mu_g"))
        np.multiply(mu_g, s, out=h)
        np.multiply(grad, avg, out=t3)
        _sum3(t3, s)
        s *= eta
        h -= s
        alpha = np.abs(grad, out=t3)
        alpha *= eta
        alpha += mu_g
    jump = np.subtract(plus, minus, out=avg)
    jump *= alpha
    _sum3(jump, s)
    s *= 0.5
    h -= s
    return h


def curvature_3d(nb, dx, work=None):
    """Mean-curvature term div(Dv/|Dv|) by centered differences.

    `nb` is a (19, N) array of a field's values at the `STENCIL`
    neighbours of N voxels, as `step` gathers them.  The denominator is
    regularized by `CURVATURE_DELTA` where |Dv| vanishes.  The three axes
    are evaluated at once, on (3, N) stacks.  The result, and the centred
    gradient (v+ - v-)/(2 dx) as the (3, N) array "grad", are arrays of
    `work`, a `Workspace` of the shape of one row (a new one when None).
    """
    w = work or Workspace(nb.shape[1:])
    c, plus, minus = nb[0], nb[1:7:2], nb[2:7:2]
    # per plane (xy, xz, yz): the ++, --, +- and -+ diagonal neighbours
    diag = nb[7:19].reshape((3, 4) + nb.shape[1:])

    grad = np.subtract(plus, minus, out=w("grad", 3))
    grad /= 2 * dx
    two_c = np.multiply(2, c, out=w("s"))
    second = np.subtract(plus, two_c, out=w("avg", 3))
    second += minus
    second /= dx**2
    cross = np.add(diag[:, 0], diag[:, 1], out=w("t3", 3))
    cross -= diag[:, 2]
    cross -= diag[:, 3]
    cross /= 4 * dx**2

    # squares vx², vy², vz², vx², vy²: rows 1-3 and 2-4 add to the pairs
    # (vy² + vz², vz² + vx², vx² + vy²)
    squares = w("squares", 5)
    np.multiply(grad, grad, out=squares[:3])
    squares[3:] = squares[:2]
    pairs = np.add(squares[1:4], squares[2:5], out=w("pairs", 3))
    sq = np.add(pairs[2], squares[2], out=two_c)
    second *= pairs
    # num = (vxx*pair_x + vyy*pair_y + vzz*pair_z) - 2 vx vy vxy
    # - 2 vx vz vxz - 2 vy vz vyz, in that order, from the rows of `terms`
    terms = squares[:4]
    twice = np.multiply(2, grad[:2], out=pairs[:2])
    np.multiply(twice[1], grad[2], out=terms[3])
    np.multiply(twice[0], grad[1:], out=terms[1:3])
    terms[1:] *= cross
    _sum3(second, terms[0])
    num = np.subtract.reduce(terms, axis=0, out=w("kappa"))
    sq += CURVATURE_DELTA
    sq **= 1.5
    num /= sq
    return num


def with_workspace(fld: LevelSetField, act: ActiveSet) -> LevelSetField:
    """`fld` with a new `Workspace` for a loop that steps it on `act`: the
    field's grid and a copy are the two grids the steps alternate between,
    so each step overwrites the field of two steps before."""
    return LevelSetField(fld.volume, fld.n, Workspace(act.index.shape, fld.volume))


# an overflow or invalid operation leaves a non-finite value, which the
# finite check turns into a BlowupError: numpy's warnings would only precede
# that error.  The error state is per thread and per context.
@np.errstate(all="ignore")
def step(fld: LevelSetField, act: ActiveSet, cfg: SolverConfig, dt: float) -> LevelSetField:
    """One explicit update; `fld`'s own grid is left as it is.

    The update is evaluated on the voxels of `act` only: the speed field's
    active set, or the components of it that a seed reaches.  Every other
    voxel keeps its value; outside the active set the update is exactly
    zero (see `levelseg.active`).  The set's tables clamp each coordinate
    to the grid, so beyond a grid face a voxel reads itself, a zero-flux
    ghost value: a face voxel takes the same update as any other.  A field
    from `with_workspace` carries its loop's workspace: the result is
    written into the loop's other grid and carries the workspace on.  Any
    other field gets a result on a new grid.
    """
    w = fld.work or Workspace(act.index.shape, fld.volume)
    first, other = w.volumes
    volume = other if fld.volume is first else first
    second_order = cfg.model is Model.GEODESIC2
    table = act.stencil if second_order else act.faces
    nb = np.take(fld.volume.values, table, out=w("nb", len(table)), mode="clip")
    c, plus_nb, minus_nb = nb[0], nb[1:7:2], nb[2:7:2]
    if second_order:
        kappa = curvature_3d(nb, cfg.dx, work=w)
        # the centred gradient that `curvature_3d` left in the workspace
        grad = w("grad", 3)
        grad *= grad
        grad_norm = np.sqrt(_sum3(grad, w("s")), out=w("s"))
        term = np.multiply(cfg.epsilon, act.g, out=grad[0])
        term *= grad_norm
        kappa *= term
    # the neighbour rows (p+, p-, q+, q-, r+, r-) become the one-sided
    # differences (p-, p+, q-, q+, r-, r+), read no more as neighbours
    diffs = nb[1:7]
    minus, plus = diffs[0::2], diffs[1::2]
    forward = np.subtract(plus_nb, c, out=w("avg", 3))
    np.subtract(c, minus_nb, out=minus)
    minus /= cfg.dx
    np.divide(forward, cfg.dx, out=plus)
    h = llf_hamiltonian(cfg.model, act.g, act.grad_g, diffs, cfg.mu, cfg.eta, w)
    if second_order:
        h -= kappa
    h *= dt
    new = np.subtract(c, h, out=h)
    if not np.isfinite(new, out=w("finite", dtype=bool)).all():
        raise BlowupError(f"numerical blow-up at iteration {fld.n + 1}")
    volume.values.put(act.index, new)
    return LevelSetField(volume, fld.n + 1, fld.work)


def extract_mask(fld: LevelSetField) -> BinaryMask:
    """Segmented region: strictly negative level-set values."""
    return BinaryMask(fld.volume.values < 0, fld.volume.spacing)


def _prepare(raw_vol: ScalarVolume, cfg: SolverConfig, seeds):
    """Check every seed, preprocess and build the whole active set of the
    speed field; return the time step and, per seed, its initial field and
    the components of the whole set that field reaches, with the step's
    table built.  The full-grid image, tissue mask and component labels
    and the whole set are freed on return; seeds that reach the same
    components share one set."""
    if not seeds or None in seeds:
        raise SeedError("no seed given")
    for seed in seeds:
        if not all(0 <= c < n for c, n in zip(seed.as_tuple(), raw_vol.dims)):
            raise SeedError(f"seed {seed.as_tuple()} lies outside the volume {tuple(raw_vol.dims)}")
    image, tissue = preprocess_pipeline(raw_vol, cfg.sigma)
    for seed in seeds:
        if not tissue.values[seed.i, seed.j, seed.k]:
            raise SeedError(f"seed {seed.as_tuple()} lies outside the tissue mask")
        _check_margin(raw_vol.dims, seed, cfg.seed_radius_voxels)
    whole = build_speed(image, tissue, cfg)
    del image, tissue
    dt = cfl_dt(whole, cfg)
    labels = whole.components()
    table = "stencil" if cfg.model is Model.GEODESIC2 else "faces"
    sets, runs = {}, []
    for seed in seeds:
        fld = init_levelset(raw_vol.dims, seed, cfg, raw_vol.spacing)
        act = whole.reached(labels, fld.volume.values < 0)
        act = sets.setdefault(act.index.tobytes(), act)
        # the table is a cached property: build it before threads share it
        getattr(act, table)
        runs.append((fld, act))
    return runs, dt


def _evolve_one(fld: LevelSetField, act: ActiveSet, cfg: SolverConfig, dt: float,
                abort: threading.Event) -> EvolutionResult:
    """Run up to n_max explicit steps from `fld`, a field from
    `with_workspace`, on `act`, or stop early once `abort` is set or the
    mask has not changed for `cfg.stagnation_window` steps."""
    start = time.perf_counter()
    if cfg.stagnation_window:
        values = fld.work("active_values")
        mask, prev_mask = fld.work("signs", 2, bool)
    stagnant = -1  # the first step has no mask to compare with
    for _ in range(cfg.n_max):
        if abort.is_set():
            break
        fld = step(fld, act, cfg, dt)
        if cfg.stagnation_window:
            # u never changes outside `act`, so the signs inside it tell
            # whether the mask moved
            np.take(fld.volume.values, act.index, out=values, mode="clip")
            np.less(values, 0, out=mask)
            if stagnant >= 0 and np.array_equal(mask, prev_mask):
                stagnant += 1
                if stagnant >= cfg.stagnation_window:
                    break
            else:
                stagnant = 0
            mask, prev_mask = prev_mask, mask
    elapsed = time.perf_counter() - start
    return EvolutionResult(extract_mask(fld), fld.n, elapsed, dt, act.index.size)


def steps_to_dice(raw_vol: ScalarVolume, cfg: SolverConfig, seed: VoxelIndex, truth: BinaryMask):
    """Step `seed`'s front as `evolve` does, up to `cfg.n_max` steps; return
    the first step at which the Dice of its mask with `truth` reaches
    `DICE_TARGET`, or None, and the seconds the steps took.  u never
    changes outside `act`, so the counts there are taken once and only the
    signs inside it each step: the Dice is `metrics.dice`'s float."""
    [(fld, act)], dt = _prepare(raw_vol, cfg, [seed])
    fld = with_workspace(fld, act)
    frozen = fld.volume.values < 0
    frozen.put(act.index, False)
    truth_in = truth.values.take(act.index)
    base = np.count_nonzero(frozen) + np.count_nonzero(truth.values)
    base_inter = np.count_nonzero(frozen & truth.values)
    values, inside = fld.work("active_values"), fld.work("signs", dtype=bool)
    start = time.perf_counter()
    for n in range(1, cfg.n_max + 1):
        fld = step(fld, act, cfg, dt)
        np.take(fld.volume.values, act.index, out=values, mode="clip")
        total = base + np.count_nonzero(np.less(values, 0, out=inside))
        inter = base_inter + np.count_nonzero(np.logical_and(inside, truth_in, out=inside))
        if (2.0 * inter / total if total else 1.0) >= DICE_TARGET:
            return n, time.perf_counter() - start
    return None, time.perf_counter() - start


def evolve(raw_vol: ScalarVolume, cfg: SolverConfig, seeds) -> list[EvolutionResult]:
    """Segment one region of `raw_vol` per `VoxelIndex` in `seeds`, with
    `cfg` for every seed; return one `EvolutionResult` per seed, in order.
    A run of one seed passes a list of one.

    Every seed is checked before any work starts.  The volume is
    preprocessed and the active set of its speed field built once.  Each
    seed is then stepped only on the 18-connected components of that set
    that its initial sphere reaches (see `levelseg.active` for why the
    masks are unchanged).  The first seed's loop runs on the calling
    thread and each further seed's on a worker thread, each reading its
    own set, or one it shares read-only with seeds that reach the same
    components.  numpy releases the GIL inside its array loops, so the
    loops overlap.  When a loop raises, the others stop at their next step
    and the exception propagates.
    """
    seeds = list(seeds)
    runs, dt = _prepare(raw_vol, cfg, seeds)
    # every loop's two grids, made on this thread before any loop starts.
    # Made on a worker thread, in its own malloc arena, they raised the
    # `first-order` benchmark's peak RSS by about 2.3 MB
    runs = [(with_workspace(fld, act), act) for fld, act in runs]
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
