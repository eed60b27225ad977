"""Edge-stopping velocity field, its gradient and the CFL time-step bounds."""
from __future__ import annotations

from enum import Enum

import numpy as np

from .active import ActiveSet
from .volumes import BinaryMask, ScalarVolume


class Model(Enum):
    CLASSICAL = "classical"
    GEODESIC1 = "gmfd1"
    GEODESIC2 = "gmfd2"


class DegenerateSpeedError(Exception):
    pass


# `cfg` is a `levelseg.solver.SolverConfig`, read by attribute: the solver
# imports this module, so this one does not import it
def build_speed(preprocessed: ScalarVolume, tissue: BinaryMask, cfg) -> ActiveSet:
    """The active set of the velocity g = 1/(1 + |grad I|^p), zeroed
    outside the tissue mask, and of the centred gradient of that g
    (one-sided on the grid faces): the voxels where g or a component of
    grad g is nonzero, with both there.  `p` and the grid step `dx` are
    `cfg`'s."""
    ix, iy, iz = np.gradient(preprocessed.values, cfg.dx)
    g = 1.0 / (1.0 + np.sqrt(ix * ix + iy * iy + iz * iz)**cfg.p)
    # freed before g's gradient and active set are made, at the peak of memory
    del ix, iy, iz
    g[~tissue.values] = 0.0
    return ActiveSet.of_speed(g, np.gradient(g, cfg.dx))


def cfl_dt(act: ActiveSet, cfg) -> float:
    """Stable explicit time step for `cfg.model`, from the sup-norms of
    `act.g` and of each row of `act.grad_g`, with `cfg`'s `mu`, `eta` and
    `dx`.  Outside the active set g and grad g are 0, so these are the
    sup-norms over the whole grid; over an empty set they are 0.

    Classical: dt = dx / (3*sup g).  First-order geodesic: dt = lambda*dx
    with lambda the smaller of 1/(3*sup g + sum of gradient sup-norms) and
    1/(3*mu*sup g + eta*sum of gradient sup-norms), the bound for the LLF
    dissipation coefficients mu*g + eta*|d g/d axis|; the second is the
    smaller only when mu or eta exceeds 1.  The gradient sup-norms are
    summed x, then y, then z.  Second-order geodesic: parabolic bound
    dt = 0.25*dx^2, whatever the field.
    """
    dx = cfg.dx
    if cfg.model is Model.GEODESIC2:
        return 0.25 * dx * dx
    sup_g = float(np.abs(act.g).max(initial=0.0))
    if sup_g == 0.0:
        raise DegenerateSpeedError("degenerate speed field: g is identically zero")
    if cfg.model is Model.CLASSICAL:
        return dx / (3.0 * sup_g)
    grad_sum = sum(float(np.abs(c).max(initial=0.0)) for c in act.grad_g)
    lam = 1.0 / max(3.0 * sup_g + grad_sum, 3.0 * cfg.mu * sup_g + cfg.eta * grad_sum)
    return lam * dx
