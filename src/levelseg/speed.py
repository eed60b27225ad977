"""Edge-stopping velocity field, its gradient and the CFL time-step bounds."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .active import ActiveSet
from .volumes import BinaryMask, ScalarVolume


class Model(Enum):
    CLASSICAL = "classical"
    GEODESIC1 = "gmfd1"
    GEODESIC2 = "gmfd2"


class DegenerateSpeedError(Exception):
    pass


@dataclass
class SpeedField:
    """The velocity `g` and its gradient `grad_g`, the tuple
    (d/dx, d/dy, d/dz) that `np.gradient(g, dx)` returns: 3-D arrays of
    one shape."""

    g: np.ndarray
    grad_g: tuple

    @cached_property
    def active(self) -> ActiveSet:
        """The whole active set, where the update can move the front, made
        at its first read and cached; `evolve` splits it into the parts its
        seeds reach and frees the field before any step."""
        return ActiveSet.of_speed(self.g, self.grad_g)


# `cfg` is a `levelseg.solver.SolverConfig`, read by attribute: the solver
# imports this module, so this one does not import it
def build_speed(preprocessed: ScalarVolume, tissue: BinaryMask, cfg) -> SpeedField:
    """Velocity g = 1/(1 + |grad I|^p), zeroed outside the tissue mask,
    with the centred gradient of that g (one-sided on the grid faces); `p`
    and the grid step `dx` are `cfg`'s."""
    ix, iy, iz = np.gradient(preprocessed.values, cfg.dx)
    mag = np.sqrt(ix * ix + iy * iy + iz * iz)
    g = 1.0 / (1.0 + mag**cfg.p)
    g[~tissue.values] = 0.0
    return SpeedField(g, tuple(np.gradient(g, cfg.dx)))


def cfl_dt(speed: SpeedField, cfg) -> float:
    """Stable explicit time step for `cfg.model`, from the sup-norms of
    `speed.g` and of each component of `speed.grad_g`, with `cfg`'s `mu`,
    `eta` and `dx`.

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
    sup_g = float(np.abs(speed.g).max())
    if sup_g == 0.0:
        raise DegenerateSpeedError("degenerate speed field: g is identically zero")
    if cfg.model is Model.CLASSICAL:
        return dx / (3.0 * sup_g)
    grad_sum = sum(float(np.abs(c).max()) for c in speed.grad_g)
    lam = 1.0 / max(3.0 * sup_g + grad_sum, 3.0 * cfg.mu * sup_g + cfg.eta * grad_sum)
    return lam * dx
