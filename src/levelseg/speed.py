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
        """Where the update can move the front, with the step's neighbour
        tables: built at the first step and kept for the field's life."""
        return ActiveSet.of_speed(self.g, self.grad_g)


def build_speed(preprocessed: ScalarVolume, tissue: BinaryMask, p: int = 2,
                dx: float = 0.1) -> SpeedField:
    """Velocity g = 1/(1 + |grad I|^p), zeroed outside the tissue mask,
    with the centred gradient of that g (one-sided on the grid faces)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    ix, iy, iz = np.gradient(preprocessed.values, dx)
    mag = np.sqrt(ix * ix + iy * iy + iz * iz)
    g = 1.0 / (1.0 + mag**p)
    g[~tissue.values] = 0.0
    return SpeedField(g, tuple(np.gradient(g, dx)))


def cfl_dt(speed: SpeedField, model: Model, mu: float = 1.0, eta: float = 0.25,
           dx: float = 0.1) -> float:
    """Stable explicit time step for the given evolution model, from the
    sup-norms of `speed.g` and of each component of `speed.grad_g`.

    Classical: dt = dx / (3*sup g).  First-order geodesic: dt = lambda*dx
    with lambda the smaller of 1/(3*sup g + sum of gradient sup-norms) and
    1/(3*mu*sup g + eta*sum of gradient sup-norms), the bound for the LLF
    dissipation coefficients mu*g + eta*|d g/d axis|; the second is the
    smaller only when mu or eta exceeds 1.  The gradient sup-norms are
    summed x, then y, then z.  Second-order geodesic: parabolic bound
    dt = 0.25*dx^2, whatever the field.
    """
    if dx <= 0:
        raise ValueError("dx must be > 0")
    if model is Model.GEODESIC2:
        return 0.25 * dx * dx
    sup_g = float(np.abs(speed.g).max())
    if sup_g == 0.0:
        raise DegenerateSpeedError("degenerate speed field: g is identically zero")
    if model is Model.CLASSICAL:
        return dx / (3.0 * sup_g)
    grad_sum = sum(float(np.abs(c).max()) for c in speed.grad_g)
    lam = 1.0 / max(3.0 * sup_g + grad_sum, 3.0 * mu * sup_g + eta * grad_sum)
    return lam * dx
