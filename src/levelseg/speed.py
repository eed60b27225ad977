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
    g: ScalarVolume
    grad_g: tuple  # (d/dx, d/dy, d/dz) as ScalarVolumes
    sup_g: float
    sup_gx: float
    sup_gy: float
    sup_gz: float

    @cached_property
    def active(self) -> ActiveSet:
        """Where the update can move the front, with the step's neighbour
        tables: built at the first step and kept for the field's life."""
        return ActiveSet.of_speed(self.g.values, tuple(c.values for c in self.grad_g))


def gradient_centered(vol: ScalarVolume, dx: float):
    """Central differences /(2*dx) on the interior, one-sided /dx on faces."""
    gx, gy, gz = np.gradient(vol.values, dx)
    sp = vol.spacing
    return (ScalarVolume(gx, sp), ScalarVolume(gy, sp), ScalarVolume(gz, sp))


def build_speed(preprocessed: ScalarVolume, tissue: BinaryMask, p: int = 2,
                dx: float = 0.1) -> SpeedField:
    """Velocity g = 1/(1 + |grad I|^p), zeroed outside the tissue mask.

    The gradient of the final g and the sup-norms used by the CFL bounds
    are cached on the returned field.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    ix, iy, iz = np.gradient(preprocessed.values, dx)
    mag = np.sqrt(ix * ix + iy * iy + iz * iz)
    g = 1.0 / (1.0 + mag**p)
    g[~tissue.values] = 0.0
    g_vol = ScalarVolume(g, preprocessed.spacing)
    grads = gradient_centered(g_vol, dx)
    return SpeedField(
        g=g_vol,
        grad_g=grads,
        sup_g=float(np.abs(g).max()),
        sup_gx=float(np.abs(grads[0].values).max()),
        sup_gy=float(np.abs(grads[1].values).max()),
        sup_gz=float(np.abs(grads[2].values).max()),
    )


def cfl_dt(speed: SpeedField, model: Model, mu: float = 1.0, eta: float = 0.25,
           dx: float = 0.1) -> float:
    """Stable explicit time step for the given evolution model.

    Classical: dt = dx / (3*sup g).  First-order geodesic: dt = lambda*dx
    with lambda the smaller of 1/(3*sup g + sum of gradient sup-norms) and
    1/(3*mu*sup g + eta*sum of gradient sup-norms), the bound for the LLF
    dissipation coefficients mu*g + eta*|d g/d axis|; the second is the
    smaller only when mu or eta exceeds 1.  Second-order geodesic:
    parabolic bound dt = 0.25*dx^2.
    """
    if dx <= 0:
        raise ValueError("dx must be > 0")
    if model is Model.GEODESIC2:
        return 0.25 * dx * dx
    if speed.sup_g == 0.0:
        raise DegenerateSpeedError("degenerate speed field: g is identically zero")
    if model is Model.CLASSICAL:
        return dx / (3.0 * speed.sup_g)
    grad_sum = speed.sup_gx + speed.sup_gy + speed.sup_gz
    lam = 1.0 / max(3.0 * speed.sup_g + grad_sum, 3.0 * mu * speed.sup_g + eta * grad_sum)
    return lam * dx
