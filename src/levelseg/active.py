"""The active set of a speed field and the neighbour tables of the explicit
step on it.

Every term of the update carries a factor g or a component of grad g: the
LLF Hamiltonian (g|Dv|, or mu*g|Dv| - eta*grad g.Dv), its dissipation
coefficients (g, or mu*g + eta*|dg/d axis|) and the curvature term
(epsilon*g*|Dv|*kappa).  Where g and grad g all vanish the update is
exactly zero, so a voxel outside the active set keeps its level-set value
for the whole run.  The set depends on the speed field alone: unlike a
narrow band, it is never rebuilt.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

# the curvature stencil: the centre, the six face neighbours and the twelve
# in-plane diagonals (xy, xz, yz), in the order `curvature_3d` reads them
STENCIL = (
    (0, 0, 0),
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    (1, 1, 0), (-1, -1, 0), (1, -1, 0), (-1, 1, 0),
    (1, 0, 1), (-1, 0, -1), (1, 0, -1), (-1, 0, 1),
    (0, 1, 1), (0, -1, -1), (0, 1, -1), (0, -1, 1),
)


def upwind_pairs(i, n):
    """Coordinates (hi, lo) along an axis of `n` voxels of the backward and
    of the forward difference at coordinate(s) `i`, each (u[hi] - u[lo])/dx.
    At a face the missing one-sided difference is replaced by the
    available one."""
    lo_m = np.maximum(i - 1, 0)
    lo_p = np.minimum(i, n - 2)
    return (lo_m + 1, lo_m), (lo_p + 1, lo_p)


class ActiveSet:
    """The voxels where g or a component of grad g is nonzero, as flat
    C-order indices, with g and grad g there and the tables of neighbour
    indices that the step gathers level-set values from."""

    def __init__(self, g, grad_g):
        active = g != 0
        for c in grad_g:
            active |= c != 0
        self.shape = g.shape
        self.index = np.flatnonzero(active)
        self.g = g.take(self.index)
        self.grad_g = tuple(c.take(self.index) for c in grad_g)

    def _coords(self):
        return np.unravel_index(self.index, self.shape)

    @cached_property
    def upwind(self):
        """(hi, lo), each (6, N): the flat indices of the one-sided
        differences (p-, p+, q-, q+, r-, r+) = (u[hi] - u[lo])/dx."""
        coords = self._coords()
        hi, lo = [], []
        for axis, n in enumerate(self.shape):
            for pair in upwind_pairs(coords[axis], n):
                for table, c in zip((hi, lo), pair):
                    at = coords[:axis] + (c,) + coords[axis + 1:]
                    table.append(np.ravel_multi_index(at, self.shape))
        return np.stack(hi), np.stack(lo)

    @cached_property
    def stencil(self):
        """(index, span): the (19, N) flat indices of the `STENCIL`
        neighbours, each coordinate clamped to the grid as by edge
        padding, and the (3, N) grid steps between the two face neighbours
        along each axis: 2 inside, 1 on a face, as in `np.gradient`."""
        coords = self._coords()
        index = np.stack([
            np.ravel_multi_index(tuple(c + o for c, o in zip(coords, offset)),
                                 self.shape, mode="clip")
            for offset in STENCIL
        ])
        span = np.stack([np.where((i > 0) & (i < n - 1), 2.0, 1.0)
                         for i, n in zip(coords, self.shape)])
        return index, span
