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


class ActiveSet:
    """The voxels where g or a component of grad g is nonzero, as flat
    C-order indices, with g and grad g there and the tables of neighbour
    indices that the step gathers level-set values from.

    The tables are built on first use and then only read, so build the
    ones a run needs before threads share the set.
    """

    def __init__(self, g, grad_g):
        active = g != 0
        for c in grad_g:
            active |= c != 0
        self.shape = g.shape
        self.index = np.flatnonzero(active)
        self.g = g.take(self.index)
        self.grad_g = tuple(c.take(self.index) for c in grad_g)
        # per axis, the positions in the set of the voxels on either grid
        # face normal to it, where one face neighbour is the voxel itself
        self.on_face = tuple(np.flatnonzero((i == 0) | (i == n - 1))
                             for i, n in zip(self._coords(), self.shape))

    def _coords(self):
        return np.unravel_index(self.index, self.shape)

    def _neighbours(self, offsets):
        coords = self._coords()
        return np.stack([
            np.ravel_multi_index(tuple(c + o for c, o in zip(coords, offset)),
                                 self.shape, mode="clip")
            for offset in offsets
        ])

    @cached_property
    def faces(self):
        """(7, N): the flat indices of the centre and the six face
        neighbours, `STENCIL[:7]`, each coordinate clamped to the grid."""
        return self._neighbours(STENCIL[:7])

    @cached_property
    def stencil(self):
        """(19, N): the flat indices of the `STENCIL` neighbours, each
        coordinate clamped to the grid as by edge padding; its first seven
        rows are `faces`."""
        return self._neighbours(STENCIL)
