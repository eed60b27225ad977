"""The active set of a speed field, its split into the parts each seed's
front can reach, and the neighbour tables of the explicit step on it.

Every term of the update carries a factor g or a component of grad g: the
LLF Hamiltonian (g|Dv|, or mu*g|Dv| - eta*grad g.Dv), its dissipation
coefficients (g, or mu*g + eta*|dg/d axis|) and the curvature term
(epsilon*g*|Dv|*kappa).  Where g and grad g all vanish the update is
exactly zero, so a voxel outside the active set keeps its level-set value
for the whole run.  The set depends on the speed field alone: unlike a
narrow band, it is never rebuilt.

Each seed is evolved only on the 18-connected components of the set that
its initial field reaches: those holding a voxel whose stencil includes a
voxel where the field is negative (`ActiveSet.reached`).  The masks stay
the same where this argument holds:
- The offsets of `STENCIL` are the 18-neighbourhood and the centre, and a
  coordinate clamped to the grid keeps an offset inside it.  So every
  voxel the step reads at an active voxel lies in the voxel's own
  component or outside the set, where nothing ever changes: a component
  evolves the same with or without the others.
- A component that is not reached starts >= 0, and so do the frozen
  voxels around it.  The first-order schemes are monotone under the CFL
  bound (Crandall & Majda 1980) and map a constant field to itself, so
  each update is at least its value at the zero field, 0: such a
  component never enters the mask (v < 0), whether it is stepped or not,
  and the stagnation check sees the same signs.
The argument does not cover `gmfd2`, whose explicit curvature term is not
monotone, nor a voxel on a grid face, where the one-sided difference
drops the dissipation along that axis.  There equality rests on tests
against the whole-set loop; on the suite phantoms the masks are bitwise
equal at the full budgets.  Where g is textured on a grid face, the
whole-set loop can drive a component that no seed reaches below zero, and
there the masks differ.  Stepping only where the front can go follows
Adalsteinsson & Sethian (1995).
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import ndimage

# the curvature stencil: the centre, the six face neighbours and the twelve
# in-plane diagonals (xy, xz, yz), in the order `curvature_3d` reads them
STENCIL = (
    (0, 0, 0),
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    (1, 1, 0), (-1, -1, 0), (1, -1, 0), (-1, 1, 0),
    (1, 0, 1), (-1, 0, -1), (1, 0, -1), (-1, 0, 1),
    (0, 1, 1), (0, -1, -1), (0, 1, -1), (0, -1, 1),
)

# the `STENCIL` offsets as a 3x3x3 structuring element: 18-connectivity
CONNECTIVITY = np.zeros((3, 3, 3), dtype=bool)
CONNECTIVITY[tuple(np.array(STENCIL).T + 1)] = True


class ActiveSet:
    """Voxels of a grid of `shape`, as flat C-order indices `index`, with
    g and grad g there and the tables of neighbour indices that the step
    gathers level-set values from.

    The tables are built on first use and then only read, so build the
    ones a run needs before threads share the set.
    """

    def __init__(self, shape, index, g, grad_g):
        self.shape = shape
        self.index = index
        self.g = g
        self.grad_g = grad_g
        # per axis, the positions in the set of the voxels on either grid
        # face normal to it, where one face neighbour is the voxel itself
        self.on_face = tuple(np.flatnonzero((i == 0) | (i == n - 1))
                             for i, n in zip(self._coords(), self.shape))

    @classmethod
    def of_speed(cls, g, grad_g):
        """The voxels where g or a component of grad g is nonzero."""
        active = g != 0
        for c in grad_g:
            active |= c != 0
        index = np.flatnonzero(active)
        return cls(g.shape, index, g.take(index), tuple(c.take(index) for c in grad_g))

    def restrict(self, keep):
        """The set of the positions where the boolean `keep` is true."""
        return ActiveSet(self.shape, self.index[keep], self.g[keep],
                         tuple(c[keep] for c in self.grad_g))

    def components(self):
        """The label, from 1, of each voxel's 18-connected component."""
        grid = np.zeros(self.shape, dtype=bool)
        grid.put(self.index, True)
        return ndimage.label(grid, CONNECTIVITY)[0].take(self.index)

    def reached(self, labels, inside):
        """The components, by their `labels`, that hold a voxel whose
        `STENCIL` neighbours include a voxel of the full-grid mask
        `inside`."""
        near = ndimage.binary_dilation(inside, CONNECTIVITY).take(self.index)
        return self.restrict(np.isin(labels, labels[near]))

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
