"""The 3 x 3 pencil of Z1 + Z2 that gives the affine part a block of its own.

B = [(Z1 + Z2)/2, 1] and D = [[0, 1], [1, 0]] = D^{-1} with a zero
corner, so the corner Schur complement is -B D^{-1} B* = -(Z1 + Z2).
At an atom of the sum its kernel expectation has rank one, so it takes
the singular-expectation route (support regularization on the doubled
pencil) that the 1 x 1 pencil of a linear polynomial never takes.
"""

import numpy as np

from freeatoms.linearize import LinearPencil

_HALF = np.array([[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]])
SUM_BLOCK_PENCIL = LinearPencil(np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]]), _HALF, _HALF)
