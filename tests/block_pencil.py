"""Hand-built pencils that keep earlier linearizations under test.

SUM_BLOCK_PENCIL is the 3 x 3 pencil of Z1 + Z2 that gives the affine
part a block of its own: B = [(Z1 + Z2)/2, 1] and D = [[0, 1], [1, 0]] =
D^{-1} with a zero corner, so the corner Schur complement is
-B D^{-1} B* = -(Z1 + Z2).  At an atom of the sum its kernel expectation
has rank one, so it takes the singular-expectation route (support
regularization on the doubled pencil) that the 1 x 1 pencil of a linear
polynomial never takes.

HALVES_PENCIL is the 5 x 5 pencil of Z1 Z2 Z1 that realizes the
palindrome as two halves (Z1 Z2 Z1)/2 + (Z1 Z2 Z1)*/2, each through the
2-chain of the word: B = [Z1/2, 0, 0, Z1] and D = [[0, N*], [N, 0]] with
N = [[1, -Z2], [0, 1]].  Its doubled pencil's kernel limit carries a
mode growing like 1/eps, which the 3 x 3 pencil does not show.
"""

import numpy as np

from freeatoms.linearize import LinearPencil

_HALF = np.array([[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]])
SUM_BLOCK_PENCIL = LinearPencil(np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]]), _HALF, _HALF)

HALVES_PENCIL = LinearPencil(
    np.array([[0, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0, 1, 0, 0, 0],
              [0, 0, 1, 0, 0]]),
    np.array([[0, 0.5, 0, 0, 1], [0.5, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0],
              [1, 0, 0, 0, 0]]),
    np.array([[0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, -1, 0], [0, 0, -1, 0, 0],
              [0, 0, 0, 0, 0]]),
)
