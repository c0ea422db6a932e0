"""Selfadjoint linearizations of selfadjoint NC polynomials.

A polynomial p with p* = p and degree >= 1 is rewritten as the Schur
complement of a Hermitian linear pencil

    L = a0 (x) 1 + a1 (x) Z1 + a2 (x) Z2 = [[-p_aff, B], [C, D]],

where p_aff is the affine part of p, B is a 1 x m row, C = B* is an
m x 1 column, D = D* is m x m, all with entries of degree <= 1, and a
polynomial inverse D' of D exists with B D' C = p - p_aff.  The corner
Schur complement is then -p_aff - B D' C = -p (Helton, Mai & Speicher,
J. Funct. Anal. 274, 2018).  The defining identities are exact
coefficient identities, verified symbolically by
:func:`verify_certificate`.

Construction: every monomial w of degree d >= 2 gets one block
D = [[0, N*], [N, M]] with D' = [[-N' M N'*, N'], [N'*, 0]], where N is a
bidiagonal unit chain and N' = N^{-1} is polynomial.  A word w that is
not a palindrome is paired with w* in a block of size 2(d-1) with M = 0;
a palindrome u x u* is realized once, N chaining u and -c x (-c at even
degree) on M's diagonal, in a block of size 2 floor(d/2).  Coefficients
enter as given, so every selfadjoint p has an exact certificate.  The
pencil has n = 1 + m; a linear p has the 1 x 1 pencil (-c0, -c1, -c2).  For the
anticommutator Z1 Z2 + Z2 Z1 this reproduces the classical 3 x 3 pencil
with B = [Z1, Z2] and D = [[0, 1], [1, 0]]; Z1 Z2 Z1 has the 3 x 3 pencil
with B = [Z1, 0] and D = [[0, 1], [1, -Z2]].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .ncpoly import NCPoly, adjoint, eval_matrices, format_poly, is_selfadjoint
from .opval import check_hermitian, herm_part, numerical_kernel_dim, pack_matrix


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearPencil:
    """Hermitian coefficient triple (a0, a1, a2) of size n."""

    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        mats = [check_hermitian(getattr(self, name), name) for name in ("a0", "a1", "a2")]
        if not (mats[0].shape == mats[1].shape == mats[2].shape):
            raise ValueError("coefficient matrices must share one dimension")
        for name, m in zip(("a0", "a1", "a2"), mats):
            object.__setattr__(self, name, m)

    @property
    def n(self):
        return self.a0.shape[0]

    def evaluate(self, A1, A2):
        """Dense value a0 (x) I + a1 (x) A1 + a2 (x) A2."""
        A1 = np.asarray(A1, dtype=complex)
        A2 = np.asarray(A2, dtype=complex)
        d = A1.shape[0]
        return (
            np.kron(self.a0, np.eye(d))
            + np.kron(self.a1, A1)
            + np.kron(self.a2, A2)
        )

    def to_json_dict(self):
        return {"n": self.n, "a0": pack_matrix(self.a0), "a1": pack_matrix(self.a1),
                "a2": pack_matrix(self.a2)}


@dataclass(frozen=True)
class LinearizationCertificate:
    """Symbolic witness (corner, B, C, D, D') for a pencil linearizing p.

    ``corner`` is the pencil's (0, 0) entry -p_aff; with m = 0 it is the
    whole pencil.
    """

    corner: NCPoly
    B: tuple  # 1 x m of NCPoly
    C: tuple  # m x 1 of NCPoly
    D: tuple  # m x m rows of tuples of NCPoly
    Dprime: tuple

    @property
    def m(self):
        return len(self.B)

    def to_json_dict(self):
        return {
            "corner": format_poly(self.corner),
            "B": [format_poly(p) for p in self.B],
            "C": [format_poly(p) for p in self.C],
            "D": [[format_poly(p) for p in row] for row in self.D],
            "Dprime": [[format_poly(p) for p in row] for row in self.Dprime],
        }


# ---------------------------------------------------------------------------
# polynomial matrix helpers
# ---------------------------------------------------------------------------


def _poly_matmul(A, B):
    """Product of two m x m matrices of polynomials."""
    m = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(m)), NCPoly.zero()) for j in range(m)]
            for i in range(m)]


def _poly_zeros(m):
    return [[NCPoly.zero()] * m for _ in range(m)]


def _poly_eye(m):
    return [[NCPoly.one() if i == j else NCPoly.zero() for j in range(m)] for i in range(m)]


def _is_poly_identity(M):
    m = len(M)
    for i in range(m):
        for j in range(m):
            want = NCPoly.one() if i == j else NCPoly.zero()
            if M[i][j] != want:
                return False
    return True


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _chain_block(word, coeff):
    """One-sided chain for coeff * word of degree d >= 2.

    Returns (B_row, C_col, D, Dinv) of size m = d - 1 with
    B D^{-1} C = coeff * word, D unitriangular so D^{-1} is polynomial.
    """
    d = len(word)
    m = d - 1
    B = [NCPoly.zero()] * m
    B[0] = NCPoly.monomial((word[0],), coeff)
    C = [NCPoly.zero()] * m
    C[m - 1] = NCPoly.letter(word[d - 1])
    D = _poly_eye(m)
    for i in range(m - 1):
        D[i][i + 1] = -NCPoly.letter(word[i + 1])
    Dinv = _poly_eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            Dinv[i][j] = NCPoly.monomial(tuple(word[i + 1 : j + 1]), 1.0)
    return B, C, D, Dinv


def _adjoint_poly_matrix(M):
    rows, cols = len(M), len(M[0])
    return [[adjoint(M[i][j]) for i in range(rows)] for j in range(cols)]


def _word_block(word, coeff):
    """Block (B, D, D') with D = [[0, N*], [N, M]] and D' = [[-N' M N'*, N'], [N'*, 0]].

    N is a unit chain of :func:`_chain_block` and N' = N^{-1}, so D D' = 1
    for every M.  A word that is not a palindrome contributes
    coeff*word + conj(coeff)*word* through the chain of ``word`` and
    M = 0; for degree 2 this is B = [c Z_i, Z_j] with D = [[0, 1], [1, 0]].
    A palindrome u x u* of degree d contributes coeff*word once: N chains
    u, B = [u_1, 0, ...] and M is zero but for -coeff x (-coeff at even
    degree) in its last diagonal entry, a block of size 2 floor(d/2).
    """
    if word == word[::-1]:
        half = len(word) // 2
        B, _, N, Ninv = _chain_block(word[: half + 1], 1.0)
        B = B + [NCPoly.zero()] * half
        M = _poly_zeros(half)
        M[-1][-1] = NCPoly.monomial(word[half : len(word) - half], -coeff)
    else:
        B, C, N, Ninv = _chain_block(word, coeff)
        B = B + [adjoint(c) for c in C]
        M = _poly_zeros(len(N))
    Ninv_star = _adjoint_poly_matrix(Ninv)
    top = [[-q for q in row] for row in _poly_matmul(_poly_matmul(Ninv, M), Ninv_star)]
    zero = _poly_zeros(len(N))
    D = [a + b for a, b in zip(zero, _adjoint_poly_matrix(N))] + [a + b for a, b in zip(N, M)]
    Dprime = [a + b for a, b in zip(top, Ninv)] + [a + b for a, b in zip(Ninv_star, zero)]
    return B, D, Dprime


def linearize(p: NCPoly):
    """Build a selfadjoint linearization of a selfadjoint polynomial.

    Returns ``(pencil, certificate)``; raises
    :class:`~freeatoms.errors.PreconditionError` for non-selfadjoint or
    constant input.  The certificate identities hold exactly.
    """
    if not is_selfadjoint(p):
        raise PreconditionError("linearize requires a selfadjoint polynomial")
    if p.degree < 1:
        raise PreconditionError("linearize requires degree >= 1")

    blocks = []
    seen = set()
    for word, coeff in p.higher_part().terms:
        if word not in seen:
            # selfadjointness pairs each word with its reversal, conjugated
            seen.update((word, word[::-1]))
            blocks.append(_word_block(word, coeff))

    B = [q for Bb, _, _ in blocks for q in Bb]
    C = [adjoint(q) for q in B]
    D, Dprime = _poly_zeros(len(B)), _poly_zeros(len(B))
    off = 0
    for Bb, Db, Dpb in blocks:
        for i in range(len(Bb)):
            D[off + i][off : off + len(Bb)] = Db[i]
            Dprime[off + i][off : off + len(Bb)] = Dpb[i]
        off += len(Bb)
    corner = -p.affine_part()
    cert = LinearizationCertificate(corner=corner, B=tuple(B), C=tuple(C),
                                    D=tuple(tuple(r) for r in D),
                                    Dprime=tuple(tuple(r) for r in Dprime))

    # the pencil [[corner, B], [C, D]], read off entry by entry
    entries = [[corner, *B]] + [[c, *row] for c, row in zip(C, D)]
    if any(q.degree > 1 for row in entries for q in row):
        raise AssertionError("pencil entries must have degree <= 1")
    coeffs = (np.array([[q.coeff(word) for q in row] for row in entries], dtype=complex)
              for word in ((), (1,), (2,)))
    return LinearPencil(*coeffs), cert


def verify_certificate(p: NCPoly, cert: LinearizationCertificate) -> bool:
    """Check the certificate's identities exactly.

    corner = corner*, C = B*, D = D*, D D' = D' D = 1 and
    B D' C - corner = p; with m = 0 the last one reads -corner = p.
    """
    m = cert.m
    if cert.corner != adjoint(cert.corner):
        return False
    if any(cert.C[i] != adjoint(cert.B[i]) for i in range(m)):
        return False
    for i in range(m):
        for j in range(m):
            if cert.D[i][j] != adjoint(cert.D[j][i]):
                return False
    if not _is_poly_identity(_poly_matmul(cert.D, cert.Dprime)):
        return False
    if not _is_poly_identity(_poly_matmul(cert.Dprime, cert.D)):
        return False
    schur = sum((cert.B[i] * cert.Dprime[i][j] * cert.C[j] for i in range(m) for j in range(m)),
                NCPoly.zero())
    return schur - cert.corner == p


def corner_shift(L: LinearPencil, lam: float) -> LinearPencil:
    """Add lam to the (1,1) corner of the constant coefficient.

    The shifted pencil tests the location lam: the kernel of
    lam e11 (x) 1 + L(X1, X2) matches the kernel of lam - p(X1, X2).
    """
    a0 = L.a0.copy()
    a0[0, 0] += lam
    return LinearPencil(a0, L.a1, L.a2)


# ---------------------------------------------------------------------------
# numerical invertibility equivalence
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    trials: int
    generic_checked: int = 0
    engineered_checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def invertibility_equivalence_check(p: NCPoly, L: LinearPencil, trials: int = 50,
                                    dim: int = 3, seed: int = 0) -> EquivalenceReport:
    """Monte Carlo check that p(A1, A2) and L(A1, A2) are singular together.

    Generic Hermitian samples should leave both invertible; samples
    engineered to make (lam - p)(A1, A2) singular must leave the
    corner-shifted pencil singular too, with equal kernel dimensions.
    """
    rng = np.random.default_rng(seed)
    report = EquivalenceReport(trials=trials)
    selfadj = is_selfadjoint(p)
    for trial in range(trials):
        A1 = herm_part(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        A2 = herm_part(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        P = eval_matrices(p, A1, A2)
        Lval = L.evaluate(A1, A2)
        sing_p = numerical_kernel_dim(P) > 0
        sing_l = numerical_kernel_dim(Lval) > 0
        report.generic_checked += 1
        if sing_p != sing_l:
            report.violations.append(
                {"trial": trial, "kind": "generic", "p_singular": sing_p, "L_singular": sing_l}
            )
        if selfadj:
            lam = float(np.sort(np.linalg.eigvalsh(P))[trial % dim])
            shifted = corner_shift(L, lam).evaluate(A1, A2)
            ker_p = numerical_kernel_dim(lam * np.eye(dim) - P)
            ker_l = numerical_kernel_dim(shifted)
            report.engineered_checked += 1
            if ker_p == 0 or ker_p != ker_l:
                report.violations.append(
                    {
                        "trial": trial,
                        "kind": "engineered",
                        "lam": lam,
                        "ker_p": int(ker_p),
                        "ker_L": int(ker_l),
                    }
                )
    return report
