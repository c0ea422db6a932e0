"""Matrix-valued Cauchy transforms of a (x) X and pencil kernel dimensions.

For a Hermitian n x n coefficient ``a`` and a scalar-distributed variable
X with law mu, the transform is G(z) = int (z - t a)^{-1} dmu(t) for z in
the matrix upper half-plane, evaluated exactly: atoms as a resolvent sum,
the continuous part through an eigendecomposition and the scalar closed
forms of ``measure``.  The second half of the module computes the
normalized kernel dimension k(t) of the pencil b - t a: its generic
minimum k_min, its value at the atoms of mu, and the kernel trace

    tau_n(ker(b (x) 1 - a (x) X)) = k_min + sum_t (k(t) - k_min) mu({t}),

where the sum runs over the atoms of mu, so k(t) is read nowhere else.
The matrix conventions the other modules share live here too: the
Hermitian check, the half-plane test, the rank rule and the [re, im]
JSON form of complex matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import HalfPlaneError
from .measure import SpectralMeasure, integrate_piece

# Singular values below RANK_RTOL * max(sigma_1, 1) count as zero: the one
# rank rule of pencil ranks, kernel bases and the linearization checks.
RANK_RTOL = 1e-8

# The eigenvector basis of the continuous transform amplifies roundoff by
# its condition number (1-norm); beyond this, where its error would exceed
# that of quadrature (~1e-12), the continuous part is integrated by
# quadrature instead.
_EIG_COND_LIMIT = 1e4


# ---------------------------------------------------------------------------
# half-plane utilities
# ---------------------------------------------------------------------------


def imag_part(z):
    """Matrix imaginary part (z - z*) / 2i, slice by slice over leading axes."""
    z = np.asarray(z, dtype=complex)
    return (z - z.conj().swapaxes(-1, -2)) / 2j


def herm_part(z):
    z = np.asarray(z, dtype=complex)
    return (z + z.conj().swapaxes(-1, -2)) / 2


def min_imag_eig(z):
    """Smallest eigenvalue of the imaginary part of z: a float, or an array over a stack.

    A 1 x 1 imaginary part is its own eigenvalue; that is Im z for a
    finite z, and eigvalsh returns the same number for it.
    """
    im = imag_part(z)
    gap = im[..., 0, 0].real if im.shape[-1] == 1 else np.linalg.eigvalsh(im)[..., 0]
    return float(gap) if gap.ndim == 0 else gap


def inverse(m):
    """Inverse of each slice of a stack; a 1 x 1 slice is its reciprocal."""
    return 1.0 / m if m.shape[-1] == 1 else np.linalg.inv(m)


def validate_upper(z, where="argument"):
    """z as a complex array: one square point (n, n) or a stack (K, n, n) in H+_n.

    A stack is checked slice by slice, and the error names the first bad slice.
    """
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    if z.ndim > 3 or z.shape[-1] != z.shape[-2]:
        raise HalfPlaneError(f"{where} must be square or a stack of squares, got shape {z.shape}")
    gap = np.atleast_1d(min_imag_eig(z))
    if not (gap > 0.0).all():
        k = int(np.flatnonzero(~(gap > 0.0))[0])
        at = f"{where}[{k}]" if z.ndim == 3 else where
        raise HalfPlaneError(
            f"{at} must have positive definite imaginary part (min eigenvalue {gap[k]:.3e})"
        )
    return z


def check_hermitian(m, name="coefficient"):
    """m as a square complex array, rejected unless finite and Hermitian to 1e-12 relative.

    The matrix is returned as given, not symmetrized; callers that need
    an exactly Hermitian matrix apply :func:`herm_part` themselves.
    """
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    if np.max(np.abs(m - m.conj().T)) > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError(f"{name} must be Hermitian")
    return m


def pack_matrix(m):
    """Row-major list of [re, im] pairs: the JSON form of a complex matrix."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[float(v.real), float(v.imag)] for v in m.reshape(-1)]


def unpack_matrix(flat, n):
    """Inverse of :func:`pack_matrix` for an n x n matrix."""
    return np.array([complex(re, im) for re, im in flat]).reshape(n, n)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


class Coefficient:
    """A Hermitian coefficient prepared for transforms at many points z.

    Holds the exactly Hermitian matrix ``a``.  The z-independent part of
    the continuous transform, :attr:`split`, is computed on first use, so
    a solve on atomic laws never pays for it.
    """

    def __init__(self, a):
        self.a = herm_part(check_hermitian(a))

    @cached_property
    def split(self):
        """(U, Uh, d): an eigenbasis U of ``a`` with the live (nonzero) eigenvalues d first, and Uh = U*."""
        d, U = np.linalg.eigh(self.a)
        live = np.abs(d) > self.a.shape[0] * np.finfo(float).eps * np.abs(d).max()
        U = np.concatenate([U[:, live], U[:, ~live]], axis=1)
        return U, U.conj().T, d[live]


def _resolvents(a, z, ts):
    """(z - t a)^{-1} over the points ``ts``, stacked on a new first axis."""
    ts = np.asarray(ts, dtype=float)
    return inverse(z - ts.reshape((-1,) + (1,) * z.ndim) * a)


def _continuous_cauchy(c: Coefficient, mu: SpectralMeasure, z) -> np.ndarray:
    """int (z - t a)^{-1} over the continuous part of mu at a stack z (K, n, n), in closed form.

    In an eigenbasis of a, its kernel N is split off exactly: with the
    Schur complement S = z_RR - z_RN z_NN^{-1} z_NR on the range R
    (S stays in the upper half-plane), the range block of the resolvent
    is (S - t d)^{-1} = V diag(1/(w_i - t)) V^{-1} d^{-1} for
    d^{-1} S = V diag(w) V^{-1}, so it integrates to
    V diag(G_c(w_i)) V^{-1} d^{-1}; the other blocks follow from it.
    No w_i is real, since S - t d is invertible for every real t.
    Keeping the kernel out of the eigenproblem matters: a zero
    eigenvalue of z^{-1} a next to small nonzero ones (singular pencils
    near an atom) makes the eigenbasis ill-conditioned.  The slices
    whose eigenbasis is too ill-conditioned are integrated by quadrature.
    For n = 1 and a != 0 the transform is G_c(z / a) / a: no eigenbasis.
    """
    U, Uh, d = c.split
    n, r = z.shape[-1], d.size
    weight = mu.continuous_weight
    if r == 0:
        return weight * inverse(z)
    if n == 1:
        return mu.continuous_cauchy(z / d) * (1.0 / d)
    zu = Uh @ z @ U
    s = zu[:, :r, :r]
    if r < n:
        znn_inv = np.linalg.inv(zu[:, r:, r:])
        left = zu[:, :r, r:] @ znn_inv  # z_RN z_NN^{-1}
        right = znn_inv @ zu[:, r:, :r]  # z_NN^{-1} z_NR
        s = s - left @ zu[:, r:, :r]
    w, V = np.linalg.eig(s / d[:, None])
    Vinv = np.linalg.inv(V)
    g = (V * mu.continuous_cauchy(w)[:, None, :]) @ (Vinv / d)
    if r < n:
        block = np.empty_like(z)
        block[:, :r, :r] = g
        block[:, :r, r:] = -g @ left
        block[:, r:, :r] = -right @ g
        block[:, r:, r:] = weight * znn_inv + right @ g @ left
        g = block
    g = U @ g @ Uh
    cond = np.abs(V).sum(axis=-2).max(axis=-1) * np.abs(Vinv).sum(axis=-2).max(axis=-1)
    for k in np.flatnonzero(cond > _EIG_COND_LIMIT):
        g[k] = sum(p.weight * integrate_piece(lambda ts, zk=z[k]: _resolvents(c.a, zk, ts), p)
                   for p in mu.continuous)
    return g


def matrix_cauchy(a, mu: SpectralMeasure, z, *, check_upper=True) -> np.ndarray:
    """G(z) = int (z - t a)^{-1} dmu(t); maps H+_n into H-_n.

    ``z`` is one point (n, n) or a stack (K, n, n), evaluated slice by
    slice in one pass.  ``a`` is a :class:`Coefficient` or a Hermitian
    array, which is prepared here.  ``check_upper=False`` skips the
    half-plane check of z, for a caller that has just made it itself.
    """
    c = a if isinstance(a, Coefficient) else Coefficient(a)
    z = validate_upper(z, "z") if check_upper else z
    n = z.shape[-1]
    if c.a.shape != (n, n):
        raise ValueError(f"coefficient shape {c.a.shape} does not match point shape {z.shape}")
    total = None
    if mu.atoms:
        res = _resolvents(c.a, z, [loc for loc, _ in mu.atoms])
        for (_loc, m), r in zip(mu.atoms, res):
            total = m * r if total is None else total + m * r
    if mu.continuous:
        g = _continuous_cauchy(c, mu, z.reshape(-1, n, n)).reshape(z.shape)
        total = g if total is None else total + g
    return np.asarray(total, dtype=complex)


def matrix_f(a, mu: SpectralMeasure, z, *, check_upper=True) -> np.ndarray:
    """Reciprocal transform F(z) = G(z)^{-1}; self-map of H+_n with Im F >= Im z.

    ``a`` is a :class:`Coefficient` or a Hermitian array; ``z`` and
    ``check_upper`` are as for :func:`matrix_cauchy`.
    """
    return inverse(matrix_cauchy(a, mu, z, check_upper=check_upper))


# ---------------------------------------------------------------------------
# pencil kernels
# ---------------------------------------------------------------------------


def _rank_of(s):
    """Numerical rank from singular values ``s`` in descending order."""
    return int(np.sum(s > RANK_RTOL * max(s[0], 1.0))) if s.size else 0


def numerical_rank(m):
    return _rank_of(np.linalg.svd(np.atleast_2d(m), compute_uv=False))


def numerical_kernel_dim(m):
    """Dimension of the numerical kernel: columns minus numerical rank."""
    m = np.atleast_2d(m)
    return m.shape[1] - numerical_rank(m)


def kernel_basis(m):
    """Orthonormal basis of the numerical kernel (columns), via SVD."""
    _u, s, vh = np.linalg.svd(np.atleast_2d(np.asarray(m, dtype=complex)))
    return vh[_rank_of(s):, :].conj().T


@dataclass(frozen=True)
class PencilKernelProfile:
    """Generic kernel dimension of t -> ker(b - t a) and its value at the hinted points.

    ``exceptional`` lists the hinted points, normally the atoms of the
    law, where the kernel is larger than generic; the kernel trace reads
    k(t) nowhere else.
    """

    k_min: Fraction
    exceptional: tuple  # ((t, k_t), ...) over the hints with k_t > k_min

    def kernel_trace(self, mu: SpectralMeasure) -> float:
        """tau_n(ker(b (x) 1 - a (x) X)) = k_min + sum_t (k(t) - k_min) mu({t}).

        Each exceptional point is looked up exactly among the atoms of mu,
        whose own locations are the hints, so two atoms count separately
        however close they are.
        """
        masses = dict(mu.atoms)
        total = float(self.k_min)
        for t, k_t in self.exceptional:
            total += float(k_t - self.k_min) * masses.get(t, 0.0)
        return total


def kernel_profile(a, b, hints=()) -> PencilKernelProfile:
    """k_min from the generic rank of b - t a, and k(t) at each hint above it.

    The rank of b - t a falls below its generic value r only where a
    fixed nonzero r x r minor, a polynomial of degree <= n in t, vanishes:
    at no more than n points.  So r is the largest rank over n + 1
    distinct points, taken outside the working scale.  Pass the atoms of
    the law as ``hints``: the kernel trace formula reads k(t) only there,
    and a point that is no atom adds nothing.
    """
    a = herm_part(check_hermitian(a, "a"))
    b = herm_part(check_hermitian(b, "b"))
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))),
                *[abs(float(h)) for h in hints])
    ts = (scale + 1.0) * (1.0 + np.arange(n + 1) / n)
    sv = np.linalg.svd(b - ts[:, None, None] * a, compute_uv=False)
    k_min = Fraction(n - max(_rank_of(s) for s in sv), n)

    # distinct atoms stay distinct however close they are: each one's
    # k(t) enters the trace with its own mass
    exceptional = []
    for t in sorted({float(h) for h in hints}):
        k_t = Fraction(numerical_kernel_dim(b - t * a), n)
        if k_t > k_min:
            exceptional.append((t, k_t))
    return PencilKernelProfile(k_min=k_min, exceptional=tuple(exceptional))


def pencil_kernel_trace(a, b, mu: SpectralMeasure) -> float:
    """tau_n of the kernel projection of b (x) 1 - a (x) X for X ~ mu."""
    return kernel_profile(a, b, hints=[x for x, _ in mu.atoms]).kernel_trace(mu)


def expected_kernel_projection(a, b, mu: SpectralMeasure, transform=None, profile=None):
    """Expected kernel projection of (b - t a) under mu, optionally transformed.

    Returns int P(t) dmu(t) where P(t) projects onto T ker(b - t a) for
    the optional invertible matrix T (identity when omitted).  Used to
    evaluate kernel expectations of single-variable pencils directly from
    the spectral model, independently of any boundary-limit estimate.
    ``profile`` is the pencil's :func:`kernel_profile` when the caller
    already has it.
    """
    a = herm_part(check_hermitian(a, "a"))
    b = herm_part(check_hermitian(b, "b"))
    n = a.shape[0]
    T = np.eye(n) if transform is None else np.asarray(transform, dtype=complex)
    if profile is None:
        profile = kernel_profile(a, b, hints=[x for x, _ in mu.atoms])

    def proj_at(t):
        null = kernel_basis(b - t * a)
        if null.shape[1] == 0:
            return np.zeros((n, n), dtype=complex)
        cols = T @ null
        q, _ = np.linalg.qr(cols)
        return q @ q.conj().T

    total = np.zeros((n, n), dtype=complex)
    for loc, m in mu.atoms:
        total += m * proj_at(loc)
    if profile.k_min > 0 and mu.continuous:
        def proj_batch(ts):
            return np.stack([proj_at(float(t)) for t in np.asarray(ts)])

        for piece in mu.continuous:
            total += piece.weight * integrate_piece(proj_batch, piece, rtol=1e-10)
    return herm_part(total)
