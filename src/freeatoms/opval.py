"""Matrix-valued Cauchy transforms of a (x) X and pencil kernel dimensions.

For a Hermitian n x n coefficient ``a`` and a scalar-distributed variable
X with law mu, the transform is G(z) = int (z - t a)^{-1} dmu(t) for z in
the matrix upper half-plane, evaluated exactly: atoms as a resolvent sum,
the continuous part through an eigendecomposition and the scalar closed
forms of ``measure``.  For the Newton steps of ``subord``,
:func:`matrix_h` gives h = F - z with its exact derivative
(:class:`Derivative`): a law with a continuous part takes h in closed
form from the scalar h-transform h_mu = 1/G_mu - id at the same
eigenvalues, with no inverse of G.  The second half of the module computes the
normalized kernel dimension k(t) of the pencil b - t a: its generic
minimum k_min, its value at the atoms of mu, and the kernel trace

    tau_n(ker(b (x) 1 - a (x) X)) = k_min + sum_t (k(t) - k_min) mu({t}),

where the sum runs over the atoms of mu, so k(t) is read nowhere else,
and the expected kernel projection int P(t) dmu(t) of the pencil: exact
projections at the atoms, and for the continuous part the boundary limit
i eps G_c(b + i eps T*T) of the transform as eps -> 0, extrapolated by
:func:`richardson`, the one home of the library's Richardson limits.
The matrix conventions the other modules share live here too: the
Hermitian check, the half-plane test, the rank rule and the [re, im]
JSON form of complex matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import mul

import numpy as np

from .errors import ConvergenceError, HalfPlaneError
from .measure import SpectralMeasure, integrate_piece

# Singular values below RANK_RTOL * max(sigma_1, 1) count as zero: the one
# rank rule of pencil ranks, kernel bases and the linearization checks.
RANK_RTOL = 1e-8

# The eigenvector basis of the continuous transform amplifies roundoff by
# its condition number (1-norm); beyond this, where its error would exceed
# that of quadrature (~1e-12), the continuous part is integrated by
# quadrature instead.
_EIG_COND_LIMIT = 1e4

# The continuous part of an expected kernel projection is the limit of the
# transform down eps_k = _EPS_TOP * scale * 2^{-k}, k < _EPS_RUNGS; a
# Richardson error estimate above KERNEL_LIMIT_TOL fails it.
KERNEL_LIMIT_TOL = 1e-8
_EPS_TOP = 1e-2
_EPS_RUNGS = 12


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


@dataclass(frozen=True)
class Derivative:
    """The derivative H -> dh[H] of a transform at a point or a stack, kept as factors.

    It is the sum of A H B over ``pairs`` (A, B), of
    P (Gamma o (S H T)) Q over ``hadamards`` (P, Q, Gamma, S, T) and of
    c H for c = ``identity``, slice by slice.  At n = 1 every term is a
    product of numbers, and c may be a stack of them.  The choice of
    slices acts on the factors; :meth:`matrix` builds the n^2 x n^2
    matrix on row-major vec(H), where H -> A H B is kron(A, B^T), only
    when asked.
    """

    pairs: tuple = ()
    hadamards: tuple = ()
    identity: float | np.ndarray = 0.0

    def map(self, fn):
        """The same derivative with ``fn`` applied to every factor (slicing, reshaping)."""
        c = self.identity
        return Derivative(tuple(tuple(fn(f) for f in term) for term in self.pairs),
                          tuple(tuple(fn(f) for f in term) for term in self.hadamards),
                          c if np.ndim(c) == 0 else fn(c))

    def matrix(self):
        """The matrix of the map on row-major vec, over the leading axes of the factors.

        Its entry ((i, l), (j, m)) is sum A_ij B_ml + sum P_ik S_kj Gamma_kp T_mp Q_pl
        (over the terms, and over k, p) + c delta_ij delta_lm; in the order
        ((i, j), (l, m)) every term but the last is a product of an
        (n^2, k) and a (k, n^2) matrix, so the whole map is one matrix
        product and one transposition.  At n = 1 it is the sum of the
        terms' products, a stack of 1 x 1 matrices.
        """
        terms = self.pairs + self.hadamards
        if not terms or terms[0][0].shape[-2] == 1:  # n = 1: A or P has one row
            total = self.identity
            for term in terms:
                total = total + reduce(mul, term)
            return total
        first = terms[0][0]  # A or P, with n rows
        lead, n = first.shape[:-2], first.shape[-2]
        cols = [a.reshape(lead + (n * n, 1)) for a, _ in self.pairs]
        rows = [b.swapaxes(-1, -2).reshape(lead + (1, n * n)) for _, b in self.pairs]
        for p, q, gamma, s, t in self.hadamards:
            r = gamma.shape[-1]
            cols.append((p[..., :, None, :] * s.swapaxes(-1, -2)[..., None, :, :]).reshape(
                lead + (n * n, r)))
            rows.append(gamma @ (q[..., :, :, None] * t.swapaxes(-1, -2)[..., :, None, :]).reshape(
                lead + (r, n * n)))
        m = np.concatenate(cols, axis=-1) @ np.concatenate(rows, axis=-2)
        m = m.reshape(lead + (n, n, n, n)).swapaxes(-3, -2).reshape(lead + (n * n, n * n))
        if self.identity:
            diag = np.arange(n * n)
            m[..., diag, diag] += self.identity
        return m


def _divided_differences(g, dg, w):
    """Gamma_ij = (g_j - g_i) / (w_i - w_j), and -g'(w_i) where w_i and w_j (nearly) meet.

    Gamma_ij = int dmu(t) / ((w_i - t)(w_j - t)) for g = G_mu(w), dg = G_mu'(w)
    along the last axis.  Below a gap of 1e-8 |w| the divided difference
    has lost half its digits and the mean derivative is as close.
    """
    gap = w[..., :, None] - w[..., None, :]
    near = np.abs(gap) <= 1e-8 * (np.abs(w[..., :, None]) + np.abs(w[..., None, :]))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (g[..., None, :] - g[..., :, None]) / gap
    return np.where(near, -0.5 * (dg[..., :, None] + dg[..., None, :]), out)


def _range_eig(c: Coefficient, z):
    """The range split of a stack z (K, n, n) in an eigenbasis of a, for 0 < r < n or r = n.

    With the live eigenvalues d of a on its range R and its kernel N, the
    Schur complement S = z_RR - z_RN z_NN^{-1} z_NR stays in the upper
    half-plane, and d^{-1} S = V diag(w) V^{-1}.  Returns
    (w, V, V^{-1}, left, right, z_NN^{-1}) with left = z_RN z_NN^{-1} and
    right = z_NN^{-1} z_NR; the last three are None when a is invertible.
    No w_i is real, since S - t d is invertible for every real t.
    Keeping the kernel out of the eigenproblem matters: a zero
    eigenvalue of z^{-1} a next to small nonzero ones (singular pencils
    near an atom) makes the eigenbasis ill-conditioned.
    """
    U, Uh, d = c.split
    n, r = z.shape[-1], d.size
    zu = Uh @ z @ U
    s = zu[:, :r, :r]
    left = right = znn_inv = None
    if r < n:
        znn_inv = np.linalg.inv(zu[:, r:, r:])
        left = zu[:, :r, r:] @ znn_inv
        right = znn_inv @ zu[:, r:, :r]
        s = s - left @ zu[:, r:, :r]
    w, V = np.linalg.eig(s / d[:, None])
    return w, V, np.linalg.inv(V), left, right, znn_inv


def _ill_conditioned(V, Vinv):
    """The slices whose eigenbasis amplifies roundoff beyond ``_EIG_COND_LIMIT`` (1-norm)."""
    cond = np.abs(V).sum(axis=-2).max(axis=-1) * np.abs(Vinv).sum(axis=-2).max(axis=-1)
    return np.flatnonzero(cond > _EIG_COND_LIMIT)


def _continuous_cauchy(c: Coefficient, mu: SpectralMeasure, z):
    """int (z - t a)^{-1} over the continuous part of mu at a stack z (K, n, n), in closed form.

    In an eigenbasis of a, its kernel is split off exactly
    (:func:`_range_eig`): the range block of the resolvent is
    (S - t d)^{-1} = V diag(1/(w_i - t)) V^{-1} d^{-1}, so it integrates
    to V diag(G_c(w_i)) V^{-1} d^{-1}; the other blocks follow from it.
    The slices whose eigenbasis is too ill-conditioned are integrated by
    quadrature.  For n = 1 and a != 0 the transform is G_c(z / a) / a:
    no eigenbasis.
    """
    U, Uh, d = c.split
    n, r = z.shape[-1], d.size
    weight = mu.continuous_weight
    if r == 0:
        return weight * inverse(z)
    if n == 1:
        return mu.continuous_cauchy(z / d) * (1.0 / d)
    w, V, Vinv, left, right, znn_inv = _range_eig(c, z)
    g = (V * mu.continuous_cauchy(w)[:, None, :]) @ (Vinv / d)
    if r < n:
        block = np.empty_like(z)
        block[:, :r, :r] = g
        block[:, :r, r:] = -g @ left
        block[:, r:, :r] = -right @ g
        block[:, r:, r:] = right @ g @ left
        g = U @ block @ Uh + weight * (U[:, r:] @ znn_inv @ Uh[r:])
    else:
        g = U @ g @ Uh
    for k in _ill_conditioned(V, Vinv):
        g[k] = sum(p.weight * integrate_piece(lambda ts, zk=z[k]: _resolvents(c.a, zk, ts), p)
                   for p in mu.continuous)
    return g


def _prepare(a, z, check_upper):
    """The coefficient as a :class:`Coefficient` and z, checked unless ``check_upper`` is off."""
    c = a if isinstance(a, Coefficient) else Coefficient(a)
    z = validate_upper(z, "z") if check_upper else z
    n = z.shape[-1]
    if c.a.shape != (n, n):
        raise ValueError(f"coefficient shape {c.a.shape} does not match point shape {z.shape}")
    return c, z


def _atom_sum(c: Coefficient, mu: SpectralMeasure, z):
    """(sum_k m_k R_k, (R_k)) over the atoms of mu, R_k = (z - t_k a)^{-1}."""
    res = _resolvents(c.a, z, [loc for loc, _ in mu.atoms])
    total = None
    for (_loc, m), r in zip(mu.atoms, res):
        total = m * r if total is None else total + m * r
    return total, res


def matrix_cauchy(a, mu: SpectralMeasure, z, *, check_upper=True):
    """G(z) = int (z - t a)^{-1} dmu(t); maps H+_n into H-_n.

    ``z`` is one point (n, n) or a stack (K, n, n), evaluated slice by
    slice in one pass.  ``a`` is a :class:`Coefficient` or a Hermitian
    array, which is prepared here.  ``check_upper=False`` skips the
    half-plane check of z, for a caller that has just made it itself.
    """
    c, z = _prepare(a, z, check_upper)
    n = z.shape[-1]
    total = _atom_sum(c, mu, z)[0] if mu.atoms else None
    if mu.continuous:
        g = _continuous_cauchy(c, mu, z.reshape(-1, n, n)).reshape(z.shape)
        total = g if total is None else total + g
    return np.asarray(total, dtype=complex)


def matrix_f(a, mu: SpectralMeasure, z, *, check_upper=True):
    """Reciprocal transform F(z) = G(z)^{-1}; self-map of H+_n with Im F >= Im z.

    ``a``, ``z`` and ``check_upper`` are as for :func:`matrix_cauchy`.  A
    law of two atoms takes F in closed form (:func:`_two_atom_f`).
    """
    if _two_atom_law(mu):
        return _two_atom_f(a, mu, z, check_upper, False)
    return inverse(matrix_cauchy(a, mu, z, check_upper=check_upper))


def matrix_h(a, mu: SpectralMeasure, z, *, check_upper=True):
    """h(z) = F(z) - z and its :class:`Derivative` H -> dh[H], for the Newton steps of ``subord``.

    ``a``, ``z`` and ``check_upper`` are as for :func:`matrix_cauchy`.  A
    law with a continuous part takes h in closed form without inverting G
    (:func:`_continuous_h`); a purely atomic law takes F as
    :func:`matrix_f` does, and its derivative dF[H] = -F dG[H] F from
    dG[H] = -sum_k m_k R_k H R_k, minus the identity.
    """
    c, z = _prepare(a, z, check_upper)
    n = z.shape[-1]
    h, jac = (_continuous_h if mu.continuous else _atomic_h)(c, mu, z.reshape(-1, n, n))
    return (h[0], jac.map(lambda f: f[0])) if z.ndim == 2 else (h, jac)


def _atomic_h(c: Coefficient, mu: SpectralMeasure, z):
    """h = F - z and its derivative at a stack z for a purely atomic law."""
    if _two_atom_law(mu):
        f, jac = _two_atom_f(c, mu, z, False, True)
    else:
        g, res = _atom_sum(c, mu, z)
        f = inverse(g)
        jac = Derivative(tuple((f @ (m * r), r @ f) for (_loc, m), r in zip(mu.atoms, res)))
    return f - z, Derivative(jac.pairs, identity=-1.0)


def _continuous_h(c: Coefficient, mu: SpectralMeasure, z):
    """h = F - z and its derivative at a stack z (K, n, n) for a law with a continuous part.

    With the range split of :func:`_range_eig`, G is the inverse of the
    matrix that agrees with z outside its range block and has Schur
    complement V diag(1/G_mu(w_i)) V^{-1} d there, so exactly

        h(z) = U_R d V diag(h_mu(w_i)) V^{-1} U_R*,

    h_mu = 1/G_mu - id the scalar h-transform of the whole law, atoms
    included: no inverse of G.  As a function of d^{-1} S, whose
    derivative is H -> d^{-1} F H E with E = [I; -z_NN^{-1} z_NR] and
    F = [I, -z_RN z_NN^{-1}] in the eigenbasis, its derivative is the
    Daleckii-Krein term P (Gamma o (V^{-1} d^{-1} F H E V)) Q with
    P = U_R d V, Q = V^{-1} U_R* and the divided differences
    Gamma_ij = F_mu(w_i) F_mu(w_j) Gamma^G_ij - 1 of h_mu
    (:func:`_divided_differences`).  At n = 1 this is h = a h_mu(z / a)
    with h'(z) = h_mu'(z / a); for a = 0, h = 0.  The slices whose
    eigenbasis is too ill-conditioned take h = G^{-1} - z with G by
    quadrature, and their derivative from the eigenbasis all the same.
    """
    U, Uh, d = c.split
    n, r = z.shape[-1], d.size
    if r == 0:
        zero = np.zeros_like(z)
        return zero, Derivative(((zero, zero),))
    # G' is of order 1/y^2 next to an atom, and overflows at extreme
    # heights; the Newton candidate is then non-finite and rejected
    if n == 1:
        w = z / d
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g, dg = mu.cauchy_with_derivative(w)
            f = 1.0 / g
            return d * (f - w), Derivative(identity=-dg * f * f - 1.0)
    w, V, Vinv, left, right, _ = _range_eig(c, z)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g, dg = mu.cauchy_with_derivative(w)
        f = 1.0 / g
        gamma = f[:, :, None] * f[:, None, :] * _divided_differences(g, dg, w) - 1.0
    p, q = U[:, :r] @ (d[:, None] * V), Vinv @ Uh[:r]
    h = (p * (f - w)[:, None, :]) @ q
    # E V and V^{-1} d^{-1} F in the original basis
    ev, vf = U[:, :r] @ V, (Vinv / d) @ Uh[:r]
    if r < n:
        ev = ev - U[:, r:] @ (right @ V)
        vf = vf - (Vinv / d) @ (left @ Uh[r:])
    bad = _ill_conditioned(V, Vinv)
    if bad.size:
        h[bad] = inverse(matrix_cauchy(c, mu, z[bad], check_upper=False)) - z[bad]
    return h, Derivative(hadamards=((p, q, gamma, vf, ev),))


def _two_atom_law(mu: SpectralMeasure):
    """True for a law of exactly two atoms, whose F :func:`matrix_f` takes in closed form."""
    return not mu.continuous and len(mu.atoms) == 2


def _two_atom_f(a, mu, z, check_upper, derivative):
    """F = A M^{-1} B for mu = m0 delta_t0 + m1 delta_t1, A = z - t0 a, B = z - t1 a.

    G = m0 A^{-1} + m1 B^{-1} = A^{-1} M B^{-1} with M = m0 B + m1 A, so F
    needs one solve with M and no inverse of G: where G is
    ill-conditioned (|z| ~ 1/y next to a singular kernel expectation)
    inverting it would lose cond(G) eps of F.  With ``derivative`` it
    returns (F, D), D the :class:`Derivative`
    H -> m0 B M^{-1} H M^{-1} B + m1 A M^{-1} H M^{-1} A, from
    F R_0 = B M^{-1}, R_0 F = M^{-1} B and likewise for t1.
    """
    c, z = _prepare(a, z, check_upper)
    (t0, m0), (t1, m1) = mu.atoms
    A, B = z - t0 * c.a, z - t1 * c.a
    M = m0 * B + m1 * A
    mb = B / M if M.shape[-1] == 1 else np.linalg.solve(M, B)
    f = A @ mb
    if not derivative:
        return f
    minv = inverse(M)
    return f, Derivative(((m0 * (B @ minv), mb), (m1 * (A @ minv), minv @ A)))


# ---------------------------------------------------------------------------
# boundary limits
# ---------------------------------------------------------------------------


def richardson(values):
    """First-order Richardson limit of f(y_k) on a halving ladder y_k = y_0 2^{-k}.

    ``values`` is a stack (K, ...) with values[k] ~ limit + c y_k + o(y_k);
    the linear term is eliminated exactly.  A residual tail of unknown
    power y^s survives as a geometric sequence in k, so when the
    extrapolant differences show a stable ratio the geometric sum is
    completed as well.  Returns
    (limit, diffs, err) with diffs the extrapolant difference norms and
    err a conservative estimate of the remaining error.
    """
    vals = np.asarray(values, dtype=complex)
    if len(vals) < 2:
        raise ValueError("need at least two ladder rungs")
    extr = 2.0 * vals[1:] - vals[:-1]
    diffs = np.abs(extr[1:] - extr[:-1]).max(axis=tuple(range(1, extr.ndim))).tolist()
    limit = extr[-1]
    if not diffs:
        return limit, [], 0.0
    err = diffs[-1]
    if len(diffs) >= 3 and min(diffs[-3:]) > 0:
        r1 = diffs[-1] / diffs[-2]
        r2 = diffs[-2] / diffs[-3]
        spread = abs(r1 - r2) / max(r1, r2)
        d1 = (extr[-1] - extr[-2]).reshape(-1)
        d2 = (extr[-2] - extr[-3]).reshape(-1)
        # the norm ratio cannot see sign alternation, so require the last
        # two difference directions to actually align before completing
        align = float(np.real(np.vdot(d2, d1))) / (
            np.linalg.norm(d1) * np.linalg.norm(d2)
        )
        if 0.02 < r1 < 0.9 and spread < 0.35 and align > 0.5:
            rho = r1
            correction = (extr[-1] - extr[-2]) * (rho / (1.0 - rho))
            limit = extr[-1] + correction
            scale = float(np.max(np.abs(correction)))
            err = max(scale * max(spread, 0.05), diffs[-1] * 0.05)
    return limit, diffs, err


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

    Returns (E, err): E = int P(t) dmu(t), where P(t) projects onto
    T ker(b - t a) for the optional invertible matrix T (identity when
    omitted), and err the error estimate of its continuous part.  Used to
    evaluate kernel expectations of single-variable pencils directly from
    the spectral model, independently of any boundary-limit estimate.
    ``profile`` is the pencil's :func:`kernel_profile` when the caller
    already has it.

    Each atom contributes its exact projection.  The continuous part
    vanishes unless the pencil is singular for every t (k_min > 0); then,
    with S = T*T and the Hermitian H(t) = T^{-*}(b - t a)T^{-1}, whose
    kernel is T ker(b - t a), T (b - t a + i eps S)^{-1} T* = (H + i eps)^{-1}
    and i eps (H + i eps)^{-1} tends to the projection onto ker H, so

        E_c = lim_{eps -> 0} i eps T G_c(b + i eps S) T*,

    with G_c the continuous transform of a (x) X.  It is evaluated on a
    halving eps-ladder as one stack and extrapolated by :func:`richardson`;
    an error estimate above ``KERNEL_LIMIT_TOL`` raises ConvergenceError.
    For atomic laws and k_min = 0, err is 0.0.
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
    err = 0.0
    if profile.k_min > 0 and mu.continuous:
        # the limit does not depend on the scale of T; at |T| = 1 the ladder
        # eps_k meets H(t) at the scale of the pencil
        Tn = T / np.linalg.norm(T, 2)
        scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
        eps = (_EPS_TOP * scale * 2.0 ** -np.arange(_EPS_RUNGS))[:, None, None]
        g = _continuous_cauchy(Coefficient(a), mu, b + 1j * eps * (Tn.conj().T @ Tn))
        stack = 1j * eps * (Tn @ g @ Tn.conj().T)
        # where ker H(t) is only nearly exact, a mode growing like 1/eps
        # overtakes the deep rungs; the limit comes from the ladder prefix
        # with the smallest error estimate, among prefixes with three
        # differences or more so that one small difference cannot win
        fits = [richardson(stack[:k]) for k in range(_EPS_RUNGS, 4, -1)]
        limit, _, err = min(fits, key=lambda fit: fit[2])
        diffs = fits[0][1]
        if err > KERNEL_LIMIT_TOL:
            raise ConvergenceError(
                f"kernel projection limit did not settle "
                f"(error estimate {err:.3e} > {KERNEL_LIMIT_TOL:g})",
                {"diffs": diffs, "error_estimate": err},
            )
        total += limit
    return herm_part(total), err
