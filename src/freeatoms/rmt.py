"""Monte Carlo oracle: Haar-conjugated matrix models of free pairs.

Independent of the transform pipeline: a pair (A1, A2) with prescribed
spectra and Haar-random relative position is asymptotically free, so
eigenvalue statistics of polynomials or pencils in (A1, A2) estimate
the corresponding spectral quantities with O(1/N) bias.  Spectra are
deterministic quantile grids, which removes marginal sampling noise.

The oracle is a function of its two sorted grids d1, d2: a report
computes them once (a pencil coefficient that is exactly zero makes its
grid N zeros) and every trial reads its path from them with one rule,
:func:`_trial_path`; reports carry the name:

- "commuting", either grid constant: the pair commutes, N 1 x 1 blocks
  (d1_i, d2_i) and no Haar draw;
- "two-subspace", each grid with at most two values: Halmos's
  two-subspace form, 1 x 1 blocks on the four intersections and 2 x 2
  blocks whose principal-angle cosines come from the beta = 2 Jacobi
  bidiagonal model, with no N x N or N x k draw;
- "dense", any other pair: a dense Haar draw and an m x m (pencil:
  nm x nm) eigensolve.  With c1, c2 the most frequent grid entries and
  S1, S2 the entries off them, the draw is N x N when d2 repeats no
  entry and an N x s2 frame otherwise; when s1 + s2 < N the pair is the
  scalars (c1, c2) on the N - s1 - s2 dimensions where S1-perp and
  S2-perp meet, so the draw works on S1 + S2 alone, m = s1 + s2, and
  the 1 x 1 block (c1, c2) is repeated N - m times (see
  :func:`_realize_reduced`).

Every path gives its trial as stacks of k x k blocks in which X1 is
diagonal, each repeated some number of times, and one spectrum function
per target reads them all: :func:`_poly_eigs` through
:func:`_eval_poly_diag_first`, :func:`_pencil_eigs` by writing the
pencil block by block into one array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .measure import SpectralMeasure, quantiles
from .ncpoly import NCPoly, is_selfadjoint
from .opval import herm_part
from .subord import FreeSumModel

DEFAULT_BINS = 201  # histogram bins of an oracle report


@dataclass(frozen=True)
class EnsembleSpec:
    N: int
    trials: int
    seed: int
    mu1: SpectralMeasure
    mu2: SpectralMeasure

    def __post_init__(self):
        if self.N < 2:
            raise PreconditionError("matrix size N must be >= 2")
        if self.trials < 1:
            raise PreconditionError("trials must be >= 1")

    def trial_rngs(self):
        seq = np.random.SeedSequence(self.seed)
        return [np.random.default_rng(s) for s in seq.spawn(self.trials)]


def haar_unitary(N, rng, columns=None):
    """The first ``columns`` columns (all N by default) of a Haar-distributed
    N x N unitary: the Q factor of an N x columns complex Ginibre matrix,
    each column's phase fixed by the diagonal of R (Mezzadri, Notices AMS
    54, 2007).  The first k columns of Q depend on the first k of the
    Ginibre matrix alone, so a frame costs O(N columns^2), not O(N^3)."""
    k = N if columns is None else columns
    g = (rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def realize_pair(spec: EnsembleSpec, rng=None):
    """One draw (A1, A2) = (U1 D1 U1*, U2 D2 U2*) with quantile spectra."""
    rng = spec.trial_rngs()[0] if rng is None else rng
    out = []
    for mu in (spec.mu1, spec.mu2):
        d = quantiles(mu, spec.N)
        u = haar_unitary(spec.N, rng)
        a = (u * d) @ u.conj().T
        out.append(herm_part(a))
    return out[0], out[1]


def _most_frequent(d):
    """The most frequent entry of a sorted grid (the lowest on a tie),
    read from the lengths of its runs."""
    starts = np.append(0, np.flatnonzero(d[1:] != d[:-1]) + 1)
    return d[starts[np.argmax(np.diff(starts, append=d.size))]]


def _realize_reduced(spec, d1, d2, rng):
    """Pair (D1, U D2 U*) at the grids d1, d2 with one Haar unitary: equal
    in joint law to :func:`realize_pair` conjugated by U1*, so every
    polynomial or pencil spectrum is distributed identically while saving
    one QR and keeping the first matrix diagonal.

    When d2 repeats an entry, U D2 U* = c2 + U_S (D2_S - c2) U_S* for its
    most frequent entry c2, where S holds the entries of D2 other than c2
    and U_S the columns of U on S.  Any |S| columns of a Haar unitary are
    distributed as its first |S|, so only those are drawn.

    When the two light ranges S1, S2 (the grid entries off each grid's
    most frequent entry) fit, s1 + s2 < N, the pair is returned on
    S1 + S2 alone (see :func:`_light_ranges`): a grid of s1 + s2 entries,
    off which the pair is the scalars (c1, c2).
    """
    N = spec.N
    c2 = _most_frequent(d2)
    r2 = d2[d2 != c2] - c2
    if r2.size == N - 1:  # d2 repeats no entry
        u = haar_unitary(N, rng)
        return d1, herm_part((u * d2) @ u.conj().T)
    c1 = _most_frequent(d1)
    r1 = d1[d1 != c1]
    if r1.size + r2.size < N:
        return _light_ranges(N, r1, c1, r2, c2, rng)
    u = haar_unitary(N, rng, r2.size)
    return d1, herm_part(c2 * np.eye(N) + (u * r2) @ u.conj().T)


def _light_ranges(N, r1, c1, r2, c2, rng):
    """The pair (D1, c2 + U_S R2 U_S*) of :func:`_realize_reduced` on
    S1 + ran U_S, of dimension m = s1 + s2 < N, in the basis [E_S1, Z]
    with Z an orthonormal basis of ran U_S projected on S1-perp; r1 holds
    D1's entries on S1 and r2 those of R2.  Both operators leave that
    space invariant, and off it they are c1 and c2.

    By the CS decomposition U_S = [W1 C; Z S] Y* with C the p = min(s1,
    s2) principal-angle cosines against S1 (padded by zero columns), S
    = sqrt(1 - C*C), W1 an s1 x p frame and Y in U(s2).  For Haar U_S the
    cosines follow :func:`_two_subspace_cosines` and W1 and Y are Haar
    and independent of them (Edelman & Sutton, Found. Comput. Math. 8,
    2008), so the pair is (diag(r1, c1 1_s2), c2 + T Y* R2 Y T*) with T
    = [W1 C; S].  W1 is drawn only where r1 varies and Y only where r2
    varies: a constant block absorbs any fixed isometry.
    """
    s1, s2 = r1.size, r2.size
    p = min(s1, s2)
    cos = _two_subspace_cosines(N, s1, s2, rng)
    varies1, varies2 = (np.any(r[1:] != r[:-1]) for r in (r1, r2))
    w1 = haar_unitary(s1, rng, p) if varies1 else np.eye(s1, p)
    y = haar_unitary(s2, rng) if varies2 else np.eye(s2)
    sin = np.ones(s2)
    sin[:p] = np.sqrt(np.maximum(1.0 - cos * cos, 0.0))
    # T Y*, whose columns carry R2
    t = np.concatenate([(w1 * cos) @ y[:p], sin[:, None] * y])
    a1 = np.concatenate([r1, np.full(s2, c1)])
    return a1, herm_part(c2 * np.eye(s1 + s2) + (t * r2) @ t.conj().T)


def empirical_kernel_mass(matrix, lam, epsilon):
    """Fraction of eigenvalues of a Hermitian matrix within [lam-eps, lam+eps]."""
    if epsilon <= 0:
        raise PreconditionError("epsilon must be positive")
    eigs = np.linalg.eigvalsh(np.asarray(matrix))
    return kernel_mass_from_eigs(eigs, lam, epsilon)


def kernel_mass_from_eigs(eigs, lam, epsilon):
    eigs = np.asarray(eigs, dtype=float)
    return float(np.count_nonzero(np.abs(eigs - lam) <= epsilon)) / eigs.size


def _trial_path(d1, d2):
    """The path every trial at the sorted grids d1, d2 takes (see the
    module docstring)."""
    if d1[0] == d1[-1] or d2[0] == d2[-1]:
        return "commuting"
    if all(np.count_nonzero(d[1:] != d[:-1]) <= 1 for d in (d1, d2)):
        return "two-subspace"
    return "dense"


def _trial_blocks(spec, d1, d2, rng):
    """One trial at the grids d1, d2, on the path :func:`_trial_path`
    names, as a list of stacks ``(copies, x1, x2)``: block i of a stack is
    the pair (diag(x1[i]), x2[i]) of k x k matrices, x1 of shape (B, k)
    and x2 of shape (B, k, k), and it stands for ``copies`` (an int, or
    one count per block) orthogonal copies.  The copies add up to N.

    Commuting grids give the N 1 x 1 blocks (d1_i, d2_i); two-valued ones
    the blocks of :func:`_halmos_blocks`; any other pair the m x m draw
    of :func:`_realize_reduced` and, when m < N, the 1 x 1 block
    (c1, c2) of the grids' most frequent entries N - m times.
    """
    path = _trial_path(d1, d2)
    if path == "commuting":
        return [(1, d1[:, None], d2[:, None, None])]
    if path == "two-subspace":
        return _halmos_blocks(d1, d2, rng)
    x1, x2 = _realize_reduced(spec, d1, d2, rng)
    blocks = [(1, x1[None], x2[None])]
    if x1.size < spec.N:
        blocks.append((spec.N - x1.size, np.full((1, 1), _most_frequent(d1)),
                       np.full((1, 1, 1), _most_frequent(d2))))
    return blocks


def _trial_eigs(spec, d1, d2, rng, spectrum):
    """Sorted spectrum of one trial: ``spectrum(x1, x2)`` maps a stack of
    :func:`_trial_blocks` to its eigenvalues, shape (B, rows * k), and
    each block's are repeated its ``copies`` times."""
    return np.sort(np.concatenate([
        np.repeat(spectrum(x1, x2), copies, axis=0).reshape(-1)
        for copies, x1, x2 in _trial_blocks(spec, d1, d2, rng)]))


def _two_subspace_cosines(N, k1, k2, rng):
    """One draw of the principal-angle cosines strictly between 0 and 1
    of a fixed coordinate k1-subspace and a Haar k2-subspace of C^N:
    min(k1, k2, N - k1, N - k2) of them, unordered.

    Complementing both subspaces keeps every such cosine, so take
    k1 + k2 <= N, and p <= q the two dimensions.  The squared cosines
    then form the beta = 2 Jacobi ensemble of weight
    x^a (1 - x)^b, a = q - p, b = N - p - q: the squared singular
    values of a p x p real bidiagonal matrix with independent entries,
    c_k^2 ~ Beta(a + k, b + k) and c'_k^2 ~ Beta(k, a + b + 1 + k)
    (Edelman & Sutton, Found. Comput. Math. 8, 2008).  Each Beta draw
    is g / (g + h) of two Gamma draws, so that its cosine and its sine
    both carry relative roundoff, and the dense SVD gives every cosine
    to absolute roundoff: a small c stays accurate in c, not only in
    c^2.
    """
    if k1 + k2 > N:
        k1, k2 = N - k1, N - k2
    p, q = sorted((k1, k2))
    if p == 0:
        return np.empty(0)
    a, b = q - p, N - p - q
    k = np.arange(1.0, p + 1)
    g = rng.standard_gamma(np.concatenate([a + k, k[:-1]]))
    h = rng.standard_gamma(np.concatenate([b + k, a + b + 1 + k[:-1]]))
    cos, sin = np.sqrt(g / (g + h)), np.sqrt(h / (g + h))
    # diagonal c_k s'_k (s'_p = 1), superdiagonal s_{k+1} c'_k: the model's
    # B11 up to the order of its rows and columns and their signs
    bidiag = np.diag(cos[:p] * np.append(sin[p:], 1.0))
    np.fill_diagonal(bidiag[:, 1:], sin[1:p] * cos[p:])
    return np.linalg.svd(bidiag, compute_uv=False)


def _halmos_blocks(d1, d2, rng):
    """The pair at grids d1, d2 of at most two values each, as blocks of
    :func:`_trial_blocks`, at principal-angle cosines drawn by
    :func:`_two_subspace_cosines`.

    Each grid is lo + (hi - lo) * (its upper-value indicator), so the pair
    is (lo1 + (hi1 - lo1) P, lo2 + (hi2 - lo2) Q) with P the diagonal
    projection on D1's k1 upper entries and Q a projection of rank k2 in
    generic position.  By Halmos's two-subspace theorem the pair splits
    exactly into the four intersections of ran/ker P with ran/ker Q,
    whose generic dimensions follow from (N, k1, k2), and into 2 x 2
    blocks P = [[1, 0], [0, 0]], Q = [[c^2, cs], [cs, s^2]], one per
    cosine c strictly between 0 and 1.
    """
    N = d1.size
    (lo1, hi1), (lo2, hi2) = (d1[0], d1[-1]), (d2[0], d2[-1])
    k1, k2 = (int(np.count_nonzero(d > d[0])) for d in (d1, d2))
    c = _two_subspace_cosines(N, k1, k2, rng)
    # intersections (P, Q) = (1, 1), (1, 0), (0, 1), (0, 0) as 1 x 1 blocks
    dims = [max(0, k1 + k2 - N), max(0, k1 - k2), max(0, k2 - k1), max(0, N - k1 - k2)]
    s = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    x2 = np.empty((c.size, 2, 2))
    x2[:, 0, 0] = lo2 + (hi2 - lo2) * c * c
    x2[:, 0, 1] = x2[:, 1, 0] = (hi2 - lo2) * c * s
    x2[:, 1, 1] = lo2 + (hi2 - lo2) * s * s
    return [(dims, np.array([[hi1], [hi1], [lo1], [lo1]]),
             np.array([hi2, lo2, hi2, lo2]).reshape(4, 1, 1)),
            (1, np.broadcast_to([hi1, lo1], (c.size, 2)), x2)]


def _pencil_eigs(model, b, x1, x2):
    """Eigenvalues of the pencil at a stack of blocks (diag(x1), x2).

    With ``b`` given this is b (x) 1 - a1 (x) X1 - a2 (x) X2 (kernel
    mass lives at 0); with ``b = None`` it is the sum a1 (x) X1 +
    a2 (x) X2 itself, whose spectral axis carries the atoms directly.
    The pencil is written block by block with np.kron's per-entry
    arithmetic, a1[i, j] x1 onto each block's diagonal; eigvalsh reads
    the lower triangle alone, so the blocks above the diagonal stay
    unwritten.
    """
    n = model.n
    sign = -1.0 if b is None else 1.0  # b=None: report +sum instead of b-sum
    b_mat = np.zeros((n, n), dtype=complex) if b is None else np.asarray(b, dtype=complex)
    k = x1.shape[-1]
    eye = np.eye(k)
    diag = np.arange(k)
    big = np.empty(x2.shape[:-2] + (n * k, n * k), dtype=complex)
    term = np.empty(x2.shape, dtype=complex)
    for i in range(n):
        for j in range(i + 1):
            block = big[..., i * k:(i + 1) * k, j * k:(j + 1) * k]
            np.multiply(b_mat[i, j], eye, out=block)
            block[..., diag, diag] -= model.a1[i, j] * x1
            block -= np.multiply(model.a2[i, j], x2, out=term)
    return sign * np.linalg.eigvalsh(big)


def _eval_poly_diag_first(poly, d1, A2):
    """p(D1, A2) with D1 = diag(d1), over stacks: d1 of shape (..., k)
    and A2 of shape (..., k, k).

    Multiplications by D1 are row/column scalings; the accumulator stays
    diagonal until the first occurrence of the second letter, so short
    words cost O(k^2) instead of a dense product.
    """
    diag = np.arange(d1.shape[-1])
    out = np.zeros(A2.shape, dtype=complex)
    for word, coeff in poly.terms:
        diag_acc = np.ones(d1.shape, dtype=complex)
        acc = None  # dense part, None while still diagonal
        for letter in word:
            if letter == 1:
                if acc is None:
                    diag_acc = diag_acc * d1
                else:
                    acc = acc * d1[..., None, :]
            else:
                if acc is None:
                    acc = diag_acc[..., :, None] * A2
                else:
                    acc = acc @ A2
        if acc is None:
            out[..., diag, diag] += coeff * diag_acc
        else:
            out += coeff * acc
    return out


def _poly_eigs(poly, x1, x2):
    """Eigenvalues of the polynomial at a stack of blocks (diag(x1), x2)."""
    return np.linalg.eigvalsh(herm_part(_eval_poly_diag_first(poly, x1, x2)))


@dataclass
class OracleReport:
    """Deterministic (seeded) spectral report: histogram, spikes, masses."""

    bin_edges: np.ndarray
    counts_mean: np.ndarray  # averaged over trials
    counts_std: np.ndarray
    spikes: list  # bin centers whose count exceeds 3x both neighbours
    masses: dict  # location -> (estimate, standard_error)
    N: int
    trials: int
    seed: int
    epsilon: float
    path: str  # "commuting", "two-subspace" or "dense": see _trial_path

    def to_json_dict(self):
        return {
            "bin_edges": [float(x) for x in self.bin_edges],
            "counts_mean": [float(x) for x in self.counts_mean],
            "counts_std": [float(x) for x in self.counts_std],
            "spikes": [float(x) for x in self.spikes],
            "masses": {str(k): [float(v[0]), float(v[1])] for k, v in self.masses.items()},
            "N": self.N,
            "trials": self.trials,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "path": self.path,
        }


def _find_spikes(counts, edges):
    spikes = []
    for i, c in enumerate(counts):
        left = counts[i - 1] if i > 0 else 0.0
        right = counts[i + 1] if i + 1 < len(counts) else 0.0
        if c >= 5 and c > 3.0 * max(left, right, 1.0):
            spikes.append(0.5 * (edges[i] + edges[i + 1]))
    return spikes


def oracle_report(spec: EnsembleSpec, poly: NCPoly | None = None, lam: float = 0.0,
                  model: FreeSumModel | None = None, b=None, locations=None,
                  bins: int = DEFAULT_BINS, epsilon: float | None = None) -> OracleReport:
    """Monte Carlo spectral report for a polynomial or a pencil target.

    Exactly one of ``poly`` or ``model`` must be given.  For a model the
    optional ``b`` selects the kernel test of b (x) 1 - sum (masses at
    0); without it the sum's own spectrum is reported and ``locations``
    are read on that axis.  The report is bit-identical for identical
    seeds at a fixed BLAS thread count: per-trial generators are spawned
    from the seed and results reduced in trial order, but the dense
    path's eigensolve, and so the bin edges, can move in the last bits
    between thread counts.
    """
    if (poly is None) == (model is None):
        raise PreconditionError("pass either poly or model")
    if poly is not None and not is_selfadjoint(poly):
        raise PreconditionError("oracle polynomial must be selfadjoint")
    if epsilon is None:
        epsilon = max(4.0 / spec.N, 1e-6)
    if poly is not None:
        coefficients = (1.0, 1.0)
        spectrum = lambda x1, x2: _poly_eigs(poly, x1, x2)
    else:
        coefficients = (model.a1, model.a2)
        spectrum = lambda x1, x2: _pencil_eigs(model, b, x1, x2)
    # a variable whose coefficient is exactly zero is the point mass at 0
    d1, d2 = (quantiles(mu, spec.N) if np.any(a) else np.zeros(spec.N)
              for mu, a in zip((spec.mu1, spec.mu2), coefficients))
    eig_sets = [_trial_eigs(spec, d1, d2, rng, spectrum) for rng in spec.trial_rngs()]
    lo = min(float(e.min()) for e in eig_sets)
    hi = max(float(e.max()) for e in eig_sets)
    pad = 1e-9 * max(1.0, abs(lo), abs(hi))
    edges = np.linspace(lo - pad, hi + pad, bins + 1)
    all_counts = np.stack([np.histogram(e, bins=edges)[0] for e in eig_sets]).astype(float)
    counts_mean = all_counts.mean(axis=0)
    counts_std = all_counts.std(axis=0, ddof=1) if spec.trials > 1 else np.zeros_like(counts_mean)

    if locations is None:
        locations = [lam] if poly is not None else [0.0]
    masses = {}
    for loc in locations:
        per_trial = np.array([kernel_mass_from_eigs(e, loc, epsilon) for e in eig_sets])
        est = float(per_trial.mean())
        se = float(per_trial.std(ddof=1) / np.sqrt(spec.trials)) if spec.trials > 1 else 0.0
        masses[float(loc)] = (est, se)

    return OracleReport(
        bin_edges=edges,
        counts_mean=counts_mean,
        counts_std=counts_std,
        spikes=_find_spikes(counts_mean, edges),
        masses=masses,
        N=spec.N,
        trials=spec.trials,
        seed=spec.seed,
        epsilon=float(epsilon),
        path=_trial_path(d1, d2),
    )
