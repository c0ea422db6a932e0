"""Monte Carlo oracle: Haar-conjugated matrix models of free pairs.

Independent of the transform pipeline: a pair (A1, A2) with prescribed
spectra and Haar-random relative position is asymptotically free, so
eigenvalue statistics of polynomials or pencils in (A1, A2) estimate
the corresponding spectral quantities with O(1/N) bias.  Spectra are
deterministic quantile grids, which removes marginal sampling noise.
One rule (:func:`_trial_path`) names each trial's path from the laws,
and :func:`_trial_eigs` alone takes it; reports carry the name:

- "commuting", a point mass on either side: N 1 x 1 blocks and no Haar
  draw (a pencil coefficient that is exactly zero counts as the point
  mass at 0);
- "two-subspace", both laws with at most two atoms: Halmos's
  two-subspace form, 2 x 2 blocks whose principal-angle cosines come
  from the beta = 2 Jacobi bidiagonal model, with no N x N or N x k
  draw;
- "dense", any other pair: a dense Haar draw and an N x N (pencil:
  nN x nN) eigensolve.  The draw is N x N, or an N x |S| frame when
  mu2 has atoms (see :func:`_realize_reduced`).  When both laws have
  atoms, c1 and c2 their heaviest and S1, S2 the grid entries off them,
  with s1 + s2 < N, the pair is the scalars (c1, c2) on the N - s1 - s2
  dimensions where S1-perp and S2-perp meet: the draw and the eigensolve
  work on S1 + S2 alone, and the 1 x 1 (pencil: n x n) block (c1, c2)
  is repeated N - s1 - s2 times.

The quantile grids of purely atomic laws take no bisection, and a
pencil is written block by block into one array.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import PreconditionError
from .measure import SpectralMeasure, point_mass, quantiles
from .ncpoly import NCPoly, eval_matrices, is_selfadjoint
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


def _heaviest_atom(mu):
    return max(mu.atoms, key=lambda atom: atom[1])[0]


def _realize_reduced(spec, rng):
    """Pair (D1, U D2 U*) with one Haar unitary: equal in joint law to
    :func:`realize_pair` conjugated by U1*, so every polynomial or pencil
    spectrum is distributed identically while saving one QR and keeping
    the first matrix diagonal.

    When mu2 has atoms, U D2 U* = c + U_S (D2_S - c) U_S* for its
    heaviest atom c, where S holds the entries of D2 other than c and
    U_S the columns of U on S.  Any |S| columns of a Haar unitary are
    distributed as its first |S|, so only those are drawn.

    When mu1 has atoms too and the two light ranges S1, S2 (the grid
    entries off each law's heaviest atom) fit, s1 + s2 < N, the pair is
    returned on S1 + S2 alone (see :func:`_light_ranges`): a grid of
    s1 + s2 entries, off which the pair is the scalars (c1, c2).
    """
    N = spec.N
    d1 = quantiles(spec.mu1, N)
    d2 = quantiles(spec.mu2, N)
    if not spec.mu2.atoms:
        u = haar_unitary(N, rng)
        return d1, herm_part((u * d2) @ u.conj().T)
    c2 = _heaviest_atom(spec.mu2)
    r2 = d2[d2 != c2] - c2
    if spec.mu1.atoms:
        c1 = _heaviest_atom(spec.mu1)
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
    w1 = haar_unitary(s1, rng, p) if p and varies1 else np.eye(s1, p)
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


def _point_mass_at(mu):
    """Location of a point-mass law, None for any other law."""
    return mu.atoms[0][0] if len(mu.atoms) == 1 and not mu.continuous else None


def _trial_path(spec):
    """The path every trial of ``spec`` takes (see the module docstring)."""
    laws = (spec.mu1, spec.mu2)
    if any(_point_mass_at(mu) is not None for mu in laws):
        return "commuting"
    if all(not mu.continuous and len(mu.atoms) <= 2 for mu in laws):
        return "two-subspace"
    return "dense"


def _trial_eigs(spec, rng, block_eigs, dense_eigs):
    """Sorted spectrum of one trial, on the path :func:`_trial_path` names.

    ``block_eigs(X1, X2)`` maps stacks of k x k blocks to the target's
    eigenvalues, shape (stack, rows * k); ``dense_eigs(d1, A2)`` gives
    those of the N x N target at (diag(d1), A2).  Both grids are the
    laws' :func:`quantiles`; a point-mass law c, whose grid is N copies
    of c, commutes with the other variable, so the spectrum is that of
    the N 1 x 1 blocks (d1_i, d2_i).  Two laws with at most two atoms take
    :func:`_halmos_eigs` at cosines from :func:`_two_subspace_cosines`;
    any other pair the dense draw of :func:`_realize_reduced`, whose grid
    falls short of N by the multiplicity of the block (c1, c2) of the
    heaviest atoms.
    """
    N = spec.N
    path = _trial_path(spec)
    if path == "dense":
        d1, A2 = _realize_reduced(spec, rng)
        eigs = dense_eigs(d1, A2)
        rest = N - d1.size
        if rest:  # off the light ranges the pair is the heaviest atoms
            x1, x2 = (np.full((1, 1, 1), _heaviest_atom(mu), dtype=complex)
                      for mu in (spec.mu1, spec.mu2))
            eigs = np.concatenate([eigs, np.repeat(block_eigs(x1, x2), rest, axis=0).reshape(-1)])
        return np.sort(eigs)
    d1, d2 = (quantiles(mu, N) for mu in (spec.mu1, spec.mu2))
    if path == "two-subspace":
        k1, k2 = (int(np.count_nonzero(d > d[0])) for d in (d1, d2))
        cosines = _two_subspace_cosines(N, k1, k2, rng)
        return np.sort(_halmos_eigs(d1, d2, cosines, block_eigs))
    x1, x2 = (d.astype(complex).reshape(N, 1, 1) for d in (d1, d2))
    return np.sort(block_eigs(x1, x2).reshape(-1))


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


def _halmos_eigs(d1, d2, c, block_eigs):
    """Unsorted spectrum of the pair at two-atom quantile grids d1, d2
    whose principal-angle cosines strictly between 0 and 1 are ``c``.

    Each grid is lo + (hi - lo) * (its upper-atom indicator), so the pair
    is (lo1 + (hi1 - lo1) P, lo2 + (hi2 - lo2) Q) with P the diagonal
    projection on D1's k1 upper-atom entries and Q a projection of rank
    k2 in generic position.  By Halmos's two-subspace theorem the pair
    splits exactly into the four intersections of ran/ker P with
    ran/ker Q, whose generic dimensions follow from (N, k1, k2), and
    into 2 x 2 blocks P = [[1, 0], [0, 0]], Q = [[c^2, cs], [cs, s^2]],
    one per cosine c.
    """
    N = d1.size
    (lo1, hi1), (lo2, hi2) = (d1[0], d1[-1]), (d2[0], d2[-1])
    k1, k2 = int(np.count_nonzero(d1 > lo1)), int(np.count_nonzero(d2 > lo2))
    # intersections (P, Q) = (1, 1), (1, 0), (0, 1), (0, 0) as 1 x 1 blocks
    x1 = np.array([hi1, hi1, lo1, lo1], dtype=complex).reshape(4, 1, 1)
    x2 = np.array([hi2, lo2, hi2, lo2], dtype=complex).reshape(4, 1, 1)
    dims = [max(0, k1 + k2 - N), max(0, k1 - k2), max(0, k2 - k1), max(0, N - k1 - k2)]
    parts = [np.repeat(block_eigs(x1, x2), dims, axis=0).reshape(-1)]
    if c.size:
        s = np.sqrt(np.maximum(1.0 - c * c, 0.0))
        x1 = np.broadcast_to(np.diag([hi1, lo1]).astype(complex), (c.size, 2, 2))
        x2 = np.empty((c.size, 2, 2), dtype=complex)
        x2[:, 0, 0] = lo2 + (hi2 - lo2) * c * c
        x2[:, 0, 1] = x2[:, 1, 0] = (hi2 - lo2) * c * s
        x2[:, 1, 1] = lo2 + (hi2 - lo2) * s * s
        parts.append(block_eigs(x1, x2).reshape(-1))
    return np.concatenate(parts)


def _pencil_laws(spec, model):
    """``spec`` with the law of each variable whose coefficient is exactly
    zero replaced by the point mass at 0."""
    if not np.any(model.a1):
        spec = replace(spec, mu1=point_mass(0.0))
    if not np.any(model.a2):
        spec = replace(spec, mu2=point_mass(0.0))
    return spec


def _pencil_eigs(spec, model, b, rng):
    """Eigenvalues of one pencil draw.

    With ``b`` given this is b (x) 1 - a1 (x) A1 - a2 (x) A2 (kernel
    mass lives at 0); with ``b = None`` it is the sum a1 (x) A1 +
    a2 (x) A2 itself, whose spectral axis carries the atoms directly.
    A coefficient that is exactly zero makes its variable's law the
    point mass at 0, so the pair commutes.
    """
    n = model.n
    sign = -1.0 if b is None else 1.0  # b=None: report +sum instead of b-sum
    b_mat = np.zeros((n, n), dtype=complex) if b is None else np.asarray(b, dtype=complex)
    spec = _pencil_laws(spec, model)

    def pencil_spectrum(x1, x2):
        # b (x) 1 - a1 (x) X1 - a2 (x) X2 for a stack of k x k blocks (or
        # one pair of k x k matrices), written block by block with
        # np.kron's per-entry arithmetic; eigvalsh reads the lower
        # triangle alone, so the blocks above the diagonal stay unwritten
        k = x1.shape[-1]
        eye = np.eye(k)
        big = np.empty(x1.shape[:-2] + (n * k, n * k), dtype=complex)
        term = np.empty(x1.shape, dtype=complex)
        for i in range(n):
            for j in range(i + 1):
                block = big[..., i * k:(i + 1) * k, j * k:(j + 1) * k]
                np.multiply(b_mat[i, j], eye, out=block)
                block -= np.multiply(model.a1[i, j], x1, out=term)
                block -= np.multiply(model.a2[i, j], x2, out=term)
        return sign * np.linalg.eigvalsh(big)

    return _trial_eigs(spec, rng, pencil_spectrum,
                       lambda d1, A2: pencil_spectrum(np.diag(d1).astype(complex), A2))


def _eval_poly_diag_first(poly, d1, A2):
    """p(D1, A2) with D1 diagonal.

    Multiplications by D1 are row/column scalings; the accumulator stays
    diagonal until the first occurrence of the second letter, so short
    words cost O(N^2) instead of a dense product.
    """
    N = A2.shape[0]
    out = np.zeros((N, N), dtype=complex)
    for word, coeff in poly.terms:
        diag_acc = np.ones(N, dtype=complex)
        acc = None  # dense part, None while still diagonal
        for letter in word:
            if letter == 1:
                if acc is None:
                    diag_acc = diag_acc * d1
                else:
                    acc = acc * d1[None, :]
            else:
                if acc is None:
                    acc = diag_acc[:, None] * A2
                else:
                    acc = acc @ A2
        if acc is None:
            out[np.diag_indices(N)] += coeff * diag_acc
        else:
            out += coeff * acc
    return out


def _poly_eigs(spec, poly, rng):
    # eigvalsh reads one triangle, so the blocks need no symmetrization
    return _trial_eigs(
        spec, rng, lambda x1, x2: np.linalg.eigvalsh(eval_matrices(poly, x1, x2)),
        lambda d1, A2: np.linalg.eigvalsh(herm_part(_eval_poly_diag_first(poly, d1, A2))))


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
    seeds: per-trial generators are spawned from the seed and results
    reduced in trial order.
    """
    if (poly is None) == (model is None):
        raise PreconditionError("pass either poly or model")
    if poly is not None and not is_selfadjoint(poly):
        raise PreconditionError("oracle polynomial must be selfadjoint")
    if epsilon is None:
        epsilon = max(4.0 / spec.N, 1e-6)
    if poly is not None:
        eig_sets = [_poly_eigs(spec, poly, rng) for rng in spec.trial_rngs()]
        path = _trial_path(spec)
    else:
        eig_sets = [_pencil_eigs(spec, model, b, rng) for rng in spec.trial_rngs()]
        path = _trial_path(_pencil_laws(spec, model))
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
        path=path,
    )
