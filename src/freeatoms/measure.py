"""Compactly supported probability measures on the real line.

A :class:`SpectralMeasure` is a finite list of atoms plus an optional
absolutely continuous part built from closed-form density families
(semicircle, arcsine, uniform) or tabulated densities.  The module
evaluates the scalar Cauchy transform G(z) = int dmu(t)/(z - t) in closed
form for every family, its reciprocal F = 1/G, and deterministic
quantiles used by the random matrix oracle.  Adaptive quadrature is kept
for integrands without a closed form.

Measures are validated at construction and rejected (never silently
renormalized) when the data is inconsistent.  Instances are immutable
and all operations are pure, so they are safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, HalfPlaneError, MeasureError, SchemaError

# Tolerance for construction-time consistency checks (mass budgets,
# piece normalization), distinct from quadrature refinement targets.
VALIDATION_TOL = 1e-8

# Target for adaptive Gauss-Legendre refinement: panels are subdivided
# until the coarse/fine estimates differ by less than this.
QUAD_TOL = 1e-12

# Table transforms switch to the moment series beyond this many
# half-widths from the table's midpoint, where the segment logarithms
# cancel; _TABLE_MOMENTS terms then reach (1/8)^20 < 1e-18.
_TABLE_FAR = 8.0
_TABLE_MOMENTS = 20

_GL_ORDER = 32


@functools.cache
def _gauss_legendre01():
    """Nodes and weights of the _GL_ORDER-point Gauss-Legendre rule mapped to [0, 1].

    Built on first use, so that importing the library imports no
    numpy.polynomial; read-only, since every caller shares them.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_GL_ORDER)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# ---------------------------------------------------------------------------
# continuous density pieces
# ---------------------------------------------------------------------------


def _require_finite(piece, *names):
    """Reject a non-finite parameter of a density piece by its field name."""
    for name in names:
        value = getattr(piece, name)
        if not math.isfinite(value):
            raise MeasureError(f"{piece.family} {name} must be finite, got {value}")


@dataclass(frozen=True)
class SemicirclePiece:
    """Semicircle density of given center and radius, unit mass before weighting."""

    center: float
    radius: float
    weight: float

    family = "semicircle"

    def __post_init__(self):
        _require_finite(self, "center", "radius")
        if not self.radius > 0:
            raise MeasureError(f"semicircle radius must be positive, got {self.radius}")

    @property
    def interval(self):
        return (self.center - self.radius, self.center + self.radius)

    def unit_density(self, x):
        x = np.asarray(x, dtype=float)
        d = self.radius**2 - (x - self.center) ** 2
        return np.where(d > 0, 2.0 * np.sqrt(np.maximum(d, 0.0)) / (np.pi * self.radius**2), 0.0)

    def unit_cdf(self, x):
        c, r = self.center, self.radius
        u = np.clip((np.asarray(x, dtype=float) - c) / r, -1.0, 1.0)
        # u * u, not u**2: a numpy scalar squares through libm pow, which
        # may round differently from the array path; cdf must give the same
        # bits for a scalar and an array
        return 0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / np.pi

    def unit_cauchy(self, w):
        return cauchy_semicircle(self.center, self.radius, w)

    def unit_cauchy_derivative(self, w):
        # G = 2 / (w + s) with s = sqrt(w^2 - r^2) has G' = -G / s
        w = np.asarray(w, dtype=complex) - self.center
        s = np.sqrt(w - self.radius) * np.sqrt(w + self.radius)
        return -2.0 / ((w + s) * s)

    # parameterization s in [0,1] with int_0^1 f(t(s)) w(s) ds = int f dmu_unit
    def param_to_t(self, s):
        return self.center - self.radius * np.cos(np.pi * s)

    def param_weight(self, s):
        return 2.0 * np.sin(np.pi * s) ** 2

    def to_json_dict(self):
        return {"family": "semicircle", "center": self.center, "radius": self.radius,
                "weight": self.weight}


@dataclass(frozen=True)
class ArcsinePiece:
    """Arcsine density 1/(pi sqrt((x-a)(b-x))) on (a, b)."""

    a: float
    b: float
    weight: float

    family = "arcsine"

    def __post_init__(self):
        _require_finite(self, "a", "b")
        if not self.a < self.b:
            raise MeasureError(f"arcsine interval must satisfy a < b, got ({self.a}, {self.b})")

    @property
    def interval(self):
        return (self.a, self.b)

    def unit_density(self, x):
        x = np.asarray(x, dtype=float)
        d = (x - self.a) * (self.b - x)
        with np.errstate(divide="ignore"):
            out = np.where(d > 0, 1.0 / (np.pi * np.sqrt(np.maximum(d, 1e-300))), 0.0)
        return out

    def unit_cdf(self, x):
        u = np.clip((np.asarray(x, dtype=float) - self.a) / (self.b - self.a), 0.0, 1.0)
        return (2.0 / np.pi) * np.arcsin(np.sqrt(u))

    def unit_cauchy(self, w):
        return cauchy_arcsine(self.a, self.b, w)

    def unit_cauchy_derivative(self, w):
        # G = 1 / s with s^2 = (w - a)(w - b) has G' = -(w - (a + b) / 2) G^3
        g = cauchy_arcsine(self.a, self.b, w)
        return -(np.asarray(w, dtype=complex) - 0.5 * (self.a + self.b)) * g * g * g

    def param_to_t(self, s):
        mid = 0.5 * (self.a + self.b)
        half = 0.5 * (self.b - self.a)
        return mid - half * np.cos(np.pi * s)

    def param_weight(self, s):
        return np.ones_like(np.asarray(s, dtype=float))

    def to_json_dict(self):
        return {"family": "arcsine", "a": self.a, "b": self.b, "weight": self.weight}


@dataclass(frozen=True)
class UniformPiece:
    """Uniform density on (a, b)."""

    a: float
    b: float
    weight: float

    family = "uniform"

    def __post_init__(self):
        _require_finite(self, "a", "b")
        if not self.a < self.b:
            raise MeasureError(f"uniform interval must satisfy a < b, got ({self.a}, {self.b})")

    @property
    def interval(self):
        return (self.a, self.b)

    def unit_density(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def unit_cdf(self, x):
        return np.clip((np.asarray(x, dtype=float) - self.a) / (self.b - self.a), 0.0, 1.0)

    def unit_cauchy(self, w):
        return cauchy_uniform(self.a, self.b, w)

    def unit_cauchy_derivative(self, w):
        w = np.asarray(w, dtype=complex)
        return -1.0 / ((w - self.a) * (w - self.b))

    def param_to_t(self, s):
        return self.a + (self.b - self.a) * np.asarray(s, dtype=float)

    def param_weight(self, s):
        return np.ones_like(np.asarray(s, dtype=float))

    def to_json_dict(self):
        return {"family": "uniform", "a": self.a, "b": self.b, "weight": self.weight}


@dataclass(frozen=True)
class TablePiece:
    """Piecewise-linear tabulated density.

    ``values`` must be nonnegative and trapezoid-integrate to 1 over
    ``nodes`` (unit normalization); the piece is rejected otherwise.
    """

    nodes: tuple
    values: tuple
    weight: float

    family = "table"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2 or nodes.shape != values.shape:
            raise MeasureError("table piece needs matching 1-d nodes/values with >= 2 entries")
        if not np.all(np.isfinite(nodes)):
            raise MeasureError("table nodes must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise MeasureError("table nodes must be strictly increasing")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise MeasureError("table density values must be finite and >= 0")
        total = np.trapezoid(values, nodes)
        if abs(total - 1.0) > 1e-7:
            raise MeasureError(
                f"table density must be unit-normalized (trapezoid mass {total:.3e}); "
                "scale the values or adjust the weight instead"
            )
        object.__setattr__(self, "nodes", tuple(nodes.tolist()))
        object.__setattr__(self, "values", tuple(values.tolist()))
        # cumulative trapezoid mass at each node, built once for unit_cdf;
        # a plain attribute, so equality, hashing and JSON ignore it
        object.__setattr__(self, "_cum", np.concatenate(
            [[0.0], np.cumsum(np.diff(nodes) * 0.5 * (values[1:] + values[:-1]))]))

    @property
    def interval(self):
        return (self.nodes[0], self.nodes[-1])

    def unit_density(self, x):
        return np.interp(np.asarray(x, dtype=float), self.nodes, self.values, left=0.0, right=0.0)

    def unit_cdf(self, x):
        nodes = np.asarray(self.nodes)
        values = np.asarray(self.values)
        cum = self._cum
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
        x0 = nodes[idx]
        dx = np.clip(x - x0, 0.0, nodes[idx + 1] - x0)
        v0 = values[idx]
        slope = (values[idx + 1] - v0) / (nodes[idx + 1] - x0)
        seg = v0 * dx + 0.5 * slope * (dx * dx)  # not dx**2, see SemicirclePiece.unit_cdf
        out = cum[idx] + np.where(x < nodes[0], 0.0, seg)
        return np.clip(np.where(x >= nodes[-1], cum[-1], out) / cum[-1], 0.0, 1.0)

    def unit_cauchy(self, w):
        return cauchy_table(self.nodes, self.values, w)

    def unit_cauchy_derivative(self, w):
        return cauchy_table(self.nodes, self.values, w, derivative=True)

    def param_to_t(self, s):
        lo, hi = self.interval
        return lo + (hi - lo) * np.asarray(s, dtype=float)

    def param_weight(self, s):
        lo, hi = self.interval
        return self.unit_density(self.param_to_t(s)) * (hi - lo)

    def to_json_dict(self):
        return {"family": "table", "nodes": list(self.nodes), "values": list(self.values),
                "weight": self.weight}


def piece_from_json_dict(d):
    """Build a density piece from its JSON dictionary form."""
    try:
        family = d["family"]
        weight = float(d["weight"])
        if family == "semicircle":
            return SemicirclePiece(float(d["center"]), float(d["radius"]), weight)
        if family == "arcsine":
            return ArcsinePiece(float(d["a"]), float(d["b"]), weight)
        if family == "uniform":
            return UniformPiece(float(d["a"]), float(d["b"]), weight)
        if family == "table":
            return TablePiece(tuple(d["nodes"]), tuple(d["values"]), weight)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad continuous piece {d!r}: {exc}") from exc
    raise SchemaError(f"unknown density family {family!r}")


# ---------------------------------------------------------------------------
# adaptive quadrature against one unit-mass piece
# ---------------------------------------------------------------------------


def integrate_piece(f, piece, rtol=QUAD_TOL, max_depth=30):
    """Integrate f against the unit-mass density of ``piece``.

    ``f`` maps an array of points t (shape (K,)) to an array whose first
    axis has length K; remaining axes pass through (matrix-valued
    integrands are supported).  Panels in the parameterization domain
    [0, 1] are bisected until coarse and fine Gauss-Legendre estimates
    agree.  The tolerance is absolute per panel: ``rtol`` times the
    running total (at least 1).  Raises ConvergenceError when a panel
    still misses it at ``max_depth``.
    """

    nodes, weights = _gauss_legendre01()

    def panel_estimate(lo, hi):
        s = lo + (hi - lo) * nodes
        t = piece.param_to_t(s)
        w = piece.param_weight(s) * (hi - lo) * weights
        vals = np.asarray(f(np.asarray(t, dtype=float)))
        if not np.all(np.isfinite(vals)):
            raise MeasureError("integrand returned a non-finite value (ill-formed density?)")
        return np.tensordot(w, vals, axes=(0, 0))

    total_scale = 1.0
    result = None
    stack = [(0.0, 1.0, panel_estimate(0.0, 1.0), 0)]
    while stack:
        lo, hi, coarse, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = panel_estimate(lo, mid)
        right = panel_estimate(mid, hi)
        fine = left + right
        err = np.max(np.abs(fine - coarse))
        if err <= rtol * total_scale or depth >= max_depth:
            if depth >= max_depth and err > 1e6 * rtol:
                raise ConvergenceError(
                    f"quadrature failed to converge (panel error {err:.3e} at depth {depth})",
                    {"panel_error": float(err), "depth": depth},
                )
            result = fine if result is None else result + fine
            total_scale = max(total_scale, float(np.max(np.abs(result))))
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return result


# ---------------------------------------------------------------------------
# the measure itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralMeasure:
    """Compactly supported probability measure: atoms + continuous pieces.

    Total mass must be exactly 1: atom masses are strictly positive and
    the piece weights account for the rest.  ``support`` is explicit and
    must contain all atoms and piece intervals.
    """

    atoms: tuple = ()
    continuous: tuple = ()
    support: tuple = None

    def __post_init__(self):
        atoms = tuple((float(x), float(m)) for x, m in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "continuous", tuple(self.continuous))
        if self.support is None:
            raise MeasureError("support bounds are required")
        lo, hi = float(self.support[0]), float(self.support[1])
        object.__setattr__(self, "support", (lo, hi))
        self._validate()

    def _validate(self):
        lo, hi = self.support
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise MeasureError(f"bad support bounds {self.support}")
        atom_mass = 0.0
        locs = [x for x, _ in self.atoms]
        if len(set(locs)) != len(locs):
            raise MeasureError("atom locations must be pairwise distinct")
        for x, m in self.atoms:
            if not (m > 0 and math.isfinite(m)):
                raise MeasureError(f"atom mass must be strictly positive, got {m} at {x}")
            if not (lo - VALIDATION_TOL <= x <= hi + VALIDATION_TOL):
                raise MeasureError(f"atom at {x} outside support {self.support}")
            atom_mass += m
        if atom_mass > 1.0 + VALIDATION_TOL:
            raise MeasureError(f"atom masses sum to {atom_mass} > 1")
        cont_weight = 0.0
        intervals = []
        for piece in self.continuous:
            if not (piece.weight > 0 and math.isfinite(piece.weight)):
                raise MeasureError(f"piece weight must be strictly positive, got {piece.weight}")
            plo, phi = piece.interval
            if plo < lo - VALIDATION_TOL or phi > hi + VALIDATION_TOL:
                raise MeasureError(f"piece interval {piece.interval} outside support {self.support}")
            intervals.append((plo, phi))
            cont_weight += piece.weight
            # density sanity at the base quadrature nodes; the unit mass needs
            # no check here: the closed-form families have it by construction
            # and a table's trapezoid mass, exact for its piecewise-linear
            # density, is checked when the piece is built
            dens = piece.unit_density(piece.param_to_t(_gauss_legendre01()[0]))
            if not np.all(np.isfinite(dens)) or np.any(dens < -VALIDATION_TOL):
                raise MeasureError("piece density is negative or non-finite at quadrature nodes")
        intervals.sort()
        for (a0, b0), (a1, b1) in zip(intervals, intervals[1:]):
            if a1 < b0 - VALIDATION_TOL:
                raise MeasureError("continuous piece intervals overlap")
        if abs(atom_mass + cont_weight - 1.0) > VALIDATION_TOL:
            raise MeasureError(
                f"total mass {atom_mass + cont_weight} != 1 (atoms {atom_mass}, continuous {cont_weight})"
            )

    # -- basic descriptors -------------------------------------------------

    @property
    def atom_mass(self):
        return sum(m for _, m in self.atoms)

    @property
    def is_atomless(self):
        return not self.atoms

    def cdf(self, x):
        """Right-continuous distribution function."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        for loc, m in self.atoms:
            out = out + m * (x >= loc)
        for p in self.continuous:
            out = out + p.weight * p.unit_cdf(x)
        return out

    @property
    def continuous_weight(self):
        return sum(p.weight for p in self.continuous)

    def cauchy(self, w):
        """Cauchy transform int dmu(t)/(w - t) at points w off the real axis.

        Vectorized over ``w``; atoms are summed exactly and every
        continuous piece uses its closed form.
        """
        w = np.asarray(w, dtype=complex)
        total = np.zeros_like(w)
        for loc, m in self.atoms:
            total = total + m / (w - loc)
        return total + self.continuous_cauchy(w)

    def cauchy_with_derivative(self, w):
        """(G(w), G'(w)) of the whole law, G' = -int dmu(t) / (w - t)^2, in one pass.

        G is :meth:`cauchy`, to the bit; the pieces are reflected once for both.
        """
        w = np.asarray(w, dtype=complex)
        g, dg = np.zeros_like(w), np.zeros_like(w)
        for loc, m in self.atoms:
            g = g + m / (w - loc)
            dg = dg - m / (w - loc) ** 2
        gc, dgc = self._reflected(w, "unit_cauchy", "unit_cauchy_derivative")
        return g + gc, dg + dgc

    def continuous_cauchy(self, w):
        """Cauchy transform of the continuous part alone, vectorized over ``w``.

        Pieces are evaluated at conj(w) in the upper half-plane and
        conjugated back below it; a real w takes the limit from above.
        """
        return self._reflected(w, "unit_cauchy")[0]

    def continuous_cauchy_derivative(self, w):
        """d/dw of :meth:`continuous_cauchy`, -int dmu_c(t) / (w - t)^2, in closed form.

        Reflected below the real axis in the same way: the transform is
        real on the real axis outside the support, so its derivative at
        conj(w) is conj of its derivative at w.
        """
        return self._reflected(w, "unit_cauchy_derivative")[0]

    def _reflected(self, w, *methods):
        """The weighted sum of each of ``methods`` over the pieces at w, via conj(w) below the axis."""
        w = np.asarray(w, dtype=complex)
        upper = w.real + 1j * np.abs(w.imag)
        below = w.imag < 0
        sums = []
        for method in methods:
            total = np.zeros_like(upper)
            for p in self.continuous:
                total = total + p.weight * getattr(p, method)(upper)
            sums.append(np.where(below, total.conj(), total))
        return sums

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        return {
            "atoms": [{"x": x, "m": m} for x, m in self.atoms],
            "continuous": [p.to_json_dict() for p in self.continuous],
            "support": [self.support[0], self.support[1]],
        }

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict):
            raise SchemaError(f"a measure must be a JSON object, got {type(d).__name__}")
        support = d.get("support")
        if not (isinstance(support, list) and len(support) == 2):
            raise SchemaError(f"measure support must be a [min, max] pair, got {support!r}")
        try:
            atoms = tuple((float(a["x"]), float(a["m"])) for a in d.get("atoms", []))
            pieces = tuple(piece_from_json_dict(p) for p in d.get("continuous", []))
            support = (float(support[0]), float(support[1]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad measure specification: {exc}") from exc
        return cls(atoms=atoms, continuous=pieces, support=support)


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------


def _hull(points):
    return (min(points), max(points))


def point_mass(x):
    """The Dirac measure at x."""
    return SpectralMeasure(atoms=((x, 1.0),), support=(x, x))


def atomic_measure(pairs):
    """Purely atomic measure from (location, mass) pairs summing to 1."""
    locs = [x for x, _ in pairs]
    return SpectralMeasure(atoms=tuple(pairs), support=_hull(locs))


def bernoulli_symmetric():
    """The symmetric two-point measure at -1 and +1."""
    return atomic_measure([(-1.0, 0.5), (1.0, 0.5)])


def semicircle_measure(center=0.0, radius=2.0):
    piece = SemicirclePiece(center, radius, 1.0)
    return SpectralMeasure(continuous=(piece,), support=piece.interval)


def arcsine_measure(a=-2.0, b=2.0):
    piece = ArcsinePiece(a, b, 1.0)
    return SpectralMeasure(continuous=(piece,), support=piece.interval)


def uniform_measure(a=0.0, b=1.0):
    piece = UniformPiece(a, b, 1.0)
    return SpectralMeasure(continuous=(piece,), support=piece.interval)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def cauchy_scalar(mu: SpectralMeasure, z: complex) -> complex:
    """Cauchy transform int dmu(t)/(z - t) for Im z > 0; maps into Im < 0."""
    z = complex(z)
    if not z.imag > 0:
        raise HalfPlaneError(f"cauchy_scalar requires Im z > 0, got {z}")
    return complex(mu.cauchy(z))


def f_scalar(mu: SpectralMeasure, z: complex) -> complex:
    """Reciprocal Cauchy transform F = 1/G; a self-map of the upper half-plane."""
    g = cauchy_scalar(mu, z)
    if abs(g) == 0.0:
        raise MeasureError("Cauchy transform vanished in the upper half-plane (broken measure)")
    return 1.0 / g


def quantiles(mu: SpectralMeasure, N: int) -> np.ndarray:
    """Deterministic quantile discretization: value i is the ((i - 1/2)/N)-quantile.

    The output is nondecreasing and an atom of mass m receives floor(mN)
    or ceil(mN) copies.  A law with a continuous part takes one bisection
    over all N levels at once.  A purely atomic law needs none: its
    quantile is the first location, in increasing order, whose cdf
    reaches q, which is where the bisection ends (or hi + 1, where the
    bisection stays when roundoff keeps every cdf value below q).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    lo, hi = mu.support
    span = max(hi - lo, 1.0)
    qs = (np.arange(N) + 0.5) / N
    if not mu.continuous:
        # the float cdf is nondecreasing in x (rounding is monotone)
        locs = np.sort([loc for loc, _m in mu.atoms])
        b = np.append(locs, hi + 1.0)[np.searchsorted(mu.cdf(locs), qs, side="left")]
    else:
        a = np.full(N, lo - 1.0)
        b = np.full(N, hi + 1.0)
        # inf{x : F(x) >= q} by bisection on the right-continuous cdf
        for _ in range(80):
            mid = 0.5 * (a + b)
            right = mu.cdf(mid) >= qs
            b = np.where(right, mid, b)
            a = np.where(right, a, mid)
    # snap to an atom within roundoff; the first atom listed wins
    out = b
    for loc, _m in reversed(mu.atoms):
        out = np.where(np.abs(b - loc) <= 4e-12 * span, loc, out)
    return np.minimum.accumulate(out[::-1])[::-1]


# closed forms of the unit-mass families, for Im z >= 0.  Each is written
# so that it keeps full relative accuracy as |z| -> infinity, where the
# textbook forms cancel; the matrix transform reaches |z| ~ 1/eps.


def _log1p(x):
    """log(1 + x) for complex x, accurate for small |x| (numpy's is not)."""
    x = np.asarray(x, dtype=complex)
    re, im = x.real, x.imag
    return 0.5 * np.log1p(re * (2.0 + re) + im * im) + 1j * np.arctan2(im, 1.0 + re)


def _log_ratio(z, lo, hi):
    """log((z - lo) / (z - hi)) = int_lo^hi dt / (z - t) for Im z >= 0.

    The ratio itself is accurate next to the endpoints and log1p of
    (hi - lo) / (z - hi) away from them, where the ratio tends to 1.
    """
    x = (hi - lo) / (z - hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(x) < 0.5, _log1p(x), np.log((z - lo) / (z - hi)))


def cauchy_semicircle(center, radius, z):
    """Closed-form Cauchy transform of the semicircle law."""
    w = np.asarray(z, dtype=complex) - center
    return 2.0 / (w + np.sqrt(w - radius) * np.sqrt(w + radius))


def cauchy_arcsine(a, b, z):
    """Closed-form Cauchy transform of the arcsine law on (a, b)."""
    z = np.asarray(z, dtype=complex)
    return 1.0 / (np.sqrt(z - a) * np.sqrt(z - b))


def cauchy_uniform(a, b, z):
    """Closed-form Cauchy transform of the uniform law on (a, b)."""
    z = np.asarray(z, dtype=complex)
    return _log_ratio(z, a, b) / (b - a)


def cauchy_table(nodes, values, z, derivative=False):
    """Cauchy transform of the piecewise-linear density through (nodes, values).

    Near the support each segment contributes its exact logarithmic
    integral; far from it the moment series about the midpoint is used.
    With ``derivative`` it returns G'(z) = -int f(t) dt / (z - t)^2
    instead: by parts, sum_k slope_k log((z - x_k)/(z - x_{k+1}))
    + f(x_0)/(z - x_0) - f(x_N)/(z - x_N) near the support, and the
    derivative of the series far from it.
    """
    x = np.asarray(nodes, dtype=float)
    v = np.asarray(values, dtype=float)
    z = np.asarray(z, dtype=complex)
    center, half = 0.5 * (x[0] + x[-1]), 0.5 * (x[-1] - x[0])
    u = z - center
    far = np.abs(u) > _TABLE_FAR * half
    out = np.empty_like(u)

    # int_seg f(t)/(z - t) dt = f(z) log((z - x_k)/(z - x_{k+1})) - (v_{k+1} - v_k),
    # with f extended linearly from the segment
    zn = z[~far][..., None]
    slope = np.diff(v) / np.diff(x)
    logs = _log_ratio(zn, x[:-1], x[1:])
    if derivative:
        zn = zn[..., 0]
        out[~far] = np.sum(slope * logs, axis=-1) + v[0] / (zn - x[0]) - v[-1] / (zn - x[-1])
    else:
        out[~far] = np.sum((v[:-1] + slope * (zn - x[:-1])) * logs, axis=-1) - (v[-1] - v[0])

    if np.any(far):
        # moments of f about the midpoint, segment by segment:
        # f(t) = alpha + slope * p on each segment, p = t - center
        p0, p1 = x[:-1] - center, x[1:] - center
        alpha = v[:-1] - slope * p0
        k = np.arange(1, _TABLE_MOMENTS + 1)[:, None]
        moments = np.sum(alpha * (p1**k - p0**k) / k
                         + slope * (p1 ** (k + 1) - p0 ** (k + 1)) / (k + 1), axis=-1)
        inv = 1.0 / u[far]
        if derivative:  # -sum_j (j + 1) m_j u^-(j + 2)
            moments = -k[:, 0] * moments
        series = np.zeros_like(inv)
        for m in moments[::-1]:
            series = (series + m) * inv
        out[far] = series * inv if derivative else series
    return out
