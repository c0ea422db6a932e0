"""Seeded cases of the three workloads, each with a reference for its output.

The workload seed only reaches this module: the CLI receives generated
measure files and flags.  Parameters vary with the seed inside narrow
ranges, so that every seed exercises the same code paths at a similar
cost and every reference below stays valid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("density", "atoms", "oracle")

# Op kind -> end-to-end metric that times it (per pass).
KIND_METRIC = {
    "convolve": "convolve_s",
    "decompose": "decompose_s",
    "atom-scan": "decompose_s",
    "eigtest": "eigtest_s",
    "oracle": "oracle_s",
    "compare": "compare_s",
}

DENSITY_TOL = 1e-3  # acceptance criteria 1 and 2
MASS_TOL = 1e-3  # acceptance criterion 3
RESIDUAL_LIMITS = {"i": 1e-6, "v": 1e-6, "vii": 1e-4}
TRICHOTOMY_TOL = 1e-2
OFFSET_TOL = 1e-2


@dataclass
class Op:
    """One CLI invocation: ``freeatoms <argv> --out <file>`` and its check."""

    op_id: str
    argv: list
    check: Callable[[dict], list]  # parsed output -> list of problems
    repeatable: bool = False  # seeded oracle output: bit-identical across passes

    @property
    def kind(self):
        """The CLI subcommand."""
        return self.argv[0]


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def bv_atom_mass(m1, m2):
    """Bercovici-Voiculescu: the free sum has an atom of mass m1 + m2 - 1 at a + b
    when mu1({a}) = m1, mu2({b}) = m2 and that is positive."""
    return max(0.0, m1 + m2 - 1.0)


def bv_betas(m1, m2):
    """Boundary derivatives beta_j = mu_j({a_j}) / mass at a two-atom sum atom."""
    mass = bv_atom_mass(m1, m2)
    return m1 / mass, m2 / mass


def semicircle_density(x, radius):
    x = np.asarray(x, dtype=float)
    return 2.0 * np.sqrt(np.maximum(radius**2 - x**2, 0.0)) / (np.pi * radius**2)


def arcsine_density(x, half_width):
    x = np.asarray(x, dtype=float)
    return 1.0 / (np.pi * np.sqrt(half_width**2 - x**2))


def semicircle_sum_radius(r1, r2):
    """Semicircle(r1) boxplus semicircle(r2) is the semicircle of radius sqrt(r1^2 + r2^2)."""
    return math.hypot(r1, r2)


def trichotomy_gap(trace):
    """Distance of a kernel trace of an atomless anticommutator from {0, 1/2, 1}."""
    return min(abs(trace - v) for v in (0.0, 0.5, 1.0))


def oracle_tolerance(n, stderr):
    """Agreement bound of a pipeline mass with an N x N oracle estimate."""
    return 2.0 / n + 3.0 * stderr


def pencil_kernel_mass(a, b, atoms, rtol=1e-8):
    """tau_n(ker(b (x) 1 - a (x) X)) for a purely atomic X, by rank counting."""
    n = a.shape[0]
    total = 0.0
    for t, m in atoms:
        s = np.linalg.svd(b - t * a, compute_uv=False)
        rank = int(np.sum(s > rtol * max(s[0], 1.0)))
        total += m * (n - rank) / n
    return total


# ---------------------------------------------------------------------------
# measure files
# ---------------------------------------------------------------------------


def atomic(pairs):
    xs = [x for x, _ in pairs]
    return {"atoms": [{"x": x, "m": m} for x, m in pairs], "continuous": [],
            "support": [min(xs), max(xs)]}


def semicircle(radius, center=0.0):
    return {"atoms": [], "support": [center - radius, center + radius],
            "continuous": [{"family": "semicircle", "center": center, "radius": radius,
                            "weight": 1.0}]}


def arcsine(half_width):
    return {"atoms": [], "support": [-half_width, half_width],
            "continuous": [{"family": "arcsine", "a": -half_width, "b": half_width,
                            "weight": 1.0}]}


def atom_plus_semicircle(atom, mass, center, radius):
    lo, hi = min(atom, center - radius), max(atom, center + radius)
    return {"atoms": [{"x": atom, "m": mass}], "support": [lo, hi],
            "continuous": [{"family": "semicircle", "center": center, "radius": radius,
                            "weight": 1.0 - mass}]}


class _Files:
    def __init__(self, workdir):
        self.dir = Path(workdir)

    def measure(self, name, spec):
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(spec))
        return str(path)


def _matrix_arg(m):
    m = np.asarray(m, dtype=complex)
    return json.dumps([[[float(v.real), float(v.imag)] for v in row] for row in m])


def _unitary2(rng):
    """A 2 x 2 unitary with seeded angle and phase."""
    theta, phi = _near(rng, 0.7), rng.uniform(0.0, 2.0 * np.pi)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -np.exp(1j * phi) * s], [np.exp(-1j * phi) * s, c]])


def _near(rng, value, rel=0.03, size=None):
    """``value`` perturbed by a seeded factor in [1 - rel, 1 + rel]."""
    return value * rng.uniform(1.0 - rel, 1.0 + rel, size)


def _grid(lo, hi, pts):
    return f"{lo:.12g}:{hi:.12g}:{pts}"


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _check_density_close(reference):
    def check(out):
        xs = np.asarray(out["grid"])
        err = float(np.max(np.abs(np.asarray(out["density"]) - reference(xs))))
        return [] if err <= DENSITY_TOL else [f"density error {err:.2e} > {DENSITY_TOL:g}"]

    return check


def _check_density_moments(variance):
    """No closed form: the density must be a probability density with the
    free-convolution variance (variances add), to trapezoid accuracy."""

    def check(out):
        xs = np.asarray(out["grid"])
        d = np.asarray(out["density"])
        problems = []
        if not np.all(np.isfinite(d)) or d.min() < -1e-8:
            problems.append("density is negative or non-finite")
        mass = float(np.trapezoid(d, xs))
        if abs(mass - 1.0) > 1e-2:
            problems.append(f"density mass {mass:.4f} != 1")
        var = float(np.trapezoid(d * xs**2, xs))
        if abs(var / variance - 1.0) > 3e-2:
            problems.append(f"density variance {var:.4f} != {variance:.4f}")
        return problems

    return check


def _check_strict_report(out):
    problems = [f"residual {k} = {out['residuals'][k]:.2e} > {lim:g}"
                for k, lim in RESIDUAL_LIMITS.items()
                if k in out["residuals"] and out["residuals"][k] > lim * out["n"]]
    return problems


def _check_decomposition(mass, beta1, beta2):
    def check(out):
        problems = _check_strict_report(out)
        if abs(out["mass"] - mass) > MASS_TOL:
            problems.append(f"mass {out['mass']:.6f} != {mass:.6f}")
        for key, ref in (("beta1", beta1), ("beta2", beta2)):
            got = out[key][0][0]
            if abs(got - ref) > MASS_TOL * max(1.0, ref):
                problems.append(f"{key} {got:.6f} != {ref:.6f}")
        return problems

    return check


def _check_atom_scan(expected):
    def check(out):
        problems = []
        found = {round(c["location"], 9): c for c in out["candidates"]}
        for loc, mass in expected:
            c = found.get(round(loc, 9))
            if c is None:
                problems.append(f"atom at {loc:.6f} not scanned")
                continue
            if abs(c["measured_mass"] - mass) > MASS_TOL:
                problems.append(f"atom at {loc:.6f}: mass {c['measured_mass']:.6f} != {mass:.6f}")
            if "decomposition" not in c:
                problems.append(f"atom at {loc:.6f} not decomposed")
        if len(found) != len(expected):
            problems.append(f"{len(found)} candidates, expected {len(expected)}")
        return problems

    return check


def _check_regularized(trace):
    def check(out):
        problems = []
        reg = out.get("regularization")
        if reg is None:
            return ["support regularization did not run"]
        offset = reg["integer_offset"]
        if abs(offset - round(offset)) > OFFSET_TOL:
            problems.append(f"regularization offset {offset:.4f} is not an integer")
        got = out["diagnostics"]["poly_kernel_trace"]
        if abs(got - trace) > TRICHOTOMY_TOL:
            problems.append(f"kernel trace {got:.6f} != {trace}")
        return problems

    return check


def _check_trichotomy(out):
    got = out["diagnostics"]["poly_kernel_trace"]
    gap = trichotomy_gap(got)
    return [] if gap <= TRICHOTOMY_TOL else [f"kernel trace {got:.6f} not in {{0, 1/2, 1}}"]


def _check_kernel_trace(trace):
    def check(out):
        got = out["diagnostics"]["poly_kernel_trace"]
        return [] if abs(got - trace) <= MASS_TOL else [f"kernel trace {got:.6f} != {trace:.6f}"]

    return check


def _check_oracle(expected, rows):
    """Masses at each location within 2/N + 3 SE; histogram holds every eigenvalue."""

    def check(out):
        problems = []
        n = out["N"]
        total = float(np.sum(out["counts_mean"]))
        if abs(total - rows * n) > 1e-6:
            problems.append(f"histogram holds {total} eigenvalues, expected {rows * n}")
        for loc, ref in expected.items():
            est, se = out["masses"][str(float(loc))]
            if abs(est - ref) > oracle_tolerance(n, se):
                problems.append(f"oracle mass at {loc} = {est:.5f}, reference {ref:.5f}")
        return problems

    return check


def _check_compare(pipeline_mass):
    def check(out):
        problems = []
        if not out["agree"]:
            problems.append("pipeline and oracle disagree")
        if abs(out["pipeline_mass"] - pipeline_mass) > TRICHOTOMY_TOL:
            problems.append(f"pipeline mass {out['pipeline_mass']:.6f} != {pipeline_mass}")
        bound = oracle_tolerance(out["N"], out["oracle_stderr"])
        if abs(out["tolerance"] - bound) > 1e-12:
            problems.append("compare tolerance is not 2/N + 3 SE")
        return problems

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _density(rng, files):
    ops = []
    points = 41

    r1, r2 = _near(rng, 2.0), _near(rng, 1.5)
    big = semicircle_sum_radius(r1, r2)
    mu1, mu2 = files.measure("sc_a", semicircle(r1)), files.measure("sc_b", semicircle(r2))
    ops.append(Op("convolve:semicircle+semicircle",
                  ["convolve", "--mu1", mu1, "--mu2", mu2,
                   "--grid", _grid(-0.93 * big, 0.93 * big, points)],
                  _check_density_close(lambda x, r=big: semicircle_density(x, r))))
    ops.append(Op("convolve:semicircle+semicircle@1e-6",
                  ["convolve", "--mu1", mu1, "--mu2", mu2, "--y-eval", "1e-6",
                   "--grid", _grid(-0.9 * big, 0.9 * big, points)],
                  _check_density_close(lambda x, r=big: semicircle_density(x, r))))

    s = _near(rng, 1.0)
    bern = files.measure("bernoulli", atomic([(-s, 0.5), (s, 0.5)]))
    ops.append(Op("convolve:bernoulli+bernoulli",
                  ["convolve", "--mu1", bern, "--mu2", bern,
                   "--grid", _grid(-1.9 * s, 1.9 * s, points)],
                  _check_density_close(lambda x, w=2 * s: arcsine_density(x, w))))

    r, h = _near(rng, 2.0), _near(rng, 1.5)
    sc, arc = files.measure("sc_c", semicircle(r)), files.measure("arcsine", arcsine(h))
    edge = r + h + 0.2
    ops.append(Op("convolve:semicircle+arcsine",
                  ["convolve", "--mu1", sc, "--mu2", arc, "--grid", _grid(-edge, edge, 61)],
                  _check_density_moments(r**2 / 4 + h**2 / 2)))

    w1, w2 = _near(rng, 0.3), _near(rng, 0.4)
    r1, r2 = _near(rng, 2.0), _near(rng, 1.5)
    mix1 = files.measure("mix_a", atom_plus_semicircle(0.0, w1, 0.0, r1))
    mix2 = files.measure("mix_b", atom_plus_semicircle(0.0, w2, 0.0, r2))
    edge = r1 + r2 + 0.2
    ops.append(Op("convolve:mixture+mixture",
                  ["convolve", "--mu1", mix1, "--mu2", mix2, "--grid", _grid(-edge, edge, 61)],
                  _check_density_moments((1 - w1) * r1**2 / 4 + (1 - w2) * r2**2 / 4)))

    # 2 x 2 Hermitian coefficients diagonalized by one seeded unitary: the
    # sum splits into two scalar semicircle sums, a closed-form reference
    u = _unitary2(rng)
    c, d = _near(rng, np.array([1.2, 0.7])), _near(rng, np.array([0.6, 1.1]))
    a1, a2 = u @ np.diag(c) @ u.conj().T, u @ np.diag(d) @ u.conj().T
    r1, r2 = _near(rng, 2.0), _near(rng, 1.5)
    radii = np.hypot(c * r1, d * r2)
    mu1, mu2 = files.measure("sc_d", semicircle(r1)), files.measure("sc_e", semicircle(r2))
    half = 0.9 * float(radii.min())
    ops.append(Op("convolve:2x2-semicircles",
                  ["convolve", "--mu1", mu1, "--mu2", mu2, "--a1", _matrix_arg(a1),
                   "--a2", _matrix_arg(a2), "--grid", _grid(-half, half, points)],
                  _check_density_close(
                      lambda x, rs=radii: 0.5 * sum(semicircle_density(x, q) for q in rs))))
    return ops


def _atoms(rng, files):
    ops = []
    # two-atom laws shaped like the acceptance fixture (0.7, 0.3) + (0.6, 0.4):
    # sum atoms of mass m1 + m2 - 1 at x1 + x2 and m1 - m2 at x1 + x2'
    m1, m2 = _near(rng, 0.7), _near(rng, 0.6)
    x1, x2 = rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)
    x1b, x2b = x1 + _near(rng, 1.0), x2 + _near(rng, 2.0)
    mu1 = files.measure("two_atoms_a", atomic([(x1, m1), (x1b, 1 - m1)]))
    mu2 = files.measure("two_atoms_b", atomic([(x2, m2), (x2b, 1 - m2)]))
    expected = []
    for name, loc, (p, q) in (("a", x1 + x2, (m1, m2)), ("b", x1 + x2b, (m1, 1 - m2))):
        mass = bv_atom_mass(p, q)
        beta1, beta2 = bv_betas(p, q)
        expected.append((loc, mass))
        ops.append(Op(f"decompose:two-atoms-{name}",
                      ["decompose", "--mu1", mu1, "--mu2", mu2, "--b", f"{loc:.17g}", "--strict"],
                      _check_decomposition(mass, beta1, beta2)))
    ops.append(Op("atom-scan:two-atoms",
                  ["atom-scan", "--mu1", mu1, "--mu2", mu2, "--strict"],
                  _check_atom_scan(sorted(expected))))

    proj = files.measure("projections", atomic([(0.0, 0.5), (1.0, 0.5)]))
    ops.append(Op("eigtest:anticommutator-projections",
                  ["eigtest", "--mu1", proj, "--mu2", proj, "--poly", "Z1*Z2+Z2*Z1",
                   "--strict"],
                  _check_regularized(0.0)))

    sc1 = files.measure("sc_a", semicircle(_near(rng, 2.0)))
    sc2 = files.measure("sc_b", semicircle(_near(rng, 2.0)))
    for i, lam in enumerate((_near(rng, -0.8, 0.1), _near(rng, 0.6, 0.1))):
        ops.append(Op(f"eigtest:anticommutator-semicircles-{i}",
                      ["eigtest", "--mu1", sc1, "--mu2", sc2, "--poly", "Z1*Z2+Z2*Z1",
                       "--lambda", f"{lam:.17g}", "--strict"],
                      _check_trichotomy))

    # atom at 0 plus a semicircle away from it: the sum's atom at 0 has the
    # two-atom mass while the boundary ladder still integrates the continuous part
    p1, p2 = _near(rng, 0.7), _near(rng, 0.6)
    c = _near(rng, 1.5)
    mix1 = files.measure("mix_a", atom_plus_semicircle(0.0, p1, c, 1.0))
    mix2 = files.measure("mix_b", atom_plus_semicircle(0.0, p2, -c, 1.0))
    ops.append(Op("eigtest:sum-atom-semicircle",
                  ["eigtest", "--mu1", mix1, "--mu2", mix2, "--poly", "Z1+Z2", "--strict"],
                  _check_kernel_trace(bv_atom_mass(p1, p2))))
    return ops


def _oracle(rng, files):
    ops = []

    def seed():
        return str(int(rng.integers(0, 2**31)))

    proj = files.measure("projections", atomic([(0.0, 0.5), (1.0, 0.5)]))
    ops.append(Op("oracle:anticommutator-projections",
                  ["oracle", "--mu1", proj, "--mu2", proj, "--poly", "Z1*Z2+Z2*Z1",
                   "--size", "800", "--trials", "1", "--epsilon", "1e-7", "--seed", seed()],
                  _check_oracle({0.0: 0.0}, rows=1), repeatable=True))

    # 2 x 2 pencil b - a1 X1 - a2 X2 whose coefficients one seeded unitary
    # diagonalizes: each diagonal block is a scalar free sum of atomic laws
    # with a kernel of the two-atom mass at the planted point
    m1, m2 = _near(rng, 0.7), _near(rng, 0.6)
    x0, y0 = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
    law1 = atomic([(x0, m1), (x0 + 1.3, (1 - m1) / 2), (x0 + 2.1, (1 - m1) / 2)])
    law2 = atomic([(y0, m2), (y0 - 1.7, 1 - m2)])
    mu1, mu2 = files.measure("mixed_a", law1), files.measure("mixed_b", law2)
    u = _unitary2(rng)
    c, d = _near(rng, np.array([1.2, 0.7])), _near(rng, np.array([0.6, 1.1]))
    e = c * x0 + d * y0
    a1, a2, b = (u @ np.diag(v) @ u.conj().T for v in (c, d, e))
    ops.append(Op("oracle:pencil-2x2",
                  ["oracle", "--mu1", mu1, "--mu2", mu2, "--a1", _matrix_arg(a1),
                   "--a2", _matrix_arg(a2), "--b", _matrix_arg(b), "--size", "250",
                   "--trials", "1", "--epsilon", "1e-7", "--seed", seed()],
                  _check_oracle({0.0: bv_atom_mass(m1, m2)}, rows=2), repeatable=True))

    # single coefficient (a2 = 0): exact quantile blocks, no Haar sample;
    # kernel of dimension r planted at the atom t0 as in acceptance criterion 4
    n, r = 3, int(rng.integers(1, 3))
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = (h + h.conj().T) / 2
    v = rng.standard_normal((n, n - r)) + 1j * rng.standard_normal((n, n - r))
    t0 = rng.uniform(-1.0, 1.0)
    b = t0 * a + v @ v.conj().T
    mass = _near(rng, 0.45)
    atoms = [(t0, mass), (t0 + 3.0, 1 - mass)]
    single = files.measure("single", atomic(atoms))
    ops.append(Op("oracle:single-coefficient",
                  ["oracle", "--mu1", single, "--mu2", proj, "--a1", _matrix_arg(a),
                   "--a2", _matrix_arg(np.zeros((n, n))), "--b", _matrix_arg(b),
                   "--size", "600", "--trials", "1", "--epsilon", "1e-7", "--seed", seed()],
                  _check_oracle({0.0: pencil_kernel_mass(a, b, atoms)}, rows=n),
                  repeatable=True))

    ops.append(Op("compare:anticommutator-projections",
                  ["compare", "--mu1", proj, "--mu2", proj, "--poly", "Z1*Z2+Z2*Z1",
                   "--size", "300", "--trials", "1", "--seed", seed(), "--strict"],
                  _check_compare(0.0), repeatable=True))
    return ops


_GENERATORS = {"density": _density, "atoms": _atoms, "oracle": _oracle}


def build(workload, seed, workdir):
    """Write the workload's measure files into ``workdir``; return its ops."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _GENERATORS[workload](rng, _Files(workdir))
    for op in ops:
        op.argv = op.argv + ["--workers", "1"]
    return ops
