"""Newton steps for the subordination fixed point: the exact derivatives they use.

The closed-form derivatives G_c' of the density families, the closed
form of h = F - id with its factored derivative (``opval.matrix_h``) and
the full Jacobian of the solver's step map Phi(w) = h2(h1(w) + z) + z
are checked against central differences and against G^{-1} - z, at
points and laws drawn by derandomized hypothesis searches in the upper
half-plane, and against a 60-digit evaluation next to an atom.  The
quadrature fallback of the matrix transform keeps the solve's answer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeatoms import measure as M
from freeatoms import opval as O
from freeatoms import subord
from freeatoms.atoms import ladder_scan
from freeatoms.subord import DEFAULT_TOL, FreeSumModel, solve_subordination

from block_pencil import SUM_BLOCK_PENCIL

# a nonzero density at both ends, so the boundary terms of the table's derivative count
TABLE = M.SpectralMeasure(continuous=(M.TablePiece((-1.0, 0.0, 0.5, 1.0), (0.2, 0.6, 0.7, 0.4), 1.0),),
                          support=(-1.0, 1.0))
FAMILIES = {
    "semicircle": M.semicircle_measure(0.3, 1.5),
    "arcsine": M.arcsine_measure(-1.0, 2.0),
    "uniform": M.uniform_measure(-1.0, 1.0),
    "table": TABLE,
}
MIXED = M.SpectralMeasure(atoms=((0.0, 0.3),),
                          continuous=(M.SemicirclePiece(1.0, 1.0, 0.4), M.UniformPiece(-2.0, -1.0, 0.3)),
                          support=(-2.0, 2.0))
LAWS = {
    "atoms": M.atomic_measure([(-1.0, 0.25), (0.5, 0.75)]),
    "three-atoms": M.atomic_measure([(-1.0, 0.25), (0.5, 0.5), (2.0, 0.25)]),
    **FAMILIES,
    "mixed": MIXED,
}


class TestScalarDerivative:
    """The derivative half of cauchy_with_derivative against a central difference of cauchy."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from(sorted(FAMILIES)), x=st.floats(-40.0, 40.0),
           log_y=st.floats(-3.0, 1.5), below=st.booleans())
    def test_against_central_difference(self, family, x, log_y, below):
        mu = FAMILIES[family]
        w = complex(x, -(10.0 ** log_y) if below else 10.0 ** log_y)
        h = 1e-5 * min(1.0, abs(w.imag)) * max(1.0, abs(w))
        central = (mu.cauchy(w + h) - mu.cauchy(w - h)) / (2 * h)
        derivative = complex(mu.cauchy_with_derivative(w)[1])
        assert abs(derivative - central) <= 1e-6 * abs(derivative)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_far_field_and_reflection(self, family):
        # -1 / w^2 far away (unit mass), and G'(conj w) = conj G'(w)
        mu = FAMILIES[family]
        w = np.array([1e3 + 2.0j, -3e4 + 0.5j, 0.2 + 0.7j])
        d = mu.cauchy_with_derivative(w)[1]
        np.testing.assert_allclose(d[:2], -1.0 / w[:2] ** 2, rtol=1e-2)
        np.testing.assert_array_equal(mu.cauchy_with_derivative(w.conj())[1], d.conj())

    def test_weights_add(self):
        w = np.array([0.4 + 0.3j, -2.5 + 1e-3j])
        # the atom 0.3 delta_0 adds -0.3 / w^2
        expected = 0.4 * M.SemicirclePiece(1.0, 1.0, 1.0).unit_cauchy_derivative(w) + \
            0.3 * M.UniformPiece(-2.0, -1.0, 1.0).unit_cauchy_derivative(w) - 0.3 / w ** 2
        np.testing.assert_allclose(MIXED.cauchy_with_derivative(w)[1], expected, rtol=1e-15)


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def coefficient(rng, n, rank):
    """A Hermitian n x n coefficient of the given rank."""
    d, u = np.linalg.eigh(random_hermitian(rng, n))
    d[rank:] = 0.0
    return (u * d) @ u.conj().T


def upper_point(rng, n, y):
    """A point with Im z >= y I."""
    b = random_hermitian(rng, n)
    return random_hermitian(rng, n) + 1j * (y * np.eye(n) + 0.3 * b @ b.conj().T)


def central_jacobian(fn, w, h=1e-6):
    """(fn(w + h E) - fn(w - h E)) / 2h over the basis E of n x n matrices: the n^2 x n^2 Jacobian."""
    n = w.shape[-1]
    cols = []
    for k in range(n * n):
        e = np.zeros(n * n, dtype=complex)
        e[k] = 1.0
        e = e.reshape(n, n)
        cols.append(((fn(w + h * e) - fn(w - h * e)) / (2 * h)).reshape(w.shape[:-2] + (n * n,)))
    return np.stack(cols, axis=-1)


# (n, rank of the coefficient): r = n, r < n and r = 0 at n = 1 and n = 3
CASES = [(1, 1), (1, 0), (3, 3), (3, 2), (3, 0)]


def h_of(a, mu, w):
    """h = F - w from matrix_h, without its derivative."""
    return O.matrix_h(a, mu, w)[0]


class TestTransformDerivative:
    """matrix_h's derivative of h = F - id against central differences."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), law=st.sampled_from(sorted(LAWS)),
           case=st.sampled_from(CASES), y=st.floats(0.05, 2.0))
    def test_matrix_h(self, seed, law, case, y):
        n, rank = case
        rng = np.random.default_rng(seed)
        a, mu = coefficient(rng, n, rank), LAWS[law]
        z = np.stack([upper_point(rng, n, y) for _ in range(2)])
        h, d = O.matrix_h(a, mu, z)
        central = central_jacobian(lambda w: h_of(a, mu, w), z)
        assert np.max(np.abs(d.matrix() - central)) <= 1e-6 * max(1.0, np.max(np.abs(central)))

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_matrix_h_at_one_point(self, law):
        rng = np.random.default_rng(7)
        a, z = coefficient(rng, 3, 2), upper_point(rng, 3, 0.2)
        h, d = O.matrix_h(a, LAWS[law], z)
        assert h.shape == (3, 3) and d.matrix().shape == (9, 9)
        central = central_jacobian(lambda w: h_of(a, LAWS[law], w), z)
        assert np.max(np.abs(d.matrix() - central)) <= 1e-6 * max(1.0, np.max(np.abs(central)))

    def test_equal_eigenvalues_take_the_derivative(self):
        # a = I on a scalar point: every eigenvalue of d^{-1} S is the same, so
        # Gamma is h_mu' throughout and J is h_mu'(z) = -G'(z) / G(z)^2 - 1 times the identity
        mu = FAMILIES["semicircle"]
        z = (0.3 + 0.4j) * np.eye(3)
        _, d = O.matrix_h(np.eye(3), mu, z)
        g, dg = map(complex, mu.cauchy_with_derivative(0.3 + 0.4j))
        np.testing.assert_allclose(d.matrix(), (-dg / g**2 - 1.0) * np.eye(9), atol=1e-14)

    def test_factors_follow_slicing(self):
        rng = np.random.default_rng(8)
        a = coefficient(rng, 3, 2)
        z = np.stack([upper_point(rng, 3, 0.1) for _ in range(4)])
        for mu in (MIXED, LAWS["three-atoms"]):
            _, d = O.matrix_h(a, mu, z)
            rows = np.array([True, False, True, True])
            np.testing.assert_array_equal(d.map(lambda f: f[rows]).matrix(), d.matrix()[rows])

    def test_two_atom_reciprocal_is_one_over_g(self):
        rng = np.random.default_rng(9)
        a, mu = coefficient(rng, 3, 3), LAWS["atoms"]
        z = np.stack([upper_point(rng, 3, y) for y in (1.0, 1e-2, 1e-4)])
        f, g = O.matrix_f(a, mu, z), O.matrix_cauchy(a, mu, z)
        assert O._two_atom_law(mu) and not O._two_atom_law(LAWS["three-atoms"])
        assert np.max(np.abs(f @ g - np.eye(3))) <= 1e-10


@st.composite
def continuous_laws(draw):
    """A law with a continuous part: one density family, a mixture with atoms, or a table."""
    kind = draw(st.sampled_from(["continuous", "mixed", "table"]))
    lo = draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(0.2, 2.5))
    if kind == "table":
        values = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=6))) + 0.05
        nodes = np.linspace(lo, hi, len(values))
        piece = M.TablePiece(tuple(nodes), tuple(values / np.trapezoid(values, nodes)), 1.0)
        return M.SpectralMeasure(continuous=(piece,), support=(lo, hi))
    family = draw(st.sampled_from(["semicircle", "arcsine", "uniform"]))
    atoms = ()
    weight = 1.0
    if kind == "mixed":
        masses = draw(st.lists(st.floats(0.05, 0.4), min_size=1, max_size=2))
        locs = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(masses), max_size=len(masses),
                             unique=True))
        atoms = tuple(zip(locs, masses))
        weight = 1.0 - sum(masses)
    piece = (M.SemicirclePiece(0.5 * (lo + hi), 0.5 * (hi - lo), weight) if family == "semicircle"
             else M.ArcsinePiece(lo, hi, weight) if family == "arcsine"
             else M.UniformPiece(lo, hi, weight))
    points = [lo, hi] + [x for x, _ in atoms]
    return M.SpectralMeasure(atoms=atoms, continuous=(piece,), support=(min(points), max(points)))


def atom_beside_semicircle(mass, center):
    """An atom of ``mass`` at 0 plus a radius-1 semicircle at ``center`` carrying the rest."""
    return M.SpectralMeasure(atoms=((0.0, mass),), continuous=(M.SemicirclePiece(center, 1.0, 1.0 - mass),),
                             support=(min(0.0, center - 1.0), max(0.0, center + 1.0)))


def sixty_digit_h(a, mu, w):
    """h = G^{-1} - w at 60 digits for a law of atoms and semicircles, from w^{-1} a = X diag(l) X^{-1}.

    G(w) = X diag(phi(l_i)) X^{-1} w^{-1} with phi(l) = int dmu(t) / (1 - t l),
    which is G_mu(1/l) / l for l != 0 and 1 for l = 0: no range split, no h_mu.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(60):
        wm = mp.matrix(w.tolist())
        winv = wm ** -1
        lam, X = mp.eig(winv * mp.matrix(np.asarray(a, dtype=complex).tolist()))

        def phi(l):
            total = sum(mp.mpf(m) / (1 - mp.mpf(t) * l) for t, m in mu.atoms)
            for p in mu.continuous:
                if l == 0:
                    total += mp.mpf(p.weight)
                    continue
                x, r = 1 / l - mp.mpf(p.center), mp.mpf(p.radius)
                total += mp.mpf(p.weight) * 2 / (x + mp.sqrt(x - r) * mp.sqrt(x + r)) / l
            return total

        h = (X * mp.diag([phi(l) for l in lam]) * X ** -1 * winv) ** -1 - wm
        return np.array(h.tolist(), dtype=complex)


class TestMatrixHValues:
    """h in closed form against G^{-1} - z, in the fallback, and at 60 digits."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), mu=continuous_laws(), n=st.sampled_from([1, 2, 3]),
           full=st.booleans(), y=st.floats(0.05, 2.0))
    def test_agrees_with_the_inverse_of_g(self, seed, mu, n, full, y):
        rng = np.random.default_rng(seed)
        a = coefficient(rng, n, n if full or n == 1 else n - 1)
        z = np.stack([upper_point(rng, n, y) for _ in range(2)])
        h = h_of(a, mu, z)
        expected = O.inverse(O.matrix_cauchy(a, mu, z)) - z
        assert np.max(np.abs(h - expected)) <= 1e-10 * max(1.0, np.max(np.abs(z)))

    def test_ill_conditioned_slices_take_the_inverse_of_g(self, monkeypatch):
        # every slice past the condition limit: h is G^{-1} - z with G by
        # quadrature, and the derivative is still the eigenbasis one
        rng = np.random.default_rng(11)
        a = coefficient(rng, 3, 2)
        z = np.stack([upper_point(rng, 3, y) for y in (0.5, 0.1)])
        h, d = O.matrix_h(a, MIXED, z)
        calls = []
        integrate = O.integrate_piece

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(O, "_EIG_COND_LIMIT", 0.0)
        monkeypatch.setattr(O, "integrate_piece", counted)
        h_low, d_low = O.matrix_h(a, MIXED, z)
        assert calls
        np.testing.assert_array_equal(h_low, O.inverse(O.matrix_cauchy(a, MIXED, z)) - z)
        np.testing.assert_array_equal(d_low.matrix(), d.matrix())
        assert np.max(np.abs(h_low - h)) <= 1e-10

    def test_sixty_digits_next_to_an_atom(self):
        # the deep rungs (8-15) of the ladder at the sum atom 0 on the 3 x 3
        # block pencil of Z1 + Z2: h_j at omega_j, where G is ill-conditioned,
        # is no less accurate in closed form than as G^{-1} - z
        L = SUM_BLOCK_PENCIL
        model = FreeSumModel(L.a1, L.a2, atom_beside_semicircle(0.7, 1.5),
                             atom_beside_semicircle(0.6, -1.5))
        scan = ladder_scan(model, -L.a0)
        closed = inverse_g = 0.0
        for k in range(8, 16):
            for a, mu, w in [(L.a1, model.mu1, scan.solve.omega1[k]),
                             (L.a2, model.mu2, scan.solve.omega2[k])]:
                exact = sixty_digit_h(a, mu, w)
                closed = max(closed, np.max(np.abs(h_of(a, mu, w) - exact)))
                inverse_g = max(inverse_g, np.max(np.abs(O.inverse(O.matrix_cauchy(a, mu, w)) - w
                                                         - exact)))
        assert closed <= inverse_g <= 1e-9


def solver_step(model, z):
    """The solver's own step map and arguments for the stack z, taken from a solve."""
    seen = []
    fixed_point = subord._newton_fixed_point

    def spy(step, w0, args, *rest):
        seen.append((step, args))
        return fixed_point(step, w0, args, *rest)

    subord._newton_fixed_point = spy
    try:
        solve_subordination(model, z)
    finally:
        subord._newton_fixed_point = fixed_point
    return seen[-1]


class TestStepJacobian:
    """The step's J = J_h2(u) J_h1(w) against central differences of Phi."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), laws=st.sampled_from(
        [(l1, l2) for l1 in sorted(LAWS) for l2 in ("atoms", "semicircle", "mixed")]),
        case=st.sampled_from(CASES), y=st.floats(0.05, 1.0))
    def test_against_central_differences(self, seed, laws, case, y):
        n, rank = case
        rng = np.random.default_rng(seed)
        model = FreeSumModel(coefficient(rng, n, rank), coefficient(rng, n, n), LAWS[laws[0]],
                             LAWS[laws[1]])
        z = np.stack([upper_point(rng, n, y) for _ in range(2)])
        step, args = solver_step(model, z)
        w = np.stack([upper_point(rng, n, y) for _ in range(2)])  # any points above z
        w = w + 1j * np.eye(n) * y
        phi, jac = step(w, *args)
        central = central_jacobian(lambda v: step(v, *args)[0], w)
        assert np.max(np.abs(jac(slice(None)) - central)) <= 1e-6 * max(1.0, np.max(np.abs(central)))
        # the derivative at a slice of the stack is the derivative at those points
        np.testing.assert_array_equal(jac(slice(1, 2)), jac(slice(None))[1:2])


class TestQuadratureFallback:
    def test_ladder_solve_through_quadrature(self, monkeypatch):
        # every slice of the matrix transform integrated by quadrature: G from
        # the quadrature, J still from the eigenbasis; the solve converges
        # and gives the eigenbasis answer
        sc = M.semicircle_measure(0.0, 2.0)
        model = FreeSumModel(np.diag([1.0, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]), sc, sc)
        b = np.array([[0.3, 0.1], [0.1, -0.2]])
        z = b + 1j * np.geomspace(0.1, 1e-3, 6)[:, None, None] * np.eye(2)
        exact = solve_subordination(model, z)
        calls = []
        integrate = O.integrate_piece

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(O, "_EIG_COND_LIMIT", 0.0)
        monkeypatch.setattr(O, "integrate_piece", counted)
        fallback = solve_subordination(model, z)
        assert calls
        assert np.all(fallback.residual_fixed_point <= DEFAULT_TOL)
        assert np.max(np.abs(fallback.cauchy - exact.cauchy)) <= 1e-10


class TestNewtonStep:
    def test_solves_the_newton_system(self):
        rng = np.random.default_rng(10)
        jac = 0.3 * (rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)))
        r = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        delta = subord._newton_step(lambda part: jac[part].copy(), r)
        residual = delta.reshape(3, 4) - (jac @ delta.reshape(3, 4, 1))[..., 0] - r.reshape(3, 4)
        assert np.max(np.abs(residual)) <= 1e-14
        np.testing.assert_array_equal(subord._newton_step(lambda part: jac[part, :1, :1], r[:, :1, :1]),
                                      r[:, :1, :1] / (1.0 - jac[:, :1, :1]))

    def test_singular_system_gives_no_candidate(self):
        # I - J exactly singular: no finite candidate, so the points take their plain step
        r = np.ones((2, 2, 2), dtype=complex)
        jac = np.stack([np.eye(4), np.zeros((4, 4))]).astype(complex)
        assert np.all(np.isnan(subord._newton_step(lambda part: jac[part].copy(), r)))
        slopes = np.array([[[1.0]], [[0.5]]], dtype=complex)
        scalar = subord._newton_step(lambda part: slopes[part], r[:, :1, :1])
        assert not np.isfinite(scalar[0, 0, 0]) and scalar[1, 0, 0] == 2.0

    def test_chunks_solve_apart(self, monkeypatch):
        # one point per chunk: a singular system takes away its own candidate only
        monkeypatch.setattr(subord, "_SYSTEM_CHUNK", 16)
        r = np.ones((2, 2, 2), dtype=complex)
        jac = np.stack([np.eye(4), np.zeros((4, 4))]).astype(complex)
        parts = []

        def logged(part):
            parts.append((part.start, part.stop))
            return jac[part].copy()

        delta = subord._newton_step(logged, r)
        assert parts == [(0, 1), (1, 2)]
        assert np.all(np.isnan(delta[0])) and np.array_equal(delta[1], r[1])
