import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from freeatoms import measure as M
from freeatoms.errors import ConvergenceError, HalfPlaneError, MeasureError, SchemaError


def brute_cauchy(mu, z, pts=200001):
    """Independent oracle: atoms exactly, continuous part by scipy.quad."""
    total = sum(m / (z - x) for x, m in mu.atoms)
    for p in mu.continuous:
        lo, hi = p.interval

        def integrand(t, part):
            val = p.unit_density(t) / (z - t)
            return val.real if part == "re" else val.imag

        re = quad(integrand, lo, hi, args=("re",), limit=400)[0]
        im = quad(integrand, lo, hi, args=("im",), limit=400)[0]
        total += p.weight * (re + 1j * im)
    return total


class TestCauchyScalar:
    def test_point_mass_at_zero(self):
        assert M.cauchy_scalar(M.point_mass(0.0), 1j) == pytest.approx(-1j)

    def test_bernoulli_finite_sum(self):
        # z/(z^2-1) at z=2i, evaluated exactly
        mu = M.bernoulli_symmetric()
        z = 2j
        assert M.cauchy_scalar(mu, z) == pytest.approx(z / (z**2 - 1), abs=1e-15)
        assert M.cauchy_scalar(mu, z) == pytest.approx(-0.4j, abs=1e-15)

    def test_semicircle_closed_form(self):
        mu = M.semicircle_measure(0.0, 2.0)
        g = M.cauchy_scalar(mu, 1j)
        assert g == pytest.approx(1j * (1 - np.sqrt(5)) / 2, abs=1e-12)
        assert g == pytest.approx(M.cauchy_semicircle(0, 2, 1j), abs=1e-12)

    def test_matches_brute_quadrature(self):
        mu = M.SpectralMeasure(
            atoms=((0.0, 0.7),),
            continuous=(M.SemicirclePiece(0.5, 1.5, 0.3),),
            support=(-1.5, 2.5),
        )
        for z in [0.3 + 0.7j, -1.0 + 0.05j, 2.0 + 1e-3j]:
            assert M.cauchy_scalar(mu, z) == pytest.approx(brute_cauchy(mu, z), abs=1e-9)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(HalfPlaneError):
            M.cauchy_scalar(M.point_mass(0.0), 1 - 1j)

    def test_mapping_bounds_grid(self):
        measures = [
            M.bernoulli_symmetric(),
            M.semicircle_measure(0, 2),
            M.arcsine_measure(-2, 2),
            M.uniform_measure(-1, 1),
            M.atomic_measure([(0.0, 0.7), (1.0, 0.3)]),
        ]
        xs = np.linspace(-3, 3, 7)
        ys = np.geomspace(1e-3, 10, 6)
        for mu in measures:
            for x in xs:
                for y in ys:
                    z = complex(x, y)
                    g = M.cauchy_scalar(mu, z)
                    assert g.imag < 0
                    assert abs(g) <= 1 / y + 1e-12
                    f = M.f_scalar(mu, z)
                    assert f.imag >= y - 1e-10


TABLE_NODES = (-1.0, -0.3, 0.2, 0.9, 1.5)
TABLE_VALUES = (0.1, 0.9, 0.7, 0.5, 0.1)  # scaled to unit mass below


def _mp_log_ratio(z, lo, hi):
    return mpmath.log(z - lo) - mpmath.log(z - hi)


def _mp_semicircle(center, radius, z):
    w = z - center
    return 2 * (w - mpmath.sqrt(w - radius) * mpmath.sqrt(w + radius)) / radius**2


def _mp_table(nodes, values, z):
    total = mpmath.mpc(0)
    for x0, x1, v0, v1 in zip(nodes, nodes[1:], values, values[1:]):
        x0, x1, v0, v1 = (mpmath.mpf(v) for v in (x0, x1, v0, v1))
        slope = (v1 - v0) / (x1 - x0)
        total += (v0 + slope * (z - x0)) * _mp_log_ratio(z, x0, x1) - (v1 - v0)
    return total


def _table_values():
    values = np.asarray(TABLE_VALUES)
    return tuple(values / np.trapezoid(values, TABLE_NODES))


# closed form -> 50-digit reference; the textbook semicircle form keeps
# enough digits at this precision
CLOSED_FORMS = {
    "semicircle": (
        lambda z: M.cauchy_semicircle(0.25, 2.0, z),
        lambda z: _mp_semicircle(0.25, 2.0, z),
    ),
    "arcsine": (
        lambda z: M.cauchy_arcsine(-1.0, 2.0, z),
        lambda z: 1 / (mpmath.sqrt(z + 1) * mpmath.sqrt(z - 2)),
    ),
    "uniform": (
        lambda z: M.cauchy_uniform(-1.0, 1.0, z),
        lambda z: _mp_log_ratio(z, -1, 1) / 2,
    ),
    "table": (
        lambda z: M.cauchy_table(TABLE_NODES, _table_values(), z),
        lambda z: _mp_table(TABLE_NODES, _table_values(), z),
    ),
}
FAR_POINTS = [1e12j, 1e9j, 1e6j, -3e11 + 1e11j, 7e4 + 1e-2j, 12.0 + 5.0j, 6.0 + 8.0j]
# parameters and edges are exact in binary, so the references see the same
# arguments as the double-precision forms
NEAR_POINTS = [complex(x, y) for x in (-2.0, -1.75, -1.0, -0.3, 0.0, 0.7, 1.5, 1.9999, 2.0, 2.25)
               for y in (1e-2, 1e-6, 1e-10)]


class TestClosedForms:
    @pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
    def test_relative_accuracy_against_mpmath(self, family):
        fast, exact = CLOSED_FORMS[family]
        with mpmath.workdps(50):
            for z in FAR_POINTS + NEAR_POINTS:
                ref = exact(mpmath.mpc(z))
                got = complex(fast(np.asarray([z]))[0])
                assert abs(mpmath.mpc(got) - ref) <= 2e-15 * abs(ref), (family, z)

    def test_measure_transform_is_conjugate_symmetric(self):
        mu = M.SpectralMeasure(
            atoms=((0.5, 0.2),),
            continuous=(M.SemicirclePiece(-3.0, 0.5, 0.3), M.ArcsinePiece(-2.4, -2.0, 0.2),
                        M.UniformPiece(-2.0, -1.5, 0.1), M.TablePiece(TABLE_NODES, _table_values(), 0.2)),
            support=(-3.5, 1.5),
        )
        w = np.array([0.3 + 0.2j, -1.2 + 1e-3j, 40.0 + 3.0j, 1e9j])
        np.testing.assert_allclose(mu.cauchy(w.conj()), mu.cauchy(w).conj(), rtol=1e-15)
        for z in w[:3]:
            assert M.cauchy_scalar(mu, z) == pytest.approx(brute_cauchy(mu, z), rel=1e-7)
        # unit mass: w G(w) -> 1 at infinity
        assert 1e9j * M.cauchy_scalar(mu, 1e9j) == pytest.approx(1.0, rel=1e-8)


class TestIntegratePiece:
    def test_non_convergence_is_convergence_error(self):
        with pytest.raises(ConvergenceError):
            M.integrate_piece(lambda t: 1.0 / np.abs(t - 0.3), M.UniformPiece(0.0, 1.0, 1.0),
                              max_depth=4)

    def test_rule_is_the_mapped_legendre_rule_to_the_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(32)
        got_nodes, got_weights = M._gauss_legendre01()
        assert np.array_equal(got_nodes, 0.5 * (nodes + 1.0))
        assert np.array_equal(got_weights, 0.5 * weights)
        assert M._gauss_legendre01()[0] is got_nodes
        assert not got_nodes.flags.writeable and not got_weights.flags.writeable

    def test_construction_integrates_nothing(self, monkeypatch):
        def failing(*args, **kwargs):
            raise AssertionError("integrate_piece called")

        monkeypatch.setattr(M, "integrate_piece", failing)
        M.SpectralMeasure(
            atoms=((0.0, 0.2),),
            continuous=(M.SemicirclePiece(-2.0, 1.0, 0.2), M.ArcsinePiece(0.5, 1.0, 0.2),
                        M.UniformPiece(1.5, 2.0, 0.2),
                        M.TablePiece((3.0, 3.5, 4.0), (0.0, 2.0, 0.0), 0.2)),
            support=(-3.0, 4.0),
        )


class TestFScalar:
    def test_point_mass_identity(self):
        assert M.f_scalar(M.point_mass(0.0), 3j) == pytest.approx(3j)

    def test_bernoulli(self):
        z = 2j
        assert M.f_scalar(M.bernoulli_symmetric(), z) == pytest.approx(z - 1 / z, abs=1e-14)

    def test_boundary_limit_inverse_mass(self):
        # iyF(iy) tends to the reciprocal of the kernel expectation
        mu = M.atomic_measure([(0.0, 0.7), (1.0, 0.3)])
        z = 1e-3j
        ratio = M.f_scalar(mu, z) / z
        assert ratio == pytest.approx(1 / 0.7, rel=5e-3)


class TestQuantiles:
    def test_point_mass(self):
        assert M.quantiles(M.point_mass(0.0), 4).tolist() == [0, 0, 0, 0]

    def test_bernoulli(self):
        assert M.quantiles(M.bernoulli_symmetric(), 4).tolist() == [-1, -1, 1, 1]

    def test_uniform_closed_form(self):
        np.testing.assert_allclose(M.quantiles(M.uniform_measure(0, 1), 2), [0.25, 0.75], atol=1e-9)

    def test_atom_copy_counts(self):
        mu = M.atomic_measure([(0.0, 0.7), (1.0, 0.3)])
        for N in [3, 7, 10, 33]:
            vals = M.quantiles(mu, N)
            n0 = int(np.sum(vals == 0.0))
            assert n0 in (int(np.floor(0.7 * N)), int(np.ceil(0.7 * N)))
            assert n0 + int(np.sum(vals == 1.0)) == N

    def test_nondecreasing_and_weak_convergence(self):
        mu = M.SpectralMeasure(
            atoms=((1.5, 0.4),),
            continuous=(M.UniformPiece(-1.0, 1.0, 0.6),),
            support=(-1.0, 1.5),
        )
        vals = M.quantiles(mu, 400)
        assert np.all(np.diff(vals) >= -1e-12)
        # empirical cdf close to the true cdf away from the atom
        for x in [-0.5, 0.0, 0.9, 1.2]:
            emp = np.mean(vals <= x)
            assert emp == pytest.approx(float(mu.cdf(x)), abs=2.5e-3)

    def test_empirical_cauchy_convergence(self):
        # quantile discretization approximates G within O(1/N) on compact sets
        mu = M.semicircle_measure(0, 2)
        z = 0.4 + 0.8j
        exact = M.cauchy_scalar(mu, z)
        for N in [100, 400]:
            emp = np.mean(1.0 / (z - M.quantiles(mu, N)))
            assert abs(emp - exact) < 3.0 / N


def scalar_quantiles(mu, N):
    """Reference: one scalar 80-step bisection per level, first atom within 4e-12 wins."""
    lo, hi = mu.support
    span = max(hi - lo, 1.0)
    out = np.empty(N)
    for i, q in enumerate((np.arange(N) + 0.5) / N):
        a, b = lo - 1.0, hi + 1.0
        for _ in range(80):
            mid = 0.5 * (a + b)
            if mu.cdf(mid) >= q:
                b = mid
            else:
                a = mid
        out[i] = next((loc for loc, _m in mu.atoms if abs(b - loc) <= 4e-12 * span), b)
    return np.minimum.accumulate(out[::-1])[::-1]


QUANTILE_LAWS = {
    "atomic": M.atomic_measure([(0.0, 0.7), (1.0, 0.2), (1.0 + 1e-13, 0.1)]),
    "semicircle": M.semicircle_measure(0.3, 2.0),
    "arcsine": M.arcsine_measure(-1.0, 2.0),
    "uniform": M.uniform_measure(0.0, 1.0),
    "table": M.SpectralMeasure(
        continuous=(M.TablePiece((0.0, 1.0, 2.0), (0.0, 1.0, 0.0), 1.0),), support=(0.0, 2.0)
    ),
    "mixed": M.SpectralMeasure(
        atoms=((-3.0, 0.2), (0.5, 0.15)),
        continuous=(M.SemicirclePiece(-1.0, 1.0, 0.3),
                    M.TablePiece((1.0, 2.0, 3.0), (0.0, 1.0, 0.0), 0.35)),
        support=(-3.0, 3.0),
    ),
}


class TestVectorizedQuantiles:
    @pytest.mark.parametrize("name", sorted(QUANTILE_LAWS))
    @pytest.mark.parametrize("N", [1, 7, 250, 801])
    def test_bit_identical_to_scalar_bisection(self, name, N):
        mu = QUANTILE_LAWS[name]
        assert np.array_equal(M.quantiles(mu, N), scalar_quantiles(mu, N))

    @pytest.mark.parametrize("name", sorted(QUANTILE_LAWS))
    def test_cdf_same_bits_for_scalar_and_array(self, name):
        mu = QUANTILE_LAWS[name]
        lo, hi = mu.support
        xs = np.random.default_rng(0).uniform(lo - 1.0, hi + 1.0, 10000)
        scalar = np.array([mu.cdf(x) for x in xs])
        assert np.array_equal(mu.cdf(xs), scalar)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            M.quantiles(M.point_mass(0.0), 0)


@st.composite
def atomic_or_mixed_laws(draw, piece=True, near_pair=False):
    """Atoms on a 1/8 grid with integer weights, optionally plus a uniform piece.

    With ``near_pair`` one more atom sits within 3e-12 of a grid atom,
    inside the 4e-12 * span window where quantiles snap to the atom
    listed first, and either of the two may be listed first.
    """
    locs = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=5, unique=True))
    xs = [k / 8.0 for k in locs]
    if near_pair:
        near = xs[0] + draw(st.sampled_from([-3e-12, -1e-13, 1e-13, 3e-12]))
        xs.insert(draw(st.integers(0, len(xs))), near)
    weights = draw(st.lists(st.integers(1, 20), min_size=len(xs), max_size=len(xs)))
    cont = draw(st.integers(0, 20)) if piece else 0
    total = sum(weights) + cont
    atoms = tuple((x, w / total) for x, w in zip(xs, weights))
    pieces = (M.UniformPiece(-1.0, 1.0, 1.0 - sum(m for _, m in atoms)),) if cont else ()
    points = [x for x, _ in atoms] + ([-1.0, 1.0] if cont else [])
    return M.SpectralMeasure(atoms=atoms, continuous=pieces, support=(min(points), max(points)))


class TestQuantileProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mu=atomic_or_mixed_laws(), N=st.integers(1, 300))
    def test_grid_invariants(self, mu, N):
        xs = M.quantiles(mu, N)
        qs = (np.arange(N) + 0.5) / N
        lo, hi = mu.support
        assert np.all(np.diff(xs) >= 0)
        assert np.all((xs >= lo) & (xs <= hi))
        assert np.all(mu.cdf(xs) >= qs)
        for loc, m in mu.atoms:
            assert int(np.sum(xs == loc)) in (int(np.floor(m * N)), int(np.ceil(m * N)))

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(mu=atomic_or_mixed_laws(piece=False, near_pair=True), N=st.integers(1, 801))
    def test_atomic_grid_is_the_scalar_bisection(self, mu, N):
        assert np.array_equal(M.quantiles(mu, N), scalar_quantiles(mu, N))


class TestAtomBoundaryExtraction:
    def test_y_im_g_recovers_atom_mass(self):
        mu = M.SpectralMeasure(
            atoms=((0.25, 0.35),),
            continuous=(M.SemicirclePiece(2.0, 1.0, 0.65),),
            support=(0.0, 3.0),
        )
        lam, mass = 0.25, 0.35
        prev_gap = None
        for y in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
            est = -y * M.cauchy_scalar(mu, lam + 1j * y).imag
            gap = abs(est - mass)
            if prev_gap is not None:
                assert gap < prev_gap + 1e-12
            prev_gap = gap
        assert prev_gap < 1e-4

    def test_hermitian_part_dominates(self):
        # Re(iy G(iy)) >= mass of the kernel, scalar case
        mu = M.atomic_measure([(0.0, 0.7), (1.0, 0.3)])
        for y in np.geomspace(1e-6, 1e-1, 8):
            val = (1j * y * M.cauchy_scalar(mu, 1j * y)).real
            assert val >= 0.7 - 1e-12


class TestValidation:
    def test_rejects_mass_overflow(self):
        with pytest.raises(MeasureError):
            M.SpectralMeasure(atoms=((0.0, 0.7), (1.0, 0.5)), support=(0, 1))

    def test_rejects_duplicate_atoms(self):
        with pytest.raises(MeasureError):
            M.SpectralMeasure(atoms=((0.0, 0.5), (0.0, 0.5)), support=(0, 1))

    def test_rejects_atom_outside_support(self):
        with pytest.raises(MeasureError):
            M.SpectralMeasure(atoms=((5.0, 1.0),), support=(0, 1))

    def test_rejects_unbalanced_weights(self):
        with pytest.raises(MeasureError):
            M.SpectralMeasure(
                atoms=((0.0, 0.5),),
                continuous=(M.UniformPiece(0, 1, 0.3),),
                support=(0, 1),
            )

    def test_rejects_negative_table_density(self):
        with pytest.raises(MeasureError):
            M.TablePiece((0.0, 0.5, 1.0), (1.0, -0.5, 1.0), 1.0)

    def test_rejects_unnormalized_table(self):
        with pytest.raises(MeasureError):
            M.TablePiece((0.0, 1.0), (3.0, 3.0), 1.0)

    def test_table_mass_off_by_3e_7_is_not_unit_normalized(self):
        with pytest.raises(MeasureError, match="unit-normalized"):
            M.SpectralMeasure(continuous=(M.TablePiece((0.0, 1.0), (1 + 3e-7, 1 + 3e-7), 1.0),),
                              support=(0.0, 1.0))

    def test_requires_support(self):
        with pytest.raises(MeasureError):
            M.SpectralMeasure(atoms=((0.0, 1.0),), support=None)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("family, field, make", [
        ("semicircle", "center", lambda v: M.SemicirclePiece(v, 1.0, 1.0)),
        ("semicircle", "radius", lambda v: M.SemicirclePiece(0.0, v, 1.0)),
        ("arcsine", "a", lambda v: M.ArcsinePiece(v, 1.0, 1.0)),
        ("arcsine", "b", lambda v: M.ArcsinePiece(-1.0, v, 1.0)),
        ("uniform", "a", lambda v: M.UniformPiece(v, 1.0, 1.0)),
        ("uniform", "b", lambda v: M.UniformPiece(-1.0, v, 1.0)),
        ("table", "nodes", lambda v: M.TablePiece((0.0, v, 1.0), (1.0, 1.0, 1.0), 1.0)),
    ])
    def test_rejects_non_finite_piece_parameter(self, family, field, make, value):
        with pytest.raises(MeasureError, match=f"{family} {field} must be finite"):
            make(value)

    @staticmethod
    def uniform(a, b, weight=1.0):
        return {"family": "uniform", "a": a, "b": b, "weight": weight}

    # each measure file breaks one rule, which names itself
    @pytest.mark.parametrize("atoms, pieces, support, message", [
        ([], [{"family": "semicircle", "center": 0, "radius": -1, "weight": 1}], [-2, 2],
         "semicircle radius must be positive"),
        ([], [{"family": "arcsine", "a": 1, "b": -1, "weight": 1}], [-2, 2],
         "arcsine interval must satisfy a < b"),
        ([], [uniform(1, 1)], [0, 2], "uniform interval must satisfy a < b"),
        ([], [{"family": "table", "nodes": [0], "values": [1], "weight": 1}], [0, 1],
         "table piece needs matching 1-d nodes/values"),
        ([], [{"family": "table", "nodes": [0, 2, 1], "values": [1, 1, 1], "weight": 1}], [0, 2],
         "table nodes must be strictly increasing"),
        ([], [{"family": "cauchy", "weight": 1}], [0, 1], "unknown density family 'cauchy'"),
        ([{"x": 0, "m": 1}], [], [1, -1], "bad support bounds"),
        ([{"x": 0, "m": 0}, {"x": 1, "m": 1}], [], [0, 1], "atom mass must be strictly positive"),
        ([{"x": 0, "m": 1}], [uniform(0, 1, 0)], [0, 1], "piece weight must be strictly positive"),
        ([], [uniform(0, 3)], [0, 1], "outside support"),
        # 1 / (b - a) overflows
        ([], [uniform(0, 5e-324)], [0, 1], "density is negative or non-finite"),
        ([], [uniform(0, 2, 0.5), uniform(1, 3, 0.5)], [0, 3], "intervals overlap"),
    ], ids=["semicircle-radius", "arcsine-interval", "uniform-interval", "table-shape",
            "table-order", "unknown-family", "support-bounds", "atom-mass", "piece-weight",
            "piece-outside-support", "piece-density", "pieces-overlap"])
    def test_measure_file_breaking_a_rule(self, atoms, pieces, support, message):
        d = {"atoms": atoms, "continuous": pieces, "support": support}
        with pytest.raises((MeasureError, SchemaError), match=message):
            M.SpectralMeasure.from_json_dict(d)


class TestSerialization:
    def test_round_trip(self):
        mu = M.SpectralMeasure(
            atoms=((0.0, 0.7),),
            continuous=(M.SemicirclePiece(0, 2, 0.3),),
            support=(-3, 3),
        )
        again = M.SpectralMeasure.from_json_dict(mu.to_json_dict())
        assert again == mu

    def test_canonical_example(self):
        d = {
            "atoms": [{"x": 0.0, "m": 0.7}],
            "continuous": [{"family": "semicircle", "center": 0, "radius": 2, "weight": 0.3}],
            "support": [-3, 3],
        }
        mu = M.SpectralMeasure.from_json_dict(d)
        assert mu.atom_mass == pytest.approx(0.7)
        assert mu.to_json_dict()["support"] == [-3.0, 3.0]

    def test_table_round_trip(self):
        nodes = np.linspace(-1, 1, 21)
        vals = np.maximum(1 - nodes**2, 0)
        vals = vals / np.trapezoid(vals, nodes)
        mu = M.SpectralMeasure(
            continuous=(M.TablePiece(tuple(nodes), tuple(vals), 1.0),),
            support=(-1, 1),
        )
        again = M.SpectralMeasure.from_json_dict(mu.to_json_dict())
        assert again == mu
