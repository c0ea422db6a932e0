"""The n = 1 solve: exact scalar arithmetic in place of the LAPACK calls.

At n = 1 the transforms and their derivatives, the half-plane test,
the norms and the Newton step are scalar formulas.  These tests check
each formula against the LAPACK value it replaces, the whole solve against
the (0, 0) block of an n = 2 solve (which still runs LAPACK), and that
bad 1 x 1 inputs fail as they always did.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeatoms import cli
from freeatoms import measure as M
from freeatoms import opval as O
from freeatoms import subord
from freeatoms.errors import HalfPlaneError
from freeatoms.subord import FreeSumModel, solve_subordination

TABLE = M.SpectralMeasure(atoms=(), continuous=(M.TablePiece((-1.0, 0.0, 1.0), (0.0, 1.0, 0.0), 1.0),),
                          support=(-1.0, 1.0))
MIXED = M.SpectralMeasure(atoms=((0.0, 0.3),),
                          continuous=(M.SemicirclePiece(1.0, 1.0, 0.4), M.UniformPiece(-2.0, -1.0, 0.3)),
                          support=(-2.0, 2.0))
LAWS = {
    "atomic": M.atomic_measure([(-1.0, 0.25), (0.5, 0.75)]),
    "semicircle": M.semicircle_measure(),
    "arcsine": M.arcsine_measure(),
    "uniform": M.uniform_measure(-1.0, 1.0),
    "table": TABLE,
    "mixed": MIXED,
}
PAIRS = [("atomic", "semicircle"), ("arcsine", "uniform"), ("table", "mixed"), ("mixed", "atomic")]
# (c1, c2): unit, negative and zero (r = 0) coefficients
COEFFICIENTS = [(1.0, 1.0), (-1.5, 0.7), (0.0, 1.0), (1.0, 0.0)]
XS = np.linspace(-3.0, 3.0, 13)


def scalar_points(xs, y):
    return (np.asarray(xs) + 1j * y)[:, None, None] * np.eye(1)


def block_points(xs, y, second):
    """diag(x + iy, second) for each x."""
    z = np.zeros((len(xs), 2, 2), dtype=complex)
    z[:, 0, 0] = np.asarray(xs) + 1j * y
    z[:, 1, 1] = second
    return z


class TestBlockEmbedding:
    """The (0, 0) block of an n = 2 solve with diagonal coefficients is the n = 1 solve."""

    @pytest.mark.parametrize("c1, c2", COEFFICIENTS)
    @pytest.mark.parametrize("law1, law2", PAIRS)
    @pytest.mark.parametrize("y", [0.5, 0.1, 1e-2])
    def test_block_matches_scalar_solve(self, law1, law2, c1, c2, y):
        # the two solves round differently (the n = 2 transforms run LAPACK),
        # so they take different paths to the same fixed point; a tight tol
        # makes them meet
        mu1, mu2 = LAWS[law1], LAWS[law2]
        one = solve_subordination(FreeSumModel([[c1]], [[c2]], mu1, mu2), scalar_points(XS, y),
                                  tol=1e-14)
        two = solve_subordination(FreeSumModel(np.diag([c1, 2.0]), np.diag([c2, -0.5]), mu1, mu2),
                                  block_points(XS, y, 0.3 + 1j * y), tol=1e-14)
        for mine, theirs in [(one.omega1, two.omega1), (one.omega2, two.omega2),
                             (one.cauchy, two.cauchy)]:
            assert np.max(np.abs(mine[:, 0, 0] - theirs[:, 0, 0])) <= 1e-12

    @pytest.mark.parametrize("c1, c2", COEFFICIENTS)
    @pytest.mark.parametrize("law1, law2", PAIRS)
    @pytest.mark.parametrize("y", [0.1, 1e-2])
    def test_duplicated_block_follows_the_scalar_iteration(self, law1, law2, c1, c2, y):
        # with the block repeated the n = 2 Newton step is the n = 1 step,
        # so the iterations match point for point (deeper, next to an atom,
        # the two roundings part at the eps / y level of the map itself)
        mu1, mu2 = LAWS[law1], LAWS[law2]
        one = solve_subordination(FreeSumModel([[c1]], [[c2]], mu1, mu2), scalar_points(XS, y))
        two = solve_subordination(FreeSumModel(c1 * np.eye(2), c2 * np.eye(2), mu1, mu2),
                                  scalar_points(XS, y) * np.eye(2))
        for mine, theirs in [(one.omega1, two.omega1), (one.omega2, two.omega2),
                             (one.cauchy, two.cauchy)]:
            assert np.max(np.abs(mine[:, 0, 0] - theirs[:, 0, 0])) <= 1e-12
        assert one.point_iterations.tolist() == two.point_iterations.tolist()
        assert one.floor_acceptances == two.floor_acceptances


def two_atom_reciprocal(c, mu, z):
    """F = A B / (m0 B + m1 A) in plain complex arithmetic, A = z - t0 c and B = z - t1 c."""
    (t0, m0), (t1, m1) = mu.atoms
    a, b = z - t0 * c, z - t1 * c
    return a * (b / (m0 * b + m1 * a))


def reciprocal_reference(c, mu, z, g):
    """The value of the n = 1 reciprocal transform: its closed form for two atoms, else inv(G).

    The n = 2 route of the same test runs LAPACK on the two-atom form as well.
    """
    return two_atom_reciprocal(c, mu, z) if O._two_atom_law(mu) else np.linalg.inv(g)


def upper_points(rng, k):
    return (rng.uniform(-3, 3, k) + 1j * 10.0 ** rng.uniform(-6, 1, k))[:, None, None]


class TestPrimitives:
    """Each 1 x 1 closed form against the LAPACK call it replaces."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN / inf rows
    def test_min_imag_eig_is_eigvalsh(self):
        rng = np.random.default_rng(3)
        z = upper_points(rng, 50)
        special = np.array([np.nan, np.inf, -np.inf, np.inf + 1j, 1 + 1j * np.nan, 1j * np.inf,
                            0.0, 1e-320j, -1j])[:, None, None]
        for stack in (z, special, -z.conj()):
            reference = np.linalg.eigvalsh(O.imag_part(stack))[:, 0]
            np.testing.assert_array_equal(O.min_imag_eig(stack), reference)
        assert O.min_imag_eig(np.array([[0.3 + 2j]])) == 2.0
        assert isinstance(O.min_imag_eig(np.array([[0.3 + 2j]])), float)

    def test_inverse_is_inv(self):
        rng = np.random.default_rng(4)
        z = upper_points(rng, 50) * rng.uniform(0.5, 2.0, (50, 1, 1))
        np.testing.assert_allclose(O.inverse(z), np.linalg.inv(z), rtol=4e-16, atol=0)
        m = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        np.testing.assert_array_equal(O.inverse(m), np.linalg.inv(m))

    @pytest.mark.parametrize("c", [1.0, -1.5, 0.0, 3e-9])
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_transforms_match_the_eigenbasis_route(self, law, c):
        # the n = 2 transform at diag(z, z) with a = diag(c, c) runs eig and inv
        mu = LAWS[law]
        z = upper_points(np.random.default_rng(5), 40)
        g1 = O.matrix_cauchy(np.array([[c]]), mu, z)
        g2 = O.matrix_cauchy(c * np.eye(2), mu, z * np.eye(2))
        np.testing.assert_allclose(g1[:, 0, 0], g2[:, 0, 0], rtol=1e-13, atol=0)
        f1 = O.matrix_f(np.array([[c]]), mu, z)
        np.testing.assert_allclose(f1, reciprocal_reference(c, mu, z, g1), rtol=4e-16, atol=0)
        np.testing.assert_allclose(f1[:, 0, 0], O.matrix_f(c * np.eye(2), mu, z * np.eye(2))[:, 0, 0],
                                   rtol=1e-13, atol=0)

    def test_solve_calls_no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called on a 1 x 1 stack")

        z = upper_points(np.random.default_rng(6), 9)
        model = FreeSumModel([[1.0]], [[-2.0]], MIXED, TABLE)  # atoms and densities on both sides
        reference = solve_subordination(model, z)
        # the eigen-split of a coefficient is made once per solve, not per
        # point; hand it over, so that every LAPACK call left would be per point
        monkeypatch.setattr(O.Coefficient, "split", property(
            lambda self: (np.eye(1), np.eye(1), self.a[0].real[self.a[0].real != 0])))
        for name in ("eig", "eigh", "eigvalsh", "inv", "solve", "svd", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)
        again = solve_subordination(model, z)
        for mine, theirs in [(again.omega1, reference.omega1), (again.cauchy, reference.cauchy)]:
            np.testing.assert_array_equal(mine, theirs)
        assert again.iterations == reference.iterations

    def test_norms_are_largest_singular_values(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((30, 1, 1)) + 1j * rng.standard_normal((30, 1, 1))
        m[3] = 0.0
        np.testing.assert_allclose(subord._norms(m), np.linalg.svd(m, compute_uv=False)[:, 0],
                                   rtol=4e-16, atol=0)


finite = st.floats(-4.0, 4.0)


class TestScalarTransformProperties:
    """1 x 1 transforms of c X: Nevanlinna bounds and the scaling identity."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(law=st.sampled_from(sorted(LAWS)),
           c=st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(-3.0, -0.01)),
           x=finite, log_y=st.floats(-6.0, 1.0))
    def test_transform_of_a_scaled_variable(self, law, c, x, log_y):
        mu, y = LAWS[law], 10.0 ** log_y
        z = np.array([[complex(x, y)]])
        g = O.matrix_cauchy(np.array([[c]]), mu, z)[0, 0]
        f = O.matrix_f(np.array([[c]]), mu, z)[0, 0]
        # G maps into the lower half-plane with |G| <= 1 / y, and F = 1 / G
        # is a self-map with Im F >= Im z (c X has a probability law); a
        # two-atom law takes F in closed form, not as 1 / G
        assert g.imag < 0 and abs(g) <= (1.0 + 1e-12) / y
        if O._two_atom_law(mu):
            assert f == pytest.approx(two_atom_reciprocal(c, mu, z)[0, 0], rel=4e-16, abs=0)
        else:
            assert f == 1.0 / g
        assert f.imag >= y * (1.0 - 1e-9)
        # int (z - c t)^-1 dmu(t) = G_mu(z / c) / c, conjugated below the axis
        if c == 0.0:
            expected = 1.0 / complex(x, y)
        else:
            w = complex(x, y) / c
            gw = M.cauchy_scalar(mu, w if c > 0 else w.conjugate())
            expected = (gw if c > 0 else gw.conjugate()) / c
        assert abs(g - expected) <= 1e-9 * abs(expected) + 1e-12 / y


BAD_POINTS = [np.nan, np.inf, -np.inf, np.inf + 1j, np.nan + 1j, 1 + 1j * np.nan,
              complex(np.inf, np.inf), 0.0, 1.5, -1j]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns on the NaN / inf arithmetic
class TestBadScalarInputs:
    """NaN, infinite, real or zero 1 x 1 points fail as before: HalfPlaneError, exit 2."""

    @pytest.mark.parametrize("z", BAD_POINTS, ids=str)
    def test_half_plane_check_rejects(self, z):
        point = np.array([[z]], dtype=complex)
        stack = np.concatenate([np.array([[[1j]]]), point[None]])
        model = FreeSumModel([[1.0]], [[-1.0]], MIXED, LAWS["semicircle"])
        for call in (lambda p: O.validate_upper(p), lambda p: O.matrix_cauchy([[1.0]], MIXED, p),
                     lambda p: O.matrix_f([[0.0]], MIXED, p), lambda p: solve_subordination(model, p)):
            with pytest.raises(HalfPlaneError):
                call(point)
            with pytest.raises(HalfPlaneError, match=r"z\[1\]|argument\[1\]"):
                call(stack)

    @pytest.mark.parametrize("a1", ["nan", "inf", "-inf"])
    def test_non_finite_coefficient_exits_2(self, a1, tmp_path, capsys):
        law = tmp_path / "semi.json"
        law.write_text(json.dumps(LAWS["semicircle"].to_json_dict()))
        code = cli.main(["convolve", "--mu1", str(law), "--mu2", str(law), "--a1", a1,
                         "--grid", "-1:1:3"])
        assert code == cli.EXIT_SCHEMA
        capsys.readouterr()

    @pytest.mark.parametrize("y_eval, expected", [("nan", cli.EXIT_SCHEMA), ("inf", cli.EXIT_SCHEMA),
                                                  ("0", cli.EXIT_SCHEMA), ("-1", cli.EXIT_SCHEMA),
                                                  ("1e-320", cli.EXIT_OK)])
    def test_evaluation_height(self, y_eval, expected, tmp_path, capsys):
        # a subnormal height is a valid point: with a1 = 0, h1 = 0 exactly and
        # the sum is X2, whose h2 = a h_mu(z / a) needs no LAPACK call, so the
        # density is the semicircle's sqrt(4 - x^2) / (2 pi)
        law = tmp_path / "semi.json"
        law.write_text(json.dumps(LAWS["semicircle"].to_json_dict()))
        out = tmp_path / "out.json"
        code = cli.main(["convolve", "--mu1", str(law), "--mu2", str(law), "--a1", "0",
                         "--grid", "-1:1:3", "--y-eval", y_eval, "--out", str(out)])
        assert code == expected
        if code == cli.EXIT_OK:
            xs = np.array([-1.0, 0.0, 1.0])
            np.testing.assert_allclose(json.loads(out.read_text())["density"],
                                       np.sqrt(4.0 - xs**2) / (2.0 * np.pi), rtol=1e-12)
        capsys.readouterr()
