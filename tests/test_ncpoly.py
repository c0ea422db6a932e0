import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeatoms.ncpoly import (
    NCPoly,
    adjoint,
    eval_matrices,
    format_poly,
    is_selfadjoint,
    parse_poly,
    star_square,
)

Z1 = NCPoly.z1()
Z2 = NCPoly.z2()


def random_poly(rng, degree=3, nterms=6, real=False, exact=False):
    terms = []
    for _ in range(nterms):
        d = rng.integers(0, degree + 1)
        word = tuple(rng.integers(1, 3, size=d).tolist())
        if exact:
            # small Gaussian integers keep all products and sums exact in doubles
            c = complex(rng.integers(-5, 6), 0 if real else rng.integers(-5, 6))
            if c == 0:
                c = 1.0
        else:
            c = rng.standard_normal() + (0 if real else 1j * rng.standard_normal())
        terms.append((word, c))
    return NCPoly(terms)


def poly_allclose(p, q, tol=1e-12):
    words = {w for w, _ in p.terms} | {w for w, _ in q.terms}
    return all(abs(p.coeff(w) - q.coeff(w)) <= tol for w in words)


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


class TestAdjoint:
    def test_word_reversal(self):
        assert adjoint(Z1 * Z2) == Z2 * Z1

    def test_conjugation(self):
        p = NCPoly.monomial((1,), 2 + 1j)
        assert adjoint(p) == NCPoly.monomial((1,), 2 - 1j)

    def test_anticommutator_fixed(self):
        p = Z1 * Z2 + Z2 * Z1
        assert adjoint(p) == p

    def test_involution(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_poly(rng)
            assert adjoint(adjoint(p)) == p

    def test_antihomomorphism_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p, q = random_poly(rng, exact=True), random_poly(rng, exact=True)
            assert adjoint(p * q) == adjoint(q) * adjoint(p)

    def test_antihomomorphism_float(self):
        # float coefficients: summation order differs, so compare to roundoff
        rng = np.random.default_rng(8)
        for _ in range(20):
            p, q = random_poly(rng), random_poly(rng)
            assert poly_allclose(adjoint(p * q), adjoint(q) * adjoint(p), tol=1e-12)


class TestSelfadjoint:
    def test_anticommutator(self):
        assert is_selfadjoint(Z1 * Z2 + Z2 * Z1)

    def test_single_word(self):
        assert not is_selfadjoint(Z1 * Z2)

    def test_imaginary_commutator(self):
        assert is_selfadjoint(1j * (Z1 * Z2 - Z2 * Z1))


class TestStarSquare:
    def test_letter(self):
        assert star_square(Z1) == Z1 * Z1

    def test_word(self):
        assert star_square(Z1 * Z2) == Z2 * Z1 * Z1 * Z2

    def test_difference_expansion(self):
        assert star_square(Z1 - Z2) == Z1 * Z1 - Z1 * Z2 - Z2 * Z1 + Z2 * Z2

    def test_always_selfadjoint(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            assert is_selfadjoint(star_square(random_poly(rng)))

    def test_same_kernel_on_matrices(self):
        rng = np.random.default_rng(10)
        p = Z1 * Z2 - 0.5 * Z2
        for _ in range(5):
            A1, A2 = random_hermitian(rng, 4), random_hermitian(rng, 4)
            P = eval_matrices(p, A1, A2)
            Q = eval_matrices(star_square(p), A1, A2)
            np.testing.assert_allclose(Q, P.conj().T @ P, atol=1e-12)
            assert np.linalg.matrix_rank(P, tol=1e-10) == np.linalg.matrix_rank(Q, tol=1e-10)


class TestEvalMatrices:
    def test_identity_pair(self):
        p = Z1 * Z2 + Z2 * Z1
        out = eval_matrices(p, np.eye(2), np.eye(2))
        np.testing.assert_allclose(out, 2 * np.eye(2))

    def test_projection_flip_pair(self):
        p = Z1 * Z2 + Z2 * Z1
        A1 = np.diag([1.0, 0.0])
        A2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = A1 @ A2 + A2 @ A1
        np.testing.assert_allclose(eval_matrices(p, A1, A2), expected)
        np.testing.assert_allclose(expected, [[0, 1], [1, 0]])

    def test_empty_word_is_identity(self):
        np.testing.assert_allclose(eval_matrices(NCPoly.one(), np.zeros((3, 3)), np.zeros((3, 3))), np.eye(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_matrices(Z1, np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            eval_matrices(Z1, np.zeros((4, 2, 3)), np.zeros((4, 2, 3)))

    def test_stack_is_evaluated_block_by_block(self):
        rng = np.random.default_rng(13)
        p = Z1 * Z2 * Z1 - 2j * Z2 + 0.5
        S1 = np.stack([random_hermitian(rng, 2) for _ in range(4)])
        S2 = np.stack([random_hermitian(rng, 2) for _ in range(4)])
        out = eval_matrices(p, S1, S2)
        assert out.shape == (4, 2, 2)
        for i in range(4):
            np.testing.assert_allclose(out[i], eval_matrices(p, S1[i], S2[i]), atol=1e-12)

    def test_hermitian_output_for_selfadjoint(self):
        rng = np.random.default_rng(11)
        p = Z1 * Z2 + Z2 * Z1 + 0.25 * Z1 - 2.0
        for _ in range(5):
            A1, A2 = random_hermitian(rng, 5), random_hermitian(rng, 5)
            out = eval_matrices(p, A1, A2)
            np.testing.assert_allclose(out, out.conj().T, atol=1e-12)

    def test_homomorphism_on_words(self):
        rng = np.random.default_rng(12)
        A1, A2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        p, q = Z1 * Z2 + 1.5, Z2 * Z2 - 1j * Z1
        np.testing.assert_allclose(
            eval_matrices(p * q, A1, A2),
            eval_matrices(p, A1, A2) @ eval_matrices(q, A1, A2),
            atol=1e-12,
        )


class TestTextSyntax:
    def test_anticommutator(self):
        assert parse_poly("Z1*Z2 + Z2*Z1") == Z1 * Z2 + Z2 * Z1

    def test_constant_term(self):
        assert parse_poly("Z1*Z2 + Z2*Z1 - 0.5") == Z1 * Z2 + Z2 * Z1 - 0.5

    def test_juxtaposition_and_powers(self):
        assert parse_poly("Z1Z2Z1") == Z1 * Z2 * Z1
        assert parse_poly("Z1^2 - Z2**3") == Z1 * Z1 - Z2 * Z2 * Z2

    def test_imaginary_coefficients(self):
        assert parse_poly("i*Z1Z2 - i*Z2Z1") == 1j * (Z1 * Z2 - Z2 * Z1)
        assert parse_poly("2i") == NCPoly.constant(2j)

    def test_round_trip_idempotent(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p = random_poly(rng)
            once = parse_poly(format_poly(p))
            twice = parse_poly(format_poly(once))
            assert once == p
            assert twice == once

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(terms=st.lists(
        st.tuples(st.lists(st.sampled_from([1, 2]), max_size=4),
                  st.builds(complex, st.floats(allow_nan=False, allow_infinity=False),
                            st.floats(allow_nan=False, allow_infinity=False))),
        max_size=6))
    def test_round_trip_property(self, terms):
        p = NCPoly(terms)
        assert p.degree <= 4
        assert parse_poly(format_poly(p)) == p

    def test_rejects_garbage(self):
        for bad in ["Z3", "Z1 Z2 +", "* Z1", "Z1 ^ x", "Z1 * * Z2", "Z1 *", "(1 + 2"]:
            with pytest.raises(ValueError):
                parse_poly(bad)

    @pytest.mark.parametrize("text, message", [
        ("Z1^1e400", "exponent 1e400 is not finite"),
        ("1e400*Z1", "coefficient 1e400 is not finite"),
        ("Z2 + (1 + 1e999i)*Z1", "coefficient 1e999 is not finite"),
        ("1e200*1e200*Z1", r"the coefficient of a term overflows to \(inf\+0j\)"),
    ], ids=["exponent", "coefficient", "complex-group", "product"])
    def test_rejects_non_finite_numbers_by_name(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_poly(text)


class TestCanonicalForm:
    def test_merge_and_drop(self):
        p = NCPoly([((1,), 1.0), ((1,), -1.0), ((2,), 2.0)])
        assert p == 2 * Z2
        assert len(p.terms) == 1

    def test_grlex_order(self):
        p = Z2 * Z1 + Z1 + NCPoly.one() + Z1 * Z2
        words = [w for w, _ in p.terms]
        assert words == [(), (1,), (1, 2), (2, 1)]

    def test_degree(self):
        assert (Z1 * Z2 * Z1).degree == 3
        assert NCPoly.one().degree == 0
        assert NCPoly.zero().degree == 0
