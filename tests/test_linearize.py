from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freeatoms.errors import PreconditionError
from freeatoms.linearize import (
    LinearPencil,
    corner_shift,
    invertibility_equivalence_check,
    linearize,
    numerical_kernel_dim,
    verify_certificate,
)
from freeatoms.ncpoly import NCPoly, adjoint, eval_matrices, format_poly, is_selfadjoint, star_square

from matrix_json import decode

Z1, Z2 = NCPoly.z1(), NCPoly.z2()
ANTICOMM = Z1 * Z2 + Z2 * Z1


def rherm(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def constants(rows):
    """A matrix of constant polynomials."""
    return tuple(tuple(NCPoly.constant(x) for x in row) for row in rows)


def random_selfadjoint_poly(rng, degree=3, nterms=4):
    q = NCPoly.zero()
    for _ in range(nterms):
        d = int(rng.integers(1, degree + 1))
        word = tuple(rng.integers(1, 3, size=d).tolist())
        c = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        q = q + NCPoly.monomial(word, c)
    p = q + adjoint(q)
    if p.degree < 1:
        p = p + Z1
    return p


class TestLinearize:
    def test_anticommutator_block_structure(self):
        L, cert = linearize(ANTICOMM)
        assert L.n == 3
        np.testing.assert_array_equal(L.a0, np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]))
        np.testing.assert_array_equal(L.a1, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
        np.testing.assert_array_equal(L.a2, np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]]))
        assert list(cert.B) == [Z1, Z2]
        assert [list(row) for row in cert.D] == [
            [NCPoly.zero(), NCPoly.one()],
            [NCPoly.one(), NCPoly.zero()],
        ]
        assert verify_certificate(ANTICOMM, cert)

    def test_degree_one(self):
        p = Z1
        L, cert = linearize(p)
        assert verify_certificate(p, cert)
        # exact symbolic reconstruction of condition (e)
        assert all(b.degree <= 1 for b in cert.B)

    def test_z1_squared_certificate(self):
        p = Z1 * Z1
        L, cert = linearize(p)
        assert verify_certificate(p, cert)

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(PreconditionError):
            linearize(Z1 * Z2)

    def test_subnormal_palindrome_coefficient_is_exact(self):
        # a palindrome is realized once, its coefficient on D's diagonal as
        # given: 5e-324, which has no exact half, needs none
        p = 5e-324 * Z1 * Z1
        L, cert = linearize(p)
        assert L.n == 3 and L.a0[2, 2] == -5e-324
        assert verify_certificate(p, cert)

    @pytest.mark.parametrize("word", [(1, 1), (1, 2, 1), (2, 1, 1, 2), (1, 2, 1, 2, 1)],
                             ids=["d2", "d3", "d4", "d5"])
    def test_palindrome_block_size(self, word):
        p = NCPoly.monomial(word, -1.5)
        L, cert = linearize(p)
        assert L.n == 1 + 2 * (len(word) // 2)
        assert verify_certificate(p, cert)

    # the corner takes the affine part whole: 5e-324 needs no exact half
    @pytest.mark.parametrize("c0, c1, c2", [(0.0, 1.0, 1.0), (0.5, 2.0, -1.0), (-3.0, 0.0, 1.5),
                                            (5e-324, 1.0, 0.0)])
    def test_linear_polynomial_is_its_own_corner(self, c0, c1, c2):
        p = c0 + c1 * Z1 + c2 * Z2
        L, cert = linearize(p)
        assert (L.a0[0, 0], L.a1[0, 0], L.a2[0, 0]) == (-c0, -c1, -c2)
        assert L.n == 1 and cert.m == 0
        assert cert.corner == -p and cert.to_json_dict()["corner"] == format_poly(-p)
        assert verify_certificate(p, cert)

    def test_rejects_constant(self):
        with pytest.raises(PreconditionError):
            linearize(NCPoly.constant(2.0))

    def test_pencil_matches_certificate_entries(self):
        rng = np.random.default_rng(31)
        p = random_selfadjoint_poly(rng)
        L, cert = linearize(p)
        m = cert.m
        assert L.n == 1 + m

        def entry(i, j):  # the affine polynomial a0 + a1 Z1 + a2 Z2 of entry (i, j)
            return NCPoly([((), L.a0[i, j]), ((1,), L.a1[i, j]), ((2,), L.a2[i, j])])

        assert not p.affine_part().is_zero
        assert entry(0, 0) == cert.corner == -p.affine_part()
        for j in range(m):
            assert entry(0, 1 + j) == cert.B[j]
            assert entry(1 + j, 0) == cert.C[j]
        for i in range(m):
            for j in range(m):
                assert entry(1 + i, 1 + j) == cert.D[i][j]

    def test_round_trip_property(self):
        rng = np.random.default_rng(32)
        for _ in range(12):
            p = random_selfadjoint_poly(rng)
            L, cert = linearize(p)
            assert verify_certificate(p, cert)
            for name in ("a0", "a1", "a2"):
                mat = getattr(L, name)
                np.testing.assert_array_equal(mat, mat.conj().T)

    def test_star_square_route_for_nonselfadjoint(self):
        p = star_square(Z1 * Z2 - 0.5)
        assert is_selfadjoint(p)
        L, cert = linearize(p)
        assert verify_certificate(p, cert)


class TestCertificateProperty:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(terms=st.lists(
        st.tuples(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=4),
                  st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))),
        min_size=1, max_size=6),
        constant=st.floats(-1e3, 1e3))
    def test_certificate_holds_for_random_selfadjoint_polys(self, terms, constant):
        q = NCPoly(terms)
        p = q + adjoint(q) + constant
        assume(p.degree >= 1)
        assert is_selfadjoint(p) and p.degree <= 4
        _pencil, cert = linearize(p)
        assert verify_certificate(p, cert)


class TestVerifyCertificate:
    def test_tampered_dprime_fails(self):
        L, cert = linearize(ANTICOMM)
        bad = replace(cert, Dprime=tuple(tuple(-q for q in row) for row in cert.Dprime))
        assert not verify_certificate(ANTICOMM, bad)

    @pytest.mark.parametrize("corner", [NCPoly.zero(), -Z1 - 1.0], ids=["dropped", "negated"])
    def test_tampered_corner_fails(self, corner):
        p = ANTICOMM - Z1 - 1.0
        _, cert = linearize(p)
        assert cert.corner == Z1 + 1.0 and verify_certificate(p, cert)
        assert not verify_certificate(p, replace(cert, corner=corner))

    def test_non_selfadjoint_corner_fails(self):
        # B D' C - corner = q holds, but the pencil would not be Hermitian
        _, cert = linearize(ANTICOMM - Z1)
        assert not verify_certificate(ANTICOMM - Z1 - 1j * Z2,
                                      replace(cert, corner=cert.corner + 1j * Z2))

    def test_wrong_polynomial_fails(self):
        _, cert = linearize(ANTICOMM)
        assert not verify_certificate(Z1 * Z1, cert)

    # each tampered certificate breaks one identity alone: it is checked
    # against the polynomial its own B D' C - corner gives
    @pytest.mark.parametrize("changes", [
        {"C": (Z1 + 1j * Z2, Z2)},
        {"D": constants([[0, 2], [1, 0]]), "Dprime": constants([[0, 1], [0.5, 0]])},
        # D D' = 1 to the bit, D' D = 1 only to roundoff
        {"D": constants([[0.5, 0.3], [0.3, 3.0]]),
         "Dprime": constants([[2.127659574468085, -0.2127659574468085],
                              [-0.21276595744680848, 0.3546099290780142]])},
    ], ids=["C-not-B-star", "D-not-hermitian", "D-prime-one-sided"])
    def test_tampered_identity_fails(self, changes):
        _, cert = linearize(ANTICOMM)
        bad = replace(cert, **changes)
        schur = sum((bad.B[i] * bad.Dprime[i][j] * bad.C[j] for i in range(2) for j in range(2)),
                    NCPoly.zero())
        assert not verify_certificate(schur - bad.corner, bad)

    def test_random_construction_verifies(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            p = random_selfadjoint_poly(rng, degree=3)
            _, cert = linearize(p)
            assert verify_certificate(p, cert)


class TestCornerShift:
    def test_zero_shift_is_identity(self):
        L, _ = linearize(ANTICOMM)
        L0 = corner_shift(L, 0.0)
        np.testing.assert_array_equal(L0.a0, L.a0)

    def test_corner_entry(self):
        L, _ = linearize(ANTICOMM)
        L2 = corner_shift(L, 2.0)
        assert L2.a0[0, 0] == 2.0
        assert L2.a0[1, 2] == 1.0

    def test_additivity(self):
        L, _ = linearize(ANTICOMM)
        twice = corner_shift(corner_shift(L, -1.0), -1.0)
        assert twice.a0[0, 0] == -2.0


class TestInvertibilityEquivalence:
    def test_anticommutator_hundred_trials(self):
        L, _ = linearize(ANTICOMM)
        rep = invertibility_equivalence_check(ANTICOMM, L, trials=100, dim=3, seed=7)
        assert rep.ok
        assert rep.generic_checked == 100
        assert rep.engineered_checked == 100

    def test_pencil_of_another_polynomial_is_caught(self):
        # Z1's pencil is invertible where the anticommutator is, but its
        # corner shift is not singular where lam - p is
        L, _ = linearize(Z1)
        rep = invertibility_equivalence_check(ANTICOMM, L, trials=6, dim=3, seed=7)
        assert not rep.ok
        assert [v["kind"] for v in rep.violations] == ["engineered"] * 6
        assert all(v["ker_p"] >= 1 and v["ker_L"] == 0 for v in rep.violations)

    def test_singular_pencil_is_caught(self):
        zero = np.zeros((2, 2))
        rep = invertibility_equivalence_check(ANTICOMM, LinearPencil(zero, zero, zero), trials=4,
                                              dim=3, seed=7)
        generic = [v for v in rep.violations if v["kind"] == "generic"]
        assert len(generic) == 4
        assert all(not v["p_singular"] and v["L_singular"] for v in generic)

    def test_zero_matrices_both_singular(self):
        L, _ = linearize(ANTICOMM)
        A = np.zeros((2, 2))
        assert numerical_kernel_dim(eval_matrices(ANTICOMM, A, A)) > 0
        assert numerical_kernel_dim(L.evaluate(A, A)) > 0

    def test_z1_diag_singular(self):
        L, _ = linearize(Z1)
        A1 = np.diag([0.0, 1.0])
        A2 = np.zeros((2, 2))
        assert numerical_kernel_dim(eval_matrices(Z1, A1, A2)) == 1
        assert numerical_kernel_dim(L.evaluate(A1, A2)) == 1


class TestKernelTraceIdentity:
    @pytest.mark.parametrize("poly", [ANTICOMM, Z1 * Z1, Z1 * Z2 * Z1], ids=["anticomm", "sq", "pal3"])
    def test_exact_rank_match(self, poly):
        rng = np.random.default_rng(34)
        L, _ = linearize(poly)
        for dim in range(2, 7):
            A1, A2 = rherm(rng, dim), rherm(rng, dim)
            P = eval_matrices(poly, A1, A2)
            lams = list(np.linalg.eigvalsh(P)[:2]) + [0.37]
            for lam in lams:
                shifted = corner_shift(L, float(lam)).evaluate(A1, A2)
                assert numerical_kernel_dim(shifted) == numerical_kernel_dim(
                    lam * np.eye(dim) - P
                )


class TestPencilSerialization:
    def test_json(self):
        L, _ = linearize(ANTICOMM + 0.5 * Z1 - 1.0)
        d = L.to_json_dict()
        assert d["n"] == L.n
        for name in ("a0", "a1", "a2"):
            np.testing.assert_array_equal(decode(d[name], L.n), getattr(L, name))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            LinearPencil(np.array([[0, 1], [0, 0]]), np.zeros((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("name", ["a0", "a1", "a2"])
    def test_rejects_non_finite_coefficients(self, name):
        mats = {key: np.eye(2) for key in ("a0", "a1", "a2")}
        mats[name] = np.array([[1.0, 0.0], [0.0, np.nan]])
        with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
            LinearPencil(**mats)
