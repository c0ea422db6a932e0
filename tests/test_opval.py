import json

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from freeatoms import atoms, cli
from freeatoms import measure as M
from freeatoms import opval as O
from freeatoms.atoms import AtomReport, RegularizationResult, _matrix_sqrt
from freeatoms.errors import HalfPlaneError
from freeatoms.linearize import LinearPencil
from freeatoms.subord import FreeSumModel

from block_pencil import SUM_BLOCK_PENCIL
from matrix_json import decode


def random_hermitian(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (m + m.conj().T) / 2


def brute_kernel_dim(m, tol=1e-8):
    s = np.linalg.svd(np.atleast_2d(m), compute_uv=False)
    return int(np.sum(s <= tol * max(s[0], 1.0)))


class TestMatrixCauchy:
    def test_zero_coefficient_gives_inverse(self):
        z = np.array([[2j, 0.3], [0.3, 1j]])
        g = O.matrix_cauchy(np.zeros((2, 2)), M.semicircle_measure(), z)
        np.testing.assert_allclose(g, np.linalg.inv(z), atol=1e-12)

    def test_scalar_reduction(self):
        mu = M.SpectralMeasure(
            atoms=((0.5, 0.4),),
            continuous=(M.UniformPiece(-1, 0, 0.6),),
            support=(-1, 1),
        )
        z = 0.2 + 0.7j
        g = O.matrix_cauchy(np.eye(1), mu, np.array([[z]]))
        assert g[0, 0] == pytest.approx(M.cauchy_scalar(mu, z), abs=1e-12)

    def test_two_by_two_point_mass(self):
        a = np.diag([1.0, -1.0])
        g = O.matrix_cauchy(a, M.point_mass(1.0), 1j * np.eye(2))
        np.testing.assert_allclose(np.diag(g), [(-1 - 1j) / 2, (1 - 1j) / 2], atol=1e-14)

    def test_negative_imaginary_part(self):
        rng = np.random.default_rng(21)
        mu = M.semicircle_measure(0, 2)
        for _ in range(8):
            a = random_hermitian(rng, 3)
            z = random_hermitian(rng, 3) + 1j * (np.eye(3) + 0.3 * random_hermitian(rng, 3) @ np.eye(3) * 0)
            g = O.matrix_cauchy(a, mu, z)
            assert np.linalg.eigvalsh(O.imag_part(g)).max() < 0

    def test_resolvent_scale_bound(self):
        rng = np.random.default_rng(22)
        mu = M.bernoulli_symmetric()
        for _ in range(8):
            a = random_hermitian(rng, 2)
            y = float(rng.uniform(0.2, 2.0))
            z = random_hermitian(rng, 2) + 1j * y * np.eye(2)
            g = O.matrix_cauchy(a, mu, z)
            bound = np.linalg.norm(np.linalg.inv(O.imag_part(z)), 2)
            assert np.linalg.norm(g, 2) <= bound + 1e-10

    def test_rejects_non_upper(self):
        with pytest.raises(HalfPlaneError):
            O.matrix_cauchy(np.eye(2), M.point_mass(0.0), np.diag([1j, -1j]))


# one atom and one piece of every family, the table with a kink
MIXED_LAW = M.SpectralMeasure(
    atoms=((0.3, 0.2),),
    continuous=(
        M.SemicirclePiece(-2.0, 0.8, 0.3),
        M.ArcsinePiece(-1.0, 0.2, 0.2),
        M.UniformPiece(0.5, 1.0, 0.1),
        M.TablePiece((1.2, 1.6, 2.0, 2.4), (0.0, 1.5, 1.0, 0.0), 0.2),
    ),
    support=(-3.0, 3.0),
)


def quadrature_cauchy(a, mu, z, rtol=1e-14):
    """Reference: atoms exactly, every piece by adaptive quadrature."""
    total = sum(m * np.linalg.inv(z - x * a) for x, m in mu.atoms)
    for p in mu.continuous:
        resolvent = lambda ts: np.linalg.inv(z[None] - np.asarray(ts)[:, None, None] * a[None])
        total = total + p.weight * M.integrate_piece(resolvent, p, rtol=rtol)
    return total


def singular_coefficient(rng):
    """Hermitian 3 x 3 of rank 2, like the zero block of a linearization pencil."""
    v = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    return v @ np.diag([1.0, -2.0]) @ v.conj().T


class TestClosedFormTransform:
    @pytest.mark.parametrize("y", [1.0, 1e-2, 1e-4, 1e-6])
    def test_matches_quadrature_singular_coefficient(self, y):
        rng = np.random.default_rng(31)
        a = singular_coefficient(rng)
        z = random_hermitian(rng, 3) + 1j * y * np.eye(3)
        ref = quadrature_cauchy(a, MIXED_LAW, z)
        g = O.matrix_cauchy(a, MIXED_LAW, z)
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_forced_quadrature_fallback_agrees(self, monkeypatch):
        rng = np.random.default_rng(32)
        a = singular_coefficient(rng)
        z = random_hermitian(rng, 3) + 1j * (0.5 * np.eye(3) + 0.1 * random_hermitian(rng, 3))
        exact = O.matrix_cauchy(a, MIXED_LAW, z)
        monkeypatch.setattr(O, "_EIG_COND_LIMIT", 0.0)
        fallback = O.matrix_cauchy(a, MIXED_LAW, z)
        assert np.max(np.abs(fallback - exact)) <= 1e-12 * np.max(np.abs(exact))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           y=st.floats(1e-3, 2.0), with_atom=st.booleans())
    def test_nevanlinna_invariants(self, seed, n, y, with_atom):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, n)
        if n > 1 and rng.uniform() < 0.5:
            a[:, -1] = a[-1, :] = 0.0  # singular coefficient
        # Im z positive definite with smallest eigenvalue y
        b = random_hermitian(rng, n)
        im = b @ b.conj().T
        im = im - np.linalg.eigvalsh(im).min() * np.eye(n) + y * np.eye(n)
        z = random_hermitian(rng, n) + 1j * im
        mass = float(rng.uniform(0.1, 0.5)) if with_atom else 0.0
        c = float(rng.uniform(-1.0, 1.0))
        mu = M.SpectralMeasure(
            atoms=((c, mass),) if with_atom else (),
            continuous=(M.SemicirclePiece(c - 2.0, 0.5, 0.4 * (1 - mass)),
                        M.ArcsinePiece(c - 1.0, c - 0.5, 0.3 * (1 - mass)),
                        M.UniformPiece(c + 0.5, c + 1.0, 0.3 * (1 - mass))),
            support=(c - 2.5, c + 1.0),
        )
        g = O.matrix_cauchy(a, mu, z)
        assert np.linalg.eigvalsh(O.imag_part(g)).max() <= 1e-12 * np.linalg.norm(g, 2)
        f = np.linalg.inv(g)
        gap = np.linalg.eigvalsh(O.imag_part(f) - im).min()
        assert gap >= -1e-9 * max(1.0, np.linalg.norm(f, 2))


class TestPreparedCoefficient:
    """Coefficient(a) gives the plain-array transforms bit for bit, at every point."""

    @staticmethod
    def coefficient(kind, rng):
        if kind == "full-rank":
            return random_hermitian(rng, 3)
        if kind == "singular":
            return singular_coefficient(rng)
        return np.zeros((3, 3))

    @pytest.mark.parametrize("kind", ["full-rank", "singular", "zero"])
    @pytest.mark.parametrize("law", ["atomic", "mixed"])
    def test_bit_identical_to_plain_array(self, kind, law):
        rng = np.random.default_rng(33)
        a = self.coefficient(kind, rng)
        mu = M.atomic_measure([(-1.0, 0.25), (0.5, 0.75)]) if law == "atomic" else MIXED_LAW
        prepared = O.Coefficient(a)
        for y in (1.0, 1e-3, 1e-6):
            z = random_hermitian(rng, 3) + 1j * y * np.eye(3)
            for transform in (O.matrix_cauchy, O.matrix_f):
                assert transform(prepared, mu, z).tobytes() == transform(a, mu, z).tobytes()

    def test_bit_identical_on_quadrature_fallback(self, monkeypatch):
        rng = np.random.default_rng(34)
        a = singular_coefficient(rng)
        z = random_hermitian(rng, 3) + 1j * (0.5 * np.eye(3) + 0.1 * random_hermitian(rng, 3))
        monkeypatch.setattr(O, "_EIG_COND_LIMIT", 0.0)
        prepared = O.Coefficient(a)
        for transform in (O.matrix_cauchy, O.matrix_f):
            assert transform(prepared, MIXED_LAW, z).tobytes() == transform(a, MIXED_LAW, z).tobytes()

    def test_eigen_split(self):
        rng = np.random.default_rng(35)
        a = singular_coefficient(rng)
        U, Uh, d = O.Coefficient(a).split
        assert d.shape == (2,)
        np.testing.assert_allclose(U[:, :2] * d @ Uh[:2], a, atol=1e-12)
        assert O.Coefficient(np.zeros((2, 2))).split[2].size == 0

    def test_atomic_solve_runs_no_eigh(self, monkeypatch):
        # the eigen split serves only continuous parts: an atomic solve never
        # computes it, and forcing it changes no bit of the solution
        from freeatoms import subord

        atomic = M.atomic_measure([(-1.0, 0.25), (0.5, 0.75)])
        model = FreeSumModel(np.diag([1.0, -0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]),
                             atomic, M.bernoulli_symmetric())
        z = np.array([[0.3 + 0.4j, 0.1], [0.1, -0.2 + 0.6j]])
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(args) or eigh(*args))
        lazy = subord.solve_subordination(model, z)
        subord.sum_density(model, np.linspace(-2.0, 2.0, 5))
        assert calls == []

        class Eager(O.Coefficient):
            def __init__(self, a):
                super().__init__(a)
                self.split

        monkeypatch.setattr(subord, "Coefficient", Eager)
        eager = subord.solve_subordination(model, z)
        assert len(calls) == 2
        for field in ("omega1", "omega2", "cauchy"):
            assert getattr(eager, field).tobytes() == getattr(lazy, field).tobytes()
        assert eager.residual_fixed_point == lazy.residual_fixed_point
        assert eager.iterations == lazy.iterations

    def test_still_rejects_non_upper(self):
        c = O.Coefficient(np.eye(2))
        for transform in (O.matrix_cauchy, O.matrix_f):
            with pytest.raises(HalfPlaneError):
                transform(c, M.semicircle_measure(), np.diag([1j, -1j]))


CONTINUOUS_LAW = M.SpectralMeasure(
    atoms=(),
    continuous=(M.SemicirclePiece(-2.0, 0.8, 0.5), M.ArcsinePiece(-1.0, 0.2, 0.3),
                M.UniformPiece(0.5, 1.0, 0.2)),
    support=(-3.0, 3.0),
)


class TestStackedTransform:
    """A stack (K, n, n) is evaluated slice by slice, as K calls would."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), k=st.integers(1, 5),
           law=st.sampled_from(["atomic", "continuous", "mixed"]), rank_deficient=st.booleans())
    def test_stack_equals_slices(self, seed, n, k, law, rank_deficient):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, n)
        if rank_deficient:
            a[:, -1] = a[-1, :] = 0.0  # the zero coefficient when n = 1
        mu = {"atomic": M.atomic_measure([(-1.0, 0.25), (0.3, 0.5), (1.5, 0.25)]),
              "continuous": CONTINUOUS_LAW, "mixed": MIXED_LAW}[law]
        z = np.stack([random_hermitian(rng, n)
                      + 1j * float(10.0 ** rng.uniform(-3, 0.3)) * np.eye(n)
                      for _ in range(k)])
        for transform in (O.matrix_cauchy, O.matrix_f):
            stacked = transform(a, mu, z)
            assert stacked.shape == z.shape
            for zk, gk in zip(z, stacked):
                ref = transform(a, mu, zk)
                assert np.max(np.abs(gk - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_quadrature_fallback_only_for_flagged_slices(self, monkeypatch):
        # at a scalar point the eigenbasis of the diagonal coefficient's
        # pencil is the identity (condition number 1); a generic point's is not
        rng = np.random.default_rng(36)
        a = np.diag([1.0, -0.5, 2.0])
        z = np.stack([(0.3 + 0.8j) * np.eye(3),
                      random_hermitian(rng, 3) + 1j * (0.5 * np.eye(3) + 0.1 * random_hermitian(rng, 3)),
                      (-0.2 + 1.1j) * np.eye(3)])
        exact = O.matrix_cauchy(a, MIXED_LAW, z)
        integrated = []
        integrate_piece = O.integrate_piece

        def counting(f, piece, *args, **kwargs):
            integrated.append(piece)
            return integrate_piece(f, piece, *args, **kwargs)

        monkeypatch.setattr(O, "integrate_piece", counting)
        monkeypatch.setattr(O, "_EIG_COND_LIMIT", 1.5)
        mixed = O.matrix_cauchy(a, MIXED_LAW, z)
        assert len(integrated) == len(MIXED_LAW.continuous)  # the middle slice alone
        assert mixed[0].tobytes() == exact[0].tobytes()
        assert mixed[2].tobytes() == exact[2].tobytes()
        assert mixed[1].tobytes() == O.matrix_cauchy(a, MIXED_LAW, z[1]).tobytes()
        assert np.max(np.abs(mixed[1] - exact[1])) <= 1e-12 * np.max(np.abs(exact[1]))

    def test_validate_upper_names_the_bad_slice(self):
        good = 1j * np.eye(2)
        z = np.stack([good, good, np.diag([1j, -1j]), good])
        with pytest.raises(HalfPlaneError, match=r"^z\[2\] must have positive definite"):
            O.validate_upper(z, "z")
        with pytest.raises(HalfPlaneError, match=r"z\[2\]"):
            O.matrix_cauchy(np.eye(2), M.semicircle_measure(), z)
        assert O.validate_upper(z[:2], "z").shape == (2, 2, 2)

    def test_min_imag_eig_per_slice(self):
        z = np.stack([1j * np.eye(2), np.diag([2j, 0.5j])])
        np.testing.assert_allclose(O.min_imag_eig(z), [1.0, 0.5])
        assert isinstance(O.min_imag_eig(z[1]), float)


class TestMatrixF:
    def test_zero_coefficient_identity(self):
        z = np.array([[1j, 0.1], [0.1, 2j]])
        np.testing.assert_allclose(O.matrix_f(np.zeros((2, 2)), M.point_mass(0.5), z), z, atol=1e-12)

    def test_scalar_reduction(self):
        mu = M.bernoulli_symmetric()
        z = 0.3 + 1.1j
        f = O.matrix_f(np.eye(1), mu, np.array([[z]]))
        assert f[0, 0] == pytest.approx(M.f_scalar(mu, z), abs=1e-12)

    def test_point_mass_two_by_two(self):
        a = np.diag([1.0, -1.0])
        f = O.matrix_f(a, M.point_mass(1.0), 1j * np.eye(2))
        np.testing.assert_allclose(f, np.diag([1j - 1, 1j + 1]), atol=1e-13)

    def test_nevanlinna_matrix_property(self):
        rng = np.random.default_rng(23)
        mu = M.semicircle_measure(0, 2)
        for _ in range(8):
            a = random_hermitian(rng, 3)
            y = float(rng.uniform(0.1, 1.5))
            z = random_hermitian(rng, 3) + 1j * y * np.eye(3)
            f = O.matrix_f(a, mu, z)
            gap = np.linalg.eigvalsh(O.imag_part(f) - O.imag_part(z)).min()
            assert gap >= -1e-9


class TestPencilKernelRank:
    """k(t) = dim ker(b - t a) / n, read through ``kernel_profile`` hinted at t."""

    @staticmethod
    def k_at(a, b, t):
        prof = O.kernel_profile(a, b, hints=[t])
        return dict(prof.exceptional).get(float(t), prof.k_min)

    def test_full_kernel(self):
        assert self.k_at(np.diag([1.0, -1.0]), np.zeros((2, 2)), 0.0) == 1

    def test_invertible(self):
        assert self.k_at(np.diag([1.0, -1.0]), np.zeros((2, 2)), 1.0) == 0

    def test_half(self):
        assert self.k_at(np.eye(2), np.diag([1.0, 2.0]), 1.0) == Fraction(1, 2)

    def test_matches_brute_svd(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a, b = random_hermitian(rng, n), random_hermitian(rng, n)
            t = float(rng.standard_normal())
            k = self.k_at(a, b, t)
            assert k == Fraction(brute_kernel_dim(b - t * a), n)


class TestKernelProfile:
    def test_diag_pencil(self):
        prof = O.kernel_profile(np.diag([1.0, -1.0]), np.zeros((2, 2)), hints=[0.0])
        assert prof.k_min == 0
        assert prof.exceptional == ((0.0, Fraction(1, 1)),)

    def test_zero_pencil_scalar(self):
        prof = O.kernel_profile(np.zeros((1, 1)), np.zeros((1, 1)))
        assert prof.k_min == 1
        assert prof.exceptional == ()

    def test_generalized_eigs(self):
        prof = O.kernel_profile(np.eye(2), np.diag([1.0, 2.0]), hints=[2.0, 1.0])
        assert prof.k_min == 0
        assert [(round(t, 9), k) for t, k in prof.exceptional] == [
            (1.0, Fraction(1, 2)),
            (2.0, Fraction(1, 2)),
        ]

    def test_reads_k_only_at_the_hints(self):
        # det(b - t a) vanishes at t = 1 and t = 2, but only the hint is read
        prof = O.kernel_profile(np.eye(2), np.diag([1.0, 2.0]), hints=[2.0])
        assert prof.exceptional == ((2.0, Fraction(1, 2)),)
        assert O.kernel_profile(np.eye(2), np.diag([1.0, 2.0])).exceptional == ()

    def test_close_atoms_are_not_merged(self):
        # two atoms 1e-4 apart at 1e6 are each an exceptional point
        t1, t2 = 1e6, 1e6 + 1e-4
        mu = M.atomic_measure([(t1, 0.5), (t2, 0.5)])
        prof = O.kernel_profile(np.eye(2), np.diag([t1, t2]), hints=[t1, t2, t1])
        assert prof.exceptional == ((t1, Fraction(1, 2)), (t2, Fraction(1, 2)))
        assert prof.kernel_trace(mu) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("a, b", [
        (np.eye(1), np.zeros((1, 1))),
        (np.diag([1.0, 1.0 + 5e-10]), np.zeros((2, 2))),
    ], ids=["scalar", "diag"])
    def test_atoms_within_1e9_keep_their_own_mass(self, a, b):
        # both atoms are exceptional points with k = 1; each adds its own mass
        mu = M.atomic_measure([(0.0, 0.3), (5e-10, 0.7)])
        assert O.pencil_kernel_trace(a, b, mu) == pytest.approx(1.0, abs=1e-12)

    def test_draws_no_random_numbers(self, monkeypatch):
        rng = np.random.default_rng(26)
        cases = [(random_hermitian(rng, n), random_hermitian(rng, n)) for n in (1, 2, 4)]
        cases.append((np.diag([1.0, 0.0]), np.diag([2.0, 0.0])))
        expected = [O.kernel_profile(a, b, hints=[0.5, 2.0]) for a, b in cases]

        def no_rng(*args, **kwargs):
            raise AssertionError("kernel_profile drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        assert [O.kernel_profile(a, b, hints=[0.5, 2.0]) for a, b in cases] == expected

    def test_hints_are_checked_not_trusted(self):
        prof = O.kernel_profile(np.eye(2), np.diag([1.0, 2.0]), hints=[5.0])
        assert all(t != 5.0 for t, _ in prof.exceptional)

    def test_singular_pencil_candidates(self):
        # rank-1 pencil: b - t a singular for all t, exceptional point at t=2
        a = np.diag([1.0, 0.0])
        b = np.diag([2.0, 0.0])
        prof = O.kernel_profile(a, b, hints=[2.0])
        assert prof.k_min == Fraction(1, 2)
        assert [(round(t, 9), k) for t, k in prof.exceptional] == [(2.0, Fraction(1, 1))]

    def test_planted_exceptional_points(self):
        rng = np.random.default_rng(25)
        srng = np.random.default_rng(27)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            t0 = float(rng.uniform(-2, 2))
            # b = t0 a + c with c of kernel dimension r >= 1
            a = random_hermitian(rng, n)
            r = int(rng.integers(1, n))
            v = rng.standard_normal((n, n - r)) + 1j * rng.standard_normal((n, n - r))
            c = v @ v.conj().T
            b = t0 * a + c
            prof = O.kernel_profile(a, b, hints=[t0])
            k_t0 = dict(prof.exceptional)[t0]
            assert k_t0 >= Fraction(r, n)
            assert k_t0 > prof.k_min
            # singular pencil S* blockdiag(0_k, regular) S: b - t a has a
            # kernel of dimension >= k at every t
            k = int(srng.integers(1, n))
            s = srng.standard_normal((n, n)) + 1j * srng.standard_normal((n, n))
            blocks = []
            for m in (a, b):
                embedded = np.zeros((n, n), dtype=complex)
                embedded[k:, k:] = m[k:, k:]
                blocks.append(s.conj().T @ embedded @ s)
            a_s, b_s = blocks
            prof = O.kernel_profile(a_s, b_s, hints=[t0])
            brute = max(n - brute_kernel_dim(b_s - t * a_s) for t in srng.uniform(-3, 3, 4 * n))
            assert prof.k_min == Fraction(n - brute, n)
            assert prof.k_min >= Fraction(k, n)


class TestPencilKernelTrace:
    def test_scalar_atom(self):
        mu = M.atomic_measure([(0.0, 0.7), (1.0, 0.3)])
        val = O.pencil_kernel_trace(np.eye(1), np.zeros((1, 1)), mu)
        assert val == pytest.approx(0.7, abs=1e-12)

    def test_atomless_integer(self):
        val = O.pencil_kernel_trace(np.diag([1.0, -1.0]), np.zeros((2, 2)), M.semicircle_measure(0, 2))
        assert val == pytest.approx(0.0, abs=1e-12)
        assert abs(2 * val - round(2 * val)) < 1e-9

    def test_constant_half(self):
        mu = M.SpectralMeasure(
            atoms=((0.3, 0.5),),
            continuous=(M.UniformPiece(-1, 0, 0.5),),
            support=(-1, 0.5),
        )
        val = O.pencil_kernel_trace(np.zeros((2, 2)), np.diag([0.0, 1.0]), mu)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_atom_mass(self):
        # adding mass to an exceptional atom grows the trace with slope k_t - k_min
        a = np.diag([1.0, -1.0])
        b = np.zeros((2, 2))  # exceptional at t=0 with k=1, k_min=0
        vals = []
        for m in [0.2, 0.4, 0.6]:
            mu = M.SpectralMeasure(
                atoms=((0.0, m),),
                continuous=(M.UniformPiece(1.0, 2.0, 1 - m),),
                support=(0, 2),
            )
            vals.append(O.pencil_kernel_trace(a, b, mu))
        np.testing.assert_allclose(np.diff(vals), [0.2, 0.2], atol=1e-10)

    def test_agrees_with_empirical_block_masses(self):
        # brute-force oracle: eigenvalues of b - t_k a over quantile spectra
        rng = np.random.default_rng(26)
        N = 400
        for _ in range(4):
            n = int(rng.integers(1, 4))
            t0 = float(rng.uniform(-1, 1))
            a = random_hermitian(rng, n)
            v = rng.standard_normal((n, max(n - 1, 1)))
            b = t0 * a + v @ v.T
            mu = M.SpectralMeasure(
                atoms=((t0, 0.5),),
                continuous=(M.SemicirclePiece(3.0, 1.0, 0.5),),
                support=(min(t0, 2.0), 4.0),
            )
            ts = M.quantiles(mu, N)
            count = 0
            for t in ts:
                count += brute_kernel_dim(b - t * a)
            emp = count / (n * N)
            val = O.pencil_kernel_trace(a, b, mu)
            assert abs(val - emp) <= 2.0 / N + 1e-9


class TestExpectedKernelProjection:
    def test_atom_projection(self):
        mu = M.atomic_measure([(0.0, 0.7), (1.0, 0.3)])
        proj, err = O.expected_kernel_projection(np.eye(1), np.zeros((1, 1)), mu)
        assert proj[0, 0] == pytest.approx(0.7)
        assert err == 0.0

    def test_transformed_subspace(self):
        # kernel of b - 0*a at the atom is span(e1); transform rotates it
        a = np.diag([1.0, -1.0])
        b = np.diag([0.0, 2.0])  # ker(b - 0 a) = span(e1)
        mu = M.atomic_measure([(0.0, 1.0)])
        T = np.array([[1.0, 0.0], [1.0, 1.0]])
        proj, _ = O.expected_kernel_projection(a, b, mu, transform=T)
        v = T @ np.array([1.0, 0.0])
        v = v / np.linalg.norm(v)
        np.testing.assert_allclose(proj, np.outer(v, v.conj()), atol=1e-10)

    def test_continuous_generic_kernel(self):
        # constant kernel span(e2) regardless of t: projection survives integration
        a = np.diag([1.0, 0.0])
        b = np.diag([3.0, 0.0])
        mu = M.uniform_measure(0.0, 1.0)
        proj, _ = O.expected_kernel_projection(a, b, mu)
        np.testing.assert_allclose(proj, np.diag([0.0, 1.0]), atol=1e-9)

    def test_supplied_profile_gives_the_same_projection_and_trace(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 3)
        b[:, 0] = b[0, :] = 0.0
        mu = M.atomic_measure([(0.0, 0.6), (1.5, 0.4)])
        profile = O.kernel_profile(a, b, hints=[0.0, 1.5])
        with_profile, _ = O.expected_kernel_projection(a, b, mu, profile=profile)
        assert with_profile.tobytes() == O.expected_kernel_projection(a, b, mu)[0].tobytes()
        assert profile.kernel_trace(mu) == O.pencil_kernel_trace(a, b, mu)


def quadrature_kernel_projection(a, b, mu, T):
    """Reference: each atom's projection plus integrate_piece over the projection onto T ker(b - t a)."""
    n = a.shape[0]

    def proj_at(t):
        null = O.kernel_basis(b - t * a)
        if null.shape[1] == 0:
            return np.zeros((n, n), dtype=complex)
        q, _ = np.linalg.qr(T @ null)
        return q @ q.conj().T

    total = sum((m * proj_at(x) for x, m in mu.atoms), np.zeros((n, n), dtype=complex))
    for p in mu.continuous:
        total = total + p.weight * M.integrate_piece(
            lambda ts: np.stack([proj_at(float(t)) for t in ts]), p, rtol=1e-10)
    return O.herm_part(total)


def singular_pencil(rng, q, grow=None):
    """(a, b) with b - t a singular at every t and a kernel that turns with t.

    The block [[0, x(t)], [x(t)*, 0]] with the 1 x q row x(t) = x0 - t x1
    has the kernel {(0, v) : x(t) v = 0}, so k_min = (q - 1)/(q + 1).
    ``grow`` appends the 1 x 1 block grow - t, which adds a kernel
    direction at t = grow alone.
    """
    x0, x1 = rng.standard_normal((2, q)) + 1j * rng.standard_normal((2, q))
    size = q + 1 + (grow is not None)
    blocks = []
    for x, d in ((x1, 1.0), (x0, grow)):
        m = np.zeros((size, size), dtype=complex)
        m[0, 1:q + 1], m[1:q + 1, 0] = x, x.conj()
        if grow is not None:
            m[-1, -1] = d
        blocks.append(m)
    return tuple(blocks)


def transform_with_condition(rng, n, cond):
    """Invertible T = Q1 diag(sigma) Q2 with 2-norm condition number ``cond``."""
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
              for _ in range(2))
    return (q1 * np.logspace(0, -np.log10(cond), n)) @ q2


KERNEL_LAWS = {
    "semicircle": M.semicircle_measure(0.0, 2.0),
    "arcsine": M.arcsine_measure(-1.5, 1.5),
    "uniform": M.uniform_measure(-1.0, 1.0),
    "table": M.SpectralMeasure(
        continuous=(M.TablePiece((-1.0, 0.0, 0.5, 1.5), (0.0, 8 / 9, 4 / 9, 0.0), 1.0),),
        support=(-1.0, 1.5)),
    "mixed": MIXED_LAW,
}


class TestKernelProjectionLimit:
    """The continuous part of a singular pencil's kernel projection as a limit of the transform."""

    def check(self, a, b, mu, T):
        proj, err = O.expected_kernel_projection(a, b, mu, transform=T)
        ref = quadrature_kernel_projection(a, b, mu, T)
        assert np.max(np.abs(proj - ref)) <= 1e-10
        assert 0.0 < err <= O.KERNEL_LIMIT_TOL
        return proj

    @pytest.mark.parametrize("law", sorted(KERNEL_LAWS))
    @pytest.mark.parametrize("q, k_min", [(2, Fraction(1, 3)), (3, Fraction(1, 2)),
                                          (5, Fraction(2, 3))])
    def test_singular_pencils_match_quadrature(self, law, q, k_min):
        rng = np.random.default_rng(41 + q)
        a, b = singular_pencil(rng, q)
        mu = KERNEL_LAWS[law]
        assert O.kernel_profile(a, b, hints=[x for x, _ in mu.atoms]).k_min == k_min
        self.check(a, b, mu, transform_with_condition(rng, q + 1, 3.0))

    @pytest.mark.parametrize("law", sorted(KERNEL_LAWS))
    def test_kernel_growing_inside_the_support(self, law):
        # 0.75 is interior to every law's support and no atom of any
        rng = np.random.default_rng(43)
        a, b = singular_pencil(rng, 2, grow=0.75)
        assert O.numerical_kernel_dim(b - 0.75 * a) == O.numerical_kernel_dim(b - 0.3 * a) + 1
        self.check(a, b, KERNEL_LAWS[law], transform_with_condition(rng, 4, 3.0))

    @pytest.mark.parametrize("cond", [10.0, 100.0, 400.0])
    def test_ill_conditioned_transforms(self, cond):
        rng = np.random.default_rng(44)
        a, b = singular_pencil(rng, 3)
        T = transform_with_condition(rng, 4, cond)
        assert np.linalg.cond(T, 1) <= 1e3
        proj = self.check(a, b, KERNEL_LAWS["semicircle"], T)
        # the limit does not depend on the scale of T
        scaled, _ = O.expected_kernel_projection(a, b, KERNEL_LAWS["semicircle"], transform=50.0 * T)
        assert np.max(np.abs(scaled - proj)) <= 1e-12

    @pytest.mark.parametrize("law", sorted(KERNEL_LAWS))
    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_pencil_gives_its_weight(self, law, n):
        # k_min = 1: every t is in the kernel, so each atom gives its mass
        # times I and the continuous part its weight times I
        mu = KERNEL_LAWS[law]
        T = transform_with_condition(np.random.default_rng(45), n, 10.0)
        zero = np.zeros((n, n))
        proj, err = O.expected_kernel_projection(zero, zero, mu, transform=T)
        np.testing.assert_allclose(proj, np.eye(n), rtol=0, atol=1e-12)
        assert err <= 1e-12

    def test_regular_and_atomic_pencils_report_no_error(self):
        rng = np.random.default_rng(46)
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        assert O.expected_kernel_projection(a, b, MIXED_LAW)[1] == 0.0
        singular = singular_pencil(rng, 2)
        assert O.expected_kernel_projection(*singular, M.atomic_measure([(0.0, 1.0)]))[1] == 0.0

    @pytest.mark.parametrize("cond", [10.0, 400.0])
    def test_rank_one_coefficient_draws_no_quadrature(self, monkeypatch, cond):
        # a rank-one coefficient leaves a 1 x 1 eigenproblem on its range,
        # so the transform cannot fall back to quadrature
        def no_quadrature(*args, **kwargs):
            raise AssertionError("integrate_piece called")

        rng = np.random.default_rng(47)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        q = np.linalg.qr(np.column_stack([v, rng.standard_normal((3, 2))]))[0][:, :2]
        a = np.outer(v, v.conj())
        b = q @ random_hermitian(rng, 2) @ q.conj().T  # a and b vanish on q's complement
        assert O.kernel_profile(a, b).k_min == Fraction(1, 3)
        T = transform_with_condition(rng, 3, cond)
        assert np.linalg.cond(T, 1) <= 1e3
        refs = {name: quadrature_kernel_projection(a, b, law, T) for name, law in KERNEL_LAWS.items()}
        monkeypatch.setattr(O, "integrate_piece", no_quadrature)
        monkeypatch.setattr(M, "integrate_piece", no_quadrature)
        for name, law in KERNEL_LAWS.items():
            proj, err = O.expected_kernel_projection(a, b, law, transform=T)
            assert np.max(np.abs(proj - refs[name])) <= 1e-10
            assert err <= O.KERNEL_LIMIT_TOL

    def test_unsettled_limit_exits_3(self, monkeypatch, tmp_path, capsys):
        # the sum's atom at 0 on two atom + semicircle laws, run on the 3 x 3
        # block pencil of Z1 + Z2: identity (iv) reads the kernel projections
        # of singular pencils
        monkeypatch.setattr(atoms, "linearize", lambda p: (SUM_BLOCK_PENCIL, None))
        laws = []
        for name, mass, center in (("a", 0.7, 1.5), ("b", 0.6, -1.5)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "atoms": [{"x": 0.0, "m": mass}], "support": [-2.5, 2.5],
                "continuous": [{"family": "semicircle", "center": center, "radius": 1.0,
                                "weight": 1.0 - mass}]}))
            laws.append(str(path))
        argv = ["eigtest", "--mu1", laws[0], "--mu2", laws[1], "--poly", "Z1+Z2"]
        assert cli.main(argv + ["--out", str(tmp_path / "ok.json")]) == cli.EXIT_OK
        # E(p) is singular there, so the identities are checked on the doubled
        # pencil, whose report carries the larger of its two pencils' estimates
        report = json.loads((tmp_path / "ok.json").read_text())["regularization"]["report"]
        n, model = report["n"], report["model"]
        errors = []
        for j in (1, 2):
            a, b, beta = (decode(d[key], n) for d, key in
                          ((model, f"a{j}"), (report, f"b{j}"), (report, f"beta{j}")))
            mu = M.SpectralMeasure.from_json_dict(model[f"mu{j}"])
            errors.append(O.expected_kernel_projection(a, b, mu, transform=_matrix_sqrt(beta))[1])
        assert report["diagnostics"]["iv_extrapolation_error"] == max(errors)
        assert 0.0 < max(errors) <= O.KERNEL_LIMIT_TOL

        monkeypatch.setattr(O, "KERNEL_LIMIT_TOL", 1e-300)
        assert cli.main(argv) == cli.EXIT_NOCONV
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"].startswith("kernel projection limit did not settle")
        assert diag["details"]["error_estimate"] > 0.0


def complex_matrices(n, bound=None):
    finite = (st.floats(allow_nan=False, allow_infinity=False) if bound is None
              else st.floats(-bound, bound))
    return hnp.arrays(np.complex128, (n, n),
                      elements=st.builds(complex, finite, finite))


def hermitian_from(m):
    """Hermitian matrix taking m's lower triangle and real diagonal bit for bit."""
    n = m.shape[0]
    lower = np.tril(np.ones((n, n), dtype=bool), -1)
    h = np.where(lower, m, m.conj().T)
    h[np.diag_indices(n)] = m.diagonal().real
    return h


def json_round_trip(d):
    return json.loads(json.dumps(d))


def same_bits(x, y):
    return x.dtype == y.dtype == np.complex128 and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestMatrixJson:
    """Every complex matrix a report writes decodes bit for bit after JSON."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 4))
    def test_round_trips_are_bit_exact(self, data, n):
        def draw(size=n):
            return data.draw(complex_matrices(size))

        def check_written(obj, d, names, size=n):
            for name in names:
                assert same_bits(decode(d[name], size), getattr(obj, name)), name

        m = draw()
        assert same_bits(decode(json_round_trip(O.pack_matrix(m)), n), m)

        mu = M.point_mass(0.5)
        model = FreeSumModel(hermitian_from(draw()), hermitian_from(draw()), mu, mu)
        check_written(model, json_round_trip(model.to_json_dict()), ("a1", "a2"))

        pencil = LinearPencil(*(hermitian_from(draw(2 * n)) for _ in range(3)))
        check_written(pencil, json_round_trip(pencil.to_json_dict()), ("a0", "a1", "a2"), 2 * n)

        def report(size, **extra):
            # a kernel expectation 0 <= E_p <= 1 has entries of modulus at most 1,
            # so the trace the report reads its mass from is finite
            E_p = data.draw(complex_matrices(size, bound=1.0))
            return AtomReport(b=draw(size), E_p=E_p, b1=None, b2=None,
                              beta1=None, beta2=None, residuals={"v": 1e-9},
                              regularized=False, **extra)

        inner = report(2 * n)
        reg = RegularizationResult(q1=draw(), q2=draw(), doubled_pencil=pencil, report=inner,
                                   integer_offset=2.0)
        outer = report(n, model=model, regularization=reg)
        outer.b1, outer.b2, outer.beta1, outer.beta2 = draw(), draw(), draw(), draw()
        d = json_round_trip(outer.to_json_dict())
        check_written(outer, d, ("b", "E_p", "b1", "b2", "beta1", "beta2"))
        check_written(model, d["model"], ("a1", "a2"))
        r = d["regularization"]
        check_written(reg, r, ("q1", "q2"))
        check_written(pencil, r["doubled_pencil"], ("a0", "a1", "a2"), 2 * n)
        check_written(inner, r["report"], ("b", "E_p"), 2 * n)
