import numpy as np
import pytest

from freeatoms import measure as M
from freeatoms import rmt
from freeatoms.errors import PreconditionError
from freeatoms.ncpoly import NCPoly, eval_matrices
from freeatoms.opval import herm_part
from freeatoms.subord import FreeSumModel, scalar_model

from block_pencil import SUM_BLOCK_PENCIL

Z1, Z2 = NCPoly.z1(), NCPoly.z2()
MU1 = M.atomic_measure([(0.0, 0.7), (1.0, 0.3)])
MU2 = M.atomic_measure([(0.0, 0.6), (2.0, 0.4)])
BERN = M.bernoulli_symmetric()
MIXED = M.SpectralMeasure(atoms=((0.0, 0.4),), continuous=(M.SemicirclePiece(2.0, 1.0, 0.6),),
                          support=(-0.1, 3.1))  # atom + semicircle


def grids(spec):
    """The two quantile grids an oracle report of ``spec`` computes."""
    return M.quantiles(spec.mu1, spec.N), M.quantiles(spec.mu2, spec.N)


def poly_trial(spec, poly, rng):
    """The sorted spectrum of ``poly`` in one trial, as a report draws it."""
    return rmt._trial_eigs(spec, *grids(spec), rng, lambda x1, x2: rmt._poly_eigs(poly, x1, x2))


def pencil_trial(spec, model, b, rng):
    """The sorted spectrum of the pencil in one trial, as a report draws it."""
    return rmt._trial_eigs(spec, *grids(spec), rng,
                           lambda x1, x2: rmt._pencil_eigs(model, b, x1, x2))


class TestHaarUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(1)
        u = rmt.haar_unitary(40, rng)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(40), atol=1e-12)

    def test_scalar_case_unit_modulus(self):
        rng = np.random.default_rng(2)
        u = rmt.haar_unitary(1, rng)
        assert abs(abs(u[0, 0]) - 1) < 1e-14

    def test_trace_moment(self):
        # E |tr U|^2 = 1 for Haar; seeded Monte Carlo with generous band
        rng = np.random.default_rng(3)
        vals = [abs(np.trace(rmt.haar_unitary(25, rng))) ** 2 for _ in range(400)]
        assert np.mean(vals) == pytest.approx(1.0, abs=0.25)

    def test_frame_is_the_unitary_of_its_columns(self):
        # a frame is an isometry, and all N columns are the full unitary's bits
        rng = np.random.default_rng(31)
        v = rmt.haar_unitary(30, rng, 7)
        assert v.shape == (30, 7)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(7), atol=1e-12)
        assert np.array_equal(rmt.haar_unitary(30, np.random.default_rng(32), 30),
                              rmt.haar_unitary(30, np.random.default_rng(32)))

    def test_left_invariance_moment(self):
        # tr(V U) has the same first moment as tr(U): zero
        rng = np.random.default_rng(4)
        v = rmt.haar_unitary(20, rng)
        vals = [np.trace(v @ rmt.haar_unitary(20, rng)) for _ in range(300)]
        assert abs(np.mean(vals)) < 0.3


class TestRealizePair:
    def test_point_mass_is_zero_matrix(self):
        spec = rmt.EnsembleSpec(N=16, trials=1, seed=5, mu1=M.point_mass(0.0), mu2=MU2)
        A1, _ = rmt.realize_pair(spec)
        assert np.linalg.norm(A1) < 1e-12

    def test_bernoulli_spectrum(self):
        spec = rmt.EnsembleSpec(N=4, trials=1, seed=6, mu1=BERN, mu2=BERN)
        A1, _ = rmt.realize_pair(spec)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(A1)), [-1, -1, 1, 1], atol=1e-12)

    def test_spectrum_preserved_exactly(self):
        spec = rmt.EnsembleSpec(N=150, trials=1, seed=7, mu1=MU1, mu2=MU2)
        A1, A2 = rmt.realize_pair(spec)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(A1)), M.quantiles(MU1, 150), atol=1e-10
        )
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(A2)), M.quantiles(MU2, 150), atol=1e-10
        )

    def test_freeness_moment_factorization(self):
        spec = rmt.EnsembleSpec(N=400, trials=1, seed=8, mu1=MU1, mu2=MU2)
        A1, A2 = rmt.realize_pair(spec)
        lhs = np.trace(A1 @ A2).real / 400
        mean1, mean2 = (sum(x * m for x, m in mu.atoms) for mu in (MU1, MU2))
        assert lhs == pytest.approx(mean1 * mean2, abs=3 / np.sqrt(400))

    def test_reduced_realization_same_law(self):
        # p(D1, U D2 U*) has exactly the spectrum of a conjugated full draw
        spec = rmt.EnsembleSpec(N=60, trials=1, seed=9, mu1=MU1, mu2=MU2)
        rng = spec.trial_rngs()[0]
        d1, A2 = rmt._realize_reduced(spec, *grids(spec), rng)
        v1 = rmt._eval_poly_diag_first(Z1 * Z2 + Z2 * Z1, d1, A2)
        v2 = eval_matrices(Z1 * Z2 + Z2 * Z1, np.diag(d1).astype(complex), A2)
        np.testing.assert_allclose(v1, v2, atol=1e-12)

    def test_diagonal_first_evaluation_of_a_stack(self):
        # a stack of blocks is evaluated block by block, as eval_matrices does
        rng = np.random.default_rng(33)
        x1 = rng.standard_normal((5, 3))
        x2 = np.stack([_random_hermitian(rng, 3) for _ in range(5)])
        poly = Z1 * Z2 * Z1 + 2 * Z2 * Z2 + Z1 * Z1 - 0.5
        stacked = rmt._eval_poly_diag_first(poly, x1, x2)
        assert stacked.shape == (5, 3, 3)
        for d, a, v in zip(x1, x2, stacked):
            np.testing.assert_allclose(v, eval_matrices(poly, np.diag(d), a), rtol=0, atol=1e-12)

    def test_frame_draw_matches_the_full_draw_in_law(self):
        # an atomic mu2 draws only the N x |S| Gaussian of the frame off its
        # heaviest atom (0.5 N entries); pooled trials at N = 100: the first
        # four spectral moments agree with realize_pair's full draw within 3 SE
        three_atoms = M.atomic_measure([(0.0, 0.5), (1.0, 0.3), (2.5, 0.2)])
        spec = rmt.EnsembleSpec(N=100, trials=40, seed=29, mu1=MIXED, mu2=three_atoms)
        d1, d2 = grids(spec)
        rng = _RecordingRng(30)
        _d1, A2 = rmt._realize_reduced(spec, d1, d2, rng)
        assert [np.shape(v) for _name, v in rng.draws] == [(100, 50)] * 2
        np.testing.assert_allclose(np.linalg.eigvalsh(A2), M.quantiles(three_atoms, 100),
                                   atol=1e-12)
        poly = Z1 * Z2 + Z2 * Z1 + Z1

        def frame(r):
            return np.linalg.eigvalsh(herm_part(
                rmt._eval_poly_diag_first(poly, *rmt._realize_reduced(spec, d1, d2, r))))

        def full(r):
            return np.linalg.eigvalsh(herm_part(eval_matrices(poly, *rmt.realize_pair(spec, r))))

        rngs = spec.trial_rngs()
        half = spec.trials // 2
        moments = {
            "frame": np.array([[np.mean(frame(r) ** j) for j in range(1, 5)] for r in rngs[:half]]),
            "full": np.array([[np.mean(full(r) ** j) for j in range(1, 5)] for r in rngs[half:]]),
        }
        mean = {k: m.mean(axis=0) for k, m in moments.items()}
        se = {k: m.std(axis=0, ddof=1) / np.sqrt(len(m)) for k, m in moments.items()}
        gap = np.abs(mean["frame"] - mean["full"])
        assert np.all(gap <= 3 * np.hypot(se["frame"], se["full"])), (gap, se)


class TestEmpiricalKernelMass:
    def test_zero_matrix(self):
        assert rmt.empirical_kernel_mass(np.zeros((8, 8)), 0.0, 1e-9) == 1.0

    def test_quantile_diagonal(self):
        d = np.diag(M.quantiles(MU1, 100))
        assert rmt.empirical_kernel_mass(d, 0.0, 0.1) == pytest.approx(0.7)

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((40, 40))
        m = (m + m.T) / 2
        vals = [rmt.empirical_kernel_mass(m, 0.0, e) for e in [0.01, 0.1, 1.0, 10.0]]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_epsilon(self):
        with pytest.raises(PreconditionError):
            rmt.empirical_kernel_mass(np.eye(3), 0.0, 0.0)


class TestOracleReport:
    def test_reproducible_bit_identical(self):
        spec = rmt.EnsembleSpec(N=150, trials=3, seed=11, mu1=MU1, mu2=MU2)
        model = scalar_model(MU1, MU2)
        r1 = rmt.oracle_report(spec, model=model, locations=[0.0, 2.0])
        r2 = rmt.oracle_report(spec, model=model, locations=[0.0, 2.0])
        assert np.array_equal(r1.counts_mean, r2.counts_mean)
        assert np.array_equal(r1.counts_std, r2.counts_std)
        assert r1.masses == r2.masses
        assert r1.spikes == r2.spikes

    def test_atomic_sum_spikes_and_masses(self):
        spec = rmt.EnsembleSpec(N=600, trials=4, seed=12, mu1=MU1, mu2=MU2)
        model = scalar_model(MU1, MU2)
        rep = rmt.oracle_report(spec, model=model, locations=[0.0, 2.0], epsilon=1e-6)
        assert rep.masses[0.0][0] == pytest.approx(0.3, abs=2 / 600 + 1e-12)
        assert rep.masses[2.0][0] == pytest.approx(0.1, abs=2 / 600 + 1e-12)
        spike_locs = [round(s, 1) for s in rep.spikes]
        assert 0.0 in spike_locs
        assert 2.0 in spike_locs

    def test_kernel_mass_via_pencil_form(self):
        spec = rmt.EnsembleSpec(N=500, trials=2, seed=13, mu1=MU1, mu2=MU2)
        model = scalar_model(MU1, MU2)
        rep = rmt.oracle_report(spec, model=model, b=np.array([[0.0]]), epsilon=1e-6)
        assert rep.masses[0.0][0] == pytest.approx(0.3, abs=2 / 500)

    def test_arcsine_shape_no_spikes(self):
        # smaller version of the production fixture: histogram close to the
        # closed-form density away from the edges, no spike bins
        spec = rmt.EnsembleSpec(N=700, trials=4, seed=14, mu1=BERN, mu2=BERN)
        rep = rmt.oracle_report(spec, model=scalar_model(BERN, BERN), bins=81)
        assert rep.spikes == []
        dens = rep.counts_mean / (rep.counts_mean.sum() * np.diff(rep.bin_edges))
        centers = 0.5 * (rep.bin_edges[:-1] + rep.bin_edges[1:])
        inner = np.abs(centers) <= 1.7
        exact = 1 / (np.pi * np.sqrt(4 - centers[inner] ** 2))
        assert np.max(np.abs(dens[inner] - exact)) < 0.05

    def test_poly_target_anticommutator(self):
        proj = M.atomic_measure([(0.0, 0.5), (1.0, 0.5)])
        spec = rmt.EnsembleSpec(N=300, trials=2, seed=15, mu1=proj, mu2=proj)
        rep = rmt.oracle_report(spec, poly=Z1 * Z2 + Z2 * Z1, lam=0.0, epsilon=1e-9)
        # kernel is trivial: essentially no eigenvalues within 1e-9 of 0
        assert rep.masses[0.0][0] <= 2 / 300

    def test_rejects_conflicting_targets(self):
        spec = rmt.EnsembleSpec(N=50, trials=1, seed=16, mu1=MU1, mu2=MU2)
        with pytest.raises(PreconditionError):
            rmt.oracle_report(spec, poly=Z1, model=scalar_model(MU1, MU2))

    def test_rejects_nonselfadjoint_poly(self):
        spec = rmt.EnsembleSpec(N=50, trials=1, seed=17, mu1=MU1, mu2=MU2)
        with pytest.raises(PreconditionError):
            rmt.oracle_report(spec, poly=Z1 * Z2)

    def test_json_dict(self):
        spec = rmt.EnsembleSpec(N=100, trials=2, seed=18, mu1=MU1, mu2=MU2)
        rep = rmt.oracle_report(spec, model=scalar_model(MU1, MU2))
        d = rep.to_json_dict()
        assert d["N"] == 100
        assert len(d["counts_mean"]) == len(d["bin_edges"]) - 1


class TestEnsembleSpec:
    def test_rejects_small_n(self):
        with pytest.raises(PreconditionError):
            rmt.EnsembleSpec(N=1, trials=1, seed=0, mu1=MU1, mu2=MU2)

    def test_rejects_no_trials(self):
        with pytest.raises(PreconditionError):
            rmt.EnsembleSpec(N=10, trials=0, seed=0, mu1=MU1, mu2=MU2)


class TestDensePencilPath:
    def test_matrix_pencil_kernel_mass_matches_pipeline_value(self):
        # the 3 x 3 block pencil of Z1 + Z2 at 0: tau_3 of the kernel is
        # 0.3 / 3 = 0.1, realized exactly by generic subspace intersections
        # at finite N
        L = SUM_BLOCK_PENCIL
        model = FreeSumModel(L.a1, L.a2, MU1, MU2)
        spec = rmt.EnsembleSpec(N=300, trials=2, seed=42, mu1=MU1, mu2=MU2)
        rep = rmt.oracle_report(spec, model=model, b=-L.a0, epsilon=1e-7)
        est, se = rep.masses[0.0]
        assert est == pytest.approx(0.1, abs=2 / 300 + 3 * se)


def _two_atom_law(alpha, beta, low_mass):
    return M.point_mass(alpha) if low_mass == 1.0 else M.atomic_measure(
        [(alpha, low_mass), (beta, 1.0 - low_mass)])


def _random_hermitian(rng, n):
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (h + h.conj().T) / 2


def haar_frame(N, k, rng):
    """N x k orthonormal frame whose range is Haar distributed among the
    k-dimensional subspaces: the Q factor of an N x k complex Ginibre
    matrix (column phases do not change the range)."""
    g = (rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))) / np.sqrt(2)
    return np.linalg.qr(g)[0]


def frame_cosines(v, k1):
    """Principal-angle cosines strictly between 0 and 1 of ran v against
    the last k1 coordinates (the upper atoms of an ascending quantile
    grid): the singular values of v's rows there, after the unit ones
    of the generic intersection."""
    N, k2 = v.shape
    return np.linalg.svd(v[N - k1:], compute_uv=False)[max(0, k1 + k2 - N):]


class TestPencilAssembly:
    """The pencil is written block by block; its spectrum must keep the bits
    of eigvalsh at np.kron(b, 1) - np.kron(a1, X1) - np.kron(a2, X2)."""

    LAWS = {"1x1 stacks": (M.point_mass(0.5), MIXED),
            "halmos stacks": (MU1, MU2),
            "dense": (M.atomic_measure([(0.0, 0.5), (1.0, 0.3), (2.5, 0.2)]), MIXED),
            "light ranges": (M.atomic_measure([(0.0, 0.5), (1.0, 0.3), (2.5, 0.2)]), MU2)}

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("laws", list(LAWS))
    def test_spectrum_is_that_of_the_kron_pencil(self, n, laws):
        mu1, mu2 = self.LAWS[laws]
        spec = rmt.EnsembleSpec(N=40, trials=1, seed=0, mu1=mu1, mu2=mu2)
        rng = np.random.default_rng(n)
        a1, a2, b = (_random_hermitian(rng, n) for _ in range(3))
        model = FreeSumModel(a1, a2, mu1, mu2)
        blocks = rmt._trial_blocks(spec, *grids(spec), np.random.default_rng(28))
        shapes = {x1.shape[-1] for _copies, x1, _x2 in blocks}
        assert shapes == {"1x1 stacks": {1}, "halmos stacks": {1, 2}, "dense": {40},
                          "light ranges": {1, 36}}[laws]
        for _copies, x1, x2 in blocks:
            k = x1.shape[-1]
            X1 = np.zeros(x2.shape, dtype=complex)
            X1[..., np.arange(k), np.arange(k)] = x1
            big = np.kron(b, np.eye(k)) - np.kron(a1, X1) - np.kron(a2, x2)
            assert np.array_equal(rmt._pencil_eigs(model, b, x1, x2), np.linalg.eigvalsh(big))


class TestTwoSubspaceOracle:
    """Two laws with at most two atoms: the exact block form of the pair.

    The block cases feed :func:`rmt._halmos_eigs` the cosines of a frame
    drawn here, so that the dense matrix of that same frame is known."""

    N = 12
    # lower-atom masses of the two laws and the upper-atom counts (k1, k2)
    # of their N = 12 quantile grids
    CASES = {
        "k1+k2<N": (0.75, 0.6, 3, 5),
        "k1+k2>N": (0.25, 0.3, 9, 8),
        "k1=k2=N/2": (0.5, 0.5, 6, 6),
        "k1<k2": (0.7, 0.2, 4, 10),
        "mu1-point-mass": (1.0, 0.4, 0, 7),
        "mu2-point-mass": (0.3, 1.0, 8, 0),
    }

    def dense_pair(self, spec, seed):
        """(D1, alpha2 + (beta2 - alpha2) V V*) for the frame V that
        :func:`haar_frame` draws from a generator seeded with ``seed``."""
        d1, d2 = M.quantiles(spec.mu1, spec.N), M.quantiles(spec.mu2, spec.N)
        k2 = int(np.count_nonzero(d2 > d2[0]))
        v = haar_frame(spec.N, k2, np.random.default_rng(seed))
        A2 = d2[0] * np.eye(spec.N) + (d2[-1] - d2[0]) * (v @ v.conj().T)
        return np.diag(d1).astype(complex), A2, (int(np.count_nonzero(d1 > d1[0])), k2)

    def spec(self, case):
        m1, m2, _k1, _k2 = self.CASES[case]
        return rmt.EnsembleSpec(N=self.N, trials=1, seed=0, mu1=_two_atom_law(-0.5, 1.0, m1),
                                mu2=_two_atom_law(0.2, 2.0, m2))

    @pytest.fixture
    def frame_cosines_drawn(self, monkeypatch):
        """Make the oracle's cosine draw that of :func:`haar_frame`."""
        monkeypatch.setattr(rmt, "_two_subspace_cosines",
                            lambda N, k1, k2, rng: frame_cosines(haar_frame(N, k2, rng), k1))

    @pytest.mark.parametrize("case", list(CASES))
    def test_polynomial_blocks_equal_dense_spectrum(self, case, frame_cosines_drawn):
        spec = self.spec(case)
        poly = Z1 * Z2 + Z2 * Z1
        D1, A2, ks = self.dense_pair(spec, seed=21)
        assert ks == self.CASES[case][2:]
        blocks = poly_trial(spec, poly, np.random.default_rng(21))
        dense = np.linalg.eigvalsh(eval_matrices(poly, D1, A2))
        assert blocks.shape == (self.N,)
        np.testing.assert_allclose(blocks, dense, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("case", list(CASES))
    def test_pencil_blocks_equal_dense_spectrum(self, case, frame_cosines_drawn):
        spec = self.spec(case)
        rng = np.random.default_rng(22)
        a1, a2, b = (_random_hermitian(rng, 2) for _ in range(3))
        D1, A2, _ = self.dense_pair(spec, seed=23)
        blocks = pencil_trial(spec, FreeSumModel(a1, a2, spec.mu1, spec.mu2), b,
                              np.random.default_rng(23))
        dense = np.linalg.eigvalsh(np.kron(b, np.eye(self.N)) - np.kron(a1, D1) - np.kron(a2, A2))
        assert blocks.shape == (2 * self.N,)
        np.testing.assert_allclose(blocks, dense, rtol=0, atol=1e-10)

    def test_moments_agree_with_dense_path_in_law(self):
        # pooled trials at N = 400: the first four spectral moments of the
        # block form and of the dense Haar frame draw agree within 3 SE
        spec = rmt.EnsembleSpec(N=400, trials=12, seed=24, mu1=MU1, mu2=MU2)
        poly = Z1 * Z2 + Z2 * Z1 + Z1

        def dense(rng):
            d1, A2 = frame_draw(spec, rng)
            return np.linalg.eigvalsh(herm_part(rmt._eval_poly_diag_first(poly, d1, A2)))

        rngs = spec.trial_rngs()
        half = spec.trials // 2
        moments = {
            "blocks": np.array([[np.mean(poly_trial(spec, poly, r) ** j) for j in range(1, 5)]
                                for r in rngs[:half]]),
            "dense": np.array([[np.mean(dense(r) ** j) for j in range(1, 5)]
                               for r in rngs[half:]]),
        }
        mean = {k: m.mean(axis=0) for k, m in moments.items()}
        se = {k: m.std(axis=0, ddof=1) / np.sqrt(len(m)) for k, m in moments.items()}
        gap = np.abs(mean["blocks"] - mean["dense"])
        assert np.all(gap <= 3 * np.hypot(se["blocks"], se["dense"])), (gap, se)

    @pytest.mark.parametrize("target", ["poly", "pencil"])
    def test_path_follows_the_laws(self, target, monkeypatch):
        calls = []
        haar = rmt.haar_unitary
        monkeypatch.setattr(rmt, "haar_unitary", lambda N, rng, columns=None: calls.append(
            (N, columns)) or haar(N, rng, columns))
        three_atoms = M.atomic_measure([(0.0, 0.5), (1.0, 0.3), (2.5, 0.2)])
        kwargs = ({"poly": Z1 * Z2 + Z2 * Z1} if target == "poly"
                  else {"model": scalar_model(MU1, MU2), "b": np.array([[0.0]])})
        # MU2 is atomic, with 60 entries off its heavier atom 0: MIXED's 90
        # light entries leave no room, so the dense draw is the N x 60 frame;
        # three_atoms' 75 do, so it is the 75 x 60 frame W1 on the light
        # ranges (MU2's light grid is constant, so no 60 x 60 unitary)
        for mu1, mu2, frame, path in ((MU1, MU2, [], "two-subspace"),
                                      (three_atoms, MU2, [(75, 60)], "dense"),
                                      (MIXED, MU2, [(150, 60)], "dense"),
                                      (M.point_mass(0.5), MIXED, [], "commuting")):
            calls.clear()
            spec = rmt.EnsembleSpec(N=150, trials=3, seed=25, mu1=mu1, mu2=mu2)
            if target == "pencil":
                kwargs["model"] = scalar_model(mu1, mu2)
            rep = rmt.oracle_report(spec, **kwargs)
            assert calls == frame * 3
            assert rep.path == path == rmt._trial_path(*grids(spec))
            assert rep.counts_mean.sum() == pytest.approx(150)


def heaviest_atom(mu):
    return max(mu.atoms, key=lambda atom: atom[1])[0]


def frame_draw(spec, rng):
    """The dense draw that atomless laws and light ranges with s1 + s2 >= N
    keep: the full N x N draw for an atomless mu2, otherwise (D1, c + U_S
    (D2_S - c) U_S*) with the N x |S| frame off mu2's heaviest atom c."""
    d1, d2 = M.quantiles(spec.mu1, spec.N), M.quantiles(spec.mu2, spec.N)
    if not spec.mu2.atoms:
        u = rmt.haar_unitary(spec.N, rng)
        return d1, herm_part((u * d2) @ u.conj().T)
    c = heaviest_atom(spec.mu2)
    rest = d2[d2 != c] - c
    u = rmt.haar_unitary(spec.N, rng, rest.size)
    return d1, herm_part(c * np.eye(spec.N) + (u * rest) @ u.conj().T)


THREE_ATOMS = M.atomic_measure([(0.0, 0.5), (1.0, 0.3), (2.5, 0.2)])


class TestLightRanges:
    """Both laws atomic with s1 + s2 < N light entries: the dense path works
    on S1 + S2 and repeats the block (c1, c2) of the heaviest atoms."""

    # N, mu1, mu2, the light counts (s1, s2) and the Haar draws taken: the
    # s1 x p frame W1 where mu1's light grid varies, the s2 x s2 unitary Y
    # where mu2's does
    CASES = {
        "s1<s2": (40, M.atomic_measure([(0.0, 0.8), (1.0, 0.1), (2.5, 0.1)]),
                  M.atomic_measure([(0.2, 0.5), (-1.0, 0.3), (1.7, 0.2)]), (8, 20), ["W1", "Y"]),
        "s1>s2": (40, M.atomic_measure([(0.3, 0.45), (-0.8, 0.35), (1.4, 0.2)]),
                  M.atomic_measure([(-0.5, 0.7), (1.0, 0.2), (2.0, 0.1)]), (22, 12), ["W1", "Y"]),
        "s1+s2=N-1": (40, M.atomic_measure([(0.0, 0.525), (1.0, 0.3), (2.5, 0.175)]),
                      M.atomic_measure([(0.5, 0.5), (-1.0, 0.25), (2.0, 0.25)]), (19, 20),
                      ["W1", "Y"]),
        "mu1-light-constant": (40, M.atomic_measure([(0.0, 0.7), (1.5, 0.3)]), THREE_ATOMS,
                               (12, 20), ["Y"]),
        "mu2-light-constant": (40, THREE_ATOMS, M.atomic_measure([(0.4, 0.65), (-1.3, 0.35)]),
                               (20, 14), ["W1"]),
        "mu1-mixed": (40, MIXED, M.atomic_measure([(0.0, 0.7), (1.0, 0.2), (2.0, 0.1)]),
                      (24, 12), ["W1", "Y"]),
    }

    def spec(self, case):
        N, mu1, mu2, _s, _drawn = self.CASES[case]
        return rmt.EnsembleSpec(N=N, trials=1, seed=0, mu1=mu1, mu2=mu2)

    def known_frame(self, spec, monkeypatch, seed):
        """Patch the light-range draws to the CS decomposition, against the
        light coordinates of D1, of the frame U_S that :func:`haar_frame`
        draws with ``seed``: its rows on S1 are W1 diag(cos) Y*.
        Returns (D1, c2 + U_S R2 U_S*), the light counts and the draws taken."""
        N = spec.N
        c1, c2 = heaviest_atom(spec.mu1), heaviest_atom(spec.mu2)
        d1, d2 = M.quantiles(spec.mu1, N), M.quantiles(spec.mu2, N)
        light1, r2 = d1 != c1, d2[d2 != c2] - c2
        u = haar_frame(N, r2.size, np.random.default_rng(seed))
        w, cos, yh = np.linalg.svd(u[light1])
        s = (int(np.count_nonzero(light1)), r2.size)
        drawn = []

        def cosines(N_, k1, k2, rng):
            assert (N_, k1, k2) == (N, *s)
            return cos

        def haar(N_, rng, columns=None):
            if columns is None:
                assert N_ == s[1]
                drawn.append("Y")
                return yh
            assert (N_, columns) == (s[0], min(s))
            drawn.append("W1")
            return w[:, :columns]

        monkeypatch.setattr(rmt, "_two_subspace_cosines", cosines)
        monkeypatch.setattr(rmt, "haar_unitary", haar)
        A2 = c2 * np.eye(N) + (u * r2) @ u.conj().T
        return np.diag(d1).astype(complex), A2, s, drawn

    @pytest.mark.parametrize("case", list(CASES))
    def test_polynomial_equals_dense_spectrum(self, case, monkeypatch):
        spec = self.spec(case)
        assert rmt._trial_path(*grids(spec)) == "dense"
        poly = Z1 * Z2 + Z2 * Z1 + Z1
        D1, A2, s, drawn = self.known_frame(spec, monkeypatch, seed=41)
        light = poly_trial(spec, poly, np.random.default_rng(41))
        dense = np.linalg.eigvalsh(eval_matrices(poly, D1, A2))
        assert (s, drawn) == self.CASES[case][3:]
        assert light.shape == (spec.N,)
        np.testing.assert_allclose(light, dense, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("case", list(CASES))
    def test_pencil_equals_dense_spectrum(self, case, monkeypatch):
        spec = self.spec(case)
        rng = np.random.default_rng(42)
        a1, a2, b = (_random_hermitian(rng, 2) for _ in range(3))
        D1, A2, _s, drawn = self.known_frame(spec, monkeypatch, seed=43)
        light = pencil_trial(spec, FreeSumModel(a1, a2, spec.mu1, spec.mu2), b,
                             np.random.default_rng(43))
        dense = np.linalg.eigvalsh(np.kron(b, np.eye(spec.N)) - np.kron(a1, D1)
                                   - np.kron(a2, A2))
        assert drawn == self.CASES[case][4]
        assert light.shape == (2 * spec.N,)
        np.testing.assert_allclose(light, dense, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("case", list(CASES))
    def test_marginals_are_the_quantile_grids(self, case):
        # with the complement's c1 and c2 the pair has the laws' grids:
        # A1 a permutation of mu1's, A2 its spectrum to roundoff
        spec = self.spec(case)
        c1, c2 = heaviest_atom(spec.mu1), heaviest_atom(spec.mu2)
        a1, A2 = rmt._realize_reduced(spec, *grids(spec), np.random.default_rng(44))
        rest = spec.N - a1.size
        assert rest == spec.N - sum(self.CASES[case][3]) > 0
        assert np.array_equal(np.sort(np.append(a1, np.full(rest, c1))),
                              M.quantiles(spec.mu1, spec.N))
        spectrum = np.sort(np.append(np.linalg.eigvalsh(A2), np.full(rest, c2)))
        np.testing.assert_allclose(spectrum, M.quantiles(spec.mu2, spec.N), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mu1, mu2, N", [
        (M.semicircle_measure(0.0, 2.0), THREE_ATOMS, 60),  # atomless mu1: frame
        (THREE_ATOMS, M.semicircle_measure(0.0, 2.0), 60),  # atomless mu2: full draw
        (MIXED, THREE_ATOMS, 100),  # s1 + s2 = 60 + 50 > N
        (MIXED, M.atomic_measure([(0.0, 0.6), (1.0, 0.2), (2.0, 0.2)]), 100),  # = N
    ])
    def test_other_pairs_keep_the_frame_draw(self, mu1, mu2, N):
        spec = rmt.EnsembleSpec(N=N, trials=1, seed=0, mu1=mu1, mu2=mu2)
        assert rmt._trial_path(*grids(spec)) == "dense"
        ours = rmt._realize_reduced(spec, *grids(spec), np.random.default_rng(45))
        theirs = frame_draw(spec, np.random.default_rng(45))
        assert ours[1].shape == (N, N)
        for a, b in zip(ours, theirs):
            assert a.tobytes() == b.tobytes()

    def test_matches_the_full_draw_in_law(self):
        # three atoms a side, so that W1 and Y are both drawn: 200 trials a
        # side at N = 60, the first four spectral moments of Z1 Z2 + Z2 Z1 + Z1
        # agree with realize_pair's within 3 SE
        mu1 = M.atomic_measure([(0.0, 0.6), (1.0, 0.25), (2.5, 0.15)])
        mu2 = M.atomic_measure([(0.5, 0.55), (-1.0, 0.3), (2.0, 0.15)])
        spec = rmt.EnsembleSpec(N=60, trials=400, seed=46, mu1=mu1, mu2=mu2)
        poly = Z1 * Z2 + Z2 * Z1 + Z1

        def full(r):
            return np.linalg.eigvalsh(herm_part(eval_matrices(poly, *rmt.realize_pair(spec, r))))

        rngs = spec.trial_rngs()
        half = spec.trials // 2
        moments = {
            "light": np.array([[np.mean(poly_trial(spec, poly, r) ** j) for j in range(1, 5)]
                               for r in rngs[:half]]),
            "full": np.array([[np.mean(full(r) ** j) for j in range(1, 5)] for r in rngs[half:]]),
        }
        mean = {k: m.mean(axis=0) for k, m in moments.items()}
        se = {k: m.std(axis=0, ddof=1) / np.sqrt(len(m)) for k, m in moments.items()}
        gap = np.abs(mean["light"] - mean["full"])
        assert np.all(gap <= 3 * np.hypot(se["light"], se["full"])), (gap, se)


class _RecordingRng:
    """A generator that logs each draw as (method, value)."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws.append((name, out))
            return out

        return draw


class TestJacobiCosines:
    """The beta = 2 Jacobi bidiagonal model of the principal-angle cosines
    against the singular values of a Haar frame's rows."""

    # (N, k1, k2): the four two-subspace CASES shapes and the N = 400 shape
    # of MU1, MU2
    SHAPES = [(12, 3, 5), (12, 9, 8), (12, 6, 6), (12, 4, 10), (400, 120, 160)]

    @pytest.mark.parametrize("N, k1, k2", SHAPES)
    def test_law_matches_frame_cosines(self, N, k1, k2):
        from scipy import stats

        trials = 2000 if N <= 12 else 40
        rng_model, rng_frame = (np.random.default_rng((N, k1, k2, i)) for i in (0, 1))
        model = [rmt._two_subspace_cosines(N, k1, k2, rng_model) for _ in range(trials)]
        frame = [frame_cosines(haar_frame(N, k2, rng_frame), k1) for _ in range(trials)]
        assert {c.size for c in model} == {c.size for c in frame} == {min(k1, k2, N - k1, N - k2)}
        # first four moments of the pooled cosines within 3 SE, the SE from
        # the spread of the per-trial moments
        moments = {name: np.array([[np.mean(c ** j) for j in range(1, 5)] for c in draws])
                   for name, draws in (("model", model), ("frame", frame))}
        mean = {k: m.mean(axis=0) for k, m in moments.items()}
        se = {k: m.std(axis=0, ddof=1) / np.sqrt(trials) for k, m in moments.items()}
        gap = np.abs(mean["model"] - mean["frame"])
        assert np.all(gap <= 3 * np.hypot(se["model"], se["frame"])), (gap, se)
        assert stats.ks_2samp(np.concatenate(model), np.concatenate(frame)).pvalue > 0.01

    @pytest.mark.parametrize("N, k1, k2", [(2, 0, 1), (5, 2, 0), (5, 5, 3), (5, 2, 5), (2, 2, 2)])
    def test_no_angle_draws_nothing(self, N, k1, k2):
        rng = _RecordingRng(0)
        assert rmt._two_subspace_cosines(N, k1, k2, rng).shape == (0,)
        assert rng.draws == []

    # one angle: c^2 is the Beta law of one coordinate of a Haar unit vector
    @pytest.mark.parametrize("N, k1, k2, law", [(2, 1, 1, (1, 1)), (3, 1, 1, (1, 2)),
                                                (3, 2, 2, (1, 2)), (3, 1, 2, (2, 1))])
    def test_one_angle_follows_its_beta_law(self, N, k1, k2, law):
        from scipy import stats

        rng = np.random.default_rng((N, k1, k2))
        c = np.concatenate([rmt._two_subspace_cosines(N, k1, k2, rng) for _ in range(4000)])
        assert c.shape == (4000,)
        assert np.all((c > 0) & (c < 1))
        assert stats.kstest(c * c, stats.beta(*law).cdf).pvalue > 0.01

    @pytest.mark.parametrize("N, k1, k2", [(80, 40, 40), (10**6, 12, 12), (90, 50, 60)])
    def test_cosines_carry_absolute_roundoff(self, N, k1, k2):
        # rebuild the bidiagonal matrix from the logged Gamma draws in 40
        # digits: every cosine, the small ones too, is within a few ulps of 1
        import mpmath as mp

        rng = _RecordingRng((N, k1, k2))
        c = np.sort(rmt._two_subspace_cosines(N, k1, k2, rng))
        g, h = ([mp.mpf(float(x)) for x in v] for _, v in rng.draws)
        p = c.size
        cos = [mp.sqrt(x / (x + y)) for x, y in zip(g, h)]
        sin = [mp.sqrt(y / (x + y)) for x, y in zip(g, h)]
        with mp.workdps(40):
            bidiag = mp.zeros(p, p)
            for i in range(p):
                bidiag[i, i] = cos[i] * (sin[p + i] if i < p - 1 else 1)
                if i < p - 1:
                    bidiag[i, i + 1] = sin[i + 1] * cos[p + i]
            exact = np.sort([float(s) for s in mp.svd_r(bidiag, compute_uv=False)])
        assert np.max(np.abs(c - exact)) <= 4 * np.finfo(float).eps

    def test_two_subspace_path_runs_no_qr_and_no_gaussian(self, monkeypatch):
        qr_calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qr_calls.append(1) or qr(*a, **k))
        three_atoms = M.atomic_measure([(0.0, 0.5), (1.0, 0.3), (2.5, 0.2)])
        poly = Z1 * Z2 + Z2 * Z1
        for mu1, path in ((MU1, "two-subspace"), (three_atoms, "dense")):
            qr_calls.clear()
            spec = rmt.EnsembleSpec(N=400, trials=1, seed=0, mu1=mu1, mu2=MU2)
            rng = _RecordingRng(27)
            assert rmt._trial_path(*grids(spec)) == path
            assert poly_trial(spec, poly, rng).shape == (400,)
            gaussians = [np.shape(v) for name, v in rng.draws if name == "standard_normal"]
            if path == "dense":  # the counters do see the dense draw
                # the frame W1 of three_atoms' 200 light entries against
                # MU2's 160 (MU2's light grid is constant, so no Y)
                assert qr_calls and gaussians == [(200, 160)] * 2
            else:
                assert qr_calls == [] and gaussians == []
                assert [name for name, _ in rng.draws] == ["standard_gamma"] * 2


class TestCommutingOracle:
    """A point-mass law or an exactly zero coefficient: the pair commutes."""

    def test_polynomial_with_point_mass_law_is_evaluated_pointwise(self):
        c = 0.7
        spec = rmt.EnsembleSpec(N=200, trials=1, seed=0, mu1=MIXED, mu2=M.point_mass(c))
        d1 = M.quantiles(MIXED, 200)
        eigs = poly_trial(spec, Z1 * Z2 + Z2 * Z1 + Z1 * Z1, np.random.default_rng(0))
        np.testing.assert_allclose(eigs, np.sort(2 * c * d1 + d1 * d1), rtol=1e-13, atol=1e-15)

    def test_small_coefficients_are_not_dropped(self):
        # both coefficients act however small they are: the spectrum of
        # 1e-9 (X1 + X2) is 1e-9 times that of X1 + X2 for the same draw
        semi = M.semicircle_measure(0.0, 2.0)
        spec = rmt.EnsembleSpec(N=200, trials=1, seed=0, mu1=semi, mu2=semi)

        def eigs(scale):
            model = FreeSumModel(np.array([[scale]]), np.array([[scale]]), semi, semi)
            return pencil_trial(spec, model, None, np.random.default_rng(26))

        np.testing.assert_allclose(eigs(1e-9), 1e-9 * eigs(1.0), rtol=1e-6)

    @pytest.mark.parametrize("N", [2, 7, 600, 2001])
    def test_point_mass_grid_is_constant_to_the_bit(self, N, monkeypatch):
        # the commuting path reads a point-mass law's grid from quantiles;
        # it is N copies of the location, the sign of zero included
        for c in (0.0, -0.0, 1.3, -2.7e-5, 1e300):
            assert M.quantiles(M.point_mass(c), N).tobytes() == np.full(N, c).tobytes()
        # as is the grid that stands in for an exactly zero coefficient
        seen = []
        trial_eigs = rmt._trial_eigs
        monkeypatch.setattr(rmt, "_trial_eigs", lambda spec, d1, d2, rng, spectrum: seen.append(
            (d1, d2)) or trial_eigs(spec, d1, d2, rng, spectrum))
        model = FreeSumModel(np.eye(2), np.zeros((2, 2)), MIXED, MIXED)
        spec = rmt.EnsembleSpec(N=N, trials=1, seed=0, mu1=MIXED, mu2=MIXED)
        assert rmt.oracle_report(spec, model=model).path == "commuting"
        assert seen[0][0].tobytes() == M.quantiles(MIXED, N).tobytes()
        assert seen[0][1].tobytes() == np.zeros(N).tobytes()


class TestGrids:
    """A report computes its two quantile grids once, and every trial's
    path follows the grids."""

    LIGHT = M.atomic_measure([(0.0, 0.999), (1.0, 0.001)])  # constant grid at N = 50

    @pytest.mark.parametrize("target", ["poly", "pencil"])
    @pytest.mark.parametrize("mu1, mu2", [(MU1, MU2), (THREE_ATOMS, MU2), (MIXED, MU2),
                                          (M.point_mass(0.5), MIXED)],
                             ids=["two-subspace", "light ranges", "frame", "commuting"])
    def test_quantiles_run_once_per_law(self, target, mu1, mu2, monkeypatch):
        calls = []
        quantiles = rmt.quantiles
        monkeypatch.setattr(rmt, "quantiles", lambda mu, N: calls.append(mu) or quantiles(mu, N))
        spec = rmt.EnsembleSpec(N=60, trials=3, seed=47, mu1=mu1, mu2=mu2)
        kwargs = ({"poly": Z1 * Z2 + Z2 * Z1} if target == "poly"
                  else {"model": scalar_model(mu1, mu2), "b": np.array([[0.0]])})
        rmt.oracle_report(spec, **kwargs)
        assert calls == [mu1, mu2]

    def test_a_zero_coefficient_takes_no_quantiles(self, monkeypatch):
        calls = []
        quantiles = rmt.quantiles
        monkeypatch.setattr(rmt, "quantiles", lambda mu, N: calls.append(mu) or quantiles(mu, N))
        spec = rmt.EnsembleSpec(N=60, trials=3, seed=47, mu1=MIXED, mu2=MU2)
        model = FreeSumModel(np.eye(2), np.zeros((2, 2)), MIXED, MU2)
        assert rmt.oracle_report(spec, model=model).path == "commuting"
        assert calls == [MIXED]

    @pytest.mark.parametrize("target", ["poly", "pencil"])
    @pytest.mark.parametrize("side", [1, 2])
    def test_a_constant_grid_commutes(self, target, side):
        # at N = 50 the atom of mass 0.001 takes no grid entry: the grid is
        # constant and the path commuting.  The two-subspace form, which
        # such a law took against a two-atom law before, draws no cosine
        # (k = 0) and gives the 1 x 1 blocks of the four intersections:
        # the same sorted eigenvalues, to the bit
        N = 50
        laws = (self.LIGHT, MU2) if side == 1 else (MU2, self.LIGHT)
        spec = rmt.EnsembleSpec(N=N, trials=1, seed=0, mu1=laws[0], mu2=laws[1])
        d1, d2 = grids(spec)
        assert rmt._trial_path(d1, d2) == "commuting"
        # the intersections (P, Q) = (1, 1), (1, 0), (0, 1), (0, 0)
        (lo1, hi1), (lo2, hi2) = (d1[0], d1[-1]), (d2[0], d2[-1])
        k1, k2 = (int(np.count_nonzero(d > d[0])) for d in (d1, d2))
        assert 0 in (k1, k2)
        x1 = np.array([hi1, hi1, lo1, lo1], dtype=complex).reshape(4, 1, 1)
        x2 = np.array([hi2, lo2, hi2, lo2], dtype=complex).reshape(4, 1, 1)
        dims = [max(0, k1 + k2 - N), max(0, k1 - k2), max(0, k2 - k1), max(0, N - k1 - k2)]
        rng = np.random.default_rng(48)
        a1, a2, b = (_random_hermitian(rng, 2) for _ in range(3))
        poly = Z1 * Z2 + Z2 * Z1 + Z1 + Z2 * Z2
        if target == "poly":
            rep = rmt.oracle_report(spec, poly=poly)
            eigs = poly_trial(spec, poly, np.random.default_rng(0))
            blocks = np.linalg.eigvalsh(eval_matrices(poly, x1, x2))
        else:
            model = FreeSumModel(a1, a2, *laws)
            rep = rmt.oracle_report(spec, model=model, b=b)
            eigs = pencil_trial(spec, model, b, np.random.default_rng(0))
            blocks = np.linalg.eigvalsh(np.kron(b, np.eye(1)) - np.kron(a1, x1) - np.kron(a2, x2))
        assert rep.path == "commuting"
        two_subspace = np.sort(np.repeat(blocks, dims, axis=0).reshape(-1))
        assert np.array_equal(eigs, two_subspace)

    def test_a_two_valued_grid_of_three_atoms_takes_two_subspaces(self):
        # the atom of mass 0.001 takes no grid entry at N = 50, so the grid
        # is that of 0.6 delta_0 + 0.4 delta_1, and so is the trial
        three = M.atomic_measure([(0.0, 0.6), (1.0, 0.399), (2.0, 0.001)])
        two = M.atomic_measure([(0.0, 0.6), (1.0, 0.4)])
        specs = [rmt.EnsembleSpec(N=50, trials=1, seed=49, mu1=mu, mu2=MU2) for mu in (three, two)]
        assert np.array_equal(grids(specs[0])[0], grids(specs[1])[0])
        poly = Z1 * Z2 + Z2 * Z1 + Z1
        assert [rmt.oracle_report(spec, poly=poly).path for spec in specs] == ["two-subspace"] * 2
        eigs = [poly_trial(spec, poly, np.random.default_rng(50)) for spec in specs]
        assert np.array_equal(*eigs)
