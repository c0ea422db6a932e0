import numpy as np
import pytest

from freeatoms import measure as M
from freeatoms import rmt
from freeatoms.errors import PreconditionError
from freeatoms.ncpoly import NCPoly, eval_matrices
from freeatoms.subord import FreeSumModel, scalar_model

Z1, Z2 = NCPoly.z1(), NCPoly.z2()
MU1 = M.atomic_measure([(0.0, 0.7), (1.0, 0.3)])
MU2 = M.atomic_measure([(0.0, 0.6), (2.0, 0.4)])
BERN = M.bernoulli_symmetric()


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
        assert lhs == pytest.approx(MU1.mean() * MU2.mean(), abs=3 / np.sqrt(400))

    def test_reduced_realization_same_law(self):
        # p(D1, U D2 U*) has exactly the spectrum of a conjugated full draw
        spec = rmt.EnsembleSpec(N=60, trials=1, seed=9, mu1=MU1, mu2=MU2)
        rng = spec.trial_rngs()[0]
        d1, A2 = rmt._realize_reduced(spec, rng)
        v1 = rmt._eval_poly_diag_first(Z1 * Z2 + Z2 * Z1, d1, A2)
        v2 = eval_matrices(Z1 * Z2 + Z2 * Z1, np.diag(d1).astype(complex), A2)
        np.testing.assert_allclose(v1, v2, atol=1e-12)


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

    @pytest.mark.parametrize("target", [
        {"poly": Z1 * Z2 + Z2 * Z1, "lam": 0.0},
        {"model": scalar_model(MU1, MU2), "locations": [0.0, 2.0]},
    ], ids=["poly", "pencil"])
    def test_threaded_trials_bit_identical_to_serial(self, target):
        spec = rmt.EnsembleSpec(N=120, trials=4, seed=19, mu1=MU1, mu2=MU2)
        serial = rmt.oracle_report(spec, workers=1, **target)
        threaded = rmt.oracle_report(spec, workers=2, **target)
        assert np.array_equal(serial.bin_edges, threaded.bin_edges)
        assert serial.to_json_dict() == threaded.to_json_dict()

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
        dens = rep.density_estimate()
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
        # pencil of Z1 + Z2 at 0: tau_3 of the kernel is 0.3 / 3 = 0.1,
        # realized exactly by generic subspace intersections at finite N
        from freeatoms.linearize import linearize
        from freeatoms.ncpoly import NCPoly

        L, _ = linearize(NCPoly.z1() + NCPoly.z2())
        model = FreeSumModel(L.a1, L.a2, MU1, MU2)
        spec = rmt.EnsembleSpec(N=300, trials=2, seed=42, mu1=MU1, mu2=MU2)
        rep = rmt.oracle_report(spec, model=model, b=-L.a0, epsilon=1e-7)
        est, se = rep.masses[0.0]
        assert est == pytest.approx(0.1, abs=2 / 300 + 3 * se)
