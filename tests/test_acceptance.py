"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Every tolerance is pinned here; nothing is deferred to calibration.
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from freeatoms import atoms as A
from freeatoms import measure as M
from freeatoms import rmt
from freeatoms.linearize import (
    corner_shift,
    invertibility_equivalence_check,
    linearize,
    numerical_kernel_dim,
    verify_certificate,
)
from freeatoms.ncpoly import NCPoly, adjoint, eval_matrices
from freeatoms.opval import imag_part, matrix_cauchy, matrix_f, pencil_kernel_trace
from freeatoms.subord import FreeSumModel, scalar_model, solve_subordination, sum_density

Z1, Z2 = NCPoly.z1(), NCPoly.z2()
BERN = M.bernoulli_symmetric()
SC2 = M.semicircle_measure(0.0, 2.0)
MU1 = M.atomic_measure([(0.0, 0.7), (1.0, 0.3)])
MU2 = M.atomic_measure([(0.0, 0.6), (2.0, 0.4)])
PROJ = M.atomic_measure([(0.0, 0.5), (1.0, 0.5)])


class _Criterion:
    def __init__(self, number, budget_s):
        self.number = number
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"{status} criterion {self.number} ({elapsed:.1f}s / budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.budget}s"
            )
        return False


def test_criterion_1_arcsine_fixture():
    with _Criterion(1, 10.0):
        model = scalar_model(BERN, BERN)
        # subordination against the closed form on 50 points
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(50):
            z = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.02, 3.0))
            r = solve_subordination(model, np.array([[z]]), tol=1e-13)
            exact = (z + np.sqrt(z - 2 + 0j) * np.sqrt(z + 2 + 0j)) / 2
            worst = max(worst, abs(r.omega1[0, 0] - exact))
        assert worst < 1e-9, f"omega error {worst:.2e}"
        # density at y = 1e-4 against 1/(pi sqrt(4 - x^2))
        xs = np.linspace(-1.9, 1.9, 96)
        dens, _ = sum_density(model, xs, y_eval=1e-4, tol=1e-12)
        exact = 1.0 / (np.pi * np.sqrt(4.0 - xs**2))
        err = np.max(np.abs(dens[:, 1] - exact))
        assert err < 1e-3, f"density L-inf error {err:.2e}"


def test_criterion_2_semicircle_stability():
    with _Criterion(2, 10.0):
        model = scalar_model(SC2, SC2)
        xs = np.linspace(-2.7, 2.7, 96)
        dens, _ = sum_density(model, xs, y_eval=1e-4, tol=1e-12)
        exact = np.sqrt(np.maximum(8.0 - xs**2, 0.0)) / (4.0 * np.pi)
        err = np.max(np.abs(dens[:, 1] - exact))
        assert err < 1e-3, f"density L-inf error {err:.2e}"


def test_criterion_3_atom_decomposition():
    with _Criterion(3, 30.0):
        model = scalar_model(MU1, MU2)
        rep = A.decompose_atom(A.ladder_scan(model, np.array([[0.0]])))
        assert abs(rep.mass - 0.300) < 1e-3
        assert abs(rep.beta1[0, 0].real - 7.0 / 3.0) < 1e-3
        assert abs(rep.beta2[0, 0].real - 2.0) < 1e-3
        assert rep.residuals["i"] < 1e-6
        assert rep.residuals["v"] < 1e-6
        assert rep.residuals["vii"] < 1e-4
        rep2 = A.decompose_atom(A.ladder_scan(model, np.array([[2.0]])))
        assert abs(rep2.mass - 0.100) < 1e-3
        assert abs(rep2.beta1[0, 0].real - 7.0) < 1e-3
        assert abs(rep2.beta2[0, 0].real - 4.0) < 1e-3
        assert rep2.residuals["i"] < 1e-6
        assert rep2.residuals["v"] < 1e-6
        assert rep2.residuals["vii"] < 1e-4


def test_criterion_4_kernel_trace_formula():
    with _Criterion(4, 180.0):
        rng = np.random.default_rng(404)
        N = 2000
        for case in range(10):
            n = int(rng.integers(1, 4))
            t0 = float(rng.uniform(-1.5, 1.5))
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = (h + h.conj().T) / 2
            r = int(rng.integers(1, n + 1))  # kernel dimension planted at t0
            if r < n:
                v = rng.standard_normal((n, n - r)) + 1j * rng.standard_normal((n, n - r))
                c = v @ v.conj().T
            else:
                c = np.zeros((n, n))
            b = t0 * a + c
            mass_atom = float(rng.choice([0.3, 0.37, 0.5, 0.62]))
            mu = M.SpectralMeasure(
                atoms=((t0, mass_atom),),
                continuous=(M.SemicirclePiece(t0 + 4.0, 1.0, 1.0 - mass_atom),),
                support=(min(t0, t0 + 3.0) - 0.1, t0 + 5.1),
            )
            predicted = pencil_kernel_trace(a, b, mu)
            # oracle: exact block spectra over the quantile realization
            spec = rmt.EnsembleSpec(N=N, trials=1, seed=1000 + case, mu1=mu,
                                    mu2=M.point_mass(0.0))
            model = FreeSumModel(a, np.zeros((n, n)), mu, M.point_mass(0.0))
            rep = rmt.oracle_report(spec, model=model, b=b, epsilon=1e-7)
            est, se = rep.masses[0.0]
            assert abs(predicted - est) <= 2.0 / N + 3.0 * se, (
                f"case {case}: predicted {predicted}, empirical {est}"
            )
        # one dense-matrix pass through empirical_kernel_mass itself
        n, N_small = 2, 400
        a = np.diag([1.0, -1.0])
        b = 0.5 * a + np.diag([0.0, 1.0])
        mu = M.SpectralMeasure(
            atoms=((0.5, 0.5),),
            continuous=(M.UniformPiece(2.0, 3.0, 0.5),),
            support=(0.5, 3.0),
        )
        ts = M.quantiles(mu, N_small)
        big = np.kron(b, np.eye(N_small)) - np.kron(a, np.diag(ts))
        est = rmt.empirical_kernel_mass(big, 0.0, 1e-7)
        predicted = pencil_kernel_trace(a, b, mu)
        assert abs(predicted - est) <= 2.0 / N_small


def test_criterion_5_linearization():
    with _Criterion(5, 30.0):
        p = Z1 * Z2 + Z2 * Z1
        L, cert = linearize(p)
        assert L.n == 3
        np.testing.assert_array_equal(L.a0, np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]]))
        np.testing.assert_array_equal(L.a1, np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
        np.testing.assert_array_equal(L.a2, np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]]))
        assert verify_certificate(p, cert)
        report = invertibility_equivalence_check(p, L, trials=100, dim=3, seed=55)
        assert report.ok, report.violations
        assert report.generic_checked == 100
        # kernel trace identity by exact rank computation at dim <= 6
        rng = np.random.default_rng(505)
        for poly in (Z1 * Z2 + Z2 * Z1, Z1 * Z1, Z1 * Z2 * Z1):
            Lp, certp = linearize(poly)
            assert verify_certificate(poly, certp)
            for dim in range(2, 7):
                h1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                h2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                A1 = (h1 + h1.conj().T) / 2
                A2 = (h2 + h2.conj().T) / 2
                P = eval_matrices(poly, A1, A2)
                for lam in list(np.linalg.eigvalsh(P)[:2]) + [0.37]:
                    shifted = corner_shift(Lp, float(lam)).evaluate(A1, A2)
                    assert numerical_kernel_dim(shifted) == numerical_kernel_dim(
                        lam * np.eye(dim) - P
                    )


def test_criterion_6_regularization_and_oracle():
    with _Criterion(6, 300.0):
        p = Z1 * Z2 + Z2 * Z1
        rep = A.eigenvalue_test(p, 0.0, PROJ, PROJ)
        assert rep.regularized, "kernel expectation should be singular here"
        reg = rep.regularization
        assert reg is not None
        assert A.is_invertible_expectation(reg.report.E_p), "post-regularization E must be invertible"
        assert reg.offset_distance < 1e-2, f"integer offset distance {reg.offset_distance:.2e}"
        pipeline_mass = rep.diagnostics["poly_kernel_trace"]
        # oracle at N = 4000; the kernel is trivial so a window below the
        # hard-edge eigenvalue scale (~1/N^2) must contain no spectrum
        N = 4000
        spec = rmt.EnsembleSpec(N=N, trials=3, seed=606, mu1=PROJ, mu2=PROJ)
        orep = rmt.oracle_report(spec, poly=p, lam=0.0, epsilon=1e-8, bins=101)
        est, se = orep.masses[0.0]
        assert abs(pipeline_mass - est) <= 2.0 / N + 3.0 * se, (
            f"pipeline {pipeline_mass:.2e} vs oracle {est:.2e} (se {se:.2e})"
        )


def test_criterion_7_atomless_trichotomy():
    with _Criterion(7, 300.0):
        p = Z1 * Z2 + Z2 * Z1
        for lam in (0.0, 0.37, -0.4, 0.9, -1.3):
            rep = A.eigenvalue_test(p, lam, SC2, SC2)
            trace = rep.diagnostics["poly_kernel_trace"]
            gap = min(abs(trace - v) for v in (0.0, 0.5, 1.0))
            assert gap < 1e-2, f"lambda={lam}: kernel trace {trace}"
        # integer test for random Hermitian-coefficient sums of semicircles
        rng = np.random.default_rng(707)
        for _ in range(3):
            h1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            hb = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a1 = (h1 + h1.conj().T) / 2
            a2 = (h2 + h2.conj().T) / 2
            b = (hb + hb.conj().T) / 2
            model = FreeSumModel(a1, a2, SC2, SC2)
            E, _diag = A.boundary_emass(A.ladder_scan(model, b))
            mass = float(np.trace(E).real) / 2
            report = A.AtomReport(
                b=b, E_p=E, b1=None, b2=None, beta1=None, beta2=None,
                residuals={}, regularized=False, model=model,
            )
            res = A.integer_test(report)
            assert res.mode == "atomless"
            assert res.passed, f"2 * mass = {2 * mass} not near an integer"


def test_criterion_8_property_suites():
    with _Criterion(8, 600.0):
        rng = np.random.default_rng(808)
        # Nevanlinna mapping invariants: scalar and matrix transforms
        measures = [BERN, SC2, M.arcsine_measure(-2, 2), MU1, M.uniform_measure(-1, 1)]
        for mu in measures:
            for x in np.linspace(-2.5, 2.5, 5):
                for y in np.geomspace(1e-3, 5.0, 4):
                    z = complex(x, y)
                    g = M.cauchy_scalar(mu, z)
                    assert g.imag < 0
                    assert abs(g) <= 1.0 / y + 1e-12
                    assert M.f_scalar(mu, z).imag >= y - 1e-9
        for _ in range(6):
            n = int(rng.integers(1, 4))
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = (h + h.conj().T) / 2
            hz = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            z = (hz + hz.conj().T) / 2 + 1j * float(rng.uniform(0.2, 2.0)) * np.eye(n)
            mu = measures[int(rng.integers(0, len(measures)))]
            g = matrix_cauchy(a, mu, z)
            assert np.linalg.eigvalsh(imag_part(g)).max() < 0
            f = matrix_f(a, mu, z)
            assert np.linalg.eigvalsh(imag_part(f) - imag_part(z)).min() >= -1e-9
        # subordination residual postconditions
        models = [
            scalar_model(BERN, SC2),
            scalar_model(MU1, MU2),
            FreeSumModel(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), SC2, BERN),
        ]
        for model in models:
            n = model.n
            for _ in range(5):
                hz = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                z = (hz + hz.conj().T) / 2 + 1j * float(rng.uniform(0.2, 1.5)) * np.eye(n)
                r = solve_subordination(model, z, tol=1e-12)
                assert r.residual_fixed_point <= 1e-10
                assert r.residual_consistency <= 1e-10
                for w in (r.omega1, r.omega2):
                    assert np.linalg.eigvalsh(imag_part(w) - imag_part(z)).min() >= -1e-9
        # involution anti-homomorphism, exact on integer coefficients
        for _ in range(30):
            terms1, terms2 = [], []
            for _k in range(5):
                d = int(rng.integers(0, 4))
                w = tuple(rng.integers(1, 3, size=d).tolist())
                terms1.append((w, complex(int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))))
                d = int(rng.integers(0, 4))
                w = tuple(rng.integers(1, 3, size=d).tolist())
                terms2.append((w, complex(int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))))
            p, q = NCPoly(terms1), NCPoly(terms2)
            assert adjoint(p * q) == adjoint(q) * adjoint(p)
        # oracle reproducibility: bit-identical reports for one seed
        spec = rmt.EnsembleSpec(N=400, trials=3, seed=909, mu1=MU1, mu2=MU2)
        model = scalar_model(MU1, MU2)
        r1 = rmt.oracle_report(spec, model=model, locations=[0.0, 2.0])
        r2 = rmt.oracle_report(spec, model=model, locations=[0.0, 2.0])
        assert np.array_equal(r1.counts_mean, r2.counts_mean)
        assert np.array_equal(r1.counts_std, r2.counts_std)
        assert r1.masses == r2.masses
        assert r1.spikes == r2.spikes
