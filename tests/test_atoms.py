import json

import numpy as np
import pytest

from freeatoms import atoms as A
from freeatoms import measure as M
from freeatoms import opval as O
from freeatoms import subord
from freeatoms.errors import ConvergenceError, PreconditionError
from freeatoms.linearize import corner_shift, linearize
from freeatoms.ncpoly import NCPoly
from freeatoms.subord import FreeSumModel, scalar_model, solve_subordination, sum_density

from block_pencil import HALVES_PENCIL, SUM_BLOCK_PENCIL

Z1, Z2 = NCPoly.z1(), NCPoly.z2()

MU1 = M.atomic_measure([(0.0, 0.7), (1.0, 0.3)])
MU2 = M.atomic_measure([(0.0, 0.6), (2.0, 0.4)])
SC2 = M.semicircle_measure(0.0, 2.0)
PROJ = M.atomic_measure([(0.0, 0.5), (1.0, 0.5)])
BERN = M.bernoulli_symmetric()


def b_scalar(x):
    return np.array([[float(x)]])


class TestRichardson:
    def test_linear_decay_eliminated(self):
        ys = 0.1 * 2.0 ** (-np.arange(10))
        vals = [3.0 + 2.0 * y for y in ys]
        limit, diffs, err = A.richardson(vals)
        assert limit == pytest.approx(3.0, abs=1e-14)
        assert err < 1e-12

    def test_fractional_power_tail_completed(self):
        ys = 0.1 * 2.0 ** (-np.arange(16))
        vals = [1.0 + 0.5 * y + 2.0 * y**1.5 for y in ys]
        limit, _diffs, err = A.richardson(vals)
        assert abs(limit - 1.0) < 5e-8
        assert err < 1e-4

    def test_matrix_valued(self):
        ys = 0.1 * 2.0 ** (-np.arange(8))
        base = np.array([[1.0, 0.5], [0.5, 2.0]])
        slope = np.array([[0.3, 0.0], [0.0, -0.2]])
        vals = [base + y * slope for y in ys]
        limit, _, err = A.richardson(vals)
        np.testing.assert_allclose(limit, base, atol=1e-13)


class TestBoundaryEmass:
    def test_scalar_atom_of_sum(self):
        model = scalar_model(MU1, M.point_mass(0.0))
        E, diag = A.boundary_emass(A.ladder_scan(model, b_scalar(0.0)))
        assert E[0, 0].real == pytest.approx(0.7, abs=1e-8)
        assert all(diag["hermitian_dominates"])

    def test_atomless_convolution(self):
        model = scalar_model(SC2, SC2)
        E, _ = A.boundary_emass(A.ladder_scan(model, b_scalar(0.0)))
        assert abs(E[0, 0]) < 1e-6

    def test_shared_atom_mass(self):
        model = scalar_model(MU1, MU2)
        E, _ = A.boundary_emass(A.ladder_scan(model, b_scalar(0.0)))
        assert E[0, 0].real == pytest.approx(0.3, abs=1e-9)
        E2, _ = A.boundary_emass(A.ladder_scan(model, b_scalar(2.0)))
        assert E2[0, 0].real == pytest.approx(0.1, abs=1e-9)

    def test_psd_output(self):
        model = scalar_model(MU1, MU2)
        E, _ = A.boundary_emass(A.ladder_scan(model, b_scalar(0.0)))
        assert np.linalg.eigvalsh(E).min() >= 0

    def test_rejects_bad_ladder(self):
        model = scalar_model(MU1, MU2)
        with pytest.raises(PreconditionError):
            A.ladder_scan(model, b_scalar(0.0), y_ladder=[1e-3, 1e-2])
        with pytest.raises(PreconditionError):
            A.ladder_scan(model, b_scalar(0.0), y_ladder=[1e-3, 1e-9])


class TestSumAtomCandidates:
    def test_two_pairs(self):
        cands = A.sum_atom_candidates(MU1, MU2)
        assert len(cands) == 2
        assert cands[0][0] == pytest.approx(0.0)
        assert cands[0][1] == pytest.approx(0.3)
        assert cands[1][0] == pytest.approx(2.0)
        assert cands[1][1] == pytest.approx(0.1)

    def test_bernoulli_empty(self):
        assert A.sum_atom_candidates(M.bernoulli_symmetric(), M.bernoulli_symmetric()) == []

    def test_point_masses(self):
        cands = A.sum_atom_candidates(M.point_mass(3.0), M.point_mass(4.0))
        assert cands == [(7.0, 1.0)]

    def test_candidate_locations_union(self):
        from freeatoms import rmt
        from freeatoms.subord import scalar_model

        spec = rmt.EnsembleSpec(N=300, trials=2, seed=19, mu1=MU1, mu2=MU2)
        rep = rmt.oracle_report(spec, model=scalar_model(MU1, MU2))
        locs = A.candidate_locations(MU1, MU2, user=[5.0], oracle=rep)
        assert any(abs(x) < 0.05 for x in locs)
        assert any(abs(x - 2.0) < 0.05 for x in locs)
        assert 5.0 in locs


class TestDecomposeAtom:
    def test_fixture_at_zero(self):
        model = scalar_model(MU1, MU2)
        rep = A.decompose_atom(A.ladder_scan(model, b_scalar(0.0)))
        assert rep.mass == pytest.approx(0.3, abs=1e-6)
        assert rep.b1[0, 0].real == pytest.approx(0.0, abs=1e-7)
        assert rep.b2[0, 0].real == pytest.approx(0.0, abs=1e-7)
        assert rep.beta1[0, 0].real == pytest.approx(7 / 3, abs=1e-6)
        assert rep.beta2[0, 0].real == pytest.approx(2.0, abs=1e-6)
        assert rep.residuals["i"] < 1e-6
        assert rep.residuals["v"] < 1e-6
        assert rep.residuals["vii"] < 1e-4
        assert rep.residuals["iv"] < 1e-6
        assert rep.residuals["ii"] > 0
        assert rep.kernel_traces == pytest.approx((0.7, 0.6), abs=1e-9)

    def test_fixture_at_two(self):
        model = scalar_model(MU1, MU2)
        rep = A.decompose_atom(A.ladder_scan(model, b_scalar(2.0)))
        assert rep.mass == pytest.approx(0.1, abs=1e-6)
        assert rep.b1[0, 0].real == pytest.approx(0.0, abs=1e-6)
        assert rep.b2[0, 0].real == pytest.approx(2.0, abs=1e-6)
        assert rep.beta1[0, 0].real == pytest.approx(7.0, abs=1e-5)
        assert rep.beta2[0, 0].real == pytest.approx(4.0, abs=1e-5)

    def test_scalar_beta_times_mass_is_kernel_trace(self):
        model = scalar_model(MU1, MU2)
        rep = A.decompose_atom(A.ladder_scan(model, b_scalar(0.0)))
        assert rep.beta1[0, 0].real * rep.mass == pytest.approx(rep.kernel_traces[0], abs=1e-6)
        assert rep.beta2[0, 0].real * rep.mass == pytest.approx(rep.kernel_traces[1], abs=1e-6)

    def test_constant_shift_degeneracy(self):
        # mu2 = delta_c: atom of mu1 at alpha shows at b = alpha + c with the
        # same mass; b1 = alpha, b2 = c, tau(p2) = 1
        model = scalar_model(MU1, M.point_mass(1.5))
        rep = A.decompose_atom(A.ladder_scan(model, b_scalar(1.5)))
        assert rep.mass == pytest.approx(0.7, abs=1e-6)
        assert rep.b1[0, 0].real == pytest.approx(0.0, abs=1e-6)
        assert rep.b2[0, 0].real == pytest.approx(1.5, abs=1e-6)
        assert rep.kernel_traces[1] == pytest.approx(1.0, abs=1e-9)
        assert rep.residuals["i"] < 1e-6
        assert rep.residuals["v"] < 1e-5
        assert rep.residuals["vii"] < 1e-4

    def test_singular_expectation_rejected(self):
        model = scalar_model(SC2, SC2)
        with pytest.raises(PreconditionError):
            A.decompose_atom(A.ladder_scan(model, b_scalar(0.0)))

    def test_report_json(self):
        model = scalar_model(MU1, MU2)
        rep = A.decompose_atom(A.ladder_scan(model, b_scalar(0.0)))
        d = json.loads(json.dumps(rep.to_json_dict()))
        assert d["mass"] == rep.mass
        assert d["integer_test"] == list(rep.integer_test)
        assert d["beta1"] == [[rep.beta1[0, 0].real, rep.beta1[0, 0].imag]]
        assert d["residuals"] == rep.residuals
        assert d["model"]["mu1"] == model.mu1.to_json_dict()


class TestSupportRegularize:
    def test_invertible_input_is_trivial_doubling(self):
        model = scalar_model(MU1, MU2)
        result = A.support_regularize(A.ladder_scan(model, b_scalar(0.0)))
        np.testing.assert_allclose(result.q1, np.eye(1), atol=1e-12)
        np.testing.assert_allclose(result.q2, np.eye(1), atol=1e-12)
        assert result.integer_offset == pytest.approx(0.0, abs=1e-6)
        assert result.report.regularized

    def test_zero_kernel_degenerate_compression(self):
        # atomless inputs at a non-atom: E = 0, q1 = 0, doubled pencil vanishes
        model = scalar_model(SC2, SC2)
        result = A.support_regularize(A.ladder_scan(model, b_scalar(0.0)))
        assert np.linalg.norm(result.q1, 2) < 1e-12
        assert result.report.mass == pytest.approx(1.0, abs=1e-12)
        assert result.offset_distance < 1e-4

    @staticmethod
    def poly_scan(p, lam, mu1, mu2):
        L, _ = linearize(p)
        return A.ladder_scan(FreeSumModel(L.a1, L.a2, mu1, mu2), -corner_shift(L, lam).a0)

    @pytest.mark.parametrize("case", ["semicircles", "anticommutator-projections",
                                      "anticommutator-semicircles"])
    def test_null_support_is_exact(self, case, monkeypatch):
        scan = {
            "semicircles": lambda: A.ladder_scan(scalar_model(SC2, SC2), b_scalar(0.0)),
            "anticommutator-projections": lambda: self.poly_scan(Z1 * Z2 + Z2 * Z1, 0.0,
                                                                 PROJ, PROJ),
            "anticommutator-semicircles": lambda: self.poly_scan(Z1 * Z2 + Z2 * Z1, 0.37,
                                                                 SC2, SC2),
        }[case]()
        n = scan.model.n
        assert A._support_basis(scan.E_p, floor=scan.null_floor)[0].shape == (n, 0)

        def forbidden(*args, **kwargs):
            raise AssertionError("a null support solves nothing")

        with monkeypatch.context() as m:
            for module, name in [(A, "ladder_scan"), (A, "solve_subordination"),
                                 (subord, "solve_subordination")]:
                m.setattr(module, name, forbidden)
            result = A.support_regularize(scan)

        # the generic steps on the zero pencil: v1 of shape (n, 0), v2 = I
        doubled, b_d, pencil = A._doubled_model(scan.model, scan.b, np.zeros((n, 0)), np.eye(n))
        generic = A.decompose_atom(A.ladder_scan(doubled, b_d, scan.y_ladder, scan.tol))
        report = result.report
        assert report.regularized and report.n == n
        assert report.diagnostics["exact"] and report.diagnostics["ladders_solved"] == 0
        assert report.diagnostics["extrapolation_error"] == 0.0
        assert report.diagnostics["iv_extrapolation_error"] == 0.0
        for name in ("b", "E_p", "b1", "b2", "beta1", "beta2"):
            np.testing.assert_allclose(getattr(report, name), getattr(generic, name),
                                       rtol=0, atol=1e-12)
        assert report.residuals.keys() == generic.residuals.keys()
        for key, value in generic.residuals.items():
            assert report.residuals[key] == pytest.approx(value, abs=1e-12)
        assert report.kernel_traces == pytest.approx(generic.kernel_traces, abs=1e-12)
        for name in ("a1", "a2"):
            np.testing.assert_array_equal(getattr(report.model, name), getattr(doubled, name))
        for name in ("a0", "a1", "a2"):
            np.testing.assert_array_equal(getattr(result.doubled_pencil, name),
                                          getattr(pencil, name))
        np.testing.assert_array_equal(result.q1, np.zeros((n, n)))
        np.testing.assert_array_equal(result.q2, np.eye(n))
        assert not result.ambiguous
        assert result.integer_offset == n + n * generic.mass - 2 * n * scan.mass

    def test_null_support_passes_strict_eigtest(self, tmp_path):
        from freeatoms import cli

        proj = tmp_path / "proj.json"
        proj.write_text(json.dumps(PROJ.to_json_dict()))
        out = tmp_path / "out.json"
        code = cli.main(["eigtest", "--poly", "Z1*Z2+Z2*Z1", "--lambda", "0", "--mu1", str(proj),
                         "--mu2", str(proj), "--strict", "--out", str(out)])
        assert code == cli.EXIT_OK
        inner = json.loads(out.read_text())["regularization"]["report"]
        assert inner["diagnostics"]["exact"] is True
        assert inner["kernel_traces"] == [1.0, 1.0]

    def test_rank_one_kernel_expectation(self):
        # the 3 x 3 block pencil of Z1 + Z2 at 0: E_3 has rank 1, compression
        # must reach an invertible doubled expectation with integer offset
        L = SUM_BLOCK_PENCIL
        model = FreeSumModel(L.a1, L.a2, MU1, MU2)
        b = -L.a0
        result = A.support_regularize(A.ladder_scan(model, b))
        assert int(round(np.trace(result.q1).real)) == 1
        assert result.offset_distance < 1e-6
        assert A.is_invertible_expectation(result.report.E_p)
        assert result.report.residuals["v"] < 1e-6


class TestIntegerTest:
    def test_atomic_identity(self):
        model = scalar_model(MU1, MU2)
        rep = A.decompose_atom(A.ladder_scan(model, b_scalar(0.0)))
        res = A.integer_test(rep)
        assert res.mode == "atomic"
        assert res.passed
        assert res.identity_residual < 1e-6
        # n (mass + 1) = 1.3 матches 0.7 + 0.6
        assert rep.mass + 1 == pytest.approx(1.3, abs=1e-6)

    def test_atomless_mode(self):
        from freeatoms.linearize import linearize

        L, _ = linearize(Z1 + Z2)
        model = FreeSumModel(L.a1, L.a2, SC2, SC2)
        rep = A.eigenvalue_test(Z1 + Z2, 4.9, SC2, SC2)
        res = A.integer_test(rep)
        assert res.mode == "atomless"
        assert res.passed


class TestEigenvalueTest:
    def test_sum_consistency_with_direct_path(self):
        rep = A.eigenvalue_test(Z1 + Z2, 0.0, MU1, MU2)
        direct, _ = A.boundary_emass(A.ladder_scan(scalar_model(MU1, MU2), b_scalar(0.0)))
        assert rep.diagnostics["poly_kernel_trace"] == pytest.approx(
            direct[0, 0].real, abs=1e-6
        )

    def test_sum_at_two(self):
        rep = A.eigenvalue_test(Z1 + Z2, 2.0, MU1, MU2)
        assert rep.diagnostics["poly_kernel_trace"] == pytest.approx(0.1, abs=1e-6)

    @pytest.mark.parametrize("c0, c1, c2, lam", [(0.5, 2.0, -1.0, 0.5), (-1.0, 1.0, 1.0, 1.0)])
    def test_linear_polynomial_runs_the_scalar_model(self, c0, c1, c2, lam):
        # the 1 x 1 pencil (-c0, -c1, -c2) shifted by lam is the model
        # -c1 X1 - c2 X2 at b = c0 - lam, whose kernel is that of lam - p
        rep = A.eigenvalue_test(c0 + c1 * Z1 + c2 * Z2, lam, MU1, MU2)
        assert rep.n == 1 and not rep.regularized
        model = FreeSumModel(np.array([[-c1]]), np.array([[-c2]]), MU1, MU2)
        direct = A.decompose_atom(A.ladder_scan(model, np.array([[c0 - lam]])))
        assert rep.diagnostics["poly_kernel_trace"] == direct.mass
        for name in ("b1", "b2", "beta1", "beta2"):
            np.testing.assert_array_equal(getattr(rep, name), getattr(direct, name))

    def test_palindrome_kernel_limit_beside_a_projection(self, monkeypatch):
        # Z1 Z2 Z1 at 0 on the 5 x 5 pencil of its two halves: ker X1 has
        # trace 0.7 and the compression of X2 to ran X1 is atomless; the
        # doubled pencil's eps-ladder carries a mode growing like 1/eps
        monkeypatch.setattr(A, "linearize", lambda p: (HALVES_PENCIL, None))
        rep = A.eigenvalue_test(Z1 * Z2 * Z1, 0.0, MU1, SC2)
        assert rep.n == 5 and rep.regularized
        assert rep.diagnostics["poly_kernel_trace"] == pytest.approx(0.7, abs=1e-6)
        # a deep rung of the main ladder ends at its evaluation floor: the
        # pipeline's fixture of the floor-plateau rule
        assert rep.diagnostics["floor_acceptances"] > 0
        reg = rep.regularization
        err = reg.report.diagnostics["iv_extrapolation_error"]
        assert 0.0 < err <= O.KERNEL_LIMIT_TOL
        assert reg.integer_offset == pytest.approx(8.0, abs=1e-2)

    def test_palindrome_on_its_smallest_pencil(self):
        # the 3 x 3 pencil with B = [Z1, 0], D = [[0, 1], [1, -Z2]] gives
        # the same kernel trace through a doubled pencil of size r1 + r2
        rep = A.eigenvalue_test(Z1 * Z2 * Z1, 0.0, MU1, SC2)
        assert rep.n == 3 and rep.regularized
        assert rep.diagnostics["poly_kernel_trace"] == pytest.approx(0.7, abs=1e-6)
        reg = rep.regularization
        assert reg.report.n < 2 * rep.n
        assert reg.offset_distance < 1e-2

    def test_anticommutator_free_projections(self):
        rep = A.eigenvalue_test(Z1 * Z2 + Z2 * Z1, 0.0, PROJ, PROJ)
        assert rep.regularized
        assert abs(rep.diagnostics["poly_kernel_trace"]) < 1e-6
        reg = rep.regularization
        assert reg is not None
        assert reg.offset_distance < 1e-2
        assert A.is_invertible_expectation(reg.report.E_p)

    def test_atomless_trichotomy_spot(self):
        rep = A.eigenvalue_test(Z1 * Z2 + Z2 * Z1, 0.37, SC2, SC2)
        trace = rep.diagnostics["poly_kernel_trace"]
        assert min(abs(trace - v) for v in (0.0, 0.5, 1.0)) < 1e-2
        assert "allowed value" in rep.conclusion or "kernel trace" in rep.conclusion

    def test_nonselfadjoint_requires_zero(self):
        with pytest.raises(PreconditionError):
            A.eigenvalue_test(Z1 * Z2, 1.0, MU1, MU2)

    def test_nonselfadjoint_star_square_route(self):
        rep = A.eigenvalue_test(Z1 * Z2, 0.0, MU1, MU2)
        assert rep.diagnostics["poly"].count("Z") >= 4  # squared polynomial ran


class TestMatrixLevelDecomposition:
    """Invertible kernel expectations at genuine matrix level (n = 2)."""

    def test_diagonal_model_componentwise(self):
        # directionwise scalar problems: X1 + X2 and 2 X1 + X2 both carry
        # an atom at 0, so E(p) = 0.3 I is invertible
        a1 = np.diag([1.0, 2.0])
        a2 = np.eye(2)
        model = FreeSumModel(a1, a2, MU1, MU2)
        rep = A.decompose_atom(A.ladder_scan(model, np.zeros((2, 2))))
        np.testing.assert_allclose(np.diag(rep.E_p).real, [0.3, 0.3], atol=1e-6)
        np.testing.assert_allclose(np.diag(rep.beta1).real, [7 / 3, 7 / 3], atol=1e-5)
        np.testing.assert_allclose(np.diag(rep.beta2).real, [2.0, 2.0], atol=1e-5)
        assert rep.residuals["i"] < 1e-6 * 2
        assert rep.residuals["v"] < 1e-6 * 2
        assert rep.residuals["vii"] < 1e-4
        assert rep.kernel_traces == pytest.approx((0.7, 0.6), abs=1e-9)
        res = A.integer_test(rep)
        assert res.mode == "atomic"
        assert res.passed

    def test_unitary_covariance(self):
        a1 = np.diag([1.0, 2.0])
        a2 = np.eye(2)
        th = 0.7
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        base = A.decompose_atom(A.ladder_scan(FreeSumModel(a1, a2, MU1, MU2), np.zeros((2, 2))))
        rotated = A.decompose_atom(A.ladder_scan(
            FreeSumModel(u @ a1 @ u.T, u @ a2 @ u.T, MU1, MU2), np.zeros((2, 2))
        ))
        np.testing.assert_allclose(rotated.beta1, u @ base.beta1 @ u.T, atol=1e-7)
        np.testing.assert_allclose(rotated.E_p, u @ base.E_p @ u.T, atol=1e-7)
        assert rotated.mass == pytest.approx(base.mass, abs=1e-8)


class TestOnePassPerLadder:
    """Every ladder scan extrapolates its boundary limit once, and nothing else does."""

    @staticmethod
    def count_calls(monkeypatch):
        counts = {"ladder_scan": 0, "boundary_emass": 0}
        for name in counts:
            def counted(*args, _name=name, _original=getattr(A, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(A, name, counted)
        return counts

    def test_eigenvalue_test_on_projections(self, monkeypatch):
        counts = self.count_calls(monkeypatch)
        rep = A.eigenvalue_test(Z1 * Z2 + Z2 * Z1, 0.0, PROJ, PROJ)
        assert rep.regularized
        # the location alone: its kernel expectation is null, so the zero
        # pencils of the compression take their closed form
        assert counts == {"ladder_scan": 1, "boundary_emass": 1}

    def test_eigenvalue_test_with_a_kernel(self, monkeypatch):
        counts = self.count_calls(monkeypatch)
        rep = A.eigenvalue_test(Z1 * Z2 * Z1, 0.0, MU1, SC2)
        assert rep.regularized
        assert rep.diagnostics["poly_kernel_trace"] == pytest.approx(0.7, abs=1e-6)
        assert int(round(np.trace(rep.regularization.q1).real)) == 1
        # the location, the row compression and the doubled pencil
        assert counts == {"ladder_scan": 3, "boundary_emass": 3}

    def test_atom_scan_subcommand(self, monkeypatch, tmp_path):
        import json

        from freeatoms import cli

        paths = []
        for name, mu in [("mu1", MU1), ("mu2", MU2)]:
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(mu.to_json_dict()))
        counts = self.count_calls(monkeypatch)
        code = cli.main(["atom-scan", "--mu1", str(paths[0]), "--mu2", str(paths[1]),
                         "--out", str(tmp_path / "scan.json")])
        assert code == cli.EXIT_OK
        assert len(json.loads((tmp_path / "scan.json").read_text())["candidates"]) == 2
        assert counts == {"ladder_scan": 2, "boundary_emass": 2}

    def test_atom_scan_probes_a_user_candidate_once(self, monkeypatch, tmp_path):
        import json
        from pathlib import Path

        from freeatoms import cli

        data = Path(__file__).parent / "data"
        counts = self.count_calls(monkeypatch)
        out = tmp_path / "scan.json"
        code = cli.main(["atom-scan", "--mu1", str(data / "two_atoms_a.json"),
                         "--mu2", str(data / "two_atoms_b.json"), "--candidates", "0.0",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["locations_probed"] == [0.0, 2.0]
        assert [c["predicted_mass"] for c in payload["candidates"]] == pytest.approx([0.3, 0.1])
        assert counts["ladder_scan"] == 2


class TestStackedLadder:
    """A ladder is one stacked subordination solve, every rung started cold."""

    @staticmethod
    def count_solves(monkeypatch):
        calls = []

        def counted(model, z, *args, **kwargs):
            try:
                result = solve_subordination(model, z, *args, **kwargs)
            except ConvergenceError as exc:
                calls.append((np.shape(z), exc))
                raise
            calls.append((np.shape(z), result))
            return result

        monkeypatch.setattr(A, "solve_subordination", counted)
        return calls

    def test_untruncated_scan_is_one_stacked_solve(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        model = FreeSumModel(np.diag([1.0, 2.0]), np.eye(2), MU1, MU2)
        scan = A.ladder_scan(model, np.zeros((2, 2)))
        assert [shape for shape, _ in calls] == [(16, 2, 2)]
        assert not scan.truncated
        assert len(scan.ys) == 16

    @pytest.mark.parametrize("model, b", [
        (scalar_model(MU1, MU2), b_scalar(2.0)),
        (scalar_model(BERN, SC2), b_scalar(0.0)),
        (FreeSumModel(np.diag([1.0, 2.0]), np.eye(2), MU1, MU2), np.zeros((2, 2))),
    ])
    def test_each_rung_agrees_with_its_own_solve(self, model, b):
        scan = A.ladder_scan(model, b, y_ladder=A.default_ladder(depth=12))
        for k, y in enumerate(scan.ys):
            lone = solve_subordination(model, b + 1j * y * np.eye(model.n), tol=scan.tol)
            for mine, theirs in [(scan.solve.omega1, lone.omega1), (scan.solve.omega2, lone.omega2),
                                 (scan.solve.cauchy, lone.cauchy)]:
                assert np.max(np.abs(mine[k] - theirs)) <= 1e-11
            assert scan.solve.point_iterations[k] == lone.iterations

    def test_per_rung_iterations_and_residuals(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        rep = A.decompose_atom(A.ladder_scan(scalar_model(MU1, MU2), b_scalar(0.0)))
        (_, result), = calls
        iterations = rep.diagnostics["iterations"]
        assert len(iterations) == 16 and all(isinstance(i, int) and i > 0 for i in iterations)
        assert sum(iterations) == result.iterations
        expected = np.maximum(result.residual_fixed_point, result.residual_consistency)
        assert rep.diagnostics["rung_residuals"] == expected.tolist()
        assert max(rep.diagnostics["rung_residuals"]) <= 1e-12
        # the report carries them as plain JSON numbers
        written = json.loads(json.dumps(rep.to_json_dict()))["diagnostics"]
        assert written["rung_residuals"] == expected.tolist()

    def test_failing_deep_rungs_truncate_without_a_resolve(self, monkeypatch):
        # cold rungs of the Bernoulli-semicircle sum at 0 converge at
        # evaluation 9, 10, 11, 11, 12, 13, 13, then 14 to 17: with a cap of
        # 12 (thirteen evaluations) rungs 7 to 15 fail, and the ladder keeps
        # the seven rungs above them
        model, ys = scalar_model(BERN, SC2), A.default_ladder()
        monkeypatch.setattr(subord, "MAX_ITER", 12)
        with pytest.raises(ConvergenceError) as info:
            solve_subordination(model, 1j * ys[:, None, None] * np.eye(1))
        assert info.value.details["points"] == list(range(7, 16))
        assert info.value.details["point"] == 7
        calls = self.count_solves(monkeypatch)
        scan = A.ladder_scan(model, b_scalar(0.0))
        # the failing stack's own rungs 0-6 are kept; nothing is solved again
        (shape, exc), = calls
        assert shape == (16, 1, 1) and isinstance(exc, ConvergenceError)
        assert scan.solve is exc.result
        assert len(scan.ys) == 7 and len(scan.diagnostics["iterations"]) == 7
        assert scan.truncated.startswith(f"ladder stopped at y={ys[7]:.3e}:")
        assert scan.diagnostics["ladder_truncated"] == scan.truncated
        # they are the rungs a solve of those seven alone returns
        alone = solve_subordination(model, 1j * ys[:7, None, None] * np.eye(1))
        for mine, theirs in [(scan.solve.omega1, alone.omega1), (scan.solve.omega2, alone.omega2),
                             (scan.solve.cauchy, alone.cauchy)]:
            assert np.max(np.abs(mine - theirs)) <= 1e-11
        assert scan.solve.point_iterations.tolist() == alone.point_iterations.tolist()
        assert scan.solve.iterations == alone.iterations
        assert scan.solve.residual_fixed_point.tolist() == pytest.approx(
            alone.residual_fixed_point.tolist(), abs=1e-15)

    def test_cold_bernoulli_semicircle_ladder_keeps_every_rung(self):
        # the sum has no atom at 0; cold rungs used to stall on the deepest
        # rung (y = 3.05e-6) and truncate the ladder there
        scan = A.ladder_scan(scalar_model(M.bernoulli_symmetric(), M.semicircle_measure(0, 2)), [[0]])
        assert len(scan.ys) == 16 and not scan.truncated
        assert scan.diagnostics["floor_acceptances"] == 0
        assert max(scan.diagnostics["rung_residuals"]) <= 1e-12
        assert max(scan.diagnostics["iterations"]) <= 20
        assert abs(scan.mass) <= 1e-9

    def test_failure_above_six_rungs_names_its_y(self, monkeypatch):
        # a cap of 11 fails rung 5 first, one rung short of an extrapolation
        monkeypatch.setattr(subord, "MAX_ITER", 11)
        y = float(A.default_ladder()[5])
        with pytest.raises(ConvergenceError, match=f"at y={y:.3e}") as info:
            A.ladder_scan(scalar_model(BERN, SC2), b_scalar(0.0))
        assert info.value.details["y"] == y
        assert info.value.details["point"] == 5


def atom_plus_semicircle(mass, center):
    """An atom of ``mass`` at 0 plus a radius-1 semicircle at ``center`` carrying the rest."""
    return M.SpectralMeasure.from_json_dict({
        "atoms": [{"x": 0.0, "m": mass}],
        "support": [min(0.0, center - 1.0), max(0.0, center + 1.0)],
        "continuous": [{"family": "semicircle", "center": center, "radius": 1.0,
                        "weight": 1.0 - mass}]})


class TestFloorAcceptances:
    """Deep rungs end under their evaluation floor; smooth solves report no acceptance."""

    def test_atom_beside_semicircles_ends_under_the_floor(self):
        # the sum atom at 0 of mass 0.3 on the 3 x 3 block pencil of Z1 + Z2:
        # the deep rungs reach tol within 5-30 iterations, so none needs the
        # floor rule (the halves pencil's palindrome scan still takes it)
        L = SUM_BLOCK_PENCIL
        model = FreeSumModel(L.a1, L.a2, atom_plus_semicircle(0.7, 1.5),
                             atom_plus_semicircle(0.6, -1.5))
        scan = A.ladder_scan(model, -L.a0)
        diag = scan.diagnostics
        assert len(diag["iterations"]) == 16 and max(diag["iterations"]) <= 40
        # a rung accepted at its floor would report its residual above tol, under 4 eps / y
        ys = A.default_ladder()
        floors = 4 * np.finfo(float).eps / ys
        assert all(r <= max(1e-12, f) for r, f in zip(diag["rung_residuals"], floors))
        assert abs(L.n * scan.mass - 0.3) <= 1e-9

    @pytest.mark.parametrize("b", [0.0, 2.0])
    def test_two_atom_ladder_counts_none(self, b):
        rep = A.decompose_atom(A.ladder_scan(scalar_model(MU1, MU2), b_scalar(b)))
        assert rep.diagnostics["floor_acceptances"] == 0
        again = json.loads(json.dumps(rep.to_json_dict()))["diagnostics"]
        assert again["floor_acceptances"] == 0
        assert rep.diagnostics["lifted_evaluations"] == again["lifted_evaluations"] == 0

    @pytest.mark.parametrize("y_eval", [1e-4, 1e-6])
    def test_semicircle_grid_counts_none(self, y_eval):
        _, result = sum_density(scalar_model(SC2, SC2), np.linspace(-2.5, 2.5, 41), y_eval=y_eval)
        assert result.floor_acceptances == 0
        assert np.all(result.residual_consistency <= 1e-12)
