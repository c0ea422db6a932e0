import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeatoms import measure as M
from freeatoms import subord
from freeatoms.errors import ConvergenceError, HalfPlaneError, PreconditionError
from freeatoms.opval import imag_part, matrix_cauchy, matrix_f
from freeatoms.subord import (
    DEFAULT_TOL,
    FreeSumModel,
    scalar_model,
    solve_subordination,
    sum_density,
)

from matrix_json import decode

BERN = M.bernoulli_symmetric()
SC2 = M.semicircle_measure(0.0, 2.0)


def bernoulli_omega(z):
    # fixed point of w + 1/w = ... : omega(z) = (z + sqrt(z^2 - 4)) / 2,
    # branch with Im sqrt > 0 on the upper half-plane
    return (z + np.sqrt(z - 2 + 0j) * np.sqrt(z + 2 + 0j)) / 2


class TestSolveSubordination:
    def test_trivial_point_masses(self):
        model = scalar_model(M.point_mass(0.0), M.point_mass(0.0))
        for z in [2j, 1 + 1j]:
            r = solve_subordination(model, np.array([[z]]))
            assert r.omega1[0, 0] == pytest.approx(z, abs=1e-14)
            assert r.omega2[0, 0] == pytest.approx(z, abs=1e-14)

    def test_bernoulli_closed_form_grid(self):
        model = scalar_model(BERN, BERN)
        xs = np.linspace(-3, 3, 10)
        ys = np.geomspace(0.05, 5, 5)
        for x in xs:
            for y in ys:
                z = complex(x, y)
                r = solve_subordination(model, np.array([[z]]), tol=1e-13)
                assert abs(r.omega1[0, 0] - bernoulli_omega(z)) < 1e-9

    def test_constant_shift_exact(self):
        model = scalar_model(SC2, M.point_mass(1.5))
        z = 0.4 + 0.9j
        r = solve_subordination(model, np.array([[z]]))
        assert r.omega1[0, 0] == pytest.approx(z - 1.5, abs=1e-12)
        assert r.residual_fixed_point < 1e-12

    def test_residual_postconditions(self):
        cases = [
            scalar_model(BERN, SC2),
            scalar_model(M.atomic_measure([(0.0, 0.7), (1.0, 0.3)]), BERN),
            FreeSumModel(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), SC2, BERN),
        ]
        rng = np.random.default_rng(40)
        for model in cases:
            n = model.n
            for _ in range(4):
                h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                z = (h + h.conj().T) / 2 + 1j * float(rng.uniform(0.3, 2.0)) * np.eye(n)
                r = solve_subordination(model, z, tol=1e-12)
                assert r.residual_fixed_point <= 1e-10
                assert r.residual_consistency <= 1e-10
                for w in (r.omega1, r.omega2):
                    gap = np.linalg.eigvalsh(imag_part(w) - imag_part(z)).min()
                    assert gap >= -1e-9

    @pytest.mark.parametrize("model", [
        scalar_model(M.SpectralMeasure(
            continuous=(M.TablePiece((-1.0, 0.0, 0.5, 1.0), (0.2, 0.6, 0.7, 0.4), 1.0),),
            support=(-1.0, 1.0)), BERN),
        FreeSumModel(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), SC2, BERN),
    ])
    def test_fixed_point_residual_is_the_step_residual(self, model, monkeypatch):
        # ||Phi(omega1) - omega1||, Phi(w) = h2(h1(w) + z) + z, and not the
        # identity omega2 was built to satisfy (which reads 0 up to rounding).
        # Converged solves end on rounding, where the two cannot be told
        # apart; so the solve stops at its first residual under a loose tol,
        # one Newton step short of rounding
        monkeypatch.setattr(subord, "_CONFIRM", 1)
        tol = 1e-6
        n = model.n
        z = (0.3 + 0.2j) * np.eye(n)[None]
        r = solve_subordination(model, z, tol=tol)
        w = r.omega1
        u = matrix_f(model.a1, model.mu1, w) - w + z
        phi = matrix_f(model.a2, model.mu2, u) - u + z
        step = np.linalg.svd(phi - w, compute_uv=False)[:, 0]
        assert 0 < r.residual_fixed_point[0] <= tol
        assert r.residual_fixed_point[0] == pytest.approx(step[0], rel=1e-6)
        assert r.residual_fixed_point[0] > 1e3 * np.linalg.norm(r.omega1 + r.omega2 - z - np.linalg.inv(r.cauchy))

    def test_swap_symmetry(self):
        model = scalar_model(M.atomic_measure([(0.0, 0.7), (1.0, 0.3)]), SC2)
        z = np.array([[0.3 + 0.7j]])
        r = solve_subordination(model, z)
        rs = solve_subordination(FreeSumModel(model.a2, model.a1, model.mu2, model.mu1), z)
        assert r.omega1[0, 0] == pytest.approx(rs.omega2[0, 0], abs=1e-9)
        assert r.omega2[0, 0] == pytest.approx(rs.omega1[0, 0], abs=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3),
           laws=st.sampled_from(["atomic", "semicircle", "mixed"]), y=st.floats(0.1, 2.0))
    def test_swap_symmetry_property(self, seed, n, laws, y):
        rng = np.random.default_rng(seed)

        def hermitian():
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return (m + m.conj().T) / 2

        atomic = M.atomic_measure([(float(rng.uniform(-1, 0)), 0.4), (float(rng.uniform(0, 1)), 0.6)])
        semicircle = M.semicircle_measure(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2)))
        mu1, mu2 = {"atomic": (atomic, atomic), "semicircle": (semicircle, semicircle),
                    "mixed": (atomic, semicircle)}[laws]
        model = FreeSumModel(hermitian(), hermitian(), mu1, mu2)
        z = hermitian() + 1j * y * np.eye(n)
        r = solve_subordination(model, z)
        rs = solve_subordination(FreeSumModel(model.a2, model.a1, model.mu2, model.mu1), z)
        assert np.max(np.abs(rs.omega1 - r.omega2)) <= 1e-9
        assert np.max(np.abs(rs.omega2 - r.omega1)) <= 1e-9

    def test_cauchy_is_g1_at_omega1(self):
        # one solve evaluates G1(omega1) once; ladder scans read it
        cases = [
            (scalar_model(M.atomic_measure([(0.0, 0.7), (1.0, 0.3)]), SC2), np.array([[0.3 + 0.7j]])),
            (FreeSumModel(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), SC2, BERN),
             np.array([[0.1 + 0.8j, 0.05], [0.05, -0.2 + 0.9j]])),
        ]
        for model, z in cases:
            r = solve_subordination(model, z)
            assert r.cauchy.tobytes() == matrix_cauchy(model.a1, model.mu1, r.omega1).tobytes()
            g = solve_subordination(model, z).cauchy
            assert g.tobytes() == r.cauchy.tobytes()

    @pytest.mark.parametrize("mu1", [M.atomic_measure([(0.0, 0.7), (1.0, 0.3)]), SC2], ids=["two-atoms", "semicircle"])
    def test_omega2_comes_from_matrix_f(self, mu1):
        # omega2 = F1(omega1) - omega1 + z with F1 from matrix_f, the closed
        # form for a two-atom law: 1 / G1 loses cond(G1) eps of F1, which
        # next to a singular kernel expectation is most of its digits
        model = FreeSumModel(np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), mu1, BERN)
        z = np.array([[0.1 + 0.8j, 0.05], [0.05, -0.2 + 0.9j]])
        r = solve_subordination(model, z)
        f1 = matrix_f(model.a1, model.mu1, r.omega1)
        assert r.omega2.tobytes() == (f1 - r.omega1 + z).tobytes()

    def test_deterministic(self):
        model = scalar_model(BERN, SC2)
        z = np.array([[0.1 + 0.2j]])
        r1 = solve_subordination(model, z)
        r2 = solve_subordination(model, z)
        assert np.array_equal(r1.omega1, r2.omega1)
        assert r1.iterations == r2.iterations

    def test_rejects_lower_half_plane(self):
        model = scalar_model(BERN, BERN)
        with pytest.raises(HalfPlaneError):
            solve_subordination(model, np.array([[1.0 - 1j]]))

    def test_rejects_bad_tol(self):
        model = scalar_model(BERN, BERN)
        with pytest.raises(PreconditionError):
            solve_subordination(model, np.array([[1j]]), tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_rejects_non_finite_tol(self, tol):
        model = scalar_model(BERN, BERN)
        with pytest.raises(PreconditionError):
            solve_subordination(model, np.array([[1j]]), tol=tol)


def scalar_points(xs, y):
    """The stack of 1 x 1 points x + iy."""
    return np.asarray(xs, dtype=float)[:, None, None] * np.eye(1) + 1j * y * np.eye(1)


def assert_agrees_with_lone_solves(model, z, stacked, tol=DEFAULT_TOL):
    lone = [solve_subordination(model, zk, tol=tol) for zk in z]
    for k, r in enumerate(lone):
        for field in ("omega1", "omega2", "cauchy"):
            assert np.max(np.abs(getattr(stacked, field)[k] - getattr(r, field))) <= 1e-11
    return lone


class TestStackedSolve:
    def test_points_converge_on_their_own_schedules(self):
        # outside the arcsine support a point converges in 6 or 7
        # iterations, inside it takes up to 20; the floor 4 eps / y
        # lies above tol at y = 1e-4, yet no smooth point stops there
        model = scalar_model(BERN, BERN)
        z = scalar_points(np.linspace(-3.0, 3.0, 25), 1e-4)
        stacked = solve_subordination(model, z)
        assert stacked.residual_fixed_point.shape == (25,)
        assert np.all(stacked.residual_fixed_point <= DEFAULT_TOL)
        assert np.all(stacked.residual_consistency <= DEFAULT_TOL)
        assert stacked.floor_acceptances == 0
        lone = assert_agrees_with_lone_solves(model, z, stacked)
        iterations = [r.iterations for r in lone]
        assert min(iterations) <= 6 and max(iterations) >= 15
        assert stacked.iterations == sum(iterations)

    def test_matrix_points_at_their_own_heights(self):
        model = FreeSumModel(np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), SC2, BERN)
        rng = np.random.default_rng(41)
        z = []
        for y in (1e-4, 0.3, 2.0, 1e-2):
            h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            z.append((h + h.conj().T) / 2 + 1j * y * np.eye(2))
        stacked = solve_subordination(model, np.stack(z))
        assert np.all(stacked.residual_fixed_point <= 1e-10)
        assert np.all(stacked.residual_consistency <= 1e-10)
        assert_agrees_with_lone_solves(model, np.stack(z), stacked)

    def test_one_point_keeps_float_residuals(self):
        r = solve_subordination(scalar_model(BERN, SC2), np.array([[0.1 + 0.2j]]))
        assert r.omega1.shape == (1, 1)
        assert isinstance(r.residual_fixed_point, float)
        assert isinstance(r.residual_consistency, float)
        assert isinstance(r.iterations, int)

    def test_continuation_ladder_runs_on_the_stack(self, monkeypatch):
        model = scalar_model(BERN, SC2)
        deep = scalar_points([-3.5, -0.5, 0.4, 1.7], 5e-7)
        z = np.concatenate([deep[:2], scalar_points([0.2], 1e-3), deep[2:]])
        sizes, iterations = [], []
        fixed_point = subord._newton_fixed_point

        def spy(step, w0, *args):
            sizes.append(len(w0))
            out = fixed_point(step, w0, *args)
            iterations.append(int(out[2].sum()))
            return out

        monkeypatch.setattr(subord, "_newton_fixed_point", spy)
        stacked = solve_subordination(model, z)
        # rungs at y = 1e-3, 2.5e-4, ... down to 3.9e-6 for the four deep
        # points, then the final solve of all five
        assert sizes == [4] * 5 + [5]
        # the reported iterations include every rung of the ladder
        assert stacked.iterations == sum(iterations) > iterations[-1]
        monkeypatch.undo()
        assert np.all(stacked.residual_fixed_point <= DEFAULT_TOL)
        assert_agrees_with_lone_solves(model, z, stacked)

    def test_failing_point_raises_with_its_x(self, monkeypatch):
        # x = -3 converges in 6 iterations, x = 0 needs 20
        monkeypatch.setattr(subord, "MAX_ITER", 12)
        with pytest.raises(ConvergenceError, match="at x=0") as info:
            sum_density(scalar_model(BERN, BERN), [-3.0, 0.0])
        assert info.value.details["x"] == 0.0
        assert info.value.details["point"] == 1

    def test_continuation_failure_stops_no_other_point(self, monkeypatch):
        # with a cap of 6, point 1 fails on its continuation ladder (x = 0 at
        # y = 1e-3 needs 16) and point 3 in the final solve (x = 0 at y = 0.1
        # needs 10); points 0 and 2 (6 each) are solved all the same
        monkeypatch.setattr(subord, "MAX_ITER", 6)
        model = scalar_model(BERN, BERN)
        z = scalar_points([-3.0, 0.0, 3.0, 0.0], 0.1)
        z[1] = 5e-7j
        sizes = []
        fixed_point = subord._newton_fixed_point

        def spy(step, w0, *args):
            sizes.append(len(w0))
            return fixed_point(step, w0, *args)

        monkeypatch.setattr(subord, "_newton_fixed_point", spy)
        with pytest.raises(ConvergenceError, match="2 points failed") as info:
            solve_subordination(model, z)
        assert info.value.details["points"] == [1, 3]
        assert sizes == [1, 3]
        # the error carries the points before the first failure
        result = info.value.result
        lone = solve_subordination(model, z[0])
        assert result.omega1.shape == (1, 1, 1)
        assert np.max(np.abs(result.cauchy[0] - lone.cauchy)) <= 1e-14
        assert result.point_iterations.tolist() == [lone.iterations]

    def test_lifted_evaluations_count_per_point(self, monkeypatch):
        # flag every evaluation of points 1 and 2 (floors 0.25 * 0.2 and
        # 0.25 * 0.1) as lifted; with a cap of 6, point 2 (x = 0, which
        # needs 10) fails and the error's result keeps points 0 and 1 (6
        # each), with point 1's lifts only
        lift = subord._lift

        def flag_points_1_2(w, floor):
            w, low = lift(w, floor)
            return w, low | (floor == 0.25 * 0.2) | (floor == 0.25 * 0.1)

        monkeypatch.setattr(subord, "_lift", flag_points_1_2)
        model = scalar_model(BERN, BERN)
        z = scalar_points([-3.0, 3.0, 0.0], 0.1) + 1j * np.array([0.2, 0.1, 0.0])[:, None, None]
        full = solve_subordination(model, z)
        assert full.lifted_evaluations == full.point_iterations[1] + full.point_iterations[2]
        monkeypatch.setattr(subord, "MAX_ITER", 6)
        with pytest.raises(ConvergenceError) as info:
            solve_subordination(model, z)
        assert info.value.details["points"] == [2]
        kept = info.value.result
        assert kept.point_iterations.tolist() == full.point_iterations[:2].tolist()
        assert kept.lifted_evaluations == full.point_iterations[1]

    def test_low_evaluation_point_is_lifted_and_counted(self, monkeypatch):
        # push the first h1(w) + z down to Im 0.01, below its floor
        # 0.25 Im z = 0.05: F2 is evaluated on the floor, the lift is
        # counted, and the solve still reaches the unperturbed solution
        model = scalar_model(BERN, BERN)
        z = np.array([[0.5 + 0.2j]])
        plain = solve_subordination(model, z)
        matrix_h = subord.matrix_h
        points = []

        def low_first(a, mu, w, **kwargs):
            points.append(w)
            out = matrix_h(a, mu, w, **kwargs)
            if len(points) > 1:
                return out
            h, d = out
            return h - 1j * (np.imag(h + z) - 0.01), d

        monkeypatch.setattr(subord, "matrix_h", low_first)
        lifted = solve_subordination(model, z)
        assert points[1][0, 0, 0].imag == pytest.approx(0.05, rel=1e-12)
        assert (plain.lifted_evaluations, lifted.lifted_evaluations) == (0, 1)
        assert np.max(np.abs(lifted.cauchy - plain.cauchy)) <= 1e-12

    def test_failure_at_the_first_point_carries_no_result(self, monkeypatch):
        monkeypatch.setattr(subord, "MAX_ITER", 6)
        with pytest.raises(ConvergenceError) as info:
            solve_subordination(scalar_model(BERN, BERN), scalar_points([0.0, -3.0], 0.1))
        assert info.value.details["points"] == [0]
        assert info.value.result is None

    def test_sum_density_solves_its_grid_once(self, monkeypatch):
        shapes = []
        solve = subord.solve_subordination

        def counting(model, z, *args, **kwargs):
            shapes.append(np.shape(z))
            return solve(model, z, *args, **kwargs)

        monkeypatch.setattr(subord, "solve_subordination", counting)
        data, result = sum_density(scalar_model(BERN, SC2), np.linspace(-3.0, 3.0, 9))
        assert shapes == [(9, 1, 1)]
        assert data.shape == (9, 2)
        assert result.residual_fixed_point.shape == (9,)


def affine_steps(slopes, shifts, noise=0.0, decay=1.0, seed=0):
    """A stack of affine maps w -> a w + c, one per point, that logs each stack size.

    Each call returns the map and its exact derivative a, as a function of
    a slice of the points.  Call k adds a seeded term of modulus
    ``noise * decay**k`` and random phase to every point, like the
    roundoff of a map evaluated near the real axis.
    """
    sizes = []
    rng = np.random.default_rng(seed)

    def step(w, a, c):
        sizes.append(len(w))
        term = noise * decay ** (len(sizes) - 1) * np.exp(2j * np.pi * rng.random(len(w)))
        return a[:, None, None] * w + (c + term)[:, None, None], lambda part: a[part, None, None]

    args = (np.asarray(slopes, dtype=complex), np.asarray(shifts, dtype=complex))
    return step, args, sizes


def run_fixed_point(step, w0, args, im_floor):
    """The stacked fixed point at tol = DEFAULT_TOL, raising its failures as the solver does."""
    failures = {}
    out = subord._newton_fixed_point(step, w0, args, DEFAULT_TOL, im_floor, np.arange(len(w0)),
                                     failures)
    if failures:
        raise subord._failure(failures)
    return out


class TestFailingPoints:
    """A failing point leaves the stack; the others run on, and one error names all."""

    def run(self, step, args):
        k = len(args[0])
        w0 = np.full((k, 1, 1), 1j)
        return run_fixed_point(step, w0, args, np.full(k, 1e-3))

    def test_damping_failure_stops_no_other_point(self):
        # point 0 jumps far below the real axis, point 1 contracts to 1 + 1j,
        # point 2 drifts upwards forever
        step, args, sizes = affine_steps([1.0, 0.5, 1.0], [-1e6j, 0.5 + 0.5j, 1j])
        with pytest.raises(ConvergenceError, match="damping failed") as info:
            self.run(step, args)
        assert info.value.details["points"] == [0, 2]
        assert info.value.details["point"] == 0
        assert info.value.details["iterations"] == 1
        assert sizes[:2] == [3, 2]
        # point 1 converged, point 2 ran until it was stuck
        assert sizes[-1] == 1 and len(sizes) == subord._FAIL_WINDOW + 1

    def test_damping_stops_once_every_step_is_repaired(self, monkeypatch):
        # from 4i the plain step of w -> -w/2 + 1.5 + 1.5i is 1.5 - 0.5i,
        # below the floor; its first average with the iterate, 0.75 + 1.75i,
        # clears it, and damping stops there: no further average is
        # checked on an empty stack.  The Newton step from that average
        # gives 0.5 + 2.5i, and the fixed point 1 + i is reached
        sizes = []
        min_imag_eig = subord.min_imag_eig
        monkeypatch.setattr(subord, "min_imag_eig", lambda w: sizes.append(len(w)) or min_imag_eig(w))
        step, args, _ = affine_steps([-0.5], [1.5 + 1.5j])
        iterates = []

        def logged(w, *a):
            iterates.append(complex(w[0, 0, 0]))
            return step(w, *a)

        w, _res, _it = run_fixed_point(logged, np.full((1, 1, 1), 4j), args, np.array([1e-3]))
        assert iterates[:2] == [4j, 0.5 + 2.5j]
        assert 0 not in sizes
        assert w[0, 0, 0] == pytest.approx(1 + 1j, abs=1e-12)

    def test_stuck_point_fails_after_the_window(self):
        step, args, sizes = affine_steps([1.0], [1j])
        with pytest.raises(ConvergenceError, match="stuck at residual 1.000e[+]00") as info:
            self.run(step, args)
        assert info.value.details["iterations"] == subord._FAIL_WINDOW + 1
        assert info.value.details["points"] == [0]
        assert len(sizes) == subord._FAIL_WINDOW + 1

    def test_steady_decrease_without_halving_fails_after_the_window(self):
        # the residual 1e-3 (1 - 1e-4)^k improves at every evaluation but
        # halves only after about 6900 of them
        calls = []

        def step(w):
            calls.append(len(w))
            return w + 1e-3 * (1 - 1e-4) ** (len(calls) - 1), lambda part: np.zeros((1, 1, 1))

        with pytest.raises(ConvergenceError, match="stuck") as info:
            run_fixed_point(step, np.full((1, 1, 1), 1j), (), np.array([1e-3]))
        assert info.value.details["iterations"] == subord._FAIL_WINDOW + 1
        assert len(calls) == subord._FAIL_WINDOW + 1

    def test_every_point_at_the_cap_is_named(self, monkeypatch):
        monkeypatch.setattr(subord, "MAX_ITER", 20)
        step, args, _ = affine_steps([1.0, 0.5, 1.0], [1j, 0.5 + 0.5j, 2j])
        with pytest.raises(ConvergenceError, match="within 20 iterations") as info:
            self.run(step, args)
        assert info.value.details["points"] == [0, 2]
        assert info.value.details["residual"] == 1.0


class TestFloorAcceptance:
    """A point whose best residual stops halving at its evaluation floor leaves with its best."""

    @staticmethod
    def run(step, args, height, log=None):
        """Solve one point at im_floor = height / 2; return the result and the (iterate, residual) log.

        A given ``log`` is filled in place, so that it survives a raise.
        """
        log = [] if log is None else log

        def logged(w, *a):
            fw, jac = step(w, *a)
            log.append((w[0].copy(), float(subord._norms(fw - w)[0])))
            return fw, jac

        out = run_fixed_point(logged, np.full((1, 1, 1), 1j), args, np.array([height / 2]))
        return out, log

    @staticmethod
    def halvings(log):
        """Iterations (1-based) at which the best residual fell below half its previous mark."""
        mark, best, out = np.inf, np.inf, []
        for it, (_, res) in enumerate(log, start=1):
            best = min(best, res)
            if best < 0.5 * mark:
                mark = best
                out.append(it)
        return out

    def test_plateau_below_the_floor_leaves_ten_iterations_after_its_last_halving(self):
        # the residual wanders near 1e-11, under the floor 4 eps / y = 4.4e-10
        step, args, _ = affine_steps([0.5], [0.5 + 0.5j], noise=1e-11, seed=1)
        (w, res, its), log = self.run(step, args, 2e-6)
        best = min(range(len(log)), key=lambda k: log[k][1])
        assert its[0] == len(log) == self.halvings(log)[-1] + subord._PLATEAU_WINDOW
        assert DEFAULT_TOL < res[0] == log[best][1] <= 1e-10
        assert best < len(log) - 1 and w[0] == log[best][0]

    @pytest.mark.parametrize("noise, height", [
        (1e-11, 2e-3),  # residual about 1.3e-12, above the floor tol itself
        (1e-7, 2e-6),  # residual about 1.3e-8, above the floor 4 eps / y = 4.4e-10
    ])
    def test_plateau_above_every_floor_fails(self, noise, height):
        step, args, _ = affine_steps([0.5], [0.5 + 0.5j], noise=noise, seed=1)
        log = []
        with pytest.raises(ConvergenceError, match="stuck") as info:
            self.run(step, args, height, log)
        floor = max(DEFAULT_TOL, subord._FLOOR_FACTOR * np.finfo(float).eps / height)
        assert floor < info.value.details["residual"] < 1e-6
        assert info.value.details["iterations"] == self.halvings(log)[-1] + subord._FAIL_WINDOW

    @pytest.mark.parametrize("seed", range(4))
    def test_smoothly_converging_point_keeps_its_iterate(self, seed):
        # the residual halves every few iterations far under the floor 4.4e-7
        step, args, _ = affine_steps([0.5], [0.5 + 0.5j], noise=1e-8, decay=0.5, seed=seed)
        (w, res, its), log = self.run(step, args, 2e-9)
        assert its[0] == len(log) > subord._PLATEAU_WINDOW
        assert np.diff(self.halvings(log)).max() < subord._PLATEAU_WINDOW
        assert res[0] == log[-1][1] <= DEFAULT_TOL and w[0] == log[-1][0]


class TestSumCauchy:
    def test_bernoulli_arcsine_value(self):
        model = scalar_model(BERN, BERN)
        g = solve_subordination(model, np.array([[3j]])).cauchy
        assert g[0, 0] == pytest.approx(-1j / np.sqrt(13), abs=1e-11)

    def test_additive_identity(self):
        model = scalar_model(SC2, M.point_mass(0.0))
        z = 0.2 + 0.6j
        g = solve_subordination(model, np.array([[z]])).cauchy
        assert g[0, 0] == pytest.approx(M.cauchy_scalar(SC2, z), abs=1e-11)

    def test_semicircle_stability_value(self):
        # oracle: radius adds in quadrature, here sc(0,2)+sc(0,2) = sc(0,2*sqrt2);
        # closed form checked against quadrature in the measure tests
        model = scalar_model(SC2, SC2)
        g = solve_subordination(model, np.array([[2j]])).cauchy
        assert g[0, 0] == pytest.approx(1j * (1 - np.sqrt(3)) / 2, abs=1e-9)

    def test_consistency_with_omega_sum(self):
        model = scalar_model(BERN, SC2)
        z = np.array([[0.4 + 0.5j]])
        r = solve_subordination(model, z)
        g = r.cauchy
        alt = np.linalg.inv(r.omega1 + r.omega2 - z)
        assert np.linalg.norm(g - alt, 2) < 1e-10

    def test_imaginary_part_negative_definite(self):
        model = FreeSumModel(np.diag([1.0, 0.5]), np.diag([0.5, 1.0]), BERN, SC2)
        z = np.array([[0.1 + 0.8j, 0.05], [0.05, -0.2 + 0.9j]])
        g = solve_subordination(model, z).cauchy
        assert np.linalg.eigvalsh(imag_part(g)).max() < 0


class TestSumDensity:
    def test_arcsine_center_value(self):
        model = scalar_model(BERN, BERN)
        d, _ = sum_density(model, [0.0], y_eval=1e-5)
        assert d[0, 1] == pytest.approx(1 / (2 * np.pi), abs=1e-4)

    def test_point_mass_sum_is_flat_away_from_atom(self):
        model = scalar_model(M.point_mass(0.0), M.point_mass(0.0))
        d, _ = sum_density(model, [1.0], y_eval=1e-4)
        assert abs(d[0, 1]) < 1e-3

    def test_semicircle_sum_center(self):
        model = scalar_model(SC2, SC2)
        d, _ = sum_density(model, [0.0], y_eval=1e-5)
        assert d[0, 1] == pytest.approx(1 / (np.pi * np.sqrt(2)), abs=1e-4)

    def test_nonnegative_on_grid(self):
        model = scalar_model(BERN, SC2)
        d, _ = sum_density(model, np.linspace(-3.5, 3.5, 41), y_eval=1e-4)
        assert np.all(d[:, 1] >= -1e-10)

    def test_continuation_ladder_reaches_the_axis(self):
        # mix = 0.3 delta_0 + 0.7 semicircle: started cold at x = 0 without
        # the continuation ladder, the point is floor-accepted far from its
        # fixed point (residual 7.8e-8 < 4 eps / y at y = 1e-8) and reads 9.5e6
        mix = M.SpectralMeasure(atoms=((0.0, 0.3),), support=(-2.0, 2.0),
                                continuous=(M.SemicirclePiece(0.0, 2.0, 0.7),))
        model = scalar_model(mix, mix)
        xs = [-1.0, 0.0, 1.0]
        ref, _ = sum_density(model, xs, y_eval=1e-6)
        for y in (1e-8, 1e-10):
            data, _ = sum_density(model, xs, y_eval=y)
            np.testing.assert_allclose(data[:, 1], ref[:, 1], rtol=0, atol=1e-5)

    @pytest.mark.parametrize("y_eval", [1e-4, 1e-5])
    def test_gap_grid_converges_by_tol(self, y_eval):
        # x = 1.5 lies in a gap of the support, where omega1 grows like 0.75i / y;
        # every point, x = 1.5 too, brings its step residual to tol without a floor acceptance
        mu1 = M.atomic_measure([(0.0, 0.7), (1.0, 0.3)])
        mu2 = M.atomic_measure([(0.0, 0.6), (2.0, 0.4)])
        _, result = sum_density(scalar_model(mu1, mu2), np.linspace(1.3, 1.7, 9), y_eval=y_eval)
        assert result.floor_acceptances == 0
        assert (result.residual_fixed_point <= DEFAULT_TOL).all()

    def test_rejects_empty_grid(self):
        with pytest.raises(PreconditionError, match="no points"):
            sum_density(scalar_model(BERN, BERN), [])

    def test_rejects_nonpositive_height(self):
        model = scalar_model(BERN, BERN)
        with pytest.raises(PreconditionError):
            sum_density(model, [0.0], y_eval=0.0)

    @pytest.mark.parametrize("y_eval", [float("nan"), float("inf")])
    def test_rejects_non_finite_height(self, y_eval):
        model = scalar_model(BERN, BERN)
        with pytest.raises(PreconditionError):
            sum_density(model, [0.0], y_eval=y_eval)


class TestModelValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            FreeSumModel(np.array([[0, 1], [0, 0]]), np.eye(2), BERN, BERN)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            FreeSumModel(np.eye(2), np.eye(3), BERN, BERN)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(ValueError, match="a1 has non-finite entries"):
            FreeSumModel(np.array([[bad]]), np.eye(1), BERN, BERN)
        with pytest.raises(ValueError, match="a2 has non-finite entries"):
            FreeSumModel(np.eye(2), np.array([[1.0, 0.0], [0.0, bad]]), BERN, BERN)

    def test_extreme_finite_coefficients_build_and_serialize_quietly(self):
        # building or serializing a model runs no numerics on its coefficients:
        # herm_part or eigh of these finite matrices would overflow
        big = np.finfo(float).max
        a1 = np.array([[big, complex(-big, big)], [complex(-big, -big), -big]])
        a2 = np.diag([big, 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = FreeSumModel(a1, a2, BERN, SC2)
            d = json.loads(json.dumps(model.to_json_dict()))
        assert decode(d["a1"], 2).tobytes() == model.a1.tobytes()
        assert decode(d["a2"], 2).tobytes() == model.a2.tobytes()

    def test_json(self):
        model = FreeSumModel(np.diag([1.0, -1.0]), np.eye(2), BERN, SC2)
        d = model.to_json_dict()
        assert d["n"] == 2
        assert np.array_equal(decode(d["a1"], 2), model.a1)
        assert np.array_equal(decode(d["a2"], 2), model.a2)
        assert d["mu1"] == BERN.to_json_dict()
        assert d["mu2"] == SC2.to_json_dict()
