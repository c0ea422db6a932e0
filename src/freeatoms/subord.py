"""Subordination functions for the free sum a1 (x) X1 + a2 (x) X2.

The solver finds matrices omega1, omega2 in the upper half-plane with

    F1(omega1(z)) = F2(omega2(z)) = omega1(z) + omega2(z) - z,
    Im omega_j(z) >= Im z,

where F_j is the reciprocal transform of a_j (x) X_j.  omega1 is the
fixed point of Phi(w) = h2(h1(w) + z) + z with h_j(w) = F_j(w) - w,
starting at w0 = z.  The plain iteration is a half-plane self-map
(Belinschi, Mai & Speicher, J. reine angew. Math. 732, 2017) but slows
down like 1 / (1 - rho(J)) near the real axis, so each step is a Newton
step: Phi is holomorphic in the entries of w, and its derivative

    J = J_h2(u) J_h1(w),  u = h1(w) + z,

is a complex-linear n^2 x n^2 matrix in closed form, a product of two
numbers at n = 1 (``opval.matrix_h``: h_j and J_hj without inverting
G_j for a law with a continuous part, and J_F - I with
dF[H] = -F dG[H] F for an atomic law).  The
candidate w + delta with (I - J) delta = Phi(w) - w is kept where it
lies in the half-plane and discarded for the plain (damped) step
elsewhere, which preserves the map's guarantees.  A point's one
measure of progress is the halving of its best residual: it is
accepted when its residual reaches tol, or when its best residual
stops halving within the map's eps/y evaluation floor, and it fails
when its best residual stops halving above that floor.  A Newton
iterate at the floor measures a residual that is the difference of
two noise terms, so every exit bound must hold at three consecutive
evaluations.  Residuals of the defining identities are reported, never
assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .measure import SpectralMeasure
from .opval import (Coefficient, _two_atom_law, check_hermitian, herm_part, imag_part, inverse,
                    matrix_cauchy, matrix_f, matrix_h, min_imag_eig, pack_matrix, validate_upper)

DEFAULT_TOL = 1e-12
DEFAULT_Y_EVAL = 1e-4  # height of sum_density's evaluation points
MAX_ITER = 10_000
_LADDER_START = 1e-3  # internal continuation starts here when Im z is tiny


@dataclass(frozen=True)
class FreeSumModel:
    """Hermitian coefficients a1, a2 and the scalar laws mu1, mu2."""

    a1: np.ndarray
    a2: np.ndarray
    mu1: SpectralMeasure
    mu2: SpectralMeasure

    def __post_init__(self):
        a1 = check_hermitian(self.a1, "a1")
        a2 = check_hermitian(self.a2, "a2")
        if a1.shape != a2.shape:
            raise ValueError(f"coefficients must have equal size, got {a1.shape}, {a2.shape}")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    @property
    def n(self):
        return self.a1.shape[0]

    def to_json_dict(self):
        return {
            "n": self.n,
            "a1": pack_matrix(self.a1),
            "a2": pack_matrix(self.a2),
            "mu1": self.mu1.to_json_dict(),
            "mu2": self.mu2.to_json_dict(),
        }


def scalar_model(mu1, mu2):
    """Free sum of two scalar variables (n = 1, unit coefficients)."""
    return FreeSumModel(np.eye(1), np.eye(1), mu1, mu2)


@dataclass
class SubordinationResult:
    """omega1, omega2 at z, and cauchy = G1(omega1), the free sum's G(z).

    For a stack z (K, n, n) the matrices are stacks, both residuals and
    ``point_iterations`` are arrays with one entry per point, and
    ``iterations`` and ``lifted_evaluations`` are totals over the points.
    Iterations and lifts count the continuation ladder's rungs too.
    ``floor_acceptances`` counts the points of z accepted at their
    evaluation floor (the plateau rule) with a fixed-point residual
    above tol.
    """

    omega1: np.ndarray
    omega2: np.ndarray
    cauchy: np.ndarray
    residual_fixed_point: float | np.ndarray
    residual_consistency: float | np.ndarray
    iterations: int
    point_iterations: int | np.ndarray
    lifted_evaluations: int = 0
    floor_acceptances: int = 0


def _norms(m):
    """Spectral norm of each slice: its largest singular value (LAPACK sorts them descending).

    A 1 x 1 slice is its own singular value up to phase.
    """
    if m.shape[-2:] == (1, 1):
        return np.abs(m[..., 0, 0])
    return np.linalg.svd(m, compute_uv=False)[..., 0]


def _lift(w, floor):
    """Lift Im w to ``floor`` in the slices where roundoff left it below (safeguard only).

    Returns the stack and the mask of lifted slices.
    """
    gap = min_imag_eig(w)
    low = gap < floor
    if not low.any():
        return w, low
    w = w.copy()
    w[low] += 1j * (floor - gap)[low, None, None] * np.eye(w.shape[-1])
    return w, low


# the Newton systems of a stack are built and solved a few points at a
# time, as many as fit in this many entries of J and at least one: J
# holds n^4 numbers per point, 600 kB at n = 14
_SYSTEM_CHUNK = 4096


def _newton_step(jac, r):
    """The Newton correction delta with (I - J) delta = r for each slice of a stack.

    ``jac(part)`` returns a new array of the derivative J (k, n^2, n^2)
    of the map on row-major vec at the slices ``part`` (a slice) of the
    stack, which is overwritten with I - J; ``r`` (K, n, n) is the plain
    step minus the iterate.  At n = 1, delta = r / (1 - J).  A chunk
    whose I - J is exactly singular returns NaN, which the candidate
    test rejects, so its points take their plain step.
    """
    k, n = r.shape[0], r.shape[-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if n == 1:
            return r / (1.0 - jac(slice(None)))
        delta = np.empty_like(r)
        per = max(1, _SYSTEM_CHUNK // n ** 4)
        for lo in range(0, k, per):
            part = slice(lo, lo + per)
            system = jac(part)
            np.negative(system, out=system)
            system.reshape(len(system), -1)[:, ::n * n + 1] += 1.0
            try:
                delta[part] = np.linalg.solve(system, r[part].reshape(-1, n * n, 1)).reshape(
                    r[part].shape)
            except np.linalg.LinAlgError:
                delta[part] = np.nan
    return delta


def _chain_jacobian(d1, d2):
    """J = J_h2 J_h1 on row-major vec from two :class:`Derivative` stacks of h = F - id.

    Returns the function of a slice of the stack that builds J there.
    At n = 1 both derivatives are stacks of numbers and J is their product.
    """
    def jac(part):
        # products of resolvents of order 1/y overflow at extreme heights;
        # the non-finite candidate is then rejected
        with np.errstate(over="ignore", invalid="ignore"):
            jh1 = d1.map(lambda f: f[part]).matrix()
            jh2 = d2.map(lambda f: f[part]).matrix()
            return jh2 * jh1 if jh1.shape[-1] == 1 else jh2 @ jh1

    return jac


# a point whose best residual has not halved for _PLATEAU_WINDOW
# iterations and lies within _FLOOR_FACTOR * eps / y of zero, y its
# height, is at the evaluation floor of the map and is accepted there
_PLATEAU_WINDOW = 10
_FLOOR_FACTOR = 4.0
# a point whose best residual has not halved for this many iterations,
# and that no rule accepted, fails instead of running to MAX_ITER
_FAIL_WINDOW = 1000
# every exit bound must hold at this many consecutive evaluations (at all
# of them while a point has had fewer): at a noise floor a Newton iterate
# is the fixed point plus the amplified noise of the evaluation before,
# so its measured residual is the difference of two noise terms, which
# dips under any bound by chance
_CONFIRM = 3


def _damp(fw, w, low, im_floor):
    """Average each low plain step with its iterate (factor 1/2, up to 8 times).

    Every slice flagged in ``low`` stops at its first average above its
    ``im_floor``.  Returns the repaired stack and the slices that never
    got there.
    """
    fw = fw.copy()
    todo = np.flatnonzero(low)
    for _ in range(8):
        fw[todo] = 0.5 * (fw[todo] + w[todo])
        todo = todo[~(min_imag_eig(fw[todo]) > im_floor[todo])]
        if not todo.size:
            break
    return fw, todo


def _failure(failures, result=None):
    """One ConvergenceError naming every failed point of ``failures``.

    ``failures`` maps each failed point's number to its message and
    details; the first point's message leads.
    """
    points = sorted(failures)
    message, details = failures[points[0]]
    if len(points) > 1:
        message += f" ({len(points)} points failed)"
    return ConvergenceError(message, {**details, "point": points[0], "points": points}, result)


def _newton_fixed_point(step, w0, args, tol, im_floor, points, failures):
    """Newton iteration for a fixed point of a stack of maps of H+_n.

    ``step(w, *args)`` returns (Phi(w), J): the map, which must send
    each slice of w into the upper half-plane, and its derivative, as
    :func:`_newton_step` takes it; ``args`` and ``im_floor`` hold one
    entry per point and travel with it, and ``points`` numbers the
    points in errors.  Every point follows the rules of a lone
    iteration.  The Newton candidate w + delta, (I - J) delta =
    Phi(w) - w, is taken where its imaginary part clears ``im_floor``;
    elsewhere the point takes the plain step Phi(w).  A plain step that
    loses positivity by roundoff is averaged with the previous iterate
    (factor 1/2, up to 8 times) before the point fails.

    Every exit bound is a bound on a point's level, the largest residual
    of its last ``_CONFIRM`` evaluations (of all, while it has had
    fewer), so that no residual that dips by chance ends a point.  A
    point converges once its level is within tol.  Very close to the
    real axis the map evaluation itself carries an eps/y conditioning
    floor, y = 2 ``im_floor`` the point's height.  So a point whose best
    residual has not halved for ``_PLATEAU_WINDOW`` iterations is
    accepted once its best level lies below max(tol, ``_FLOOR_FACTOR``
    eps / y); it leaves with its best iterate, a converged point with
    its own, each with that iterate's residual.  A point whose best
    residual has not halved for ``_FAIL_WINDOW`` iterations fails with
    its best level, and so does every point still there at the
    evaluation after ``MAX_ITER`` steps.
    Batched linear solves serve the stack; a point leaves the stack when
    it converges, is accepted or fails.  A failure stops no other point:
    each failed point's number goes into the dict ``failures`` with its
    message and details, for the caller to raise (:func:`_failure`).
    Returns the solutions, residuals and iteration counts in point
    order; a failed point reads NaN with 0.
    """
    k_all = w0.shape[0]
    live = np.arange(k_all)  # rows of w0 still iterating
    sol = np.full(w0.shape, np.nan, dtype=complex)
    sol_res, sol_it = np.full(k_all, np.nan), np.zeros(k_all, dtype=int)
    w = w0
    best_w, best_res = w, np.full(k_all, np.inf)
    # the best residual at its last halving, that iteration, and the floor
    mark, half_it = np.full(k_all, np.inf), np.zeros(k_all, dtype=int)
    res_floor = np.maximum(tol, _FLOOR_FACTOR * np.finfo(float).eps / (2.0 * im_floor))
    # the last _CONFIRM residuals of each point, and its best level
    recent, best_level = np.zeros((k_all, _CONFIRM)), np.full(k_all, np.inf)
    for it in range(1, MAX_ITER + 2):
        fw, jac = step(w, *args)
        high = min_imag_eig(fw) > im_floor
        lost = np.zeros(len(w), dtype=bool)
        if not high.all():
            # roundoff pushed the plain step too close to the real axis: damp
            fw, failed = _damp(fw, w, ~high, im_floor)
            lost[failed] = True
            for k in failed:
                failures[int(points[live[k]])] = (
                    "iterate left the upper half-plane and damping failed", {"iterations": it})
        r = fw - w
        res = _norms(r)
        recent[:, it % _CONFIRM] = res
        level = recent.max(axis=1)
        best_level = np.minimum(best_level, level)
        better = res < best_res
        if better.all():
            best_w, best_res = w, res
        elif better.any():
            best_w = np.where(better[:, None, None], w, best_w)
            best_res = np.where(better, res, best_res)
        halved = best_res < 0.5 * mark
        mark[halved] = best_res[halved]
        half_it[halved] = it
        # every exit: converged, accepted at the floor plateau or failed
        idle = it - half_it
        converged = level <= tol
        done = converged | ((idle >= _PLATEAU_WINDOW) & (best_level <= res_floor))
        stuck = (idle >= _FAIL_WINDOW) & ~done
        for k in np.flatnonzero(stuck):
            failures[int(points[live[k]])] = (
                f"subordination iteration stuck at residual {best_level[k]:.3e} "
                f"for {_FAIL_WINDOW} iterations",
                {"residual": float(best_level[k]), "iterations": it})
        lost |= stuck
        if it > MAX_ITER:  # the last evaluation: every point not done fails
            for k in np.flatnonzero(~(done | lost)):
                failures[int(points[live[k]])] = (
                    f"subordination iteration did not reach tol={tol:g} "
                    f"within {MAX_ITER} iterations (residual {level[k]:.3e})",
                    {"residual": float(level[k]), "iterations": MAX_ITER})
            lost |= ~done
        done &= ~lost
        leave = done | lost
        if done.any():
            # a converged point keeps its iterate, an accepted one its best
            w_out, res_out = w, res
            if not converged.all():
                w_out = np.where(converged[:, None, None], w, best_w)
                res_out = np.where(converged, res, best_res)
            rows = live[done]
            sol[rows], sol_res[rows] = w_out[done], res_out[done]
            sol_it[rows] = min(it, MAX_ITER)
        if leave.all():
            return sol, sol_res, sol_it
        delta = _newton_step(jac, r)
        if leave.any():
            keep = ~leave
            live, w, fw, delta = live[keep], w[keep], fw[keep], delta[keep]
            best_w, best_res = best_w[keep], best_res[keep]
            mark, half_it, res_floor = mark[keep], half_it[keep], res_floor[keep]
            recent, best_level = recent[keep], best_level[keep]
            args = tuple(a[keep] for a in args)
            im_floor = im_floor[keep]
        cand = w + delta
        ok = np.isfinite(cand).all(axis=(1, 2))  # eigvalsh fails on non-finite entries
        ok[ok] = min_imag_eig(cand[ok]) > im_floor[ok]
        w = cand if ok.all() else np.where(ok[:, None, None], cand, fw)


def solve_subordination(model: FreeSumModel, z, tol: float = DEFAULT_TOL) -> SubordinationResult:
    """Solve the subordination fixed point at z in H+_n.

    ``z`` is one point (n, n) or a stack (K, n, n) of points solved
    together, each by the rules of a lone solve; one point is the K = 1
    case.  Deterministic for fixed (model, z, tol).  Every point starts
    cold at w0 = z; points below Im z = 1e-6 are continued down an
    internal geometric ladder first.  ``residual_fixed_point`` is the
    iteration's own step residual ||Phi(omega1) - omega1|| at the
    returned omega1.  G1(omega1) is evaluated once at the solution, and
    F1 = G1^{-1} (a two-atom law takes F1 in closed form);
    omega2 = F1(omega1) - omega1 + z and the consistency residual are
    derived from it.  A failing point stops no other point; then one
    ConvergenceError names them all, with their stack indices as
    ``points`` in the details, ascending, and the first as ``point``.
    Its ``result`` is the SubordinationResult of the points before the
    first failed one (None when that is point 0).
    """
    z = validate_upper(z, "z")
    if not (tol > 0 and math.isfinite(tol)):
        raise PreconditionError(f"tol must be positive and finite, got {tol!r}")
    single = z.ndim == 2
    zs = z[None] if single else z
    a1, a2 = Coefficient(model.a1), Coefficient(model.a2)
    lifts = np.zeros(len(zs), dtype=int)  # lifted evaluations per point
    iters = np.zeros(len(zs), dtype=int)  # iterations per point, continuation included
    failures = {}  # point number -> (message, details)

    # Phi(w) = h2(h1(w) + z) + z with h_j = F_j - id, and its derivative
    # J_h2(u) J_h1(w) at the lifted point u.  Every iterate passed the
    # iteration's floor check (a NaN fails it) and every lifted point
    # sits on its floor, so the transforms skip their check
    def step(w, zz, y_floor, rows):
        h1, d1 = matrix_h(a1, model.mu1, w, check_upper=False)
        u = h1 + zz
        # exact arithmetic guarantees Im u >= Im zz; near the real axis
        # the evaluation error can break that by O(eps/y), so lift the
        # evaluation point back to a quarter of the guaranteed height
        lifted, low = _lift(u, y_floor)
        if low.any():
            lifts[rows[low]] += 1
        h2, d2 = matrix_h(a2, model.mu2, lifted, check_upper=False)
        return h2 + zz, _chain_jacobian(d1, d2)

    y_here = min_imag_eig(zs)
    alive = np.ones(len(zs), dtype=bool)  # no failure yet
    w0 = zs
    if (y_here < 1e-6).any():
        # continuation ladder: reuse omega from larger heights as warm start
        deep = y_here < 1e-6
        w0 = w0.copy()
        herm, im = herm_part(zs), imag_part(zs)
        y = _LADDER_START
        while (on := alive & deep & (y > y_here * 2)).any():
            rows = np.flatnonzero(on)
            zz = herm[rows] + 1j * (im[rows] + (y - y_here[rows])[:, None, None] * np.eye(model.n))
            w0[rows], _, rung_iters = _newton_fixed_point(
                step, w0[rows], (zz, 0.25 * min_imag_eig(zz), rows), max(tol, 1e-10),
                0.5 * (y_here[rows] + y), rows, failures)
            iters[rows] += rung_iters
            alive[list(failures)] = False
            y /= 4.0

    rows = np.flatnonzero(alive)
    omega1 = np.full(zs.shape, np.nan, dtype=complex)
    step_res = np.full(len(zs), np.nan)
    if rows.size:
        omega1[rows], step_res[rows], final_iters = _newton_fixed_point(
            step, w0[rows], (zs[rows], 0.25 * y_here[rows], rows), tol, 0.5 * y_here[rows],
            rows, failures)
        iters[rows] += final_iters

    def finish(k):
        """The result for the first k points."""
        w1, zk = omega1[:k], zs[:k]
        g1 = matrix_cauchy(a1, model.mu1, w1)
        # a two-atom F has a closed form, which avoids inverting an ill-conditioned G
        f1 = matrix_f(a1, model.mu1, w1) if _two_atom_law(model.mu1) else inverse(g1)
        omega2, _ = _lift((f1 - w1) + zk, 0.25 * y_here[:k])
        return SubordinationResult(
            omega1=w1,
            omega2=omega2,
            cauchy=g1,
            residual_fixed_point=step_res[:k],
            residual_consistency=_norms(f1 - matrix_f(a2, model.mu2, omega2)),
            iterations=int(iters[:k].sum()),
            point_iterations=iters[:k],
            lifted_evaluations=int(lifts[:k].sum()),
            floor_acceptances=int(np.count_nonzero(step_res[:k] > tol)),
        )

    if failures:
        first = min(failures)
        raise _failure(failures, finish(first) if first else None)
    result = finish(len(zs))
    if single:
        r = result
        r.omega1, r.omega2, r.cauchy = r.omega1[0], r.omega2[0], r.cauchy[0]
        r.residual_fixed_point = float(r.residual_fixed_point[0])
        r.residual_consistency = float(r.residual_consistency[0])
        r.point_iterations = int(r.point_iterations[0])
    return result


def sum_density(model: FreeSumModel, grid, y_eval: float = DEFAULT_Y_EVAL,
                tol: float = DEFAULT_TOL):
    """Smoothed spectral density -(1/pi) Im tr_n G(x + i y_eval) on a grid.

    The whole grid is one stacked solve, every point started cold at
    w0 = z.  Returns the array of (x, density) pairs and the solve's
    :class:`SubordinationResult`, with its per-point residuals.  A point
    that fails raises ConvergenceError with its x in the details.
    """
    if not (y_eval > 0 and math.isfinite(y_eval)):
        raise PreconditionError(f"y_eval must be positive and finite, got {y_eval!r}")
    n = model.n
    eye = np.eye(n)
    xs = np.asarray(grid, dtype=float)
    if not xs.size:
        raise PreconditionError("the grid has no points")
    z = xs[:, None, None] * eye + 1j * y_eval * eye
    try:
        result = solve_subordination(model, z, tol=tol)
    except ConvergenceError as exc:
        if "point" not in exc.details:
            raise
        x = float(xs[exc.details["point"]])
        raise ConvergenceError(f"{exc} at x={x:.12g}", {**exc.details, "x": x}) from exc
    density = -np.trace(result.cauchy, axis1=-2, axis2=-1).imag / (np.pi * n)
    return np.column_stack([xs, density]), result
