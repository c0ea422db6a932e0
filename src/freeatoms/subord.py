"""Subordination functions for the free sum a1 (x) X1 + a2 (x) X2.

The solver finds matrices omega1, omega2 in the upper half-plane with

    F1(omega1(z)) = F2(omega2(z)) = omega1(z) + omega2(z) - z,
    Im omega_j(z) >= Im z,

where F_j is the reciprocal transform of a_j (x) X_j.  omega1 is the
fixed point of w -> h2(h1(w) + z) + z with h_j(w) = F_j(w) - w, starting
at w0 = z.  The plain iteration is a half-plane self-map but can
converge slowly near the real axis, so it is wrapped in Anderson
mixing over the same map; any accelerated candidate that leaves the
half-plane is discarded for the plain (damped) step, which preserves
the map's guarantees.  Residuals of the defining identities are
reported, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .measure import SpectralMeasure
from .opval import (Coefficient, check_hermitian, herm_part, imag_part, matrix_cauchy,
                    matrix_f, min_imag_eig, pack_matrix, unpack_matrix, validate_upper)

DEFAULT_TOL = 1e-12
MAX_ITER = 10_000
_ANDERSON_MEMORY = 6
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

    @classmethod
    def from_json_dict(cls, d):
        n = int(d.get("n", 1))
        a1 = unpack_matrix(d["a1"], n) if "a1" in d else np.eye(n)
        a2 = unpack_matrix(d["a2"], n) if "a2" in d else np.eye(n)
        return cls(a1, a2, SpectralMeasure.from_json_dict(d["mu1"]),
                   SpectralMeasure.from_json_dict(d["mu2"]))


def scalar_model(mu1, mu2):
    """Free sum of two scalar variables (n = 1, unit coefficients)."""
    return FreeSumModel(np.eye(1), np.eye(1), mu1, mu2)


@dataclass
class SubordinationResult:
    """omega1, omega2 at z, and cauchy = G1(omega1), the free sum's G(z).

    For a stack z (K, n, n) the matrices are stacks, both residuals and
    ``point_iterations`` are arrays with one entry per point, and
    ``iterations`` and ``lifted_evaluations`` are totals over the points.
    ``floor_acceptances`` counts the points of z accepted at their
    evaluation floor (the plateau or stall rule) with a fixed-point
    residual above tol.
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
    """Spectral norm of each slice: its largest singular value (LAPACK sorts them descending)."""
    return np.linalg.svd(m, compute_uv=False)[..., 0]


def _lift(w, floor):
    """Lift Im w to ``floor`` in the slices where roundoff left it below (safeguard only).

    Returns the stack and the number of lifted slices.
    """
    gap = min_imag_eig(w)
    low = gap < floor
    if not low.any():
        return w, 0
    w = w.copy()
    w[low] += 1j * (floor - gap)[low, None, None] * np.eye(w.shape[-1])
    return w, int(low.sum())


def _least_squares(a, b):
    """Minimum-norm least-squares solution of a x = b for each slice of a stack.

    A thin SVD per slice with the cutoff of ``lstsq(rcond=None)``:
    singular values up to eps * max(rows, columns) * sigma_1 count as
    zero, so a rank-deficient history still has a solution.
    """
    u, sv, vh = np.linalg.svd(a, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(a.shape[-2:]) * sv[..., :1]
    coef = np.divide((u.conj().swapaxes(-1, -2) @ b[..., None])[..., 0], sv,
                     out=np.zeros(sv.shape, dtype=complex), where=keep)
    return (vh.conj().swapaxes(-1, -2) @ coef[..., None])[..., 0]


_STALL_WINDOW = 60
_STALL_FLOOR = 1e-8
# a point whose best residual has not halved for _PLATEAU_WINDOW
# iterations and lies within _FLOOR_FACTOR * eps / y of zero, y its
# height, is at the evaluation floor of the map and is accepted there
_PLATEAU_WINDOW = 10
_FLOOR_FACTOR = 4.0
# a point whose best residual, still above the stall floor, has not
# improved for this many iterations fails instead of running to MAX_ITER
_FAIL_WINDOW = 1000


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


def _gather(parts, failures):
    """Solutions, residuals and iteration counts in point order.

    ``parts`` holds (rows, solutions, residuals, iterations) in the order
    the points left the stack; a lone part holds every point in order.
    ``failures`` maps each failed point's number to its message and
    details; if there is any, one ConvergenceError names them all.
    """
    if failures:
        points = sorted(failures)
        message, details = failures[points[0]]
        if len(points) > 1:
            message += f" ({len(points)} points failed)"
        raise ConvergenceError(message, {**details, "point": points[0], "points": points})
    if len(parts) == 1:
        rows, w, res, it = parts[0]
        return w, res, np.full(len(rows), it)
    k_all = sum(len(rows) for rows, *_ in parts)
    sol = np.empty((k_all,) + parts[0][1].shape[1:], dtype=complex)
    sol_res, sol_it = np.empty(k_all), np.empty(k_all, dtype=int)
    for rows, w, res, it in parts:
        sol[rows], sol_res[rows], sol_it[rows] = w, res, it
    return sol, sol_res, sol_it


def _anderson_fixed_point(step, w0, args, tol, im_floor, points):
    """Anderson-accelerated fixed point iteration on a stack of matrices in H+_n.

    ``step(w, *args)`` must map each slice of w into the upper
    half-plane; ``args`` and ``im_floor`` hold one entry per point and
    travel with it, and ``points`` numbers the points in errors.  Every
    point follows the rules of a lone iteration.  Accelerated candidates
    outside the half-plane fall back to the plain step; a plain step
    that loses positivity by roundoff is averaged with the previous
    iterate (factor 1/2, up to 8 times) before the point fails.  Very
    close to the real axis the map evaluation itself carries an eps/y
    conditioning floor, y = 2 ``im_floor`` the point's height.  So a
    point whose best residual has not halved for ``_PLATEAU_WINDOW``
    iterations and lies below max(tol, ``_FLOOR_FACTOR`` eps / y) is
    accepted at that floor, and so is one idle for ``_STALL_WINDOW``
    iterations below ``_STALL_FLOOR``; both leave with their best
    iterate, and the residual reports it honestly.  A point stuck above
    these floors for ``_FAIL_WINDOW`` iterations fails.  The history has
    the same length at every point, so one batched least-squares solve
    serves the stack; a point leaves the stack when it converges, stalls
    or fails.  Every point runs to its end, so a failure stops no other
    point; then one ConvergenceError names every failed point in
    ``details["points"]`` (ascending) and the first in
    ``details["point"]``.  Returns the solutions, residuals and
    iteration counts.
    """
    k_all = w0.shape[0]
    live = np.arange(k_all)  # rows of w0 still iterating
    parts = []  # (rows, solutions, residuals, iterations) as points leave
    failures = {}  # point number -> (message, details)
    w = w0
    dw_hist, dr_hist = [], []
    prev_w = prev_r = None
    best_w, best_res, best_it = w, np.full(k_all, np.inf), np.zeros(k_all, dtype=int)
    # the best residual at its last halving, that iteration, and the floor
    mark, half_it = np.full(k_all, np.inf), np.zeros(k_all, dtype=int)
    res_floor = np.maximum(tol, _FLOOR_FACTOR * np.finfo(float).eps / (2.0 * im_floor))
    for it in range(1, MAX_ITER + 1):
        fw = step(w, *args)
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
        better = res < best_res
        if better.all():
            best_w, best_res = w, res
        elif better.any():
            best_w = np.where(better[:, None, None], w, best_w)
            best_res = np.where(better, res, best_res)
        best_it[better] = it
        halved = best_res < 0.5 * mark
        mark[halved] = best_res[halved]
        half_it[halved] = it
        converged = res <= tol
        done = converged | ((it - half_it >= _PLATEAU_WINDOW) & (best_res <= res_floor))
        if it >= _STALL_WINDOW:
            idle = it - best_it
            done |= (idle >= _STALL_WINDOW) & (best_res <= _STALL_FLOOR)
            # idle that long above the floor, a point was never stall-accepted
            stuck = idle >= _FAIL_WINDOW
            for k in np.flatnonzero(stuck):
                failures[int(points[live[k]])] = (
                    f"subordination iteration stuck at residual {best_res[k]:.3e} "
                    f"for {_FAIL_WINDOW} iterations",
                    {"residual": float(best_res[k]), "iterations": it})
            lost |= stuck
        done = done & ~lost
        leave = done | lost
        if leave.any():
            if done.any():
                # a converged point keeps its iterate, an accepted one its best
                w_out, res_out = w, res
                if not converged.all():
                    w_out = np.where(converged[:, None, None], w, best_w)
                    res_out = np.where(converged, res, best_res)
                parts.append((live[done], w_out[done], res_out[done], it))
            if leave.all():
                return _gather(parts, failures)
            keep = ~leave
            live, w, fw, r = live[keep], w[keep], fw[keep], r[keep]
            best_w, best_res, best_it = best_w[keep], best_res[keep], best_it[keep]
            mark, half_it, res_floor = mark[keep], half_it[keep], res_floor[keep]
            args = tuple(a[keep] for a in args)
            im_floor = im_floor[keep]
            if prev_w is not None:
                prev_w, prev_r = prev_w[keep], prev_r[keep]
                dw_hist = [h[keep] for h in dw_hist]
                dr_hist = [h[keep] for h in dr_hist]
        if prev_w is not None:
            dw_hist.append((w - prev_w).reshape(len(w), -1))
            dr_hist.append((r - prev_r).reshape(len(w), -1))
            if len(dw_hist) > _ANDERSON_MEMORY:
                dw_hist.pop(0)
                dr_hist.pop(0)
        prev_w, prev_r = w, r
        w_next = fw
        if dr_hist:
            R = np.stack(dr_hist, axis=-1)
            W = np.stack(dw_hist, axis=-1)
            gamma = _least_squares(R, r.reshape(len(r), -1))
            cand = fw - ((W + R) @ gamma[..., None]).reshape(w.shape)
            ok = min_imag_eig(cand) > im_floor
            w_next = cand if ok.all() else np.where(ok[:, None, None], cand, fw)
        w = w_next
    fw = step(w, *args)
    res = _norms(fw - w)
    accepted = (res <= max(tol, _STALL_FLOOR)) | (best_res <= _STALL_FLOOR)
    for k in np.flatnonzero(~accepted):
        failures[int(points[live[k]])] = (
            f"subordination iteration did not reach tol={tol:g} "
            f"within {MAX_ITER} iterations (residual {res[k]:.3e})",
            {"residual": float(res[k]), "iterations": MAX_ITER})
    use_best = best_res < res
    parts.append((live, np.where(use_best[:, None, None], best_w, w),
                  np.where(use_best, best_res, res), MAX_ITER))
    return _gather(parts, failures)


def solve_subordination(model: FreeSumModel, z, tol: float = DEFAULT_TOL) -> SubordinationResult:
    """Solve the subordination fixed point at z in H+_n.

    ``z`` is one point (n, n) or a stack (K, n, n) of points solved
    together, each by the rules of a lone solve; one point is the K = 1
    case.  Deterministic for fixed (model, z, tol).  Every point starts
    cold at w0 = z; points below Im z = 1e-6 are continued down an
    internal geometric ladder first.  G1(omega1) is evaluated once at
    the solution; omega2 = F1(omega1) - omega1 + z and both residuals
    are derived from it.  Failing points raise one ConvergenceError
    with their stack indices as ``points`` in the details, ascending,
    and the first as ``point``.
    """
    z = validate_upper(z, "z")
    if not (tol > 0 and math.isfinite(tol)):
        raise PreconditionError(f"tol must be positive and finite, got {tol!r}")
    single = z.ndim == 2
    zs = z[None] if single else z
    a1, a2 = Coefficient(model.a1), Coefficient(model.a2)
    lifts = [0]

    # every iterate passed the iteration's floor check (a NaN fails it) and
    # every lifted point sits on its floor, so the transforms skip their check
    def step(w, zz, y_floor):
        u = matrix_f(a1, model.mu1, w, check_upper=False) - w + zz  # h1(w) + z
        # exact arithmetic guarantees Im u >= Im zz; near the real axis
        # the inversion error can break that by O(eps/y), so lift the
        # evaluation point back to a quarter of the guaranteed height
        lifted, count = _lift(u, y_floor)
        lifts[0] += count
        return matrix_f(a2, model.mu2, lifted, check_upper=False) - lifted + zz  # h2(lifted) + z

    y_here = min_imag_eig(zs)
    w0 = zs
    if (y_here < 1e-6).any():
        # continuation ladder: reuse omega from larger heights as warm start
        deep = np.flatnonzero(y_here < 1e-6)
        w0 = w0.copy()
        herm, im, y_deep = herm_part(zs[deep]), imag_part(zs[deep]), y_here[deep]
        y = _LADDER_START
        while (on := y > y_deep * 2).any():
            zz = herm[on] + 1j * (im[on] + (y - y_deep[on])[:, None, None] * np.eye(model.n))
            rows = deep[on]
            w0[rows], _, _ = _anderson_fixed_point(
                step, w0[rows], (zz, 0.25 * min_imag_eig(zz)), max(tol, 1e-10),
                0.5 * (y_deep[on] + y), rows)
            y /= 4.0

    omega1, step_res, iters = _anderson_fixed_point(step, w0, (zs, 0.25 * y_here), tol,
                                                    0.5 * y_here, np.arange(len(zs)))
    g1 = matrix_cauchy(a1, model.mu1, omega1)
    f1 = np.linalg.inv(g1)
    omega2, _ = _lift((f1 - omega1) + zs, 0.25 * y_here)
    f2 = matrix_f(a2, model.mu2, omega2)
    residual_fixed = _norms(omega1 + omega2 - zs - f1)
    residual_cons = _norms(f1 - f2)
    point_iterations = iters
    if single:
        omega1, omega2, g1 = omega1[0], omega2[0], g1[0]
        residual_fixed, residual_cons = float(residual_fixed[0]), float(residual_cons[0])
        point_iterations = int(iters[0])
    return SubordinationResult(
        omega1=omega1,
        omega2=omega2,
        cauchy=g1,
        residual_fixed_point=residual_fixed,
        residual_consistency=residual_cons,
        iterations=int(iters.sum()),
        point_iterations=point_iterations,
        lifted_evaluations=lifts[0],
        floor_acceptances=int(np.count_nonzero(step_res > tol)),
    )


def sum_density(model: FreeSumModel, grid, y_eval: float = 1e-4, tol: float = DEFAULT_TOL):
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
