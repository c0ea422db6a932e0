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

    def swapped(self):
        return FreeSumModel(self.a2, self.a1, self.mu2, self.mu1)

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
    """omega1, omega2 at z, and cauchy = G1(omega1), the free sum's G(z)."""

    omega1: np.ndarray
    omega2: np.ndarray
    cauchy: np.ndarray
    residual_fixed_point: float
    residual_consistency: float
    iterations: int
    lifted_evaluations: int = 0


def _norm(m):
    """Spectral norm: the largest singular value (LAPACK sorts them descending)."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _lift_if_needed(w, floor):
    """Lift Im w to ``floor`` when roundoff left it below (safeguard only)."""
    gap = min_imag_eig(w)
    if gap < floor:
        return w + 1j * (floor - gap) * np.eye(w.shape[0])
    return w


_STALL_WINDOW = 60
_STALL_FLOOR = 1e-8


def _anderson_fixed_point(step, w0, tol, im_floor=0.0):
    """Anderson-accelerated fixed point iteration on matrices in H+_n.

    ``step`` must be a self-map of the upper half-plane.  Accelerated
    candidates outside the half-plane fall back to the plain step; a
    plain step that loses positivity by roundoff is averaged with the
    previous iterate (factor 1/2, up to 8 times) before giving up.
    Very close to the real axis the map evaluation itself carries an
    eps/y conditioning floor, so a stalled iteration with a residual
    already at that floor is accepted and reported honestly.
    """
    w = np.array(w0, dtype=complex)
    dw_hist, dr_hist = [], []
    prev_w = None
    prev_r = None
    best_w, best_res, best_it = None, np.inf, 0
    for it in range(1, MAX_ITER + 1):
        fw = step(w)
        if min_imag_eig(fw) <= im_floor:
            # roundoff pushed the plain step too close to the real axis: damp
            recovered = False
            cand = fw
            for _ in range(8):
                cand = 0.5 * (cand + w)
                if min_imag_eig(cand) > im_floor:
                    recovered = True
                    break
            if not recovered:
                raise ConvergenceError(
                    "iterate left the upper half-plane and damping failed",
                    {"iterations": it},
                )
            fw = cand
        r = fw - w
        res = _norm(r)
        if res < best_res:
            best_w, best_res, best_it = w, res, it
        if res <= tol:
            return w, res, it
        if it - best_it >= _STALL_WINDOW and best_res <= _STALL_FLOOR:
            return best_w, best_res, it
        if prev_w is not None:
            dw_hist.append((w - prev_w).reshape(-1))
            dr_hist.append((r - prev_r).reshape(-1))
            if len(dw_hist) > _ANDERSON_MEMORY:
                dw_hist.pop(0)
                dr_hist.pop(0)
        prev_w, prev_r = w, r
        w_next = fw
        if dr_hist:
            R = np.stack(dr_hist, axis=1)
            W = np.stack(dw_hist, axis=1)
            gamma, *_ = np.linalg.lstsq(R, r.reshape(-1), rcond=None)
            cand = fw - ((W + R) @ gamma).reshape(w.shape)
            if min_imag_eig(cand) > im_floor:
                w_next = cand
        w = w_next
    fw = step(w)
    res = _norm(fw - w)
    if res <= max(tol, _STALL_FLOOR) or best_res <= _STALL_FLOOR:
        if best_res < res:
            return best_w, best_res, MAX_ITER
        return w, res, MAX_ITER
    raise ConvergenceError(
        f"subordination iteration did not reach tol={tol:g} "
        f"within {MAX_ITER} iterations (residual {res:.3e})",
        {"residual": res, "iterations": MAX_ITER},
    )


def solve_subordination(model: FreeSumModel, z, tol: float = DEFAULT_TOL,
                        warm_start=None) -> SubordinationResult:
    """Solve the subordination fixed point at z in H+_n.

    Deterministic for fixed (model, z, tol).  ``warm_start`` seeds the
    iteration with a previously computed omega1 (ladder continuation);
    evaluations at very small Im z without a warm start are continued
    down an internal geometric ladder automatically.  G1(omega1) is
    evaluated once at the solution; omega2 = F1(omega1) - omega1 + z and
    both residuals are derived from it.
    """
    z = validate_upper(z, "z")
    if not (tol > 0 and math.isfinite(tol)):
        raise PreconditionError(f"tol must be positive and finite, got {tol!r}")
    a1, a2 = Coefficient(model.a1), Coefficient(model.a2)
    lifts = [0]

    def step_at(zz):
        y_floor = 0.25 * min_imag_eig(zz)

        def step(w):
            u = matrix_f(a1, model.mu1, w) - w + zz  # h1(w) + z
            # exact arithmetic guarantees Im u >= Im zz; near the real axis
            # the inversion error can break that by O(eps/y), so lift the
            # evaluation point back to a quarter of the guaranteed height
            lifted = _lift_if_needed(u, y_floor)
            if lifted is not u:
                lifts[0] += 1
            return matrix_f(a2, model.mu2, lifted) - lifted + zz  # h2(lifted) + z

        return step

    y_here = min_imag_eig(z)
    w0 = np.array(z if warm_start is None else warm_start, dtype=complex)
    if min_imag_eig(w0) <= 0:
        w0 = np.array(z, dtype=complex)

    if warm_start is None and y_here < 1e-6:
        # continuation ladder: reuse omega from larger heights as warm start
        herm = herm_part(z)
        im = imag_part(z)
        y = _LADDER_START
        while y > y_here * 2:
            zz = herm + 1j * (im + (y - y_here) * np.eye(model.n))
            w0, _, _ = _anderson_fixed_point(step_at(zz), w0, max(tol, 1e-10),
                                             im_floor=0.5 * (y_here + y))
            y /= 4.0

    omega1, res, iters = _anderson_fixed_point(step_at(z), w0, tol, im_floor=0.5 * y_here)
    g1 = matrix_cauchy(a1, model.mu1, omega1)
    f1 = np.linalg.inv(g1)
    omega2 = _lift_if_needed((f1 - omega1) + z, 0.25 * y_here)
    f2 = matrix_f(a2, model.mu2, omega2)
    residual_fixed = _norm(omega1 + omega2 - z - f1)
    residual_cons = _norm(f1 - f2)
    return SubordinationResult(
        omega1=omega1,
        omega2=omega2,
        cauchy=g1,
        residual_fixed_point=residual_fixed,
        residual_consistency=residual_cons,
        iterations=iters,
        lifted_evaluations=lifts[0],
    )


def sum_cauchy(model: FreeSumModel, z, tol: float = DEFAULT_TOL, warm_start=None):
    """Cauchy transform of the free sum at z: G(z) = G1(omega1(z))."""
    result = solve_subordination(model, z, tol=tol, warm_start=warm_start)
    return result.cauchy, result


def sum_density(model: FreeSumModel, grid, y_eval: float = 1e-4, tol: float = DEFAULT_TOL):
    """Smoothed spectral density -(1/pi) Im tr_n G(x + i y_eval) on a grid.

    Points are swept left to right with warm starts, so a fine grid is
    cheap.  Returns an array of (x, density) pairs.
    """
    if not (y_eval > 0 and math.isfinite(y_eval)):
        raise PreconditionError(f"y_eval must be positive and finite, got {y_eval!r}")
    n = model.n
    eye = np.eye(n)
    out = np.empty((len(grid), 2))
    warm = None
    for i, x in enumerate(grid):
        z = float(x) * eye + 1j * y_eval * eye
        g, result = sum_cauchy(model, z, tol=tol, warm_start=warm)
        warm = result.omega1
        out[i] = (float(x), -np.trace(g).imag / (np.pi * n))
    return out
