"""Atom extraction and decomposition for free sums and polynomials.

Boundary limits along a geometric ladder y_k = y0 2^{-k} recover the
expected kernel projection E(ker(b - X)) of a free sum X as the
Richardson-extrapolated limit of iy G(b + iy), and the decomposition
data of an atom at b:

    b_j    = lim omega_j(b + iy),
    beta_j = lim Im omega_j(b + iy) / y,

which satisfy, whenever E(p) is invertible (p the kernel projection),

    (i)   b = b1 + b2
    (ii)  beta_1, beta_2 > 0
    (iii) ker(X_j - b_j) != 0
    (iv)  E(ker((X_j - b_j) beta_j^{-1/2})) = beta_j^{1/2} E(p) beta_j^{1/2}
    (v)   beta_1 + beta_2 - 1 = E(p)^{-1}
    (vii) tau(p_1) + tau(p_2) = 1 + tau(p)

All residuals are measured and reported; nothing is assumed.  When E(p)
is singular, :func:`support_regularize` compresses by the support
projections q1, q2 and retries on the selfadjoint doubled pencil
[[0, q1 X q2], [q2 X q1, 0]], whose kernel expectation is invertible
and whose kernel trace differs from the original by an integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .linearize import LinearPencil, corner_shift, linearize
from .measure import SpectralMeasure
from .ncpoly import NCPoly, format_poly, is_selfadjoint, star_square
from .opval import (expected_kernel_projection, herm_part, imag_part, kernel_profile, pack_matrix,
                    unpack_matrix)
from .subord import FreeSumModel, SubordinationResult, solve_subordination

DEFAULT_Y0 = 0.1
DEFAULT_DEPTH = 16
# largest error estimate accepted from a Richardson limit down the ladder
CONV_TOL = 1e-4
# candidate atom locations closer than this are one location
_MERGE_TOL = 1e-6
# largest distance from an integer that integer_test accepts
_INTEGER_TOL = 1e-2
# eigenvalues of E(p) below this are treated as null directions
_NULL_ABS = 1e-8
_NULL_REL = 1e-4


def default_ladder(y0: float = DEFAULT_Y0, depth: int = DEFAULT_DEPTH):
    ladder = y0 * 2.0 ** (-np.arange(depth))
    if ladder[-1] < 1e-8:
        raise PreconditionError("ladder descends below 1e-8; reduce depth or raise y0")
    return ladder


def richardson(values):
    """First-order Richardson limit of f(y_k) on a halving ladder.

    ``values`` is a stack (K, ...) with values[k] ~ limit + c y_k + o(y_k);
    the linear term is eliminated exactly.  A residual tail of unknown
    power y^s survives as a geometric sequence in k, so when the
    extrapolant differences show a stable ratio the geometric sum is
    completed as well.  Returns
    (limit, diffs, err) with diffs the extrapolant difference norms and
    err a conservative estimate of the remaining error.
    """
    vals = np.asarray(values, dtype=complex)
    if len(vals) < 2:
        raise ValueError("need at least two ladder rungs")
    extr = 2.0 * vals[1:] - vals[:-1]
    diffs = np.abs(extr[1:] - extr[:-1]).max(axis=tuple(range(1, extr.ndim))).tolist()
    limit = extr[-1]
    if not diffs:
        return limit, [], 0.0
    err = diffs[-1]
    if len(diffs) >= 3 and min(diffs[-3:]) > 0:
        r1 = diffs[-1] / diffs[-2]
        r2 = diffs[-2] / diffs[-3]
        spread = abs(r1 - r2) / max(r1, r2)
        d1 = (extr[-1] - extr[-2]).reshape(-1)
        d2 = (extr[-2] - extr[-3]).reshape(-1)
        # the norm ratio cannot see sign alternation, so require the last
        # two difference directions to actually align before completing
        align = float(np.real(np.vdot(d2, d1))) / (
            np.linalg.norm(d1) * np.linalg.norm(d2)
        )
        if 0.02 < r1 < 0.9 and spread < 0.35 and align > 0.5:
            rho = r1
            correction = (extr[-1] - extr[-2]) * (rho / (1.0 - rho))
            limit = extr[-1] + correction
            scale = float(np.max(np.abs(correction)))
            err = max(scale * max(spread, 0.05), diffs[-1] * 0.05)
    return limit, diffs, err


@dataclass
class LadderScan:
    """One boundary ladder at b: the subordination data down b + iy and their limit.

    ``y_ladder`` is the ladder asked for and ``ys`` the rungs solved;
    ``solve`` is their one stacked :class:`SubordinationResult`, whose
    slice k is rung ys[k].  ``E_p`` and ``diagnostics`` are the
    extrapolated kernel expectation of :func:`boundary_emass`, computed
    once when :func:`ladder_scan` builds the scan; every consumer reads
    them from here.
    """

    model: FreeSumModel
    b: np.ndarray
    y_ladder: np.ndarray
    tol: float
    ys: np.ndarray
    solve: SubordinationResult
    truncated: str = ""
    E_p: np.ndarray | None = None
    diagnostics: dict | None = None

    @property
    def mass(self):
        return float(np.trace(self.E_p).real) / self.model.n

    @property
    def null_floor(self):
        """Eigenvalues of E_p within three extrapolation errors of zero are noise."""
        return 3.0 * self.diagnostics["extrapolation_error"]

    @property
    def invertible(self):
        return is_invertible_expectation(self.E_p, floor=self.null_floor)


_MIN_RUNGS = 6


def ladder_scan(model: FreeSumModel, b, y_ladder=None, tol: float = 1e-12) -> LadderScan:
    """Solve the subordination problem at b + iy on every rung as one stack.

    Every rung starts cold at w0 = b + iy.  At locations with a singular
    kernel expectation the subordination point runs off to infinity like
    1/y in the null directions and the deepest rungs can become
    unsolvable; the scan then keeps the rungs above the first failing
    one, as the failing stack solved them, if there are at least six of
    them, and records why.  With fewer it raises ConvergenceError naming
    the failing rung's y.  The scan's boundary limit is extrapolated
    once, here.
    """
    b = herm_part(np.atleast_2d(np.asarray(b, dtype=complex)))
    ys = default_ladder() if y_ladder is None else np.asarray(y_ladder, dtype=float)
    if np.any(np.diff(ys) >= 0) or ys[-1] < 1e-8:
        raise PreconditionError("y ladder must be strictly descending with min >= 1e-8")
    z = b + 1j * ys[:, None, None] * np.eye(model.n)
    truncated = ""
    try:
        res = solve_subordination(model, z, tol=tol)
    except ConvergenceError as exc:
        if "point" not in exc.details:
            raise
        k = exc.details["point"]
        y = float(ys[k])
        if k < _MIN_RUNGS:
            raise ConvergenceError(f"{exc} at y={y:.3e}", {**exc.details, "y": y}) from exc
        truncated = f"ladder stopped at y={y:.3e}: {exc}"
        res = exc.result  # rungs 0 .. k-1
    scan = LadderScan(model, b, ys, tol, ys[: len(res.omega1)], res, truncated)
    scan.E_p, scan.diagnostics = boundary_emass(scan)
    return scan


def _psd_project(m):
    w, v = np.linalg.eigh(herm_part(m))
    clipped = float(np.sum(np.minimum(w, 0.0)))
    w = np.maximum(w, 0.0)
    return (v * w) @ v.conj().T, abs(clipped)


def boundary_emass(scan: LadderScan):
    """Extrapolated limit of iy G(b + iy) down a scan: the expected kernel projection.

    Returns (E, diagnostics).  The Hermitian parts of iy G dominate the
    limit along the ladder; this monotonicity is checked per rung and
    reported in the diagnostics, as is the extrapolation tail.
    :func:`ladder_scan` calls it and keeps the result on the scan.
    """
    res = scan.solve
    data = 1j * scan.ys[:, None, None] * res.cauchy
    limit, diffs, err = richardson(data)
    if err > CONV_TOL:
        raise ConvergenceError(
            f"boundary extrapolation stalled (error estimate {err:.3e} > {CONV_TOL:g})",
            {"diffs": diffs, "error_estimate": err},
        )
    E, clipped = _psd_project(limit)
    gaps = np.linalg.eigvalsh(herm_part(data) - E)[:, 0]  # ascending order
    diagnostics = {
        "richardson_diffs": diffs,
        "extrapolation_error": err,
        "ladder_truncated": scan.truncated,
        "psd_clipped": clipped,
        "hermitian_dominates": (gaps >= -1e-6).tolist(),
        "iterations": res.point_iterations.tolist(),
        "floor_acceptances": res.floor_acceptances,
        "lifted_evaluations": res.lifted_evaluations,
        "rung_residuals": np.maximum(res.residual_fixed_point, res.residual_consistency).tolist(),
        "y_min": float(scan.ys[-1]),
    }
    return E, diagnostics


def null_threshold(E, floor=0.0):
    """Eigenvalues of a kernel expectation below this count as null directions.

    ``floor`` lifts the threshold to the extrapolation noise level so
    that boundary-limit noise is never mistaken for kernel structure.
    """
    return max(_NULL_REL * float(np.trace(E).real) / E.shape[0] + _NULL_ABS, floor)


def is_invertible_expectation(E, floor=0.0):
    w = np.linalg.eigvalsh(E)
    return bool(w.min() > null_threshold(E, floor))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class RegularizationResult:
    q1: np.ndarray
    q2: np.ndarray
    doubled_pencil: LinearPencil
    report: "AtomReport"
    integer_offset: float
    offset_distance: float
    ambiguous: bool = False
    notes: str = ""


@dataclass
class AtomReport:
    """Numerical atom certificate at location b (all data at operating level n)."""

    b: np.ndarray
    E_p: np.ndarray
    mass: float
    b1: np.ndarray | None
    b2: np.ndarray | None
    beta1: np.ndarray | None
    beta2: np.ndarray | None
    residuals: dict
    regularized: bool
    integer_test: tuple  # (n * mass, nearest integer, distance)
    model: FreeSumModel | None = None
    kernel_traces: tuple | None = None  # (tau(p1), tau(p2))
    diagnostics: dict = field(default_factory=dict)
    regularization: RegularizationResult | None = None
    conclusion: str = ""

    @property
    def n(self):
        return self.E_p.shape[0]

    def to_json_dict(self):
        n = self.n
        out = {
            "n": n,
            "b": pack_matrix(self.b),
            "E_p": pack_matrix(self.E_p),
            "mass": self.mass,
            "b1": None if self.b1 is None else pack_matrix(self.b1),
            "b2": None if self.b2 is None else pack_matrix(self.b2),
            "beta1": None if self.beta1 is None else pack_matrix(self.beta1),
            "beta2": None if self.beta2 is None else pack_matrix(self.beta2),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "regularized": self.regularized,
            "integer_test": [self.integer_test[0], self.integer_test[1], self.integer_test[2]],
            "kernel_traces": None if self.kernel_traces is None else list(self.kernel_traces),
            "diagnostics": _jsonable(self.diagnostics),
            "conclusion": self.conclusion,
        }
        if self.model is not None:
            out["model"] = self.model.to_json_dict()
        if self.regularization is not None:
            reg = self.regularization
            out["regularization"] = {
                "q1": pack_matrix(reg.q1),
                "q2": pack_matrix(reg.q2),
                "doubled_pencil": reg.doubled_pencil.to_json_dict(),
                "report": reg.report.to_json_dict(),
                "integer_offset": reg.integer_offset,
                "offset_distance": reg.offset_distance,
                "ambiguous": reg.ambiguous,
                "notes": reg.notes,
            }
        return out

    @classmethod
    def from_json_dict(cls, d):
        n = int(d["n"])

        def opt(key):
            return None if d.get(key) is None else unpack_matrix(d[key], n)

        reg = None
        if d.get("regularization") is not None:
            r = d["regularization"]
            sub = AtomReport.from_json_dict(r["report"])
            reg = RegularizationResult(
                q1=unpack_matrix(r["q1"], n),
                q2=unpack_matrix(r["q2"], n),
                doubled_pencil=LinearPencil.from_json_dict(r["doubled_pencil"]),
                report=sub,
                integer_offset=r["integer_offset"],
                offset_distance=r["offset_distance"],
                ambiguous=r.get("ambiguous", False),
                notes=r.get("notes", ""),
            )
        model = None
        if d.get("model") is not None:
            model = FreeSumModel.from_json_dict(d["model"])
        return cls(
            b=unpack_matrix(d["b"], n),
            E_p=unpack_matrix(d["E_p"], n),
            mass=d["mass"],
            b1=opt("b1"),
            b2=opt("b2"),
            beta1=opt("beta1"),
            beta2=opt("beta2"),
            residuals=dict(d["residuals"]),
            regularized=d["regularized"],
            integer_test=tuple(d["integer_test"]),
            model=model,
            kernel_traces=None if d.get("kernel_traces") is None else tuple(d["kernel_traces"]),
            diagnostics=d.get("diagnostics", {}),
            regularization=reg,
            conclusion=d.get("conclusion", ""),
        )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _integer_fields(n, mass):
    value = n * mass
    nearest = int(round(value))
    return (float(value), nearest, abs(value - nearest))


# ---------------------------------------------------------------------------
# candidates and decomposition
# ---------------------------------------------------------------------------


def sum_atom_candidates(mu1: SpectralMeasure, mu2: SpectralMeasure):
    """Scalar-case candidates: atom pairs with combined mass above 1.

    Returns (alpha1 + alpha2, m1 + m2 - 1) for every pair of atoms whose
    masses satisfy m1 + m2 > 1; the location list may be empty.
    """
    out = []
    for x1, m1 in mu1.atoms:
        for x2, m2 in mu2.atoms:
            if m1 + m2 > 1.0:
                out.append((x1 + x2, m1 + m2 - 1.0))
    out.sort()
    return out


def candidate_locations(mu1: SpectralMeasure, mu2: SpectralMeasure, user=(), oracle=None):
    """Union of candidate atom locations for a kernel search.

    Combines the mass-pigeonhole pairs from :func:`sum_atom_candidates`,
    a user-supplied list and histogram spikes of an oracle report (when
    given); duplicates within 1e-6 are merged into the first of them in
    that order, so an exact pigeonhole location is kept as it is.  There
    is no exhaustive search over locations, only these heuristics.
    """
    cands = [alpha for alpha, _ in sum_atom_candidates(mu1, mu2)]
    cands.extend(float(x) for x in user)
    if oracle is not None:
        cands.extend(float(s) for s in oracle.spikes)
    merged = []
    for x in cands:
        if all(abs(x - y) > _MERGE_TOL for y in merged):
            merged.append(x)
    return sorted(merged)


def _matrix_sqrt(m, floor=1e-14):
    w, v = np.linalg.eigh(herm_part(m))
    w = np.maximum(w, floor)
    return (v * np.sqrt(w)) @ v.conj().T


def decompose_atom(scan: LadderScan) -> AtomReport:
    """Extract (b1, b2, beta1, beta2) at the scan's location b and verify the identities.

    Requires the kernel expectation E(p) to be invertible; callers must
    regularize first otherwise (see :func:`support_regularize`).
    """
    model, b, E_p = scan.model, scan.b, scan.E_p
    n = model.n
    if not scan.invertible:
        raise PreconditionError(
            "kernel expectation is singular at this location; regularize first "
            f"(min eigenvalue {np.linalg.eigvalsh(E_p).min():.3e}, "
            f"threshold {null_threshold(E_p):.3e})"
        )
    mass = scan.mass

    omega1, omega2 = scan.solve.omega1, scan.solve.omega2
    ys = scan.ys[:, None, None]
    b1, _d1, e1 = richardson(omega1)
    b2, _d2, e2 = richardson(omega2)
    b1, b2 = herm_part(b1), herm_part(b2)
    beta1, _db1, eb1 = richardson(imag_part(omega1) / ys)
    beta2, _db2, eb2 = richardson(imag_part(omega2) / ys)
    beta1, beta2 = herm_part(beta1), herm_part(beta2)
    worst_tail = max(e1, e2, eb1, eb2)
    if worst_tail > CONV_TOL:
        raise ConvergenceError(
            f"subordination boundary data did not extrapolate (tail {worst_tail:.3e})",
            {"tails": [e1, e2, eb1, eb2]},
        )

    E_inv = np.linalg.inv(E_p)
    residuals = {
        "i": float(np.linalg.norm(b - b1 - b2, 2)),
        "ii": float(min(np.linalg.eigvalsh(beta1).min(), np.linalg.eigvalsh(beta2).min())),
        "v": float(np.linalg.norm(beta1 + beta2 - np.eye(n) - E_inv, 2)),
    }

    # (iv): left side from the spectral model of the single-variable pencil,
    # transformed by beta^{1/2}; right side from the extracted data.  The
    # pencil's kernel profile also gives its kernel trace for (iii), (vii).
    tau_parts = []
    for idx, (a_j, mu_j, b_j, beta_j) in enumerate(
        [(model.a1, model.mu1, b1, beta1), (model.a2, model.mu2, b2, beta2)], start=1
    ):
        profile = kernel_profile(a_j, b_j, hints=[x for x, _ in mu_j.atoms])
        sqrt_beta = _matrix_sqrt(beta_j)
        lhs = expected_kernel_projection(a_j, b_j, mu_j, transform=sqrt_beta, profile=profile)
        rhs = sqrt_beta @ E_p @ sqrt_beta
        residuals[f"iv_{idx}"] = float(np.linalg.norm(lhs - rhs, 2))
        tau_parts.append(profile.kernel_trace(mu_j))
    residuals["iv"] = max(residuals["iv_1"], residuals["iv_2"])
    residuals["iii"] = float(min(tau_parts))
    residuals["vii"] = float(abs(tau_parts[0] + tau_parts[1] - 1.0 - mass))

    return AtomReport(
        b=b,
        E_p=E_p,
        mass=mass,
        b1=b1,
        b2=b2,
        beta1=beta1,
        beta2=beta2,
        residuals=residuals,
        regularized=False,
        integer_test=_integer_fields(n, mass),
        model=model,
        kernel_traces=(float(tau_parts[0]), float(tau_parts[1])),
        diagnostics=dict(scan.diagnostics),
    )


# ---------------------------------------------------------------------------
# support regularization (singular kernel expectation)
# ---------------------------------------------------------------------------


def _support_projection(E, floor=0.0):
    """Projection onto eigenvectors above the null threshold, with ambiguity flag."""
    w, v = np.linalg.eigh(herm_part(E))
    thr = null_threshold(E, floor)
    keep = w > thr
    # an eigenvalue within a factor 10 of the threshold cannot be classified
    # reliably; it is reported, never silently resolved
    ambiguous = bool(np.any((w > thr / 10.0) & (w < thr * 10.0)))
    cols = v[:, keep]
    return cols @ cols.conj().T, ambiguous


def _doubled_model(model, b, q_left, q_right):
    """Pencil of [[0, qL X qR], [qR X qL, 0]] for X = b - a1 Z1 - a2 Z2."""
    n = model.n
    zero = np.zeros((n, n), dtype=complex)

    def double(mat):
        top = np.hstack([zero, q_left @ mat @ q_right])
        bot = np.hstack([q_right @ mat @ q_left, zero])
        return np.vstack([top, bot])

    b2 = double(b)
    a1_2 = double(model.a1)
    a2_2 = double(model.a2)
    doubled = FreeSumModel(a1_2, a2_2, model.mu1, model.mu2)
    pencil = LinearPencil(b2, -a1_2, -a2_2)
    return doubled, b2, pencil


def support_regularize(scan: LadderScan):
    """Compress a singular kernel expectation to an invertible doubled one.

    q1 is the support projection of the scan's E(ker(b - X)); q2 the
    support of E(ker(q1 (b - X))), obtained from the row-compressed
    doubled pencil.  Both doubled pencils are scanned down the scan's
    ladder at its tolerance.  Returns a :class:`RegularizationResult`:
    q1, q2, the doubled pencil Y, the AtomReport on Y and the integer
    offset 2n tau_2n(ker Y) - 2n tau_n(ker(b - X)), which the report's
    diagnostics carry as well.
    """
    model, b = scan.model, scan.b
    n = model.n
    q1, amb1 = _support_projection(scan.E_p, floor=scan.null_floor)

    # row compression only (q2 = identity) to expose E(ker(q1 X))
    row_model, row_b, _ = _doubled_model(model, b, q1, np.eye(n))
    row = ladder_scan(row_model, row_b, scan.y_ladder, scan.tol)
    q2, amb2 = _support_projection(row.E_p[n:, n:], floor=row.null_floor)

    doubled, b_d, pencil = _doubled_model(model, b, q1, q2)
    report = decompose_atom(ladder_scan(doubled, b_d, scan.y_ladder, scan.tol))
    offset = 2 * n * report.mass - 2 * n * scan.mass
    distance = abs(offset - round(offset))
    report.regularized = True
    report.diagnostics.update(integer_offset=offset, offset_distance=distance,
                              original_mass=scan.mass)
    ambiguous = bool(amb1 or amb2)
    notes = ("support projection eigenvalue within a factor 10 of the null threshold"
             if ambiguous else "")
    return RegularizationResult(q1=q1, q2=q2, doubled_pencil=pencil, report=report,
                                integer_offset=offset, offset_distance=distance,
                                ambiguous=ambiguous, notes=notes)


# ---------------------------------------------------------------------------
# integer test
# ---------------------------------------------------------------------------


@dataclass
class IntegerTestResult:
    value: float
    nearest: int
    distance: float
    passed: bool
    mode: str
    identity_residual: float | None = None


def integer_test(report: AtomReport) -> IntegerTestResult:
    """Integer constraints on n tr_n of the kernel expectation, to within 1e-2.

    Atomless inputs force n * mass to an integer.  With atoms present the
    full counting identity is evaluated: n (mass + 1) must match
    l0 + m0 + sum_j l_j mu1({t_j}) + sum_i m_i mu2({s_i}) built from the
    kernel profiles of the pencils (a_j, b_j) at the decomposition data,
    which is n times the sum of the report's kernel traces.
    """
    model = report.model
    if model is None:
        raise PreconditionError("integer_test needs the model attached to the report")
    n = report.n
    value, nearest, distance = report.integer_test
    residual = None
    if model.mu1.is_atomless and model.mu2.is_atomless:
        mode = "atomless"
    elif report.kernel_traces is None:
        # no decomposition (singular kernel expectation): only the raw
        # integer distance is meaningful
        mode = "atomic-raw"
    else:
        mode = "atomic"
        residual = abs(n * (report.mass + 1.0) - n * sum(report.kernel_traces))
    passed = (distance if residual is None else residual) <= _INTEGER_TOL
    return IntegerTestResult(value, nearest, distance, bool(passed), mode, residual)


# ---------------------------------------------------------------------------
# polynomial eigenvalue pipeline
# ---------------------------------------------------------------------------


# kernel traces of an atomless anticommutator-type kernel, and how close
# a computed trace must come to one of them to count as that value
TRICHOTOMY = (0.0, 0.5, 1.0)
TRICHOTOMY_TOL = 1e-2


def eigenvalue_test(p: NCPoly, lam: float, mu1: SpectralMeasure, mu2: SpectralMeasure,
                    y_ladder=None, tol: float = 1e-12) -> AtomReport:
    """Kernel trace of lam - p(X1, X2) for free X1 ~ mu1, X2 ~ mu2.

    Linearizes p, shifts the corner by lam, and runs the boundary-limit
    pipeline on the equivalent pencil location; the polynomial-level
    kernel trace is n * mass.  When the kernel expectation is singular
    the support regularization runs and its report is attached.
    """
    if not is_selfadjoint(p):
        if lam != 0.0:
            raise PreconditionError(
                "non-selfadjoint polynomials only admit the lam = 0 kernel test "
                "(apply star_square first)"
            )
        p = star_square(p)
    L, _cert = linearize(p)
    n = L.n
    shifted = corner_shift(L, lam)
    b = -shifted.a0
    model = FreeSumModel(L.a1, L.a2, mu1, mu2)
    scan = ladder_scan(model, b, y_ladder, tol)
    mass = scan.mass
    if scan.invertible:
        report = decompose_atom(scan)
    else:
        # b as given, not the scan's herm_part(b), which turns -0.0 into 0.0
        report = AtomReport(
            b=b,
            E_p=scan.E_p,
            mass=mass,
            b1=None,
            b2=None,
            beta1=None,
            beta2=None,
            residuals={},
            regularized=True,
            integer_test=_integer_fields(n, mass),
            model=model,
            diagnostics=scan.diagnostics,
            regularization=support_regularize(scan),
        )

    kernel_trace = n * mass
    report.diagnostics["poly"] = format_poly(p)
    report.diagnostics["lambda"] = float(lam)
    report.diagnostics["poly_kernel_trace"] = kernel_trace

    allowed = min(abs(kernel_trace - v) for v in TRICHOTOMY) <= TRICHOTOMY_TOL
    if mu1.is_atomless and mu2.is_atomless:
        verdict = (" sits at an allowed value for atomless inputs (0, 1/2 or 1)" if allowed
                   else " is not in {0, 1/2, 1}: atomless inputs cannot produce this value, "
                   "so it indicates numerical error")
    else:
        verdict = "" if allowed else (" outside {0, 1/2, 1} requires an input eigenvalue, "
                                      "consistent with the atoms of the given laws")
    report.conclusion = f"kernel trace {kernel_trace:.6f}{verdict}"
    return report
