"""Command-line interface over the library.

Subcommands: convolve, atom-scan, decompose, linearize, eigtest,
oracle, compare.  Measures come from JSON files in the canonical
format; complex numbers serialize as [re, im] pairs and matrices in
dense row-major order.  All randomness flows from one --seed so every
run is reproducible.  Exit codes: 0 success, 1 strict-mode residual
failure, 2 schema violation, 3 numerical non-convergence (diagnostic
JSON on stderr), 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import atoms as atoms_mod
from . import rmt
from .errors import ConvergenceError, PreconditionError, SchemaError
from .linearize import linearize, verify_certificate
from .measure import SpectralMeasure
from .ncpoly import parse_poly
from .subord import FreeSumModel, sum_density

EXIT_OK = 0
EXIT_STRICT = 1
EXIT_SCHEMA = 2
EXIT_NOCONV = 3
EXIT_INVARIANT = 4

# residual ceilings enforced under --strict (scaled by the operating
# dimension where the identity is matrix-valued)
STRICT_LIMITS = {"i": 1e-6, "v": 1e-6, "vii": 1e-4, "iv": 1e-5}


@dataclass
class RunConfig:
    """Parsed invocation: one command plus its inputs and numerics."""

    command: str
    tol: float = 1e-12
    y0: float = 0.1
    ladder_depth: int = 16
    grid: tuple = (-3.0, 3.0, 201)
    seed: int = 0
    N: int = 2000
    trials: int = 8
    epsilon: float | None = None
    workers: int = 1
    strict: bool = False
    out: str | None = None
    fmt: str = "json"
    mu1_path: str | None = None
    mu2_path: str | None = None
    poly: str | None = None
    lam: float = 0.0
    b_spec: str | None = None
    a1_spec: str | None = None
    a2_spec: str | None = None
    y_eval: float = 1e-4
    candidates: list = field(default_factory=list)
    bins: int = 201

    def __post_init__(self):
        positive = [("--tol", self.tol), ("--y0", self.y0),
                    ("--y-eval", self.y_eval), ("--epsilon", self.epsilon)]
        for flag, value in positive:
            if value is not None and not (math.isfinite(value) and value > 0):
                raise SchemaError(f"{flag} must be positive and finite, got {value!r}")
        if not math.isfinite(self.lam):
            raise SchemaError(f"--lambda must be finite, got {self.lam!r}")
        if not (4 <= self.ladder_depth <= 40):
            raise SchemaError("--ladder-depth must lie in [4, 40]")
        lo, hi, points = self.grid
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and points >= 1):
            raise SchemaError(f"--grid {lo!r}:{hi!r}:{points!r} needs finite min < max, points >= 1")
        if self.bins < 1:
            raise SchemaError(f"--bins must be at least 1, got {self.bins}")


def _load_measure(path):
    if path is None:
        raise SchemaError("a measure file is required")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read measure file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"measure file {path} is not valid JSON: {exc}") from exc
    return SpectralMeasure.from_json_dict(data)


def _parse_matrix(spec_str, default=None):
    """Matrix from inline JSON or a file path; [re,im] pairs or plain reals."""
    if spec_str is None:
        return default
    text = spec_str
    if os.path.exists(spec_str):
        try:
            text = Path(spec_str).read_text()
        except OSError as exc:
            raise SchemaError(f"cannot read matrix file {spec_str}: {exc.strerror}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"cannot parse matrix {spec_str!r}: {exc}") from exc
    if isinstance(data, (int, float)):
        return np.array([[complex(data)]])

    def cell(v):
        if isinstance(v, (int, float)):
            return complex(v)
        if isinstance(v, list) and len(v) == 2:
            return complex(v[0], v[1])
        raise SchemaError(f"bad matrix cell {v!r}")

    try:
        return np.array([[cell(v) for v in row] for row in data])
    except (TypeError, SchemaError) as exc:
        raise SchemaError(f"bad matrix specification {spec_str!r}: {exc}") from exc


def _ladder(cfg):
    return atoms_mod.default_ladder(cfg.y0, cfg.ladder_depth)


def _grid_points(cfg):
    lo, hi, pts = cfg.grid
    return np.linspace(lo, hi, int(pts))


def _build_model(cfg):
    mu1 = _load_measure(cfg.mu1_path)
    mu2 = _load_measure(cfg.mu2_path)
    a1 = _parse_matrix(cfg.a1_spec, np.eye(1))
    a2 = _parse_matrix(cfg.a2_spec, np.eye(a1.shape[0]))
    return FreeSumModel(a1, a2, mu1, mu2)


def _emit(cfg, payload, csv_rows=None, csv_header=None):
    """Write the artifact to --out or stdout in the configured format."""
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        try:
            Path(cfg.out).write_text(text)
        except OSError as exc:
            raise SchemaError(f"cannot write --out {cfg.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _strict_residual_failures(report):
    bad = []
    n = report.n
    for key, limit in STRICT_LIMITS.items():
        if key in report.residuals and report.residuals[key] > limit * n:
            bad.append((key, report.residuals[key], limit * n))
    return bad


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_linearize(cfg):
    if not cfg.poly:
        raise SchemaError("linearize requires --poly")
    p = parse_poly(cfg.poly)
    pencil, cert = linearize(p)
    if not verify_certificate(p, cert):
        print("internal error: constructed certificate failed verification", file=sys.stderr)
        return EXIT_INVARIANT
    payload = pencil.to_json_dict()
    payload["certificate"] = cert.to_json_dict()
    payload["verified"] = True
    _emit(cfg, payload)
    return EXIT_OK


def _cmd_convolve(cfg):
    model = _build_model(cfg)
    xs = _grid_points(cfg)
    data, solve = sum_density(model, xs, y_eval=cfg.y_eval, tol=cfg.tol)
    rows = [(f"{x:.12g}", f"{d:.12g}") for x, d in data]
    payload = {"grid": [float(x) for x in data[:, 0]],
               "density": [float(d) for d in data[:, 1]],
               "y_eval": cfg.y_eval,
               "max_residual": float(max(np.max(solve.residual_fixed_point),
                                         np.max(solve.residual_consistency))),
               "iterations": solve.iterations,
               "floor_acceptances": solve.floor_acceptances,
               "lifted_evaluations": solve.lifted_evaluations}
    _emit(cfg, payload, csv_rows=rows, csv_header=("x", "density"))
    if cfg.strict and np.any(data[:, 1] < -1e-8):
        return EXIT_STRICT
    return EXIT_OK


def _cmd_decompose(cfg):
    model = _build_model(cfg)
    b = _parse_matrix(cfg.b_spec, np.zeros((model.n, model.n)))
    report = atoms_mod.decompose_atom(atoms_mod.ladder_scan(model, b, _ladder(cfg), cfg.tol))
    _emit(cfg, report.to_json_dict())
    if cfg.strict and _strict_residual_failures(report):
        return EXIT_STRICT
    return EXIT_OK


def _cmd_atom_scan(cfg):
    model = _build_model(cfg)
    if model.n != 1:
        raise SchemaError("atom-scan expects the scalar case (1x1 coefficients)")
    predicted = dict(atoms_mod.sum_atom_candidates(model.mu1, model.mu2))
    probes = atoms_mod.candidate_locations(model.mu1, model.mu2, user=cfg.candidates)
    results, reports = [], []
    for loc in probes:
        scan = atoms_mod.ladder_scan(model, np.array([[loc]]), _ladder(cfg), cfg.tol)
        entry = {"location": loc, "predicted_mass": predicted.get(loc),
                 "measured_mass": scan.mass}
        if scan.invertible:
            rep = atoms_mod.decompose_atom(scan)
            entry["decomposition"] = rep.to_json_dict()
            reports.append(rep)
        results.append(entry)
    _emit(cfg, {"candidates": results, "locations_probed": probes})
    if cfg.strict and any(_strict_residual_failures(rep) for rep in reports):
        return EXIT_STRICT
    return EXIT_OK


def _eigenvalue_test(cfg):
    """Polynomial, measures and pipeline report of eigtest and compare."""
    if not cfg.poly:
        raise SchemaError(f"{cfg.command} requires --poly")
    p = parse_poly(cfg.poly)
    mu1 = _load_measure(cfg.mu1_path)
    mu2 = _load_measure(cfg.mu2_path)
    report = atoms_mod.eigenvalue_test(p, cfg.lam, mu1, mu2,
                                       y_ladder=_ladder(cfg), tol=cfg.tol)
    return p, mu1, mu2, report


def _cmd_eigtest(cfg):
    *_, report = _eigenvalue_test(cfg)
    _emit(cfg, report.to_json_dict())
    if cfg.strict:
        if _strict_residual_failures(report):
            return EXIT_STRICT
        reg = report.regularization
        if reg is not None and reg.offset_distance > 1e-2:
            return EXIT_STRICT
    return EXIT_OK


def _oracle_spec(cfg, mu1, mu2):
    return rmt.EnsembleSpec(N=cfg.N, trials=cfg.trials, seed=cfg.seed, mu1=mu1, mu2=mu2)


def _cmd_oracle(cfg):
    model = _build_model(cfg)
    spec = _oracle_spec(cfg, model.mu1, model.mu2)
    if cfg.poly:
        p = parse_poly(cfg.poly)
        rep = rmt.oracle_report(spec, poly=p, lam=cfg.lam,
                                locations=[cfg.lam] + [float(x) for x in cfg.candidates],
                                bins=cfg.bins, epsilon=cfg.epsilon)
    else:
        b = _parse_matrix(cfg.b_spec, None)
        locations = [float(x) for x in cfg.candidates] or None
        rep = rmt.oracle_report(spec, model=model, b=b, locations=locations,
                                bins=cfg.bins, epsilon=cfg.epsilon)
    rows = [
        (f"{lo:.12g}", f"{hi:.12g}", f"{cm:.12g}", f"{cs:.12g}")
        for lo, hi, cm, cs in zip(rep.bin_edges[:-1], rep.bin_edges[1:],
                                  rep.counts_mean, rep.counts_std)
    ]
    _emit(cfg, rep.to_json_dict(), csv_rows=rows,
          csv_header=("bin_left", "bin_right", "count_mean", "count_std"))
    return EXIT_OK


def _cmd_compare(cfg):
    p, mu1, mu2, report = _eigenvalue_test(cfg)
    pipeline_mass = report.diagnostics["poly_kernel_trace"]
    spec = _oracle_spec(cfg, mu1, mu2)
    eps = cfg.epsilon if cfg.epsilon is not None else 1e-7
    orep = rmt.oracle_report(spec, poly=p, lam=cfg.lam, locations=[cfg.lam],
                             bins=cfg.bins, epsilon=eps)
    oracle_mass, se = orep.masses[float(cfg.lam)]
    tolerance = 2.0 / cfg.N + 3.0 * se
    agree = abs(pipeline_mass - oracle_mass) <= tolerance
    payload = {
        "lambda": cfg.lam,
        "pipeline_mass": pipeline_mass,
        "oracle_mass": oracle_mass,
        "oracle_stderr": se,
        "tolerance": tolerance,
        "agree": bool(agree),
        "epsilon": eps,
        "N": cfg.N,
        "trials": cfg.trials,
        "path": orep.path,
    }
    _emit(cfg, payload)
    if cfg.strict and not agree:
        return EXIT_STRICT
    return EXIT_OK


# name -> (handler, help, the flags it reads).  No subcommand reads
# --workers (oracle trials run serially); it stays accepted where it was
# so that existing command lines keep parsing.
_COMMANDS = {
    "linearize": (_cmd_linearize, "linearize a selfadjoint polynomial", "--poly --out"),
    "convolve": (_cmd_convolve, "density of the free sum on a grid",
                 "--mu1 --mu2 --a1 --a2 --grid --y-eval --tol --strict --out --format --workers"),
    "decompose": (_cmd_decompose, "atom decomposition at a location",
                  "--mu1 --mu2 --a1 --a2 --b --tol --y0 --ladder-depth --strict --out --workers"),
    "atom-scan": (_cmd_atom_scan, "scan scalar atom candidates",
                  "--mu1 --mu2 --candidates --tol --y0 --ladder-depth --strict --out --workers"),
    "eigtest": (_cmd_eigtest, "kernel trace of lambda - p(X1, X2)",
                "--mu1 --mu2 --poly --lambda --tol --y0 --ladder-depth --strict --out --workers"),
    "oracle": (_cmd_oracle, "Monte Carlo spectral report",
               "--mu1 --mu2 --a1 --a2 --b --poly --lambda --candidates --size --trials --bins "
               "--epsilon --seed --workers --out --format"),
    "compare": (_cmd_compare, "pipeline vs oracle discrepancy table",
                "--mu1 --mu2 --poly --lambda --size --trials --epsilon --seed --tol --y0 "
                "--ladder-depth --strict --workers --out"),
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the exit status, writing artifacts."""
    entry = _COMMANDS.get(config.command)
    if entry is None:
        raise SchemaError(f"unknown command {config.command!r}")
    return entry[0](config)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# Each flag once, with dest the RunConfig field it sets.  No flag states a
# default: subparsers suppress absent flags, so the RunConfig field default
# applies.  --poly is optional here because oracle takes it optionally; the
# commands that need it say so.
_FLAGS = {
    "--mu1": dict(dest="mu1_path", required=True),
    "--mu2": dict(dest="mu2_path", required=True),
    "--a1": dict(dest="a1_spec"),
    "--a2": dict(dest="a2_spec"),
    "--b": dict(dest="b_spec"),
    "--poly": dict(dest="poly"),
    "--lambda": dict(dest="lam", type=float),
    "--candidates": dict(dest="candidates"),
    "--grid": dict(dest="grid"),
    "--y-eval": dict(dest="y_eval", type=float),
    "--tol": dict(dest="tol", type=float),
    "--y0": dict(dest="y0", type=float),
    "--ladder-depth": dict(dest="ladder_depth", type=int),
    "--size": dict(dest="N", type=int),
    "--trials": dict(dest="trials", type=int),
    "--bins": dict(dest="bins", type=int),
    "--epsilon": dict(dest="epsilon", type=float),
    "--seed": dict(dest="seed", type=int),
    "--strict": dict(dest="strict", action="store_true"),
    "--workers": dict(dest="workers", type=int),
    "--out": dict(dest="out"),
    "--format": dict(dest="fmt", choices=("json", "csv")),
}


@functools.cache
def _build_parser():
    """The command-line parser, built on first use and reused by every later call."""
    parser = argparse.ArgumentParser(
        prog="freeatoms",
        description="spectral distributions and atoms of free sums and polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag in flags.split():
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


def _parse_grid(text):
    try:
        lo, hi, pts = text.split(":")
        return (float(lo), float(hi), int(pts))
    except ValueError as exc:
        raise SchemaError(f"bad grid {text!r}, expected min:max:points") from exc


def _config_from_args(args) -> RunConfig:
    fields = vars(args)
    if "grid" in fields:
        fields["grid"] = _parse_grid(fields["grid"])
    if "candidates" in fields:
        fields["candidates"] = [float(x) for x in fields["candidates"].split(",") if x.strip()]
    return RunConfig(**fields)


# flags taking exactly one value that may begin with '-' (grids, inline
# matrices, candidate lists); merged to --flag=value so argparse does not
# mistake the value for an option
_VALUE_FLAGS = ("--grid", "--candidates", "--b", "--a1", "--a2")


def _normalize_argv(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(_normalize_argv(sys.argv[1:] if argv is None else list(argv)))
        config = _config_from_args(args)
        code = run(config)
    except SystemExit as exc:
        # argparse exits for --help (0) and for a bad command line (2,
        # usage on stderr); return its status like every other outcome
        code = exc.code
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        code = EXIT_SCHEMA
    except (ConvergenceError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError, so it must be caught before input trouble
        diag = {"error": str(exc), "details": getattr(exc, "details", {})}
        print(json.dumps(diag), file=sys.stderr)
        code = EXIT_NOCONV
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        code = EXIT_SCHEMA
    except ValueError as exc:
        # bad polynomial text, malformed numbers and similar input trouble
        print(f"schema error: {exc}", file=sys.stderr)
        code = EXIT_SCHEMA
    except Exception as exc:
        print(f"internal invariant breach: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_INVARIANT
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
