"""Span recorder and per-layer metrics for the traced benchmark run.

Spans are recorded from the benchmark's own code: wrappers are installed
on the public functions of each ``freeatoms`` module, in every
``freeatoms`` namespace that holds a reference to them, so that calls
between modules are captured too.  The library itself is not modified.
Spans stay in memory until the run ends and are then written as JSON
lines.
"""

from __future__ import annotations

import contextvars
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

_PARENT = contextvars.ContextVar("perfbench_parent_span", default=None)
_OP = contextvars.ContextVar("perfbench_op", default=None)

# Layer functions wrapped in the traced run: (module, attribute) -> span name.
# The oracle stages of ROADMAP.md (conjugation, assembly, eigensolve,
# histogram) have no public function; the module-level function doing
# each one today is wrapped and its self time credited to the stage in
# STAGES.  The eigensolve is timed on ``np.linalg.eigvalsh`` as rmt
# reaches it, through a proxy of rmt's ``np`` binding.
LAYER_FUNCTIONS = [
    ("measure", "integrate_piece"),
    ("measure", "quantiles"),
    ("opval", "matrix_cauchy"),
    ("opval", "matrix_f"),
    ("opval", "kernel_profile"),
    ("opval", "expected_kernel_projection"),
    ("subord", "solve_subordination"),
    ("atoms", "ladder_scan"),
    ("atoms", "boundary_emass"),
    ("atoms", "decompose_atom"),
    ("atoms", "support_regularize"),
    ("linearize", "linearize"),
    ("ncpoly", "parse_poly"),
    ("rmt", "haar_unitary"),
    ("rmt", "realize_pair"),
    ("rmt", "_realize_reduced"),
    ("rmt", "_eval_poly_diag_first"),
    ("rmt", "_poly_eigs"),
    ("rmt", "_pencil_eigs"),
    ("rmt", "oracle_report"),
    ("rmt", "kernel_mass_from_eigs"),
    ("rmt", "_find_spikes"),
    ("cli", "main"),
]
EIGENSOLVE = "rmt.np.linalg.eigvalsh"

STAGES = {
    "rmt.conjugate": ["rmt.realize_pair", "rmt._realize_reduced"],
    "rmt.assemble": ["rmt._eval_poly_diag_first", "rmt._poly_eigs", "rmt._pencil_eigs"],
    "rmt.eigensolve": [EIGENSOLVE],
    "rmt.histogram": ["rmt.oracle_report", "rmt.kernel_mass_from_eigs", "rmt._find_spikes"],
}

# Per-layer metric -> (unit, end-to-end metric it should move, workloads
# where it is exercised).  BENCHMARK.json's per_layer list is checked
# against these names by the benchmark's tests.
LAYER_METRICS = {
    "measure.integrate_piece.calls": ("count", "convolve_s, eigtest_s", "density, atoms"),
    "measure.integrate_piece.self_s": ("s", "convolve_s, eigtest_s", "density, atoms"),
    "measure.integrate_piece.panels": ("count", "convolve_s, eigtest_s", "density, atoms"),
    "measure.quantiles.calls": ("count", "oracle_s, compare_s", "oracle"),
    "measure.quantiles.self_s": ("s", "oracle_s, compare_s", "oracle"),
    "measure.quantiles.unique_ratio": ("1", "oracle_s, compare_s", "oracle"),
    "opval.matrix_cauchy.calls": ("count", "convolve_s, eigtest_s", "density, atoms"),
    "opval.matrix_cauchy.self_s": ("s", "convolve_s, eigtest_s", "density, atoms"),
    "opval.matrix_f.calls": ("count", "convolve_s, eigtest_s", "density, atoms"),
    "opval.matrix_f.self_s": ("s", "convolve_s, eigtest_s", "density, atoms"),
    "opval.kernel_profile.calls": ("count", "decompose_s, eigtest_s", "atoms"),
    "opval.kernel_profile.self_s": ("s", "decompose_s, eigtest_s", "atoms"),
    "opval.kernel_profile.unique_ratio": ("1", "decompose_s, eigtest_s", "atoms"),
    "opval.expected_kernel_projection.self_s": ("s", "decompose_s, eigtest_s", "atoms"),
    "subord.solve_subordination.calls": ("count", "convolve_s, eigtest_s", "density, atoms"),
    "subord.solve_subordination.self_s": ("s", "convolve_s, eigtest_s", "density, atoms"),
    "subord.iterations": ("count", "convolve_s, eigtest_s", "density, atoms"),
    "subord.iterations_per_solve": ("1", "convolve_s, eigtest_s", "density, atoms"),
    "subord.lifted_evaluations": ("count", "convolve_s, eigtest_s", "density, atoms"),
    "atoms.ladder_scan.calls": ("count", "decompose_s, eigtest_s", "atoms"),
    "atoms.ladder_scan.self_s": ("s", "decompose_s, eigtest_s", "atoms"),
    "atoms.ladder_scan.rungs": ("count", "decompose_s, eigtest_s", "atoms"),
    "atoms.ladder_scan.truncated": ("count", "decompose_s, eigtest_s", "atoms"),
    "atoms.ladder_scan.unique_ratio": ("1", "decompose_s, eigtest_s", "atoms"),
    "atoms.boundary_emass.calls": ("count", "decompose_s, eigtest_s", "atoms"),
    "atoms.boundary_emass.self_s": ("s", "decompose_s, eigtest_s", "atoms"),
    "atoms.decompose_atom.self_s": ("s", "decompose_s, eigtest_s", "atoms"),
    "atoms.support_regularize.calls": ("count", "decompose_s, eigtest_s", "atoms"),
    "atoms.support_regularize.self_s": ("s", "decompose_s, eigtest_s", "atoms"),
    "linearize.linearize.calls": ("count", "eigtest_s, compare_s", "atoms, oracle"),
    "linearize.linearize.self_s": ("s", "eigtest_s, compare_s", "atoms, oracle"),
    "ncpoly.parse_poly.self_s": ("s", "eigtest_s, compare_s", "atoms, oracle"),
    "rmt.haar_unitary.calls": ("count", "oracle_s, compare_s, peak_rss_mb", "oracle"),
    "rmt.haar_unitary.self_s": ("s", "oracle_s, compare_s, peak_rss_mb", "oracle"),
    "rmt.conjugate.self_s": ("s", "oracle_s, compare_s, peak_rss_mb", "oracle"),
    "rmt.assemble.self_s": ("s", "oracle_s, compare_s, peak_rss_mb", "oracle"),
    "rmt.eigensolve.self_s": ("s", "oracle_s, compare_s, peak_rss_mb", "oracle"),
    "rmt.histogram.self_s": ("s", "oracle_s, compare_s, peak_rss_mb", "oracle"),
    "rmt.dense.gflop": ("Gflop", "oracle_s, compare_s, peak_rss_mb", "oracle"),
    "cli.main.self_s": ("s", "wall_s", "all"),
    "cli.out_bytes": ("bytes", "wall_s", "all"),
    "trace.overhead_ratio": ("1", "none (cost of tracing)", "all"),
}


class Recorder:
    """Spans, counters and distinct-argument keys of one traced pass.

    A span is ``(name, start, end, parent, op)``; ``parent`` indexes the
    enclosing span in ``spans`` (None at top level) and ``op`` is the id
    of the CLI invocation it belongs to.
    """

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.keys = defaultdict(set)

    def call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        token = _PARENT.set(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            _PARENT.reset(token)
            self.spans[sid] = (name, start, end, _PARENT.get(), _OP.get())

    def write_jsonl(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def set_op(op_id):
    """Tag spans opened from now on with ``op_id``; returns a reset token."""
    return _OP.set(op_id)


def reset_op(token):
    _OP.reset(token)


def self_times(spans):
    """Self time of each span: its duration minus the part its children cover."""
    children = defaultdict(list)
    for sid, (_name, start, end, parent, _op) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# argument observers: counts read where the work happens
# ---------------------------------------------------------------------------


def _matrix_key(m):
    m = np.asarray(m)
    return (m.shape, m.tobytes())


def _measure_key(mu):
    try:
        hash(mu)
        return mu
    except TypeError:
        return repr(mu)


def _model_key(model):
    return (_matrix_key(model.a1), _matrix_key(model.a2),
            _measure_key(model.mu1), _measure_key(model.mu2))


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _before_integrate_piece(rec, args, kwargs):
    f = _arg(args, kwargs, 0, "f")

    def counted(t):
        rec.counters["measure.integrate_piece.panels"] += 1
        return f(t)

    if len(args) > 0:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, f=counted)
    return args, kwargs


def _before_quantiles(rec, args, kwargs):
    rec.keys["measure.quantiles"].add((_measure_key(_arg(args, kwargs, 0, "mu")),
                                       _arg(args, kwargs, 1, "N")))
    return args, kwargs


def _before_kernel_profile(rec, args, kwargs):
    hints = tuple(float(h) for h in _arg(args, kwargs, 2, "hints", ()))
    rec.keys["opval.kernel_profile"].add((_matrix_key(_arg(args, kwargs, 0, "a")),
                                          _matrix_key(_arg(args, kwargs, 1, "b")), hints))
    return args, kwargs


def _before_ladder_scan(rec, args, kwargs):
    ladder = _arg(args, kwargs, 2, "y_ladder")
    rec.keys["atoms.ladder_scan"].add((_model_key(_arg(args, kwargs, 0, "model")),
                                       _matrix_key(_arg(args, kwargs, 1, "b")),
                                       None if ladder is None else _matrix_key(ladder),
                                       _arg(args, kwargs, 3, "tol", 1e-12)))
    return args, kwargs


def _after_ladder_scan(rec, result, args, kwargs):
    rec.counters["atoms.ladder_scan.rungs"] += len(result.ys)
    rec.counters["atoms.ladder_scan.truncated"] += int(bool(result.truncated))


def _after_solve_subordination(rec, result, args, kwargs):
    rec.counters["subord.iterations"] += int(result.iterations)
    rec.counters["subord.lifted_evaluations"] += int(result.lifted_evaluations)


# Dense-kernel flop counts, computed from matrix sizes (not measured):
# complex Householder QR with explicit Q is 32/3 N^3 real flops, the
# conjugation (U D) U* one complex N x N product (8 N^3), and a complex
# Hermitian eigenvalue-only solve 16/3 M^3 for its tridiagonal reduction.
def _after_haar_unitary(rec, result, args, kwargs):
    n = int(_arg(args, kwargs, 0, "N"))
    rec.counters["rmt.dense.flop"] += 32.0 / 3.0 * n**3


def _after_realize(rec, result, args, kwargs):
    n = int(_arg(args, kwargs, 0, "spec").N)
    conjugated = sum(1 for m in result if getattr(m, "ndim", 0) == 2)
    rec.counters["rmt.dense.flop"] += 8.0 * n**3 * conjugated


def _after_eigvalsh(rec, result, args, kwargs):
    a = _arg(args, kwargs, 0, "a")
    m = a.shape[-1]
    batch = a.size // (m * m) if m else 0
    rec.counters["rmt.dense.flop"] += batch * 16.0 / 3.0 * m**3


BEFORE = {
    "measure.integrate_piece": _before_integrate_piece,
    "measure.quantiles": _before_quantiles,
    "opval.kernel_profile": _before_kernel_profile,
    "atoms.ladder_scan": _before_ladder_scan,
}
AFTER = {
    "atoms.ladder_scan": _after_ladder_scan,
    "subord.solve_subordination": _after_solve_subordination,
    "rmt.haar_unitary": _after_haar_unitary,
    "rmt.realize_pair": _after_realize,
    "rmt._realize_reduced": _after_realize,
    EIGENSOLVE: _after_eigvalsh,
}


def _wrapper(rec, name, fn):
    before = BEFORE.get(name)
    after = AFTER.get(name)

    def traced(*args, **kwargs):
        if before is not None:
            args, kwargs = before(rec, args, kwargs)
        result = rec.call(name, fn, args, kwargs)
        if after is not None:
            after(rec, result, args, kwargs)
        return result

    traced.__wrapped__ = fn
    return traced


class _Proxy:
    """Attribute proxy over a module, with some attributes replaced."""

    def __init__(self, target, overrides):
        self._target = target
        self._overrides = overrides

    def __getattr__(self, attr):
        if attr in self._overrides:
            return self._overrides[attr]
        return getattr(self._target, attr)


class Instrumentation:
    """Installs the layer wrappers for the life of a ``with`` block."""

    def __init__(self, rec):
        self.rec = rec
        self.absent = []
        self._undo = []

    def __enter__(self):
        modules = {}
        for module_name, _attr in LAYER_FUNCTIONS:
            try:
                modules[module_name] = importlib.import_module(f"freeatoms.{module_name}")
            except ImportError:
                modules[module_name] = None
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "freeatoms" or n.startswith("freeatoms."))]
        for module_name, attr in LAYER_FUNCTIONS:
            name = f"{module_name}.{attr}"
            fn = getattr(modules[module_name], attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapped = _wrapper(self.rec, name, fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._undo.append((ns, key, value))
                        setattr(ns, key, wrapped)
        rmt = modules["rmt"]
        np_mod = getattr(rmt, "np", None)
        eig = getattr(getattr(np_mod, "linalg", None), "eigvalsh", None)
        if eig is None:
            self.absent.append(EIGENSOLVE)
        else:
            linalg = _Proxy(np_mod.linalg, {"eigvalsh": _wrapper(self.rec, EIGENSOLVE, eig)})
            self._undo.append((rmt, "np", np_mod))
            rmt.np = _Proxy(np_mod, {"linalg": linalg})
        return self

    def __exit__(self, *exc):
        for ns, key, value in reversed(self._undo):
            setattr(ns, key, value)
        self._undo.clear()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(rec, out_bytes):
    """Per-layer metrics of one traced pass (overhead ratio added by the caller)."""
    selfs = self_times(rec.spans)
    calls = Counter()
    self_s = defaultdict(float)
    for (name, *_rest), s in zip(rec.spans, selfs):
        calls[name] += 1
        self_s[name] += s
    for stage, members in STAGES.items():
        self_s[stage] = sum(self_s.get(m, 0.0) for m in members)

    def ratio(num, den):
        return num / den if den else 0.0

    c = rec.counters
    out = {}
    for metric, (unit, _moves, _where) in LAYER_METRICS.items():
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            value = calls[layer]
        elif field == "self_s":
            value = self_s.get(layer, 0.0)
        elif field == "unique_ratio":
            value = ratio(len(rec.keys[layer]), calls[layer])
        elif metric == "subord.iterations_per_solve":
            value = ratio(c["subord.iterations"], calls["subord.solve_subordination"])
        elif metric == "rmt.dense.gflop":
            value = c["rmt.dense.flop"] / 1e9
        elif metric == "cli.out_bytes":
            value = out_bytes
        elif metric == "trace.overhead_ratio":
            continue
        else:
            value = c[metric]
        out[metric] = value
    return out


def share_under(rec, layers, op_ids):
    """Fraction of the ``cli.main`` time of ``op_ids`` spent inside ``layers``.

    Counts the outermost span of any of ``layers`` so nested calls are not
    counted twice.
    """
    layers = set(layers)
    op_ids = set(op_ids)
    total = 0.0
    inside = 0.0
    spans = rec.spans
    for name, start, end, parent, op in spans:
        if op not in op_ids:
            continue
        if name == "cli.main":
            total += end - start
        elif name in layers:
            p = parent
            while p is not None and spans[p][0] not in layers:
                p = spans[p][3]
            if p is None:
                inside += end - start
    return inside / total if total else 0.0
