"""Benchmark of the freeatoms CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload {density,atoms,oracle} --seed N \
        --seconds S --trace {0,1}

Each workload is a fixed, seeded list of CLI invocations, driven in
process through ``freeatoms.cli.main(argv)`` by one client in a closed
loop (``--workers 1``, BLAS threads capped at the available cores).
Passes over the list repeat until ``--seconds`` have elapsed and every
output is checked against its reference.  With ``--trace 0`` the
end-to-end metrics of BENCHMARK.json are reported; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
reported, and the spans of the last traced pass are written as JSON
lines under ``perfbench/out/``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
MIN_PASSES = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads():
    """Cap BLAS threads at the cores this process may use (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Import the CLI from this checkout's ``src``; exit 2 when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from freeatoms import cli
    except ImportError as exc:
        print(f"perfbench: cannot import freeatoms from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: freeatoms imported from {cli.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return cli


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc, seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        vendor = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def measure_setup(args):
    """Median wall time of fresh interpreters that import and generate inputs."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


class Runner:
    """Runs ops through ``cli.main`` and checks every output."""

    def __init__(self, cli, ops, workdir):
        self.cli = cli
        self.ops = ops
        self.out_path = Path(workdir) / "out.json"
        self.digests = {}
        self.attempted = 0
        self.failures = []

    def run_op(self, op):
        """Returns (seconds in cli.main, output bytes, problems)."""
        if self.out_path.exists():
            self.out_path.unlink()
        argv = op.argv + ["--out", str(self.out_path)]
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # main does not map every exception type
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, 0, [f"exit {code}"]
        try:
            raw = self.out_path.read_bytes()
            problems = op.check(json.loads(raw))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return elapsed, 0, [f"unreadable output: {type(exc).__name__}: {exc}"]
        if op.repeatable:
            digest = hashlib.sha256(raw).hexdigest()
            if self.digests.setdefault(op.op_id, digest) != digest:
                problems = problems + ["seeded report differs from the first pass"]
        return elapsed, len(raw), problems

    def run_pass(self, spans=None):
        """One pass over the op list; returns per-op (kind, seconds) and output bytes."""
        timings = []
        out_bytes = 0
        for op in self.ops:
            token = spans.set_op(op.op_id) if spans is not None else None
            try:
                elapsed, size, problems = self.run_op(op)
            finally:
                if token is not None:
                    spans.reset_op(token)
            self.attempted += 1
            if problems:
                self.failures.append((op.op_id, problems))
                print(f"perfbench: FAILED {op.op_id}: {'; '.join(problems)}", file=sys.stderr)
            timings.append((op.kind, elapsed))
            out_bytes += size
        return timings, out_bytes


class Budget:
    """Decides whether another pass fits in the measuring time.

    A pass starts only if one more pass of the longest length seen so far
    still ends within ``seconds``; at least MIN_PASSES passes always run.
    """

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = self.last = time.perf_counter()
        self.longest = 0.0

    def another(self, done):
        now = time.perf_counter()
        if done:
            self.longest = max(self.longest, now - self.last)
        self.last = now
        return done < MIN_PASSES or now - self.start + self.longest <= self.seconds


def describe(samples):
    """Median, the highest percentile with >= 10 samples beyond it, and the count."""
    n = len(samples)
    ordered = sorted(samples)
    tail = "none"
    for p in (99.9, 99, 90, 75):
        if n * (1 - p / 100) >= 10:
            tail = f"p{p:g}={ordered[min(n - 1, int(p / 100 * n))]:.6g}"
            break
    return f"median {statistics.median(samples):.6g}, {tail}, n={n}"


def run_untraced(args, runner, workloads_mod):
    setup_s, setup_samples = measure_setup(args)
    passes = []
    clock = Budget(args.seconds)
    while clock.another(len(passes)):
        passes.append(runner.run_pass()[0])
    walls = [sum(t for _, t in p) for p in passes]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"setup_s: {describe(setup_samples)} s (fresh interpreters)")
    print(f"wall_s: {describe(walls)} s (passes)")
    kinds = sorted({workloads_mod.KIND_METRIC[op.kind] for op in runner.ops})
    for metric in kinds:
        per_pass = [sum(t for k, t in p if workloads_mod.KIND_METRIC[k] == metric)
                    for p in passes]
        print(f"{metric}: {describe(per_pass)} s (per pass)")
    op_times = [t for p in passes for _, t in p]
    print(f"op latency: {describe(op_times)} s (CLI invocations)")
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MB")
    return metrics


# Bypass predictions of the traced run, per workload: "none" means no call
# of the layers in the whole pass, "most" more than half of the time of
# the named op kind inside them.
def predictions(spans):
    rmt = [f"rmt.{fn}" for mod, fn in spans.LAYER_FUNCTIONS if mod == "rmt"]
    rmt.append(spans.EIGENSOLVE)
    oracle_core = ["measure.quantiles", "rmt.haar_unitary", spans.EIGENSOLVE]
    return {
        "density": [("convolve", ["measure.integrate_piece"], "most"), (None, rmt, "none")],
        "atoms": [(None, rmt, "none")],
        "oracle": [(None, ["measure.integrate_piece"], "none"),
                   ("oracle", oracle_core, "most")],
    }


def prediction_report(workload, rec, ops, spans):
    lines = []
    for kind, layers, claim in predictions(spans)[workload]:
        label = "+".join(layers) if len(layers) <= 3 else "rmt.*"
        if claim == "none":
            calls = sum(1 for s in rec.spans if s[0] in layers)
            verdict = "holds" if calls == 0 else "does not hold"
            lines.append(f"prediction: no {label} call on {workload}: {verdict} ({calls} calls)")
        else:
            op_ids = [op.op_id for op in ops if op.kind == kind]
            share = spans.share_under(rec, layers, op_ids)
            verdict = "holds" if share > 0.5 else "does not hold"
            lines.append(f"prediction: most of {kind} time under {label}: {verdict} "
                         f"(share {share:.3f})")
    return lines


def run_traced(args, runner, spans, env):
    untraced, traced = [], []
    clock = Budget(args.seconds)
    rec = None
    absent = []
    while clock.another(len(traced)):
        untraced.append(sum(t for _, t in runner.run_pass()[0]))
        rec = spans.Recorder()
        with spans.Instrumentation(rec) as inst:
            timings, out_bytes = runner.run_pass(spans)
        absent = inst.absent
        traced.append((sum(t for _, t in timings), spans.layer_metrics(rec, out_bytes)))
    per_layer = {}
    for metric in traced[0][1]:
        per_layer[metric] = statistics.median(m[metric] for _, m in traced)
    # each traced pass runs right after an untraced one, so a ratio within a
    # pair sees the same machine load
    per_layer["trace.overhead_ratio"] = statistics.median(
        w / u for (w, _), u in zip(traced, untraced)) - 1.0
    metrics = {}
    for name, (unit, moves, where) in spans.LAYER_METRICS.items():
        metrics[name] = (per_layer[name], unit)
        print(f"{name}: {per_layer[name]:.6g} {unit} (median of {len(traced)} traced passes; "
              f"should move {moves} on {where})")

    for line in prediction_report(args.workload, rec, runner.ops, spans):
        print(line)
    if absent:
        print(f"absent layer functions (reported as 0): {', '.join(absent)}")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    rec.write_jsonl(trace_path, header={"environment": env})
    print(f"spans of the last traced pass: {trace_path.relative_to(ROOT)}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("density", "atoms", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the program and generate the inputs, then exit")
    args = parser.parse_args(argv)

    nproc = cap_threads()
    cli = import_program()
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        env = environment(nproc, args.seed)
        print(f"environment: {json.dumps(env, sort_keys=True)}")
        runner = Runner(cli, ops, workdir)
        if args.trace:
            metrics = run_traced(args, runner, spans, env)
        else:
            metrics = run_untraced(args, runner, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    print(f"failed_ratio: {failed / runner.attempted:.6g} "
          f"({failed} failed of {runner.attempted} ops attempted)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
