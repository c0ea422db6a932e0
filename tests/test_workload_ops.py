"""Every op of the benchmark workloads exits 0 and passes the workload's own check.

The workload definitions are read from ``perfbench/workloads.py`` without
changing it; each op runs once, at seed 5, through ``cli.main`` as the
benchmark runs it.
"""

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from freeatoms import cli, measure, opval, subord

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@functools.cache
def workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("workload", workloads_module().WORKLOADS)
def test_every_op_passes_its_check(workload, tmp_path):
    ops = workloads_module().build(workload, 5, tmp_path)
    out = tmp_path / "out.json"
    problems = {}
    for op in ops:
        out.unlink(missing_ok=True)
        code = cli.main(op.argv + ["--out", str(out)])
        found = op.check(json.loads(out.read_text())) if code == 0 else [f"exit {code}"]
        if found:
            problems[op.op_id] = found
    assert ops and problems == {}



def test_atoms_ops_run_without_quadrature(tmp_path, monkeypatch):
    # identity (iv) reads the continuous part of a singular pencil's kernel
    # projection as a limit of the transform, so no atoms op integrates
    def no_quadrature(*args, **kwargs):
        raise AssertionError("integrate_piece called")

    monkeypatch.setattr(measure, "integrate_piece", no_quadrature)
    monkeypatch.setattr(opval, "integrate_piece", no_quadrature)
    test_every_op_passes_its_check("atoms", tmp_path)


@pytest.mark.parametrize("workload", ["density", "atoms"])
def test_newton_steps_invert_no_g_with_a_continuous_part(workload, tmp_path, monkeypatch):
    # the Newton steps take h = F - id in closed form (opval.matrix_h) for a
    # law with a continuous part: inside the fixed point no such law reaches
    # matrix_cauchy or matrix_f
    stepping = []
    fixed_point = subord._newton_fixed_point

    def tracked(*args, **kwargs):
        stepping.append(True)
        try:
            return fixed_point(*args, **kwargs)
        finally:
            stepping.pop()

    def guarded(name, transform):
        def call(a, mu, z, **kwargs):
            if stepping and mu.continuous:
                raise AssertionError(f"{name} called in a Newton step on a law with a continuous part")
            return transform(a, mu, z, **kwargs)
        return call

    monkeypatch.setattr(subord, "_newton_fixed_point", tracked)
    for name in ("matrix_cauchy", "matrix_f"):
        for module in (opval, subord):
            monkeypatch.setattr(module, name, guarded(name, getattr(opval, name)))
    test_every_op_passes_its_check(workload, tmp_path)
