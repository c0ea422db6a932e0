"""Short benchmark runs: every declared metric is emitted, every output checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    cmd = BENCHMARK["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_per_layer_declaration_matches_recorder():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == {name: unit for name, (unit, *_rest) in spans.LAYER_METRICS.items()}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_emits_every_declared_metric(trace, section):
    proc = _run(ROOT, "--workload", "density", "--seed", "3", "--seconds", "0",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCHMARK["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "density", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
