import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def test_two_atom_references_reproduce_acceptance_constants():
    # acceptance criterion 3: mu1 = 0.7 d0 + 0.3 d1, mu2 = 0.6 d0 + 0.4 d2
    assert W.bv_atom_mass(0.7, 0.6) == pytest.approx(0.3)
    assert W.bv_atom_mass(0.7, 0.4) == pytest.approx(0.1)
    assert W.bv_atom_mass(0.3, 0.6) == 0.0
    assert W.bv_betas(0.7, 0.6) == pytest.approx((7.0 / 3.0, 2.0))
    assert W.bv_betas(0.7, 0.4) == pytest.approx((7.0, 4.0))
    beta1, beta2 = W.bv_betas(0.7, 0.6)
    assert beta1 + beta2 - 1.0 == pytest.approx(1.0 / 0.3)  # identity (v)


def test_closed_form_densities():
    r = W.semicircle_sum_radius(2.0, 2.0)
    assert r == pytest.approx(math.sqrt(8.0))
    xs = np.linspace(-r, r, 20001)
    assert np.trapezoid(W.semicircle_density(xs, r), xs) == pytest.approx(1.0, abs=1e-4)
    assert W.semicircle_density(0.0, 2.0) == pytest.approx(1.0 / math.pi)
    assert W.arcsine_density(0.0, 2.0) == pytest.approx(1.0 / (2.0 * math.pi))


def test_trichotomy_and_oracle_tolerance():
    assert W.trichotomy_gap(0.5) == 0.0
    assert W.trichotomy_gap(0.3) == pytest.approx(0.2)
    assert W.oracle_tolerance(2000, 0.001) == pytest.approx(0.004)


def test_pencil_kernel_mass_counts_planted_kernel():
    a = np.diag([1.0, -1.0, 2.0])
    b = 0.5 * a + np.diag([0.0, 0.0, 1.0])  # kernel of dimension 2 at t = 0.5
    assert W.pencil_kernel_mass(a, b, [(0.5, 0.4), (3.0, 0.6)]) == pytest.approx(0.4 * 2 / 3)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_build_is_seeded(workload, tmp_path):
    def snapshot(seed):
        d = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
        d.mkdir()
        ops = W.build(workload, seed, d)
        files = {p.name: p.read_text() for p in sorted(d.iterdir())}
        argv = [[a.replace(str(d), "") for a in op.argv] for op in ops]
        return argv, files

    first, again, other = snapshot(5), snapshot(5), snapshot(6)
    assert first == again
    assert first != other
    argv, files = first
    assert all("--workers" in a for a in argv)
    for text in files.values():
        json.loads(text)
