import argparse
import contextlib
import dataclasses
import io
import json
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeatoms import atoms, cli, ncpoly, rmt, subord
from freeatoms.measure import SpectralMeasure

from matrix_json import decode


BERN_PM1 = {
    "atoms": [{"x": -1.0, "m": 0.5}, {"x": 1.0, "m": 0.5}],
    "continuous": [],
    "support": [-1, 1],
}
PROJ = {
    "atoms": [{"x": 0.0, "m": 0.5}, {"x": 1.0, "m": 0.5}],
    "continuous": [],
    "support": [0, 1],
}
MIX1 = {
    "atoms": [{"x": 0.0, "m": 0.7}, {"x": 1.0, "m": 0.3}],
    "continuous": [],
    "support": [0, 1],
}
MIX2 = {
    "atoms": [{"x": 0.0, "m": 0.6}, {"x": 2.0, "m": 0.4}],
    "continuous": [],
    "support": [0, 2],
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, spec in [("bern", BERN_PM1), ("proj", PROJ), ("mix1", MIX1), ("mix2", MIX2)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(spec))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run_cli(argv):
    return cli.main(argv)


def test_library_does_not_import_scipy(tmp_path):
    # importing the library and running the oracle on each of its paths and
    # one convolve loads no scipy, not even lazily
    import os
    import subprocess
    import sys

    import freeatoms

    laws = {"mix1": MIX1, "mix2": MIX2,
            "three": {"atoms": [{"x": 0.0, "m": 0.5}, {"x": 1.0, "m": 0.3}, {"x": 2.5, "m": 0.2}],
                      "continuous": [], "support": [0, 2.5]}}
    for name, law in laws.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(law))
    runs = [["oracle", "--mu1", "mix1.json", "--mu2", "mix2.json", "--size", "40"],
            ["oracle", "--mu1", "three.json", "--mu2", "mix2.json", "--size", "40"],
            ["convolve", "--mu1", "mix1.json", "--mu2", "mix2.json", "--grid", "-1:3:5"]]
    code = ("import sys, freeatoms, freeatoms.cli\n"
            f"for argv in {runs!r}:\n"
            "    assert freeatoms.cli.main(argv + ['--out', 'out.json']) == 0, argv\n"
            "print('scipy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(freeatoms.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_loads_no_numpy_polynomial():
    # the Gauss-Legendre tables are built on first use, not at import
    import os
    import subprocess
    import sys

    import freeatoms

    code = "import sys, freeatoms.cli\nprint('numpy.polynomial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(freeatoms.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestLinearizeCommand:
    @pytest.mark.parametrize("argv, code", [(["linearize", "--poly", "Z1*Z2+Z2*Z1"], 0), ([], 2)],
                             ids=["linearize", "no-arguments"])
    def test_runs_as_a_module(self, argv, code):
        import os
        import subprocess
        import sys

        import freeatoms

        env = dict(os.environ, PYTHONPATH=str(Path(freeatoms.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "freeatoms.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 0:
            assert json.loads(proc.stdout)["verified"] is True

    def test_anticommutator_pencil_json(self, files, capsys):
        code = run_cli(["linearize", "--poly", "Z1*Z2+Z2*Z1"])
        raw = capsys.readouterr().out
        out = json.loads(raw)
        assert code == 0
        assert raw == json.dumps(out, sort_keys=True) + "\n"  # compact, one line
        assert out["n"] == 3
        assert out["verified"] is True
        a0, a1, a2 = (decode(out[name], 3) for name in ("a0", "a1", "a2"))
        np.testing.assert_array_equal(a0, [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        np.testing.assert_array_equal(a1, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        np.testing.assert_array_equal(a2, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        assert out["certificate"]["B"] == ["Z1", "Z2"]

    def test_out_file_json(self, files, tmp_path, capsys):
        out_file = tmp_path / "pencil.json"
        code = run_cli(["linearize", "--poly", "Z1^2 - 0.5", "--out", str(out_file)])
        assert code == 0
        data = json.loads(out_file.read_text())
        a0 = decode(data["a0"], data["n"])
        # the affine part sits in the corner: -(-0.5) at (0, 0)
        assert data["certificate"]["corner"] == "0.5" and a0[0, 0] == 0.5

    def test_rejects_bad_poly(self, capsys):
        code = run_cli(["linearize", "--poly", "Z3 + 1"])
        assert code == cli.EXIT_SCHEMA


class TestConvolveCommand:
    def test_bernoulli_arcsine_csv(self, files, tmp_path):
        out_file = tmp_path / "dens.csv"
        code = run_cli([
            "convolve", "--mu1", files["bern"], "--mu2", files["bern"],
            "--grid=-1.5:1.5:31", "--y-eval", "1e-4",
            "--format", "csv", "--out", str(out_file),
        ])
        assert code == 0
        rows = out_file.read_text().strip().splitlines()
        assert rows[0] == "x,density"
        xs, ds = [], []
        for row in rows[1:]:
            x, d = row.split(",")
            xs.append(float(x))
            ds.append(float(d))
        exact = 1 / (np.pi * np.sqrt(4 - np.array(xs) ** 2))
        assert np.max(np.abs(np.array(ds) - exact)) < 1e-3

    def test_json_format(self, files, capsys):
        code = run_cli([
            "convolve", "--mu1", files["bern"], "--mu2", files["bern"],
            "--grid", "0:1:3",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["grid"]) == 3
        # what the one stacked solve of the grid did
        assert 0.0 <= out["max_residual"] <= 1e-12
        assert isinstance(out["iterations"], int) and out["iterations"] >= 3
        assert out["floor_acceptances"] == 0
        assert out["lifted_evaluations"] == 0

    def test_failing_point_exits_3_with_its_x(self, files, capsys, monkeypatch):
        # on the +-1 Bernoulli pair x = -3 converges in 6 iterations, x = 0 needs about 40
        monkeypatch.setattr(subord, "MAX_ITER", 12)
        code = run_cli([
            "convolve", "--mu1", files["bern"], "--mu2", files["bern"], "--grid=-3:0:2",
        ])
        assert code == cli.EXIT_NOCONV
        diag = json.loads(capsys.readouterr().err)
        assert diag["details"]["x"] == 0.0
        assert "at x=0" in diag["error"]

    def test_strict_writes_output_before_exit(self, files, tmp_path, monkeypatch):
        def negative_density(model, xs, **kwargs):
            solve = SimpleNamespace(residual_fixed_point=np.zeros(len(xs)),
                                    residual_consistency=np.zeros(len(xs)), iterations=0,
                                    floor_acceptances=0, lifted_evaluations=0)
            return np.column_stack([xs, np.full(len(xs), -1.0)]), solve

        monkeypatch.setattr(cli, "sum_density", negative_density)
        out_file = tmp_path / "dens.json"
        code = run_cli([
            "convolve", "--mu1", files["bern"], "--mu2", files["bern"],
            "--grid", "0:1:3", "--strict", "--out", str(out_file),
        ])
        assert code == cli.EXIT_STRICT
        out = json.loads(out_file.read_text())  # written before the strict exit
        assert out["density"] == [-1.0, -1.0, -1.0]

    def test_missing_measure_is_schema_error(self, files, capsys):
        code = run_cli(["convolve", "--mu1", "/nonexistent.json", "--mu2", files["bern"]])
        assert code == cli.EXIT_SCHEMA

    def test_bad_grid(self, files):
        code = run_cli([
            "convolve", "--mu1", files["bern"], "--mu2", files["bern"], "--grid", "5:1:10",
        ])
        assert code == cli.EXIT_SCHEMA


class TestDecomposeCommand:
    def test_atomic_fixture(self, files, capsys):
        code = run_cli([
            "decompose", "--mu1", files["mix1"], "--mu2", files["mix2"], "--b", "0",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["mass"] == pytest.approx(0.3, abs=1e-6)
        assert decode(out["beta1"], 1)[0, 0].real == pytest.approx(7 / 3, abs=1e-6)
        assert out["residuals"]["v"] < 1e-6

    def test_strict_mode_passes_clean_case(self, files, capsys):
        code = run_cli([
            "decompose", "--mu1", files["mix1"], "--mu2", files["mix2"], "--b", "2",
            "--strict",
        ])
        assert code == 0

    # a --b that does not fit the model is refused, not broadcast or cut
    @pytest.mark.parametrize("command, extra, message", [
        ("decompose", ["--a1", "[[1,0],[0,2]]", "--b", "1"], "--b must be 2 x 2"),
        ("oracle", ["--a1", "[[1,0],[0,2]]", "--b", "[[0,0,0],[0,0,0],[0,0,1]]", "--size", "8"],
         "--b must be 2 x 2"),
        ("decompose", ["--b", "[[0,0]]"], "--b must be square"),
        ("decompose", ["--a1", "[[1,0],[0,2]]", "--b", "[[0,1],[0,0]]"], "--b must be Hermitian"),
        ("oracle", ["--b", "[[NaN]]", "--size", "8"], "--b has non-finite entries"),
    ], ids=["broadcast-scalar", "oracle-larger", "not-square", "not-hermitian", "nan"])
    def test_b_is_checked_against_the_model(self, files, capsys, command, extra, message):
        code = run_cli([command, "--mu1", files["mix1"], "--mu2", files["mix2"], *extra])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and message in err

    @pytest.mark.parametrize("laws", [("mix1", "mix2"), ("mix2", "mix1")])
    def test_location_that_is_no_atom_is_regularized(self, files, capsys, monkeypatch, laws):
        # no atom at b = 0.5: E(p) is null, so the report carries the exact
        # support regularization of the zero pencil, as eigtest's does
        argv = ["decompose", "--mu1", files[laws[0]], "--mu2", files[laws[1]], "--b", "0.5"]
        assert run_cli(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mass"] == pytest.approx(0.0, abs=1e-9)
        assert out["regularized"] and out["b1"] is None
        reg = out["regularization"]
        assert reg["report"]["diagnostics"]["ladders_solved"] == 0
        assert reg["offset_distance"] < 1e-6
        # --strict judges the regularization: its exact residuals pass, and
        # an integer offset it may not accept fails
        assert run_cli(argv + ["--strict"]) == 0
        monkeypatch.setattr(cli.atoms_mod, "INTEGER_TOL", -1.0)
        assert run_cli(argv + ["--strict"]) == cli.EXIT_STRICT
        capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["decompose", "--b", "0"],
    ["eigtest", "--poly", "Z1+Z2", "--lambda", "2"],
])
def test_failing_ladder_exits_3_with_its_y(files, capsys, monkeypatch, argv):
    # three iterations solve no rung, so the ladder fails at its top, y = y0
    monkeypatch.setattr(subord, "MAX_ITER", 3)
    code = run_cli(argv + ["--mu1", files["mix1"], "--mu2", files["mix2"]])
    assert code == cli.EXIT_NOCONV
    diag = json.loads(capsys.readouterr().err)
    assert diag["details"]["y"] == 0.1
    assert diag["details"]["point"] == 0
    assert diag["error"].endswith("at y=1.000e-01")


class TestAtomScanCommand:
    def test_finds_both_atoms(self, files, capsys):
        code = run_cli(["atom-scan", "--mu1", files["mix1"], "--mu2", files["mix2"]])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        cands = {round(c["location"], 6): c for c in out["candidates"]}
        assert cands[0.0]["measured_mass"] == pytest.approx(0.3, abs=1e-6)
        assert cands[2.0]["measured_mass"] == pytest.approx(0.1, abs=1e-6)
        assert cands[0.0]["decomposition"]["mass"] == pytest.approx(0.3, abs=1e-6)


    def test_strict_applies_decompose_residual_limits(self, files, capsys, monkeypatch):
        monkeypatch.setattr(cli, "STRICT_LIMITS", dict.fromkeys(cli.STRICT_LIMITS, 1e-30))
        argv = ["atom-scan", "--mu1", files["mix1"], "--mu2", files["mix2"]]
        assert run_cli(argv) == 0
        capsys.readouterr()
        assert run_cli(argv + ["--strict"]) == cli.EXIT_STRICT
        out = json.loads(capsys.readouterr().out)  # written before the strict exit
        assert any("decomposition" in c for c in out["candidates"])


class TestEigtestCommand:
    def test_anticommutator_projections(self, files, capsys):
        code = run_cli([
            "eigtest", "--poly", "Z1*Z2+Z2*Z1", "--lambda", "0",
            "--mu1", files["proj"], "--mu2", files["proj"],
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["regularized"] is True
        assert abs(out["diagnostics"]["poly_kernel_trace"]) < 1e-5
        assert out["regularization"]["offset_distance"] < 1e-2

    def test_sum_with_atoms(self, files, capsys):
        code = run_cli([
            "eigtest", "--poly", "Z1+Z2", "--lambda", "2",
            "--mu1", files["mix1"], "--mu2", files["mix2"], "--strict",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["diagnostics"]["poly_kernel_trace"] == pytest.approx(0.1, abs=1e-5)

    def test_strict_checks_the_regularized_report(self, files, capsys, monkeypatch):
        # E(p) of Z1 Z2 Z1 at 0 is singular on these laws, so the identities are
        # measured on the doubled pencil's report alone, to about 1e-11
        argv = ["eigtest", "--poly", "Z1*Z2*Z1", "--lambda", "0", "--mu1", files["mix1"],
                "--mu2", str(Path(__file__).parent / "data" / "semicircle.json"), "--strict"]
        assert run_cli(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["residuals"] == {}
        inner = out["regularization"]["report"]["residuals"]
        assert 0.0 < max(inner[key] for key in cli.STRICT_LIMITS) < 1e-9
        with monkeypatch.context() as patch:
            patch.setattr(cli, "STRICT_LIMITS", dict.fromkeys(cli.STRICT_LIMITS, 1e-30))
            assert run_cli(argv) == cli.EXIT_STRICT
            assert run_cli(argv[:-1]) == 0
        # the integer offset is held to the integer test's tolerance
        assert 0.0 < out["regularization"]["offset_distance"] < 1e-9
        monkeypatch.setattr(atoms, "INTEGER_TOL", 1e-30)
        assert run_cli(argv) == cli.EXIT_STRICT


class TestOracleCommand:
    def test_histogram_csv(self, files, tmp_path):
        out_file = tmp_path / "hist.csv"
        code = run_cli([
            "oracle", "--mu1", files["mix1"], "--mu2", files["mix2"],
            "--size", "300", "--trials", "2", "--seed", "21",
            "--format", "csv", "--out", str(out_file), "--bins", "51",
        ])
        assert code == 0
        rows = out_file.read_text().strip().splitlines()
        assert rows[0] == "bin_left,bin_right,count_mean,count_std"
        assert len(rows) == 52

    def test_seeded_reproducibility(self, files, capsys):
        argv = [
            "oracle", "--mu1", files["mix1"], "--mu2", files["mix2"],
            "--size", "200", "--trials", "2", "--seed", "33",
        ]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_poly_target(self, files, capsys):
        code = run_cli([
            "oracle", "--poly", "Z1*Z2+Z2*Z1", "--lambda", "0",
            "--mu1", files["proj"], "--mu2", files["proj"],
            "--size", "200", "--trials", "2", "--seed", "3", "--epsilon", "1e-9",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["masses"]["0.0"][0] <= 2 / 200
        assert out["path"] == "two-subspace"

    @pytest.mark.parametrize("extra, named", [
        (["--poly", "Z1*Z2+Z2*Z1", "--a1", "[[1,0],[0,2]]", "--b", "[[5]]"], "--a1, --b"),
        (["--poly", "Z1+Z2", "--a2", "0"], "--a2"),
        (["--lambda", "0"], "--lambda"),
    ], ids=["poly-a1-b", "poly-a2", "lambda-without-poly"])
    def test_flags_of_the_other_mode_are_schema_errors(self, files, capsys, extra, named):
        code = run_cli(["oracle", "--mu1", files["proj"], "--mu2", files["proj"], *extra,
                        "--size", "20", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_SCHEMA
        assert captured.out == ""
        assert named in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("laws, coefficients, path", [
        (("mix1", "mix2"), [], "two-subspace"),
        (("mix1", "semicircle"), [], "dense"),
        (("mix1", "semicircle"), ["--a1", "1", "--a2", "0"], "commuting"),
    ])
    def test_reports_the_path_the_laws_choose(self, files, capsys, laws, coefficients, path):
        files["semicircle"] = str(Path(__file__).parent / "data" / "semicircle.json")
        code = run_cli(["oracle", "--mu1", files[laws[0]], "--mu2", files[laws[1]], *coefficients,
                        "--size", "60", "--trials", "2", "--seed", "5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["path"] == path
        assert sum(out["counts_mean"]) == pytest.approx(60)


class TestCompareCommand:
    def test_sum_agreement(self, files, capsys):
        code = run_cli([
            "compare", "--poly", "Z1+Z2", "--lambda", "0",
            "--mu1", files["mix1"], "--mu2", files["mix2"],
            "--size", "500", "--trials", "2", "--seed", "4", "--epsilon", "1e-6",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["agree"] is True
        assert out["pipeline_mass"] == pytest.approx(0.3, abs=1e-5)
        assert abs(out["oracle_mass"] - 0.3) <= out["tolerance"]
        assert out["path"] == "two-subspace"


# the flags each subcommand reads, and no others
SUBCOMMAND_FLAGS = {
    "linearize": "--poly --out",
    "convolve": "--mu1 --mu2 --a1 --a2 --grid --y-eval --tol --strict --out --format --workers",
    "decompose": "--mu1 --mu2 --a1 --a2 --b --tol --y0 --ladder-depth --strict --out --workers",
    "atom-scan": "--mu1 --mu2 --candidates --tol --y0 --ladder-depth --strict --out --workers",
    "eigtest": "--mu1 --mu2 --poly --lambda --tol --y0 --ladder-depth --strict --out --workers",
    "oracle": "--mu1 --mu2 --a1 --a2 --b --poly --lambda --candidates --size --trials --bins "
              "--epsilon --seed --workers --out --format",
    "compare": "--mu1 --mu2 --poly --lambda --size --trials --epsilon --seed --tol --y0 "
               "--ladder-depth --strict --workers --out",
}


class TestFlagTable:
    @staticmethod
    def subparsers():
        parser = cli._build_parser()
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def test_each_subcommand_offers_exactly_its_flags(self):
        offered = {
            name: {opt for action in sp._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, sp in self.subparsers().items()
        }
        assert offered == {name: set(flags.split()) for name, flags in SUBCOMMAND_FLAGS.items()}
        assert sum(len(flags) for flags in offered.values()) == 73

    def test_flag_dests_are_run_config_fields(self):
        fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
        for sp in self.subparsers().values():
            for action in sp._actions:
                if action.option_strings != ["-h", "--help"]:
                    assert action.dest in fields

    @pytest.mark.parametrize("command, extra", [
        ("eigtest", ["--poly", "Z1+Z2", "--seed", "3"]),
        ("oracle", ["--strict"]),
        ("oracle", ["--tol", "1e-9"]),
        ("linearize", ["--poly", "Z1", "--format", "csv"]),
        ("decompose", ["--format", "csv"]),
        ("compare", ["--poly", "Z1+Z2", "--bins", "5"]),
    ])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, files, capsys,
                                                              command, extra):
        measures = [] if command == "linearize" else ["--mu1", files["mix1"], "--mu2", files["mix2"]]
        assert run_cli([command, *measures, *extra]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("usage: freeatoms")
        flag = next(x for x in extra if x.startswith("--") and x != "--poly")
        assert f"unrecognized arguments: {flag}" in err


class TestConfig:
    def test_ladder_depth_bounds(self):
        with pytest.raises(Exception):
            cli.RunConfig(command="convolve", ladder_depth=50)

    def test_measure_round_trip_through_cli_format(self, files):
        mu = SpectralMeasure.from_json_dict(MIX1)
        assert SpectralMeasure.from_json_dict(mu.to_json_dict()) == mu


class TestExitCodes:
    """Each failure exits with the code of its cause, never with a traceback."""

    def oracle_argv(self, files):
        return ["oracle", "--poly", "Z1+Z2", "--mu1", files["mix1"], "--mu2", files["mix2"],
                "--size", "20", "--trials", "1"]

    def test_eigensolver_failure_is_nonconvergence(self, files, capsys, monkeypatch):
        def fail(poly, x1, x2):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(rmt, "_poly_eigs", fail)
        assert run_cli(self.oracle_argv(files)) == cli.EXIT_NOCONV
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "Eigenvalues did not converge"

    def test_unexpected_exception_is_invariant_breach(self, files, capsys, monkeypatch):
        def fail(poly, x1, x2):
            raise KeyError("lost")

        monkeypatch.setattr(rmt, "_poly_eigs", fail)
        assert run_cli(self.oracle_argv(files)) == cli.EXIT_INVARIANT
        assert capsys.readouterr().err.startswith("internal invariant breach: KeyError")


    @pytest.mark.parametrize("command", ["convolve", "oracle"])
    @pytest.mark.parametrize("piece, field", [
        ('{"family": "semicircle", "center": NaN, "radius": 1, "weight": 1}', "center"),
        ('{"family": "table", "nodes": [-1, NaN, 1], "values": [0.5, 0.5, 0.5], "weight": 1}',
         "nodes"),
    ], ids=["semicircle-center", "table-nodes"])
    def test_non_finite_piece_parameter_is_schema_error(self, files, capsys, tmp_path,
                                                        command, piece, field):
        # JSON readers accept NaN; the measure must still refuse it by name
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"atoms": [], "continuous": [{piece}], "support": [-1, 1]}}')
        extra = (["--grid", "-1:1:3"] if command == "convolve"
                 else ["--poly", "Z1+Z2", "--size", "8", "--trials", "1"])
        code = run_cli([command, "--mu1", str(bad), "--mu2", files["bern"], *extra])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and f"{field} must be finite" in err
        assert "Traceback" not in err

    # the files under data/malformed, each refused with its own message
    MALFORMED_MEASURES = {
        "list": "a measure must be a JSON object, got list",
        "string": "a measure must be a JSON object, got str",
        "support-null": "measure support must be a [min, max] pair, got None",
        "support-short": "measure support must be a [min, max] pair, got [0]",
        "not-json": "is not valid JSON",
    }

    @pytest.mark.parametrize("name", list(MALFORMED_MEASURES))
    def test_malformed_measure_file_is_schema_error(self, files, capsys, name):
        bad = Path(__file__).parent / "data" / "malformed" / f"{name}.json"
        code = run_cli(["oracle", "--mu1", files["mix1"], "--mu2", str(bad), "--size", "8",
                        "--trials", "1"])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and self.MALFORMED_MEASURES[name] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("matrix, message", [
        ('[[1, "x"]]', "bad matrix cell 'x'"),
        ("[1, 2]", "'int' object is not iterable"),
    ], ids=["cell", "rows"])
    def test_bad_matrix_is_schema_error(self, files, capsys, matrix, message):
        code = run_cli(["oracle", "--mu1", files["mix1"], "--mu2", files["mix2"], "--a1", matrix,
                        "--size", "8", "--trials", "1"])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: bad matrix specification {matrix!r}")
        assert message in err

    @pytest.mark.parametrize("grid", ["a:1:5", "0:1"])
    def test_bad_grid_text_is_schema_error(self, files, capsys, grid):
        code = run_cli(["convolve", "--mu1", files["mix1"], "--mu2", files["mix2"], "--grid", grid])
        assert code == cli.EXIT_SCHEMA
        assert capsys.readouterr().err.startswith(f"schema error: bad grid {grid!r}")

    @pytest.mark.parametrize("poly, message", [
        ("Z1^1e400", "exponent 1e400 is not finite"),
        ("1e400*Z1", "coefficient 1e400 is not finite"),
    ], ids=["exponent", "coefficient"])
    def test_non_finite_polynomial_number_is_schema_error(self, capsys, poly, message):
        assert run_cli(["linearize", "--poly", poly]) == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err == f"schema error: {message}\n"

    @pytest.mark.parametrize("poly, degree", [("Z1^1e300", "1e+300"), ("Z1^100000", "100000"),
                                              ("Z1^8*Z2^9", "17")])
    def test_degree_above_the_cap_is_schema_error(self, capsys, poly, degree):
        # refused before any word is built: a huge exponent neither
        # overflows nor runs the linearization for minutes
        start = time.perf_counter()
        assert run_cli(["linearize", "--poly", poly]) == cli.EXIT_SCHEMA
        assert time.perf_counter() - start < 1.0
        cap = ncpoly.MAX_TERM_DEGREE
        assert capsys.readouterr().err == (
            f"schema error: a term of degree {degree} exceeds the degree cap {cap}\n")
        assert run_cli(["linearize", "--poly", f"Z1^{cap}"]) == cli.EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--out", "--mu1", "--mu2", "--a1", "--a2", "--b"])
    def test_directory_path_is_schema_error(self, files, capsys, flag):
        # a directory can be neither read as a measure or matrix nor written
        args = {"--mu1": files["mix1"], "--mu2": files["mix2"], "--size": "8", "--trials": "1",
                flag: str(files["dir"])}
        code = run_cli(["oracle", *(x for item in args.items() for x in item)])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and str(files["dir"]) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["oracle", "--bogus"], []])
    def test_bad_command_line_returns_usage_error(self, argv, capsys):
        assert run_cli(argv) == cli.EXIT_SCHEMA
        assert capsys.readouterr().err.startswith("usage: freeatoms")

    def test_help_returns_zero(self, capsys):
        assert run_cli(["--help"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("usage: freeatoms")

    def test_repeated_calls_reuse_one_parser(self, capsys):
        cli._build_parser.cache_clear()
        for _ in range(2):
            assert run_cli(["--help"]) == cli.EXIT_OK
            assert capsys.readouterr().out.startswith("usage: freeatoms")
            assert run_cli(["oracle", "--bogus"]) == cli.EXIT_SCHEMA
            assert capsys.readouterr().err.startswith("usage: freeatoms")
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    # the explicit ids keep each case's name when a row is added or removed
    @pytest.mark.parametrize("command, extra, flag", [
        pytest.param("convolve", ["--tol", "nan"], "--tol", id="convolve-extra0-None---tol"),
        pytest.param("convolve", ["--tol", "inf"], "--tol", id="convolve-extra1-None---tol"),
        pytest.param("convolve", ["--y-eval", "nan"], "--y-eval",
                     id="convolve-extra3-None---y-eval"),
        pytest.param("convolve", ["--grid", "nan:1:5"], "--grid", id="convolve-extra4-None---grid"),
        pytest.param("convolve", ["--grid", "0:1:0"], "--grid", id="convolve-extra5-None---grid"),
        pytest.param("decompose", ["--y0", "nan"], "--y0", id="decompose-extra6-None---y0"),
        pytest.param("oracle", ["--epsilon", "nan"], "--epsilon",
                     id="oracle-extra7-None---epsilon"),
        pytest.param("oracle", ["--bins", "0"], "--bins", id="oracle-extra8-None---bins"),
        pytest.param("oracle", ["--lambda", "nan"], "--lambda", id="oracle-extra9-None---lambda"),
        pytest.param("atom-scan", ["--candidates", "0,nan"], "--candidates",
                     id="atom-scan-candidates-nan"),
        pytest.param("atom-scan", ["--candidates", "inf"], "--candidates",
                     id="atom-scan-candidates-inf"),
        pytest.param("oracle", ["--candidates", "nan"], "--candidates", id="oracle-candidates-nan"),
    ])
    def test_non_finite_or_out_of_range_numerics(self, files, capsys, command, extra, flag):
        code = run_cli([command, "--mu1", files["mix1"], "--mu2", files["mix2"], *extra])
        assert code == cli.EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and flag in err


class TestGoldenFixtures:
    """The documented file formats, kept as golden examples under test."""

    DATA = Path(__file__).parent / "data"

    def test_all_fixture_measures_parse_and_round_trip(self):
        for path in sorted(self.DATA.glob("*.json")):
            mu = SpectralMeasure.from_json_dict(json.loads(path.read_text()))
            assert SpectralMeasure.from_json_dict(mu.to_json_dict()) == mu

    def test_spec_style_invocation_with_bare_negative_grid(self, capsys):
        bern = str(self.DATA / "bernoulli.json")
        code = run_cli([
            "convolve", "--mu1", bern, "--mu2", bern,
            "--grid", "-2.5:2.5:51", "--format", "csv",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "x,density"
        assert len(out.splitlines()) == 52

    @pytest.mark.parametrize("name", ["semicircle", "mixed"])
    def test_convolve_next_to_the_real_axis(self, name, tmp_path):
        path = str(self.DATA / f"{name}.json")
        out_file = tmp_path / "density.json"
        code = run_cli([
            "convolve", "--mu1", path, "--mu2", path, "--y-eval", "1e-300",
            "--grid", "-3:3:31", "--out", str(out_file),
        ])
        assert code == 0
        density = json.loads(out_file.read_text())["density"]
        assert len(density) == 31
        assert np.all(np.isfinite(density))

    def test_golden_eigtest(self, capsys):
        proj = str(self.DATA / "projections.json")
        code = run_cli([
            "eigtest", "--poly", "Z1*Z2+Z2*Z1", "--lambda", "0",
            "--mu1", proj, "--mu2", proj,
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["regularized"] is True


class TestCommandLineFuzz:
    """Random command lines end in a documented exit code, never in a traceback."""

    DATA = Path(__file__).parent / "data"
    MALFORMED = ["nan", "-1", "1e309", "", "[[1,2]]"]
    VALUES = {
        "--a1": ["1", "[[2]]", "[[1,0],[0,-1]]"],
        "--a2": ["0.5", "[[1,0],[0,1]]"],
        "--b": ["0", "[[0.5]]", "[[0,1],[1,0]]"],
        "--poly": ["Z1*Z2+Z2*Z1", "Z1+Z2", "Z1*Z2", "Z3", "Z1^100000"],
        "--lambda": ["0", "2"],
        "--candidates": ["0,2", "1"],
        "--y-eval": ["1e-3"],
        "--tol": ["1e-10"],
        "--y0": ["0.1"],
        "--epsilon": ["1e-3"],
        "--seed": ["3"],
        "--workers": ["1"],
        "--format": ["json", "csv"],
    }
    # the flags that size the work are always given: tiny, or malformed
    SIZES = {"--grid": "-2:2:5", "--ladder-depth": "4", "--size": "8", "--trials": "2",
             "--bins": "5"}

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_random_argv_exits_with_a_documented_code(self, data):
        def value(valid, malformed=self.MALFORMED):
            # one value in five is malformed
            return data.draw(st.sampled_from(valid if data.draw(st.integers(0, 4)) else malformed))

        fixtures = sorted(str(path) for path in self.DATA.glob("*.json"))
        bad_paths = ([str(self.DATA / "missing.json"), str(self.DATA)] + self.MALFORMED
                     + sorted(str(path) for path in (self.DATA / "malformed").glob("*.json")))
        command = data.draw(st.sampled_from(sorted(cli._COMMANDS)))
        accepted = cli._COMMANDS[command][2].split()
        optional = [f for f in accepted if f not in self.SIZES and f not in ("--mu1", "--mu2")]
        flags = [f for f in ("--mu1", "--mu2") if f in accepted and data.draw(st.integers(0, 9))]
        flags += [f for f in accepted if f in self.SIZES]
        flags += data.draw(st.lists(st.sampled_from(optional), max_size=4)) if optional else []
        if not data.draw(st.integers(0, 4)):
            flags.append(data.draw(st.sampled_from(sorted(cli._FLAGS))))  # maybe not accepted
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command]
            for flag in dict.fromkeys(flags):
                if flag == "--strict":
                    argv.append(flag)
                elif flag in ("--mu1", "--mu2"):
                    argv += [flag, value(fixtures, bad_paths)]
                elif flag == "--out":
                    argv += [flag, value([str(Path(tmp) / "out")], [tmp, ""])]
                else:
                    argv += [flag, value([self.SIZES[flag]] if flag in self.SIZES else self.VALUES[flag])]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
        assert code in {0, 1, 2, 3}, (argv, code)
        assert "Traceback" not in err.getvalue(), argv
