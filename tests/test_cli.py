import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from neuspec import cli, jnprime_zero
from neuspec.errors import DomainError

MU_30_1 = 32.534223556790142

DISC = "radial:a0=1,eps=0,k=1,b=0"
WOBBLY = "radial:a0=1,eps=0.3,k=3,b=0.2"


def run(argv):
    return cli.main(argv)


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def _isolate_blas_env(mp):
    """Have ``mp`` undo the thread variables that ``--threads`` exports.
    ``delenv`` of an absent key records nothing to restore, so each is set
    first: the undo then removes it again."""
    for var in _BLAS_VARS:
        mp.setenv(var, "0")
        mp.delenv(var)


@pytest.fixture
def blas_env(monkeypatch):
    _isolate_blas_env(monkeypatch)


class TestCurveParsing:
    def test_radial_roundtrip(self):
        c = cli.parse_curve("radial:a0=1,eps=0.3,k=3,b=0.2")
        assert abs(c.radius(0.0) - 1.3) < 1e-15

    def test_trig_file(self, tmp_path):
        p = tmp_path / "c.txt"
        # blank lines and comments are skipped, harmonic 1 is 0
        p.write_text("# r = 1 + 0.1 cos 2t - 0.05 sin 2t\n\n  # j c_j d_j\n"
                     "0 1.0 0\n2 0.1 -0.05\n")
        c = cli.parse_curve(f"trig:{p}")
        th = 0.37
        expect = 1.0 + 0.1 * np.cos(2 * th) - 0.05 * np.sin(2 * th)
        assert abs(c.radius(th) - expect) < 1e-15

    @pytest.mark.parametrize("text, message", [
        ("0 1\n", "trig file line needs 'j c_j d_j': '0 1'"),
        ("0 1 x\n", "bad trig coefficient line '0 1 x': could not convert"),
        ("-1 1 0\n", "negative harmonic index in '-1 1 0'"),
        # the second line silently set c_0 = 2
        ("0 1 0\n0 2 0\n", "repeated harmonic index in '0 2 0'"),
        ("# no coefficient\n\n", "trig file holds no coefficients"),
        ("0 0.5 0\n1 0.9 0\n", "radius must be positive"),
    ], ids=["fields", "float", "negative", "repeated", "empty", "radius"])
    def test_bad_trig_file(self, tmp_path, text, message):
        p = tmp_path / "c.txt"
        p.write_text(text)
        with pytest.raises(DomainError) as info:
            cli.parse_curve(f"trig:{p}")
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("name", ["missing.txt", "binary.txt"])
    def test_unreadable_trig_file(self, tmp_path, name):
        # undecodable bytes ended in a UnicodeDecodeError traceback
        (tmp_path / "binary.txt").write_bytes(b"0 1 0\n\xff\xfe\n")
        with pytest.raises(DomainError, match="^cannot read trig file: "):
            cli.parse_curve(f"trig:{tmp_path / name}")

    def test_repeated_radial_field(self):
        # the last value silently won
        with pytest.raises(DomainError, match="repeated key 'a0'"):
            cli.parse_curve("radial:a0=1,eps=0.3,k=3,b=0.2,a0=2")

    @pytest.mark.parametrize("spec", [
        "radial:a0=1,eps=0.3",            # missing fields
        "radial:a0=1,eps=0.3,k=3,b=x",    # bad float
        "radial:a0=1,eps=0.3,k=3,b=0,zz=1",
        "ellipse:1,2",                    # unknown scheme
        "radial:a0=1,eps=1.5,k=3,b=0.2",  # negative radius
    ])
    def test_bad_specs(self, spec):
        with pytest.raises(DomainError):
            cli.parse_curve(spec)


class TestSweepCommand:
    def test_disc_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run(["sweep", "--curve", DISC, "--fmin", "32.4", "--fmax", "32.6",
                  "--steps", "21", "--M", "256", "--N", "128", "--tau", "0.1",
                  "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 21
        best = min(rows, key=lambda r: float(r["tension_min"]))
        assert abs(float(best["sqrtE"]) - MU_30_1) <= 0.01
        for r in rows:
            assert float(r["tension_min"]) >= 0
            assert int(r["rank_eps"]) > 0

    def test_header_and_rank_h_column(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run(["sweep", "--curve", DISC, "--fmin", "3.0", "--fmax", "3.6",
                  "--steps", "4", "--M", "64", "--N", "32", "--tau", "0.1",
                  "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sqrtE,tension_min,rank_eps,c_min,rank_H"
        for r in csv.DictReader(lines):
            # B has rank_H rows, at most one per basis function
            assert 0 < int(r["rank_H"]) <= 32

    def test_single_step_usage_error(self, tmp_path):
        rc = run(["sweep", "--curve", DISC, "--fmin", "3", "--fmax", "4",
                  "--steps", "1", "--M", "64", "--N", "32", "--tau", "0.1",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--curve", DISC, "--fmin", "3.0", "--fmax", "3.6",
                "--steps", "4", "--M", "64", "--N", "32", "--tau", "0.1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_flag_usage_error(self, tmp_path):
        rc = run(["sweep", "--curve", DISC, "--fmin", "3", "--fmax", "4",
                  "--steps", "4", "--M", "64", "--N", "32",
                  "--out", str(tmp_path / "x.csv")])  # no --tau
        assert rc == 2


class TestSweepFailures:
    """A sample whose evaluation fails numerically is reported on stderr
    and left out of the CSV; when every sample fails, ``sweep`` exits 3 and
    writes no CSV."""

    ARGS = ["sweep", "--curve", DISC, "--fmin", "3.0", "--fmax", "3.6",
            "--steps", "4", "--M", "64", "--N", "32", "--tau", "0.1"]
    FREQS = np.linspace(3.0, 3.6, 4)

    def fail_at(self, monkeypatch, samples):
        """Have the evaluation raise at the frequencies of ``samples``."""
        from neuspec.errors import NumericalError
        from neuspec.search import TensionSolver

        energies = {f * f for f in self.FREQS[samples]}
        real = TensionSolver.evaluate

        def evaluate(solver, E):
            if E in energies:
                raise NumericalError("injected")
            return real(solver, E)

        monkeypatch.setattr(TensionSolver, "evaluate", evaluate)

    def test_failed_samples_left_out(self, tmp_path, monkeypatch, capsys):
        whole = tmp_path / "whole.csv"
        assert run(self.ARGS + ["--out", str(whole)]) == 0
        self.fail_at(monkeypatch, [1, 3])
        out = tmp_path / "sweep.csv"
        assert run(self.ARGS + ["--out", str(out)]) == 0
        assert capsys.readouterr().err == "".join(
            f"sweep: evaluation failed at sqrtE={cli._fmt(f)}: injected\n"
            for f in self.FREQS[[1, 3]])
        lines = whole.read_text().splitlines()
        assert out.read_text().splitlines() == [lines[0], lines[1], lines[3]]

    def test_every_sample_failed_exit3(self, tmp_path, monkeypatch, capsys):
        self.fail_at(monkeypatch, [0, 1, 2, 3])
        out = tmp_path / "sweep.csv"
        assert run(self.ARGS + ["--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 5
        assert all(line.startswith("sweep: evaluation failed at sqrtE=")
                   for line in err[:4])
        assert err[4] == "sweep: every sample failed"
        assert not out.exists()


class TestSolveCommand:
    def test_disc_solve_json_roundtrip(self, tmp_path):
        out = tmp_path / "solve.json"
        rc = run(["solve", "--curve", DISC, "--f0", "32.50", "--f1", "32.56",
                  "--M", "256", "--N", "128", "--tau", "0.1", "--coarse", "5",
                  "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert abs(doc["sqrtE"] - MU_30_1) < 1e-9
        assert doc["converged"] is True
        assert doc["certified"] is True and doc["reasons"] == []
        assert doc["E"] == pytest.approx(doc["sqrtE"] ** 2, rel=1e-15)
        assert doc["eps_new_rel"] == pytest.approx(doc["eps_new"] / doc["E"], rel=1e-12)
        assert doc["n_evals"] >= 3
        assert 3 <= doc["n_presolve"] <= 5
        # three samples shared by presolve and search (the bracket ends and
        # the grid minimum between them); the slope costs none
        assert doc["n_evals_total"] == doc["n_presolve"] + doc["n_evals"] - 3
        assert doc["M"] == 256 and doc["N"] == 128
        assert doc["t_second"] < 1e-10  # j'_{30,1} is a double eigenvalue
        # 17-significant-digit round trip: rewriting the parsed numbers
        # reproduces the same decimal strings
        text = out.read_text()
        for key in ("sqrtE", "t_min", "eps_new"):
            assert cli._fmt(doc[key]) in text

    def test_bracket_end_minimum_exit3(self, tmp_path, capsys):
        # without a presolve the search ends on rounding noise near the
        # upper end, unless it finds the narrow dip at j'_{20,2}: a noise
        # landing is not certified and exits 3
        out = tmp_path / "end.json"
        rc = run(["solve", "--curve", DISC, "--f0", "27.708039453137719",
                  "--f1", "27.747889183327814", "--M", "256", "--N", "128",
                  "--tau", "0.1", "--coarse", "0", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert rc == (0 if doc["certified"] else 3)
        assert (not doc["certified"]
                or abs(doc["E"] - jnprime_zero(20, 2) ** 2) <= doc["eps_new"])
        if rc == 3:
            assert doc["reasons"]
            assert capsys.readouterr().err.startswith(
                f"solve: not certified: {'; '.join(doc['reasons'])}; ")

    @pytest.mark.parametrize("f0, f1", [("40.50", "40.55"),
                                        ("40.502", "40.548"),
                                        ("40.504", "40.546")])
    def test_far_charges_exit3(self, tmp_path, capsys, f0, f1):
        # at tau=0.04 the coefficients grow to 1e10 and the presolve lands
        # on noise whose interior norm is lost to rounding
        out = tmp_path / "far.json"
        rc = run(["solve", "--curve", WOBBLY, "--f0", f0, "--f1", f1,
                  "--M", "700", "--N", "350", "--tau", "0.04",
                  "--out", str(out)])
        doc = json.loads(out.read_text())
        assert rc == (0 if doc["certified"] else 3)
        if abs(doc["E"] - 40.53011549421899 ** 2) > doc["eps_new"]:
            assert "interior norm lost to rounding" in doc["reasons"]
            assert "interior norm lost to rounding" in capsys.readouterr().err

    def test_failed_presolve_samples_reported(self, tmp_path, monkeypatch,
                                              capsys):
        # the grid ends fail; the minimum between them is still found
        from neuspec.errors import NumericalError
        from neuspec.search import TensionSolver

        fs = np.linspace(3.7, 3.95, 11)[[0, 10]]
        real = TensionSolver.evaluate

        def evaluate(solver, E):
            if E in {f * f for f in fs}:
                raise NumericalError("injected")
            return real(solver, E)

        monkeypatch.setattr(TensionSolver, "evaluate", evaluate)
        out = tmp_path / "solve.json"
        rc = run(["solve", "--curve", DISC, "--f0", "3.7", "--f1", "3.95",
                  "--M", "64", "--N", "32", "--tau", "0.1", "--coarse", "11",
                  "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == "".join(
            f"solve: presolve failed at sqrtE={cli._fmt(f)}: injected\n"
            for f in fs)
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert doc["n_presolve"] == 11

    def test_narrow_bracket_exit2(self, tmp_path, capsys):
        # five frequencies in a bracket one ulp wide repeat an energy
        rc = run(["solve", "--curve", DISC, "--f0", "3.81",
                  "--f1", cli._fmt(3.81 + np.spacing(3.81)), "--M", "64",
                  "--N", "32", "--tau", "0.1", "--coarse", "5",
                  "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "solve: bracket too narrow for a presolve grid of 5 distinct "
            "energies\n")

    def test_malformed_curve_exit2(self, tmp_path):
        rc = run(["solve", "--curve", "radial:bogus", "--f0", "3", "--f1", "4",
                  "--M", "64", "--N", "32", "--tau", "0.1",
                  "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_numerical_failure_exit3(self, tmp_path):
        # absurd imaginary shift overflows the continuation: charge placement fails
        rc = run(["solve", "--curve", DISC, "--f0", "3", "--f1", "4",
                  "--M", "64", "--N", "32", "--tau", "1000",
                  "--out", str(tmp_path / "x.json")])
        assert rc == 3

    def test_config_file_merging_flags_win(self, tmp_path):
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("# the disc\ncurve=radial:a0=1,eps=0,k=1,b=0\n\n"
                       "  # charges\nM=256\nN=64\ntau=0.1\nf0=32.50\n"
                       "f1=32.56\ncoarse=5\n")
        out = tmp_path / "merged.json"
        rc = run(["solve", "--config", str(cfg), "--N", "128",
                  "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["N"] == 128          # explicit flag beats the config value
        assert doc["M"] == 256          # config fills everything else
        assert abs(doc["sqrtE"] - MU_30_1) < 1e-9

    @pytest.mark.parametrize("text, message", [
        ("M=64\nN 32\n", "config line needs key=value: 'N 32'"),
        # the last value silently won
        ("M=64\nN=32\nM=128\n", "repeated key 'M' in 'M=128'"),
        (None, "cannot read config file: "),
    ], ids=["malformed", "repeated", "missing"])
    def test_bad_config_file_usage_error(self, tmp_path, capsys, text,
                                         message):
        cfg = tmp_path / "solve.cfg"
        if text is not None:
            cfg.write_text(f"curve={DISC}\ntau=0.1\n{text}")
        rc = run(["solve", "--config", str(cfg), "--f0", "3.81", "--f1",
                  "3.84", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"solve: {message}")
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("cest", ["-1", "0", "nan", "inf"])
    def test_cest_not_finite_and_positive_usage_error(self, tmp_path, capsys,
                                                      cest):
        # a negative constant would certify an interval of negative width,
        # nan and inf would write JSON that does not parse
        rc = run(["solve", "--curve", DISC, "--f0", "3.81", "--f1", "3.84",
                  "--M", "64", "--N", "32", "--tau", "0.1", f"--cest={cest}",
                  "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "solve: c_est must be finite and positive\n")
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("coarse", ["1", "2", "-1"])
    def test_coarse_without_presolve_grid_usage_error(self, tmp_path, capsys,
                                                      coarse):
        # a presolve grid needs a point between its ends
        rc = run(["solve", "--curve", DISC, "--f0", "3.81", "--f1", "3.84",
                  "--M", "64", "--N", "32", "--tau", "0.1", "--coarse", coarse,
                  "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "--coarse" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_coarse_config_line_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(f"curve={DISC}\nM=64\nN=32\ntau=0.1\ncoarse=2\n")
        rc = run(["solve", "--config", str(cfg), "--f0", "3.81", "--f1",
                  "3.84", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "--coarse" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    SWEEP = ["sweep", "--fmin", "3.0", "--fmax", "3.4", "--steps", "3"]
    SOLVE = ["solve", "--f0", "3.80", "--f1", "3.86", "--coarse", "5"]

    @pytest.mark.parametrize("argv,key", [
        (SWEEP, "bogus=3"),
        # the library's name; the option is --cest
        (SOLVE, "c_est=2.0"),
        # the SVD cutoff, search tolerance and classical constant are fixed
        (SWEEP, "eps=1e-10"),
        (SOLVE, "tol=1e-9"),
        (SOLVE, "cenn=3"),
    ], ids=["sweep-bogus", "solve-c_est", "sweep-eps", "solve-tol",
            "solve-cenn"])
    def test_config_unknown_key_usage_error(self, tmp_path, capsys, argv,
                                            key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"curve={DISC}\nM=64\nN=32\ntau=0.1\n{key}\n")
        rc = run([*argv, "--config", str(cfg),
                  "--out", str(tmp_path / "x.out")])
        assert rc == 2
        assert key.partition("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.parametrize("argv,flag", [
        (SWEEP, "--eps=1e-10"), (SOLVE, "--tol=1e-9"),
        (SOLVE, "--cenn=3")], ids=["eps", "tol", "cenn"])
    def test_removed_flag_usage_error(self, tmp_path, argv, flag):
        rc = run([*argv, "--curve", DISC, "--M", "64", "--N", "32", "--tau",
                  "0.1", flag, "--out", str(tmp_path / "x.out")])
        assert rc == 2
        assert not (tmp_path / "x.out").exists()


class TestLibraryDefaults:
    """Without --cest the commands print what the library computes with its
    own defaults."""

    SYSTEM = ["--curve", DISC, "--M", "64", "--N", "32", "--tau", "0.1"]

    def test_solve(self, tmp_path, disc):
        from neuspec import TensionSolver, localize_minimum

        out = tmp_path / "s.json"
        assert run(["solve", *self.SYSTEM, "--f0", "3.81", "--f1", "3.84",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        res = localize_minimum(TensionSolver(disc, 64, 32, 0.1), (3.81, 3.84),
                               coarse=21)
        for key in ("sqrtE", "E", "t_min", "eps_new", "eps_clas", "n_evals",
                    "n_presolve", "slope", "weyl_index"):
            assert doc[key] == getattr(res, key), key
        for key in ("t_classical", "t_second"):
            assert doc[key] == getattr(res.best, key), key

    def test_sweep(self, tmp_path, disc):
        from neuspec import TensionSolver, sweep

        # near j'_{20,2}: both samples take the QR path, each class's
        # rcond estimate 6e-14 to 1.5e-13 against the cutoff 1e-14
        out = tmp_path / "s.csv"
        assert run(["sweep", "--curve", DISC, "--M", "256", "--N", "128",
                    "--tau", "0.1", "--fmin", "27.72", "--fmax", "27.74",
                    "--steps", "2", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        samples = sweep(TensionSolver(disc, 256, 128, 0.1), 27.72, 27.74, 2)
        assert len(rows) == len(samples)
        for r, (f, ev) in zip(rows, samples):
            assert float(r["sqrtE"]) == f
            assert float(r["tension_min"]) == ev.t_min
            assert float(r["c_min"]) == ev.c_min
            assert int(r["rank_eps"]) == ev.rank_eps
            assert int(r["rank_H"]) == ev.rank_H

    def test_mode(self, tmp_path, disc):
        from neuspec import TensionSolver, interior_grid, raster_sum

        out = tmp_path / "m.csv"
        assert run(["mode", *self.SYSTEM, "--freq", "3.83", "--nx", "9",
                    "--out", str(out)]) == 0
        u = np.array([float(r["u"]) for r in csv.DictReader(out.open())])
        solver = TensionSolver(disc, 64, 32, 0.1)
        alpha = solver.evaluate(3.83 ** 2).alpha
        expect = raster_sum(solver.builder, alpha, 3.83 ** 2,
                            interior_grid(disc, 9))
        assert np.array_equal(u, expect)


class TestModeCommand:
    def test_tiny_raster(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = run(["mode", "--curve", DISC, "--freq", "3.8317059702075125",
                  "--M", "64", "--N", "32", "--tau", "0.1", "--nx", "2",
                  "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) <= 4  # corners of the box are on/outside the circle

    def test_csv_reads_back_bit_equal(self, tmp_path, disc):
        """More rows than one CSV chunk and one Y0 chunk."""
        from neuspec import TensionSolver, interior_grid, raster_sum

        out = tmp_path / "m.csv"
        assert run(["mode", "--curve", DISC, "--freq", "3.83", "--M", "64",
                    "--N", "32", "--tau", "0.1", "--nx", "111",
                    "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        grid = interior_grid(disc, 111)
        solver = TensionSolver(disc, 64, 32, 0.1)
        expect = raster_sum(solver.builder, solver.evaluate(3.83 ** 2).alpha,
                            3.83 ** 2, grid)
        assert len(rows) == len(expect) > 8192
        assert np.array_equal([[int(r["ix"]), int(r["iy"])] for r in rows],
                              grid.indices)
        assert np.array_equal([[float(r["x"]), float(r["y"])] for r in rows],
                              grid.points)
        assert np.array_equal([float(r["u"]) for r in rows], expect)
        assert out.read_text().count("\n") == len(expect) + 1

    def test_whispering_mode_boundary_concentration(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = run(["mode", "--curve", DISC, "--freq", repr(MU_30_1),
                  "--M", "256", "--N", "128", "--tau", "0.1", "--nx", "101",
                  "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        vals = np.array([float(r["u"]) for r in rows])
        pts = np.array([[float(r["x"]), float(r["y"])] for r in rows])
        radii = np.hypot(pts[:, 0], pts[:, 1])
        peak = np.abs(vals).max()
        assert radii[np.abs(vals).argmax()] > 0.9
        center = np.abs(vals)[radii < 0.015]
        assert center.size and center.max() < 1e-6 * peak
        # interior mask: all emitted points lie inside the disc
        assert radii.max() < 1.0

    def test_bad_nx(self, tmp_path):
        rc = run(["mode", "--curve", DISC, "--freq", "3.8", "--M", "64",
                  "--N", "32", "--tau", "0.1", "--nx", "1",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestDiscCheckCommand:
    def test_reduced_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = run(["disc-check", "--nmax", "12", "--lmax", "3", "--out", str(out)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        rows = list(csv.DictReader(out.open()))
        # one v_ratio row per (n, l, parity)
        vr = [r for r in rows if r["check"] == "v_ratio"]
        assert len(vr) == 3 * (1 + 2 * 12)
        assert all(r["pass"] == "1" for r in rows)

    def test_default_suite_passes(self, tmp_path, capsys):
        rc = run(["disc-check", "--out", str(tmp_path / "full.csv")])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_fault_injection_fails(self, tmp_path, capsys, monkeypatch):
        import neuspec.disc as disc_mod

        real = disc_mod.bessel_jn_prime
        # perturb the derivative: perturbations of J_n alone cancel exactly
        # in the boundary-to-interior ratio, the J_n' residual does not
        monkeypatch.setattr(disc_mod, "bessel_jn_prime",
                            lambda n, x: real(n, x) + 3e-4)
        rc = run(["disc-check", "--nmax", "3", "--lmax", "2",
                  "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out
        # a failing row shows the wrong ratio, not a nan
        failed = [r for r in csv.DictReader((tmp_path / "r.csv").open())
                  if r["check"] == "v_ratio" and r["pass"] == "0"]
        assert failed
        for r in failed:
            assert np.isfinite(float(r["value"]))
            assert float(r["rel_err"]) > 1e-10


_COMMAND_FLAGS = {
    "sweep": ["--curve", DISC, "--fmin", "3.0", "--fmax", "3.4", "--steps",
              "3"],
    "solve": ["--curve", DISC, "--f0", "3.81", "--f1", "3.84"],
    "mode": ["--curve", DISC, "--freq", "3.83", "--nx", "5"],
}
_SYSTEM_CASES = {
    "M70": (["--M", "70", "--N", "32", "--tau", "0.1"], 2),
    "N80": (["--M", "64", "--N", "80", "--tau", "0.1"], 2),
    "tau-1": (["--M", "64", "--N", "32", "--tau", "-1"], 2),
    # the continuation overflows: charge placement fails
    "tau1000": (["--M", "64", "--N", "32", "--tau", "1000"], 3),
}
# Before the rule lived in main, only the solve and mode rows at --tau 1000
# gave these codes: the M70, N80, sweep-tau-1 and disc-check range rows ended
# in a traceback (exit 1), solve-tau-1, mode-tau-1 and mode-freq0.5 exited 3,
# and disc-check-nmax-1 passed (exit 0).
# one energy flag set to the value, the command's other flags valid
_OVERFLOW_CASES = {
    f"{cmd}-{flag[2:]}{value}": (cmd, [flag, value, *rest])
    for cmd, flag, rest in [
        ("mode", "--freq", ["--nx", "5"]),
        ("solve", "--f0", ["--f1", "3.84"]),
        ("solve", "--f1", ["--f0", "3.81"]),
        ("sweep", "--fmin", ["--fmax", "3.4", "--steps", "3"]),
        ("sweep", "--fmax", ["--fmin", "3.0", "--steps", "3"])]
    for value in ["1e200", "inf"]}
_EXIT_CASES = {
    **{f"{cmd}-{case}": ([cmd, *flags, *system], code)
       for case, (system, code) in _SYSTEM_CASES.items()
       for cmd, flags in _COMMAND_FLAGS.items()},
    "disc-check-nmax250": (["disc-check", "--nmax", "250"], 2),
    "disc-check-lmax150": (["disc-check", "--lmax", "150"], 2),
    "disc-check-lmax0": (["disc-check", "--lmax", "0"], 2),
    "disc-check-nmax-1": (["disc-check", "--nmax", "-1"], 2),
    # filter scale h = 1/freq above 1; sweep and solve exited 3 before their
    # samples passed input errors on
    "mode-freq0.5": (["mode", "--curve", DISC, "--freq", "0.5", "--nx", "5",
                      "--M", "64", "--N", "32", "--tau", "0.1"], 2),
    "sweep-fmax0.6": (["sweep", "--curve", DISC, "--fmin", "0.3", "--fmax",
                       "0.6", "--steps", "3", "--M", "64", "--N", "32",
                       "--tau", "0.1"], 2),
    "solve-f1-0.6": (["solve", "--curve", DISC, "--f0", "0.3", "--f1", "0.6",
                      "--M", "64", "--N", "32", "--tau", "0.1"], 2),
    # E = freq^2 underflows to 0; each ended in a traceback (exit 1) while
    # the energy and bracket checks raised a bare ValueError
    "mode-freq1e-200": (["mode", "--curve", DISC, "--freq", "1e-200",
                         "--nx", "5", "--M", "64", "--N", "32",
                         "--tau", "0.1"], 2),
    "solve-f1-2e-200": (["solve", "--curve", DISC, "--f0", "1e-200",
                         "--f1", "2e-200", "--M", "64", "--N", "32",
                         "--tau", "0.1"], 2),
    "solve-coarse0-f1-2e-200": (["solve", "--curve", DISC, "--f0", "1e-200",
                                 "--f1", "2e-200", "--coarse", "0", "--M",
                                 "64", "--N", "32", "--tau", "0.1"], 2),
    "sweep-fmax2e-200": (["sweep", "--curve", DISC, "--fmin", "1e-200",
                          "--fmax", "2e-200", "--steps", "3", "--M", "64",
                          "--N", "32", "--tau", "0.1"], 2),
    # E = freq^2 overflows: an OverflowError traceback (exit 1), or for inf
    # a numpy warning line and then "E must be positive"
    **{case: ([cmd, "--curve", DISC, *flags, "--M", "64", "--N", "32",
               "--tau", "0.1"], 2)
       for case, (cmd, flags) in _OVERFLOW_CASES.items()},
}


class TestExitCodes:
    """``main`` maps a library error to exit 2 when it is a ``DomainError``
    (bad input) and to 3 when it is a ``NumericalError``, with one line
    ``<command>: <message>`` on stderr, whichever command raised it."""

    @pytest.mark.parametrize("argv,code", _EXIT_CASES.values(),
                             ids=_EXIT_CASES.keys())
    def test_library_error_exit_code(self, tmp_path, capsys, argv, code):
        assert run([*argv, "--out", str(tmp_path / "x.out")]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"{argv[0]}: ")

    @pytest.mark.parametrize("case, sqrtE", [
        ("mode-freq0.5", "0.5"), ("sweep-fmax0.6", "0.3"),
        ("solve-f1-0.6", "0.3")])
    def test_frequency_below_one_named(self, tmp_path, capsys, case, sqrtE):
        # the first sample's frequency, not the filter scale h = 1/sqrtE
        argv, _ = _EXIT_CASES[case]
        assert run([*argv, "--out", str(tmp_path / "x.out")]) == 2
        assert capsys.readouterr().err == (
            f"{argv[0]}: sqrtE must be at least 1 (filter scale h = "
            f"1/sqrtE), got {sqrtE}\n")

    @pytest.mark.parametrize("case, message", [
        ("disc-check-nmax250", "nmax must be <= 200"),
        ("disc-check-lmax150", "lmax must be in [1, 100]"),
        ("disc-check-lmax0", "lmax must be in [1, 100]")])
    def test_disc_check_range_names_option(self, tmp_path, capsys, case,
                                           message):
        argv, _ = _EXIT_CASES[case]
        assert run([*argv, "--out", str(tmp_path / "x.out")]) == 2
        assert capsys.readouterr().err == f"disc-check: {message}\n"

    @pytest.mark.parametrize("case, flag", [
        ("mode-freq1e-200", "--freq"), ("sweep-fmax2e-200", "--fmin"),
        ("solve-f1-2e-200", "--f0"), ("solve-coarse0-f1-2e-200", "--f0")])
    def test_underflowing_energy_names_flag(self, tmp_path, capsys, case,
                                            flag):
        # the message names the first flag whose square underflows
        argv, _ = _EXIT_CASES[case]
        assert run([*argv, "--out", str(tmp_path / "x.out")]) == 2
        name = flag[2:]
        assert capsys.readouterr().err == (
            f"{argv[0]}: {flag}: need {name} > 0 and E = {name}^2 > 0, got "
            f"{name} = 1e-200\n")

    @pytest.mark.parametrize("case", _OVERFLOW_CASES)
    def test_overflowing_energy_names_flag(self, tmp_path, capsys, case):
        argv, _ = _EXIT_CASES[case]
        flag, value = _OVERFLOW_CASES[case][1][:2]
        assert run([*argv, "--out", str(tmp_path / "x.out")]) == 2
        name = flag[2:]
        assert capsys.readouterr().err == (
            f"{argv[0]}: {flag}: need {name} > 0 and E = {name}^2 finite, "
            f"got {name} = {float(value)!r}\n")
        assert not (tmp_path / "x.out").exists()

    def test_library_raises_only_its_two_kinds(self):
        """Every ``raise`` in the package names ``DomainError`` or
        ``NumericalError`` or re-raises, so no bare ``ValueError`` ends the
        CLI in a traceback, and ``errors`` defines the only exception
        classes.  The package ``__getattr__`` raises the ``AttributeError``
        that PEP 562 prescribes for an unknown name."""
        raised, classes = set(), set()
        for path in Path(cli.__file__).resolve().parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc
                    name = (exc.func.id if isinstance(exc, ast.Call)
                            and isinstance(exc.func, ast.Name)
                            else ast.unparse(exc))
                    raised.add((path.name, name))
                elif isinstance(node, ast.ClassDef) and any(
                        ast.unparse(base).endswith(("Error", "Exception"))
                        for base in node.bases):
                    classes.add((path.name, node.name))
        raised.discard(("__init__.py", "AttributeError"))
        assert {name for _, name in raised} == {"DomainError",
                                                "NumericalError"}
        assert classes == {("errors.py", name) for name in (
            "NeuspecError", "DomainError", "NumericalError")}

    def test_console_script_path(self, tmp_path):
        src = Path(cli.__file__).resolve().parents[1]
        argv, _ = _EXIT_CASES["sweep-M70"]
        proc = subprocess.run(
            [sys.executable, "-m", "neuspec.cli", *argv,
             "--out", str(tmp_path / "x.csv")],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "sweep: M must be divisible by 4\n"


class TestParser:
    def test_unknown_command_exit2(self):
        assert run(["frobnicate"]) == 2

    def test_no_command_exit2(self):
        assert run([]) == 2

    def test_cli_import_loads_no_numpy(self):
        # --threads sets the BLAS variables in main(); they take effect only
        # if numpy has not been imported by then
        src = Path(cli.__file__).resolve().parents[1]
        code = "import sys, neuspec.cli; sys.exit('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("given", [None, "25"], ids=["unset", "set"])
    def test_import_sets_blas_thread_timeout(self, given):
        """``import neuspec`` lets OpenBLAS's idle threads sleep soon after
        each call unless the user chose otherwise, and loads no numpy, so
        the value is in place when OpenBLAS reads it."""
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("OPENBLAS_THREAD_TIMEOUT", None)
        if given is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = given
        code = ("import os, sys, neuspec; "
                "print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'), "
                "'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [given or "22", "False"]

    def test_every_export_resolves(self):
        # a stale name in the lazy export table fails here, not at first use
        import neuspec

        for name in neuspec.__all__:
            assert neuspec.__getattr__(name) is not None, name

    @pytest.mark.parametrize("flag,config", [("0", ""), ("-2", ""),
                                             (None, "threads=0\n")],
                             ids=["flag-0", "flag-minus-2", "config-0"])
    def test_threads_below_one_usage_error(self, tmp_path, monkeypatch,
                                           flag, config):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        cfg = tmp_path / "t.cfg"
        cfg.write_text(config)
        threads = [] if flag is None else ["--threads", flag]
        rc = run(["sweep", "--curve", DISC, "--fmin", "3.0", "--fmax", "3.4",
                  "--steps", "3", "--M", "64", "--N", "32", "--tau", "0.1",
                  "--config", str(cfg), *threads,
                  "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        assert not (tmp_path / "t.csv").exists()

    def test_threads_flag_accepted(self, tmp_path, blas_env):
        rc = run(["sweep", "--curve", DISC, "--fmin", "3.0", "--fmax", "3.4",
                  "--steps", "3", "--M", "64", "--N", "32", "--tau", "0.1",
                  "--threads", "1", "--out", str(tmp_path / "t.csv")])
        assert rc == 0

    def test_threads_variables_undone_after_test(self, tmp_path, blas_env):
        """What ``blas_env`` does for a test: the variables ``--threads``
        sets are absent again afterwards."""
        with pytest.MonkeyPatch.context() as mp:
            _isolate_blas_env(mp)
            assert run(["sweep", "--curve", DISC, "--fmin", "3.0", "--fmax",
                        "3.4", "--steps", "3", "--M", "64", "--N", "32",
                        "--tau", "0.1", "--threads", "1",
                        "--out", str(tmp_path / "t.csv")]) == 0
            assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        for var in _BLAS_VARS:
            assert var not in os.environ

    def test_solve_json_prints_kernel_threads(self, tmp_path, blas_env):
        out = tmp_path / "s.json"
        assert run(["solve", "--curve", DISC, "--f0", "3.81", "--f1", "3.84",
                    "--M", "64", "--N", "32", "--tau", "0.1", "--threads", "1",
                    "--out", str(out)]) == 0
        text = out.read_text()
        assert json.loads(text)["threads"] == 1
        assert text.index('"tau"') < text.index('"threads"') < \
            text.index('"wall_seconds"')

    def test_one_thread_starts_no_worker(self, tmp_path, blas_env,
                                         monkeypatch):
        import threading

        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        # at N = 32 the 2809 raster points make two blocks of up to 2048 rows
        assert run(["mode", "--curve", DISC, "--freq", "3.83", "--M", "64",
                    "--N", "32", "--tau", "0.1", "--nx", "61", "--threads",
                    "1", "--out", str(tmp_path / "m.csv")]) == 0
