import argparse
import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualsig import cueworld, montecarlo, verify
from dualsig.cli import _write_csv, build_parser, main
from dualsig.regimes import Regime
from dualsig.rng import RngHandle

SRC = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                    os.environ.get("PYTHONPATH")]))


def run(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


class TestLosses:
    def test_reference_row(self, tmp_path):
        code, data = run(tmp_path, "losses.csv",
                         ["losses", "--tau0", "1", "--tauH", "1",
                          "--tauA", "1", "--lambda", "0.5"])
        assert code == 0
        lines = data.decode().splitlines()
        assert lines[0] == "tau0,tauH,tauA,lambda,L_H,L_AI,L_HA_CN,L_HA_Bayes,v_marg,regime"
        assert lines[1] == ("1,1,1,0.5,0.5,0.5,0.444444444444,"
                            "0.428571428571,0.0714285714286,Complementarity")

    def test_impairment_point(self, tmp_path):
        code, data = run(tmp_path, "losses.csv",
                         ["losses", "--tauA", "0.3", "--lambda", "0.67"])
        assert code == 0
        assert data.decode().splitlines()[1].endswith("Impairment")

    def test_infeasible_overlap_exits_2(self, tmp_path, capsys):
        code = main(["losses", "--tauA", "4", "--lambda", "0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "feasibility" in err

    @pytest.mark.parametrize("tau, lam", [("1e308", "0"), ("1e200", "0.5")])
    def test_overflowing_precisions_exit_2(self, capsys, tau, lam):
        assert main(["losses", "--tauH", tau, "--tauA", tau, "--lambda", lam]) == 2
        captured = capsys.readouterr()
        assert "not finite" in captured.err
        assert captured.out == ""

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["losses", "--tauA", "1"])  # missing --lambda
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["losses", "--tauA", "1", "--lambda", "0.3"],
                                  ["verify", "--suite", "voi"]])
@pytest.mark.parametrize("target", ["missing/x.csv", "."])
def test_unwritable_out_exits_2_with_one_error_line(tmp_path, capsys, argv, target):
    # a file in a directory that does not exist, and a directory itself
    assert main(argv + ["--out", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out ")
    assert captured.err.count("\n") == 1


class TestOut:
    def test_a_failed_verify_still_writes_its_csv(self, tmp_path, capsys):
        argv = ["verify", "--suite", "gap", "--n", "2"]  # two draws fail some checks
        assert main(argv) == 1
        stdout = capsys.readouterr().out
        assert main(argv + ["--out", str(tmp_path / "gap.csv")]) == 1
        assert (tmp_path / "gap.csv").read_text(encoding="utf-8") == stdout

    def test_a_failed_run_leaves_no_new_file_and_an_old_one_as_it_was(self, tmp_path):
        argv = ["losses", "--tauA", "4", "--lambda", "0.5", "--out"]  # infeasible
        assert main(argv + [str(tmp_path / "new.csv")]) == 2
        assert list(tmp_path.iterdir()) == []
        old = tmp_path / "old.csv"
        old.write_bytes(b"kept\n")
        assert main(argv + [str(old)]) == 2
        assert old.read_bytes() == b"kept\n"

    def test_the_file_has_the_bytes_and_mode_of_a_plain_open(self, tmp_path, capsys):
        argv = ["phase", "--tauA-steps", "4", "--lambda-steps", "3"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        with open(tmp_path / "plain.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(stdout)
        assert main(argv + ["--out", str(tmp_path / "new.csv")]) == 0
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert (tmp_path / "new.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode
        # an existing file keeps its mode and loses its old bytes
        old = tmp_path / "old.csv"
        old.write_text("x" * 10_000, encoding="utf-8")
        old.chmod(0o640)
        assert main(argv + ["--out", str(old)]) == 0
        assert old.read_text(encoding="utf-8") == stdout
        assert old.stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("value, text", [
    (np.True_, "1"), (np.False_, "0"), (np.int64(2**53), "9007199254740992"),
    (np.float64(0.1), "0.1"), (None, ""), (float("nan"), ""),
    (Regime.COMPLEMENTARITY, Regime.COMPLEMENTARITY.value),
])
def test_write_csv_formats_each_value_type(capsys, value, text):
    # verify's rows send np.bool_ and np.float64; without the np.integer
    # check, 2**53 would print as 9.00719925474e+15
    _write_csv("-", ["a", "b"], [[value, "x"]])
    assert capsys.readouterr().out == f"a,b\n{text},x\n"


class TestThresholds:
    def test_rows(self, tmp_path):
        code, data = run(tmp_path, "thr.csv",
                         ["thresholds", "--lambda", "0", "--lambda", "0.5",
                          "--lambda", "0.67", "--lambda", "0.75"])
        assert code == 0
        lines = data.decode().splitlines()
        assert lines[0] == "lambda,tau_aug,tau_auto,lambda_bar"
        assert lines[1] == "0,-2,,0.75"          # tau_auto blank at lam = 0
        assert lines[2] == "0.5,0,1.41421356237,0.75"
        assert lines[3] == "0.67,0.68,1.10139823,0.75"
        assert lines[4] == "0.75,1,1,0.75"

    @pytest.mark.parametrize("tau_h", ["nan", "inf"])
    def test_nonfinite_tau_h_exits_2(self, capsys, tau_h):
        assert main(["thresholds", f"--tauH={tau_h}", "--lambda", "0.5"]) == 2
        assert "tau_h" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--tau0", "1e-300", "--tauH", "1e-300", "--lambda", "0.5"],  # printed tau_auto = 0
        ["--tauH", "1e200", "--lambda", "0.5"],                       # printed inf
        ["--tau0", "1e308", "--tauH", "1e308"],                       # blank tau_aug, 0.5
    ])
    def test_out_of_range_precisions_exit_2(self, capsys, argv):
        assert main(["thresholds", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("axis, message", [
        (["--lambda-steps", "0"], "error: lambda steps must be >= 1, got 0"),
        (["--lambda-min", "2"], "error: lambda range must satisfy min < max, got [2.0, 1.0]"),
    ])
    def test_a_bad_axis_exits_2_even_beside_lambda(self, capsys, axis, message):
        # --lambda replaces the axis, but the axis flags are still read
        assert main(["thresholds", "--lambda", "0.5", *axis]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_lambda_axis_fallback(self, tmp_path):
        code, data = run(tmp_path, "thr.csv",
                         ["thresholds", "--lambda-min", "0.1", "--lambda-max", "0.9",
                          "--lambda-steps", "5"])
        assert code == 0
        assert len(data.decode().splitlines()) == 6


class TestPhase:
    def test_grid_shape_and_flags(self, tmp_path):
        code, data = run(tmp_path, "phase.csv",
                         ["phase", "--tauA-min", "0.2", "--tauA-max", "2.0",
                          "--tauA-steps", "10", "--lambda-min", "0.0",
                          "--lambda-max", "1.0", "--lambda-steps", "6"])
        assert code == 0
        lines = data.decode().splitlines()
        assert lines[0] == "lambda,tauA,feasible,L_H,L_AI,L_HA_CN,L_HA_Bayes,v_marg,regime"
        assert len(lines) == 1 + 10 * 6
        for line in lines[1:]:
            parts = line.split(",")
            lam, tau_a, feasible = float(parts[0]), float(parts[1]), parts[2]
            expected = "1" if lam <= min(1.0, 1.0 / tau_a) else "0"
            assert feasible == expected
            if feasible == "0":
                assert parts[3:] == [""] * 6
            else:
                assert parts[-1] in {"Impairment", "Complementarity", "Automation"}

    def test_overflow_exits_2_with_one_error_line(self):
        # a fresh interpreter, so that numpy's warnings reach stderr as they would
        proc = subprocess.run(
            [sys.executable, "-m", "dualsig.cli", "phase", "--tauH", "1e200",
             "--tauA-min", "1e199", "--tauA-max", "1e201"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: T**2 = inf is not finite")
        assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["--tauA-steps", "0"], "error: tauA steps must be >= 1, got 0"),
        (["--tauA-min", "3", "--tauA-max", "1"],
         "error: tauA range must satisfy min < max, got [3.0, 1.0]"),
    ])
    def test_a_bad_axis_exits_2_with_one_error_line(self, capsys, argv, message):
        assert main(["phase", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_lambda_major_ordering(self, tmp_path):
        _, data = run(tmp_path, "phase.csv",
                      ["phase", "--tauA-steps", "3", "--lambda-steps", "2",
                       "--tauA-min", "0.5", "--tauA-max", "1.5",
                       "--lambda-min", "0.0", "--lambda-max", "0.4"])
        rows = [line.split(",")[:2] for line in data.decode().splitlines()[1:]]
        lams = [float(r[0]) for r in rows]
        assert lams == sorted(lams)


# one command per exit code: success, a failed check, a rejected value
SPAWNED = (
    (0, ["losses", "--tauA", "1.5", "--lambda", "0.3"]),
    (1, ["verify", "--suite", "closed_forms", "--n", "2"]),
    (2, ["losses", "--tauA", "-1", "--lambda", "0.3"]),
)


@pytest.mark.parametrize("code, argv", SPAWNED, ids=[f"exit-{code}" for code, _ in SPAWNED])
def test_a_spawned_command_exits_and_prints_as_main_returns(capsys, code, argv):
    # python -m runs the module's __main__ block, which an in-process main() skips
    proc = subprocess.run([sys.executable, "-m", "dualsig.cli", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert main(argv) == code
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out.encode())


class TestSimulate:
    def test_zero_overlap_plan(self, tmp_path):
        code, data = run(tmp_path, "sim.csv",
                         ["simulate", "--n", "500", "--reps", "10", "--k", "0",
                          "--h-total", "0.3", "--seed", "0"])
        assert code == 0
        lines = data.decode().splitlines()
        assert lines[0] == "N,reps,mode,target,mean_err,max_err"
        parts = lines[1].split(",")
        assert parts[:4] == ["500", "10", "homogeneous", "0"]
        assert float(parts[5]) == 0.0

    @pytest.mark.parametrize("args, message", [
        # round(m*N) = 0: the assistant has no pool to draw from
        (["--n", "1", "--m", "0.4", "--a", "0.3", "--k", "0.1", "--h-total", "0.5",
          "--mode", "heterogeneous"], "error: accessible pool rounds to 0 cues"),
        (["--n", "2", "--m", "0.2", "--a", "0.2", "--k", "0.1"],
         "error: accessible pool rounds to 0 cues"),
        # the precisions are finite, their sum is not
        (["--n", "10", "--mode", "heterogeneous", "--tau-min", "1e300", "--tau-max", "1e308"],
         "error: total cue precision = inf is not finite"),
        # round(a*N) = 0: the assistant draws no cue
        (["--n", "1000", "--a", "1e-4", "--mode", "heterogeneous"],
         "error: assistant sample size rounds to 0"),
    ])
    def test_degenerate_world_exits_2_with_one_error_line(self, capsys, args, message):
        assert main(["simulate"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["homogeneous", "heterogeneous"])
    @pytest.mark.parametrize("bounds", [["--tau-min", "nan"],
                                        ["--tau-min", "3", "--tau-max", "1"]],
                             ids=["nan", "reversed"])
    def test_bad_precision_bounds_exit_2_in_either_mode(self, capsys, mode, bounds):
        assert main(["simulate", "--n", "1000", "--reps", "2", "--mode", mode, *bounds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tau_bounds") and captured.err.count("\n") == 1

    def test_repeatable_n(self, tmp_path):
        code, data = run(tmp_path, "sim.csv",
                         ["simulate", "--n", "400", "--n", "800", "--reps", "5"])
        assert code == 0
        assert len(data.decode().splitlines()) == 3


# out-of-range verify parameters and the start of their error messages
PARAMETER_ERRORS = {
    ("--tauH", "nan"): "tau_h must be finite",
    ("--tauH", "-1"): "tau_h must be strictly positive",
    ("--tauH", "0"): "tau_h must be strictly positive",
    ("--tau0", "inf"): "tau0 must be finite",
    ("--sigma-mult", "nan"): "sigma_mult must be finite",
    ("--sigma-mult", "-1"): "sigma_mult must be >= 0",
    ("--sigma-mult", "inf"): "sigma_mult must be finite",
}


class TestVerify:
    def test_voi_suite_passes(self, tmp_path):
        code, data = run(tmp_path, "voi.csv", ["verify", "--suite", "voi"])
        assert code == 0
        lines = data.decode().splitlines()
        assert lines[0] == "suite,check,observed,expected,delta,tol,ok"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_smoke_closed_forms(self, tmp_path):
        code, _ = run(tmp_path, "cf.csv",
                      ["verify", "--suite", "closed_forms", "--n", "2000"])
        assert code == 0

    @pytest.mark.parametrize("suite", ["closed_forms", "gap", "lemma"])
    @pytest.mark.parametrize("n", ["1", "0"])
    def test_monte_carlo_suites_need_two_draws(self, capsys, suite, n):
        assert main(["verify", "--suite", suite, "--n", n]) == 2
        captured = capsys.readouterr()
        assert "n must be >= 2" in captured.err
        assert captured.out == ""

    def test_overflowing_closed_forms_exit_2_before_any_fork(self, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("a worker was forked before the closed forms were read")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", forbidden, raising=False)
        assert main(["verify", "--suite", "closed_forms", "--tau0", "1e300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: T**2 = inf is not finite; the precisions are too large\n"

    def test_a_negative_zero_sigma_mult_prints_zero_tolerances(self, capsys):
        # -0.0 passed sigma_mult >= 0 and printed -0 in every tol cell
        assert main(["verify", "--suite", "gap", "--n", "2", "--sigma-mult", "-0.0"]) == 1
        header, *rows = capsys.readouterr().out.splitlines()
        tols = [row.split(",")[header.split(",").index("tol")] for row in rows]
        assert "0" in tols and "-0" not in tols

    @pytest.mark.parametrize("flag, value", list(PARAMETER_ERRORS))
    def test_out_of_range_parameters_exit_2_before_any_work(self, monkeypatch, capsys,
                                                            flag, value):
        def forbidden(*args, **kwargs):
            raise AssertionError("suite ran before its parameters were checked")

        monkeypatch.setattr(montecarlo, "parallel_map", forbidden)
        assert main(["verify", "--suite", "closed_forms", "--n", "100", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {PARAMETER_ERRORS[flag, value]}, got ")
        assert captured.out == ""


@pytest.mark.parametrize("argv, names", [
    (["verify", "--suite", "bogus"], sorted(verify.SUITES)),
    # 2000 repetitions take seconds, had any of them run
    (["simulate", "--mode", "bogus", "--reps", "2000"], cueworld.MODES),
], ids=["suite", "mode"])
def test_an_unknown_name_exits_2_listing_the_names_before_any_work(capsys, argv, names):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert all(repr(name) in captured.err for name in names)


# the commands that read a seed
SEEDED = [
    ["verify", "--suite", "voi"],
    ["verify", "--suite", "closed_forms", "--n", "100"],
    ["simulate", "--n", "100", "--reps", "2"],
]


class TestSeed:
    @pytest.mark.parametrize("argv", SEEDED)
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_the_uint64_range_exits_2(self, capsys, argv, seed):
        # the parser reads an int; the library owns the range
        assert main(argv + ["--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: seed") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv", SEEDED)
    def test_a_fractional_seed_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1.5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--seed" in captured.err
        assert captured.out == ""

    def test_a_bad_seed_exits_2_before_any_work(self, capsys):
        # 2000 repetitions take seconds, had any of them run
        start = time.perf_counter()
        assert main(["simulate", "--reps", "2000", "--seed", "-1"]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err.startswith("error: seed")

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "closed_forms", "--n", "100"],
        ["simulate", "--n", "100", "--reps", "2"],
    ])
    def test_largest_seed_is_accepted_and_differs_from_seed_0(self, tmp_path, argv):
        code, top = run(tmp_path, "top.csv", argv + ["--seed", str(2**64 - 1)])
        assert code == 0
        _, zero = run(tmp_path, "zero.csv", argv + ["--seed", "0"])
        assert top != zero


# Every usage error above, and two that used to be found late: each exits 2
# with one error line before any draw.  "{tmp}" is a per-test directory.
USAGE_ERRORS = [
    ["losses", "--tauA", "1"],  # the parser's own: --lambda missing
    ["losses", "--tauA", "4", "--lambda", "0.5"],
    ["losses", "--tauH", "1e308", "--tauA", "1e308", "--lambda", "0"],
    ["losses", "--tauH", "1e200", "--tauA", "1e200", "--lambda", "0.5"],
    # argparse reads "-1e-3" after a space as an option; "=" hands it to the library
    ["losses", "--tauA", "1", "--lambda", "-1e-3"],
    ["losses", "--tauA", "1", "--lambda=-1e-3"],
    # closed_forms ran all its cells (3.9 s at the default --n) before this failed
    *([*argv, "--out", target] for argv in (["losses", "--tauA", "1", "--lambda", "0.3"],
                                             ["verify", "--suite", "voi"],
                                             ["verify", "--suite", "closed_forms"])
      for target in ("{tmp}/missing/x.csv", "{tmp}")),
    ["thresholds", "--tauH=nan", "--lambda", "0.5"],
    ["thresholds", "--tauH=inf", "--lambda", "0.5"],
    ["thresholds", "--tau0", "1e-300", "--tauH", "1e-300", "--lambda", "0.5"],
    ["thresholds", "--tauH", "1e200", "--lambda", "0.5"],
    ["thresholds", "--tau0", "1e308", "--tauH", "1e308"],
    ["thresholds", "--lambda", "0.5", "--lambda-steps", "0"],
    ["thresholds", "--lambda", "0.5", "--lambda-min", "2"],
    ["phase", "--tauH", "1e200", "--tauA-min", "1e199", "--tauA-max", "1e201"],
    ["phase", "--tauA-steps", "0"],
    ["phase", "--tauA-min", "3", "--tauA-max", "1"],
    # each bound is checked before the axis or the grid is allocated
    ["thresholds", "--lambda-steps", "1000000000000"],
    ["phase", "--tauA-steps", "1000000000000"],
    # an axis bound that is not finite, or a range whose width overflows,
    # printed numpy's RuntimeWarning above the error line
    ["phase", "--lambda-max", "1" + "0" * 400],
    ["phase", "--tauA-steps", "1", "--tauA-max", "inf"],
    ["thresholds", "--lambda", "0.5", "--lambda-min=-1e308", "--lambda-max", "1e308"],
    ["simulate", "--n", "1", "--m", "0.4", "--a", "0.3", "--k", "0.1", "--h-total", "0.5",
     "--mode", "heterogeneous"],
    ["simulate", "--n", "2", "--m", "0.2", "--a", "0.2", "--k", "0.1"],
    # too large for a float, and for a numpy dimension
    ["simulate", "--n", "1" + "0" * 400],
    ["simulate", "--n", str(2**63)],
    ["simulate", "--n", "10", "--mode", "heterogeneous", "--tau-min", "1e300",
     "--tau-max", "1e308"],
    ["simulate", "--n", "1000", "--a", "1e-4", "--mode", "heterogeneous"],
    *(["simulate", "--n", "1000", "--reps", "2", "--mode", mode, *bounds]
      for mode in cueworld.MODES for bounds in (["--tau-min", "nan"],
                                                 ["--tau-min", "3", "--tau-max", "1"])),
    ["simulate", "--mode", "bogus", "--reps", "2000"],
    ["simulate", "--reps", "2000", "--seed", "-1"],
    # a later pool size that rounds to an empty assistant sample
    ["simulate", "--n", "2000000", "--n", "1", "--reps", "20", "--mode", "heterogeneous"],
    *(["verify", "--suite", suite, "--n", n]
      for suite in ("closed_forms", "gap", "lemma") for n in ("1", "0")),
    ["verify", "--suite", "closed_forms", "--tau0", "1e300"],
    *(["verify", "--suite", "closed_forms", "--n", "100", flag, value]
      for flag, value in PARAMETER_ERRORS),
    ["verify", "--suite", "bogus"],
    *([*argv, "--seed", seed] for argv in SEEDED
      for seed in ("-1", "18446744073709551616", "1.5")),
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_a_usage_error_exits_2_with_one_error_line_and_no_draw(tmp_path, argv):
    assert_usage_error(counted_main([arg.format(tmp=tmp_path) for arg in argv]))


def counted_main(argv):
    """``main(argv)`` on one usable CPU, so that a task forked to a worker
    would draw in this process: its exit code, whether the parser raised it,
    its stdout, its stderr lines and the number of words drawn."""
    drawn, words = [], RngHandle.words
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True),
          mock.patch.object(RngHandle, "words",
                            lambda self, n: drawn.append(n) or words(self, n)),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            code, parser_error = main(argv), False
        except SystemExit as exc:  # the parser prints its usage lines before the error line
            code, parser_error = exc.code, True
    return code, parser_error, out.getvalue(), err.getvalue().splitlines(), sum(drawn)


def assert_usage_error(result):
    code, parser_error, out, lines, drawn = result
    assert code == 2
    assert out == ""
    assert [line for line in lines if "error: " in line] == lines[-1:]
    assert parser_error or len(lines) == 1
    assert drawn == 0


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["losses", "--tauA", "0.9", "--lambda", "0.67"],
        ["thresholds", "--lambda", "0.3", "--lambda", "0.7"],
        ["phase", "--tauA-steps", "7", "--lambda-steps", "5"],
        ["simulate", "--n", "1000", "--reps", "8", "--mode", "heterogeneous",
         "--seed", "5"],
        ["verify", "--suite", "gap", "--n", "5000", "--seed", "3"],
    ])
    def test_identical_flags_identical_bytes(self, tmp_path, args):
        _, first = run(tmp_path, "a.csv", list(args))
        _, second = run(tmp_path, "b.csv", list(args))
        assert first == second

    def test_stdout_matches_file(self, tmp_path, capsys):
        args = ["losses", "--tauA", "1.2", "--lambda", "0.4"]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        _, data = run(tmp_path, "c.csv", args)
        assert stdout.encode() == data


# Each subcommand's small base run, then one other legal value of each of its
# options: given last, so that it replaces any value in the base run, the
# value must make the command print other bytes.
FLAG_RUNS = {
    "losses": (["--tauA", "0.9", "--lambda", "0.5"],
               {"--tau0": "2", "--tauH": "2", "--tauA": "1.1", "--lambda": "0.25"}),
    "thresholds": (["--lambda-steps", "5"],
                   {"--tau0": "2", "--tauH": "2", "--lambda": "0.3", "--lambda-min": "0.1",
                    "--lambda-max": "0.9", "--lambda-steps": "6"}),
    "phase": (["--tauA-steps", "5", "--lambda-steps", "4"],
              {"--tau0": "2", "--tauH": "2", "--tauA-min": "0.1", "--tauA-max": "2",
               "--tauA-steps": "6", "--lambda-min": "0.1", "--lambda-max": "0.9",
               "--lambda-steps": "5"}),
    # heterogeneous, the mode that reads the precision bounds
    "simulate": (["--reps", "3", "--mode", "heterogeneous"],
                 {"--n": "3000", "--reps": "4", "--mode": "homogeneous", "--a": "0.2",
                  "--m": "0.6", "--k": "0.2", "--tau-min": "0.6", "--tau-max": "1.9",
                  "--seed": "1"}),
    # closed_forms, the one suite that reads every flag
    "verify": (["--suite", "closed_forms", "--n", "2000"],
               {"--suite": "voi", "--n": "3000", "--sigma-mult": "5", "--tau0": "2",
                "--tauH": "0.7", "--seed": "1"}),
}

# Options that no value makes print other bytes, each with its reason.
UNREAD_BY_DESIGN = {
    ("simulate", "--h-total"):
        "it sets the human's cues outside the AI's reach; that is central to the paper's "
        "overlap and read by covariance_lambda, but the overlap ratio cancels it, so no "
        "simulate column moves",
}


def subcommands() -> dict[str, argparse.ArgumentParser]:
    commands, = (action.choices for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    return commands


def parser_options() -> set[tuple[str, str]]:
    """``(subcommand, option)`` for every option of the parser but ``--out``
    and ``--help``."""
    return {(name, action.option_strings[0]) for name, sub in subcommands().items()
            for action in sub._actions
            if action.option_strings and action.dest not in ("help", "out")}


def test_the_parser_only_parses():
    # the library checks every value, so the parser holds no rule of its own
    actions = [(name, action) for name, sub in subcommands().items() for action in sub._actions
               if action.option_strings]
    assert [(name, action.dest) for name, action in actions
            if action.type not in (None, int, float) or action.choices is not None] == []


def test_every_option_has_a_flag_run():
    table = {(command, option) for command, (_, values) in FLAG_RUNS.items()
             for option in values}
    assert sorted(parser_options() - table - set(UNREAD_BY_DESIGN)) == []
    assert sorted((table | set(UNREAD_BY_DESIGN)) - parser_options()) == []


@pytest.mark.parametrize("command", sorted(FLAG_RUNS))
def test_every_option_changes_stdout(monkeypatch, capsys, command):
    # one CPU: every run stays in this process, like the reach test's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def stdout(argv):
        code = main([command] + argv)
        return code, capsys.readouterr().out

    base_argv, values = FLAG_RUNS[command]
    base = stdout(base_argv)
    assert base[0] == 0
    runs = {option: stdout(base_argv + [option, value])
            for option, value in values.items()}
    assert {option: code for option, (code, _) in runs.items() if code} == {}
    assert [option for option, (_, out) in runs.items() if out == base[1]] == []


# Hostile values, tried in every option: a pool size too
# large for a float or for numpy, a float that overflows, text that is no
# number in one or another reader, and U+0663, an Arabic-Indic digit three,
# which int() and float() read as 3
HOSTILE = ["1" + "0" * 400, str(2**63), "1e400", "nan", "inf", "-0", "", "0x10", "\u0663"]

# Options whose legal values above 10**4 are long runs or large allocations,
# not usage errors, each with its largest legal value: their pools keep
# small and illegal values only.  Their defaults are among those values, so
# each generated argv gives them.
LONG_RUNS = {("simulate", "--n"): 2**53, ("simulate", "--reps"): math.inf,
             ("verify", "--n"): math.inf}
ALWAYS_GIVEN = {"simulate": ["--n"], "verify": ["--n"]}


def long_run(command, option, value) -> bool:
    try:
        return 10**4 < int(value) <= LONG_RUNS.get((command, option), 10**4)
    except ValueError:
        return False


def small_legal_values(command, action) -> list[str]:
    """The option's values in ``FLAG_RUNS``, and a few more of its kind; a
    new text option has none until it is given some here."""
    option = action.option_strings[0]
    base, values = FLAG_RUNS.get(command, ([], {}))
    given = [value for flag, value in zip(base, base[1:]) if flag == option]
    given += [values[option]] if option in values else []
    more = ({"mode": cueworld.MODES, "suite": sorted(verify.SUITES),
             "out": ["-", "out.csv"]}[action.dest] if action.type is None
            else {int: ["1", "2"], float: ["0.5", "1"]}[action.type])
    return [*given, *more]


def option_pools() -> dict[str, dict[str, list[str]]]:
    """For each subcommand, each option but ``--help`` with its pool."""
    pools = {}
    for command, sub in subcommands().items():
        pools[command] = {}
        for action in sub._actions:
            if action.option_strings and action.dest != "help":
                option = action.option_strings[0]
                pools[command][option] = [
                    value for value in HOSTILE + small_legal_values(command, action)
                    if not long_run(command, option, value)]
    return pools


POOLS = option_pools()


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(POOLS)))
    pools = POOLS[command]
    options = [*ALWAYS_GIVEN.get(command, []),
               *draw(st.lists(st.sampled_from(sorted(pools)), max_size=4))]
    return [command, *(arg for option in options
                       for arg in (option, draw(st.sampled_from(pools[option]))))]


# a few seconds; most examples are usage errors, which cost no draw
@settings(derandomize=True, deadline=None, max_examples=500)
@given(argvs())
def test_no_argv_ends_in_a_traceback(argv):
    # in a directory of its own, as --out may name any file
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            result = counted_main(argv)
        finally:
            os.chdir(cwd)
    code, _, _, lines, _ = result
    assert [line for line in lines if "Traceback" in line] == []
    if code == 2:
        assert_usage_error(result)
    else:  # verify alone exits 1, when a check fails
        assert code == 0 or (code == 1 and argv[0] == "verify")
