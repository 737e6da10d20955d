import os

import numpy as np
import pytest

from dualsig import bregman, verify, voi
from dualsig.cli import main
from dualsig.core import ValidationError


def run(suite, **overrides):
    params = dict(n=2000, seed=0, sigma_mult=4.0, tau0=1.0, tau_h=1.0)
    params.update(overrides)
    return verify.run(suite, **params)


def test_check_derives_delta_and_ok():
    check = verify.Check("x", 1.0, 1.5, 0.5)
    assert check.delta == 0.5 and check.ok
    assert not verify.Check("x", 1.0, 1.6, 0.5).ok
    assert not verify.Check("x", float("nan"), 0.0, 1.0).ok


def test_skip_rows_have_no_observed_value_and_pass():
    checks = run("closed_forms")
    skips = [c for c in checks if c.name.startswith("skip[")]
    assert skips
    assert all(c.observed is None and c.delta is None and c.ok for c in skips)
    assert all(c.ok for c in checks)


def test_zero_sigma_mult_fails_checks_and_the_cli_exits_1(capsys):
    checks = run("closed_forms", n=100, sigma_mult=0.0)
    assert any(not c.ok for c in checks)
    assert all(c.ok for c in checks if c.observed is None)
    assert main(["verify", "--suite", "closed_forms", "--n", "100", "--sigma-mult", "0"]) == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    assert sum(row.endswith(",0") for row in rows) == sum(not c.ok for c in checks)


@pytest.mark.parametrize("suite", ["closed_forms", "gap"])
def test_pool_and_serial_loop_give_equal_checks(monkeypatch, suite):
    # each CPU count splits the tasks into its own strides; the rows never change
    checks = []
    for cpus in (3, 2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)),
                            raising=False)
        checks.append(run(suite, n=500, seed=3))
    assert checks[0] == checks[1] == checks[2]


@pytest.mark.parametrize("suite", ["gap", "lemma"])
def test_small_n_is_rejected_before_any_work(monkeypatch, capsys, suite):
    def forbidden(*args, **kwargs):
        raise AssertionError("suite ran before n was checked")

    monkeypatch.setattr(bregman, "gap_check_discrete", forbidden)
    monkeypatch.setattr(voi, "conditional_mean_optimality", forbidden)
    with pytest.raises(ValidationError, match="n must be >= 2"):
        run(suite, n=1)
    assert main(["verify", "--suite", suite, "--n", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_voi_suite_draws_nothing_so_needs_no_minimum_n():
    checks = run("voi", n=1)
    assert checks and all(c.ok for c in checks)


def test_voi_checks_hold_python_floats_and_bools():
    # the CSV writer formats a numpy scalar by another branch than a Python one
    for check in run("voi"):
        values = (check.observed, check.expected, check.tol, check.delta)
        assert all(type(v) is float for v in values), (check.name, [type(v) for v in values])
        assert type(check.ok) is bool, check.name


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError, match="unknown suite"):
        run("nonsense")


@pytest.mark.parametrize("suite, name, value, message", [
    *(pytest.param("gap", name, value, f"{name} must be a real number", id=f"{vid}-{name}")
      for vid, value in (("None", None), ("one", "one"), ("numeric-str", "1"),
                         ("array", np.array([1.0, 2.0])))
      for name in ("tau0", "tau_h", "sigma_mult")),
    # these raised a bare TypeError
    pytest.param("gap", "n", "5", "n must be an integer, got '5'", id="numeric-str-n"),
    pytest.param("lemma", "n", None, "n must be an integer, got None", id="None-n"),
    pytest.param("closed_forms", "n", 2000.0, "n must be an integer", id="float-n"),
    pytest.param("voi", "n", -1, "n must be >= 0, got -1", id="negative-n-voi"),
    # the voi suite draws nothing, but a seed no handle accepts is still an error
    pytest.param("voi", "seed", 2 ** 64, r"seed must lie in \[0, 2\*\*64\)", id="2**64-seed"),
    pytest.param("voi", "seed", 1.0, "seed must be an integer", id="float-seed"),
    pytest.param("gap", "seed", -1, "seed must be >= 0", id="negative-seed"),
])
def test_parameters_must_be_real_numbers(monkeypatch, suite, name, value, message):
    # the tau0/tau_h/sigma_mult cases raised a bare TypeError from math.isfinite
    def forbidden(*args, **kwargs):
        raise AssertionError("suite ran before its parameters were checked")

    monkeypatch.setitem(verify.SUITES, suite, forbidden)
    with pytest.raises(ValidationError, match=message):
        run(suite, **{name: value})
