import os

import pytest

from dualsig import bregman, verify
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
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pooled = run(suite, n=500, seed=3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = run(suite, n=500, seed=3)
    assert pooled == serial


@pytest.mark.parametrize("suite", ["gap", "lemma"])
def test_small_n_is_rejected_before_any_work(monkeypatch, capsys, suite):
    def forbidden(*args, **kwargs):
        raise AssertionError("suite ran before n was checked")

    monkeypatch.setattr(bregman, "gap_check_discrete", forbidden)
    monkeypatch.setattr(bregman, "conditional_mean_optimality", forbidden)
    with pytest.raises(ValidationError, match="n must be >= 2"):
        run(suite, n=1)
    assert main(["verify", "--suite", suite, "--n", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_voi_suite_draws_nothing_so_needs_no_minimum_n():
    checks = run("voi", n=1)
    assert checks and all(c.ok for c in checks)


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError, match="unknown suite"):
        run("nonsense")


@pytest.mark.parametrize("name", ["tau0", "tau_h", "sigma_mult"])
@pytest.mark.parametrize("value", [None, "one"])
def test_parameters_must_be_real_numbers(monkeypatch, name, value):
    # these raised a bare TypeError from math.isfinite
    def forbidden(*args, **kwargs):
        raise AssertionError("suite ran before its parameters were checked")

    monkeypatch.setattr(bregman, "gap_check_discrete", forbidden)
    with pytest.raises(ValidationError, match=f"{name} must be a real number"):
        run("gap", **{name: value})
