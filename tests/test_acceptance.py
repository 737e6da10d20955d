"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Each
criterion pins its tolerance here; nothing is deferred to later calibration.
"""

import time

import numpy as np

from dualsig.bregman import gap_check_discrete, gap_check_gaussian_cn
from dualsig import verify
from dualsig.cli import main
from dualsig.core import Environment, SignalSpec, loss_profile
from dualsig.cueworld import SamplingPlan, concentration_experiment
from dualsig.regimes import Regime, classify, lambda_bar, phase_sweep, tau_aug, tau_auto
from dualsig.rng import RngHandle
from dualsig.voi import (
    DiscreteProblem,
    LogLoss,
    QuadraticLoss,
    brute_force_voi,
    marginal_value_discrete,
    posterior_two_tests,
    ratio_construction,
)

from helpers import bisect_root

ENV = Environment(tau0=1.0)
TAU_H = 1.0


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nacceptance: {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def cn_loss(tau_a, lam):
    T = 2.0 + tau_a
    return 1.0 / T + 2.0 * lam * tau_a / T ** 2


def test_criterion_1_closed_form_agreement():
    # tau_a in {0.2, ..., 2.0} x lam in {0, 0.25, 0.45, 0.5, 0.67, 0.75, 0.85}
    start = time.perf_counter()
    checks = verify.run("closed_forms", n=1_000_000, seed=0, sigma_mult=4.0,
                        tau0=ENV.tau0, tau_h=TAU_H)
    elapsed = time.perf_counter() - start
    tested = [c for c in checks if c.observed is not None]
    ok = len(tested) == 4 * 58 and all(c.ok for c in tested) and elapsed <= 60.0
    report("closed-form agreement (4 s.e., n=1e6/cell)", ok,
           f"{len(tested)} checks, {elapsed:.1f}s")


def test_criterion_2_regime_boundaries():
    # lam = 0.67: augmentation boundary 0.68, automation boundary from the
    # closed form, cross-checked by bisection on the loss crossings
    aug = tau_aug(ENV, TAU_H, 0.67)
    auto = tau_auto(ENV, TAU_H, 0.67)
    aug_bisect = bisect_root(lambda t: cn_loss(t, 0.67) - 0.5, 1e-9, 5.0)
    auto_bisect = bisect_root(lambda t: 1.0 / (1.0 + t) - cn_loss(t, 0.67), 0.05, 8.0)
    ok = (abs(aug - 0.68) <= 1e-12
          and abs(aug - aug_bisect) <= 1e-6
          and abs(auto - auto_bisect) <= 1e-6
          and abs(auto - 1.1013982299990406) <= 1e-9)

    # lam = 0.45: no impairment region anywhere on the feasible slice
    slice45 = phase_sweep(ENV, TAU_H, np.linspace(0.02, 2.2, 221), [0.45])
    ok &= all(c["regime"] is not Regime.IMPAIRMENT
              for c in slice45.cells[0] if c["feasible"])

    # lam = 0.85: direct transition with the boundary exactly at tau_a = 1
    ok &= classify(loss_profile(ENV, SignalSpec(TAU_H, 1.0, 0.85))) is Regime.IMPAIRMENT
    ok &= classify(loss_profile(ENV, SignalSpec(TAU_H, 1.0 - 1e-9, 0.85))) is Regime.IMPAIRMENT
    ok &= classify(loss_profile(ENV, SignalSpec(TAU_H, 1.0 + 1e-9, 0.85))) is Regime.AUTOMATION
    slice85 = phase_sweep(ENV, TAU_H, np.linspace(0.02, 1.15, 200), [0.85])
    ok &= all(c["regime"] is not Regime.COMPLEMENTARITY
              for c in slice85.cells[0] if c["feasible"])
    report("regime boundaries at lam in {0.67, 0.45, 0.85}", ok,
           f"tau_aug={aug:.12g}, tau_auto={auto:.12g}")


def test_criterion_3_phase_diagram_structure():
    crit = lambda_bar(ENV, TAU_H)
    ok = abs(crit - 0.75) <= 1e-12
    ok &= abs(tau_aug(ENV, TAU_H, 0.75) - 1.0) <= 1e-12
    ok &= abs(tau_auto(ENV, TAU_H, 0.75) - 1.0) <= 1e-12

    grid = phase_sweep(ENV, TAU_H,
                       np.linspace(0.02, 2.2, 111), np.linspace(0.0, 1.0, 101))
    patterns_ok = True
    for row, lam in zip(grid.cells, grid.cells["lam"][:, 0]):
        tags = [c["regime"] for c in row if c["feasible"]]
        collapsed = [t for i, t in enumerate(tags) if i == 0 or tags[i - 1] is not t]
        if lam <= 0.5:
            expected = [Regime.COMPLEMENTARITY, Regime.AUTOMATION]
            expected = expected[:len(collapsed)]  # slice may end before the crossing
        elif lam < crit:
            expected = [Regime.IMPAIRMENT, Regime.COMPLEMENTARITY, Regime.AUTOMATION]
        else:
            expected = [Regime.IMPAIRMENT, Regime.AUTOMATION]
            expected = expected[:len(collapsed)]  # feasibility may cut the slice
        patterns_ok &= collapsed == expected
    ok &= patterns_ok
    report("phase diagram structure (critical overlap 0.75, region adjacency)",
           ok, f"lambda_bar={crit:.12g}")


def test_criterion_4_overlap_concentration():
    plan = SamplingPlan(a=0.3, m=0.5, k=0.25, h_total=0.5)
    start = time.perf_counter()
    hom = concentration_experiment([100_000], plan, reps=100,
                                   mode="homogeneous", seed=0)[0]
    het = concentration_experiment([100_000], plan, reps=100,
                                   mode="heterogeneous", seed=0,
                                   tau_bounds=(0.5, 2.0))[0]
    elapsed = time.perf_counter() - start
    ok = (hom.target == 0.5 and hom.max_abs_error < 0.01
          and het.max_abs_error < 0.015 and elapsed <= 30.0)
    report("overlap concentration (N=1e5, 100 reps)", ok,
           f"hom max err {hom.max_abs_error:.4f}, het max err "
           f"{het.max_abs_error:.4f}, {elapsed:.1f}s")


def test_criterion_5_value_of_information_reproduction():
    single, both = posterior_two_tests(0.001, 0.7, 0.01)
    ok = abs(single - 0.0655) <= 5e-4 and abs(both - 0.8306) <= 5e-4
    for target in (0.0, 0.3, 1.0, 2.0, 10.0):
        problem = ratio_construction(target)
        closed = marginal_value_discrete(problem)
        brute = brute_force_voi(problem)
        closed_ratio = 0.0 if closed.v_a_given_h == 0.0 else closed.ratio
        brute_ratio = 0.0 if brute.v_a_given_h <= 1e-12 else brute.ratio
        ok &= abs(closed_ratio - target) <= 1e-9
        ok &= abs(brute_ratio - closed_ratio) <= 1e-9
    report("posterior example and value-ratio targets {0, 0.3, 1, 2, 10}", ok,
           f"single={single:.4f}, both={both:.4f}")


def _random_problem_and_rule(rng, loss):
    raw = rng.uniforms(8).reshape(2, 2, 2)
    probs = raw / raw.sum()
    numeric = isinstance(loss, QuadraticLoss)
    problem = DiscreteProblem(states=(0, 1), probs=probs, loss=loss)
    rule = np.empty((2, 2, 1 if numeric else 2))
    for h, a in np.ndindex(2, 2):
        u = rng.uniforms(1 if numeric else 2)
        rule[h, a] = 2.0 * u - 0.5 if numeric else u / u.sum()
    return problem, rule


def test_criterion_6_gap_identity():
    worst = 0.0
    for loss in (QuadraticLoss(), LogLoss()):
        rng = RngHandle(60, 0)
        for i in range(100):
            problem, rule = _random_problem_and_rule(rng.split(i), loss)
            worst = max(worst, abs(gap_check_discrete(problem, rule).residual))
    ok = worst <= 1e-12

    ref = gap_check_gaussian_cn(ENV, SignalSpec(1.0, 1.0, 0.5), n=1_000_000,
                                rng=RngHandle(61, stream=3))
    ok &= abs(ref.penalty - 1.0 / 63.0) <= 4.0 * ref.penalty_se

    rng = RngHandle(62, 0)
    worst_sigma = 0.0
    for i in range(20):
        tau_h = 0.3 + 2.2 * rng.uniforms(1)[0]
        tau_a = 0.2 + 2.3 * rng.uniforms(1)[0]
        lam = (0.05 + 0.85 * rng.uniforms(1)[0]) * min(tau_h / tau_a, 1.0)
        rep = gap_check_gaussian_cn(ENV, SignalSpec(tau_h, tau_a, lam),
                                    n=1_000_000, rng=RngHandle(63 + i, stream=3))
        worst_sigma = max(worst_sigma, abs(rep.residual) / rep.penalty_se)
    ok &= worst_sigma <= 4.0
    report("gap identity (discrete 1e-12; Gaussian 4 s.e. incl. 1/63 point)",
           ok, f"max discrete residual {worst:.2e}, max |z| {worst_sigma:.2f}")


def test_criterion_7_marginal_value_monotonicity():
    rng = RngHandle(70, 0)
    margin = 1e-12
    checked = 0
    ok = True
    while checked < 1000:
        tau0 = 0.3 + 2.0 * rng.uniforms(1)[0]
        tau_h = 0.3 + 2.0 * rng.uniforms(1)[0]
        tau_a = 0.2 + 1.8 * rng.uniforms(1)[0]
        lam = (0.05 + 0.8 * rng.uniforms(1)[0]) * min(tau_h / tau_a, 1.0)
        env = Environment(tau0)
        step = 1e-4
        if lam > min(tau_h / (tau_a + step), 1.0) - step:
            continue
        base = loss_profile(env, SignalSpec(tau_h, tau_a, lam)).v_marginal
        up_a = loss_profile(env, SignalSpec(tau_h, tau_a + step, lam)).v_marginal
        up_l = loss_profile(env, SignalSpec(tau_h, tau_a, lam + step)).v_marginal
        up_h = loss_profile(env, SignalSpec(tau_h + step, tau_a, lam)).v_marginal
        ok &= (up_a - base) / step > margin
        ok &= (up_l - base) / step < -margin
        ok &= (up_h - base) / step < -margin
        checked += 1
    report("marginal-value monotone in (tau_a up, lam down, tau_h down)", ok,
           f"{checked} feasible triples")


def test_criterion_8_deterministic_cli_output(tmp_path):
    commands = [
        ["losses", "--tauA", "1", "--lambda", "0.5"],
        ["thresholds", "--lambda", "0.45", "--lambda", "0.67", "--lambda", "0.85"],
        ["phase", "--tauA-steps", "23", "--lambda-steps", "11"],
        ["simulate", "--n", "2000", "--reps", "10", "--mode", "heterogeneous",
         "--seed", "9"],
        ["verify", "--suite", "voi"],
        ["verify", "--suite", "gap", "--n", "20000", "--seed", "1"],
    ]
    ok = True
    for i, args in enumerate(commands):
        first = tmp_path / f"run{i}_a.csv"
        second = tmp_path / f"run{i}_b.csv"
        code_a = main(args + ["--out", str(first)])
        code_b = main(args + ["--out", str(second)])
        ok &= code_a == code_b
        ok &= first.read_bytes() == second.read_bytes()
    report("byte-identical CLI reruns (fixed algorithm, same host)", ok,
           f"{len(commands)} commands x2")
