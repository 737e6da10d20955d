"""Command-line front end emitting reproducible CSV artifacts.

Subcommands
-----------
losses      one row of the four losses + regime for a single parameter point
thresholds  augmentation/automation thresholds per overlap level
phase       full (tau_a, lam) sweep: losses, feasibility, regime per cell
simulate    cue-pool overlap concentration experiments
verify      numerical verification suites (exit 1 on any failed check)

All output is CSV (UTF-8, LF newlines, header row, 12 significant digits,
"." decimal separator); rerunning a subcommand with identical flags and seed
writes byte-identical files.  ``losses``/``thresholds``/``phase`` are pure
closed forms; ``simulate`` consumes only integer-derived uniforms; only
``verify`` draws normal deviates.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from . import bregman, cueworld, montecarlo, regimes, voi
from .core import Environment, SignalSpec, ValidationError
from .rng import RngHandle, derive_seed

__all__ = ["main", "build_parser"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if math.isnan(x):
        return ""
    return f"{x:.12g}"


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    text = ",".join(header) + "\n"
    text += "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _linspace(lo: float, hi: float, steps: int, name: str) -> list[float]:
    if steps < 1:
        raise ValidationError(f"{name} steps must be >= 1, got {steps}")
    if steps == 1:
        return [lo]
    if not hi > lo:
        raise ValidationError(f"{name} range must satisfy min < max, got [{lo}, {hi}]")
    return [float(v) for v in np.linspace(lo, hi, steps)]


def _profile_row(env: Environment, tau_h: float, tau_a: float, lam: float):
    spec = SignalSpec(tau_h=tau_h, tau_a=tau_a, lam=lam)
    profile = regimes._cell_profile(env, spec)
    regime = regimes.classify(env, spec)
    return profile, regime


def cmd_losses(args) -> int:
    env = Environment(mu0=args.mu0, tau0=args.tau0)
    profile, regime = _profile_row(env, args.tauH, args.tauA, args.lam)
    rows = [[args.tau0, args.tauH, args.tauA, args.lam,
             profile.l_human, profile.l_ai, profile.l_joint_cn,
             profile.l_joint_bayes, profile.v_marginal, regime.value]]
    _write_csv(args.out, ["tau0", "tauH", "tauA", "lambda", "L_H", "L_AI",
                          "L_HA_CN", "L_HA_Bayes", "v_marg", "regime"], rows)
    return 0


def cmd_thresholds(args) -> int:
    env = Environment(mu0=0.0, tau0=args.tau0)
    lambdas = args.lam if args.lam else _linspace(
        args.lambda_min, args.lambda_max, args.lambda_steps, "lambda")
    rows = []
    for lam in lambdas:
        aug = regimes.tau_aug(env, args.tauH, lam)
        auto = regimes.tau_auto(env, args.tauH, lam) if lam > 0.0 else None
        rows.append([lam, aug, auto, regimes.lambda_bar(env, args.tauH)])
    _write_csv(args.out, ["lambda", "tau_aug", "tau_auto", "lambda_bar"], rows)
    return 0


def cmd_phase(args) -> int:
    env = Environment(mu0=0.0, tau0=args.tau0)
    tau_a_axis = _linspace(args.tauA_min, args.tauA_max, args.tauA_steps, "tauA")
    lambda_axis = _linspace(args.lambda_min, args.lambda_max, args.lambda_steps, "lambda")
    grid = regimes.phase_sweep(env, args.tauH, tau_a_axis, lambda_axis)
    rows = []
    for row in grid.cells:
        for cell in row:
            if cell.feasible:
                p = cell.profile
                rows.append([cell.lam, cell.tau_a, True, p.l_human, p.l_ai,
                             p.l_joint_cn, p.l_joint_bayes, p.v_marginal,
                             cell.regime.value])
            else:
                rows.append([cell.lam, cell.tau_a, False,
                             None, None, None, None, None, None])
    _write_csv(args.out, ["lambda", "tauA", "feasible", "L_H", "L_AI",
                          "L_HA_CN", "L_HA_Bayes", "v_marg", "regime"], rows)
    return 0


def cmd_simulate(args) -> int:
    plan = cueworld.SamplingPlan(a=args.a, m=args.m, k=args.k, h_total=args.h_total)
    summaries = cueworld.concentration_experiment(
        args.n, plan, reps=args.reps, mode=args.mode, seed=args.seed,
        tau=args.tau, tau_bounds=(args.tau_min, args.tau_max))
    rows = [[s.n_cues, s.reps, s.mode, s.target, s.mean_abs_error, s.max_abs_error]
            for s in summaries]
    _write_csv(args.out, ["N", "reps", "mode", "target", "mean_err", "max_err"], rows)
    return 0


# --- verify suites -----------------------------------------------------------

def _check_row(suite: str, check: str, observed: float, expected: float,
               tol: float) -> tuple[list, bool]:
    delta = abs(observed - expected)
    ok = delta <= tol
    return [suite, check, observed, expected, delta, tol, ok], ok


def _suite_closed_forms(args) -> tuple[list, bool]:
    env = Environment(mu0=0.0, tau0=args.tau0)
    tau_a_grid = [round(0.2 * i, 10) for i in range(1, 11)]
    lambda_grid = [0.0, 0.25, 0.45, 0.5, 0.67, 0.75, 0.85]
    checks = montecarlo.verify_closed_forms(
        env, args.tauH, tau_a_grid, lambda_grid, args.n,
        RngHandle(args.seed, stream=0), sigma_mult=args.sigma_mult)
    rows, all_ok = [], True
    for c in checks:
        if not c.feasible:
            rows.append(["closed_forms", f"skip[tauA={c.tau_a:g},lam={c.lam:g}]",
                         None, None, None, None, True])
            continue
        row, ok = _check_row(
            "closed_forms", f"loss[{c.rule}][tauA={c.tau_a:g},lam={c.lam:g}]",
            c.mc_mean, c.closed_form, args.sigma_mult * c.mc_se)
        rows.append(row)
        all_ok &= ok
    return rows, all_ok


def _random_discrete_problem(rng: RngHandle, numeric_states: bool):
    """Small random joint over 2 states x 2x2 or 2x3 signal alphabets."""
    n_h = 2 + (rng.uniforms(1)[0] > 0.5)
    shape = (2, int(n_h), 2)
    raw = rng.uniforms(int(np.prod(shape))).reshape(shape)
    probs = raw / raw.sum()
    states = (0.0, 1.0) if numeric_states else (0, 1)
    return voi.DiscreteProblem(
        states=states, signal_names=("h", "a"),
        alphabets=(tuple(range(shape[1])), (0, 1)),
        probs=probs, loss=voi.TableLoss(decisions=(0, 1), loss=lambda y, d: float(y != d)))


def _random_rule(problem, gen, rng: RngHandle):
    rule = {}
    for h in problem.alphabets[0]:
        for a in problem.alphabets[1]:
            u = rng.uniforms(gen.dimension)
            if gen.kind == "squared":
                rule[(h, a)] = 2.0 * u - 0.5
            else:
                rule[(h, a)] = u / u.sum()
    return rule


def _suite_gap(args) -> tuple[list, bool]:
    rows, all_ok = [], True
    rng = RngHandle(args.seed, stream=10)
    for kind, dim in (("squared", 1), ("negative_entropy", 2)):
        gen = bregman.BregmanGenerator(kind=kind, dimension=dim)
        worst = 0.0
        for i in range(100):
            problem = _random_discrete_problem(rng.split(i), numeric_states=(kind == "squared"))
            rule = _random_rule(problem, gen, rng.split(1000 + i))
            report = bregman.gap_check_discrete(problem, rule, gen)
            worst = max(worst, abs(report.residual))
        row, ok = _check_row("gap", f"discrete_residual[{kind}]", worst, 0.0, 1e-12)
        rows.append(row)
        all_ok &= ok

    env = Environment(mu0=0.0, tau0=1.0)
    spec = SignalSpec(tau_h=1.0, tau_a=1.0, lam=0.5)
    report = bregman.gap_check_gaussian_cn(env, spec, args.n, seed=args.seed)
    row, ok = _check_row("gap", "gaussian_penalty[1,1,1,0.5]", report.penalty,
                         1.0 / 63.0, args.sigma_mult * report.penalty_se)
    rows.append(row)
    all_ok &= ok
    specs = _random_feasible_specs(derive_seed(args.seed, 7), 20)
    for i, (env_i, spec_i) in enumerate(specs):
        report = bregman.gap_check_gaussian_cn(env_i, spec_i, args.n,
                                               seed=derive_seed(args.seed, 8, i))
        row, ok = _check_row("gap", f"gaussian_residual[{i}]", report.residual,
                             0.0, args.sigma_mult * report.penalty_se)
        rows.append(row)
        all_ok &= ok
    return rows, all_ok


def _random_feasible_specs(seed: int, count: int):
    rng = RngHandle(seed, stream=11)
    out = []
    while len(out) < count:
        tau0, tau_h, tau_a, frac = rng.uniforms(4)
        tau0 = 0.2 + 2.0 * tau0
        tau_h = 0.2 + 2.0 * tau_h
        tau_a = 0.1 + 2.0 * tau_a
        lam = (0.05 + 0.85 * frac) * min(tau_h / tau_a, 1.0)
        out.append((Environment(mu0=0.0, tau0=tau0),
                    SignalSpec(tau_h=tau_h, tau_a=tau_a, lam=lam)))
    return out


def _mutual_information_bits(problem, signals) -> float:
    """I(state; signals) from entropies (oracle independent of risk path)."""
    axes = problem.signal_axes(signals)
    drop = tuple(ax for ax in range(1, problem.probs.ndim) if ax not in axes)
    marg = problem.probs.sum(axis=drop) if drop else problem.probs
    flat = marg.reshape(len(problem.states), -1)
    p_y = flat.sum(axis=1)
    p_s = flat.sum(axis=0)
    total = 0.0
    for i in range(flat.shape[0]):
        for j in range(flat.shape[1]):
            p = flat[i, j]
            if p > 0.0:
                total += p * math.log2(p / (p_y[i] * p_s[j]))
    return total


def _suite_voi(args) -> tuple[list, bool]:
    rows, all_ok = [], True
    for target in (0.0, 0.3, 1.0, 2.0, 10.0):
        problem = voi.ratio_construction(target)
        report = voi.marginal_value_discrete(problem)
        ratio = 0.0 if report.v_a_given_h == 0.0 else report.ratio
        row, ok = _check_row("voi", f"ratio_target[{target:g}]", ratio, target, 1e-9)
        rows.append(row)
        all_ok &= ok
        brute = voi.brute_force_voi(problem)
        brute_ratio = 0.0 if brute.v_a_given_h <= 1e-12 else brute.ratio
        row, ok = _check_row("voi", f"ratio_bruteforce[{target:g}]",
                             brute_ratio, ratio, 1e-9)
        rows.append(row)
        all_ok &= ok

    single, both = voi.posterior_two_tests(0.001, 0.7, 0.01)
    for name, observed, expected in (("clinical_single_positive", single, 0.0655),
                                     ("clinical_both_positive", both, 0.8306)):
        row, ok = _check_row("voi", name, observed, expected, 5e-4)
        rows.append(row)
        all_ok &= ok

    problem = voi.xor_construction(0.1, 0.25)
    for name, signals in (("mi_identity[h]", ("h",)), ("mi_identity[a]", ("a",)),
                          ("mi_identity[h,a]", ("h", "a"))):
        row, ok = _check_row("voi", name, voi.value_of_information(problem, signals),
                             _mutual_information_bits(problem, signals), 1e-12)
        rows.append(row)
        all_ok &= ok

    quad = voi.DiscreteProblem(
        states=(-1.0, 0.5, 2.0), signal_names=("h", "a"),
        alphabets=((0, 1), (0, 1, 2)),
        probs=np.array([[[0.10, 0.05, 0.05], [0.02, 0.08, 0.03]],
                        [[0.06, 0.04, 0.10], [0.07, 0.03, 0.04]],
                        [[0.05, 0.09, 0.02], [0.08, 0.05, 0.04]]]),
        loss=voi.QuadraticLoss())
    prior = quad.probs.sum(axis=(1, 2))
    y = np.array([-1.0, 0.5, 2.0])
    var_y = float(prior @ (y * y) - (prior @ y) ** 2)
    row, ok = _check_row("voi", "variance_reduction_identity",
                         voi.value_of_information(quad, ("h", "a")),
                         var_y - voi.bayes_risk(quad, ("h", "a")), 1e-12)
    rows.append(row)
    all_ok &= ok
    return rows, all_ok


def _suite_lemma(args) -> tuple[list, bool]:
    rows, all_ok = [], True
    env = Environment(mu0=0.0, tau0=1.0)
    for i, spec in enumerate((SignalSpec(1.0, 1.0, 0.5),
                              SignalSpec(2.0, 1.0, 0.5),
                              SignalSpec(1.5, 0.8, 0.3))):
        checks = montecarlo.verify_decomposition(
            env, spec, args.n, RngHandle(derive_seed(args.seed, 20, i), stream=0),
            sigma_mult=args.sigma_mult)
        for c in checks:
            row, ok = _check_row("lemma", f"{c.name}[spec{i}]", c.observed,
                                 c.expected, args.sigma_mult * c.std_error)
            rows.append(row)
            all_ok &= ok

    rng = RngHandle(args.seed, stream=21)
    for kind, dim in (("squared", 1), ("negative_entropy", 2)):
        gen = bregman.BregmanGenerator(kind=kind, dimension=dim)
        worst = 0.0
        for i in range(50):
            problem = _random_discrete_problem(rng.split(i), numeric_states=(kind == "squared"))
            rule = _random_rule(problem, gen, rng.split(500 + i))
            report = bregman.gap_check_discrete(problem, rule, gen)
            # three-point identity residual equals the gap residual up to sign
            worst = max(worst, abs(report.residual))
        row, ok = _check_row("lemma", f"three_point_residual[{kind}]", worst, 0.0, 1e-12)
        rows.append(row)
        all_ok &= ok
        problem = _random_discrete_problem(rng.split(999), numeric_states=(kind == "squared"))
        opt = bregman.conditional_mean_optimality(problem, gen)
        row, ok = _check_row("lemma", f"conditional_mean_optimal[{kind}]",
                             opt.max_advantage, 0.0, opt.tolerance)
        rows.append(row)
        all_ok &= ok

    plan = cueworld.SamplingPlan(a=0.3, m=0.5, k=0.25, h_total=0.5)
    for mode in cueworld.MODES:
        world = cueworld.build_world(200, plan, mode=mode, seed=derive_seed(args.seed, 30))
        ai = cueworld.sample_ai_set(world, plan.a, seed=derive_seed(args.seed, 31))
        row, ok = _check_row(
            "lemma", f"overlap_ratio_vs_covariance[{mode}]",
            cueworld.empirical_lambda(world, world.human_set, ai),
            cueworld.covariance_lambda(world, world.human_set, ai), 1e-13)
        rows.append(row)
        all_ok &= ok
    return rows, all_ok


_SUITES = {
    "closed_forms": _suite_closed_forms,
    "gap": _suite_gap,
    "voi": _suite_voi,
    "lemma": _suite_lemma,
}


def cmd_verify(args) -> int:
    rows, all_ok = _SUITES[args.suite](args)
    _write_csv(args.out, ["suite", "check", "observed", "expected", "delta",
                          "tol", "ok"], rows)
    return 0 if all_ok else 1


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualsig",
        description="Decision losses, regimes, and verification for two-signal "
                    "Gaussian estimation with overlapping information.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    p = sub.add_parser("losses", help="losses and regime at one parameter point")
    p.add_argument("--tau0", type=float, default=1.0)
    p.add_argument("--mu0", type=float, default=0.0)
    p.add_argument("--tauH", type=float, default=1.0)
    p.add_argument("--tauA", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_losses)

    p = sub.add_parser("thresholds", help="capability thresholds per overlap level")
    p.add_argument("--tau0", type=float, default=1.0)
    p.add_argument("--tauH", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, action="append",
                   help="overlap level (repeatable)")
    p.add_argument("--lambda-min", type=float, default=0.0)
    p.add_argument("--lambda-max", type=float, default=1.0)
    p.add_argument("--lambda-steps", type=int, default=101)
    common(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("phase", help="regime phase diagram over (tauA, lambda)")
    p.add_argument("--tau0", type=float, default=1.0)
    p.add_argument("--tauH", type=float, default=1.0)
    p.add_argument("--tauA-min", type=float, default=0.02)
    p.add_argument("--tauA-max", type=float, default=2.2)
    p.add_argument("--tauA-steps", type=int, default=111)
    p.add_argument("--lambda-min", type=float, default=0.0)
    p.add_argument("--lambda-max", type=float, default=1.0)
    p.add_argument("--lambda-steps", type=int, default=101)
    common(p)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("simulate", help="cue-pool overlap concentration experiment")
    p.add_argument("--n", type=int, action="append",
                   help="cue pool size (repeatable; default 100000)")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--mode", choices=cueworld.MODES, default="homogeneous")
    p.add_argument("--a", type=float, default=0.3, help="assistant sample fraction")
    p.add_argument("--m", type=float, default=0.5, help="accessible fraction")
    p.add_argument("--k", type=float, default=0.25, help="human-held accessible fraction")
    p.add_argument("--h-total", type=float, default=0.5, help="total human fraction")
    p.add_argument("--tau", type=float, default=1.0, help="homogeneous cue precision")
    p.add_argument("--tau-min", type=float, default=0.5)
    p.add_argument("--tau-max", type=float, default=2.0)
    common(p, seed=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite (exit 1 on failure)")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--n", type=int, default=1_000_000,
                   help="Monte Carlo draws per check (>= 2 for closed_forms, gap, lemma)")
    p.add_argument("--sigma-mult", type=float, default=4.0)
    p.add_argument("--tau0", type=float, default=1.0)
    p.add_argument("--tauH", type=float, default=1.0)
    common(p, seed=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate" and not args.n:
        args.n = [100_000]
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
