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

Only ``core`` and ``regimes`` load with this module, which is all the
closed-form commands need; ``simulate`` imports ``cueworld`` and ``verify``
imports ``verify`` when they run.  The library is the one check on
``--mode`` and ``--suite``: an unknown name raises its ``ValidationError``,
which lists the valid names, before any work starts.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error,
including an ``--out`` path that cannot be written.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from . import core, regimes
from .core import Environment, SignalSpec, ValidationError

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
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer in ``[0, 2**64)``, the seeds of
    :class:`dualsig.rng.RngHandle`."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _linspace(lo: float, hi: float, steps: int, name: str) -> list[float]:
    steps = core.count(steps, name + " steps", 1)
    core.require(steps == 1 or hi > lo,
                 name + " range must satisfy min < max, got [{}, {}]", lo, hi)
    return np.linspace(lo, hi, steps).tolist()


def cmd_losses(args) -> int:
    env = Environment(tau0=args.tau0)
    spec = SignalSpec(tau_h=args.tauH, tau_a=args.tauA, lam=args.lam)
    profile = core.loss_profile(env, spec)
    regime = regimes.classify(profile)
    rows = [[args.tau0, args.tauH, args.tauA, args.lam,
             profile.l_human, profile.l_ai, profile.l_joint_cn,
             profile.l_joint_bayes, profile.v_marginal, regime.value]]
    _write_csv(args.out, ["tau0", "tauH", "tauA", "lambda", "L_H", "L_AI",
                          "L_HA_CN", "L_HA_Bayes", "v_marg", "regime"], rows)
    return 0


def cmd_thresholds(args) -> int:
    env = Environment(tau0=args.tau0)
    lam = np.array(args.lam if args.lam else _linspace(
        args.lambda_min, args.lambda_max, args.lambda_steps, "lambda"))
    auto = np.full(lam.shape, np.nan)  # blank at lam = 0: no crossing exists there
    auto[lam > 0.0] = regimes.tau_auto(env, args.tauH, lam[lam > 0.0])
    rows = np.column_stack([lam, regimes.tau_aug(env, args.tauH, lam), auto,
                            np.full(lam.shape, regimes.lambda_bar(env, args.tauH))])
    _write_csv(args.out, ["lambda", "tau_aug", "tau_auto", "lambda_bar"], rows.tolist())
    return 0


def cmd_phase(args) -> int:
    env = Environment(tau0=args.tau0)
    tau_a_axis = _linspace(args.tauA_min, args.tauA_max, args.tauA_steps, "tauA")
    lambda_axis = _linspace(args.lambda_min, args.lambda_max, args.lambda_steps, "lambda")
    grid = regimes.phase_sweep(env, args.tauH, tau_a_axis, lambda_axis)
    _write_csv(args.out, ["lambda", "tauA", "feasible", "L_H", "L_AI",
                          "L_HA_CN", "L_HA_Bayes", "v_marg", "regime"],
               (rec for row in grid.cells for rec in row.tolist()))
    return 0


def cmd_simulate(args) -> int:
    from . import cueworld
    plan = cueworld.SamplingPlan(a=args.a, m=args.m, k=args.k, h_total=args.h_total)
    summaries = cueworld.concentration_experiment(
        args.n or [100_000], plan, reps=args.reps, mode=args.mode, seed=args.seed,
        tau_bounds=(args.tau_min, args.tau_max))
    rows = [[s.n_cues, args.reps, args.mode, s.target, s.mean_abs_error, s.max_abs_error]
            for s in summaries]
    _write_csv(args.out, ["N", "reps", "mode", "target", "mean_err", "max_err"], rows)
    return 0


def cmd_verify(args) -> int:
    from . import verify
    checks = verify.run(args.suite, n=args.n, seed=args.seed, sigma_mult=args.sigma_mult,
                        tau0=args.tau0, tau_h=args.tauH)
    _write_csv(args.out, ["suite", "check", "observed", "expected", "delta", "tol", "ok"],
               ([args.suite, c.name, c.observed, c.expected, c.delta, c.tol, c.ok]
                for c in checks))
    return 0 if all(c.ok for c in checks) else 1


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
            p.add_argument("--seed", type=_seed, default=0,
                           help="RNG seed in [0, 2**64) (default 0)")

    p = sub.add_parser("losses", help="losses and regime at one parameter point")
    p.add_argument("--tau0", type=float, default=1.0)
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
    p.add_argument("--mode", default="homogeneous",
                   help="cue precision model; an unknown one exits 2 with the list")
    p.add_argument("--a", type=float, default=0.3, help="assistant sample fraction")
    p.add_argument("--m", type=float, default=0.5, help="accessible fraction")
    p.add_argument("--k", type=float, default=0.25, help="human-held accessible fraction")
    p.add_argument("--h-total", type=float, default=0.5, help="total human fraction")
    p.add_argument("--tau-min", type=float, default=0.5)
    p.add_argument("--tau-max", type=float, default=2.0)
    common(p, seed=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite (exit 1 on failure)")
    p.add_argument("--suite", required=True,
                   help="suite name; an unknown one exits 2 with the list")
    p.add_argument("--n", type=int, default=1_000_000,
                   help="Monte Carlo draws per check (>= 2 for closed_forms, gap, lemma; "
                        "voi ignores it)")
    p.add_argument("--sigma-mult", type=float, default=4.0,
                   help="standard errors a Monte Carlo check accepts (voi ignores it)")
    p.add_argument("--tau0", type=float, default=1.0,
                   help="prior precision; read by closed_forms only, validated by all")
    p.add_argument("--tauH", type=float, default=1.0,
                   help="own-signal precision; read by closed_forms only, validated by all")
    common(p, seed=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
