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

``import dualsig.cli`` loads the standard library only, so ``--help`` and
every parser error cost no numpy.  Each command imports what it runs once
the arguments are parsed: ``losses``, ``thresholds`` and ``phase`` load
``core`` and ``regimes``; ``simulate`` loads ``cueworld``, with ``core``
and ``rng``; ``verify`` loads ``verify`` and the modules its suites run.
The parser only parses; the library is the one check on every value,
``--seed``, ``--mode`` and ``--suite`` included: a bad one raises its
``ValidationError`` (an unknown name lists the valid names) before any work
starts.  An ``--out`` file is opened for writing before the command runs, so
a path that cannot be written fails first; the CSV is written to it at the
end, and a file the run created is removed again if the run fails.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error,
including an ``--out`` path that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import sys
from typing import Iterable, Sequence

__all__ = ["main", "build_parser"]


def _unwritable(path: str, exc: OSError):
    from .core import ValidationError
    return ValidationError(f"cannot write --out {path}: {exc.strerror or exc}")


@contextlib.contextmanager
def _claimed(path: str):
    """Open ``path`` for writing, creating it if need be, before the command
    runs; if the command then raises, remove the file again if this created
    it.  Nothing is written or truncated here, and ``-`` is stdout."""
    if path == "-":
        yield
        return
    created = not os.path.lexists(path)
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    try:
        yield
    except BaseException:
        if created:
            os.remove(path)
        raise


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    import numpy as np

    def fmt(value) -> str:
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

    text = ",".join(header) + "\n"
    text += "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(path, exc) from exc


# a million CSV rows: thresholds then writes about 70 MB, peaking near 510 MB
_MAX_STEPS = 1_000_000


def _linspace(lo: float, hi: float, steps: int, name: str) -> list[float]:
    import numpy as np

    from . import core
    steps = core.count(steps, name + " steps", 1)
    if steps > _MAX_STEPS:  # before the axis is allocated
        raise core.ValidationError(f"{name} steps must be <= {_MAX_STEPS}, got {steps}")
    lo, hi = core.real_scalar(lo, name + " min"), core.real_scalar(hi, name + " max")
    core.require(steps == 1 or hi > lo,
                 name + " range must satisfy min < max, got [{}, {}]", lo, hi)
    # np.linspace steps by hi - lo, which must not overflow
    core.require(math.isfinite(hi - lo), name + " range [{}, {}] is wider than a float", lo, hi)
    return np.linspace(lo, hi, steps).tolist()


def _cmd_losses(args) -> int:
    from . import core, regimes
    env = core.Environment(tau0=args.tau0)
    spec = core.SignalSpec(tau_h=args.tauH, tau_a=args.tauA, lam=args.lam)
    profile = core.loss_profile(env, spec)
    regime = regimes.classify(profile)
    rows = [[args.tau0, args.tauH, args.tauA, args.lam,
             profile.l_human, profile.l_ai, profile.l_joint_cn,
             profile.l_joint_bayes, profile.v_marginal, regime.value]]
    _write_csv(args.out, ["tau0", "tauH", "tauA", "lambda", "L_H", "L_AI",
                          "L_HA_CN", "L_HA_Bayes", "v_marg", "regime"], rows)
    return 0


def _cmd_thresholds(args) -> int:
    import numpy as np

    from . import regimes
    from .core import Environment
    env = Environment(tau0=args.tau0)
    axis = _linspace(args.lambda_min, args.lambda_max, args.lambda_steps, "lambda")
    lam = np.array(args.lam or axis)  # --lambda replaces the axis, which is still checked
    auto = np.full(lam.shape, np.nan)  # blank at lam = 0: no crossing exists there
    auto[lam > 0.0] = regimes.tau_auto(env, args.tauH, lam[lam > 0.0])
    rows = np.column_stack([lam, regimes.tau_aug(env, args.tauH, lam), auto,
                            np.full(lam.shape, regimes.lambda_bar(env, args.tauH))])
    _write_csv(args.out, ["lambda", "tau_aug", "tau_auto", "lambda_bar"], rows.tolist())
    return 0


def _cmd_phase(args) -> int:
    from . import regimes
    from .core import Environment
    env = Environment(tau0=args.tau0)
    tau_a_axis = _linspace(args.tauA_min, args.tauA_max, args.tauA_steps, "tauA")
    lambda_axis = _linspace(args.lambda_min, args.lambda_max, args.lambda_steps, "lambda")
    grid = regimes.phase_sweep(env, args.tauH, tau_a_axis, lambda_axis)
    _write_csv(args.out, ["lambda", "tauA", "feasible", "L_H", "L_AI",
                          "L_HA_CN", "L_HA_Bayes", "v_marg", "regime"],
               (rec for row in grid.cells for rec in row.tolist()))
    return 0


def _cmd_simulate(args) -> int:
    from . import cueworld
    plan = cueworld.SamplingPlan(a=args.a, m=args.m, k=args.k, h_total=args.h_total)
    sizes = args.n or [100_000]
    summaries = cueworld.concentration_experiment(
        sizes, plan, reps=args.reps, mode=args.mode, seed=args.seed,
        tau_bounds=(args.tau_min, args.tau_max))
    rows = [[n, args.reps, args.mode, s.target, s.mean_abs_error, s.max_abs_error]
            for n, s in zip(sizes, summaries)]
    _write_csv(args.out, ["N", "reps", "mode", "target", "mean_err", "max_err"], rows)
    return 0


def _cmd_verify(args) -> int:
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
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="RNG seed in [0, 2**64) (default 0)")
    prior = argparse.ArgumentParser(add_help=False)
    prior.add_argument("--tau0", type=float, default=1.0, help="prior precision")
    prior.add_argument("--tauH", type=float, default=1.0, help="own-signal precision")

    p = sub.add_parser("losses", parents=[prior, out],
                       help="losses and regime at one parameter point")
    p.add_argument("--tauA", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.set_defaults(func=_cmd_losses)

    p = sub.add_parser("thresholds", parents=[prior, out],
                       help="capability thresholds per overlap level")
    p.add_argument("--lambda", dest="lam", type=float, action="append",
                   help="overlap level (repeatable; replaces the axis below)")
    p.add_argument("--lambda-min", type=float, default=0.0)
    p.add_argument("--lambda-max", type=float, default=1.0)
    p.add_argument("--lambda-steps", type=int, default=101,
                   help="axis points, 1 to 1000000 (default 101)")
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("phase", parents=[prior, out],
                       help="regime phase diagram over (tauA, lambda)")
    p.add_argument("--tauA-min", type=float, default=0.02)
    p.add_argument("--tauA-max", type=float, default=2.2)
    p.add_argument("--tauA-steps", type=int, default=111,
                   help="axis points (default 111); the grid holds at most 1000000 cells")
    p.add_argument("--lambda-min", type=float, default=0.0)
    p.add_argument("--lambda-max", type=float, default=1.0)
    p.add_argument("--lambda-steps", type=int, default=101,
                   help="axis points (default 101); the grid holds at most 1000000 cells")
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("simulate", parents=[seed, out],
                       help="cue-pool overlap concentration experiment")
    p.add_argument("--n", type=int, action="append",
                   help="cue pool size, 1 to 100000000, about 24 bytes of memory a cue "
                        "(repeatable; default 100000)")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--mode", default="homogeneous",
                   help="cue precision model; an unknown one exits 2 with the list")
    p.add_argument("--a", type=float, default=0.3, help="assistant sample fraction")
    p.add_argument("--m", type=float, default=0.5, help="accessible fraction")
    p.add_argument("--k", type=float, default=0.25, help="human-held accessible fraction")
    p.add_argument("--h-total", type=float, default=0.5, help="total human fraction")
    p.add_argument("--tau-min", type=float, default=0.5)
    p.add_argument("--tau-max", type=float, default=2.0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", parents=[prior, seed, out],
                       help="run a verification suite (exit 1 on failure)",
                       description="--tau0 and --tauH set the grid of closed_forms only; "
                                   "every suite checks them.")
    p.add_argument("--suite", required=True,
                   help="suite name; an unknown one exits 2 with the list")
    p.add_argument("--n", type=int, default=1_000_000,
                   help="Monte Carlo draws per check (>= 2 for closed_forms, gap, lemma; "
                        "voi ignores it)")
    p.add_argument("--sigma-mult", type=float, default=4.0,
                   help="standard errors a Monte Carlo check accepts (voi ignores it)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .core import ValidationError
    try:
        with _claimed(args.out):
            return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    code = main()
    # The process exits next, so nothing needs collecting: frozen objects
    # spare the cyclic collector's walk over numpy's at interpreter teardown.
    gc.freeze()
    sys.exit(code)
