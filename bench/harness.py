"""Workloads, command execution and output checks of the dualsig benchmark.

Each workload is a fixed list of ``dualsig`` CLI commands.  A pass runs them
one at a time, each as a fresh ``python -m dualsig.cli`` process against the
checkout's ``src/`` (a closed loop with one client).  The workload seed is
passed to the program only as the value of ``--seed``; commands without a
``--seed`` flag read the same inputs for every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

SEED = "{seed}"  # placeholder, allowed only as the value of --seed

# A pass of every workload takes about 3 s, so that a run holds many passes
# and each median many samples: mc_verify draws 1e5 samples per check rather
# than the CLI's default 1e6.  The lemma suite is left out, because its
# conditional-mean optimality search takes about 12 s per process whatever
# --n is.  The voi suite, a 0.4 s process that is mostly interpreter start-up,
# is no workload of its own: it joins the other commands without randomness.
# mc_verify's checks accept 5 standard errors, not the CLI's default 4: over
# its ~270 checks, 4 standard errors fail about one seed in fifty by chance
# alone, and every seed the benchmark is given must pass.
WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    "mc_verify": (
        ("verify", "--suite", "closed_forms", "--n", "100000", "--sigma-mult", "5",
         "--seed", SEED),
        ("verify", "--suite", "gap", "--n", "100000", "--sigma-mult", "5", "--seed", SEED),
    ),
    "overlap_sim": (
        ("simulate", "--n", "100000", "--reps", "40", "--mode", "homogeneous",
         "--seed", SEED),
        ("simulate", "--n", "100000", "--reps", "40", "--mode", "heterogeneous",
         "--seed", SEED),
    ),
    "phase_grid": (
        ("phase",),
        ("phase", "--tauA-steps", "555"),
        ("thresholds", "--lambda-steps", "50001"),
        ("losses", "--tauA", "1.5", "--lambda", "0.3"),
        ("verify", "--suite", "voi"),
    ),
}

COMMAND_TIMEOUT_S = 120.0
MIN_PASSES = 5


def commands(workload: str, seed: int) -> list[list[str]]:
    """CLI argument lists of a workload, with the seed filled in."""
    return [[str(seed) if arg == SEED else arg for arg in template]
            for template in WORKLOADS[workload]]


def program_env() -> dict[str, str]:
    """Environment of every spawned interpreter: the caller's, plus ``src/``.

    Bytecode writing is always on, so that every timed interpreter loads the
    package from ``__pycache__`` as an installed copy would, whatever the
    caller's ``PYTHONDONTWRITEBYTECODE``.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict[str, str]:
    """Seed-0 stdout SHA-256 of every workload command, keyed by its argv."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Run:
    """One execution of one command."""

    argv: list[str]
    returncode: int
    stdout: bytes
    wall_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    stderr: bytes = b""


def spawn(args: list[str]) -> Run:
    """Run ``python <args>`` to exit; time it from spawn to exit.

    ``os.wait4`` returns the rusage of this child, whose ``ru_maxrss`` also
    covers any processes the child started and waited for.
    """
    argv = [sys.executable, *args]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        errs: list[bytes] = []
        reader = threading.Thread(target=lambda: errs.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(argv=args, returncode=proc.returncode, stdout=out, wall_s=wall,
               cpu_s=usage.ru_utime + usage.ru_stime,
               peak_rss_mb=usage.ru_maxrss / 1024.0, stderr=errs[0] if errs else b"")


def run_command(argv: list[str]) -> Run:
    run = spawn(["-m", "dualsig.cli", *argv])
    run.argv = argv
    return run


def setup_time() -> Run:
    """A fresh interpreter that only imports ``dualsig.cli``."""
    return spawn(["-c", "import dualsig.cli"])


def run_pass(workload: str, seed: int) -> list[Run]:
    return [run_command(argv) for argv in commands(workload, seed)]


def failures(passes: list[list[Run]], golden: dict[str, str]) -> list[str]:
    """Why each failed command execution failed; one entry per failed run.

    A run fails if it exits non-zero, if its stdout digest differs from the
    golden digest of its argv (when one is committed), or if its bytes differ
    from those of the first pass.  Every pass must run the same commands.
    """
    out = []
    first = passes[0]
    for i, runs in enumerate(passes):
        for ref, run in zip(first, runs):
            key = " ".join(run.argv)
            want = golden.get(key)
            if run.returncode != 0:
                reason = f"exit {run.returncode}: {run.stderr.decode(errors='replace')[-300:]}"
            elif want is not None and digest(run.stdout) != want:
                reason = f"sha256 {digest(run.stdout)} != golden {want}"
            elif run.stdout != ref.stdout:
                reason = "stdout differs from pass 0"
            else:
                continue
            out.append(f"pass {i}: {key}: {reason}")
    return out


def summary(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4, inclusive, so
    that they stay within the samples) of the samples."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}
