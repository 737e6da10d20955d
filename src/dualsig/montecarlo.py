"""Seeded simulation of (state, signals) and loss estimation.

This is the universal numerical oracle for the closed forms in
:mod:`dualsig.core`: it simulates the joint law through the innovation
decomposition and estimates expected squared losses for the four decision
rules.  Everything draws from :class:`dualsig.rng.RngHandle`, so results are
reproducible bit-for-bit for a given ``(seed, stream)``.  The module returns
measurements only, as :class:`Estimate` means with their standard errors;
:class:`dualsig.verify.Check` alone decides whether a measurement passes.

Draw order: each batch of ``size`` triples consumes three consecutive blocks
of normals from the handle (state, own-signal noise, innovation noise).
:func:`accumulate` is the one chunked estimator: it streams fixed chunks of
``CHUNK`` triples, evaluates every named statistic on each chunk, and
combines the per-chunk sums with a pairwise tree, so the result is
independent of any parallel execution plan that preserves chunk indexing,
and memory stays bounded by one chunk whatever the number of draws.  Every
Monte Carlo estimate of the package, losses, misuse penalties and the
conditional moments of ``verify --suite lemma``, goes through it.

:func:`verify_closed_forms` runs its grid cells through :func:`parallel_map`
on ``min(cells, usable CPUs)`` forked worker processes.  Each cell draws
from its own substream ``rng.split(cell)`` and the results come back in
input order, so the output bytes do not depend on the worker count; one
usable CPU (for example under ``taskset -c 0``) gives the serial loop.  A
command's peak RSS as reported by ``wait4`` covers the workers, because it
is the maximum over the process and its waited-for descendants.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import (
    Environment,
    SignalSpec,
    bayes_posterior_mean,
    cn_posterior_mean,
    count,
    feasible,
    innovation_precision,
    loss_profile,
)
from .rng import RngHandle

__all__ = [
    "CHUNK",
    "RULES",
    "Estimate",
    "sample_triple",
    "accumulate",
    "paired_loss_estimates",
    "parallel_map",
    "verify_closed_forms",
]

CHUNK = 1 << 16

# each decision rule and the field of its closed-form loss in a LossProfile
RULES = {
    "human_only": "l_human",
    "ai_only": "l_ai",
    "bayes_joint": "l_joint_bayes",
    "cn_joint": "l_joint_cn",
}


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error (sample std / sqrt(n))."""

    mean: float
    std_error: float


def _pairwise_total(values: Sequence[float]) -> float:
    """Sum a nonempty sequence by a fixed pairwise tree (order-stable reduction)."""
    vals = list(values)
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def sample_triple(env: Environment, spec: SignalSpec, rng: RngHandle, size: int):
    """Draw ``size`` triples (y, h, a) from the joint model, as three float64
    arrays of length ``size``.

    The state and own-signal noise are independent normals; the assistant
    signal composes the overlap share of ``h`` with an independent
    innovation: ``a = lam*h + (1-lam)*(y + innovation noise)``.
    """
    tilde = innovation_precision(spec)
    n = count(size, "size", 1)
    y = rng.normals(n) / math.sqrt(env.tau0)
    h = y + rng.normals(n) / math.sqrt(spec.tau_h)
    a_innov = y + rng.normals(n) / math.sqrt(tilde)
    a = spec.lam * h + (1.0 - spec.lam) * a_innov
    return y, h, a


def accumulate(env: Environment, spec: SignalSpec, n: int, rng: RngHandle,
               stats: Mapping[str, Callable]) -> dict[str, Estimate]:
    """Monte Carlo means of several statistics on one shared set of draws.

    Streams ``n`` triples from :func:`sample_triple` in chunks of ``CHUNK``;
    each ``stats[name](y, h, a)`` maps a chunk to per-draw values.  Per-chunk
    sums of the values and of their squares are reduced by a fixed pairwise
    tree.  ``n`` must be at least 2, the fewest draws with a standard error.
    """
    n = count(n, "n", 2)
    sums = {name: [] for name in stats}
    sums_sq = {name: [] for name in stats}
    done = 0
    while done < n:
        m = min(CHUNK, n - done)
        y, h, a = sample_triple(env, spec, rng, size=m)
        for name, stat in stats.items():
            x = stat(y, h, a)
            sums[name].append(float(np.sum(x)))
            sums_sq[name].append(float(np.sum(x * x)))
        done += m
    out = {}
    for name in stats:
        mean = _pairwise_total(sums[name]) / n
        var = max((_pairwise_total(sums_sq[name]) - n * mean * mean) / (n - 1), 0.0)
        out[name] = Estimate(mean=mean, std_error=math.sqrt(var / n))
    return out


def paired_loss_estimates(env: Environment, spec: SignalSpec, n: int,
                          rng: RngHandle) -> dict[str, Estimate]:
    """All four rule losses evaluated on one shared set of draws.

    Shared draws make ordering comparisons (e.g. Bayes-joint never worse
    than the correlation-neglect joint) far tighter than independent runs.
    """
    def own(y, h, a):
        return (spec.tau_h * h / (env.tau0 + spec.tau_h) - y) ** 2

    def assistant(y, h, a):
        return (spec.tau_a * a / (env.tau0 + spec.tau_a) - y) ** 2

    return accumulate(env, spec, n, rng, {
        "human_only": own,
        "ai_only": assistant,
        "bayes_joint": lambda y, h, a: (bayes_posterior_mean(env, spec, h, a) - y) ** 2,
        "cn_joint": lambda y, h, a: (cn_posterior_mean(env, spec, h, a) - y) ** 2,
    })


def parallel_map(tasks: Iterable[Sequence], local: int = 0) -> list:
    """``[fn(*args) for fn, *args in tasks]``, spread over forked processes.

    The first ``local`` tasks run in this process, one after another, while
    ``min(len(tasks) - local, usable CPUs)`` forked workers run the others,
    the CPUs being those of this process's affinity mask.  A task kept local
    costs no pickling, and its calls stay visible to anything that patches
    this process's module attributes, such as an in-process tracer; a task
    run in a worker grows the worker's memory, not this process's.  With one
    usable CPU, with too few tasks to use two processes, or on a platform
    that cannot fork, the plain loop runs in this process.  Results keep the
    order of ``tasks``.  An exception raised by a task, here or in a worker,
    is raised here as itself, and the tasks not yet started are cancelled.
    A worker task's function and arguments must pickle, so the function is
    module-level.  Forked workers need no fresh import and see the module
    attributes as this process has them, but forking is safe only from a
    process that has not started threads.
    """
    tasks = list(tasks)
    here, rest = tasks[:local], tasks[local:]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(rest), cpus)
    if cpus >= 2 and workers + bool(here) >= 2:
        # imported here, so that importing the package starts no pool machinery
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                futures = [pool.submit(*task) for task in rest]
                return [fn(*args) for fn, *args in here] + [f.result() for f in futures]
            finally:
                pool.shutdown(cancel_futures=True)
    return [fn(*args) for fn, *args in tasks]


def _cell_losses(env: Environment, spec: SignalSpec, n: int,
                 rng: RngHandle) -> list[tuple[str, Estimate, float]]:
    """``(rule, estimate, closed_form)`` of the four rules at one cell."""
    estimates = paired_loss_estimates(env, spec, n, rng)
    profile = loss_profile(env, spec)
    return [(rule, estimates[rule], getattr(profile, field)) for rule, field in RULES.items()]


def verify_closed_forms(env: Environment, tau_h: float,
                        tau_a_grid: Iterable[float], lambda_grid: Iterable[float],
                        n: int, rng: RngHandle) -> list[tuple]:
    """Monte Carlo and closed-form losses of all four rules on a grid.

    Returns one ``(tau_a, lam, losses)`` per cell, in lambda-major order.
    ``losses`` is None for a cell that is infeasible or has ``lam = 1``, and
    otherwise ``[(rule, estimate, closed_form), ...]`` in ``RULES`` order;
    judging the difference is left to the caller.  Cells are numbered from 1
    in lambda-major order, and cell ``i`` uses the substream
    ``rng.split(i)``, so cell results do not depend on grid order or on which
    worker of :func:`parallel_map` runs them.  ``n`` must be at least 2, the
    fewest draws with a standard error.
    """
    cells = [(tau_a, lam, SignalSpec(tau_h=tau_h, tau_a=tau_a, lam=lam)
              if lam < 1.0 and feasible(tau_h, tau_a, lam) else None)
             for lam in lambda_grid for tau_a in tau_a_grid]
    losses = iter(parallel_map([(_cell_losses, env, spec, n, rng.split(cell))
                                for cell, (_, _, spec) in enumerate(cells, 1)
                                if spec is not None]))
    return [(tau_a, lam, None if spec is None else next(losses))
            for tau_a, lam, spec in cells]
