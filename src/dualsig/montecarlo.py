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
conditional moments of ``verify --suite lemma``, goes through it.  A chunk
is updated in place, with the IEEE operations of the plain expressions in
their order, so in-place and plain code give the same bits.

:func:`verify_closed_forms` reads the closed forms of its grid from the phase
grid of :func:`dualsig.regimes.phase_sweep` before any draw, then runs each
cell's Monte Carlo through :func:`parallel_map` on ``W = min(cells, usable
CPUs)`` worker processes made by ``os.fork``, with no process-pool module;
worker ``k`` runs every ``W``-th cell from the ``k``-th on, a split fixed
before the fork.  Each cell draws from its own substream ``rng.split(cell)``
and the results come back in input order, so the output bytes do not
depend on the worker count; one usable CPU (for example under ``taskset -c
0``) gives the serial loop.  A command's peak RSS as reported by ``wait4``
covers the workers, because it is the maximum over the process and its
waited-for descendants.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import regimes
from .core import (
    SignalSpec,
    bayes_posterior_mean,
    cn_posterior_mean,
    count,
    innovation_precision,
    real_scalar,
    typed,
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


def sample_triple(tau0: float, spec: SignalSpec, rng: RngHandle, size: int):
    """Draw ``size`` triples (y, h, a) from the joint model, as three float64
    arrays of length ``size``.

    The state and own-signal noise are independent normals; the assistant
    signal composes the overlap share of ``h`` with an independent
    innovation: ``a = lam*h + (1-lam)*(y + innovation noise)``.  It runs on
    every chunk, so ``tau0`` and ``rng`` are not checked here: :func:`accumulate`
    reads them once per estimate.
    """
    tilde = innovation_precision(spec)
    n = count(size, "size", 1)
    y = rng.normals(n)
    y /= math.sqrt(tau0)
    h = rng.normals(n)
    h /= math.sqrt(spec.tau_h)
    h += y
    a = rng.normals(n)
    a /= math.sqrt(tilde)
    a += y
    a *= 1.0 - spec.lam
    a += spec.lam * h
    return y, h, a


def accumulate(tau0: float, spec: SignalSpec, n: int, rng: RngHandle,
               stats: Mapping[str, Callable]) -> dict[str, Estimate]:
    """Monte Carlo means of several statistics on one shared set of draws.

    Streams ``n`` triples from :func:`sample_triple` in chunks of ``CHUNK``;
    each ``stats[name](y, h, a)`` maps a chunk to per-draw values.  Per-chunk
    sums of the values and of their squares are reduced by a fixed pairwise
    tree.  ``tau0`` must be a finite positive number, ``n`` at least 2, the
    fewest draws with a standard error, and ``rng`` an
    :class:`~dualsig.rng.RngHandle`, all checked before any draw.
    """
    tau0 = real_scalar(tau0, "tau0", positive=True)
    typed(spec, SignalSpec, "spec")
    n = count(n, "n", 2)
    typed(rng, RngHandle, "rng")
    sums = {name: [] for name in stats}
    sums_sq = {name: [] for name in stats}
    done = 0
    while done < n:
        m = min(CHUNK, n - done)
        y, h, a = sample_triple(tau0, spec, rng, size=m)
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


def paired_loss_estimates(tau0: float, spec: SignalSpec, n: int,
                          rng: RngHandle) -> dict[str, Estimate]:
    """All four rule losses evaluated on one shared set of draws.

    Shared draws make ordering comparisons (e.g. Bayes-joint never worse
    than the correlation-neglect joint) far tighter than independent runs.
    """
    tau0 = real_scalar(tau0, "tau0", positive=True)  # the rules below read it per chunk

    def alone(tau, signal, y):
        d = tau * signal  # the posterior mean from this signal alone
        d /= tau0 + tau
        return _squared_error(d, y)

    return accumulate(tau0, spec, n, rng, {
        "human_only": lambda y, h, a: alone(spec.tau_h, h, y),
        "ai_only": lambda y, h, a: alone(spec.tau_a, a, y),
        "bayes_joint": lambda y, h, a: _squared_error(bayes_posterior_mean(tau0, spec, h, a), y),
        "cn_joint": lambda y, h, a: _squared_error(cn_posterior_mean(tau0, spec, h, a), y),
    })


def _squared_error(d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``(d - y) ** 2``, computed in the buffer of ``d``, which it overwrites."""
    d -= y
    d *= d
    return d


def parallel_map(tasks: Iterable[Sequence], local: int = 0) -> list:
    """``[fn(*args) for fn, *args in tasks]``, spread over forked processes.

    The first ``local`` tasks run in this process, one after another, while
    ``W = min(len(tasks) - local, usable CPUs)`` workers made by ``os.fork``
    run the others, the CPUs being those of this process's affinity mask.
    Worker ``k`` runs ``tasks[local + k :: W]`` from its forked copy of
    the list, a split that suits tasks of equal cost such as ``verify``'s,
    then sends its pickled results, or the exception a task raised, over a
    pipe of its own and exits.  A task kept local costs no pickling, and
    its calls stay visible to anything that patches this process's module
    attributes, such as an in-process tracer.  With one usable CPU, with
    too few tasks to use two processes, or without ``os.fork``, the plain
    loop runs in this process.  Results keep the order of ``tasks``.  An
    exception raised by a task, here or in a worker, is raised here as
    itself once every worker has ended; the rest of that worker's share
    never starts, but the other shares run to their end.  A worker that
    exits without its results raises :class:`RuntimeError` naming it.  No
    worker outlives the call.  Forking is safe only from a process that
    has not started threads.
    """
    tasks, local = list(tasks), count(local, "local", 0)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(tasks) - local, cpus)
    if cpus < 2 or workers + (local > 0) < 2 or not hasattr(os, "fork"):
        return [fn(*args) for fn, *args in tasks]
    # worker pid -> the read end of its result pipe, in the order of the workers
    outputs = {}
    try:
        for k in range(workers):
            out, out_w = os.pipe()
            if (pid := os.fork()) == 0:
                try:  # the worker, which exits here and never returns
                    try:
                        sent = [fn(*args) for fn, *args in tasks[local + k::workers]], None
                    except BaseException as exc:  # sent on, raised by the caller
                        sent = None, exc
                    with os.fdopen(out_w, "wb") as pipe:
                        pickle.dump(sent, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(out_w)
            outputs[pid] = out
        results = [fn(*args) for fn, *args in tasks[:local]] + [None] * (len(tasks) - local)
    finally:
        for pid, out in outputs.items():
            with os.fdopen(out, "rb") as pipe:  # read before waiting: a full pipe blocks
                outputs[pid] = pipe.read(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for k, (pid, (data, code)) in enumerate(outputs.items()):
        if code:
            raise RuntimeError(f"worker process {pid} exited with code {code} "
                               "without sending its results")
        done, error = pickle.loads(data)
        if error is not None:
            raise error
        results[local + k::workers] = done
    return results


def verify_closed_forms(tau0: float, tau_h: float,
                        tau_a_axis: Sequence[float], lambda_axis: Sequence[float],
                        n: int, rng: RngHandle) -> list[tuple]:
    """Monte Carlo and closed-form losses of all four rules on a grid.

    Returns one ``(tau_a, lam, losses)`` per cell of the phase grid that
    :func:`dualsig.regimes.phase_sweep` makes of the two strictly increasing
    axes, in its lambda-major order, with the grid's closed forms.  ``losses``
    is None for a cell that is infeasible or has ``lam = 1``, and otherwise
    ``[(rule, estimate, closed_form), ...]`` in ``RULES`` order; judging the
    difference is left to the caller.  Cell ``i``, counted from 1, uses the
    substream ``rng.split(i)``, whichever worker of :func:`parallel_map` runs
    it.  ``tau0`` must be a finite positive number, ``n`` at least 2, the
    fewest draws with a standard error, and ``rng`` an
    :class:`~dualsig.rng.RngHandle`, all checked before any fork.
    """
    n = count(n, "n", 2)
    typed(rng, RngHandle, "rng")
    # every closed form before the first draw, read from the phase grid's cells
    grid = regimes.phase_sweep(tau0, tau_h, tau_a_axis, lambda_axis).cells.ravel()
    cells = grid[["tau_a", "lam", "feasible", *RULES.values()]].tolist()
    tested = [i for i, (_, lam, ok, *_) in enumerate(cells) if ok and lam < 1.0]
    estimates = parallel_map([(paired_loss_estimates, tau0, SignalSpec(tau_h, *cells[i][:2]), n,
                               rng.split(i + 1)) for i in tested])
    losses = {i: [(rule, est[rule], form) for rule, form in zip(RULES, cells[i][3:])]
              for i, est in zip(tested, estimates)}
    return [(tau_a, lam, losses.get(i)) for i, (tau_a, lam, *_) in enumerate(cells)]
