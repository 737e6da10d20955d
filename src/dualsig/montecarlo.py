"""Seeded simulation of (state, signals) and loss estimation.

This is the universal numerical oracle for the closed forms in
:mod:`dualsig.core`: it simulates the joint law through the innovation
decomposition and estimates expected squared losses for the four decision
rules.  Everything draws from :class:`dualsig.rng.RngHandle`, so results are
reproducible bit-for-bit for a given ``(seed, stream)``.

Draw order: each batch of ``size`` triples consumes three consecutive blocks
of normals from the handle (state, own-signal noise, innovation noise).
:func:`accumulate` is the one chunked estimator: it streams fixed chunks of
``CHUNK`` triples, evaluates every named statistic on each chunk, and
combines the per-chunk sums with a pairwise tree, so the result is
independent of any parallel execution plan that preserves chunk indexing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import (
    Environment,
    SignalSpec,
    ValidationError,
    bayes_posterior_mean,
    cn_posterior_mean,
    feasible,
    innovation_precision,
    loss_ai,
    loss_human,
    loss_joint_bayes,
    loss_joint_cn,
)
from .rng import RngHandle

__all__ = [
    "CHUNK",
    "RULES",
    "Estimate",
    "ClosedFormCheck",
    "MomentCheck",
    "sample_triple",
    "accumulate",
    "paired_loss_estimates",
    "verify_closed_forms",
    "verify_decomposition",
]

CHUNK = 1 << 16

RULES = ("human_only", "ai_only", "bayes_joint", "cn_joint")

_CLOSED_FORMS = {
    "human_only": loss_human,
    "ai_only": loss_ai,
    "bayes_joint": loss_joint_bayes,
    "cn_joint": loss_joint_cn,
}


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error (sample std / sqrt(n))."""

    mean: float
    std_error: float
    n: int


@dataclass(frozen=True)
class ClosedFormCheck:
    """One cell/rule comparison of Monte Carlo against a closed form."""

    tau_a: float
    lam: float
    feasible: bool
    rule: str
    mc_mean: float
    mc_se: float
    closed_form: float
    ok: bool


@dataclass(frozen=True)
class MomentCheck:
    """One simulated conditional moment against its model value."""

    name: str
    observed: float
    expected: float
    std_error: float
    ok: bool


def _pairwise_total(values: Sequence[float]) -> float:
    """Sum a sequence by a fixed pairwise tree (order-stable reduction)."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def sample_triple(env: Environment, spec: SignalSpec, rng: RngHandle, size: int | None = None):
    """Draw (y, h, a) from the joint model.

    The state and own-signal noise are independent normals; the assistant
    signal composes the overlap share of ``h`` with an independent
    innovation: ``a = lam*h + (1-lam)*(y + innovation noise)``.  Returns
    scalars when ``size`` is None, else float64 arrays of length ``size``.
    """
    tilde = innovation_precision(spec)
    n = 1 if size is None else int(size)
    if n < 1:
        raise ValidationError(f"size must be >= 1, got {size}")
    y = env.mu0 + rng.normals(n) / math.sqrt(env.tau0)
    h = y + rng.normals(n) / math.sqrt(spec.tau_h)
    a_innov = y + rng.normals(n) / math.sqrt(tilde)
    a = spec.lam * h + (1.0 - spec.lam) * a_innov
    if size is None:
        return float(y[0]), float(h[0]), float(a[0])
    return y, h, a


def accumulate(env: Environment, spec: SignalSpec, n: int, rng: RngHandle,
               stats: Mapping[str, Callable]) -> dict[str, Estimate]:
    """Monte Carlo means of several statistics on one shared set of draws.

    Streams ``n`` triples from :func:`sample_triple` in chunks of ``CHUNK``;
    each ``stats[name](y, h, a)`` maps a chunk to per-draw values.  Per-chunk
    sums of the values and of their squares are reduced by a fixed pairwise
    tree.  The standard error is NaN when ``n == 1``.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
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
        if n > 1:
            var = max((_pairwise_total(sums_sq[name]) - n * mean * mean) / (n - 1), 0.0)
            se = math.sqrt(var / n)
        else:
            se = float("nan")
        out[name] = Estimate(mean=mean, std_error=se, n=n)
    return out


def paired_loss_estimates(env: Environment, spec: SignalSpec, n: int,
                          rng: RngHandle) -> dict[str, Estimate]:
    """All four rule losses evaluated on one shared set of draws.

    Shared draws make ordering comparisons (e.g. Bayes-joint never worse
    than the correlation-neglect joint) far tighter than independent runs.
    """
    def own(y, h, a):
        return ((env.tau0 * env.mu0 + spec.tau_h * h) / (env.tau0 + spec.tau_h) - y) ** 2

    def assistant(y, h, a):
        return ((env.tau0 * env.mu0 + spec.tau_a * a) / (env.tau0 + spec.tau_a) - y) ** 2

    return accumulate(env, spec, n, rng, {
        "human_only": own,
        "ai_only": assistant,
        "bayes_joint": lambda y, h, a: (bayes_posterior_mean(env, spec, h, a) - y) ** 2,
        "cn_joint": lambda y, h, a: (cn_posterior_mean(env, spec, h, a) - y) ** 2,
    })


def verify_closed_forms(env: Environment, tau_h: float,
                        tau_a_grid: Iterable[float], lambda_grid: Iterable[float],
                        n: int, rng: RngHandle,
                        sigma_mult: float = 4.0) -> list[ClosedFormCheck]:
    """Compare all four closed-form losses against Monte Carlo on a grid.

    Infeasible (tau_a, lam) cells are reported with ``feasible=False`` and
    skipped; feasible cells get one check row per rule, passing when
    ``|mc - closed| <= sigma_mult * se``.  Each cell uses the substream
    ``rng.split(cell_index)`` so cell results do not depend on grid order.
    ``n`` must be at least 2, the fewest draws with a standard error.
    """
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    checks: list[ClosedFormCheck] = []
    cell = 0
    for lam in lambda_grid:
        for tau_a in tau_a_grid:
            cell += 1
            if lam >= 1.0 or not feasible(tau_h, tau_a, lam):
                checks.append(ClosedFormCheck(
                    tau_a=tau_a, lam=lam, feasible=False, rule="",
                    mc_mean=float("nan"), mc_se=float("nan"),
                    closed_form=float("nan"), ok=True))
                continue
            spec = SignalSpec(tau_h=tau_h, tau_a=tau_a, lam=lam)
            estimates = paired_loss_estimates(env, spec, n, rng.split(cell))
            for rule in RULES:
                est = estimates[rule]
                cf = _CLOSED_FORMS[rule](env, spec)
                ok = abs(est.mean - cf) <= sigma_mult * est.std_error
                checks.append(ClosedFormCheck(
                    tau_a=tau_a, lam=lam, feasible=True, rule=rule,
                    mc_mean=est.mean, mc_se=est.std_error,
                    closed_form=cf, ok=ok))
    return checks


def verify_decomposition(env: Environment, spec: SignalSpec, n: int,
                         rng: RngHandle, sigma_mult: float = 4.0) -> list[MomentCheck]:
    """Check the simulated conditional moments of (h, a) given y.

    Verifies Var(h|y) = 1/tau_h, Var(a|y) = 1/tau_a, Cov(h,a|y) = lam/tau_h,
    and that the reconstructed innovation is uncorrelated with ``h`` given
    ``y``, all within ``sigma_mult`` standard errors.
    """
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    y, h, a = sample_triple(env, spec, rng, size=n)
    eh = h - y
    ea = a - y
    checks = []
    for name, values, expected in (
        ("var_h_given_y", eh * eh, 1.0 / spec.tau_h),
        ("var_a_given_y", ea * ea, 1.0 / spec.tau_a),
        ("cov_ha_given_y", eh * ea, spec.lam / spec.tau_h),
    ):
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1)) / math.sqrt(n)
        checks.append(MomentCheck(name=name, observed=mean, expected=expected,
                                  std_error=se, ok=abs(mean - expected) <= sigma_mult * se))
    # Innovation noise is orthogonal to own-signal noise given y, so their
    # sample correlation should vanish at the 1/sqrt(n) scale.
    e_innov = (ea - spec.lam * eh) / (1.0 - spec.lam)
    corr = float(np.corrcoef(eh, e_innov)[0, 1])
    se = 1.0 / math.sqrt(n)
    checks.append(MomentCheck(name="corr_innovation_h_given_y", observed=corr,
                              expected=0.0, std_error=se,
                              ok=abs(corr) <= sigma_mult * se))
    return checks
