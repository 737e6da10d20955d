"""Bregman losses and the gap identity between realized and optimal use.

For a strictly convex differentiable generator ``phi`` the Bregman loss is

    D(y, d) = phi(y) - phi(d) - <y - d, grad phi(d)>,

nonnegative and zero only at ``y = d``.  Two generators are provided: the
squared norm (loss ``|y - d|**2``) and negative entropy (loss ``KL(y || d)``
in nats; this module deliberately stays in natural-log units, while
:mod:`dualsig.voi` works in bits — the gap identity below is unit-invariant,
but mixing the two silently would corrupt cross-checks).

Under any Bregman loss, the conditional mean is the unique optimal decision,
and for an arbitrary decision rule ``d_hat`` the three-point identity

    E[D(Y, d_hat)] - E[D(Y, d_star)] = E[D(d_star, d_hat)]

turns the realized benefit of consulting the assistant signal into

    (own-signal-only loss) - (realized joint loss)
        = (marginal value of the assistant) - E[D(d_star, d_hat)],

i.e. information gain minus a misuse penalty.  ``gap_check_discrete``
verifies this exactly by enumeration on finite problems;
``gap_check_gaussian_cn`` verifies it for the Gaussian correlation-neglect
rule with a Monte Carlo estimate of the penalty term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import montecarlo
from .core import (
    Environment,
    SignalSpec,
    ValidationError,
    bayes_posterior_mean,
    cn_posterior_mean,
    loss_human,
    loss_joint_cn,
    marginal_value,
)
from ._search import minimize_grid_refine
from .rng import RngHandle
from .voi import DiscreteProblem

__all__ = [
    "BregmanGenerator",
    "GapReport",
    "bregman_loss",
    "gap_check_discrete",
    "gap_check_gaussian_cn",
    "conditional_mean_optimality",
]

GENERATOR_KINDS = ("squared", "negative_entropy")


@dataclass(frozen=True)
class BregmanGenerator:
    """A named strictly convex generator with a fixed dimension."""

    kind: str
    dimension: int

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ValidationError(f"kind must be one of {GENERATOR_KINDS}, got {self.kind!r}")
        if self.dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.dimension}")

    def _domain_check(self, d: np.ndarray) -> None:
        if self.kind == "negative_entropy" and np.any(d <= 0.0):
            raise ValidationError(
                "negative-entropy decisions must have strictly positive entries")

    def phi(self, x: np.ndarray) -> float:
        x = self._vector(x)
        if self.kind == "squared":
            return float(np.dot(x, x))
        if np.any(x < 0.0):
            raise ValidationError("negative-entropy arguments must be nonnegative")
        mask = x > 0.0
        return float(np.sum(x[mask] * np.log(x[mask])))

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = self._vector(x)
        if self.kind == "squared":
            return 2.0 * x
        self._domain_check(x)
        return np.log(x) + 1.0

    def _vector(self, x) -> np.ndarray:
        v = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if v.shape != (self.dimension,):
            raise ValidationError(f"expected a vector of length {self.dimension}, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("vector entries must be finite")
        return v


def bregman_loss(gen: BregmanGenerator, y, d) -> float:
    """``phi(y) - phi(d) - <y - d, grad phi(d)>``; >= 0, zero only at y = d."""
    yv = gen._vector(y)
    dv = gen._vector(d)
    gen._domain_check(dv)
    return gen.phi(yv) - gen.phi(dv) - float(np.dot(yv - dv, gen.grad(dv)))


@dataclass(frozen=True)
class GapReport:
    """The four terms of the gap identity and their residual.

    ``residual = lhs - (marginal - penalty)`` should vanish; for Monte Carlo
    penalties the attainable bound is a few ``penalty_se``.
    """

    lhs: float
    marginal: float
    penalty: float
    residual: float
    penalty_se: float | None = None


DecisionRule = Mapping | Callable


def _encode_states(problem: DiscreteProblem, gen: BregmanGenerator) -> list[np.ndarray]:
    if gen.kind == "negative_entropy":
        if gen.dimension != len(problem.states):
            raise ValidationError(
                f"one-hot encoding needs dimension {len(problem.states)}, "
                f"generator has {gen.dimension}")
        return [np.eye(len(problem.states))[i] for i in range(len(problem.states))]
    encoded = []
    for s in problem.states:
        v = np.atleast_1d(np.asarray(s, dtype=np.float64))
        if v.shape != (gen.dimension,):
            raise ValidationError(
                f"state {s!r} does not encode to dimension {gen.dimension}")
        encoded.append(v)
    return encoded


def _rule_lookup(delta_hat: DecisionRule, h, a, gen: BregmanGenerator) -> np.ndarray:
    if callable(delta_hat):
        value = delta_hat(h, a)
    else:
        try:
            value = delta_hat[(h, a)]
        except KeyError as exc:
            raise ValidationError(
                f"decision rule table has no entry for signal pair ({h!r}, {a!r})") from exc
    return gen._vector(value)


def gap_check_discrete(problem: DiscreteProblem, delta_hat: DecisionRule,
                       gen: BregmanGenerator) -> GapReport:
    """Evaluate every gap-identity term exactly on a finite problem.

    ``delta_hat`` maps each signal pair to a decision, as a mapping keyed by
    ``(h, a)`` or a callable; it must cover every pair with positive
    probability.  States are one-hot encoded for the negative-entropy
    generator and used as numeric vectors for the squared one.
    """
    if len(problem.signal_names) != 2:
        raise ValidationError(f"need exactly two signals, got {problem.signal_names}")
    enc = _encode_states(problem, gen)
    probs = problem.probs
    n_states = len(problem.states)
    flat = probs.reshape(n_states, len(problem.alphabets[0]), len(problem.alphabets[1]))

    # Conditional means given h alone and given the pair.
    p_h = flat.sum(axis=(0, 2))
    mean_h = {}
    for i_h, h in enumerate(problem.alphabets[0]):
        if p_h[i_h] > 0.0:
            cond = flat[:, i_h, :].sum(axis=1) / p_h[i_h]
            mean_h[i_h] = sum(c * e for c, e in zip(cond, enc))

    l_human_term = 0.0
    l_hat = 0.0
    l_star = 0.0
    penalty = 0.0
    for i_h, h in enumerate(problem.alphabets[0]):
        for i_a, a in enumerate(problem.alphabets[1]):
            col = flat[:, i_h, i_a]
            p_ha = float(col.sum())
            if p_ha == 0.0:
                continue
            cond = col / p_ha
            d_star = sum(c * e for c, e in zip(cond, enc))
            d_hat = _rule_lookup(delta_hat, h, a, gen)
            d_h = mean_h[i_h]
            for c, e in zip(cond, enc):
                if c > 0.0:
                    l_human_term += p_ha * c * bregman_loss(gen, e, d_h)
                    l_hat += p_ha * c * bregman_loss(gen, e, d_hat)
                    l_star += p_ha * c * bregman_loss(gen, e, d_star)
            penalty += p_ha * bregman_loss(gen, d_star, d_hat)
    lhs = l_human_term - l_hat
    marginal = l_human_term - l_star
    return GapReport(lhs=lhs, marginal=marginal, penalty=penalty,
                     residual=lhs - (marginal - penalty))


def gap_check_gaussian_cn(env: Environment, spec: SignalSpec, n: int,
                          seed: int = 0) -> GapReport:
    """Gap identity for the Gaussian model with the correlation-neglect rule.

    The left side and the marginal value come from closed forms; the misuse
    penalty ``E[(d_star - d_cn)**2]`` is estimated from ``n`` simulated
    triples (stream 3 of the seed), so ``|residual|`` should fall within a
    few reported ``penalty_se``.
    """
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    lhs = loss_human(env, spec) - loss_joint_cn(env, spec)
    marg = marginal_value(env, spec)

    def misuse(y, h, a):
        return (bayes_posterior_mean(env, spec, h, a) - cn_posterior_mean(env, spec, h, a)) ** 2

    est = montecarlo.accumulate(env, spec, n, RngHandle(seed, stream=3),
                                {"penalty": misuse})["penalty"]
    return GapReport(lhs=lhs, marginal=marg, penalty=est.mean,
                     residual=lhs - (marg - est.mean), penalty_se=est.std_error)


def conditional_mean_optimality(problem: DiscreteProblem, gen: BregmanGenerator) -> float:
    """Largest advantage of any searched decision over the conditional mean.

    For every realization of the full signal tuple, a grid scan plus ternary
    refinement looks for a decision with lower conditional expected Bregman
    loss than the conditional mean.  Returns the largest reduction found, or
    0.0 when the conditional mean is never beaten; it should vanish up to
    rounding.  Supported searches: scalar decisions for the squared
    generator, binary distributions for negative entropy.
    """
    enc = _encode_states(problem, gen)
    if gen.kind == "squared" and gen.dimension != 1:
        raise ValidationError("optimality search supports scalar squared losses only")
    if gen.kind == "negative_entropy" and gen.dimension != 2:
        raise ValidationError("optimality search supports binary negative entropy only")
    flat = problem.probs.reshape(len(problem.states), -1)
    max_advantage = 0.0
    for j in range(flat.shape[1]):
        col = flat[:, j]
        p = float(col.sum())
        if p == 0.0:
            continue
        cond = col / p
        d_star = sum(c * e for c, e in zip(cond, enc))

        def expected(decision: np.ndarray) -> float:
            return sum(c * bregman_loss(gen, e, decision)
                       for c, e in zip(cond, enc) if c > 0.0)

        if gen.kind == "squared":
            values = [float(e[0]) for e in enc]
            lo, hi = min(values) - 1.0, max(values) + 1.0
            _, best = minimize_grid_refine(lambda t: expected(np.array([t])), lo, hi)
        else:
            _, best = minimize_grid_refine(
                lambda t: expected(np.array([t, 1.0 - t])), 1e-12, 1.0 - 1e-12)
        max_advantage = max(max_advantage, expected(d_star) - best)
    return max_advantage
