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

Stacked convention: :func:`bregman_loss` takes for ``y`` and ``d`` one
vector of the generator's dimension or a stack of them, shape
``(..., dimension)`` (a scalar is one vector of dimension 1), and
broadcasts ``y`` against ``d``.  Each call validates its whole input once:
the trailing dimension, finiteness and the negative-entropy domain, where
one bad row rejects the stack.  One pair gives a float, a stack an array.
Every inner product goes through ``np.vecdot``, which rounds as ``np.dot``
does, so a stacked loss equals the per-vector losses bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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
    native,
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

    def _stack(self, x) -> np.ndarray:
        v = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if v.shape[-1] != self.dimension:
            raise ValidationError(
                f"expected vectors of length {self.dimension}, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValidationError("vector entries must be finite")
        return v

    def _phi(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "squared":
            return np.vecdot(x, x)
        if (x < 0.0).any():
            raise ValidationError("negative-entropy arguments must be nonnegative")
        # 0 log 0 = 0: zero entries take log(1) = 0, never log(0)
        return np.sum(x * np.log(np.where(x > 0.0, x, 1.0)), axis=-1)

    def _grad(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "squared":
            return 2.0 * x
        if not (x > 0.0).all():
            raise ValidationError(
                "negative-entropy decisions must have strictly positive entries")
        return np.log(x) + 1.0


def bregman_loss(gen: BregmanGenerator, y, d):
    """``phi(y) - phi(d) - <y - d, grad phi(d)>``; >= 0, zero only at y = d.

    ``y`` and ``d`` are vectors or broadcasting stacks of them; a float for
    one pair, else an array of the broadcast leading shape.
    """
    yv = gen._stack(y)
    dv = gen._stack(d)
    grad = gen._grad(dv)  # rejects decisions outside the domain
    return native(gen._phi(yv) - gen._phi(dv) - np.vecdot(yv - dv, grad))


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


def _encode_states(problem: DiscreteProblem, gen: BregmanGenerator) -> np.ndarray:
    """One row per state: one-hot for negative entropy, else the state's value."""
    one_hot = gen.kind == "negative_entropy"
    dimension = len(problem.states) if one_hot else 1
    if gen.dimension != dimension:
        raise ValidationError(f"{gen.kind} states need dimension {dimension}, "
                              f"generator has {gen.dimension}")
    return np.eye(dimension) if one_hot else np.array(problem.states)[:, None]


def _mixture(weights: np.ndarray, enc: np.ndarray) -> np.ndarray:
    """``sum(w * e for w, e in zip(weights, enc))`` for each column of the
    ``(states, k)`` weights: ``k`` rows, each summed in state order."""
    out = 0.0
    for w, e in zip(weights, enc):
        out = out + w[:, None] * e
    return out


def _rule_table(delta_hat: Mapping, pairs, gen: BregmanGenerator) -> np.ndarray:
    """The decisions of ``delta_hat`` at ``pairs``, one validated row each."""
    rows = []
    for h, a in pairs:
        try:
            value = delta_hat[(h, a)]
        except KeyError as exc:
            raise ValidationError(
                f"decision rule table has no entry for signal pair ({h!r}, {a!r})") from exc
        v = np.atleast_1d(np.asarray(value, dtype=np.float64))
        if v.shape != (gen.dimension,):
            raise ValidationError(
                f"decision for signal pair ({h!r}, {a!r}) must be a vector of length "
                f"{gen.dimension}, got shape {v.shape}")
        rows.append(v)
    return np.stack(rows)


def gap_check_discrete(problem: DiscreteProblem, delta_hat: Mapping,
                       gen: BregmanGenerator) -> GapReport:
    """Evaluate every gap-identity term exactly on a finite problem.

    ``delta_hat`` maps each signal pair ``(h, a)`` to a decision; it must
    cover every pair with positive probability.  States are one-hot encoded
    for negative entropy and are scalars for the squared generator; the
    problem's own loss is not read.  The losses of all (state, pair) terms
    are four stacked :func:`bregman_loss` calls, summed in
    ``(h, a, state)`` order.
    """
    if len(problem.signal_names) != 2:
        raise ValidationError(f"need exactly two signals, got {problem.signal_names}")
    enc = _encode_states(problem, gen)
    alphabet_h, alphabet_a = problem.alphabets
    n_a = len(alphabet_a)
    flat = problem.probs.reshape(len(problem.states), len(alphabet_h), n_a)

    # Conditional means given h alone, for every h with positive probability.
    p_h = flat.sum(axis=(0, 2))
    live_h = p_h > 0.0
    d_h = np.zeros((len(alphabet_h), gen.dimension))
    d_h[live_h] = _mixture(flat.sum(axis=2)[:, live_h] / p_h[live_h], enc)

    # ... and given the pair, for every pair with positive probability.
    by_pair = flat.reshape(len(problem.states), -1)
    p_pair = by_pair.sum(axis=0)
    live = np.flatnonzero(p_pair > 0.0)
    cond = by_pair[:, live] / p_pair[live]
    d_star = _mixture(cond, enc)
    d_hat = _rule_table(delta_hat, [(alphabet_h[j // n_a], alphabet_a[j % n_a]) for j in live],
                        gen)

    e = enc[:, None, :]
    terms = zip(cond.T.tolist(),
                bregman_loss(gen, e, d_h[live // n_a]).T.tolist(),
                bregman_loss(gen, e, d_hat).T.tolist(),
                bregman_loss(gen, e, d_star).T.tolist())
    penalties = bregman_loss(gen, d_star, d_hat).tolist()
    l_human_term = 0.0
    l_hat = 0.0
    l_star = 0.0
    penalty = 0.0
    for p_ha, (conds, to_h, to_hat, to_star), pen in zip(p_pair[live].tolist(), terms,
                                                         penalties):
        for c, loss_h, loss_hat, loss_star in zip(conds, to_h, to_hat, to_star):
            if c > 0.0:
                l_human_term += p_ha * c * loss_h
                l_hat += p_ha * c * loss_hat
                l_star += p_ha * c * loss_star
        penalty += p_ha * pen
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
        d_star = _mixture(cond[:, None], enc)[0]
        live = cond > 0.0
        weights, states = cond[live, None], enc[live, None, :]

        def expected(decisions: np.ndarray) -> np.ndarray:
            # rows summed in state order: one expected loss per decision
            return (weights * bregman_loss(gen, states, decisions)).sum(axis=0)

        if gen.kind == "squared":
            lo, hi = enc[:, 0].min() - 1.0, enc[:, 0].max() + 1.0
            best = minimize_grid_refine(lambda t: expected(t[:, None]), lo, hi)
        else:
            best = minimize_grid_refine(lambda t: expected(np.stack([t, 1.0 - t], axis=-1)),
                                        1e-12, 1.0 - 1e-12)
        max_advantage = max(max_advantage, float(expected(d_star[None, :])[0]) - best)
    return max_advantage
