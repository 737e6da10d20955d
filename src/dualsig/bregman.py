"""Bregman losses and the gap identity between realized and optimal use.

For a strictly convex differentiable generator ``phi`` the Bregman loss is

    D(y, d) = phi(y) - phi(d) - <y - d, grad phi(d)>,

nonnegative and zero only at ``y = d``.  A problem's loss names its
generator: :class:`~dualsig.voi.QuadraticLoss` is the loss of the squared
norm, ``|y - d|**2`` on scalar states, and :class:`~dualsig.voi.LogLoss`
that of negative entropy, ``KL(y || d)`` on one-hot states, which is the log
loss in nats: :mod:`dualsig.voi` reports it in bits, so a log-loss value
here is the one there times ``ln 2``.

Under any Bregman loss, the conditional mean is the unique optimal decision,
and for an arbitrary decision rule ``d_hat`` the three-point identity

    E[D(Y, d_hat)] - E[D(Y, d_star)] = E[D(d_star, d_hat)]

turns the realized benefit of consulting the assistant signal into

    (own-signal-only loss) - (realized joint loss)
        = (marginal value of the assistant) - E[D(d_star, d_hat)],

i.e. information gain minus a misuse penalty.  ``gap_check_discrete``
verifies this exactly by enumeration on finite problems; ``gap_check_gaussian_cn``
verifies it for the Gaussian correlation-neglect rule with a Monte Carlo estimate
of the penalty term, drawn from the caller's :class:`dualsig.rng.RngHandle`.

Stacked convention: :func:`bregman_loss` takes for ``y`` and ``d`` one
vector or a stack of them, shape ``(..., k)`` (a scalar is one vector of
length 1), and broadcasts ``y`` against ``d``.  A loss declares no
dimension: the inputs fix it, and ``y`` and ``d`` must have the same
trailing length ``k``.  Each call validates its whole input once: the
trailing lengths, finiteness and the negative-entropy domain, where one
bad row rejects the stack.  One pair gives a float, a stack an array.
Every inner product goes through ``np.vecdot``, which rounds as ``np.dot``
does, so a stacked loss equals the per-vector losses bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from . import montecarlo
from .core import (
    Environment,
    SignalSpec,
    ValidationError,
    bayes_posterior_mean,
    cn_posterior_mean,
    loss_profile,
    native,
    real,
    typed,
)
from ._search import minimize_grid_refine
from .rng import RngHandle
from .voi import SIGNALS, DiscreteProblem, Loss, QuadraticLoss

__all__ = [
    "GapReport",
    "bregman_loss",
    "gap_check_discrete",
    "gap_check_gaussian_cn",
    "conditional_mean_optimality",
]


def _phi(loss: Loss, x: np.ndarray) -> np.ndarray:
    if isinstance(loss, QuadraticLoss):
        return np.vecdot(x, x)
    if (x < 0.0).any():
        raise ValidationError("negative-entropy arguments must be nonnegative")
    # 0 log 0 = 0: zero entries take log(1) = 0, never log(0)
    return np.sum(x * np.log(np.where(x > 0.0, x, 1.0)), axis=-1)


def _grad(loss: Loss, x: np.ndarray) -> np.ndarray:
    if isinstance(loss, QuadraticLoss):
        return 2.0 * x
    if not (x > 0.0).all():
        raise ValidationError(
            "negative-entropy decisions must have strictly positive entries")
    return np.log(x) + 1.0


def bregman_loss(loss: Loss, y, d):
    """``phi(y) - phi(d) - <y - d, grad phi(d)>`` for the generator of
    ``loss``; >= 0, zero only at y = d.

    ``y`` and ``d`` are vectors or broadcasting stacks of them; a float for
    one pair, else an array of the broadcast leading shape.  ``y`` and
    ``d`` must have the same trailing length.
    """
    typed(loss, Loss, "loss")
    yv, dv = np.atleast_1d(real(y, "y"), real(d, "d"))
    if yv.shape[-1] != dv.shape[-1]:
        raise ValidationError(
            f"y and d must be vectors of one length, got shapes {yv.shape} and {dv.shape}")
    grad = _grad(loss, dv)  # rejects decisions outside the domain
    return native(_phi(loss, yv) - _phi(loss, dv) - np.vecdot(yv - dv, grad))


@dataclass(frozen=True)
class GapReport:
    """The three terms of the gap identity and their residual.

    ``residual = lhs - (marginal - penalty)`` should vanish; for Monte Carlo
    penalties the attainable bound is a few ``penalty_se``.
    """

    lhs: float
    marginal: float
    penalty: float
    penalty_se: float | None = None

    @property
    def residual(self) -> float:
        return self.lhs - (self.marginal - self.penalty)


def _encode_states(problem: DiscreteProblem) -> np.ndarray:
    """One row per state: its value under quadratic loss, else one-hot."""
    if isinstance(problem.loss, QuadraticLoss):
        return np.array(problem.states)[:, None]
    return np.eye(len(problem.states))


def _mixture(weights: np.ndarray, enc: np.ndarray) -> np.ndarray:
    """``sum(w * e for w, e in zip(weights, enc))`` for each column of the
    ``(states, k)`` weights: ``k`` rows, each summed in state order."""
    out = 0.0
    for w, e in zip(weights, enc):
        out = out + w[:, None] * e
    return out


def gap_check_discrete(problem: DiscreteProblem, delta_hat) -> GapReport:
    """Evaluate every gap-identity term exactly on a finite problem, under its loss.

    ``delta_hat`` is the rule as one table of shape ``problem.signal_shape
    + (k,)``: ``delta_hat[h, a]`` is the decision at own signal ``h`` and
    assistant signal ``a``, with ``k = 1`` under quadratic loss, whose
    states are scalars, and ``k = 2`` under log loss, whose states are
    one-hot and whose decisions are distributions over them.  Every entry must
    be finite, at pairs of zero probability too, but only the pairs of
    positive probability enter the terms and the log-loss domain check.  The
    conditionals come from :meth:`DiscreteProblem.conditionals`, the (pair,
    state) losses from two stacked :func:`bregman_loss` calls.
    """
    enc = _encode_states(problem)
    shape = problem.signal_shape + enc.shape[1:]
    rule = real(delta_hat, "delta_hat")
    if np.shape(rule) != shape:
        raise ValidationError(f"delta_hat must have shape {shape}, got {np.shape(rule)}")
    live_h, _, cond_h = problem.conditionals(("h",))
    live, p_pair, cond = problem.conditionals(SIGNALS)
    # conditional means given h alone, one row per live pair
    d_h = _mixture(cond_h, enc)[np.searchsorted(live_h, live // shape[1])]
    d_star = _mixture(cond, enc)
    d_hat = rule.reshape(-1, shape[2])[live]

    weights = cond * p_pair
    keep = (cond > 0.0).T
    # one (state, pair) loss table per decision d_h, d_hat, d_star; each
    # expected loss adds its terms one by one in (pair, state) order: np.sum
    # would pair them up, and from Python 3.12 on sum() compensates
    tables = bregman_loss(problem.loss, enc[:, None, :],
                          np.stack([d_h, d_hat, d_star])[:, None])
    l_human_term, l_hat, l_star = (reduce(add, (weights * table).T[keep].tolist(), 0.0)
                                   for table in tables)
    penalty = reduce(add, (p_pair * bregman_loss(problem.loss, d_star, d_hat)).tolist(), 0.0)
    lhs = l_human_term - l_hat
    marginal = l_human_term - l_star
    return GapReport(lhs=lhs, marginal=marginal, penalty=penalty)


def gap_check_gaussian_cn(env: Environment, spec: SignalSpec, n: int,
                          rng: RngHandle) -> GapReport:
    """Gap identity for the Gaussian model with the correlation-neglect rule.

    The left side and the marginal value come from closed forms; the misuse
    penalty ``E[(d_star - d_cn)**2]`` is estimated from ``n`` triples drawn
    from ``rng``, so ``|residual|`` should fall within a few reported
    ``penalty_se``; ``n`` must be at least 2.
    """
    profile = loss_profile(env, spec)
    lhs = profile.l_human - profile.l_joint_cn
    marg = profile.v_marginal

    def misuse(y, h, a):
        d = bayes_posterior_mean(env, spec, h, a)
        d -= cn_posterior_mean(env, spec, h, a)
        d *= d
        return d

    est = montecarlo.accumulate(env, spec, n, rng, {"penalty": misuse})["penalty"]
    return GapReport(lhs=lhs, marginal=marg, penalty=est.mean, penalty_se=est.std_error)


def conditional_mean_optimality(problem: DiscreteProblem) -> float:
    """Largest advantage of any searched decision over the conditional mean.

    For every realization of the full signal tuple with positive probability, a
    grid scan plus ternary refinement looks for a decision with lower
    conditional expected loss, under the problem's own loss, than the
    conditional mean.  Returns the largest reduction found, or 0.0 when the
    conditional mean is never beaten; it should vanish up to rounding.  The
    search runs over scalar decisions under quadratic loss and over the
    distributions on the two states under log loss.
    """
    enc = _encode_states(problem)
    _, _, conds = problem.conditionals(SIGNALS)
    max_advantage = 0.0
    for cond, d_star in zip(conds.T, _mixture(conds, enc)):
        live = cond > 0.0
        weights, states = cond[live, None], enc[live, None, :]

        def expected(decisions: np.ndarray) -> np.ndarray:
            # rows summed in state order: one expected loss per decision
            return (weights * bregman_loss(problem.loss, states, decisions)).sum(axis=0)

        if isinstance(problem.loss, QuadraticLoss):
            lo, hi = enc[:, 0].min() - 1.0, enc[:, 0].max() + 1.0
            best = minimize_grid_refine(lambda t: expected(t[:, None]), lo, hi)
        else:
            best = minimize_grid_refine(lambda t: expected(np.stack([t, 1.0 - t], axis=-1)),
                                        1e-12, 1.0 - 1e-12)
        max_advantage = max(max_advantage, float(expected(d_star[None, :])[0]) - best)
    return max_advantage
