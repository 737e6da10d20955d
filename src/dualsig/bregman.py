"""Bregman losses and the gap identity between realized and optimal use.

For a strictly convex differentiable generator ``phi`` the Bregman loss is

    D(y, d) = phi(y) - phi(d) - <y - d, grad phi(d)>,

nonnegative and zero only at ``y = d``.  This module holds no loss: it
calls the problem's :data:`dualsig.voi.Loss` for its generator, gradient
and state encoding.  A log-loss value here is in nats, the bits of
:mod:`dualsig.voi` times ``ln 2``, and a log-loss decision may be zero only
where ``y`` is, such an entry adding ``0 log 0 = 0`` to the inner product.

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
It searches nothing: :func:`dualsig.voi.conditional_mean_optimality` checks
that the conditional mean of a finite problem is optimal.

Stacked convention: :func:`bregman_loss` takes for ``y`` and ``d`` one
vector or a stack of them, shape ``(..., k)`` (a scalar is one vector of
length 1), and broadcasts ``y`` against ``d``.  A loss declares no
dimension: the inputs fix it, and ``y`` and ``d`` must have the same
trailing length ``k``.  Each call validates its whole input once: the
trailing lengths, finiteness and the loss's domain, where one bad row
rejects the stack.  One pair gives a float, a stack an array.
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
    SignalSpec,
    ValidationError,
    bayes_posterior_mean,
    cn_posterior_mean,
    loss_profile,
    native,
    real,
    real_scalar,
    typed,
)
from .rng import RngHandle
from .voi import SIGNALS, DiscreteProblem, Loss

__all__ = [
    "GapReport",
    "bregman_loss",
    "gap_check_discrete",
    "gap_check_gaussian_cn",
]


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
    grad = loss.grad(dv, yv)  # rejects decisions outside the domain
    return native(loss.phi(yv) - loss.phi(dv) - np.vecdot(yv - dv, grad))


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
    assistant signal ``a``, of the length ``k`` of the loss's state encoding:
    a scalar under quadratic loss, a distribution over the one-hot states
    under log loss.  Every entry must be finite, at pairs of zero
    probability too, but only the (pair, state) entries of positive
    probability enter the terms and the loss's domain check.  The
    conditionals come from :meth:`DiscreteProblem.conditionals`, the
    losses from two stacked :func:`bregman_loss` calls.
    """
    typed(problem, DiscreteProblem, "problem")
    enc = problem.loss.encode(problem.states)
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

    # the (pair, state) entries whose state can occur, pair-major; each expected
    # loss adds its terms one by one in that order: np.sum would pair them up,
    # and from Python 3.12 on sum() compensates
    pairs, states = (cond > 0.0).T.nonzero()
    weights = (cond * p_pair)[states, pairs]
    tables = bregman_loss(problem.loss, enc[states], np.stack([d_h, d_hat, d_star])[:, pairs])
    l_human_term, l_hat, l_star = (reduce(add, (weights * table).tolist(), 0.0)
                                   for table in tables)
    penalty = reduce(add, (p_pair * bregman_loss(problem.loss, d_star, d_hat)).tolist(), 0.0)
    lhs = l_human_term - l_hat
    marginal = l_human_term - l_star
    return GapReport(lhs=lhs, marginal=marginal, penalty=penalty)


def gap_check_gaussian_cn(tau0: float, spec: SignalSpec, n: int,
                          rng: RngHandle) -> GapReport:
    """Gap identity for the Gaussian model with the correlation-neglect rule.

    The left side and the marginal value come from closed forms; the misuse
    penalty ``E[(d_star - d_cn)**2]`` is estimated from ``n`` triples drawn
    from ``rng``, so ``|residual|`` should fall within a few reported
    ``penalty_se``; ``tau0`` must be a finite positive number and ``n`` at
    least 2.
    """
    tau0 = real_scalar(tau0, "tau0", positive=True)  # misuse reads it per chunk
    profile = loss_profile(tau0, spec)
    lhs = profile.l_human - profile.l_joint_cn
    marg = profile.v_marginal

    def misuse(y, h, a):
        d = bayes_posterior_mean(tau0, spec, h, a)
        d -= cn_posterior_mean(tau0, spec, h, a)
        d *= d
        return d

    est = montecarlo.accumulate(tau0, spec, n, rng, {"penalty": misuse})["penalty"]
    return GapReport(lhs=lhs, marginal=marg, penalty=est.mean, penalty_se=est.std_error)

