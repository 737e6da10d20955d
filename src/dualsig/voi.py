"""Exact value of information on finite discrete problems.

The value of a signal set is the drop in optimal Bayes risk relative to the
best constant decision.  For quadratic loss it equals the expected variance
reduction; for binary log loss it equals the mutual information between
state and signals.  This module reports log loss in bits, and
:mod:`dualsig.bregman` in nats: a log-loss value there is this one times
``ln 2``.  :func:`brute_force_voi` recomputes every value by minimizing, per
signal realization, the expected loss over the decision (an array
objective: a grid scan, then ternary refinement), and is the independent
oracle for the closed-form paths.

:meth:`DiscreteProblem.conditionals` alone conditions the joint table on a
signal set, for the risks here and for :mod:`dualsig.bregman` alike.  A
problem has the two signals of the model, named by :data:`SIGNALS`: the own
signal ``"h"`` and the assistant signal ``"a"``.  A signal set is a tuple of
those names, each at most once; a signal's values index its axis of the
joint table.

Two binary constructions, each with a noise bit ``u ~ Bernoulli(0.1)``,
make the ratio of conditional to standalone value ``v(a|h) / v(a)`` take any
target in [0, inf):

* XOR: ``a = y XOR u XOR v`` with ``h = v``; knowing ``h`` strips one noise
  layer, so the conditional value exceeds the standalone one (ratio >= 1).
* Erasure: ``a = y XOR u`` and ``h`` equals ``a`` except it is erased (own
  signal 2) with probability ``t``; then the ratio is exactly ``t`` < 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from ._search import GRID_CELLS, bisect, minimize_grid_refine
from .core import ValidationError, real, real_scalar, require, typed

__all__ = [
    "SIGNALS",
    "QuadraticLoss",
    "LogLoss",
    "Loss",
    "DiscreteProblem",
    "VoiReport",
    "bayes_risk",
    "marginal_value_discrete",
    "xor_construction",
    "ratio_construction",
    "posterior_two_tests",
    "brute_force_voi",
]

SIGNALS = ("h", "a")

_NOISE_P = 0.1


def _binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) in bits; 0 at p in {0, 1}, 1 at p = 1/2."""
    require(0.0 <= p <= 1.0, "binary_entropy needs p in [0, 1], got {}", p)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


@dataclass(frozen=True)
class QuadraticLoss:
    """Squared error; states must be real, decisions range over the reals."""


@dataclass(frozen=True)
class LogLoss:
    """Binary log loss in bits; the states are 0 and 1, decisions lie in (0, 1)."""


Loss = QuadraticLoss | LogLoss


@dataclass(frozen=True, eq=False)
class DiscreteProblem:
    """Finite joint distribution over (state, own signal, assistant signal)
    plus a loss.

    ``probs[i, j, k]`` is the probability of state ``states[i]`` jointly
    with own signal ``j`` and assistant signal ``k``: one state axis, then
    one axis per signal of :data:`SIGNALS`.  ``states`` are at least two
    distinct finite reals, stored as a tuple of floats; under log loss they
    are 0 and 1.
    """

    states: tuple[float, ...]
    probs: np.ndarray
    loss: Loss

    def __post_init__(self) -> None:
        typed(self.loss, Loss, "loss")
        states = real(self.states, "states")
        if np.ndim(states) != 1:
            raise ValidationError(f"states must be a 1-D sequence, got {self.states!r}")
        states = tuple(states.tolist())
        if len(set(states)) != len(states) or len(states) < 2:
            raise ValidationError(f"states must be two or more distinct values, got {states}")
        if isinstance(self.loss, LogLoss) and set(states) - {0.0, 1.0}:
            raise ValidationError("log loss requires states in {0, 1}")
        probs = real(self.probs, "probs")
        if np.ndim(probs) != 1 + len(SIGNALS) or np.shape(probs)[0] != len(states):
            raise ValidationError(f"probs must have shape (len(states), n_h, n_a) = "
                                  f"({len(states)}, n_h, n_a), got {np.shape(probs)}")
        require(probs >= 0.0, "probs must be nonnegative, got {}", probs)
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"joint probabilities sum to {total}, not 1")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)

    @property
    def signal_shape(self) -> tuple[int, int]:
        """``(n_h, n_a)``: the number of values of each signal."""
        return self.probs.shape[1:]

    def signal_axes(self, signals: Sequence[str]) -> tuple[int, ...]:
        """The ``probs`` axes of a signal set: a sequence of names from
        :data:`SIGNALS`, each at most once; a bare string or a
        non-iterable is rejected."""
        if isinstance(signals, str) or not np.iterable(signals):
            raise ValidationError(f"signals must be a sequence of names, got {signals!r}")
        try:
            axes = tuple(SIGNALS.index(s) + 1 for s in signals)
        except ValueError as exc:
            raise ValidationError(f"unknown signal in signals {signals!r}; have {SIGNALS}") from exc
        if len(set(axes)) != len(axes):
            raise ValidationError(f"repeated signal in {signals!r}")
        return axes

    def conditionals(self, signals: Sequence[str] = ()) -> tuple[np.ndarray, ...]:
        """The state given each realization of ``signals`` that can occur.

        Returns ``(live, p, cond)``: the flat indices of the realizations
        with positive probability, in C order of the signal axes taken in
        problem order (so the order of ``signals`` does not matter); their
        probabilities; and the conditional state distributions, one column
        per realization.
        """
        axes = self.signal_axes(signals)
        dropped = tuple(ax for ax in range(1, self.probs.ndim) if ax not in axes)
        flat = self.probs.sum(axis=dropped).reshape(len(self.states), -1)
        p = flat.sum(axis=0)
        live = (p > 0.0).nonzero()[0]
        return live, p[live], flat[:, live] / p[live]


@dataclass(frozen=True)
class VoiReport:
    """Values of each signal set plus the conditional value of the second."""

    v_h: float
    v_a: float
    v_joint: float

    def __post_init__(self) -> None:
        tol = 1e-9
        for name in ("v_h", "v_a", "v_joint", "v_a_given_h"):
            if getattr(self, name) < -tol:
                raise ValidationError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.v_joint < max(self.v_h, self.v_a) - tol:
            raise ValidationError("v_joint must dominate each single-signal value")

    @property
    def v_a_given_h(self) -> float:
        """Value of the assistant signal to one who holds the own signal."""
        return self.v_joint - self.v_h

    @property
    def ratio(self) -> float:
        """``v_a_given_h / v_a``; NaN when the assistant alone is worthless."""
        return self.v_a_given_h / self.v_a if self.v_a > 0.0 else math.nan


def _optimal_conditional_loss(problem: DiscreteProblem, cond: np.ndarray) -> float:
    """Minimal expected loss against a conditional state distribution."""
    y = np.asarray(problem.states)
    if isinstance(problem.loss, QuadraticLoss):
        mean = float(np.dot(cond, y))
        return float(np.dot(cond, y * y)) - mean * mean
    return _binary_entropy(float(np.dot(cond, y)))


def _risk(problem: DiscreteProblem, signals: Sequence[str], conditional_loss) -> float:
    """Expected ``conditional_loss(problem, cond)`` over the realizations."""
    _, p, cond = problem.conditionals(signals)
    return float(reduce(add, (p_j * conditional_loss(problem, c)
                              for p_j, c in zip(p.tolist(), cond.T)), 0.0))


def bayes_risk(problem: DiscreteProblem, signals: Sequence[str] = ()) -> float:
    """Optimal expected loss when deciding from the given signals.

    The empty signal set gives the no-information baseline risk.
    """
    return _risk(problem, signals, _optimal_conditional_loss)


def _report(problem: DiscreteProblem, conditional_loss) -> VoiReport:
    """Values of a problem's signals from its four risks."""
    l0, r_h, r_a, r_joint = (_risk(problem, signals, conditional_loss)
                             for signals in ((), ("h",), ("a",), SIGNALS))
    return VoiReport(v_h=l0 - r_h, v_a=l0 - r_a, v_joint=l0 - r_joint)


def marginal_value_discrete(problem: DiscreteProblem) -> VoiReport:
    """Full value report of a problem's own and assistant signals."""
    return _report(problem, _optimal_conditional_loss)


def xor_construction(q: float) -> DiscreteProblem:
    """Binary problem whose conditional/standalone value ratio is >= 1.

    ``y ~ Bernoulli(1/2)``, ``a = y XOR u XOR v`` with independent noise bits
    ``u ~ Bernoulli(p)``, ``v ~ Bernoulli(q)``, and ``h = v``, where
    ``p = 0.1``.  Under log loss the ratio equals
    ``(1 - H2(p)) / (1 - H2(p + q - 2pq))``.
    """
    p = _NOISE_P
    q = real_scalar(q, "q")
    require(0.0 <= q < 0.5, "q must lie in [0, 1/2), got {}", q)
    probs = np.zeros((2, 2, 2))
    for y, v, a in itertools.product((0, 1), repeat=3):
        u = a ^ y ^ v
        probs[y, v, a] = 0.5 * (q if v else 1.0 - q) * (p if u else 1.0 - p)
    return DiscreteProblem(states=(0, 1), probs=probs, loss=LogLoss())


def _erasure_construction(t: float) -> DiscreteProblem:
    """Binary problem whose conditional/standalone value ratio is exactly
    ``t`` in [0, 1).

    ``a = y XOR u`` with ``u ~ Bernoulli(_NOISE_P)``; the own signal repeats
    ``a`` but is erased, to own signal 2, with probability ``t``.
    """
    p = _NOISE_P
    probs = np.zeros((2, 3, 2))
    for y, a in itertools.product((0, 1), repeat=2):
        u = a ^ y
        p_ya = 0.5 * (p if u else 1.0 - p)
        probs[y, a, a] = p_ya * (1.0 - t)
        probs[y, 2, a] = p_ya * t
    return DiscreteProblem(states=(0, 1), probs=probs, loss=LogLoss())


def _xor_ratio(q: float) -> float:
    """Closed-form value ratio of :func:`xor_construction`, exactly 1.0 at q = 0; its
    denominator is positive for ``q <= 1/2 - 1e-5``, all that :func:`_xor_q_for_ratio` asks."""
    p = _NOISE_P
    return (1.0 - _binary_entropy(p)) / (1.0 - _binary_entropy(p + q - 2.0 * p * q))


def _xor_q_for_ratio(t: float) -> float:
    """Solve the XOR noise level q such that the value ratio equals t >= 1."""
    hi = 0.5 - 1e-5  # close enough to 1/2 for ratios beyond 1e9
    require(_xor_ratio(hi) >= t, "ratio target t = {} out of solvable range", t)
    return bisect(lambda q: _xor_ratio(q) - t, 0.0, hi)


def ratio_construction(t: float) -> DiscreteProblem:
    """A problem whose conditional/standalone value ratio equals ``t``.

    Erasure for targets below 1, XOR (with the noise level solved by
    bisection) for targets of 1 and above.
    """
    t = real_scalar(t, "t")
    require(t >= 0.0, "ratio target t must be nonnegative, got {}", t)
    if t < 1.0:
        return _erasure_construction(t)
    return xor_construction(_xor_q_for_ratio(t))


def posterior_two_tests(prior: float, tpr: float, fpr: float) -> tuple[float, float]:
    """Posterior of a binary condition after one and after two positive flags.

    The two flags are conditionally independent with the same true/false
    positive rates; returns ``(P(cond | one +), P(cond | both +))``.
    """
    names = ("prior", "tpr", "fpr")
    prior, tpr, fpr = (real_scalar(v, name) for v, name in zip((prior, tpr, fpr), names))
    for v, name in zip((prior, tpr, fpr), names):
        require(0.0 < v < 1.0, name + " must lie in (0, 1), got {}", v)
    single = prior * tpr / (prior * tpr + (1.0 - prior) * fpr)
    both = prior * (tpr * tpr) / (prior * (tpr * tpr) + (1.0 - prior) * (fpr * fpr))
    return single, both


_GUARD = 10_000_000


def _brute_conditional_loss(problem: DiscreteProblem, cond: np.ndarray) -> float:
    """Numerically minimized expected loss for one realization (no closed forms)."""
    y = problem.states
    if isinstance(problem.loss, QuadraticLoss):
        lo, hi = min(y), max(y)
        f = lambda d: reduce(add, (p * ((s - d) * (s - d)) for p, s in zip(cond, y)), 0.0)
        return minimize_grid_refine(f, lo, hi)
    p1 = float(reduce(add, (p for p, s in zip(cond, y) if s == 1.0), 0.0))
    f = lambda d: -(p1 * np.log2(d) + (1.0 - p1) * np.log2(1.0 - d))
    return minimize_grid_refine(f, 1e-12, 1.0 - 1e-12)


def brute_force_voi(problem: DiscreteProblem) -> VoiReport:
    """Value report computed by direct rule-space minimization.

    Independent oracle for :func:`marginal_value_discrete`: no conditional
    means, entropies, or other closed forms are used on this path.  A
    problem whose signal tuple has more than ``_GUARD / GRID_CELLS``
    realizations of positive probability is rejected before any search.
    """
    if problem.conditionals(SIGNALS)[0].size * GRID_CELLS > _GUARD:
        raise ValidationError("brute-force enumeration guard exceeded")
    return _report(problem, _brute_conditional_loss)
