"""Exact value of information on finite discrete problems.

The value of a signal set is the drop in optimal Bayes risk relative to the
best constant decision.  For quadratic loss it equals the expected variance
reduction; for binary log loss (base 2 throughout this module) it equals the
mutual information between state and signals.  :func:`brute_force_voi`
recomputes every value by minimizing, per signal realization, the expected
loss over the decision (an array objective: a grid scan, then ternary
refinement), and is the independent oracle for the closed-form paths.

:meth:`DiscreteProblem.conditionals` alone conditions the joint table on a
signal set, for the risks here and for :mod:`dualsig.bregman` alike.

Two binary constructions, each with a noise bit ``u ~ Bernoulli(NOISE_P)``,
make the ratio of conditional to standalone value ``v(a|h) / v(a)`` take any
target in [0, inf):

* XOR: ``a = y XOR u XOR v`` with ``h = v``; knowing ``h`` strips one noise
  layer, so the conditional value exceeds the standalone one (ratio >= 1).
* Erasure: ``a = y XOR u`` and ``h`` equals ``a`` except it is erased (the
  null symbol) with probability ``t``; then the ratio is exactly ``t`` < 1.
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
from .core import ValidationError

__all__ = [
    "NULL_SIGNAL",
    "NOISE_P",
    "QuadraticLoss",
    "LogLoss",
    "DiscreteProblem",
    "VoiReport",
    "binary_entropy",
    "bayes_risk",
    "value_of_information",
    "marginal_value_discrete",
    "xor_construction",
    "erasure_construction",
    "xor_q_for_ratio",
    "ratio_construction",
    "posterior_two_tests",
    "brute_force_voi",
]

NULL_SIGNAL = "null"

NOISE_P = 0.1


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) in bits; 0 at p in {0, 1}, 1 at p = 1/2."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"binary_entropy needs p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


@dataclass(frozen=True)
class QuadraticLoss:
    """Squared error; states must be real, decisions range over the reals."""


@dataclass(frozen=True)
class LogLoss:
    """Binary log loss in bits; states must be 0/1, decisions lie in (0, 1)."""


Loss = QuadraticLoss | LogLoss


@dataclass(frozen=True, eq=False)
class DiscreteProblem:
    """Finite joint distribution over (state, signal tuple) plus a loss.

    ``probs[i, j1, ..., jK]`` is the probability of state ``states[i]``
    jointly with signal values ``alphabets[k][jk]``.  ``states`` are finite
    reals, stored as a tuple of floats.
    """

    states: tuple[float, ...]
    signal_names: tuple[str, ...]
    alphabets: tuple[tuple, ...]
    probs: np.ndarray
    loss: Loss

    def __post_init__(self) -> None:
        if not isinstance(self.loss, Loss):
            raise ValidationError(f"loss must be QuadraticLoss or LogLoss, got {self.loss!r}")
        try:
            states = tuple(float(s) for s in self.states)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"states must be real numbers, got {self.states!r}") from exc
        if not all(math.isfinite(s) for s in states):
            raise ValidationError(f"states must be finite, got {states}")
        if isinstance(self.loss, LogLoss) and set(states) - {0.0, 1.0}:
            raise ValidationError("log loss requires states in {0, 1}")
        probs = np.asarray(self.probs, dtype=np.float64)
        shape = (len(self.states),) + tuple(len(ab) for ab in self.alphabets)
        if len(self.signal_names) != len(self.alphabets):
            raise ValidationError("one alphabet per signal name required")
        if len(set(self.signal_names)) != len(self.signal_names):
            raise ValidationError("signal names must be distinct")
        if probs.shape != shape:
            raise ValidationError(f"probs shape {probs.shape} != expected {shape}")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise ValidationError("probabilities must be finite and nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"joint probabilities sum to {total}, not 1")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "signal_names", tuple(self.signal_names))
        object.__setattr__(self, "alphabets", tuple(tuple(ab) for ab in self.alphabets))

    def signal_axes(self, signals: Sequence[str]) -> tuple[int, ...]:
        try:
            return tuple(self.signal_names.index(s) + 1 for s in signals)
        except ValueError as exc:
            raise ValidationError(
                f"unknown signal in {signals!r}; have {self.signal_names}") from exc

    def conditionals(self, signals: Sequence[str] = ()) -> tuple[np.ndarray, ...]:
        """The state given each realization of ``signals`` that can occur.

        Returns ``(live, p, cond)``: the flat indices of the realizations
        with positive probability, in C order of the signals' alphabets
        taken in problem order (so the order of ``signals`` does not
        matter); their probabilities; and the conditional state
        distributions, one column per realization.
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

    l0: float
    v_h: float
    v_a: float
    v_joint: float
    v_a_given_h: float
    ratio: float

    def __post_init__(self) -> None:
        tol = 1e-9
        for name in ("v_h", "v_a", "v_joint", "v_a_given_h"):
            if getattr(self, name) < -tol:
                raise ValidationError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.v_joint < max(self.v_h, self.v_a) - tol:
            raise ValidationError("v_joint must dominate each single-signal value")
        if abs(self.v_a_given_h - (self.v_joint - self.v_h)) > tol:
            raise ValidationError("v_a_given_h must equal v_joint - v_h")


def _optimal_conditional_loss(problem: DiscreteProblem, cond: np.ndarray) -> float:
    """Minimal expected loss against a conditional state distribution."""
    y = np.asarray(problem.states)
    if isinstance(problem.loss, QuadraticLoss):
        mean = float(np.dot(cond, y))
        return float(np.dot(cond, y * y)) - mean * mean
    return binary_entropy(float(np.dot(cond, y)))


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


def value_of_information(problem: DiscreteProblem, signals: Sequence[str]) -> float:
    """Risk reduction of the signal set relative to the best constant decision."""
    return bayes_risk(problem, ()) - bayes_risk(problem, signals)


def _report(problem: DiscreteProblem, conditional_loss) -> VoiReport:
    """Values of a two-signal (own, assistant) problem from its four risks."""
    if len(problem.signal_names) != 2:
        raise ValidationError(f"need exactly two signals, got {problem.signal_names}")
    h, a = problem.signal_names
    l0, r_h, r_a, r_joint = (_risk(problem, signals, conditional_loss)
                             for signals in ((), (h,), (a,), (h, a)))
    v_h, v_a, v_joint = l0 - r_h, l0 - r_a, l0 - r_joint
    v_a_given_h = v_joint - v_h
    ratio = v_a_given_h / v_a if v_a > 0.0 else math.nan
    return VoiReport(l0=l0, v_h=v_h, v_a=v_a, v_joint=v_joint,
                     v_a_given_h=v_a_given_h, ratio=ratio)


def marginal_value_discrete(problem: DiscreteProblem) -> VoiReport:
    """Full value report for a problem with exactly two signals (own, assistant)."""
    return _report(problem, _optimal_conditional_loss)


def xor_construction(q: float) -> DiscreteProblem:
    """Binary problem whose conditional/standalone value ratio is >= 1.

    ``y ~ Bernoulli(1/2)``, ``a = y XOR u XOR v`` with independent noise bits
    ``u ~ Bernoulli(p)``, ``v ~ Bernoulli(q)``, and ``h = v``, where
    ``p = NOISE_P``.  Under log loss the ratio equals
    ``(1 - H2(p)) / (1 - H2(p + q - 2pq))``.
    """
    p = NOISE_P
    if not 0.0 <= q < 0.5:
        raise ValidationError(f"q must lie in [0, 1/2), got {q}")
    probs = np.zeros((2, 2, 2))
    for y, v, a in itertools.product((0, 1), repeat=3):
        u = a ^ y ^ v
        probs[y, v, a] = 0.5 * (q if v else 1.0 - q) * (p if u else 1.0 - p)
    return DiscreteProblem(states=(0, 1), signal_names=("h", "a"),
                           alphabets=((0, 1), (0, 1)), probs=probs, loss=LogLoss())


def erasure_construction(t: float) -> DiscreteProblem:
    """Binary problem whose conditional/standalone value ratio is exactly t.

    ``a = y XOR u`` with ``u ~ Bernoulli(NOISE_P)``; the own signal repeats
    ``a`` but is erased to the null symbol with probability ``t``.
    """
    p = NOISE_P
    if not 0.0 <= t < 1.0:
        raise ValidationError(f"t must lie in [0, 1), got {t}")
    h_alphabet = (0, 1, NULL_SIGNAL)
    probs = np.zeros((2, 3, 2))
    for y, a in itertools.product((0, 1), repeat=2):
        u = a ^ y
        p_ya = 0.5 * (p if u else 1.0 - p)
        probs[y, a, a] = p_ya * (1.0 - t)
        probs[y, 2, a] = p_ya * t
    return DiscreteProblem(states=(0, 1), signal_names=("h", "a"),
                           alphabets=(h_alphabet, (0, 1)), probs=probs, loss=LogLoss())


def xor_ratio(q: float) -> float:
    """Closed-form value ratio of :func:`xor_construction`; its denominator
    is positive for ``q <= 1/2 - 1e-5``, all that :func:`xor_q_for_ratio` asks."""
    p = NOISE_P
    return (1.0 - binary_entropy(p)) / (1.0 - binary_entropy(p + q - 2.0 * p * q))


def xor_q_for_ratio(t: float) -> float:
    """Solve the XOR noise level q such that the value ratio equals t >= 1."""
    if not t >= 1.0:
        raise ValidationError(f"XOR ratios start at 1, got target {t}")
    if t == 1.0:
        return 0.0
    hi = 0.5 - 1e-5  # close enough to 1/2 for ratios beyond 1e9
    if xor_ratio(hi) < t:
        raise ValidationError(f"ratio target {t} out of solvable range")
    return bisect(lambda q: xor_ratio(q) - t, 0.0, hi)


def ratio_construction(t: float) -> DiscreteProblem:
    """A problem whose conditional/standalone value ratio equals ``t``.

    Erasure for targets below 1, XOR (with the noise level solved by
    bisection) for targets of 1 and above.
    """
    if not t >= 0.0:
        raise ValidationError(f"ratio target must be nonnegative, got {t}")
    if t < 1.0:
        return erasure_construction(t)
    return xor_construction(xor_q_for_ratio(t))


def posterior_two_tests(prior: float, tpr: float, fpr: float) -> tuple[float, float]:
    """Posterior of a binary condition after one and after two positive flags.

    The two flags are conditionally independent with the same true/false
    positive rates; returns ``(P(cond | one +), P(cond | both +))``.
    """
    for name, v in (("prior", prior), ("tpr", tpr), ("fpr", fpr)):
        if not 0.0 < v < 1.0:
            raise ValidationError(f"{name} must lie in (0, 1), got {v}")
    single = prior * tpr / (prior * tpr + (1.0 - prior) * fpr)
    both = prior * tpr ** 2 / (prior * tpr ** 2 + (1.0 - prior) * fpr ** 2)
    return single, both


_GUARD = 10_000_000


def _brute_conditional_loss(problem: DiscreteProblem, cond: np.ndarray) -> float:
    """Numerically minimized expected loss for one realization (no closed forms)."""
    y = problem.states
    if isinstance(problem.loss, QuadraticLoss):
        lo, hi = min(y), max(y)
        if lo == hi:
            return float(reduce(add, (p * (s - lo) ** 2 for p, s in zip(cond, y)), 0.0))
        f = lambda d: reduce(add, (p * (s - d) ** 2 for p, s in zip(cond, y)), 0.0)
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
    if problem.conditionals(problem.signal_names)[0].size * GRID_CELLS > _GUARD:
        raise ValidationError("brute-force enumeration guard exceeded")
    return _report(problem, _brute_conditional_loss)
