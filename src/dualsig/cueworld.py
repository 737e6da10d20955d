"""Finite pools of primitive cues behind the two aggregate signals.

The environment holds ``N`` conditionally independent Gaussian cues about the
state, cue ``i`` having variance ``N / tau_i`` (so pooling everything yields
a signal of precision ``mean(tau_i)``).  The decision-maker aggregates the
cues in their index set, the assistant aggregates a random subset of an
"accessible" sub-pool; both take the precision-weighted average.  A
homogeneous world has unit precisions, where that average is the plain one;
a heterogeneous world draws them.  The accessible pool is a prefix, the
first ``n_accessible`` cues, so a world stores its size and not a mask, and
a position drawn in the pool is the cue's index.

Because shared cues enter both aggregates, the conditional covariance of the
two signals is positive, and the overlap coefficient has a set-theoretic
form: the precision-mass ratio ``T(A ∩ H) / T(A)``.  With unit precisions
the masses are exact integer counts, so it is the count ratio
``|A ∩ H| / |A|`` bit for bit.  Both overlap measures read the human set
the world was built with.  :func:`covariance_lambda` recomputes the same
quantity from the covariance definition and serves as the independent
cross-check of the ratio.

When the assistant samples its set uniformly from the accessible pool, the
measured overlap concentrates (as ``N`` grows) on the pool-level rate, the
realized precision-mass ratio ``theta = T(H ∩ accessible) / T(accessible)``
of the world at hand.  With unit precisions that is the count ratio
``round(k*N) / round(m*N)`` bit for bit, not the nominal ``k/m``: with the
default plan at ``N = 1001`` it is 250/501.
:func:`concentration_experiment` measures that convergence.

Stream conventions (see :mod:`dualsig.rng`): world construction consumes
stream 0 of its seed (heterogeneous precisions first, then the human set's
accessible part, then its inaccessible part), assistant-set draws use
stream 1.  Repetitions derive child seeds with :func:`dualsig.rng.derive_seed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import ValidationError, count, finite_total, indices, real, real_scalar, require
from .rng import RngHandle, derive_seed

__all__ = [
    "SamplingPlan",
    "CueWorld",
    "ConcentrationSummary",
    "build_world",
    "sample_ai_set",
    "empirical_lambda",
    "covariance_lambda",
    "concentration_experiment",
]

MODES = ("homogeneous", "heterogeneous")

# the largest pool: a world and one assistant set hold about 24 bytes a cue,
# so 10**8 cues peak near 2.5 GB
MAX_CUES = 10**8


def _round_half_away(x: float) -> int:
    """Round a finite float ``x >= 0`` to the nearest integer, halves up
    (away from zero), exactly: ``x - floor(x)`` rounds nothing, where
    ``x + 0.5`` would.  Every caller passes a fraction in [0, 1] of a pool
    size ``N >= 1``."""
    q = math.floor(x)
    return q + (x - q >= 0.5)


@dataclass(frozen=True)
class SamplingPlan:
    """Fractions of the cue pool: assistant sample ``a`` of accessible mass
    ``m``, human-held accessible fraction ``k``, total human fraction
    ``h_total``.  All relative to the pool size."""

    a: float
    m: float
    k: float
    h_total: float

    def __post_init__(self) -> None:
        for name in ("a", "m", "k", "h_total"):
            object.__setattr__(self, name, real_scalar(getattr(self, name), name))
        if not 0.0 < self.m <= 1.0:
            raise ValidationError(f"m must lie in (0, 1], got {self.m}")
        if not 0.0 < self.a <= self.m:
            raise ValidationError(f"a must lie in (0, m], got a={self.a}, m={self.m}")
        if not 0.0 <= self.k <= self.m:
            raise ValidationError(f"k must lie in [0, m], got k={self.k}, m={self.m}")
        if not self.k <= self.h_total <= 1.0:
            raise ValidationError(
                f"h_total must lie in [k, 1], got h_total={self.h_total}, k={self.k}")


@dataclass(frozen=True, eq=False)
class CueWorld:
    """Immutable cue pool: per-cue precisions, the size of the accessible
    pool (its first ``n_accessible`` cues), and the human set.

    ``human_set``, distinct indices, is stored as a sorted copy;
    ``human_mask`` (True on ``human_set``) is derived once, at
    construction, for the per-repetition draws.  The total precision must
    be finite: every precision-mass ratio sums a part of it.

    A float64 ``precisions`` array is not copied: the world holds a
    read-only view of the caller's buffer, and a later write to that
    buffer changes the world.
    """

    precisions: np.ndarray
    n_accessible: int
    human_set: np.ndarray
    human_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        prec = real(self.precisions, "precisions", positive=True)
        if np.ndim(prec) != 1:  # before the view, which a float does not have
            raise ValidationError(f"precisions must form a 1-D array, got shape {np.shape(prec)}")
        prec = prec.view()  # a view: freezing it leaves the caller's own array writable
        if count(self.n_accessible, "n_accessible", 1) > prec.size:
            raise ValidationError(
                f"n_accessible must be <= {prec.size}, the number of cues, "
                f"got {self.n_accessible}")
        with np.errstate(over="ignore"):
            finite_total(np.sum(prec), "total cue precision")
        # a copy: freezing it leaves the caller's own array writable
        hset = indices(self.human_set, "human_set", prec.size).copy()
        in_h = np.zeros(prec.size, dtype=bool)
        in_h[hset] = True
        for name, arr in (("precisions", prec), ("human_set", hset), ("human_mask", in_h)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_cues(self) -> int:
        return self.precisions.size


@dataclass(frozen=True)
class ConcentrationSummary:
    """Overlap-error summary for one pool size, in the order of ``n_values``
    (CSV row of ``simulate``).

    ``target`` is the world's realized pool rate ``theta``, a measurement in
    either mode, so the two errors are sampling error only."""

    target: float
    mean_abs_error: float
    max_abs_error: float


def build_world(n_cues: int, plan: SamplingPlan, mode: str = "homogeneous",
                tau_bounds: tuple[float, float] = (0.5, 2.0), seed: int = 0) -> CueWorld:
    """Construct a deterministic cue world for the given seed.

    The accessible pool is the first ``round(m*N)`` indices.  The human set
    combines a uniform ``round(k*N)``-subset of the accessible pool with a
    uniform draw of the remainder from the inaccessible pool, for a total of
    ``round(h_total*N)`` cues.  Heterogeneous precisions are i.i.d. uniform
    on ``tau_bounds``, which either mode checks; homogeneous precisions are
    1.  Every argument is checked before any draw.
    """
    n_cues = count(n_cues, "n_cues", 1)
    n_acc, n_overlap, n_human, lo, hi = _read_world_args(n_cues, plan, mode, tau_bounds)
    rng = RngHandle(seed, stream=0)
    if mode == "heterogeneous":
        precisions = lo + (hi - lo) * rng.uniforms(n_cues)
    else:
        precisions = np.ones(n_cues)

    human_acc = rng.subset(n_acc, n_overlap)
    human_rest = n_acc + rng.subset(n_cues - n_acc, n_human - n_overlap)
    human_set = np.concatenate([human_acc, human_rest])
    return CueWorld(precisions=precisions, n_accessible=n_acc, human_set=human_set)


def _read_world_args(n_cues: int, plan: SamplingPlan, mode: str,
                     tau_bounds) -> tuple[int, int, int, float, float]:
    """Check the arguments of a world of ``n_cues`` cues before any draw and
    return its accessible pool size, the size of the human set's accessible
    part and of the whole set, and the precision bounds ``(lo, hi)``.

    The rounded sizes keep the plan's ``k <= m`` and ``k <= h_total``, as
    scaling by ``N > 0`` and ``_round_half_away`` are monotone; the checks
    are that the accessible pool and the assistant sample ``round(a*N)`` are
    nonempty and that the inaccessible pool holds the rest of the human set.
    Heterogeneous precisions sum to at most ``N*hi``, up to rounding, so that
    bound must be finite: whether a world can be built does not depend on its
    seed.  ``N`` is at most :data:`MAX_CUES`, checked before anything is
    allocated and before ``N`` meets a float: a float holds every such ``N``
    exactly, so ``m*N`` rounds once.
    """
    if not isinstance(mode, str) or mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    if n_cues > MAX_CUES:
        raise ValidationError(f"n_cues must be <= {MAX_CUES}, got {n_cues}")
    n_acc, n_ai = _round_half_away(plan.m * n_cues), _round_half_away(plan.a * n_cues)
    n_overlap = _round_half_away(plan.k * n_cues)
    n_human = _round_half_away(plan.h_total * n_cues)
    require(n_acc >= 1, "accessible pool rounds to {} cues (m*N = {}); need >= 1", n_acc,
            plan.m * n_cues)
    require(n_ai >= 1, "assistant sample size rounds to {}; need >= 1", n_ai)
    require(n_human - n_overlap <= n_cues - n_acc, "human set needs {} inaccessible cues "
            "but only {} exist", n_human - n_overlap, n_cues - n_acc)

    bounds = real(tau_bounds, "tau_bounds")
    if np.shape(bounds) != (2,) or not 0.0 < bounds[0] <= bounds[1]:
        raise ValidationError(
            f"tau_bounds must be a pair (lo, hi) with 0 < lo <= hi, got {tau_bounds}")
    lo, hi = bounds.tolist()
    if mode == "heterogeneous":
        finite_total(n_cues * hi, "total cue precision")
    return n_acc, n_overlap, n_human, lo, hi


def sample_ai_set(world: CueWorld, a: float, seed: int = 0) -> np.ndarray:
    """Uniform ``round(a*N)``-subset of the accessible pool (stream 1), for a
    fraction ``a`` of the pool in (0, 1]."""
    a = real_scalar(a, "a")
    require(0.0 < a <= 1.0, "a must lie in (0, 1], got {}", a)  # so that a*N is finite
    n_ai = _round_half_away(a * world.n_cues)
    if n_ai < 1:
        raise ValidationError(f"assistant sample size rounds to {n_ai}; need >= 1")
    if n_ai > world.n_accessible:
        raise ValidationError(
            f"assistant sample size {n_ai} exceeds accessible pool {world.n_accessible}")
    return RngHandle(seed, stream=1).subset(world.n_accessible, n_ai)


def empirical_lambda(world: CueWorld, ai_set: Iterable[int]) -> float:
    """Set-ratio overlap of a realized assistant set against the world's
    human set: the precision-mass ratio ``T(A∩H) / T(A)``.

    With unit precisions both masses are exact integer sums, so this is the
    count ratio ``|A∩H| / |A|`` bit for bit.  ``ai_set`` may be unsorted;
    its indices must be distinct.
    """
    a_idx = indices(ai_set, "ai_set", world.n_cues)
    if a_idx.size == 0:
        raise ValidationError("ai_set must be nonempty")
    both = a_idx[np.flatnonzero(world.human_mask[a_idx])]  # positions index faster than a mask
    return float(np.sum(world.precisions[both])) / float(np.sum(world.precisions[a_idx]))


def covariance_lambda(world: CueWorld, ai_set: Iterable[int]) -> float:
    """Overlap computed from first principles: ``Cov(H,A|Y) / Var(H|Y)``, for
    the world's human set ``H`` and the assistant set ``A``.

    Expands the aggregation weights and per-cue variances directly, and
    intersects the sorted index sets instead of reading ``human_mask``, so
    it shares no shortcut with :func:`empirical_lambda`; the two agree up to
    rounding, which is the identity the ratio formulas rest on.
    """
    h_idx = world.human_set
    a_idx = indices(ai_set, "ai_set", world.n_cues)
    if h_idx.size == 0 or a_idx.size == 0:
        raise ValidationError("the human set and ai_set must be nonempty")
    n = world.n_cues
    w_h = _aggregation_weights(world, h_idx)
    w_a = _aggregation_weights(world, a_idx)
    cue_var = n / world.precisions
    both = np.intersect1d(h_idx, a_idx, assume_unique=True)
    pos_h = np.searchsorted(h_idx, both)
    pos_a = np.searchsorted(a_idx, both)
    cov = float(np.sum(w_h[pos_h] * w_a[pos_a] * cue_var[both]))
    var_h = float(np.sum(w_h * w_h * cue_var[h_idx]))
    return cov / var_h


def _aggregation_weights(world: CueWorld, idx: np.ndarray) -> np.ndarray:
    tau = world.precisions[idx]
    return tau / np.sum(tau)


def concentration_experiment(n_values: Sequence[int], plan: SamplingPlan,
                             reps: int, mode: str = "homogeneous", seed: int = 0,
                             tau_bounds: tuple[float, float] = (0.5, 2.0),
                             ) -> list[ConcentrationSummary]:
    """Measure how the realized overlap concentrates on its pool target.

    For each pool size, one world is built (child seed ``derive_seed(seed,
    i)``) and ``reps`` assistant sets are drawn (child seeds
    ``derive_seed(seed, i, rep)``); the summary records mean and max
    ``|lambda_hat - target|``.  The target is ``theta``, the accessible
    pool's :func:`empirical_lambda`, in either mode; with unit precisions it
    is ``round(k*N) / round(m*N)``.  Every pool size is checked, as
    :func:`build_world` checks its arguments, before the first world is
    built.
    """
    reps = count(reps, "reps", 1)
    try:
        if isinstance(n_values, (bytes, bytearray)):  # iterates as ints, but is no list of sizes
            raise TypeError
        n_values = [count(n_cues, "n_values", 1) for n_cues in n_values]
    except TypeError:  # not iterable
        raise ValidationError(
            f"n_values must be a sequence of pool sizes, got {n_values!r}") from None
    require(len(n_values) > 0, "n_values must hold at least one pool size, got []")
    for n_cues in n_values:  # so that a later pool fails before the first one draws
        _read_world_args(n_cues, plan, mode, tau_bounds)
    out = []
    for i, n_cues in enumerate(n_values):
        world = build_world(n_cues, plan, mode=mode, tau_bounds=tau_bounds,
                            seed=derive_seed(seed, i))
        target = empirical_lambda(world, np.arange(world.n_accessible))
        estimates = np.array([empirical_lambda(world, sample_ai_set(
            world, plan.a, derive_seed(seed, i, rep))) for rep in range(reps)])
        errors = np.abs(estimates - target)
        out.append(ConcentrationSummary(target=target, mean_abs_error=float(np.mean(errors)),
                                        max_abs_error=float(np.max(errors))))
    return out
