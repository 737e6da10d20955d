"""Finite pools of primitive cues behind the two aggregate signals.

The environment holds ``N`` conditionally independent Gaussian cues about the
state, cue ``i`` having variance ``N / tau_i`` (so pooling everything yields
a signal of precision ``mean(tau_i)``).  The decision-maker aggregates the
cues in their index set, the assistant aggregates a random subset of an
"accessible" sub-pool; both use the plain average in the homogeneous mode
and the precision-weighted average otherwise.

Because shared cues enter both aggregates, the conditional covariance of the
two signals is positive, and the overlap coefficient has a set-theoretic
form: the count ratio ``|A ∩ H| / |A|`` for equal cue precisions, and the
precision-mass ratio ``T(A ∩ H) / T(A)`` in general.
:func:`covariance_lambda` recomputes the same quantity from the covariance
definition and serves as the independent cross-check of those ratios.

When the assistant samples its set uniformly from the accessible pool, the
measured overlap concentrates (as ``N`` grows) on the pool-level rate:
``k/m`` with equal precisions, or the realized precision-weighted rate
``theta = T(H ∩ accessible) / T(accessible)``.
:func:`concentration_experiment` measures that convergence.

Stream conventions (see :mod:`dualsig.rng`): world construction consumes
stream 0 of its seed (heterogeneous precisions first, then the human set's
accessible part, then its inaccessible part), assistant-set draws use
stream 1, signal aggregation uses stream 2.  Repetitions derive child seeds
with :func:`dualsig.rng.derive_seed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import ValidationError
from .rng import RngHandle, derive_seed

__all__ = [
    "SamplingPlan",
    "CueWorld",
    "OverlapEstimate",
    "ConcentrationSummary",
    "round_half_away",
    "build_world",
    "sample_ai_set",
    "signal_precision",
    "domain_overlap_rate",
    "empirical_lambda",
    "covariance_lambda",
    "aggregate_signals",
    "aggregate_signal_samples",
    "concentration_experiment",
]

MODES = ("homogeneous", "heterogeneous")


def round_half_away(x: float) -> int:
    """Round to the nearest integer, halves away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0.0 else -int(math.floor(-x + 0.5))


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
    """Immutable cue pool: per-cue precisions, accessibility mask, human set."""

    n_cues: int
    precisions: np.ndarray
    accessible: np.ndarray
    human_set: np.ndarray
    homogeneous: bool

    def __post_init__(self) -> None:
        if self.n_cues < 1:
            raise ValidationError(f"n_cues must be >= 1, got {self.n_cues}")
        prec = np.asarray(self.precisions, dtype=np.float64)
        acc = np.asarray(self.accessible, dtype=bool)
        hset = np.asarray(self.human_set, dtype=np.int64)
        if prec.shape != (self.n_cues,) or acc.shape != (self.n_cues,):
            raise ValidationError("precisions and accessible must have length n_cues")
        if not np.all(np.isfinite(prec)) or np.any(prec <= 0.0):
            raise ValidationError("cue precisions must be finite and positive")
        if hset.size and (hset.min() < 0 or hset.max() >= self.n_cues):
            raise ValidationError("human_set indices out of range")
        hset = np.sort(hset)
        if np.any(hset[1:] == hset[:-1]):
            raise ValidationError("human_set indices must be unique")
        for name, arr in (("precisions", prec), ("accessible", acc), ("human_set", hset)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def accessible_indices(self) -> np.ndarray:
        return np.flatnonzero(self.accessible)


@dataclass(frozen=True)
class OverlapEstimate:
    """One measured overlap against its pool-level target."""

    lambda_hat: float
    target: float
    abs_error: float


@dataclass(frozen=True)
class ConcentrationSummary:
    """Overlap-error summary for one pool size (CSV row of ``simulate``)."""

    n_cues: int
    reps: int
    mode: str
    target: float
    mean_abs_error: float
    max_abs_error: float


def _as_index_set(indices: Iterable[int], n_cues: int, name: str) -> np.ndarray:
    idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices,
                     dtype=np.int64)
    # Sets drawn by this module arrive sorted and unique; one O(n) pass
    # confirms that and skips the sort inside np.unique.
    if idx.ndim != 1 or not np.all(idx[1:] > idx[:-1]):
        idx = np.unique(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= n_cues):
        raise ValidationError(f"{name} indices out of range for n_cues={n_cues}")
    return idx


def build_world(n_cues: int, plan: SamplingPlan, mode: str = "homogeneous",
                tau: float = 1.0, tau_bounds: tuple[float, float] = (0.5, 2.0),
                seed: int = 0) -> CueWorld:
    """Construct a deterministic cue world for the given seed.

    The accessible pool is the first ``round(m*N)`` indices.  The human set
    combines a uniform ``round(k*N)``-subset of the accessible pool with a
    uniform draw of the remainder from the inaccessible pool, for a total of
    ``round(h_total*N)`` cues.  Heterogeneous precisions are i.i.d. uniform
    on ``tau_bounds``; homogeneous worlds use the constant ``tau``.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    if n_cues < 1:
        raise ValidationError(f"n_cues must be >= 1, got {n_cues}")
    n_acc = round_half_away(plan.m * n_cues)
    n_overlap = round_half_away(plan.k * n_cues)
    n_human = round_half_away(plan.h_total * n_cues)
    if n_overlap > n_acc:
        raise ValidationError(
            f"rounded sizes violate k <= m: |H∩acc|={n_overlap} > |acc|={n_acc}")
    if n_overlap > n_human:
        raise ValidationError(
            f"rounded sizes violate k <= h_total: |H∩acc|={n_overlap} > |H|={n_human}")
    if n_human - n_overlap > n_cues - n_acc:
        raise ValidationError(
            f"human set needs {n_human - n_overlap} inaccessible cues but only "
            f"{n_cues - n_acc} exist")

    rng = RngHandle(seed, stream=0)
    if mode == "heterogeneous":
        lo, hi = tau_bounds
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi):
            raise ValidationError(f"tau_bounds must satisfy 0 < lo <= hi, got {tau_bounds}")
        precisions = lo + (hi - lo) * rng.uniforms(n_cues)
    else:
        if not (math.isfinite(tau) and tau > 0.0):
            raise ValidationError(f"tau must be finite and positive, got {tau}")
        precisions = np.full(n_cues, float(tau))

    accessible = np.zeros(n_cues, dtype=bool)
    accessible[:n_acc] = True
    human_acc = rng.subset(n_acc, n_overlap)
    human_rest = n_acc + rng.subset(n_cues - n_acc, n_human - n_overlap)
    human_set = np.concatenate([human_acc, human_rest])
    return CueWorld(n_cues=n_cues, precisions=precisions, accessible=accessible,
                    human_set=human_set, homogeneous=(mode == "homogeneous"))


def sample_ai_set(world: CueWorld, a: float, seed: int = 0) -> np.ndarray:
    """Uniform ``round(a*N)``-subset of the accessible pool (stream 1)."""
    n_ai = round_half_away(a * world.n_cues)
    acc = world.accessible_indices
    if n_ai < 1:
        raise ValidationError(f"assistant sample size rounds to {n_ai}; need >= 1")
    if n_ai > acc.size:
        raise ValidationError(
            f"assistant sample size {n_ai} exceeds accessible pool {acc.size}")
    rng = RngHandle(seed, stream=1)
    return acc[rng.subset(acc.size, n_ai)]


def signal_precision(world: CueWorld, indices: Iterable[int]) -> float:
    """Conditional precision of the aggregate over an index set: ``T_S / N``."""
    idx = _as_index_set(indices, world.n_cues, "indices")
    if idx.size == 0:
        raise ValidationError("signal_precision requires a nonempty index set")
    return float(np.sum(world.precisions[idx])) / world.n_cues


def _membership(n_cues: int, idx: np.ndarray) -> np.ndarray:
    """Boolean mask over ``range(n_cues)`` that is True on ``idx``."""
    mask = np.zeros(n_cues, dtype=bool)
    mask[idx] = True
    return mask


def domain_overlap_rate(world: CueWorld) -> float:
    """Pool-level overlap target: precision mass of human-held accessible
    cues over total accessible precision mass (count ratio when homogeneous)."""
    acc = world.accessible
    in_h = _membership(world.n_cues, world.human_set)
    if world.homogeneous:
        return float(np.count_nonzero(acc & in_h)) / float(np.count_nonzero(acc))
    t_acc = float(np.sum(world.precisions[acc]))
    t_both = float(np.sum(world.precisions[acc & in_h]))
    return t_both / t_acc


def empirical_lambda(world: CueWorld, human_set: Iterable[int],
                     ai_set: Iterable[int]) -> float:
    """Set-ratio overlap of a realized assistant set against the human set.

    Count ratio ``|A∩H| / |A|`` in homogeneous worlds (exact); precision-mass
    ratio ``T(A∩H) / T(A)`` otherwise.
    """
    h_idx = _as_index_set(human_set, world.n_cues, "human_set")
    a_idx = _as_index_set(ai_set, world.n_cues, "ai_set")
    if a_idx.size == 0:
        raise ValidationError("ai_set must be nonempty")
    both = a_idx[_membership(world.n_cues, h_idx)[a_idx]]
    if world.homogeneous:
        return both.size / a_idx.size
    return float(np.sum(world.precisions[both])) / float(np.sum(world.precisions[a_idx]))


def covariance_lambda(world: CueWorld, human_set: Iterable[int],
                      ai_set: Iterable[int]) -> float:
    """Overlap computed from first principles: ``Cov(H,A|Y) / Var(H|Y)``.

    Expands the aggregation weights and per-cue variances directly, without
    using the set-ratio shortcut; agrees with :func:`empirical_lambda` up to
    rounding, which is the identity the ratio formulas rest on.
    """
    h_idx = _as_index_set(human_set, world.n_cues, "human_set")
    a_idx = _as_index_set(ai_set, world.n_cues, "ai_set")
    if h_idx.size == 0 or a_idx.size == 0:
        raise ValidationError("human_set and ai_set must be nonempty")
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
    if world.homogeneous:
        return np.full(idx.size, 1.0 / idx.size)
    tau = world.precisions[idx]
    return tau / np.sum(tau)


def aggregate_signal_samples(world: CueWorld, human_set: Iterable[int],
                             ai_set: Iterable[int], y: float, seed: int,
                             reps: int) -> tuple[np.ndarray, np.ndarray]:
    """``reps`` independent draws of the two aggregates, sharing cue draws.

    Each repetition realizes every cue in the union of the two sets once
    (noise matrix drawn row-major from stream 2), so shared cues induce the
    conditional correlation between the aggregates.
    """
    h_idx = _as_index_set(human_set, world.n_cues, "human_set")
    a_idx = _as_index_set(ai_set, world.n_cues, "ai_set")
    if h_idx.size == 0 or a_idx.size == 0:
        raise ValidationError("human_set and ai_set must be nonempty")
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    union = np.union1d(h_idx, a_idx)
    sd = np.sqrt(world.n_cues / world.precisions[union])
    rng = RngHandle(seed, stream=2)
    noise = rng.normals(reps * union.size).reshape(reps, union.size)
    cues = y + noise * sd
    h = _weighted_rows(world, cues, union, h_idx)
    a = _weighted_rows(world, cues, union, a_idx)
    return h, a


def _weighted_rows(world: CueWorld, cues: np.ndarray, union: np.ndarray,
                   idx: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(union, idx)
    w = _aggregation_weights(world, idx)
    # elementwise multiply + pairwise sum keeps the reduction deterministic
    return np.sum(cues[:, pos] * w, axis=1)


def aggregate_signals(world: CueWorld, human_set: Iterable[int],
                      ai_set: Iterable[int], y: float, seed: int = 0) -> tuple[float, float]:
    """One draw of the pair of aggregate signals given the state ``y``."""
    h, a = aggregate_signal_samples(world, human_set, ai_set, y, seed, reps=1)
    return float(h[0]), float(a[0])


def overlap_estimates(world: CueWorld, a: float, reps: int, seed: int,
                      target: float) -> list[OverlapEstimate]:
    """Measured overlap of ``reps`` independent assistant draws vs a target.

    Repetition ``rep`` uses the child seed ``derive_seed(seed, rep)``.
    """
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    out = []
    for rep in range(reps):
        ai = sample_ai_set(world, a, seed=derive_seed(seed, rep))
        lam = empirical_lambda(world, world.human_set, ai)
        out.append(OverlapEstimate(lambda_hat=lam, target=target,
                                   abs_error=abs(lam - target)))
    return out


def concentration_experiment(n_values: Sequence[int], plan: SamplingPlan,
                             reps: int, mode: str = "homogeneous", seed: int = 0,
                             tau: float = 1.0,
                             tau_bounds: tuple[float, float] = (0.5, 2.0),
                             ) -> list[ConcentrationSummary]:
    """Measure how the realized overlap concentrates on its pool target.

    For each pool size, one world is built (child seed ``derive_seed(seed,
    i)``) and ``reps`` assistant sets are drawn (child seeds
    ``derive_seed(seed, i, rep)``); the summary records mean and max
    ``|lambda_hat - target|``, with the target ``k/m`` in homogeneous mode
    and the realized precision-weighted rate otherwise.
    """
    out = []
    for i, n_cues in enumerate(n_values):
        world = build_world(n_cues, plan, mode=mode, tau=tau, tau_bounds=tau_bounds,
                            seed=derive_seed(seed, i))
        target = plan.k / plan.m if mode == "homogeneous" else domain_overlap_rate(world)
        estimates = overlap_estimates(world, plan.a, reps, derive_seed(seed, i), target)
        errors = [e.abs_error for e in estimates]
        out.append(ConcentrationSummary(
            n_cues=n_cues, reps=reps, mode=mode, target=target,
            mean_abs_error=float(np.mean(errors)),
            max_abs_error=float(np.max(errors))))
    return out
