"""Regime thresholds and phase diagrams over assistant capability and overlap.

For fixed prior and own-signal precisions, the best deployment among
{own signal alone, correlation-neglect combination, assistant alone} changes
with the assistant precision ``tau_a`` and the overlap ``lam``.  The two
boundaries admit closed forms:

* augmentation threshold ``tau_aug = (tau0 + tau_h) * (2*lam - 1)``:
  the combination beats the own signal alone iff ``tau_a > tau_aug``
  (for lam <= 1/2 it always does; tau_aug is then nonpositive);
* automation threshold ``tau_auto``: the unique positive root of
  ``2*lam*t*(tau0 + t) = tau_h*(tau0 + tau_h + t)``; the assistant alone
  beats the combination iff ``tau_a > tau_auto``.

``lambda_bar = 1/2 + tau_h / (2*(tau0 + tau_h))`` separates the overlap
levels where a complementarity window exists (below) from those where the
combination is never best (above); at ``lambda_bar`` the two thresholds
coincide at ``tau_h``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    Environment,
    LossProfile,
    SignalSpec,
    ValidationError,
    loss_ai,
    loss_human,
    loss_joint_cn,
    loss_profile,
)

__all__ = [
    "Regime",
    "ThresholdReport",
    "PhaseCell",
    "PhaseGrid",
    "tau_aug",
    "tau_auto",
    "lambda_bar",
    "thresholds",
    "classify",
    "phase_sweep",
]


class Regime(enum.Enum):
    """Which deployment achieves the lowest expected loss."""

    IMPAIRMENT = "Impairment"
    COMPLEMENTARITY = "Complementarity"
    AUTOMATION = "Automation"


def _check_lambda(lam: float, lo_open: bool) -> float:
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValidationError(f"lam must be finite, got {lam}")
    if lam < 0.0 or lam > 1.0 or (lo_open and lam == 0.0):
        bounds = "(0, 1]" if lo_open else "[0, 1]"
        raise ValidationError(f"lam must lie in {bounds}, got {lam}")
    return lam


def _check_tau_h(tau_h: float) -> None:
    # A scalar test: thresholds calls it three times per overlap level.
    if not math.isfinite(tau_h) or tau_h <= 0.0:
        raise ValidationError(f"tau_h must be finite and strictly positive, got {tau_h}")


def tau_aug(env: Environment, tau_h: float, lam: float) -> float:
    """Assistant precision above which the combination beats the own signal.

    ``(tau0 + tau_h) * (2*lam - 1)``; negative or zero for lam <= 1/2, which
    reads as "any positive assistant precision already augments".
    """
    lam = _check_lambda(lam, lo_open=False)
    _check_tau_h(tau_h)
    return (env.tau0 + tau_h) * (2.0 * lam - 1.0)


def tau_auto(env: Environment, tau_h: float, lam: float) -> float:
    """Assistant precision above which going assistant-only beats the combination.

    Positive root of a quadratic; requires lam > 0 (at lam = 0 the
    combination dominates the assistant alone for every capability, so no
    crossing exists and callers must not ask for one).
    """
    lam = _check_lambda(lam, lo_open=True)
    _check_tau_h(tau_h)
    b = tau_h - 2.0 * lam * env.tau0
    return (b + math.sqrt(b * b + 8.0 * lam * tau_h * (env.tau0 + tau_h))) / (4.0 * lam)


def lambda_bar(env: Environment, tau_h: float) -> float:
    """Overlap level above which the combination is never the best choice."""
    _check_tau_h(tau_h)
    return 0.5 + tau_h / (2.0 * (env.tau0 + tau_h))


@dataclass(frozen=True)
class ThresholdReport:
    """Both capability thresholds plus the critical overlap, for one lam > 0."""

    tau_aug: float
    tau_auto: float
    lambda_bar: float

    def __post_init__(self) -> None:
        if not self.tau_auto > 0.0:
            raise ValidationError(f"tau_auto must be positive, got {self.tau_auto}")
        if not 0.5 < self.lambda_bar < 1.0:
            raise ValidationError(f"lambda_bar must lie in (1/2, 1), got {self.lambda_bar}")


def thresholds(env: Environment, tau_h: float, lam: float) -> ThresholdReport:
    """Threshold report for one overlap level (lam in (0, 1])."""
    return ThresholdReport(
        tau_aug=tau_aug(env, tau_h, lam),
        tau_auto=tau_auto(env, tau_h, lam),
        lambda_bar=lambda_bar(env, tau_h),
    )


def classify(env: Environment, spec: SignalSpec) -> Regime:
    """Regime of the strict loss argmin among the three deployments.

    Ties prefer the simpler system: own signal alone, then assistant alone,
    then the combination.
    """
    lh = loss_human(env, spec)
    la = loss_ai(env, spec)
    lcn = loss_joint_cn(env, spec)
    if lh <= la and lh <= lcn:
        return Regime.IMPAIRMENT
    if la <= lcn:
        return Regime.AUTOMATION
    return Regime.COMPLEMENTARITY


@dataclass(frozen=True)
class PhaseCell:
    """One grid cell: parameters, feasibility, losses, and regime tag."""

    tau_a: float
    lam: float
    feasible: bool
    profile: LossProfile | None
    regime: Regime | None


@dataclass(frozen=True)
class PhaseGrid:
    """Loss profiles and regimes over a (tau_a, lam) grid.

    ``cells[i][j]`` corresponds to ``lambda_axis[i]`` and ``tau_a_axis[j]``
    (overlap-major ordering, matching the CSV emitted by the CLI).
    """

    tau_a_axis: tuple[float, ...]
    lambda_axis: tuple[float, ...]
    cells: tuple[tuple[PhaseCell, ...], ...]


def _check_axis(values: Iterable[float], name: str) -> tuple[float, ...]:
    axis = tuple(float(v) for v in values)
    if not axis:
        raise ValidationError(f"{name} must be nonempty")
    for v in axis:
        if not math.isfinite(v):
            raise ValidationError(f"{name} values must be finite, got {v}")
    if any(b <= a for a, b in zip(axis, axis[1:])):
        raise ValidationError(f"{name} must be strictly increasing")
    return axis


def phase_sweep(env: Environment, tau_h: float,
                tau_a_axis: Sequence[float],
                lambda_axis: Sequence[float]) -> PhaseGrid:
    """Evaluate losses and regimes over the product grid.

    Cells with ``lam > min(1, tau_h/tau_a)`` are marked infeasible (data,
    not an error).  Cells are independent; results are stored in a fixed
    overlap-major order regardless of how they are computed.
    """
    _check_tau_h(tau_h)
    ta_axis = _check_axis(tau_a_axis, "tau_a_axis")
    lam_axis = _check_axis(lambda_axis, "lambda_axis")
    rows = []
    for lam in lam_axis:
        row = []
        for tau_a in ta_axis:
            if tau_a <= 0.0:
                raise ValidationError(f"tau_a grid values must be positive, got {tau_a}")
            if lam < 0.0 or lam > min(1.0, tau_h / tau_a):
                row.append(PhaseCell(tau_a=tau_a, lam=lam, feasible=False,
                                     profile=None, regime=None))
                continue
            spec = SignalSpec(tau_h=tau_h, tau_a=tau_a, lam=lam)
            row.append(PhaseCell(
                tau_a=tau_a, lam=lam, feasible=True,
                profile=loss_profile(env, spec),
                regime=classify(env, spec),
            ))
        rows.append(tuple(row))
    return PhaseGrid(tau_a_axis=ta_axis, lambda_axis=lam_axis, cells=tuple(rows))
