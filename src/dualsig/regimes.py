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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    LossProfile,
    SignalSpec,
    feasible,
    finite_total,
    loss_profile,
    real,
    real_scalar,
    require,
    typed,
)

__all__ = [
    "Regime",
    "PhaseGrid",
    "tau_aug",
    "tau_auto",
    "lambda_bar",
    "classify",
    "phase_sweep",
]


class Regime(str, enum.Enum):
    """Which deployment achieves the lowest expected loss (a str: its value)."""

    IMPAIRMENT = "Impairment"
    COMPLEMENTARITY = "Complementarity"
    AUTOMATION = "Automation"


# classify picks the first of these whose deployment is (weakly) best.
_TIE_ORDER = np.array([Regime.IMPAIRMENT, Regime.AUTOMATION, Regime.COMPLEMENTARITY],
                      dtype=object)

# PhaseGrid.cells record layout: the CSV column order of ``dualsig phase``.
_CELL = np.dtype([("lam", float), ("tau_a", float), ("feasible", bool),
                  ("l_human", float), ("l_ai", float), ("l_joint_cn", float),
                  ("l_joint_bayes", float), ("v_marginal", float), ("regime", object)])

# phase writes one CSV row per cell: a million rows, about 100 MB of text,
# peak near 340 MB and 14 s on a 2-CPU Xeon
_MAX_CELLS = 1_000_000


def _check_lambda(lam, lo_open: bool):
    lam = real(lam, "lam")
    above = lam > 0.0 if lo_open else lam >= 0.0
    require(above & (lam <= 1.0),
            "lam must lie in " + ("(0, 1]" if lo_open else "[0, 1]") + ", got {}", lam)
    return lam


def tau_aug(tau0: float, tau_h: float, lam):
    """Assistant precision above which the combination beats the own signal.

    ``(tau0 + tau_h) * (2*lam - 1)``; negative or zero for lam <= 1/2, which
    reads as "any positive assistant precision already augments".
    Broadcasts over an array ``lam``.
    """
    tau0 = real_scalar(tau0, "tau0", positive=True)
    lam = _check_lambda(lam, lo_open=False)
    tau_h = real_scalar(tau_h, "tau_h", positive=True)
    return finite_total(tau0 + tau_h, "tau0 + tau_h") * (2.0 * lam - 1.0)


@np.errstate(over="ignore")  # an overflow fails the finiteness checks below
def tau_auto(tau0: float, tau_h: float, lam):
    """Assistant precision above which going assistant-only beats the combination.

    Positive root of a quadratic; requires lam > 0 (at lam = 0 the
    combination dominates the assistant alone for every capability, so no
    crossing exists and callers must not ask for one).  Broadcasts over an
    array ``lam``; raises where the discriminant or the root is not finite,
    or the root is not positive.
    """
    tau0 = real_scalar(tau0, "tau0", positive=True)
    lam = _check_lambda(lam, lo_open=True)
    tau_h = real_scalar(tau_h, "tau_h", positive=True)
    b = tau_h - 2.0 * lam * tau0
    disc = finite_total(b * b + 8.0 * lam * tau_h * (tau0 + tau_h),
                        "the tau_auto discriminant")
    root = (b + np.sqrt(disc)) / (4.0 * lam)
    require((root > 0.0) & np.isfinite(root),
            "tau_auto = {} at lam = {} is not a positive finite number; "
            "the precisions are out of range", root, lam)
    return root


def lambda_bar(tau0: float, tau_h: float) -> float:
    """Overlap level above which the combination is never the best choice."""
    tau0 = real_scalar(tau0, "tau0", positive=True)
    tau_h = real_scalar(tau_h, "tau_h", positive=True)
    return 0.5 + tau_h / finite_total(2.0 * (tau0 + tau_h), "2*(tau0 + tau_h)")


def classify(profile: LossProfile):
    """Regime of the strict loss argmin among the three deployments, read
    from a :func:`dualsig.core.loss_profile`.

    Ties prefer the simpler system: own signal alone, then assistant alone,
    then the combination.  A :class:`Regime` for a profile of floats, an
    object array of them for a profile of arrays.
    """
    typed(profile, LossProfile, "profile")
    lh, la, lcn = profile.l_human, profile.l_ai, profile.l_joint_cn
    return _TIE_ORDER[np.where((lh <= la) & (lh <= lcn), 0, np.where(la <= lcn, 1, 2))]


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """Loss profiles and regimes over a (tau_a, lam) grid.

    ``cells`` is a read-only 2-D structured array; ``cells[i, j]`` belongs to
    the ``i``-th overlap and the ``j``-th assistant precision of the sweep
    (overlap-major, like the CSV emitted by the CLI).  Its fields, in CSV
    column order, are ``lam``, ``tau_a``, ``feasible``, ``l_human``,
    ``l_ai``, ``l_joint_cn``, ``l_joint_bayes``, ``v_marginal`` and
    ``regime`` (a :class:`Regime`).
    Infeasible cells hold NaN losses and a ``None`` regime.
    """

    cells: np.ndarray


def _check_axis(values: Sequence[float], name: str, positive: bool = False) -> np.ndarray:
    axis = real(values, name, positive)
    require(np.ndim(axis) == 1 and np.size(axis) > 0, name + " must be a nonempty sequence")
    require(axis[1:] > axis[:-1], name + " must be strictly increasing")
    return axis


def phase_sweep(tau0: float, tau_h: float,
                tau_a_axis: Sequence[float],
                lambda_axis: Sequence[float]) -> PhaseGrid:
    """Evaluate losses and regimes over the product grid.

    Cells with ``lam > min(1, tau_h/tau_a)`` are marked infeasible (data,
    not an error).  The feasible cells are evaluated together, as one array
    spec, and give the same bits as evaluating each cell on its own.  The
    grid holds at most a million cells, checked before it is allocated.
    """
    tau0 = real_scalar(tau0, "tau0", positive=True)
    tau_h = real_scalar(tau_h, "tau_h", positive=True)
    ta_axis = _check_axis(tau_a_axis, "tau_a_axis", positive=True)
    lam_axis = _check_axis(lambda_axis, "lambda_axis")
    require(len(lam_axis) * len(ta_axis) <= _MAX_CELLS,
            "a phase grid holds at most {} cells, got {} overlaps x {} assistant precisions",
            _MAX_CELLS, len(lam_axis), len(ta_axis))
    cells = np.empty((len(lam_axis), len(ta_axis)), dtype=_CELL)  # regime: None
    cells["lam"], cells["tau_a"] = np.meshgrid(lam_axis, ta_axis, indexing="ij")
    ok = feasible(tau_h, cells["tau_a"], cells["lam"])
    cells["feasible"] = ok
    lam = cells["lam"][ok]
    spec = SignalSpec(tau_h=np.full(lam.shape, tau_h), tau_a=cells["tau_a"][ok], lam=lam)
    profile = loss_profile(tau0, spec)
    for name, value in vars(profile).items():
        cells[name] = np.nan
        cells[name][ok] = value
    cells["regime"][ok] = classify(profile)
    cells.flags.writeable = False
    return PhaseGrid(cells=cells)
