"""Closed-form Gaussian losses for a decision-maker holding two signals.

Model: a scalar state ``Y ~ N(mu0, 1/tau0)`` is estimated under squared loss
from an own signal ``H`` (precision ``tau_h``) and an assistant signal ``A``
(precision ``tau_a``), both Gaussian and unbiased given ``Y``.  The signals
may share evidence; the overlap coefficient ``lam`` is the conditional
regression coefficient of ``A`` on ``H`` given ``Y``:

    lam = Cov(H, A | Y) / Var(H | Y),   0 <= lam <= min(tau_h / tau_a, 1).

Orthogonalizing ``A`` against ``H`` leaves the innovation signal
``(A - lam * H) / (1 - lam)``, whose precision

    tilde_tau = (1 - lam)**2 / (1/tau_a - lam**2 / tau_h)

is the only part of the assistant signal that matters under optimal use.

Four expected losses are exposed: own-signal-only, assistant-only, the
Bayes-optimal combination, and the combination produced by a decision-maker
with correlation neglect, i.e. one who fuses the two signals as if they were
conditionally independent and thereby double-counts shared evidence:

    loss_joint_cn = 1/T + 2*lam*tau_a / T**2,   T = tau0 + tau_h + tau_a.

All functions are pure and thread-safe; parameters are 64-bit floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ValidationError",
    "DegenerateDecompositionError",
    "Environment",
    "SignalSpec",
    "LossProfile",
    "innovation_precision",
    "loss_human",
    "loss_ai",
    "loss_joint_bayes",
    "loss_joint_cn",
    "marginal_value",
    "loss_profile",
    "cn_posterior_mean",
    "bayes_posterior_mean",
]


class ValidationError(ValueError):
    """An input violates a documented invariant (never clamped silently)."""


class DegenerateDecompositionError(ValidationError):
    """The innovation decomposition does not exist for these parameters.

    Raised when ``lam`` is not in [0, 1) or the innovation variance
    denominator ``1/tau_a - lam**2 / tau_h`` is not strictly positive.
    """


def _require_finite(value: float, name: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {x}")
    return x


def _finite_total(total: float, name: str) -> float:
    # A loss divided by an overflowed total would read as a silent 0.
    if not math.isfinite(total):
        raise ValidationError(f"{name} = {total} is not finite; the precisions are too large")
    return total


def _require_positive(value: float, name: str) -> float:
    x = _require_finite(value, name)
    if x <= 0.0:
        raise ValidationError(f"{name} must be strictly positive, got {x}")
    return x


@dataclass(frozen=True)
class Environment:
    """Prior over the state: mean ``mu0``, precision ``tau0`` (1/variance)."""

    mu0: float
    tau0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu0", _require_finite(self.mu0, "mu0"))
        object.__setattr__(self, "tau0", _require_positive(self.tau0, "tau0"))


@dataclass(frozen=True)
class SignalSpec:
    """Joint law of the two signals given the state: (tau_h, tau_a, lam).

    Accepts the closed feasibility region ``0 <= lam <= min(tau_h/tau_a, 1)``.
    Operations that need the innovation decomposition additionally require
    ``lam < 1`` and a strictly positive innovation-variance denominator and
    raise :class:`DegenerateDecompositionError` otherwise.
    """

    tau_h: float
    tau_a: float
    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau_h", _require_positive(self.tau_h, "tau_h"))
        object.__setattr__(self, "tau_a", _require_positive(self.tau_a, "tau_a"))
        object.__setattr__(self, "lam", _require_finite(self.lam, "lam"))
        if self.lam < 0.0:
            raise ValidationError(f"lam must be nonnegative, got {self.lam}")
        bound = min(self.tau_h / self.tau_a, 1.0)
        if self.lam > bound:
            raise ValidationError(
                f"overlap lam={self.lam} exceeds the feasibility bound "
                f"min(tau_h/tau_a, 1) = {bound} (tau_h={self.tau_h}, tau_a={self.tau_a})"
            )

    def innovation_denominator(self) -> float:
        """``1/tau_a - lam**2 / tau_h``; positive iff the decomposition exists."""
        return 1.0 / self.tau_a - self.lam ** 2 / self.tau_h


@dataclass(frozen=True)
class LossProfile:
    """The four expected losses plus the marginal value of the assistant."""

    l_human: float
    l_ai: float
    l_joint_bayes: float
    l_joint_cn: float
    v_marginal: float

    def __post_init__(self) -> None:
        tol = 1e-9
        for name in ("l_human", "l_ai", "l_joint_bayes", "l_joint_cn", "v_marginal"):
            value = _require_finite(getattr(self, name), name)
            if value < -tol:
                raise ValidationError(f"{name} must be nonnegative, got {value}")
        if self.l_joint_bayes > self.l_human + tol:
            raise ValidationError("l_joint_bayes cannot exceed l_human")
        if self.l_joint_bayes > self.l_joint_cn + tol:
            raise ValidationError("l_joint_bayes cannot exceed l_joint_cn")
        if abs(self.v_marginal - (self.l_human - self.l_joint_bayes)) > tol:
            raise ValidationError("v_marginal must equal l_human - l_joint_bayes")


def innovation_precision(spec: SignalSpec) -> float:
    """Precision of the assistant's innovation component.

    ``tilde_tau = (1 - lam)**2 / (1/tau_a - lam**2 / tau_h)``; equals
    ``tau_a`` at lam = 0.
    """
    if spec.lam >= 1.0:
        raise DegenerateDecompositionError(
            f"innovation decomposition requires lam < 1, got lam={spec.lam}"
        )
    den = spec.innovation_denominator()
    if den <= 0.0:
        raise DegenerateDecompositionError(
            f"innovation-variance denominator 1/tau_a - lam^2/tau_h = {den} "
            "must be strictly positive"
        )
    return (1.0 - spec.lam) ** 2 / den


def loss_human(env: Environment, spec: SignalSpec) -> float:
    """Expected loss using the own signal alone: ``1 / (tau0 + tau_h)``."""
    return 1.0 / _finite_total(env.tau0 + spec.tau_h, "tau0 + tau_h")


def loss_ai(env: Environment, spec: SignalSpec) -> float:
    """Expected loss using the assistant signal alone: ``1 / (tau0 + tau_a)``."""
    return 1.0 / _finite_total(env.tau0 + spec.tau_a, "tau0 + tau_a")


def loss_joint_bayes(env: Environment, spec: SignalSpec) -> float:
    """Expected loss of the Bayes-optimal combination of both signals.

    Equals ``1 / (tau0 + tau_h + tilde_tau)``: only the innovation part of
    the assistant signal adds precision.
    """
    return 1.0 / _finite_total(env.tau0 + spec.tau_h + innovation_precision(spec),
                               "tau0 + tau_h + tilde_tau")


def loss_joint_cn(env: Environment, spec: SignalSpec) -> float:
    """Expected loss under correlation neglect: ``1/T + 2*lam*tau_a/T**2``.

    The second term is the overlap penalty; it vanishes at lam = 0, where
    treating the signals as independent is correct.  Defined on the whole
    closed feasibility region (no innovation decomposition involved).
    """
    T = env.tau0 + spec.tau_h + spec.tau_a
    return 1.0 / T + 2.0 * spec.lam * spec.tau_a / _finite_total(T * T, "T**2")


def marginal_value(env: Environment, spec: SignalSpec) -> float:
    """Risk reduction from adding the assistant signal under optimal use.

    ``1/(tau0 + tau_h) - 1/(tau0 + tau_h + tilde_tau)``, in [0, loss_human).
    """
    return loss_human(env, spec) - loss_joint_bayes(env, spec)


def loss_profile(env: Environment, spec: SignalSpec) -> LossProfile:
    """All four losses and the marginal value for one parameter point.

    Covers the whole closed feasibility region: at full overlap (lam = 1)
    the assistant signal carries no innovation, so the optimal combination
    equals the own-signal posterior and the marginal value is 0.
    """
    lh = loss_human(env, spec)
    ljb = lh if spec.lam == 1.0 else loss_joint_bayes(env, spec)
    return LossProfile(
        l_human=lh,
        l_ai=loss_ai(env, spec),
        l_joint_bayes=ljb,
        l_joint_cn=loss_joint_cn(env, spec),
        v_marginal=lh - ljb,
    )


def cn_posterior_mean(env: Environment, spec: SignalSpec, h, a):
    """Posterior mean under the (mistaken) independent-signals model.

    ``(tau0*mu0 + tau_h*h + tau_a*a) / (tau0 + tau_h + tau_a)``.
    Broadcasts over array-valued ``h`` and ``a``.
    """
    T = env.tau0 + spec.tau_h + spec.tau_a
    return (env.tau0 * env.mu0 + spec.tau_h * h + spec.tau_a * a) / T


def bayes_posterior_mean(env: Environment, spec: SignalSpec, h, a):
    """True posterior mean; extracts the innovation before fusing.

    With ``innov = (a - lam*h) / (1 - lam)`` of precision ``tilde_tau``:
    ``(tau0*mu0 + tau_h*h + tilde_tau*innov) / (tau0 + tau_h + tilde_tau)``.
    Broadcasts over array-valued ``h`` and ``a``.
    """
    tilde = innovation_precision(spec)
    innov = (a - spec.lam * h) / (1.0 - spec.lam)
    total = env.tau0 + spec.tau_h + tilde
    return (env.tau0 * env.mu0 + spec.tau_h * h + tilde * innov) / total

