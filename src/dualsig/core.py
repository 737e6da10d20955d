"""Closed-form Gaussian losses for a decision-maker holding two signals.

Model: a scalar state ``Y ~ N(0, 1/tau0)`` is estimated under squared loss
from an own signal ``H`` (precision ``tau_h``) and an assistant signal ``A``
(precision ``tau_a``), both Gaussian and unbiased given ``Y``.  The signals
may share evidence; the overlap coefficient ``lam`` is the conditional
regression coefficient of ``A`` on ``H`` given ``Y``:

    lam = Cov(H, A | Y) / Var(H | Y),   0 <= lam <= min(tau_h / tau_a, 1).

Orthogonalizing ``A`` against ``H`` leaves the innovation signal
``(A - lam * H) / (1 - lam)``, whose precision

    tilde_tau = (1 - lam)**2 / (1/tau_a - lam**2 / tau_h)

is the only part of the assistant signal that matters under optimal use.
The prior is centred at 0: every expected loss below depends on precisions
alone, and a prior mean ``mu0`` only shifts the state, the signals and each
posterior mean by the same constant.

:func:`loss_profile` is the one entry point to the closed forms.  It
evaluates four expected losses, own-signal-only, assistant-only, the
Bayes-optimal combination, and the combination produced by a decision-maker
with correlation neglect, i.e. one who fuses the two signals as if they were
conditionally independent and thereby double-counts shared evidence:

    l_joint_cn = 1/T + 2*lam*tau_a / T**2,   T = tau0 + tau_h + tau_a,

and the marginal value of the assistant, into one :class:`LossProfile`.

All functions are pure and thread-safe.  Parameters are 64-bit floats, or
float64 arrays of points, on which every formula acts element-wise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ValidationError",
    "DegenerateDecompositionError",
    "Environment",
    "SignalSpec",
    "LossProfile",
    "require",
    "count",
    "real",
    "native",
    "finite_total",
    "feasible",
    "innovation_precision",
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


def require(ok, message: str, *values, error: type[ValidationError] = ValidationError) -> None:
    """Raise ``error`` unless ``ok`` (a bool or bool array) holds everywhere;
    ``message`` is formatted with ``values`` at the first failing element."""
    if not np.all(ok):
        i = np.flatnonzero(np.logical_not(ok))[0]
        raise error(message.format(*(np.broadcast_to(v, np.shape(ok)).flat[i] for v in values)))


def count(value, name: str, least: int) -> int:
    """``value`` as an int >= ``least``; a float is rejected, not truncated."""
    try:
        out = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if out < least:
        raise ValidationError(f"{name} must be >= {least}, got {out}")
    return out


def native(x):
    """``x`` as a float if it is 0-d, as numpy gives for float inputs;
    arrays pass through."""
    return x if np.ndim(x) else float(x)


def real(value, name: str, positive: bool = False):
    """``value`` as a float, or a float64 array if array-like; finite and,
    if ``positive``, strictly positive."""
    try:
        x = float(value) if np.ndim(value) == 0 else np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from exc
    require(np.isfinite(x), name + " must be finite, got {}", x)
    if positive:
        require(x > 0.0, name + " must be strictly positive, got {}", x)
    return x


def finite_total(total, name: str):
    """``total`` if finite everywhere, else a :class:`ValidationError` naming it:
    a loss or threshold computed from an overflowed total would read 0 or inf."""
    require(np.isfinite(total), name + " = {} is not finite; the precisions are too large",
            total)
    return total


@np.errstate(over="ignore")  # tau_h/tau_a may overflow to inf; the bound is then 1
def feasible(tau_h, tau_a, lam):
    """The feasibility rule ``0 <= lam <= min(tau_h/tau_a, 1)``, element-wise."""
    return (lam >= 0.0) & (lam <= np.minimum(tau_h / tau_a, 1.0))


@dataclass(frozen=True)
class Environment:
    """Prior over the state: mean 0, precision ``tau0`` (1/variance)."""

    tau0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau0", real(self.tau0, "tau0", positive=True))


@dataclass(frozen=True)
class SignalSpec:
    """Joint law of the two signals given the state: (tau_h, tau_a, lam).

    Floats, or three float arrays of one shape holding one spec per element.
    Accepts the closed region :func:`feasible`.  Operations that need the
    innovation decomposition additionally require ``lam < 1`` and raise
    :class:`DegenerateDecompositionError` otherwise.
    """

    tau_h: float | np.ndarray
    tau_a: float | np.ndarray
    lam: float | np.ndarray

    def __post_init__(self) -> None:
        tau_h = real(self.tau_h, "tau_h", positive=True)
        tau_a = real(self.tau_a, "tau_a", positive=True)
        lam = real(self.lam, "lam")
        if not np.shape(tau_h) == np.shape(tau_a) == np.shape(lam):
            raise ValidationError("tau_h, tau_a and lam must be floats or arrays of one shape")
        require(lam >= 0.0, "lam must be nonnegative, got {}", lam)
        require(feasible(tau_h, tau_a, lam),
                "overlap lam={} exceeds the feasibility bound min(tau_h/tau_a, 1) "
                "(tau_h={}, tau_a={})", lam, tau_h, tau_a)
        for name, value in (("tau_h", tau_h), ("tau_a", tau_a), ("lam", lam)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class LossProfile:
    """The four expected losses plus the marginal value of the assistant
    (floats, or arrays checked element-wise)."""

    l_human: float | np.ndarray
    l_ai: float | np.ndarray
    l_joint_bayes: float | np.ndarray
    l_joint_cn: float | np.ndarray
    v_marginal: float | np.ndarray

    def __post_init__(self) -> None:
        # exact where the closed forms round monotonically, relative where two
        # formulas meet, so the checks keep their force at every loss scale
        rel = 1e-12
        for name in ("l_human", "l_ai", "l_joint_bayes", "l_joint_cn", "v_marginal"):
            value = real(getattr(self, name), name)
            require(value >= 0.0, name + " must be nonnegative, got {}", value)
        require(self.l_joint_bayes <= self.l_human,
                "l_joint_bayes cannot exceed l_human")
        require(self.l_joint_bayes <= self.l_joint_cn * (1.0 + rel),
                "l_joint_bayes cannot exceed l_joint_cn")
        require(abs(self.v_marginal - (self.l_human - self.l_joint_bayes)) <= rel * self.l_human,
                "v_marginal must equal l_human - l_joint_bayes")


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value fails a check
def innovation_precision(spec: SignalSpec):
    """Precision of the assistant's innovation component.

    ``tilde_tau = (1 - lam)**2 / (1/tau_a - lam**2 / tau_h)``; equals
    ``tau_a`` at lam = 0.  Where the denominator cancels to <= 0 (on the
    boundary ``lam = tau_h/tau_a`` with ``tau_a`` a few ulps above ``tau_h``;
    it is positive for every feasible ``lam < 1``), the equal form
    ``((1-lam)*(1+lam) + lam**2*(tau_h-tau_a)/tau_h) / tau_a`` replaces it.
    Squares use ``float_power``, the C library's pow that Python floats use:
    numpy's ``x**2`` multiplies, which differs in the last bit at times.
    """
    lam, tau_h, tau_a = spec.lam, spec.tau_h, spec.tau_a
    require(lam < 1.0, "innovation decomposition requires lam < 1, got lam={}", lam,
            error=DegenerateDecompositionError)
    lam2 = np.float_power(lam, 2.0)
    den = 1.0 / tau_a - lam2 / tau_h
    den = np.where(den > 0.0, den,
                   ((1.0 - lam) * (1.0 + lam) + lam2 * (tau_h - tau_a) / tau_h) / tau_a)
    require(den > 0.0, "innovation-variance denominator 1/tau_a - lam^2/tau_h = {} "
            "must be strictly positive", den, error=DegenerateDecompositionError)
    return native(np.float_power(1.0 - lam, 2.0) / den)


@np.errstate(over="ignore")
def loss_profile(env: Environment, spec: SignalSpec) -> LossProfile:
    """The four expected losses and the marginal value for a spec (floats or
    arrays); the one evaluation of the closed forms.

    * ``l_human = 1/(tau0 + tau_h)``: the own signal alone;
    * ``l_ai = 1/(tau0 + tau_a)``: the assistant signal alone;
    * ``l_joint_bayes = 1/(tau0 + tau_h + tilde_tau)``: the Bayes-optimal
      combination, to which only the innovation adds precision;
    * ``l_joint_cn = 1/T + 2*lam*tau_a/T**2``: correlation neglect, whose
      second term, the overlap penalty, vanishes at lam = 0;
    * ``v_marginal = l_human - l_joint_bayes``, in [0, l_human).

    Covers the whole closed feasibility region: at full overlap (lam = 1)
    the assistant signal carries no innovation, so the optimal combination
    equals the own-signal posterior and the marginal value is 0.  A total
    that overflows raises :class:`ValidationError` naming it.
    """
    lh = 1.0 / finite_total(env.tau0 + spec.tau_h, "tau0 + tau_h")
    full = spec.lam == 1.0
    # lam = 0 stands in where lam = 1; those cells keep lh instead.
    innovating = replace(spec, lam=native(np.where(full, 0.0, spec.lam)))
    ljb = native(np.where(full, lh, 1.0 / finite_total(
        env.tau0 + spec.tau_h + innovation_precision(innovating), "tau0 + tau_h + tilde_tau")))
    T = env.tau0 + spec.tau_h + spec.tau_a
    return LossProfile(
        l_human=lh,
        l_ai=1.0 / finite_total(env.tau0 + spec.tau_a, "tau0 + tau_a"),
        l_joint_bayes=ljb,
        l_joint_cn=1.0 / T + 2.0 * spec.lam * spec.tau_a / finite_total(T * T, "T**2"),
        v_marginal=lh - ljb,
    )


def cn_posterior_mean(env: Environment, spec: SignalSpec, h, a):
    """Posterior mean under the (mistaken) independent-signals model.

    ``(tau_h*h + tau_a*a) / (tau0 + tau_h + tau_a)``.
    Broadcasts over array-valued ``h`` and ``a``.
    """
    T = env.tau0 + spec.tau_h + spec.tau_a
    return (spec.tau_h * h + spec.tau_a * a) / T


def bayes_posterior_mean(env: Environment, spec: SignalSpec, h, a):
    """True posterior mean; extracts the innovation before fusing.

    With ``innov = (a - lam*h) / (1 - lam)`` of precision ``tilde_tau``:
    ``(tau_h*h + tilde_tau*innov) / (tau0 + tau_h + tilde_tau)``.
    Broadcasts over array-valued ``h`` and ``a``.
    """
    tilde = innovation_precision(spec)
    innov = (a - spec.lam * h) / (1.0 - spec.lam)
    total = env.tau0 + spec.tau_h + tilde
    return (spec.tau_h * h + tilde * innov) / total

