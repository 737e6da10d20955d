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
float64 arrays of points, on which every formula acts element-wise; they are
read from integers and floats only, since a bool, text, bytes or a value
boxed in an object array is not a number.
"""

from __future__ import annotations

import operator
import reprlib
import typing
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ValidationError",
    "SignalSpec",
    "LossProfile",
    "require",
    "count",
    "indices",
    "typed",
    "real",
    "real_scalar",
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


def require(ok, message: str, *values) -> None:
    """Raise :class:`ValidationError` unless ``ok`` (a bool or bool array) holds
    everywhere; ``message`` is formatted with ``values`` at the first failing element."""
    if not (ok is True or ok is np.True_ or np.all(ok)):  # a scalar skips the reduction
        i = np.flatnonzero(np.logical_not(ok))[0]
        raise ValidationError(message.format(*(np.broadcast_to(v, np.shape(ok)).flat[i]
                                               for v in values)))


def count(value, name: str, least: int) -> int:
    """``value`` as an int >= ``least``; a float is rejected, not truncated,
    and a bool is not a number."""
    try:
        if isinstance(value, bool):  # numpy's bool already fails operator.index
            raise TypeError
        out = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if out < least:
        raise ValidationError(f"{name} must be >= {least}, got {out}")
    return out


def indices(value, name: str, size: int) -> np.ndarray:
    """``value``, distinct integers in ``[0, size)``, as a sorted 1-D int64
    array; a sorted int64 array comes back as itself, not a copy.  Other
    shapes, floats and bools are rejected, never flattened or cast; [] is empty."""
    try:  # np.asarray raises ValueError for a ragged nesting too
        idx = np.asarray(value if isinstance(value, np.ndarray) or not np.iterable(value)
                         else list(value))
        if idx.ndim != 1 or idx.size and idx.dtype.kind not in "iu":
            raise ValueError
    except ValueError:
        raise ValidationError(f"{name} indices must form a 1-D sequence of integers, "
                              f"got {reprlib.repr(value)}") from None
    # Checked in the input's dtype, which int64 may wrap; package sets arrive sorted.
    if not np.all(idx[1:] > idx[:-1]):
        idx = np.sort(idx)
        if np.any(idx[1:] == idx[:-1]):
            raise ValidationError(f"{name} indices must be distinct")
    if idx.size and (idx[0] < 0 or idx[-1] >= size):
        raise ValidationError(f"{name} indices must lie in [0, {size}), got {idx[0]} to {idx[-1]}")
    return idx.astype(np.int64, copy=False)


def typed(value, kind, name: str):
    """``value`` if it is an instance of ``kind``, a class or a union of
    classes, else a :class:`ValidationError` naming ``name``: a library
    object read where a wrong one would fail later as an ``AttributeError``."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in typing.get_args(kind) or (kind,))
        raise ValidationError(f"{name} must be {names}, got {reprlib.repr(value)}")
    return value


def native(x):
    """``x`` as a float if it is 0-d, as numpy gives for float inputs;
    arrays pass through."""
    return x if np.ndim(x) else float(x)


def real(value, name: str, positive: bool = False):
    """``value`` as a float, or a float64 array if array-like; finite and,
    if ``positive``, strictly positive.  Only an integer or float dtype is a
    number, at every shape: text is not, even where ``float`` would parse
    it, nor is a bool, bytes or a value boxed in an object array."""
    try:
        raw = np.asarray(value)
        # float() parses text, drops an imaginary part, reads a str in an object array
        if raw.dtype.kind not in "iuf":
            raise TypeError("not a real number")
        x = float(value) if raw.ndim == 0 else np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from exc
    require(np.isfinite(x), name + " must be finite, got {}", x)
    if positive:
        require(x > 0.0, name + " must be strictly positive, got {}", x)
    return x


def real_scalar(value, name: str, positive: bool = False) -> float:
    """:func:`real` for a parameter that is one number: an array is rejected."""
    x = real(value, name, positive)
    if isinstance(x, np.ndarray):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
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
class SignalSpec:
    """Joint law of the two signals given the state: (tau_h, tau_a, lam).

    Floats, or three float arrays of one shape holding one spec per element;
    an array is stored as a read-only copy, so the caller's stays its own.
    Accepts the closed region :func:`feasible`.  :func:`innovation_precision`
    additionally requires ``lam < 1`` and raises :class:`ValidationError`
    otherwise, before any Monte Carlo draw of the spec.
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
            if isinstance(value, np.ndarray):  # a copy of its own, which no caller can change
                value = value.copy()
                value.flags.writeable = False
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
def _innovation_precision(tau_h, tau_a, lam):
    """``tilde_tau`` of read values with ``lam < 1``; squares are products,
    which IEEE 754 rounds correctly on every platform."""
    lam2 = lam * lam
    den = 1.0 / tau_a - lam2 / tau_h
    den = np.where(den > 0.0, den,
                   ((1.0 - lam) * (1.0 + lam) + lam2 * (tau_h - tau_a) / tau_h) / tau_a)
    require(den > 0.0, "innovation-variance denominator 1/tau_a - lam^2/tau_h = {} "
            "must be strictly positive", den)
    return native((1.0 - lam) * (1.0 - lam) / den)


def innovation_precision(spec: SignalSpec):
    """Precision of the assistant's innovation component.

    ``tilde_tau = (1 - lam)**2 / (1/tau_a - lam**2 / tau_h)``; equals
    ``tau_a`` at lam = 0.  Where the denominator cancels to <= 0 (on the
    boundary ``lam = tau_h/tau_a`` with ``tau_a`` a few ulps above ``tau_h``;
    it is positive for every feasible ``lam < 1``), the equal form
    ``((1-lam)*(1+lam) + lam**2*(tau_h-tau_a)/tau_h) / tau_a`` replaces it.
    ``lam >= 1``, or a denominator still <= 0, raises :class:`ValidationError`.
    """
    require(spec.lam < 1.0, "innovation decomposition requires lam < 1, got lam={}", spec.lam)
    return _innovation_precision(spec.tau_h, spec.tau_a, spec.lam)


@np.errstate(over="ignore")
def loss_profile(tau0: float, spec: SignalSpec) -> LossProfile:
    """The four expected losses and the marginal value for the prior
    precision ``tau0``, one finite positive number, and a spec (floats or
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
    tau0 = real_scalar(tau0, "tau0", positive=True)
    typed(spec, SignalSpec, "spec")
    lh = 1.0 / finite_total(tau0 + spec.tau_h, "tau0 + tau_h")
    full = spec.lam == 1.0
    # lam = 0 stands in where lam = 1; those cells keep lh instead.
    tilde = _innovation_precision(spec.tau_h, spec.tau_a, np.where(full, 0.0, spec.lam))
    ljb = native(np.where(full, lh, 1.0 / finite_total(
        tau0 + spec.tau_h + tilde, "tau0 + tau_h + tilde_tau")))
    T = tau0 + spec.tau_h + spec.tau_a
    return LossProfile(
        l_human=lh,
        l_ai=1.0 / finite_total(tau0 + spec.tau_a, "tau0 + tau_a"),
        l_joint_bayes=ljb,
        l_joint_cn=1.0 / T + 2.0 * spec.lam * spec.tau_a / finite_total(T * T, "T**2"),
        v_marginal=lh - ljb,
    )


def cn_posterior_mean(tau0: float, spec: SignalSpec, h, a):
    """Posterior mean under the (mistaken) independent-signals model.

    ``(tau_h*h + tau_a*a) / (tau0 + tau_h + tau_a)``.
    Broadcasts over array-valued ``h`` and ``a``.
    """
    d = spec.tau_h * h + spec.tau_a * a
    d /= tau0 + spec.tau_h + spec.tau_a
    return d


def bayes_posterior_mean(tau0: float, spec: SignalSpec, h, a):
    """True posterior mean; extracts the innovation before fusing.

    With ``innov = (a - lam*h) / (1 - lam)`` of precision ``tilde_tau``:
    ``(tau_h*h + tilde_tau*innov) / (tau0 + tau_h + tilde_tau)``.
    Broadcasts over array-valued ``h`` and ``a``.
    """
    tilde = innovation_precision(spec)
    d = a - spec.lam * h
    d /= 1.0 - spec.lam
    d *= tilde
    d += spec.tau_h * h
    d /= tau0 + spec.tau_h + tilde
    return d

