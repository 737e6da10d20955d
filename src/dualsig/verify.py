"""Verification suites: every closed form and identity against an oracle.

Suites
------
Each row names the ``RngHandle(seed, stream)`` of every draw, with ``s`` the seed of
:func:`run`, ``d`` :func:`~dualsig.rng.derive_seed` and ``t.i`` ``split(i)`` of stream ``t``:

closed_forms  the four Gaussian losses against paired Monte Carlo estimates;
              cell ``i`` of the grid, counted from 1, ``(s, 0.i)``
gap           the gap identity, exactly on random discrete problems, problem ``i < 100``
              ``(s, 10.i)`` and its rule ``(s, 10.(1000+i))``, and by Monte Carlo for
              the Gaussian correlation-neglect rule, specs ``(d(s, 7), 11)``, penalty
              ``(s, 3)`` at the reference spec and ``(d(s, 8, i), 3)`` at spec ``i``
voi           discrete value of information against brute force, a worked
              clinical example, and information-theoretic identities; no draws
lemma         simulated conditional moments, spec ``i`` ``(d(s, 20, i), 0)``; the
              three-point identity, problem ``i < 50`` ``(s, 21.i)`` and its rule
              ``(s, 21.(500+i))``; conditional-mean optimality against
              :mod:`dualsig.voi`'s brute-force oracle, its log-loss value in
              bits, ``(s, 21.999)``; and
              the cue-pool overlap ratio, world ``(d(s, 30), 0)`` and assistant set
              ``(d(s, 31), 1)``, both drawn in :mod:`dualsig.cueworld`

:func:`run` returns one :class:`Check` per comparison, keyed by a name
unique within the suite; a check does not repeat the suite it was asked
for.  :attr:`Check.ok` is the one pass rule: the oracles in
:mod:`dualsig.montecarlo` and :mod:`dualsig.bregman` return measurements
only, and each suite here gives them their tolerance.  The Monte Carlo
suites (``closed_forms``, ``gap``, ``lemma``) need ``n >= 2`` draws, the
fewest with a standard error.  Before any work, ``run`` rejects an ``n``
that is not such an integer (``voi`` takes ``n >= 0``), a ``seed`` outside
``[0, 2**64)``, a ``tau0``/``tau_h`` that is not a finite positive real and
a ``sigma_mult`` that is not a finite nonnegative one, text and arrays
included (read by :func:`dualsig.core.count` and ``real_scalar``).  The
cells of ``closed_forms`` and the tasks of ``gap`` run on
:func:`montecarlo.parallel_map`; their rows come out in the same order and
with the same bytes whatever the worker count.  The ``lemma`` moments
stream through :func:`montecarlo.accumulate`, so their memory does not
grow with ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bregman, cueworld, montecarlo, voi
from .core import SignalSpec, ValidationError, count, real_scalar, require
from .rng import RngHandle, derive_seed

__all__ = ["Check", "SUITES", "run"]


@dataclass(frozen=True)
class Check:
    """One comparison, passing iff ``|observed - expected| <= tol``.

    A skipped comparison has no observed value and counts as passing.
    """

    name: str
    observed: float | None = None
    expected: float | None = None
    tol: float | None = None

    @property
    def delta(self) -> float | None:
        return None if self.observed is None else abs(self.observed - self.expected)

    @property
    def ok(self) -> bool:
        return self.observed is None or self.delta <= self.tol


def _closed_forms(n, seed, sigma_mult, tau0, tau_h):
    tau_a_axis = [round(0.2 * i, 10) for i in range(1, 11)]
    lambda_axis = [0.0, 0.25, 0.45, 0.5, 0.67, 0.75, 0.85]
    for tau_a, lam, losses in montecarlo.verify_closed_forms(
            tau0, tau_h, tau_a_axis, lambda_axis, n, RngHandle(seed, stream=0)):
        cell = f"tauA={tau_a:g},lam={lam:g}"
        if losses is None:
            yield Check(f"skip[{cell}]")
            continue
        for rule, est, closed_form in losses:
            yield Check(f"loss[{rule}][{cell}]", est.mean, closed_form, sigma_mult * est.std_error)


# the name of each loss in the rows of the discrete checks
_LOSSES = (("squared", voi.QuadraticLoss()), ("negative_entropy", voi.LogLoss()))


def _random_discrete_problem(rng: RngHandle, loss):
    """Small random joint over the states 0, 1 and 2x2 or 3x2 signal values."""
    n_h = 2 + (rng.uniforms(1)[0] > 0.5)
    shape = (2, int(n_h), 2)
    raw = rng.uniforms(int(np.prod(shape))).reshape(shape)
    probs = raw / raw.sum()
    return voi.DiscreteProblem(states=(0.0, 1.0), probs=probs, loss=loss)


def _random_rule(problem, rng: RngHandle):
    """A random decision table: per signal pair, a scalar in [-0.5, 1.5) under
    quadratic loss, a distribution over the states under log loss."""
    quadratic = isinstance(problem.loss, voi.QuadraticLoss)
    shape = problem.signal_shape + (1 if quadratic else len(problem.states),)
    u = rng.uniforms(int(np.prod(shape))).reshape(shape)
    return 2.0 * u - 0.5 if quadratic else u / u.sum(axis=-1, keepdims=True)


def _worst_discrete_residual(rng: RngHandle, problems: int, rule_offset: int, loss) -> float:
    """Largest ``|residual|`` of the exact gap identity under ``loss`` over ``problems``
    random problems (substreams ``i``) and rules (substreams ``rule_offset + i``)."""
    worst = 0.0
    for i in range(problems):
        problem = _random_discrete_problem(rng.split(i), loss)
        rule = _random_rule(problem, rng.split(rule_offset + i))
        worst = max(worst, abs(bregman.gap_check_discrete(problem, rule).residual))
    return worst


def _random_feasible_specs(seed: int, specs: int):
    rng = RngHandle(seed, stream=11)
    out = []
    for _ in range(specs):
        tau0, tau_h, tau_a, frac = rng.uniforms(4)
        tau0 = 0.2 + 2.0 * tau0
        tau_h = 0.2 + 2.0 * tau_h
        tau_a = 0.1 + 2.0 * tau_a
        lam = (0.05 + 0.85 * frac) * min(tau_h / tau_a, 1.0)
        out.append((tau0, SignalSpec(tau_h=tau_h, tau_a=tau_a, lam=lam)))
    return out


def _discrete_residuals(seed: int) -> list[float]:
    """Worst exact gap residual under each loss of ``_LOSSES``."""
    rng = RngHandle(seed, stream=10)
    return [_worst_discrete_residual(rng, 100, 1000, loss) for _, loss in _LOSSES]


def _gap(n, seed, sigma_mult, tau0, tau_h):
    specs = [(1.0, SignalSpec(tau_h=1.0, tau_a=1.0, lam=0.5), seed)]
    specs += [(tau0_i, spec_i, derive_seed(seed, 8, i)) for i, (tau0_i, spec_i)
              in enumerate(_random_feasible_specs(derive_seed(seed, 7), 20))]
    # The discrete residuals run in this process, beside the workers, so that
    # an in-process tracer still counts every gap_check_discrete call.
    worst, report, *reports = montecarlo.parallel_map(
        [(_discrete_residuals, seed)]
        + [(bregman.gap_check_gaussian_cn, tau0_i, spec_i, n, RngHandle(seed_i, stream=3))
           for tau0_i, spec_i, seed_i in specs], local=1)

    for (name, _), residual in zip(_LOSSES, worst):
        yield Check(f"discrete_residual[{name}]", residual, 0.0, 1e-12)
    yield Check("gaussian_penalty[1,1,1,0.5]", report.penalty, 1.0 / 63.0,
                sigma_mult * report.penalty_se)
    for i, report in enumerate(reports):
        yield Check(f"gaussian_residual[{i}]", report.residual, 0.0, sigma_mult * report.penalty_se)


def _mutual_information_bits(problem, signals) -> float:
    """I(state; signals) from entropies (oracle independent of risk path)."""
    axes = problem.signal_axes(signals)
    drop = tuple(ax for ax in range(1, problem.probs.ndim) if ax not in axes)
    flat = problem.probs.sum(axis=drop).reshape(len(problem.states), -1)
    p_s = flat.sum(axis=0).tolist()
    total = 0.0
    for row, p_y in zip(flat.tolist(), flat.sum(axis=1).tolist()):
        for p, p_sj in zip(row, p_s):
            if p > 0.0:
                total += p * math.log2(p / (p_y * p_sj))
    return total


def _voi(n, seed, sigma_mult, tau0, tau_h):
    for target in (0.0, 0.3, 1.0, 2.0, 10.0):
        problem = voi.ratio_construction(target)
        report = voi.marginal_value_discrete(problem)
        yield Check(f"ratio_target[{target:g}]", report.ratio, target, 1e-9)
        yield Check(f"ratio_bruteforce[{target:g}]", voi.brute_force_voi(problem).ratio,
                    report.ratio, 1e-9)

    single, both = voi.posterior_two_tests(0.001, 0.7, 0.01)
    yield Check("clinical_single_positive", single, 0.0655, 5e-4)
    yield Check("clinical_both_positive", both, 0.8306, 5e-4)

    problem = voi.xor_construction(0.25)
    rep = voi.marginal_value_discrete(problem)
    for signals, value in ((("h",), rep.v_h), (("a",), rep.v_a), (voi.SIGNALS, rep.v_joint)):
        yield Check(f"mi_identity[{','.join(signals)}]", value,
                    _mutual_information_bits(problem, signals), 1e-12)

    quad = voi.DiscreteProblem(
        states=(-1.0, 0.5, 2.0),
        probs=np.array([[[0.10, 0.05, 0.05], [0.02, 0.08, 0.03]],
                        [[0.06, 0.04, 0.10], [0.07, 0.03, 0.04]],
                        [[0.05, 0.09, 0.02], [0.08, 0.05, 0.04]]]),
        loss=voi.QuadraticLoss())
    prior = quad.probs.sum(axis=(1, 2))
    y = np.array([-1.0, 0.5, 2.0])
    mean_y = prior @ y
    var_y = float(prior @ (y * y) - mean_y * mean_y)
    yield Check("variance_reduction_identity", voi.marginal_value_discrete(quad).v_joint,
                var_y - voi.bayes_risk(quad, ("h", "a")), 1e-12)


def _moment_stats(spec: SignalSpec) -> dict:
    """Per-draw statistics whose means give the conditional moments of
    ``(h, a)`` given ``y`` and the innovation correlation."""
    def innov(y, h, a):
        return ((a - y) - spec.lam * (h - y)) / (1.0 - spec.lam)

    def innov_sq(y, h, a):
        d = innov(y, h, a)
        return d * d

    return {
        "var_h_given_y": lambda y, h, a: (h - y) * (h - y),
        "var_a_given_y": lambda y, h, a: (a - y) * (a - y),
        "cov_ha_given_y": lambda y, h, a: (h - y) * (a - y),
        "eh": lambda y, h, a: h - y,
        "innov": innov,
        "innov_sq": innov_sq,
        "eh_innov": lambda y, h, a: (h - y) * innov(y, h, a),
    }


def _lemma(n, seed, sigma_mult, tau0, tau_h):
    for i, spec in enumerate((SignalSpec(1.0, 1.0, 0.5),
                              SignalSpec(2.0, 1.0, 0.5),
                              SignalSpec(1.5, 0.8, 0.3))):
        est = montecarlo.accumulate(1.0, spec, n, RngHandle(derive_seed(seed, 20, i), stream=0),
                                    _moment_stats(spec))
        for name, expected in (("var_h_given_y", 1.0 / spec.tau_h),
                               ("var_a_given_y", 1.0 / spec.tau_a),
                               ("cov_ha_given_y", spec.lam / spec.tau_h)):
            yield Check(f"{name}[spec{i}]", est[name].mean, expected,
                        sigma_mult * est[name].std_error)
        # Innovation noise is orthogonal to own-signal noise given y, so their
        # sample correlation should vanish at the 1/sqrt(n) scale.
        m_h, m_i = est["eh"].mean, est["innov"].mean
        corr = ((est["eh_innov"].mean - m_h * m_i)
                / math.sqrt((est["var_h_given_y"].mean - m_h * m_h)
                            * (est["innov_sq"].mean - m_i * m_i)))
        se = 1.0 / math.sqrt(n)
        yield Check(f"corr_innovation_h_given_y[spec{i}]", corr, 0.0, sigma_mult * se)

    rng = RngHandle(seed, stream=21)
    for name, loss in _LOSSES:
        # the three-point identity residual equals the gap residual up to sign
        yield Check(f"three_point_residual[{name}]",
                    _worst_discrete_residual(rng, 50, 500, loss), 0.0, 1e-12)
        yield Check(f"conditional_mean_optimal[{name}]", voi.conditional_mean_optimality(
            _random_discrete_problem(rng.split(999), loss)), 0.0, 1e-9)

    plan = cueworld.SamplingPlan(a=0.3, m=0.5, k=0.25, h_total=0.5)
    for mode in cueworld.MODES:
        world = cueworld.build_world(200, plan, mode=mode, seed=derive_seed(seed, 30))
        ai = cueworld.sample_ai_set(world, plan.a, seed=derive_seed(seed, 31))
        yield Check(f"overlap_ratio_vs_covariance[{mode}]",
                    cueworld.empirical_lambda(world, ai),
                    cueworld.covariance_lambda(world, ai), 1e-13)


SUITES = {
    "closed_forms": _closed_forms,
    "gap": _gap,
    "voi": _voi,
    "lemma": _lemma,
}


def run(suite: str, *, n: int, seed: int, sigma_mult: float, tau0: float,
        tau_h: float) -> list[Check]:
    """All checks of one suite, in a fixed order.

    ``n`` is the Monte Carlo draws per check and ``sigma_mult`` the number
    of standard errors a Monte Carlo check accepts; ``tau0`` and ``tau_h``
    set the closed-form grid of ``closed_forms``.  Seeds fix every draw.
    """
    if not isinstance(suite, str) or suite not in SUITES:
        raise ValidationError(f"unknown suite {suite!r}; expected one of {sorted(SUITES)}")
    n = count(n, "n", 0 if suite == "voi" else 2)
    seed = derive_seed(seed)  # no indices: the seed itself, checked to lie in [0, 2**64)
    tau0 = real_scalar(tau0, "tau0", positive=True)
    tau_h = real_scalar(tau_h, "tau_h", positive=True)
    sigma_mult = real_scalar(sigma_mult, "sigma_mult") + 0.0  # -0.0 would print -0 tolerances
    require(sigma_mult >= 0.0, "sigma_mult must be >= 0, got {}", sigma_mult)
    return list(SUITES[suite](n, seed, sigma_mult, tau0, tau_h))
