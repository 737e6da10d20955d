import math
from fractions import Fraction

import numpy as np
import pytest

from dualsig.core import (
    DegenerateDecompositionError,
    Environment,
    LossProfile,
    SignalSpec,
    ValidationError,
    bayes_posterior_mean,
    cn_posterior_mean,
    feasible,
    innovation_precision,
    loss_profile,
)
from dualsig.montecarlo import paired_loss_estimates
from dualsig.rng import RngHandle

ENV = Environment(tau0=1.0)

ATOL = 1e-12


def random_feasible(rng, strict_margin=0.95):
    tau0 = 0.2 + 2.3 * rng.uniforms(1)[0]
    tau_h = 0.2 + 2.3 * rng.uniforms(1)[0]
    tau_a = 0.1 + 2.4 * rng.uniforms(1)[0]
    lam = strict_margin * rng.uniforms(1)[0] * min(tau_h / tau_a, 1.0)
    return Environment(tau0=float(tau0)), SignalSpec(float(tau_h), float(tau_a), float(lam))


class TestValidation:
    def test_environment_rejects_bad_precision(self):
        with pytest.raises(ValidationError):
            Environment(tau0=0.0)
        with pytest.raises(ValidationError):
            Environment(tau0=math.inf)

    def test_spec_rejects_nonpositive_precisions(self):
        with pytest.raises(ValidationError):
            SignalSpec(tau_h=0.0, tau_a=1.0, lam=0.0)
        with pytest.raises(ValidationError):
            SignalSpec(tau_h=1.0, tau_a=-1.0, lam=0.0)

    def test_spec_rejects_infeasible_overlap(self):
        # lam must not exceed min(tau_h / tau_a, 1)
        with pytest.raises(ValidationError):
            SignalSpec(tau_h=1.0, tau_a=4.0, lam=0.5)
        with pytest.raises(ValidationError):
            SignalSpec(tau_h=1.0, tau_a=1.0, lam=1.0 + 1e-9)
        with pytest.raises(ValidationError):
            SignalSpec(tau_h=1.0, tau_a=1.0, lam=-0.1)

    def test_spec_accepts_closed_feasibility_boundary(self):
        SignalSpec(tau_h=1.0, tau_a=4.0, lam=0.25)
        SignalSpec(tau_h=1.0, tau_a=0.5, lam=1.0)

    def test_overflowing_totals_raise(self):
        # each loss divides by a total that overflows only for extreme
        # precisions; the totals are checked in the order human, Bayes,
        # assistant, correlation neglect
        huge_env = Environment(tau0=1e308)
        with pytest.raises(ValidationError, match=r"^tau0 \+ tau_h = inf is not finite"):
            loss_profile(huge_env, SignalSpec(tau_h=1e308, tau_a=1e308, lam=0.0))
        # tau_h + tilde_tau >= tau_a, so the Bayes total overflows whenever
        # tau0 + tau_a does, and is checked first
        with pytest.raises(ValidationError, match=r"^tau0 \+ tau_h \+ tilde_tau = inf"):
            loss_profile(huge_env, SignalSpec(tau_h=1.0, tau_a=1e308, lam=0.0))
        # the Bayes total is finite here (it is checked first); only T**2 overflows
        with pytest.raises(ValidationError, match=r"^T\*\*2 = inf"):
            loss_profile(ENV, SignalSpec(tau_h=1e200, tau_a=1e200, lam=0.5))

    def test_loss_profile_invariants_enforced(self):
        with pytest.raises(ValidationError):
            LossProfile(l_human=0.4, l_ai=0.5, l_joint_bayes=0.45,
                        l_joint_cn=0.5, v_marginal=-0.05)
        with pytest.raises(ValidationError):
            LossProfile(l_human=0.5, l_ai=0.5, l_joint_bayes=0.4,
                        l_joint_cn=0.5, v_marginal=0.2)

    def test_loss_profile_invariants_hold_at_every_scale(self):
        # an absolute tolerance of 1e-9 would accept all of these
        tiny = dict(l_human=1e-12, l_ai=1e-12, l_joint_bayes=0.5e-12, l_joint_cn=0.6e-12,
                    v_marginal=0.5e-12)
        LossProfile(**tiny)
        for changes, message in (
                (dict(l_joint_bayes=2e-12, v_marginal=-1e-12), "v_marginal must be nonnegative"),
                (dict(l_joint_bayes=2e-12, l_joint_cn=3e-12, v_marginal=0.0),
                 "cannot exceed l_human"),
                (dict(l_joint_cn=0.25e-12), "cannot exceed l_joint_cn"),
                (dict(v_marginal=0.5e-12 + 1e-20), "v_marginal must equal"),
                (dict(l_ai=-1e-30), "l_ai must be nonnegative")):
            with pytest.raises(ValidationError, match=message):
                LossProfile(**{**tiny, **changes})


def boundary_specs(count, seed=0):
    """Specs on the boundary lam = tau_h/tau_a with tau_a 1-4 ulps above tau_h."""
    rng = np.random.default_rng(seed)
    tau_h = np.exp(rng.uniform(math.log(1e-4), math.log(1e4), count))
    tau_a = tau_h.copy()
    for step in range(4):
        tau_a = np.where(np.arange(count) % 4 >= step, np.nextafter(tau_a, np.inf), tau_a)
    return tau_h, tau_a, tau_h / tau_a


def exact_denominator(tau_h, tau_a, lam):
    return 1 / Fraction(tau_a) - Fraction(lam) ** 2 / Fraction(tau_h)


def exact_tilde(spec):
    return (1 - Fraction(spec.lam)) ** 2 / exact_denominator(spec.tau_h, spec.tau_a, spec.lam)


class TestArraySpecs:
    def test_floats_stay_python_floats(self):
        spec = SignalSpec(np.float64(1.0), 2, 0.25)
        assert all(type(x) is float for x in (spec.tau_h, spec.tau_a, spec.lam))
        p = loss_profile(ENV, spec)
        assert all(type(getattr(p, f)) is float
                   for f in ("l_human", "l_ai", "l_joint_bayes", "l_joint_cn", "v_marginal"))
        assert type(innovation_precision(spec)) is float

    def test_array_spec_matches_floats_bit_for_bit(self):
        rng = RngHandle(11, 0)
        points = [random_feasible(rng) for _ in range(200)]
        tau_h, tau_a, lam = (np.array([getattr(s, f) for _, s in points])
                             for f in ("tau_h", "tau_a", "lam"))
        lam[:20] = 0.0
        lam[20:40] = np.minimum(tau_h / tau_a, 1.0)[20:40]
        spec = SignalSpec(tau_h, tau_a, lam)
        p = loss_profile(ENV, spec)
        for i in range(len(lam)):
            one = SignalSpec(float(tau_h[i]), float(tau_a[i]), float(lam[i]))
            q = loss_profile(ENV, one)
            assert (p.l_human[i], p.l_ai[i], p.l_joint_bayes[i], p.l_joint_cn[i],
                    p.v_marginal[i]) == (q.l_human, q.l_ai, q.l_joint_bayes,
                                         q.l_joint_cn, q.v_marginal)

    def test_full_overlap_cells_in_an_array(self):
        spec = SignalSpec(np.array([1.0, 1.0, 2.0]), np.array([1.0, 0.5, 1.0]),
                          np.array([1.0, 1.0, 0.3]))
        p = loss_profile(ENV, spec)
        assert p.l_joint_bayes[:2].tolist() == p.l_human[:2].tolist()
        assert p.v_marginal[:2].tolist() == [0.0, 0.0]
        assert p.v_marginal[2] > 0.0
        with pytest.raises(DegenerateDecompositionError, match="lam=1.0"):
            innovation_precision(spec)

    def test_shapes_must_agree(self):
        with pytest.raises(ValidationError, match="one shape"):
            SignalSpec(np.ones(3), np.ones(3), 0.5)
        with pytest.raises(ValidationError, match="one shape"):
            SignalSpec(np.ones(3), np.ones(2), np.zeros(3))

    @pytest.mark.parametrize("field, value, message", [
        ("tau_h", math.nan, "tau_h must be finite, got nan"),
        ("tau_a", -2.0, "tau_a must be strictly positive, got -2.0"),
        ("lam", -0.5, "lam must be nonnegative, got -0.5"),
        ("lam", 0.75, "overlap lam=0.75 exceeds the feasibility bound"),
    ])
    def test_element_checks_name_the_first_bad_value(self, field, value, message):
        fields = {"tau_h": np.ones(4), "tau_a": np.full(4, 2.0), "lam": np.full(4, 0.25)}
        fields[field][2] = value
        with pytest.raises(ValidationError) as exc:
            SignalSpec(**fields)
        assert str(exc.value).startswith(message)
        assert "[" not in str(exc.value)

    def test_non_real_input_rejected(self):
        with pytest.raises(ValidationError, match="real"):
            SignalSpec(np.array(["1.0", "x"]), np.ones(2), np.zeros(2))
        with pytest.raises(ValidationError, match="real"):
            SignalSpec(1.0, 1.0, 1j)

    def test_overflow_in_arrays_raises_one_line_without_warnings(self):
        spec = SignalSpec(np.full(3, 1e200), np.array([1e199, 1e200, 1e201]), np.zeros(3))
        with pytest.raises(ValidationError, match=r"^T\*\*2 = inf is not finite"):
            loss_profile(ENV, spec)
        with pytest.raises(ValidationError, match=r"^tau0 \+ tau_h = inf"):
            loss_profile(Environment(1e308), SignalSpec(np.full(2, 1e308), np.ones(2),
                                                         np.zeros(2)))

    def test_loss_profile_invariants_checked_element_wise(self):
        good = dict(l_human=0.5, l_ai=0.5, l_joint_bayes=0.4, l_joint_cn=0.45,
                    v_marginal=0.1)
        LossProfile(**{k: np.full(3, v) for k, v in good.items()})
        bad = {k: np.full(3, v) for k, v in good.items()}
        bad["v_marginal"][1] = 0.2
        with pytest.raises(ValidationError, match="v_marginal must equal"):
            LossProfile(**bad)
        bad = {k: np.full(3, v) for k, v in good.items()}
        bad["l_joint_bayes"][2] = 0.47
        bad["v_marginal"][2] = 0.03
        with pytest.raises(ValidationError, match="cannot exceed l_joint_cn"):
            LossProfile(**bad)


class TestFeasible:
    def test_is_the_closed_region(self):
        assert feasible(1.0, 4.0, 0.25) and feasible(1.0, 0.5, 1.0) and feasible(1.0, 2.0, 0.0)
        assert not feasible(1.0, 4.0, 0.26)
        assert not feasible(1.0, 0.5, 1.0 + 1e-9)
        assert not feasible(1.0, 1.0, -0.1)

    def test_broadcasts(self):
        ok = feasible(1.0, np.array([[0.5], [2.0]]), np.array([0.0, 0.5, 0.6, 1.0]))
        assert ok.tolist() == [[True, True, True, True], [True, True, False, False]]

    def test_tiny_assistant_precision_gives_bound_one(self):
        assert feasible(1e300, 1e-300, 1.0)
        assert feasible(np.full(2, 1e300), np.full(2, 1e-300), np.ones(2)).all()


class TestInnovationPrecision:
    def test_zero_overlap_returns_assistant_precision(self):
        assert innovation_precision(SignalSpec(1.0, 1.0, 0.0)) == 1.0

    def test_symmetric_half_overlap(self):
        assert abs(innovation_precision(SignalSpec(1.0, 1.0, 0.5)) - 1.0 / 3.0) < ATOL

    def test_stronger_own_signal(self):
        assert abs(innovation_precision(SignalSpec(2.0, 1.0, 0.5)) - 2.0 / 7.0) < ATOL

    def test_boundary_denominator_against_exact_rationals(self):
        # the direct denominator 1/tau_a - lam**2/tau_h computes to 0.0 here
        spec = SignalSpec(0.002893041894429604, 0.0028930418944296044, 0.9999999999999999)
        exact_den = exact_denominator(spec.tau_h, spec.tau_a, spec.lam)
        assert 2e-14 < exact_den < 3e-14
        assert abs(Fraction(innovation_precision(spec)) - exact_tilde(spec)) \
            <= 2e-15 * exact_tilde(spec)
        # wherever the direct form cancels to <= 0 the stable one is accurate
        tau_h, tau_a, lam = boundary_specs(2000, seed=1)
        tilde = innovation_precision(SignalSpec(tau_h, tau_a, lam))
        assert (tilde > 0.0).all()
        cancelled = np.flatnonzero(1.0 / tau_a - np.float_power(lam, 2.0) / tau_h <= 0.0)
        assert len(cancelled) > 20
        for i in cancelled:
            exact = exact_tilde(SignalSpec(float(tau_h[i]), float(tau_a[i]), float(lam[i])))
            assert abs(Fraction(tilde[i]) - exact) <= 2e-15 * exact

    def test_ulp_adjacent_boundary_sweep_through_loss_profile(self):
        tau_h, tau_a, lam = boundary_specs(20000)
        assert (lam < 1.0).all()
        direct = 1.0 / tau_a - np.float_power(lam, 2.0) / tau_h
        assert (direct <= 0.0).sum() > 100  # the sweep reaches the cancelling specs
        p = loss_profile(ENV, SignalSpec(tau_h, tau_a, lam))
        assert (p.v_marginal >= 0.0).all() and (p.l_joint_bayes <= p.l_human).all()
        for i in np.flatnonzero(direct <= 0.0)[:300]:
            q = loss_profile(ENV, SignalSpec(float(tau_h[i]), float(tau_a[i]), float(lam[i])))
            assert (q.l_joint_bayes, q.v_marginal) == (p.l_joint_bayes[i], p.v_marginal[i])

    def test_direct_form_kept_off_the_boundary(self):
        for spec in (SignalSpec(1.0, 1.0, 0.5), SignalSpec(2.0, 1.0, 0.5),
                     SignalSpec(0.37, 2.2, 0.16), SignalSpec(1.0, 1.0 + 1e-9, 0.999999)):
            direct = (1.0 - spec.lam) ** 2 / (1.0 / spec.tau_a - spec.lam ** 2 / spec.tau_h)
            assert innovation_precision(spec) == direct

    def test_degenerate_cases_raise(self):
        with pytest.raises(DegenerateDecompositionError):
            innovation_precision(SignalSpec(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("spec", [SignalSpec(1.0, 1.0, 1.0), SignalSpec(2.0, 1.0, 1.0)])
    def test_full_overlap_has_no_innovation(self, spec):
        # no decomposition exists at lam = 1, yet the profile is defined there:
        # the assistant adds nothing to the own signal
        p = loss_profile(ENV, spec)
        assert p.l_joint_bayes == p.l_human == 1.0 / (1.0 + spec.tau_h)
        assert p.v_marginal == 0.0


class TestClosedFormLosses:
    def test_loss_human_values(self):
        assert loss_profile(ENV, SignalSpec(1.0, 1.0, 0.0)).l_human == 0.5
        assert loss_profile(Environment(1.0), SignalSpec(1e9, 1.0, 0.0)).l_human < 1e-8
        near_prior = loss_profile(Environment(2.0), SignalSpec(1e-6, 1.0, 0.0)).l_human
        assert abs(near_prior - 0.5) < 1e-6

    def test_loss_ai_values(self):
        assert loss_profile(ENV, SignalSpec(1.0, 1.0, 0.0)).l_ai == 0.5
        assert loss_profile(ENV, SignalSpec(3.0, 3.0, 0.0)).l_ai == 0.25
        assert abs(loss_profile(ENV, SignalSpec(1.0, 1e-12, 0.0)).l_ai - 1.0) < 1e-9

    def test_loss_joint_bayes_values(self):
        assert abs(loss_profile(ENV, SignalSpec(1.0, 1.0, 0.5)).l_joint_bayes
                   - 3.0 / 7.0) < ATOL
        assert abs(loss_profile(ENV, SignalSpec(1.0, 1.0, 0.0)).l_joint_bayes
                   - 1.0 / 3.0) < ATOL
        # vanishing assistant precision recovers the own-signal loss
        weak = loss_profile(ENV, SignalSpec(1.0, 1e-12, 0.0))
        assert abs(weak.l_joint_bayes - weak.l_human) < 1e-9

    def test_loss_joint_cn_values(self):
        assert abs(loss_profile(ENV, SignalSpec(1.0, 1.0, 0.5)).l_joint_cn - 4.0 / 9.0) < ATOL
        assert loss_profile(ENV, SignalSpec(1.0, 0.7, 0.0)).l_joint_cn == 1.0 / 2.7
        # at the augmentation boundary the naive fusion ties the own signal
        boundary = loss_profile(ENV, SignalSpec(1.0, 0.68, 0.67))
        assert abs(boundary.l_joint_cn - boundary.l_human) < ATOL

    def test_marginal_value_values(self):
        assert abs(loss_profile(ENV, SignalSpec(1.0, 1.0, 0.5)).v_marginal - 1.0 / 14.0) < ATOL
        assert abs(loss_profile(ENV, SignalSpec(1.0, 1.0, 0.0)).v_marginal - 1.0 / 6.0) < ATOL
        assert loss_profile(ENV, SignalSpec(1.0, 1e-12, 0.0)).v_marginal < 1e-9

    def test_loss_profile_assembles(self):
        profile = loss_profile(ENV, SignalSpec(1.0, 1.0, 0.5))
        assert profile.l_human == 0.5
        assert abs(profile.v_marginal - 1.0 / 14.0) < ATOL


class TestDecisionRules:
    def test_cn_decision_substitution(self):
        assert cn_posterior_mean(ENV, SignalSpec(1.0, 1.0, 0.0), 3.0, 0.0) == 1.0

    def test_agreement_fixed_point(self):
        # signals at the prior mean 0 leave the decision there
        env = Environment(tau0=1.3)
        spec = SignalSpec(0.7, 0.4, 0.3)
        assert cn_posterior_mean(env, spec, 0.0, 0.0) == 0.0
        assert bayes_posterior_mean(env, spec, 0.0, 0.0) == 0.0

    def test_cn_reduces_to_own_posterior_for_weak_assistant(self):
        spec = SignalSpec(1.0, 1e-12, 0.0)
        got = cn_posterior_mean(ENV, spec, 4.0, -100.0)
        assert abs(got - 4.0 / 2.0) < 1e-9

    def test_bayes_equals_cn_at_zero_overlap(self):
        spec = SignalSpec(1.3, 0.8, 0.0)
        h = np.array([0.0, -2.0, 7.0])
        a = np.array([1.0, 3.5, 7.0])
        np.testing.assert_allclose(bayes_posterior_mean(ENV, spec, h, a),
                                   cn_posterior_mean(ENV, spec, h, a), rtol=0.0, atol=ATOL)

    def test_bayes_decision_substitution(self):
        got = bayes_posterior_mean(ENV, SignalSpec(1.0, 1.0, 0.5), 2.0, 1.0)
        assert abs(got - 6.0 / 7.0) < ATOL

    def test_decision_weights_sum_to_one(self):
        # the prior mean 0 takes weight tau0 / total, the signals the rest:
        # shifting h and a by a constant shifts the decision by that rest
        rng = RngHandle(11, 0)
        for _ in range(50):
            env, spec = random_feasible(rng)
            h, a = float(rng.uniforms(1)[0]), float(rng.uniforms(1)[0])
            shift = 3.7
            for rule, own in ((cn_posterior_mean, spec.tau_a),
                              (bayes_posterior_mean, innovation_precision(spec))):
                signal_weight = 1.0 - env.tau0 / (env.tau0 + spec.tau_h + own)
                assert abs(rule(env, spec, h + shift, a + shift)
                           - rule(env, spec, h, a) - signal_weight * shift) < 1e-10

    def test_bayes_beats_cn_empirically(self):
        env = Environment(1.0)
        spec = SignalSpec(1.0, 1.0, 0.5)
        est = paired_loss_estimates(env, spec, 1_000_000, RngHandle(3, 0))
        assert est["bayes_joint"].mean <= est["cn_joint"].mean


class TestInvariants:
    def test_bayes_never_worse_across_random_specs(self):
        rng = RngHandle(5, 0)
        for _ in range(300):
            env, spec = random_feasible(rng)
            p = loss_profile(env, spec)
            assert p.l_joint_bayes <= p.l_human + ATOL
            assert p.l_joint_bayes <= p.l_joint_cn + ATOL

    def test_overlap_penalty_zero_iff_no_overlap(self):
        rng = RngHandle(6, 0)
        for _ in range(300):
            env, spec = random_feasible(rng)
            p = loss_profile(env, spec)
            gap = p.l_joint_cn - p.l_joint_bayes
            if spec.lam == 0.0:
                assert abs(gap) < ATOL
            else:
                assert gap > 0.0
        p = loss_profile(Environment(1.7), SignalSpec(0.9, 0.6, 0.0))
        assert abs(p.l_joint_cn - p.l_joint_bayes) < ATOL

    def test_marginal_value_monotone_directions(self):
        # strictly increasing in tau_a, strictly decreasing in lam and tau_h
        env = Environment(1.0)
        tau_a_grid = np.linspace(0.2, 1.4, 13)
        values = [loss_profile(env, SignalSpec(1.5, t, 0.4)).v_marginal for t in tau_a_grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        lam_grid = np.linspace(0.0, 0.8, 9)
        values = [loss_profile(env, SignalSpec(1.5, 1.0, l)).v_marginal for l in lam_grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        tau_h_grid = np.linspace(0.8, 3.0, 12)
        values = [loss_profile(env, SignalSpec(t, 0.7, 0.4)).v_marginal for t in tau_h_grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_weak_assistant_sign_matches_overlap_side(self):
        # sign of (naive joint - own alone) at tau_a = 1e-6 is sign(2*lam - 1)
        env = Environment(1.0)
        for lam in (0.0, 0.1, 0.2, 0.3, 0.4, 0.45):
            p = loss_profile(env, SignalSpec(1.0, 1e-6, lam))
            assert p.l_joint_cn - p.l_human < 0.0
        for lam in (0.55, 0.6, 0.7, 0.8, 0.9):
            p = loss_profile(env, SignalSpec(1.0, 1e-6, lam))
            assert p.l_joint_cn - p.l_human > 0.0
        # exactly at 1/2 the linear term vanishes and the quadratic term wins
        p = loss_profile(env, SignalSpec(1.0, 1e-6, 0.5))
        assert p.l_joint_cn - p.l_human < 0.0

    def test_gap_identity_at_quadratic_loss(self):
        # own-alone minus realized naive loss = marginal value minus the
        # misuse penalty, with the penalty in closed form as cn - bayes
        rng = RngHandle(8, 0)
        for _ in range(300):
            env, spec = random_feasible(rng)
            p = loss_profile(env, spec)
            lhs = p.l_human - p.l_joint_cn
            penalty = p.l_joint_cn - p.l_joint_bayes
            assert abs(lhs - (p.v_marginal - penalty)) < ATOL


def test_monte_carlo_oracle_agrees_with_closed_forms():
    env = Environment(1.0)
    spec = SignalSpec(1.0, 1.0, 0.5)
    n = 400_000
    estimates = paired_loss_estimates(env, spec, n, RngHandle(9, 1))
    for rule, closed in (("human_only", 0.5), ("bayes_joint", 3.0 / 7.0),
                         ("cn_joint", 4.0 / 9.0)):
        est = estimates[rule]
        assert abs(est.mean - closed) <= 4.0 * est.std_error
