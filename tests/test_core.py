import math

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
    innovation_precision,
    loss_ai,
    loss_human,
    loss_joint_bayes,
    loss_joint_cn,
    loss_profile,
    marginal_value,
)
from dualsig.montecarlo import paired_loss_estimates
from dualsig.rng import RngHandle

ENV = Environment(mu0=0.0, tau0=1.0)

ATOL = 1e-12


def random_feasible(rng, strict_margin=0.95):
    tau0 = 0.2 + 2.3 * rng.uniforms(1)[0]
    tau_h = 0.2 + 2.3 * rng.uniforms(1)[0]
    tau_a = 0.1 + 2.4 * rng.uniforms(1)[0]
    lam = strict_margin * rng.uniforms(1)[0] * min(tau_h / tau_a, 1.0)
    return Environment(mu0=0.0, tau0=float(tau0)), SignalSpec(float(tau_h), float(tau_a), float(lam))


class TestValidation:
    def test_environment_rejects_bad_precision(self):
        with pytest.raises(ValidationError):
            Environment(mu0=0.0, tau0=0.0)
        with pytest.raises(ValidationError):
            Environment(mu0=math.inf, tau0=1.0)

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
        # each loss divides by a total that overflows only for extreme precisions
        huge_env = Environment(mu0=0.0, tau0=1e308)
        huge = SignalSpec(tau_h=1e308, tau_a=1e308, lam=0.0)
        for loss in (loss_human, loss_ai, loss_joint_bayes):
            with pytest.raises(ValidationError, match="not finite"):
                loss(huge_env, huge)
        with pytest.raises(ValidationError, match=r"T\*\*2 = inf"):
            loss_joint_cn(ENV, SignalSpec(tau_h=1e200, tau_a=1e200, lam=0.5))
        assert loss_joint_bayes(ENV, SignalSpec(tau_h=1e200, tau_a=1e200, lam=0.5)) > 0.0

    def test_loss_profile_invariants_enforced(self):
        with pytest.raises(ValidationError):
            LossProfile(l_human=0.4, l_ai=0.5, l_joint_bayes=0.45,
                        l_joint_cn=0.5, v_marginal=-0.05)
        with pytest.raises(ValidationError):
            LossProfile(l_human=0.5, l_ai=0.5, l_joint_bayes=0.4,
                        l_joint_cn=0.5, v_marginal=0.2)


class TestInnovationPrecision:
    def test_zero_overlap_returns_assistant_precision(self):
        assert innovation_precision(SignalSpec(1.0, 1.0, 0.0)) == 1.0

    def test_symmetric_half_overlap(self):
        assert abs(innovation_precision(SignalSpec(1.0, 1.0, 0.5)) - 1.0 / 3.0) < ATOL

    def test_stronger_own_signal(self):
        assert abs(innovation_precision(SignalSpec(2.0, 1.0, 0.5)) - 2.0 / 7.0) < ATOL

    def test_degenerate_cases_raise(self):
        with pytest.raises(DegenerateDecompositionError):
            innovation_precision(SignalSpec(1.0, 1.0, 1.0))
        with pytest.raises(DegenerateDecompositionError):
            loss_joint_bayes(ENV, SignalSpec(1.0, 1.0, 1.0))
        with pytest.raises(DegenerateDecompositionError):
            marginal_value(ENV, SignalSpec(1.0, 1.0, 1.0))


class TestClosedFormLosses:
    def test_loss_human_values(self):
        assert loss_human(ENV, SignalSpec(1.0, 1.0, 0.0)) == 0.5
        assert loss_human(Environment(0.0, 1.0), SignalSpec(1e9, 1.0, 0.0)) < 1e-8
        near_prior = loss_human(Environment(0.0, 2.0), SignalSpec(1e-6, 1.0, 0.0))
        assert abs(near_prior - 0.5) < 1e-6

    def test_loss_ai_values(self):
        assert loss_ai(ENV, SignalSpec(1.0, 1.0, 0.0)) == 0.5
        assert loss_ai(ENV, SignalSpec(3.0, 3.0, 0.0)) == 0.25
        assert abs(loss_ai(ENV, SignalSpec(1.0, 1e-12, 0.0)) - 1.0) < 1e-9

    def test_loss_joint_bayes_values(self):
        assert abs(loss_joint_bayes(ENV, SignalSpec(1.0, 1.0, 0.5)) - 3.0 / 7.0) < ATOL
        assert abs(loss_joint_bayes(ENV, SignalSpec(1.0, 1.0, 0.0)) - 1.0 / 3.0) < ATOL
        # vanishing assistant precision recovers the own-signal loss
        weak = loss_joint_bayes(ENV, SignalSpec(1.0, 1e-12, 0.0))
        assert abs(weak - loss_human(ENV, SignalSpec(1.0, 1e-12, 0.0))) < 1e-9

    def test_loss_joint_cn_values(self):
        assert abs(loss_joint_cn(ENV, SignalSpec(1.0, 1.0, 0.5)) - 4.0 / 9.0) < ATOL
        spec0 = SignalSpec(1.0, 0.7, 0.0)
        assert loss_joint_cn(ENV, spec0) == 1.0 / 2.7
        # at the augmentation boundary the naive fusion ties the own signal
        boundary = SignalSpec(1.0, 0.68, 0.67)
        assert abs(loss_joint_cn(ENV, boundary) - loss_human(ENV, boundary)) < ATOL

    def test_marginal_value_values(self):
        assert abs(marginal_value(ENV, SignalSpec(1.0, 1.0, 0.5)) - 1.0 / 14.0) < ATOL
        assert abs(marginal_value(ENV, SignalSpec(1.0, 1.0, 0.0)) - 1.0 / 6.0) < ATOL
        assert marginal_value(ENV, SignalSpec(1.0, 1e-12, 0.0)) < 1e-9

    def test_loss_profile_assembles(self):
        profile = loss_profile(ENV, SignalSpec(1.0, 1.0, 0.5))
        assert profile.l_human == 0.5
        assert abs(profile.v_marginal - 1.0 / 14.0) < ATOL


class TestDecisionRules:
    def test_cn_decision_substitution(self):
        assert cn_posterior_mean(ENV, SignalSpec(1.0, 1.0, 0.0), 3.0, 0.0) == 1.0

    def test_agreement_fixed_point(self):
        env = Environment(mu0=2.5, tau0=1.3)
        spec = SignalSpec(0.7, 0.4, 0.3)
        assert abs(cn_posterior_mean(env, spec, 2.5, 2.5) - 2.5) < ATOL
        assert abs(bayes_posterior_mean(env, spec, 2.5, 2.5) - 2.5) < ATOL

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
        # affine invariance: shifting mu0, h, a by a constant shifts the decision
        rng = RngHandle(11, 0)
        for _ in range(50):
            env, spec = random_feasible(rng)
            h, a = float(rng.uniforms(1)[0]), float(rng.uniforms(1)[0])
            shift = 3.7
            shifted_env = Environment(env.mu0 + shift, env.tau0)
            for rule in (cn_posterior_mean, bayes_posterior_mean):
                assert abs(rule(shifted_env, spec, h + shift, a + shift)
                           - rule(env, spec, h, a) - shift) < 1e-10

    def test_bayes_beats_cn_empirically(self):
        env = Environment(0.0, 1.0)
        spec = SignalSpec(1.0, 1.0, 0.5)
        est = paired_loss_estimates(env, spec, 1_000_000, RngHandle(3, 0))
        assert est["bayes_joint"].mean <= est["cn_joint"].mean


class TestInvariants:
    def test_bayes_never_worse_across_random_specs(self):
        rng = RngHandle(5, 0)
        for _ in range(300):
            env, spec = random_feasible(rng)
            ljb = loss_joint_bayes(env, spec)
            assert ljb <= loss_human(env, spec) + ATOL
            assert ljb <= loss_joint_cn(env, spec) + ATOL

    def test_overlap_penalty_zero_iff_no_overlap(self):
        rng = RngHandle(6, 0)
        for _ in range(300):
            env, spec = random_feasible(rng)
            gap = loss_joint_cn(env, spec) - loss_joint_bayes(env, spec)
            if spec.lam == 0.0:
                assert abs(gap) < ATOL
            else:
                assert gap > 0.0
        env = Environment(0.0, 1.7)
        spec = SignalSpec(0.9, 0.6, 0.0)
        assert abs(loss_joint_cn(env, spec) - loss_joint_bayes(env, spec)) < ATOL

    def test_marginal_value_monotone_directions(self):
        # strictly increasing in tau_a, strictly decreasing in lam and tau_h
        env = Environment(0.0, 1.0)
        tau_a_grid = np.linspace(0.2, 1.4, 13)
        values = [marginal_value(env, SignalSpec(1.5, t, 0.4)) for t in tau_a_grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        lam_grid = np.linspace(0.0, 0.8, 9)
        values = [marginal_value(env, SignalSpec(1.5, 1.0, l)) for l in lam_grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        tau_h_grid = np.linspace(0.8, 3.0, 12)
        values = [marginal_value(env, SignalSpec(t, 0.7, 0.4)) for t in tau_h_grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_weak_assistant_sign_matches_overlap_side(self):
        # sign of (naive joint - own alone) at tau_a = 1e-6 is sign(2*lam - 1)
        env = Environment(0.0, 1.0)
        for lam in (0.0, 0.1, 0.2, 0.3, 0.4, 0.45):
            spec = SignalSpec(1.0, 1e-6, lam)
            assert loss_joint_cn(env, spec) - loss_human(env, spec) < 0.0
        for lam in (0.55, 0.6, 0.7, 0.8, 0.9):
            spec = SignalSpec(1.0, 1e-6, lam)
            assert loss_joint_cn(env, spec) - loss_human(env, spec) > 0.0
        # exactly at 1/2 the linear term vanishes and the quadratic term wins
        spec = SignalSpec(1.0, 1e-6, 0.5)
        assert loss_joint_cn(env, spec) - loss_human(env, spec) < 0.0

    def test_gap_identity_at_quadratic_loss(self):
        # own-alone minus realized naive loss = marginal value minus the
        # misuse penalty, with the penalty in closed form as cn - bayes
        rng = RngHandle(8, 0)
        for _ in range(300):
            env, spec = random_feasible(rng)
            lhs = loss_human(env, spec) - loss_joint_cn(env, spec)
            penalty = loss_joint_cn(env, spec) - loss_joint_bayes(env, spec)
            assert abs(lhs - (marginal_value(env, spec) - penalty)) < ATOL


def test_monte_carlo_oracle_agrees_with_closed_forms():
    env = Environment(0.0, 1.0)
    spec = SignalSpec(1.0, 1.0, 0.5)
    n = 400_000
    estimates = paired_loss_estimates(env, spec, n, RngHandle(9, 1))
    for rule, closed in (("human_only", 0.5), ("bayes_joint", 3.0 / 7.0),
                         ("cn_joint", 4.0 / 9.0)):
        est = estimates[rule]
        assert abs(est.mean - closed) <= 4.0 * est.std_error
