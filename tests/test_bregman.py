import math

import numpy as np
import pytest

from dualsig.bregman import (
    BregmanGenerator,
    GapReport,
    bregman_loss,
    conditional_mean_optimality,
    gap_check_discrete,
    gap_check_gaussian_cn,
)
from dualsig.core import Environment, SignalSpec, ValidationError
from dualsig.voi import DiscreteProblem, LogLoss, QuadraticLoss

SQUARED = BregmanGenerator(kind="squared", dimension=1)
NEGENT = BregmanGenerator(kind="negative_entropy", dimension=2)


def random_problem(rng, numeric_states):
    raw = rng.uniform(size=(2, 2, 2))
    probs = raw / raw.sum()
    states = (0.0, 1.0) if numeric_states else (0, 1)
    return DiscreteProblem(states=states, signal_names=("h", "a"),
                           alphabets=((0, 1), (0, 1)), probs=probs,
                           loss=QuadraticLoss() if numeric_states else LogLoss())


def conditional_means(problem, gen):
    """Oracle rule table: exact conditional means per signal pair."""
    if gen.kind == "negative_entropy":
        enc = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    else:
        enc = [np.array([float(s)]) for s in problem.states]
    rule = {}
    for i_h, h in enumerate(problem.alphabets[0]):
        for i_a, a in enumerate(problem.alphabets[1]):
            col = problem.probs[:, i_h, i_a]
            p = col.sum()
            if p > 0:
                cond = col / p
                rule[(h, a)] = sum(c * e for c, e in zip(cond, enc))
    return rule


class TestBregmanLoss:
    def test_squared_scalar_values(self):
        assert bregman_loss(SQUARED, 3.0, 1.0) == 4.0
        assert bregman_loss(SQUARED, 2.5, 2.5) == 0.0

    def test_negative_entropy_is_kl_in_nats(self):
        got = bregman_loss(NEGENT, np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert abs(got - math.log(2.0)) < 1e-15
        p = np.array([0.3, 0.7])
        q = np.array([0.6, 0.4])
        kl = float(np.sum(p * np.log(p / q)))
        assert abs(bregman_loss(NEGENT, p, q) - kl) < 1e-15

    def test_nonnegative_and_zero_only_at_equality(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            y, d = rng.uniform(-3, 3, size=2)
            assert bregman_loss(SQUARED, y, d) >= 0.0
            p = rng.uniform(0.05, 0.95)
            q = rng.uniform(0.05, 0.95)
            value = bregman_loss(NEGENT, np.array([p, 1 - p]), np.array([q, 1 - q]))
            assert value >= 0.0
            if abs(p - q) > 1e-6:
                assert value > 0.0
        assert bregman_loss(NEGENT, np.array([0.4, 0.6]), np.array([0.4, 0.6])) == 0.0

    def test_domain_violations(self):
        with pytest.raises(ValidationError):
            bregman_loss(NEGENT, np.array([0.5, 0.5]), np.array([0.0, 1.0]))
        with pytest.raises(ValidationError):
            bregman_loss(SQUARED, np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            BregmanGenerator(kind="huber", dimension=1)


class TestGapCheckDiscrete:
    def test_optimal_rule_has_no_penalty(self):
        rng = np.random.default_rng(5)
        for gen, numeric in ((SQUARED, True), (NEGENT, False)):
            problem = random_problem(rng, numeric)
            report = gap_check_discrete(problem, conditional_means(problem, gen), gen)
            assert abs(report.penalty) < 1e-14
            assert abs(report.lhs - report.marginal) < 1e-14
            assert abs(report.residual) < 1e-12

    def test_own_signal_rule_penalty_equals_marginal(self):
        rng = np.random.default_rng(6)
        for gen, numeric in ((SQUARED, True), (NEGENT, False)):
            problem = random_problem(rng, numeric)
            # rule that ignores the assistant signal: conditional mean given h
            if gen.kind == "negative_entropy":
                enc = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
            else:
                enc = [np.array([float(s)]) for s in problem.states]
            rule = {}
            for i_h, h in enumerate(problem.alphabets[0]):
                col = problem.probs[:, i_h, :].sum(axis=1)
                cond = col / col.sum()
                for a in problem.alphabets[1]:
                    rule[(h, a)] = sum(c * e for c, e in zip(cond, enc))
            report = gap_check_discrete(problem, rule, gen)
            assert abs(report.lhs) < 1e-14
            assert abs(report.penalty - report.marginal) < 1e-13
            assert abs(report.residual) < 1e-12

    def test_random_rules_residual_vanishes(self):
        rng = np.random.default_rng(7)
        for gen, numeric in ((SQUARED, True), (NEGENT, False)):
            for _ in range(100):
                problem = random_problem(rng, numeric)
                rule = {}
                for h in problem.alphabets[0]:
                    for a in problem.alphabets[1]:
                        if gen.kind == "squared":
                            rule[(h, a)] = rng.uniform(-0.5, 1.5)
                        else:
                            t = rng.uniform(0.05, 0.95)
                            rule[(h, a)] = np.array([t, 1.0 - t])
                report = gap_check_discrete(problem, rule, gen)
                assert abs(report.residual) < 1e-12

    def test_incomplete_rule_table_rejected(self):
        rng = np.random.default_rng(8)
        problem = random_problem(rng, True)
        with pytest.raises(ValidationError):
            gap_check_discrete(problem, {(0, 0): 0.5}, SQUARED)


class TestGapCheckGaussian:
    def test_zero_overlap_penalty_vanishes(self):
        env = Environment(0.0, 1.0)
        report = gap_check_gaussian_cn(env, SignalSpec(1.0, 0.7, 0.0), n=50_000, seed=0)
        assert report.penalty <= 4.0 * report.penalty_se + 1e-12
        assert abs(report.residual) <= 4.0 * report.penalty_se + 1e-12

    def test_reference_point_penalty(self):
        env = Environment(0.0, 1.0)
        report = gap_check_gaussian_cn(env, SignalSpec(1.0, 1.0, 0.5), n=1_000_000, seed=1)
        assert abs(report.penalty - 1.0 / 63.0) <= 4.0 * report.penalty_se
        assert abs(report.residual) <= 4.0 * report.penalty_se

    def test_random_specs_residuals_within_noise(self):
        rng = np.random.default_rng(9)
        env = Environment(0.0, 1.0)
        for i in range(20):
            tau_h = rng.uniform(0.3, 2.5)
            tau_a = rng.uniform(0.2, 2.5)
            lam = rng.uniform(0.05, 0.9) * min(tau_h / tau_a, 1.0)
            spec = SignalSpec(tau_h, tau_a, lam)
            report = gap_check_gaussian_cn(env, spec, n=200_000, seed=100 + i)
            assert abs(report.residual) <= 4.0 * report.penalty_se

    def test_report_structure(self):
        env = Environment(0.0, 1.0)
        report = gap_check_gaussian_cn(env, SignalSpec(1.0, 1.0, 0.5), n=10_000, seed=2)
        assert isinstance(report, GapReport)
        assert report.penalty_se > 0.0
        assert abs(report.residual - (report.lhs - report.marginal + report.penalty)) < 1e-15


class TestConditionalMeanOptimality:
    def test_squared_conditional_mean_wins(self):
        rng = np.random.default_rng(10)
        problem = random_problem(rng, True)
        advantage = conditional_mean_optimality(problem, SQUARED)
        assert isinstance(advantage, float)
        assert 0.0 <= advantage <= 1e-9

    def test_negative_entropy_conditional_distribution_wins(self):
        rng = np.random.default_rng(11)
        problem = random_problem(rng, False)
        assert 0.0 <= conditional_mean_optimality(problem, NEGENT) <= 1e-9

    def test_constant_state_problem(self):
        probs = np.zeros((2, 2, 1))
        probs[1, 0, 0] = 0.5
        probs[1, 1, 0] = 0.5
        problem = DiscreteProblem(states=(0.0, 3.0), signal_names=("h", "a"),
                                  alphabets=((0, 1), (0,)), probs=probs,
                                  loss=QuadraticLoss())
        assert 0.0 <= conditional_mean_optimality(problem, SQUARED) <= 1e-9


def test_three_point_identity_randomized_rules():
    # E[D(Y, d_hat)] - E[D(Y, d_star)] = E[D(d_star, d_hat)], exactly
    rng = np.random.default_rng(12)
    for gen, numeric in ((SQUARED, True), (NEGENT, False)):
        for _ in range(50):
            problem = random_problem(rng, numeric)
            rule = {}
            for h in problem.alphabets[0]:
                for a in problem.alphabets[1]:
                    if gen.kind == "squared":
                        rule[(h, a)] = rng.uniform(-1.0, 2.0)
                    else:
                        t = rng.uniform(0.02, 0.98)
                        rule[(h, a)] = np.array([t, 1.0 - t])
            report = gap_check_discrete(problem, rule, gen)
            # the gap residual is the three-point residual up to sign
            assert abs(report.residual) < 1e-12
