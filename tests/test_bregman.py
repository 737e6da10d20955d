import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualsig import verify
from dualsig.bregman import (
    GapReport,
    bregman_loss,
    conditional_mean_optimality,
    gap_check_discrete,
    gap_check_gaussian_cn,
)
from dualsig.core import Environment, SignalSpec, ValidationError
from dualsig.rng import RngHandle
from dualsig.voi import (
    DiscreteProblem,
    LogLoss,
    QuadraticLoss,
    _erasure_construction,
    marginal_value_discrete,
    ratio_construction,
    xor_construction,
)

SQUARED = QuadraticLoss()
NEGENT = LogLoss()
LOSSES = [SQUARED, NEGENT]
LOSS_IDS = ["squared", "negative_entropy"]


def with_loss(problem, loss):
    """The same joint table under ``loss``."""
    return DiscreteProblem(states=problem.states, probs=problem.probs, loss=loss)


def random_problem(rng, loss):
    raw = rng.uniform(size=(2, 2, 2))
    probs = raw / raw.sum()
    return DiscreteProblem(states=(0, 1), probs=probs, loss=loss)


def conditional_means(problem):
    """Oracle rule table: exact conditional means per signal pair, zeros
    where the pair has probability 0."""
    enc = encoding(problem)
    rule = np.zeros(problem.signal_shape + enc[0].shape)
    for i_h, i_a in np.ndindex(problem.signal_shape):
        col = problem.probs[:, i_h, i_a]
        p = col.sum()
        if p > 0:
            cond = col / p
            rule[i_h, i_a] = sum(c * e for c, e in zip(cond, enc))
    return rule


def encoding(problem):
    """The state encodings of a binary problem, one vector per state."""
    if isinstance(problem.loss, LogLoss):
        return [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    return [np.array([float(s)]) for s in problem.states]


def random_rule(problem, rng, lo, hi):
    """A table of decisions drawn pair by pair in C order: a scalar in
    [lo, hi) under quadratic loss, ``[t, 1 - t]`` with t in [lo, hi)
    under log loss."""
    quadratic = isinstance(problem.loss, QuadraticLoss)
    rule = np.empty(problem.signal_shape + (1 if quadratic else 2,))
    for pair in np.ndindex(problem.signal_shape):
        t = rng.uniform(lo, hi)
        rule[pair] = t if quadratic else (t, 1.0 - t)
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
        with pytest.raises(ValidationError, match=r"^loss must be QuadraticLoss or LogLoss"):
            bregman_loss("huber", 1.0, 0.0)


def reference_loss(loss, y, d):
    """The per-vector loss as it was computed before the stacked one."""
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))

    quadratic = isinstance(loss, QuadraticLoss)

    def phi(x):
        if quadratic:
            return float(np.dot(x, x))
        mask = x > 0.0
        return float(np.sum(x[mask] * np.log(x[mask])))

    grad = 2.0 * d if quadratic else np.log(d) + 1.0
    return phi(y) - phi(d) - float(np.dot(y - d, grad))


def reference_gap(problem, rule):
    """(lhs, marginal, penalty, residual) by the per-term loop that preceded
    the stacked :func:`gap_check_discrete`."""
    loss = problem.loss
    if isinstance(loss, LogLoss):
        enc = [np.eye(len(problem.states))[i] for i in range(len(problem.states))]
    else:
        enc = [np.atleast_1d(np.asarray(s, dtype=np.float64)) for s in problem.states]
    flat = problem.probs
    p_h = flat.sum(axis=(0, 2))
    mean_h = {i_h: sum(c * e for c, e in zip(flat[:, i_h, :].sum(axis=1) / p_h[i_h], enc))
              for i_h in range(len(p_h)) if p_h[i_h] > 0.0}
    l_human = l_hat = l_star = penalty = 0.0
    for i_h, i_a in np.ndindex(problem.signal_shape):
        col = flat[:, i_h, i_a]
        p_ha = float(col.sum())
        if p_ha == 0.0:
            continue
        cond = col / p_ha
        d_star = sum(c * e for c, e in zip(cond, enc))
        d_hat = rule[i_h, i_a]
        for c, e in zip(cond, enc):
            if c > 0.0:
                l_human += p_ha * c * reference_loss(loss, e, mean_h[i_h])
                l_hat += p_ha * c * reference_loss(loss, e, d_hat)
                l_star += p_ha * c * reference_loss(loss, e, d_star)
        penalty += p_ha * reference_loss(loss, d_star, d_hat)
    lhs, marginal = l_human - l_hat, l_human - l_star
    return lhs, marginal, penalty, lhs - (marginal - penalty)


@st.composite
def stacked_pairs(draw):
    """A loss and two equal-shape stacks of vectors in its domain."""
    loss = draw(st.sampled_from(LOSSES))
    quadratic = isinstance(loss, QuadraticLoss)
    dim = draw(st.integers(1, 3) if quadratic else st.integers(2, 3))
    rows = draw(st.integers(1, 6))
    if quadratic:
        y_entry = d_entry = st.floats(-1e3, 1e3)
    else:
        y_entry = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
        d_entry = st.floats(1e-9, 1.0)
    y = draw(st.lists(st.lists(y_entry, min_size=dim, max_size=dim),
                      min_size=rows, max_size=rows))
    d = draw(st.lists(st.lists(d_entry, min_size=dim, max_size=dim),
                      min_size=rows, max_size=rows))
    return loss, np.array(y), np.array(d)


@settings(max_examples=300, deadline=None)
@given(case=stacked_pairs())
def test_stacked_loss_equals_the_per_vector_loss_exactly(case):
    loss, y, d = case
    expected = [reference_loss(loss, yi, di) for yi, di in zip(y, d)]
    assert bregman_loss(loss, y, d).tolist() == expected
    # broadcasting every y against every d gives the same bits
    grid = bregman_loss(loss, y[:, None, :], d[None, :, :])
    assert grid.tolist() == [[reference_loss(loss, yi, di) for di in d] for yi in y]
    assert [bregman_loss(loss, yi, di) for yi, di in zip(y, d)] == expected


def zero_pair_problem():
    """A log-loss problem on a 3x2 alphabet whose pair (1, 1) never occurs."""
    probs = np.arange(1.0, 13.0).reshape(2, 3, 2)
    probs[:, 1, 1] = 0.0
    return DiscreteProblem(states=(0, 1), probs=probs / probs.sum(), loss=LogLoss())


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_gap_check_equals_the_per_term_loop_exactly(seed):
    rng = RngHandle(seed, stream=10)
    for loss in LOSSES:
        # the erasure problem's null own signal has probability 0
        problems = [verify._random_discrete_problem(rng.split(i), loss) for i in range(100)]
        problems += [with_loss(_erasure_construction(0.0), loss),
                     with_loss(zero_pair_problem(), loss)]
        for i, problem in enumerate(problems):
            rule = verify._random_rule(problem, rng.split(1000 + i))
            report = gap_check_discrete(problem, rule)
            assert (report.lhs, report.marginal, report.penalty,
                    report.residual) == reference_gap(problem, rule)


class TestStackedApi:
    def test_one_vector_gives_a_float(self):
        for value in (bregman_loss(SQUARED, 3.0, 1.0),
                      bregman_loss(NEGENT, [0.3, 0.7], [0.6, 0.4])):
            assert type(value) is float
        assert bregman_loss(SQUARED, [[3.0], [1.0]], [1.0]).tolist() == [4.0, 0.0]

    def test_zero_entries_are_zero_log_zero(self):
        # phi(one-hot y) = 0, so KL(y || uniform) = -phi(uniform) = log 2
        losses = bregman_loss(NEGENT, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        assert losses.tolist() == [math.log(2.0)] * 2

    @pytest.mark.parametrize("loss, y, d", [
        (SQUARED, [[1.0], [np.inf]], [[0.0], [0.0]]),
        (SQUARED, [[1.0], [2.0]], [[0.0], [np.nan]]),
        (NEGENT, [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.0, 1.0]]),
        (NEGENT, [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [-0.2, 1.2]]),
        (NEGENT, [[0.5, 0.5], [-0.5, 1.5]], [[0.5, 0.5], [0.5, 0.5]]),
    ])
    def test_one_bad_row_rejects_the_stack(self, loss, y, d):
        with pytest.raises(ValidationError):
            bregman_loss(loss, np.array(y), np.array(d))

    def test_any_vector_length_is_legal(self):
        # the inputs fix the dimension: quadratic losses on 2-vectors and
        # log losses on 3-vectors need no declared dimension
        assert bregman_loss(SQUARED, [1.0, 2.0], [1.0, 0.0]) == 4.0
        assert bregman_loss(NEGENT, [0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0

    @pytest.mark.parametrize("loss", LOSSES, ids=LOSS_IDS)
    @pytest.mark.parametrize("y, d", [
        ([0.5, 0.5], [1.0]),
        ([1.0], [0.5, 0.5]),
        ([[0.2, 0.3, 0.5]], [[0.5, 0.5]]),
    ])
    def test_unequal_lengths_rejected(self, loss, y, d):
        # numpy would broadcast a length-1 vector against any length
        with pytest.raises(ValidationError, match="one length"):
            bregman_loss(loss, y, d)


class TestGapCheckDiscrete:
    def test_optimal_rule_has_no_penalty(self):
        rng = np.random.default_rng(5)
        for loss in LOSSES:
            problem = random_problem(rng, loss)
            report = gap_check_discrete(problem, conditional_means(problem))
            assert abs(report.penalty) < 1e-14
            assert abs(report.lhs - report.marginal) < 1e-14
            assert abs(report.residual) < 1e-12

    def test_own_signal_rule_penalty_equals_marginal(self):
        rng = np.random.default_rng(6)
        for loss in LOSSES:
            problem = random_problem(rng, loss)
            # rule that ignores the assistant signal: conditional mean given h
            enc = encoding(problem)
            rule = np.empty(problem.signal_shape + enc[0].shape)
            for i_h in range(problem.signal_shape[0]):
                col = problem.probs[:, i_h, :].sum(axis=1)
                cond = col / col.sum()
                rule[i_h, :] = sum(c * e for c, e in zip(cond, enc))
            report = gap_check_discrete(problem, rule)
            assert abs(report.lhs) < 1e-14
            assert abs(report.penalty - report.marginal) < 1e-13
            assert abs(report.residual) < 1e-12

    def test_random_rules_residual_vanishes(self):
        rng = np.random.default_rng(7)
        for loss in LOSSES:
            for _ in range(100):
                problem = random_problem(rng, loss)
                if loss is SQUARED:
                    rule = random_rule(problem, rng, -0.5, 1.5)
                else:
                    rule = random_rule(problem, rng, 0.05, 0.95)
                report = gap_check_discrete(problem, rule)
                assert abs(report.residual) < 1e-12

    def test_incomplete_rule_table_rejected(self):
        rng = np.random.default_rng(8)
        problem = random_problem(rng, SQUARED)
        for table in (np.full((1, 1, 1), 0.5), np.full((2, 1, 1), 0.5)):
            with pytest.raises(ValidationError, match="delta_hat must have shape"):
                gap_check_discrete(problem, table)

    def test_zero_probability_pair_decision_is_never_used(self):
        problem = random_problem(np.random.default_rng(13), SQUARED)
        probs = problem.probs.copy()
        probs[:, 1, 1] = 0.0
        for loss in LOSSES:
            problem = DiscreteProblem(states=problem.states, probs=probs / probs.sum(), loss=loss)
            rule = conditional_means(problem)
            report = gap_check_discrete(problem, rule)
            assert abs(report.residual) < 1e-12
            # zeros there lie outside the negative-entropy domain, and no
            # decision there moves a term
            assert not rule[1, 1].any()
            rule[1, 1] = 1e6
            assert gap_check_discrete(problem, rule) == report

    def test_each_own_signal_row_reads_its_own_decision(self):
        # the two own-signal rows have different conditionals, and the rule
        # decides differently in each row; by hand, with m = P(y=1 | pair):
        # m = 0.2, 1/3, 2/3, 0.8 at pairs 00, 01, 10, 11 of probability
        # 5/16, 3/16, 3/16, 5/16, and P(y=1 | h) = 1/4, 3/4 with h = 0, 1
        probs = np.array([[[4.0, 2.0], [1.0, 1.0]], [[1.0, 1.0], [2.0, 4.0]]]) / 16.0
        problem = DiscreteProblem(states=(0.0, 1.0), probs=probs, loss=QuadraticLoss())
        rule = np.array([[[0.0], [0.5]], [[0.5], [1.0]]])
        report = gap_check_discrete(problem, rule)
        l_human = 3.0 / 16.0                       # E[Var(y | h)]
        l_star = 11.0 / 60.0                       # E[Var(y | h, a)]
        penalty = 17.0 / 480.0                     # E[(m - d_hat)**2]
        assert abs(report.marginal - (l_human - l_star)) <= 1e-15
        assert abs(report.penalty - penalty) <= 1e-15
        assert abs(report.lhs - (l_human - l_star - penalty)) <= 1e-15
        assert abs(report.lhs - -1.0 / 32.0) <= 1e-15
        assert abs(report.residual) <= 1e-12

    @pytest.mark.parametrize("loss, bad", [
        (SQUARED, np.inf),
        (SQUARED, np.array([0.2, 0.4])),
        (NEGENT, np.array([0.5, np.nan])),
        (NEGENT, np.array([0.3, 0.3, 0.4])),
        (NEGENT, np.array([0.0, 1.0])),
        (NEGENT, np.array([-0.5, 1.5])),
    ])
    def test_bad_rule_value_rejected(self, loss, bad):
        # a decision of the wrong length leaves the nested table ragged
        problem = random_problem(np.random.default_rng(14), loss)
        rule = conditional_means(problem).tolist()
        rule[1][0] = np.atleast_1d(bad).tolist()
        with pytest.raises(ValidationError):
            gap_check_discrete(problem, rule)

    def test_degenerate_conditional_rejected_for_negative_entropy(self):
        # state 1 never occurs with h = 0, so d_h and d_star there have a
        # zero entry, outside the negative-entropy domain
        probs = np.full((2, 2, 2), 0.125)
        probs[1, 0, :] = 0.0
        problem = DiscreteProblem(states=(0, 1), probs=probs / probs.sum(), loss=LogLoss())
        rule = np.full((2, 2, 2), 0.5)
        with pytest.raises(ValidationError):
            gap_check_discrete(problem, rule)


class TestGapCheckGaussian:
    def test_zero_overlap_penalty_vanishes(self):
        env = Environment(1.0)
        report = gap_check_gaussian_cn(env, SignalSpec(1.0, 0.7, 0.0), n=50_000,
                                       rng=RngHandle(0, stream=3))
        assert report.penalty <= 4.0 * report.penalty_se + 1e-12
        assert abs(report.residual) <= 4.0 * report.penalty_se + 1e-12

    def test_reference_point_penalty(self):
        env = Environment(1.0)
        report = gap_check_gaussian_cn(env, SignalSpec(1.0, 1.0, 0.5), n=1_000_000,
                                       rng=RngHandle(1, stream=3))
        assert abs(report.penalty - 1.0 / 63.0) <= 4.0 * report.penalty_se
        assert abs(report.residual) <= 4.0 * report.penalty_se

    def test_random_specs_residuals_within_noise(self):
        rng = np.random.default_rng(9)
        env = Environment(1.0)
        for i in range(20):
            tau_h = rng.uniform(0.3, 2.5)
            tau_a = rng.uniform(0.2, 2.5)
            lam = rng.uniform(0.05, 0.9) * min(tau_h / tau_a, 1.0)
            spec = SignalSpec(tau_h, tau_a, lam)
            report = gap_check_gaussian_cn(env, spec, n=200_000, rng=RngHandle(100 + i, stream=3))
            assert abs(report.residual) <= 4.0 * report.penalty_se

    @pytest.mark.parametrize("env, spec, n, seed, penalty, penalty_se", [
        (Environment(1.0), SignalSpec(1.0, 1.0, 0.5), 1000, 5,
         "0x1.e973de86c9dcdp-7", "0x1.52faecdc15305p-11"),
        (Environment(0.7), SignalSpec(1.3, 0.6, 0.2), 70_001, 12,
         "0x1.f7f9074b1ecb1p-10", "0x1.597b05acd62f1p-17"),
        (Environment(1.0), SignalSpec(1.0, 0.7, 0.3), 2, 0,
         "0x1.58975955b94afp-8", "0x1.577331b9c2d68p-8"),
        (Environment(2.5), SignalSpec(0.4, 1.6, 0.25), 65_536, 0,
         "0x1.2302ea2d369d8p-6", "0x1.9c0afc13d49f3p-14"),
        (Environment(1.0), SignalSpec(2.0, 1.0, 0.9), 3001, 7,
         "0x1.fafb09977a31ap-6", "0x1.8fcb88a3489f5p-11"),
        (Environment(0.3), SignalSpec(0.8, 3.0, 0.1), 131_073, 2**63,
         "0x1.e8533f73ee58bp-9", "0x1.e5147df7bf796p-17"),
    ], ids=["n1000", "two-chunks", "n2", "one-full-chunk", "lam0.9", "seed2^63"])
    def test_stream_three_of_a_seed_draws_the_recorded_penalty(self, env, spec, n, seed,
                                                               penalty, penalty_se):
        # the bits the penalty had when the oracle drew stream 3 of its own seed
        report = gap_check_gaussian_cn(env, spec, n, RngHandle(seed, stream=3))
        assert (report.penalty.hex(), report.penalty_se.hex()) == (penalty, penalty_se)

    def test_report_structure(self):
        env = Environment(1.0)
        report = gap_check_gaussian_cn(env, SignalSpec(1.0, 1.0, 0.5), n=10_000,
                                       rng=RngHandle(2, stream=3))
        assert isinstance(report, GapReport)
        assert report.penalty_se > 0.0
        assert abs(report.residual - (report.lhs - report.marginal + report.penalty)) < 1e-15


class TestConditionalMeanOptimality:
    def test_squared_conditional_mean_wins(self):
        rng = np.random.default_rng(10)
        problem = random_problem(rng, SQUARED)
        advantage = conditional_mean_optimality(problem)
        assert isinstance(advantage, float)
        assert 0.0 <= advantage <= 1e-9

    def test_negative_entropy_conditional_distribution_wins(self):
        rng = np.random.default_rng(11)
        problem = random_problem(rng, NEGENT)
        assert 0.0 <= conditional_mean_optimality(problem) <= 1e-9

    def test_negative_entropy_search_needs_two_states(self):
        # a log-loss problem has the two states 0 and 1, so its search over
        # two-state distributions covers every decision; three states are
        # searched under quadratic loss only
        probs = np.full((3, 2, 2), 1.0 / 12.0)
        with pytest.raises(ValidationError, match="log loss requires states in"):
            DiscreteProblem(states=(-1.0, 0.5, 2.0), probs=probs, loss=LogLoss())
        problem = DiscreteProblem(states=(-1.0, 0.5, 2.0), probs=probs, loss=QuadraticLoss())
        assert 0.0 <= conditional_mean_optimality(problem) <= 1e-9

    def test_constant_state_problem(self):
        probs = np.zeros((2, 2, 1))
        probs[1, 0, 0] = 0.5
        probs[1, 1, 0] = 0.5
        problem = DiscreteProblem(states=(0.0, 3.0), probs=probs, loss=QuadraticLoss())
        assert 0.0 <= conditional_mean_optimality(problem) <= 1e-9


def test_three_point_identity_randomized_rules():
    # E[D(Y, d_hat)] - E[D(Y, d_star)] = E[D(d_star, d_hat)], exactly
    rng = np.random.default_rng(12)
    for loss in LOSSES:
        for _ in range(50):
            problem = random_problem(rng, loss)
            if loss is SQUARED:
                rule = random_rule(problem, rng, -1.0, 2.0)
            else:
                rule = random_rule(problem, rng, 0.02, 0.98)
            report = gap_check_discrete(problem, rule)
            # the gap residual is the three-point residual up to sign
            assert abs(report.residual) < 1e-12



@pytest.mark.parametrize("loss", LOSSES, ids=LOSS_IDS)
def test_the_problems_loss_is_its_bregman_loss(loss):
    # the gap identity's marginal value is voi's conditional value of the
    # assistant, in nats under log loss, where voi reports bits: on the gap
    # suite's seed-0 random problems and on three constructions
    rng = RngHandle(0, stream=10)
    problems = [verify._random_discrete_problem(rng.split(i), loss) for i in range(100)]
    problems += [with_loss(problem, loss) for problem in (
        xor_construction(0.25), ratio_construction(0.3), ratio_construction(2.0))]
    nats = math.log(2.0) if loss is NEGENT else 1.0
    for i, problem in enumerate(problems):
        rule = verify._random_rule(problem, rng.split(1000 + i))
        expected = marginal_value_discrete(problem).v_a_given_h * nats
        assert abs(gap_check_discrete(problem, rule).marginal - expected) <= 1e-12
