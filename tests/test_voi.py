import dataclasses
import math

import numpy as np
import pytest

from dualsig import verify, voi
from dualsig.core import ValidationError
from dualsig.voi import (
    DiscreteProblem,
    LogLoss,
    QuadraticLoss,
    VoiReport,
    _binary_entropy,
    _erasure_construction,
    _xor_q_for_ratio,
    bayes_risk,
    brute_force_voi,
    conditional_mean_optimality,
    marginal_value_discrete,
    posterior_two_tests,
    ratio_construction,
    xor_construction,
)

from helpers import mutual_information_bits, variance_reduction

H2_01 = 0.4689955935892812          # binary entropy of 0.1 in bits
V_XOR_COND = 0.5310044064107188     # 1 - H2(0.1)
V_XOR_ALONE = 0.1187091007693073    # 1 - H2(0.3)
XOR_RATIO_01_025 = 4.473156674336565


def random_problems(rng, n_h=2, n_a=2):
    """The same random joint over two states under log loss (states 0, 1)
    and under quadratic loss (states drawn from [-2, 2])."""
    raw = rng.uniform(size=(2, n_h, n_a))
    probs = raw / raw.sum()
    return (DiscreteProblem(states=(0, 1), probs=probs, loss=LogLoss()),
            DiscreteProblem(states=tuple(np.sort(rng.uniform(-2.0, 2.0, size=2))),
                            probs=probs, loss=QuadraticLoss()))


class TestBinaryEntropy:
    def test_values(self):
        assert _binary_entropy(0.0) == 0.0
        assert _binary_entropy(1.0) == 0.0
        assert _binary_entropy(0.5) == 1.0
        assert abs(_binary_entropy(0.1) - H2_01) < 1e-15

    def test_symmetry(self):
        for p in np.linspace(0.01, 0.99, 25):
            assert abs(_binary_entropy(p) - _binary_entropy(1.0 - p)) < 1e-14

    def test_domain(self):
        with pytest.raises(ValidationError):
            _binary_entropy(-0.1)


class TestProblemValidation:
    def test_probabilities_must_normalize(self):
        probs = np.full((2, 2, 2), 0.2)
        with pytest.raises(ValidationError):
            DiscreteProblem(states=(0, 1), probs=probs, loss=LogLoss())

    @pytest.mark.parametrize("states, loss", [
        (("x", "y"), QuadraticLoss()),
        ((0.0, complex(1, 1)), QuadraticLoss()),
        ((0.0, float("nan")), QuadraticLoss()),
        ((0.0, float("inf")), QuadraticLoss()),
        ((0, 1), "zero-one"),
    ])
    def test_states_and_loss_validated(self, states, loss):
        with pytest.raises(ValidationError):
            DiscreteProblem(states=states, probs=np.full((2, 1, 1), 0.5), loss=loss)

    def test_states_stored_as_floats(self):
        problem = xor_construction(0.25)
        assert problem.states == (0.0, 1.0)
        assert all(type(s) is float for s in problem.states)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 2, 2), (3, 2, 2)])
    def test_needs_one_state_axis_and_one_axis_per_signal(self, shape):
        # a state axis of len(states), then "h" and "a"
        with pytest.raises(ValidationError, match=r"probs must have shape \(len\(states\)"):
            DiscreteProblem(states=(0, 1), probs=np.full(shape, 1.0 / np.prod(shape)),
                            loss=LogLoss())

    def test_fields_are_the_states_the_joint_table_and_the_loss(self):
        assert [f.name for f in dataclasses.fields(DiscreteProblem)] == ["states", "probs", "loss"]
        assert xor_construction(0.25).signal_shape == (2, 2)
        assert _erasure_construction(0.4).signal_shape == (3, 2)

    @pytest.mark.parametrize("states, loss", [
        # one-hot encoding would split the one label 0 in two
        ((0, 0, 1), LogLoss()),
        ((2.0, 2.0), QuadraticLoss()),
        ((1.0,), QuadraticLoss()),
    ])
    def test_states_are_two_or_more_distinct_values(self, states, loss):
        probs = np.full((len(states), 1, 1), 1.0 / len(states))
        with pytest.raises(ValidationError, match="states must be two or more distinct values"):
            DiscreteProblem(states=states, probs=probs, loss=loss)

    def test_log_loss_needs_binary_states(self):
        probs = np.full((3, 1, 1), 1.0 / 3.0)
        with pytest.raises(ValidationError):
            DiscreteProblem(states=(0, 1, 2), probs=probs, loss=LogLoss())

    def test_report_invariants(self):
        # v_a_given_h = v_joint - v_h = -0.1
        with pytest.raises(ValidationError, match="v_a_given_h must be nonnegative"):
            VoiReport(v_h=0.5, v_a=0.2, v_joint=0.4)

    def test_report_fields_are_the_three_values(self):
        assert [f.name for f in dataclasses.fields(VoiReport)] == ["v_h", "v_a", "v_joint"]

    def test_report_derives_the_conditional_value_and_the_ratio(self):
        report = VoiReport(v_h=0.5, v_a=0.25, v_joint=0.625)
        assert report.v_a_given_h == 0.125 and report.ratio == 0.5
        assert math.isnan(VoiReport(v_h=0.5, v_a=0.0, v_joint=0.5).ratio)


def quadratic_problem():
    """Three states under quadratic loss, the problem of the variance row of
    ``verify``'s ``voi`` suite."""
    probs = np.array([[[0.10, 0.05, 0.05], [0.02, 0.08, 0.03]],
                      [[0.06, 0.04, 0.10], [0.07, 0.03, 0.04]],
                      [[0.05, 0.09, 0.02], [0.08, 0.05, 0.04]]])
    return DiscreteProblem(states=(-1.0, 0.5, 2.0), probs=probs, loss=QuadraticLoss())


@pytest.mark.parametrize("make", [
    lambda: xor_construction(0.25),
    lambda: xor_construction(0.0),
    lambda: ratio_construction(0.5),
    lambda: random_problems(np.random.default_rng(2), n_h=3)[0],
    quadratic_problem,
], ids=["xor", "xor-q0", "erasure", "random-log", "quadratic"])
def test_report_values_are_bayes_risk_differences(make):
    # each value of the report is the risk reduction of its signal set from
    # the no-information baseline, to the last bit
    problem = make()
    report = marginal_value_discrete(problem)
    l0 = bayes_risk(problem, ())
    assert (report.v_h, report.v_a, report.v_joint) == (
        l0 - bayes_risk(problem, ("h",)), l0 - bayes_risk(problem, ("a",)),
        l0 - bayes_risk(problem, ("h", "a")))


def three_symbol_problem():
    """A strictly positive joint over three states, a 3-symbol own signal
    and a binary assistant signal."""
    raw = np.random.default_rng(4).uniform(size=(3, 3, 2))
    return DiscreteProblem(states=(-1.0, 0.5, 2.0), probs=raw / raw.sum(), loss=QuadraticLoss())


class TestConditionals:
    def test_zero_probability_realizations_are_dropped(self):
        # t = 0: h is never erased and always equals a
        problem = _erasure_construction(0.0)
        live_h, p_h, _ = problem.conditionals(("h",))
        assert live_h.tolist() == [0, 1] and p_h.tolist() == [0.5, 0.5]
        live, p, cond = problem.conditionals(("h", "a"))
        assert live.tolist() == [0, 3]  # the pairs (0, 0) and (1, 1)
        assert p.tolist() == [0.5, 0.5] and cond.shape == (2, 2)

    def test_flat_indices_in_c_order_of_the_signal_axes(self):
        problem = three_symbol_problem()
        live, p, cond = problem.conditionals(("h", "a"))
        assert live.tolist() == list(range(6))
        for j, (i_h, i_a) in enumerate(np.ndindex(3, 2)):
            col = problem.probs[:, i_h, i_a]
            assert p[j] == pytest.approx(col.sum(), abs=1e-15)
            np.testing.assert_allclose(cond[:, j], col / col.sum(), rtol=1e-14)

    def test_columns_are_distributions(self):
        problem = three_symbol_problem()
        for signals, size in (((), 1), (("h",), 3), (("a",), 2), (("h", "a"), 6)):
            live, p, cond = problem.conditionals(signals)
            assert live.size == size
            assert cond.shape == (3, live.size) and (cond >= 0.0).all()
            np.testing.assert_allclose(cond.sum(axis=0), 1.0, rtol=1e-14)
            assert p.sum() == pytest.approx(1.0, abs=1e-14)
        live, p, cond = problem.conditionals()
        assert live.tolist() == [0] and p[0] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_array_equal(cond[:, 0], problem.probs.sum(axis=(1, 2)) / p[0])

    def test_order_of_signals_does_not_matter(self):
        problem = three_symbol_problem()
        for x, y in zip(problem.conditionals(("h", "a")), problem.conditionals(("a", "h"))):
            np.testing.assert_array_equal(x, y)

    def test_unknown_signal_rejected(self):
        with pytest.raises(ValidationError, match="unknown signal"):
            three_symbol_problem().conditionals(("h", "d"))

    @pytest.mark.parametrize("signals, message", [
        ("ha", "sequence of names"),
        ("h", "sequence of names"),
        (("a", "a"), "repeated signal"),
        (("h", "a", "h"), "repeated signal"),
    ])
    @pytest.mark.parametrize("call", [
        lambda problem, signals: problem.conditionals(signals),
        bayes_risk,
    ], ids=["conditionals", "bayes_risk"])
    def test_bare_string_and_repeated_signals_rejected(self, call, signals, message):
        # "ha" used to read as ("h", "a"), and ("a", "a") as ("a",)
        with pytest.raises(ValidationError, match=message):
            call(three_symbol_problem(), signals)


class TestBayesRisk:
    def test_empty_subset_gives_baseline(self):
        problem = xor_construction(0.25)
        assert bayes_risk(problem, ()) == 1.0  # fair-coin entropy in bits

    def test_perfectly_revealing_signal(self):
        probs = np.zeros((2, 2, 1))
        probs[0, 0, 0] = 0.5
        probs[1, 1, 0] = 0.5
        problem = DiscreteProblem(states=(0, 1),
                                  probs=probs, loss=LogLoss())
        assert bayes_risk(problem, ("h",)) == 0.0
        assert marginal_value_discrete(problem).v_h == 1.0

    def test_uninformative_signal_is_worthless(self):
        probs = np.zeros((2, 2, 1))
        probs[:, :, 0] = 0.25
        problem = DiscreteProblem(states=(0, 1),
                                  probs=probs, loss=LogLoss())
        assert abs(marginal_value_discrete(problem).v_h) < 1e-15

    def test_xor_conditional_risk_relation(self):
        # with h observed, a is a p-noisy copy of y: risk H2(0.1)
        problem = xor_construction(0.25)
        assert abs(bayes_risk(problem, ("h", "a")) - H2_01) < 1e-12


class TestInformationIdentities:
    def test_log_loss_value_equals_mutual_information(self):
        problem = xor_construction(0.25)
        for signals in ((), ("h",), ("a",), ("h", "a")):
            assert abs(bayes_risk(problem, ()) - bayes_risk(problem, signals)
                       - mutual_information_bits(problem, signals)) < 1e-12

    def test_quadratic_value_equals_variance_reduction(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(size=(3, 2, 3))
        probs = raw / raw.sum()
        problem = DiscreteProblem(states=(-1.0, 0.5, 2.0),
                                  probs=probs,
                                  loss=QuadraticLoss())
        for signals in (("h",), ("a",), ("h", "a")):
            assert abs(bayes_risk(problem, ()) - bayes_risk(problem, signals)
                       - variance_reduction(problem, signals)) < 1e-12

    def test_joint_dominates_singles(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            for problem in random_problems(rng):
                report = marginal_value_discrete(problem)
                assert report.v_joint >= max(report.v_h, report.v_a) - 1e-12
                assert report.v_a_given_h >= -1e-12

    def test_superadditivity_equivalence_both_ways(self):
        # synergy case: the own signal unlocks the assistant signal
        xor = marginal_value_discrete(xor_construction(0.25))
        assert xor.v_a_given_h > xor.v_a
        assert xor.v_joint > xor.v_a + xor.v_h
        # redundancy case: two independent noisy copies saturate at 1 bit
        probs = np.zeros((2, 2, 2))
        for y, h, a in np.ndindex(2, 2, 2):
            probs[y, h, a] = 0.5 * (0.1 if h != y else 0.9) * (0.1 if a != y else 0.9)
        problem = DiscreteProblem(states=(0, 1),
                                  probs=probs, loss=LogLoss())
        report = marginal_value_discrete(problem)
        assert report.v_joint > report.v_h
        assert report.v_a_given_h < report.v_a
        assert report.v_joint < report.v_a + report.v_h


class TestConstructions:
    def test_xor_report_values(self):
        report = marginal_value_discrete(xor_construction(0.25))
        assert abs(report.v_a_given_h - V_XOR_COND) < 1e-12
        assert abs(report.v_a - V_XOR_ALONE) < 1e-12
        assert abs(report.ratio - XOR_RATIO_01_025) < 1e-10

    def test_xor_ratio_one_at_zero_q(self):
        report = marginal_value_discrete(xor_construction(0.0))
        assert abs(report.ratio - 1.0) < 1e-12

    def test_xor_ratio_grows_toward_half(self):
        ratios = [marginal_value_discrete(xor_construction(q)).ratio
                  for q in (0.0, 0.2, 0.35, 0.45, 0.49)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 50.0

    def test_erasure_exact_ratio(self):
        report = marginal_value_discrete(_erasure_construction(0.4))
        assert abs(report.ratio - 0.4) < 1e-12
        assert abs(report.v_a_given_h - 0.21240176256428753) < 1e-12

    def test_erasure_t_zero_no_conditional_value(self):
        report = marginal_value_discrete(_erasure_construction(0.0))
        assert abs(report.v_a_given_h) < 1e-12

    def test_erasure_ratio_monotone_in_t(self):
        ratios = [marginal_value_discrete(_erasure_construction(t)).ratio
                  for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_ratio_construction_hits_targets(self):
        for target in (0.0, 0.3, 1.0, 2.0, 10.0):
            problem = ratio_construction(target)
            report = marginal_value_discrete(problem)
            observed = 0.0 if report.v_a_given_h == 0.0 else report.ratio
            assert abs(observed - target) < 1e-9

    def test_xor_q_solver_range(self):
        assert _xor_q_for_ratio(1.0) == 0.0
        q = _xor_q_for_ratio(3.0)
        assert 0.0 < q < 0.5

    @pytest.mark.parametrize("t, q", [
        (1.0, "0x0.0p+0"),
        (1.0 + 2**-52, "0x1.fffd60e94ee39p-55"),
        (1.25, "0x1.768564175a96ep-5"),
        (2.0, "0x1.10526c4efd740p-3"),
        (3.0, "0x1.9347ddb6fb8cap-3"),
        (10.0, "0x1.536e5a67d1b02p-2"),
        (1e3, "0x1.eea304668725ep-2"),
        (1e9, "0x1.fffb8e03bedf4p-2"),
    ])
    def test_xor_q_solver_keeps_its_recorded_bits(self, t, q):
        # the roots the solver found when it returned 0.0 for t = 1 by a branch
        # of its own; bisect now reaches that exact root itself
        assert _xor_q_for_ratio(t).hex() == q

    def test_nan_ratio_target_rejected(self):
        with pytest.raises(ValidationError):
            ratio_construction(float("nan"))

    def test_construction_parameter_domains(self):
        with pytest.raises(ValidationError):
            xor_construction(-0.1)
        with pytest.raises(ValidationError):
            xor_construction(0.5)


class TestPosteriorTwoTests:
    def test_reference_numbers(self):
        single, both = posterior_two_tests(0.001, 0.7, 0.01)
        assert abs(single - 0.06548175865294668) < 1e-15
        assert abs(both - 0.8306492625868791) < 1e-15

    def test_uninformative_test(self):
        single, both = posterior_two_tests(0.5, 0.3, 0.3)
        assert single == 0.5 and both == 0.5

    def test_near_perfect_test(self):
        _, both = posterior_two_tests(0.2, 0.999999, 1e-9)
        assert both > 0.999999

    def test_domain(self):
        with pytest.raises(ValidationError):
            posterior_two_tests(0.0, 0.7, 0.01)


class TestBruteForce:
    def test_matches_closed_form_on_xor(self):
        closed = marginal_value_discrete(xor_construction(0.25))
        brute = brute_force_voi(xor_construction(0.25))
        for field in ("v_h", "v_a", "v_joint", "v_a_given_h"):
            assert abs(getattr(closed, field) - getattr(brute, field)) < 1e-9

    def test_matches_fast_path_on_random_problems(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            for problem in random_problems(rng, n_h=rng.integers(2, 4)):
                closed = marginal_value_discrete(problem)
                brute = brute_force_voi(problem)
                for field in ("v_h", "v_a", "v_joint", "v_a_given_h"):
                    assert abs(getattr(closed, field) - getattr(brute, field)) < 1e-9

    def test_signals_independent_of_the_state_are_worthless(self):
        # P(y, h, a) = P(y) P(h, a): no signal moves the posterior
        probs = np.multiply.outer(np.array([0.3, 0.7]), np.array([[0.1, 0.2], [0.4, 0.3]]))
        for loss in (LogLoss(), QuadraticLoss()):
            problem = DiscreteProblem(states=(0, 1),
                                      probs=probs, loss=loss)
            report = brute_force_voi(problem)
            for value in (report.v_h, report.v_a, report.v_joint, report.v_a_given_h):
                assert abs(value) < 1e-12

    def test_guard_rejects_huge_problems(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("a search ran before the guard")

        monkeypatch.setattr("dualsig.voi.minimize_grid_refine", no_search)
        n = 40
        probs = np.full((2, n, n), 1.0 / (2 * n * n))
        problem = DiscreteProblem(states=(0, 1), probs=probs, loss=QuadraticLoss())
        with pytest.raises(ValidationError):
            brute_force_voi(problem)


class TestLossAlgebra:
    def test_each_loss_encodes_its_states(self):
        assert QuadraticLoss().encode((-1.0, 0.5, 2.0)).tolist() == [[-1.0], [0.5], [2.0]]
        assert LogLoss().encode((0.0, 1.0)).tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("loss, y, cond, risk", [
        (QuadraticLoss(), (-1.0, 0.5, 2.0), [0.2, 0.3, 0.5], 1.3725),  # Var(y)
        (LogLoss(), (0.0, 1.0), [0.5, 0.5], 1.0),                     # H2(1/2) bits
        (LogLoss(), (0.0, 1.0), [1.0, 0.0], 0.0),                     # a sure state
    ], ids=["quadratic", "log-uniform", "log-sure"])
    def test_the_search_finds_the_closed_form_risk(self, loss, y, cond, risk):
        cond = np.array(cond)
        assert abs(loss.closed_form_risk(y, cond) - risk) <= 1e-12
        assert 0.0 <= loss.searched_risk(y, cond) - risk <= 1e-9

    def test_a_log_loss_decision_is_zero_only_where_the_state_is(self):
        y = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert LogLoss().grad(np.array([1.0, 0.0]), y[0]).tolist() == [1.0, 1.0]
        with pytest.raises(ValidationError, match="zero where y is"):
            LogLoss().grad(np.array([1.0, 0.0]), y)
        assert QuadraticLoss().grad(np.array([1.5]), np.array([-2.0])).tolist() == [3.0]


def binary_problem(rng, loss):
    """A random joint over the states 0 and 1 and two values of each signal."""
    raw = rng.uniform(size=(2, 2, 2))
    return DiscreteProblem(states=(0, 1), probs=raw / raw.sum(), loss=loss)


class TestConditionalMeanOptimality:
    def test_squared_conditional_mean_wins(self):
        rng = np.random.default_rng(10)
        problem = binary_problem(rng, QuadraticLoss())
        advantage = conditional_mean_optimality(problem)
        assert isinstance(advantage, float)
        assert 0.0 <= advantage <= 1e-9

    def test_negative_entropy_conditional_distribution_wins(self):
        rng = np.random.default_rng(11)
        problem = binary_problem(rng, LogLoss())
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

    def test_a_pair_that_reveals_the_state_needs_no_decision(self):
        # at (h=0, a=0) the state is 0 for sure: its conditional mean is the
        # one-hot decision (1, 0), and the search reads only the conditional
        # distribution
        problem = DiscreteProblem((0, 1), [[[0.25, 0.1], [0.1, 0.05]],
                                           [[0.0, 0.2], [0.2, 0.1]]], LogLoss())
        advantage = conditional_mean_optimality(problem)
        assert isinstance(advantage, float)
        assert 0.0 <= advantage <= 1e-9

    def test_the_lemma_rows_read_this_oracle(self, monkeypatch):
        # a conditional-mean loss 1e-6 too high is beaten by the search, and
        # both rows of verify's lemma suite fail
        for loss in (QuadraticLoss, LogLoss):
            exact = loss.closed_form_risk
            monkeypatch.setattr(loss, "closed_form_risk",
                                lambda self, y, cond, exact=exact: exact(self, y, cond) + 1e-6)
        checks = verify.run("lemma", n=2, seed=0, sigma_mult=4.0, tau0=1.0, tau_h=1.0)
        rows = [c for c in checks if c.name.startswith("conditional_mean_optimal[")]
        assert [c.name for c in rows] == ["conditional_mean_optimal[squared]",
                                          "conditional_mean_optimal[negative_entropy]"]
        assert [c.ok for c in rows] == [False, False]
