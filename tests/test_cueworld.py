import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualsig.core import ValidationError
from dualsig.cueworld import (
    ConcentrationSummary,
    CueWorld,
    SamplingPlan,
    aggregate_signal_samples,
    aggregate_signals,
    build_world,
    concentration_experiment,
    covariance_lambda,
    domain_overlap_rate,
    empirical_lambda,
    overlap_estimates,
    round_half_away,
    sample_ai_set,
    signal_precision,
)
from dualsig.rng import derive_seed

PLAN = SamplingPlan(a=0.3, m=0.5, k=0.25, h_total=0.5)


def hand_world():
    """Two heterogeneous cues with precisions 1 and 3, both accessible."""
    return CueWorld(n_cues=2, precisions=np.array([1.0, 3.0]),
                    accessible=np.array([True, True]),
                    human_set=np.array([1]), homogeneous=False)


class TestPlanValidation:
    def test_bounds(self):
        with pytest.raises(ValidationError):
            SamplingPlan(a=0.6, m=0.5, k=0.25, h_total=0.5)  # a > m
        with pytest.raises(ValidationError):
            SamplingPlan(a=0.3, m=0.5, k=0.6, h_total=0.7)  # k > m
        with pytest.raises(ValidationError):
            SamplingPlan(a=0.3, m=0.5, k=0.25, h_total=0.2)  # h_total < k
        with pytest.raises(ValidationError):
            SamplingPlan(a=0.0, m=0.5, k=0.25, h_total=0.5)

    def test_rounding(self):
        assert round_half_away(2.5) == 3
        assert round_half_away(2.4999) == 2
        assert round_half_away(-2.5) == -3


class TestBuildWorld:
    def test_plan_arithmetic(self):
        world = build_world(1000, PLAN, mode="homogeneous", tau=1.0, seed=0)
        assert world.accessible.sum() == 500
        in_acc = world.accessible[world.human_set]
        assert int(in_acc.sum()) == 250
        assert world.human_set.size == 500

    def test_homogeneous_precisions_constant(self):
        world = build_world(64, PLAN, mode="homogeneous", tau=1.7, seed=1)
        assert np.all(world.precisions == 1.7)
        assert world.homogeneous

    def test_heterogeneous_precisions_bounded(self):
        world = build_world(512, PLAN, mode="heterogeneous", tau_bounds=(0.5, 2.0), seed=1)
        assert world.precisions.min() >= 0.5
        assert world.precisions.max() <= 2.0
        assert np.unique(world.precisions).size > 1

    def test_same_seed_bit_identical(self):
        a = build_world(300, PLAN, mode="heterogeneous", seed=7)
        b = build_world(300, PLAN, mode="heterogeneous", seed=7)
        assert np.array_equal(a.precisions, b.precisions)
        assert np.array_equal(a.human_set, b.human_set)
        assert np.array_equal(a.accessible, b.accessible)

    def test_impossible_rounding_rejected(self):
        # the human set cannot need more inaccessible cues than exist
        with pytest.raises(ValidationError):
            build_world(10, SamplingPlan(a=0.5, m=0.5, k=0.0, h_total=1.0), seed=0)

    def test_world_validation(self):
        with pytest.raises(ValidationError):
            CueWorld(n_cues=2, precisions=np.array([1.0, -1.0]),
                     accessible=np.array([True, True]),
                     human_set=np.array([0]), homogeneous=False)
        with pytest.raises(ValidationError):
            CueWorld(n_cues=2, precisions=np.array([1.0, 1.0]),
                     accessible=np.array([True, True]),
                     human_set=np.array([5]), homogeneous=True)


class TestSampleAiSet:
    def test_exhausting_the_pool(self):
        world = build_world(100, PLAN, seed=0)
        full = sample_ai_set(world, PLAN.m, seed=3)
        assert np.array_equal(full, world.accessible_indices)

    def test_exact_size_every_draw(self):
        world = build_world(100, PLAN, seed=0)
        for rep in range(50):
            s = sample_ai_set(world, 0.3, seed=derive_seed(0, rep))
            assert s.size == 30
            assert np.all(world.accessible[s])

    def test_oversized_request_rejected(self):
        world = build_world(100, PLAN, seed=0)
        with pytest.raises(ValidationError):
            sample_ai_set(world, 0.7, seed=0)

    def test_inclusion_frequencies_hypergeometric(self):
        # size-6 subsets of the 10 accessible cues: inclusion probability 0.6
        world = build_world(20, PLAN, seed=0)
        draws = 10_000
        counts = np.zeros(20)
        for rep in range(draws):
            counts[sample_ai_set(world, 0.3, seed=derive_seed(42, rep))] += 1
        freq = counts[world.accessible_indices] / draws
        sigma = math.sqrt(0.6 * 0.4 / draws)
        assert np.all(np.abs(freq - 0.6) <= 3.0 * sigma)


class TestOverlapMeasures:
    def test_homogeneous_extremes(self):
        world = build_world(100, PLAN, seed=0)
        hset = world.human_set
        assert empirical_lambda(world, hset, hset) == 1.0
        complement = np.setdiff1d(np.arange(100), hset)
        assert empirical_lambda(world, hset, complement) == 0.0

    def test_heterogeneous_hand_case(self):
        world = hand_world()
        assert abs(empirical_lambda(world, [1], [0, 1]) - 0.75) < 1e-15
        assert abs(covariance_lambda(world, [1], [0, 1]) - 0.75) < 1e-15

    def test_ratio_equals_covariance_definition(self):
        for mode, seed in (("homogeneous", 0), ("heterogeneous", 1)):
            world = build_world(400, PLAN, mode=mode, seed=seed)
            for rep in range(20):
                ai = sample_ai_set(world, 0.3, seed=derive_seed(seed, rep))
                lam_ratio = empirical_lambda(world, world.human_set, ai)
                lam_cov = covariance_lambda(world, world.human_set, ai)
                assert abs(lam_ratio - lam_cov) < 1e-13

    def test_homogeneous_equals_count_ratio_exactly(self):
        world = build_world(250, PLAN, mode="homogeneous", tau=0.3, seed=5)
        ai = sample_ai_set(world, 0.2, seed=9)
        expected = np.intersect1d(ai, world.human_set).size / ai.size
        assert empirical_lambda(world, world.human_set, ai) == expected

    def test_identical_sets_give_unit_overlap(self):
        world = build_world(60, PLAN, mode="heterogeneous", seed=2)
        ai = sample_ai_set(world, 0.3, seed=2)
        assert abs(covariance_lambda(world, ai, ai) - 1.0) < 1e-15

    @pytest.mark.parametrize("mode", ["homogeneous", "heterogeneous"])
    @settings(max_examples=50, deadline=None)
    @given(rnd=st.randoms(use_true_random=False), extra=st.integers(0, 30))
    def test_unsorted_and_duplicated_lists_match_sorted_sets(self, mode, rnd, extra):
        world = build_world(300, PLAN, mode=mode, seed=4)
        ai = sample_ai_set(world, 0.3, seed=4)
        hset = world.human_set

        def scrambled(idx):
            out = [int(i) for i in idx] + rnd.choices([int(i) for i in idx], k=extra)
            rnd.shuffle(out)
            return out

        h_list, a_list = scrambled(hset), scrambled(ai)
        for measure in (empirical_lambda, covariance_lambda):
            expected = measure(world, hset, ai)
            assert measure(world, h_list, a_list) == expected
            assert measure(world, np.array(h_list), np.array(a_list)) == expected
            # sorted but with repeats: ascending order alone is not a set
            assert measure(world, sorted(h_list), sorted(a_list)) == expected

    def test_empty_ai_set_rejected(self):
        world = build_world(60, PLAN, seed=2)
        with pytest.raises(ValidationError):
            empirical_lambda(world, world.human_set, [])

    def test_measured_overlap_respects_feasibility(self):
        for seed in range(10):
            world = build_world(300, PLAN, mode="heterogeneous", seed=seed)
            ai = sample_ai_set(world, 0.3, seed=seed)
            lam = covariance_lambda(world, world.human_set, ai)
            tau_h = signal_precision(world, world.human_set)
            tau_a = signal_precision(world, ai)
            assert lam <= min(tau_h / tau_a, 1.0) + 1e-12


class TestAggregation:
    def test_identical_sets_identical_signals(self):
        world = build_world(80, PLAN, mode="heterogeneous", seed=3)
        hset = world.human_set
        h, a = aggregate_signals(world, hset, hset, y=0.7, seed=11)
        assert h == a

    def test_conditional_variance_of_own_signal(self):
        # |H| = N/2 with unit cue precision: Var(H|Y) = N / T_H = 2
        world = build_world(100, PLAN, mode="homogeneous", tau=1.0, seed=4)
        reps = 100_000
        h, _ = aggregate_signal_samples(world, world.human_set,
                                        world.accessible_indices, y=0.0,
                                        seed=13, reps=reps)
        sample_var = h.var(ddof=1)
        sigma = 2.0 * math.sqrt(2.0 / reps)
        assert abs(sample_var - 2.0) <= 3.0 * sigma

    def test_empirical_overlap_matches_covariance_lambda(self):
        world = build_world(100, PLAN, mode="heterogeneous", seed=5)
        ai = sample_ai_set(world, 0.3, seed=5)
        lam = covariance_lambda(world, world.human_set, ai)
        reps = 100_000
        h, a = aggregate_signal_samples(world, world.human_set, ai, y=0.0,
                                        seed=17, reps=reps)
        ratio = np.cov(h, a)[0, 1] / h.var(ddof=1)
        assert abs(ratio - lam) < 0.02

    def test_innovation_uncorrelated_with_own_signal(self):
        world = build_world(100, PLAN, mode="heterogeneous", seed=6)
        ai = sample_ai_set(world, 0.3, seed=6)
        lam = covariance_lambda(world, world.human_set, ai)
        reps = 200_000
        h, a = aggregate_signal_samples(world, world.human_set, ai, y=0.0,
                                        seed=19, reps=reps)
        innovation = (a - lam * h) / (1.0 - lam)
        corr = np.corrcoef(h, innovation)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(reps)

    def test_empty_sets_rejected(self):
        world = build_world(40, PLAN, seed=1)
        with pytest.raises(ValidationError):
            aggregate_signals(world, [], world.human_set, y=0.0, seed=0)


class TestConcentration:
    def test_zero_overlap_plan_pins_lambda_at_zero(self):
        plan = SamplingPlan(a=0.3, m=0.5, k=0.0, h_total=0.3)
        summaries = concentration_experiment([500], plan, reps=20, seed=0)
        assert summaries[0].target == 0.0
        assert summaries[0].max_abs_error == 0.0

    def test_error_shrinks_with_pool_size(self):
        summaries = concentration_experiment([2000, 8000, 32000], PLAN,
                                             reps=40, mode="homogeneous", seed=1)
        errs = [s.mean_abs_error for s in summaries]
        assert errs[0] > errs[1] > errs[2]
        # roughly square-root decay: quadrupling N should about halve the error
        assert errs[0] / errs[2] > 2.0

    def test_heterogeneous_targets_realized_rate(self):
        summaries = concentration_experiment([20_000], PLAN, reps=30,
                                             mode="heterogeneous", seed=2,
                                             tau_bounds=(0.5, 2.0))
        s = summaries[0]
        assert isinstance(s, ConcentrationSummary)
        assert abs(s.target - 0.5) < 0.05  # k/m with mild precision jitter
        assert s.max_abs_error < 0.05

    def test_deterministic(self):
        a = concentration_experiment([1000], PLAN, reps=10, seed=3)
        b = concentration_experiment([1000], PLAN, reps=10, seed=3)
        assert a == b

    def test_per_rep_estimates_back_the_summary(self):
        world = build_world(1000, PLAN, seed=4)
        estimates = overlap_estimates(world, PLAN.a, reps=25, seed=4, target=0.5)
        assert len(estimates) == 25
        assert all(e.abs_error == abs(e.lambda_hat - 0.5) for e in estimates)
        assert all(0.0 <= e.lambda_hat <= 1.0 for e in estimates)


def test_domain_overlap_rate_matches_plan():
    world = build_world(1000, PLAN, mode="homogeneous", seed=0)
    assert domain_overlap_rate(world) == 0.5
    het = build_world(1000, PLAN, mode="heterogeneous", seed=0)
    assert 0.35 < domain_overlap_rate(het) < 0.65


def test_heterogeneous_reduces_to_homogeneous_when_bounds_collapse():
    world = build_world(200, PLAN, mode="heterogeneous", tau_bounds=(1.3, 1.3), seed=8)
    ai = sample_ai_set(world, 0.3, seed=8)
    count_ratio = np.intersect1d(ai, world.human_set).size / ai.size
    assert abs(empirical_lambda(world, world.human_set, ai) - count_ratio) < 1e-14
    assert abs(covariance_lambda(world, world.human_set, ai) - count_ratio) < 1e-14
