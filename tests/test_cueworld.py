import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualsig import cueworld
from dualsig.core import ValidationError
from dualsig.cueworld import (
    ConcentrationSummary,
    CueWorld,
    SamplingPlan,
    _round_half_away,
    build_world,
    concentration_experiment,
    covariance_lambda,
    empirical_lambda,
    sample_ai_set,
)
from dualsig.rng import RngHandle, derive_seed

PLAN = SamplingPlan(a=0.3, m=0.5, k=0.25, h_total=0.5)


def hand_world():
    """Two heterogeneous cues with precisions 1 and 3, both accessible."""
    return CueWorld(precisions=np.array([1.0, 3.0]), n_accessible=2, human_set=np.array([1]))


def with_human_set(world, human_set):
    """``world`` with another human set, validated as at construction."""
    return dataclasses.replace(world, human_set=human_set)


def aggregate_samples(world, ai_set, reps, seed, chunk=20_000):
    """``reps`` draws of the human and the assistant aggregate at the state 0.

    Each draw realizes every cue of either set once, with variance
    ``N / tau_i``, and averages it into both aggregates with the weights of
    the module docstring: shared cues are what correlates the two.  Drawn
    with numpy's own generator, apart from every ``cueworld`` formula.
    """
    union = np.union1d(world.human_set, ai_set)
    sd = np.sqrt(world.n_cues / world.precisions[union])
    weights = np.column_stack([np.where(np.isin(union, idx), world.precisions[union], 0.0)
                               for idx in (world.human_set, ai_set)])
    weights *= sd[:, None] / weights.sum(axis=0)
    rng = np.random.default_rng(seed)
    draws = np.concatenate([rng.standard_normal((min(chunk, reps - i), union.size)) @ weights
                            for i in range(0, reps, chunk)])
    return draws[:, 0], draws[:, 1]


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

    @pytest.mark.parametrize("field", ["a", "m", "k", "h_total"])
    @pytest.mark.parametrize("value", [None, "0.5", np.array([0.5, 0.5])],
                             ids=["None", "numeric-str", "array"])
    def test_fractions_must_be_real_numbers(self, field, value):
        # None raised a bare TypeError from the comparisons
        fractions = {**dataclasses.asdict(PLAN), field: value}
        with pytest.raises(ValidationError, match=f"{field} must be a real number"):
            SamplingPlan(**fractions)

    def test_rounding(self):
        assert _round_half_away(2.5) == 3
        assert _round_half_away(2.4999) == 2
        # x + 0.5 rounds up to 1.0 here, and to 2**52 + 2 at 2**52 + 1
        assert _round_half_away(0.49999999999999994) == 0
        assert _round_half_away(2.0**52 + 1) == 2**52 + 1


class TestBuildWorld:
    def test_plan_arithmetic(self):
        world = build_world(1000, PLAN, mode="homogeneous", seed=0)
        assert world.n_accessible == 500
        in_acc = world.human_set < world.n_accessible
        assert int(in_acc.sum()) == 250
        assert world.human_set.size == 500

    def test_homogeneous_precisions_constant(self):
        world = build_world(64, PLAN, mode="homogeneous", seed=1)
        assert np.all(world.precisions == 1.0)

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
        assert a.n_accessible == b.n_accessible

    @pytest.mark.parametrize("n_cues, plan", [
        (1, SamplingPlan(a=0.3, m=0.4, k=0.1, h_total=0.5)),
        (2, SamplingPlan(a=0.2, m=0.2, k=0.1, h_total=0.5)),
    ])
    @pytest.mark.parametrize("mode", ["homogeneous", "heterogeneous"])
    def test_empty_accessible_pool_rejected(self, n_cues, plan, mode):
        # round(m*N) = 0: no cue for the assistant to draw, no overlap rate
        with pytest.raises(ValidationError, match="accessible pool rounds to 0"):
            build_world(n_cues, plan, mode=mode, seed=0)

    def test_overflowing_precision_mass_rejected(self):
        with pytest.raises(ValidationError, match="total cue precision = inf is not finite"):
            build_world(10, PLAN, mode="heterogeneous", tau_bounds=(1e300, 1e308), seed=0)
        with pytest.raises(ValidationError, match="not finite"):
            CueWorld(precisions=np.array([1e308, 1e308]), n_accessible=2, human_set=[0])

    def test_a_precision_mass_that_can_overflow_is_rejected_before_any_draw(self,
                                                                          monkeypatch):
        # N*hi = inf: the drawn total used to overflow for some seeds only
        draws, uniforms = [], RngHandle.uniforms
        monkeypatch.setattr(RngHandle, "uniforms",
                            lambda self, n: draws.append(n) or uniforms(self, n))
        for seed in range(5):
            with pytest.raises(ValidationError, match="total cue precision = inf is not finite"):
                build_world(2, PLAN, mode="heterogeneous", tau_bounds=(0.5, 1e308), seed=seed)
        with pytest.raises(ValidationError, match="total cue precision = inf is not finite"):
            concentration_experiment([2, 100], PLAN, reps=2, mode="heterogeneous",
                                     tau_bounds=(0.5, 1e307))
        assert draws == []
        # unit precisions ignore the bounds
        assert build_world(100, PLAN, tau_bounds=(0.5, 1e307)).n_cues == 100

    @pytest.mark.parametrize("bounds", [(None, 2.0), (0.5, "2"), (0.5, math.inf), None, (1.0,),
                                        (0.5, 1.0, 2.0)],
                             ids=["None-lo", "numeric-str", "inf", "None", "one", "three"])
    def test_tau_bounds_must_be_a_pair_of_finite_real_numbers(self, bounds):
        # these raised a bare TypeError or ValueError from unpacking or math.isfinite
        with pytest.raises(ValidationError, match="tau_bounds must be"):
            build_world(100, PLAN, mode="heterogeneous", tau_bounds=bounds)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n_cues=st.integers(1, 10**6))
    def test_rounded_sizes_keep_the_plans_order(self, data, n_cues):
        # why build_world needs no check of k <= m or k <= h_total after rounding
        m = data.draw(st.floats(0.0, 1.0, exclude_min=True))
        k = data.draw(st.floats(0.0, m))
        h_total = min(1.0, k + data.draw(st.floats(0.0, 1.0 - m)))  # fits outside the pool
        plan = SamplingPlan(a=m, m=m, k=k, h_total=h_total)
        n_overlap = _round_half_away(plan.k * n_cues)
        try:
            world = build_world(n_cues, plan)
        except ValidationError as exc:  # the two checks that can fire
            assert str(exc).startswith(("accessible pool rounds to 0", "human set needs"))
            return
        assert n_overlap <= world.n_accessible
        assert n_overlap <= world.human_set.size

    def test_impossible_rounding_rejected(self):
        # the human set cannot need more inaccessible cues than exist
        with pytest.raises(ValidationError):
            build_world(10, SamplingPlan(a=0.5, m=0.5, k=0.0, h_total=1.0), seed=0)

    def test_world_validation(self):
        with pytest.raises(ValidationError):
            CueWorld(precisions=np.array([1.0, -1.0]), n_accessible=2,
                     human_set=np.array([0]))
        with pytest.raises(ValidationError):
            CueWorld(precisions=np.array([1.0, 1.0]), n_accessible=2,
                     human_set=np.array([5]))
        with pytest.raises(ValidationError, match="1-D"):
            CueWorld(precisions=np.ones((2, 2)), n_accessible=2, human_set=[0])

    @pytest.mark.parametrize("precisions", [1.0, 2, np.float64(1.0), np.array(1.0)],
                             ids=["float", "int", "numpy-float", "0-d-array"])
    def test_one_number_is_not_an_array_of_precisions(self, precisions):
        # a float has no .view(): this raised a bare AttributeError
        with pytest.raises(ValidationError, match=r"^precisions must form a 1-D array"):
            CueWorld(precisions=precisions, n_accessible=1, human_set=[0])

    @pytest.mark.parametrize("n_accessible, message", [
        (0, "n_accessible must be >= 1, got 0"),
        (-1, "n_accessible must be >= 1, got -1"),
        (3, "n_accessible must be <= 2"),
        (1.0, "n_accessible must be an integer"),
    ])
    def test_accessible_pool_size_must_lie_in_one_to_n(self, n_accessible, message):
        with pytest.raises(ValidationError, match=message):
            CueWorld(precisions=np.array([1.0, 1.0]), n_accessible=n_accessible,
                     human_set=[0])
        for n_accessible in (1, 2, np.int64(2)):
            world = CueWorld(precisions=np.array([1.0, 1.0]), n_accessible=n_accessible,
                             human_set=[0])
            assert world.n_accessible == n_accessible and world.n_cues == 2

    @pytest.mark.parametrize("n_cues, message", [
        (0, "n_cues must be >= 1, got 0"),
        (100.5, "n_cues must be an integer"),
        (100.0, "n_cues must be an integer"),
        # too large for a float, and for a float to hold exactly
        (10**400, r"n_cues must be <= 2\*\*53 = 9007199254740992, got 1000"),
        (2**53 + 1, r"n_cues must be <= 2\*\*53 = 9007199254740992, got 9007199254740993$"),
    ])
    def test_pool_size_must_be_a_positive_integer(self, n_cues, message):
        # a float used to escape as a bare TypeError from the generator
        with pytest.raises(ValidationError, match=message):
            build_world(n_cues, PLAN, seed=0)
        assert build_world(np.int64(100), PLAN, seed=0).n_cues == 100

    @pytest.mark.parametrize("bad", [np.array([0.9, 1.2]), np.array([True, False]), [0.0],
                                     np.array([[0, 1], [1, 0]]), np.array(1)])
    def test_world_rejects_non_integer_or_non_flat_human_set(self, bad):
        with pytest.raises(ValidationError, match="integers|1-D"):
            CueWorld(precisions=np.array([1.0, 1.0]), n_accessible=2, human_set=bad)

    def test_world_accepts_an_empty_human_set(self):
        world = CueWorld(precisions=np.array([1.0, 1.0]), n_accessible=2, human_set=[])
        assert world.human_set.dtype == np.int64 and world.human_set.size == 0


    def test_derived_arrays_are_read_only_and_match_their_definitions(self):
        world = build_world(300, PLAN, mode="heterogeneous", seed=2)
        assert world.n_cues == world.precisions.size == 300
        assert np.array_equal(np.flatnonzero(world.human_mask), world.human_set)
        for arr in (world.precisions, world.human_set, world.human_mask):
            with pytest.raises(ValueError):
                arr[0] = arr[1]

    def test_world_freezes_a_view_and_leaves_the_callers_array_writable(self):
        precisions = np.ones(3)
        world = CueWorld(precisions=precisions, n_accessible=2, human_set=[0])
        assert precisions.flags.writeable and not world.precisions.flags.writeable
        assert np.shares_memory(world.precisions, precisions)


class TestSampleAiSet:
    def test_exhausting_the_pool(self):
        world = build_world(100, PLAN, seed=0)
        full = sample_ai_set(world, PLAN.m, seed=3)
        assert np.array_equal(full, np.arange(world.n_accessible))

    def test_exact_size_every_draw(self):
        world = build_world(100, PLAN, seed=0)
        for rep in range(50):
            s = sample_ai_set(world, 0.3, seed=derive_seed(0, rep))
            assert s.size == 30
            assert np.all(s < world.n_accessible)

    def test_oversized_request_rejected(self):
        world = build_world(100, PLAN, seed=0)
        with pytest.raises(ValidationError):
            sample_ai_set(world, 0.7, seed=0)

    # a*N of +-1e308 overflows to +-inf, which no integer rounds to
    @pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -0.5, 1.5, 1e308, -1e308])
    def test_fraction_outside_the_unit_interval_rejected(self, a):
        world = build_world(100, PLAN, seed=0)
        with pytest.raises(ValidationError, match=r"^a must"):
            sample_ai_set(world, a, seed=0)

    def test_inclusion_frequencies_hypergeometric(self):
        # size-6 subsets of the 10 accessible cues: inclusion probability 0.6
        world = build_world(20, PLAN, seed=0)
        draws = 10_000
        counts = np.zeros(20)
        for rep in range(draws):
            counts[sample_ai_set(world, 0.3, seed=derive_seed(42, rep))] += 1
        assert not counts[world.n_accessible:].any()
        freq = counts[:world.n_accessible] / draws
        sigma = math.sqrt(0.6 * 0.4 / draws)
        assert np.all(np.abs(freq - 0.6) <= 3.0 * sigma)


class TestOverlapMeasures:
    @pytest.mark.parametrize("mode", ["homogeneous", "heterogeneous"])
    def test_the_worlds_own_human_set_and_a_copy_agree(self, mode):
        # a world rebuilt from a shuffled list copy stores the same sorted set
        world = build_world(500, PLAN, mode=mode, seed=4)
        copy = world.human_set.tolist()
        np.random.default_rng(4).shuffle(copy)
        rebuilt = with_human_set(world, copy)
        assert np.array_equal(rebuilt.human_set, world.human_set)
        for rep in range(5):
            ai = sample_ai_set(world, PLAN.a, seed=derive_seed(4, rep))
            for measure in (empirical_lambda, covariance_lambda):
                assert measure(world, ai) == measure(rebuilt, ai)

    def test_homogeneous_extremes(self):
        world = build_world(100, PLAN, seed=0)
        hset = world.human_set
        assert empirical_lambda(world, hset) == 1.0
        complement = np.setdiff1d(np.arange(100), hset)
        assert empirical_lambda(world, complement) == 0.0

    def test_heterogeneous_hand_case(self):
        world = hand_world()
        assert abs(empirical_lambda(world, [0, 1]) - 0.75) < 1e-15
        assert abs(covariance_lambda(world, [0, 1]) - 0.75) < 1e-15

    def test_ratio_equals_covariance_definition(self):
        for mode, seed in (("homogeneous", 0), ("heterogeneous", 1)):
            world = build_world(400, PLAN, mode=mode, seed=seed)
            for rep in range(20):
                ai = sample_ai_set(world, 0.3, seed=derive_seed(seed, rep))
                lam_ratio = empirical_lambda(world, ai)
                lam_cov = covariance_lambda(world, ai)
                assert abs(lam_ratio - lam_cov) < 1e-13

    @settings(max_examples=100, deadline=None)
    @given(n_cues=st.integers(1, 200_000), p_h=st.floats(0.0, 1.0), p_a=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_homogeneous_equals_count_ratio_exactly(self, n_cues, p_h, p_a, seed):
        # unit precisions: both precision masses are exact integer sums
        rng = np.random.default_rng(seed)
        human = np.flatnonzero(rng.random(n_cues) < p_h)
        ai = np.union1d(np.flatnonzero(rng.random(n_cues) < p_a), [rng.integers(n_cues)])
        world = CueWorld(precisions=np.ones(n_cues), n_accessible=n_cues, human_set=human)
        assert empirical_lambda(world, ai) == np.intersect1d(ai, human).size / ai.size

    def test_identical_sets_give_unit_overlap(self):
        world = build_world(60, PLAN, mode="heterogeneous", seed=2)
        ai = sample_ai_set(world, 0.3, seed=2)
        assert abs(covariance_lambda(with_human_set(world, ai), ai) - 1.0) < 1e-15

    @pytest.mark.parametrize("mode", ["homogeneous", "heterogeneous"])
    @settings(max_examples=50, deadline=None)
    @given(rnd=st.randoms(use_true_random=False), extra=st.integers(1, 30))
    def test_unsorted_lists_match_sorted_sets_and_repeats_are_rejected(self, mode, rnd, extra):
        world = build_world(300, PLAN, mode=mode, seed=4)
        ai = sample_ai_set(world, 0.3, seed=4)
        a_list = [int(i) for i in ai]
        rnd.shuffle(a_list)
        repeated = a_list + rnd.choices(a_list, k=extra)
        for measure in (empirical_lambda, covariance_lambda):
            expected = measure(world, ai)
            assert measure(world, a_list) == expected
            assert measure(world, np.array(a_list)) == expected
            # a multiset is not a set, whatever its order
            for bad in (repeated, np.array(repeated), sorted(repeated)):
                with pytest.raises(ValidationError, match="ai_set indices must be distinct"):
                    measure(world, bad)

    def test_empty_ai_set_rejected(self):
        world = build_world(60, PLAN, seed=2)
        for measure in (empirical_lambda, covariance_lambda):
            with pytest.raises(ValidationError, match="nonempty"):
                measure(world, [])

    @pytest.mark.parametrize("bad", [[1.5, 2.7], np.array([1.0, 2.0]), np.array([True, False]),
                                     [True, False], [[0, 1], [2, 3]]])
    def test_non_integer_or_non_flat_indices_rejected(self, bad):
        world = build_world(60, PLAN, seed=2)
        for measure in (empirical_lambda, covariance_lambda):
            with pytest.raises(ValidationError, match="integers|1-D"):
                measure(world, bad)

    def test_empty_human_set_list_accepted(self):
        world = with_human_set(build_world(60, PLAN, seed=2), [])
        assert empirical_lambda(world, [0, 1, 2]) == 0.0
        # Var(H|Y) of an empty aggregate is 0: the covariance ratio is undefined
        with pytest.raises(ValidationError, match="human set"):
            covariance_lambda(world, [0, 1, 2])

    def test_measured_overlap_respects_feasibility(self):
        for seed in range(10):
            world = build_world(300, PLAN, mode="heterogeneous", seed=seed)
            ai = sample_ai_set(world, 0.3, seed=seed)
            lam = covariance_lambda(world, ai)
            # the aggregates' conditional precisions T_H/N and T_A/N
            tau_h = world.precisions[world.human_set].sum() / world.n_cues
            tau_a = world.precisions[ai].sum() / world.n_cues
            assert lam <= min(tau_h / tau_a, 1.0) + 1e-12


class TestAggregation:
    """The overlap measures against the covariance of simulated aggregates."""

    def test_conditional_variance_of_own_signal(self):
        # |H| = N/2 with unit cue precision: Var(H|Y) = N / T_H = 2
        world = build_world(100, PLAN, mode="homogeneous", seed=4)
        reps = 100_000
        h, _ = aggregate_samples(world, np.arange(world.n_accessible), reps, seed=13)
        sigma = 2.0 * math.sqrt(2.0 / reps)
        assert abs(h.var(ddof=1) - 2.0) <= 3.0 * sigma

    def test_empirical_overlap_matches_covariance_lambda(self):
        # wide precisions pull the precision-mass ratio away from the count ratio
        world = build_world(100, PLAN, mode="heterogeneous", tau_bounds=(0.1, 10.0), seed=7)
        ai = sample_ai_set(world, 0.3, seed=7)
        reps = 100_000
        h, a = aggregate_samples(world, ai, reps, seed=17)
        # the ratio is the least-squares slope of a on h; se is its standard error
        ratio = np.cov(h, a)[0, 1] / h.var(ddof=1)
        se = math.sqrt((a - ratio * h).var(ddof=2) / (reps * h.var(ddof=1)))
        lam = covariance_lambda(world, ai)
        assert abs(ratio - lam) <= 4.0 * se
        # the count ratio |A∩H| / |A| would fail the same bound
        count_ratio = np.isin(ai, world.human_set).mean()
        assert abs(ratio - count_ratio) > 10.0 * se

    def test_innovation_uncorrelated_with_own_signal(self):
        world = build_world(100, PLAN, mode="heterogeneous", seed=6)
        ai = sample_ai_set(world, 0.3, seed=6)
        lam = covariance_lambda(world, ai)
        reps = 200_000
        h, a = aggregate_samples(world, ai, reps, seed=19)
        innovation = (a - lam * h) / (1.0 - lam)
        assert abs(np.corrcoef(h, innovation)[0, 1]) <= 4.0 / math.sqrt(reps)


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
        # the precision-mass ratio of the accessible pool, bit for bit
        world = build_world(20_000, PLAN, mode="heterogeneous", seed=derive_seed(2, 0))
        accessible = np.arange(world.n_cues) < world.n_accessible
        both = accessible & world.human_mask
        assert s.target == (float(np.sum(world.precisions[both]))
                            / float(np.sum(world.precisions[accessible])))

    @pytest.mark.parametrize("reps, message", [
        (0, "reps must be >= 1, got 0"),
        (2.0, "reps must be an integer"),
    ])
    def test_reps_must_be_a_positive_integer(self, reps, message):
        # a float used to escape as a bare TypeError from range()
        with pytest.raises(ValidationError, match=message):
            concentration_experiment([100], PLAN, reps=reps)

    @pytest.mark.parametrize("n_values, message", [
        (100, "n_values must be a sequence of pool sizes, got 100"),
        ([100, 200, 1.5], "n_values must be an integer, got 1.5"),
        ([100, "200"], "n_values must be an integer"),
        ([100, 0], "n_values must be >= 1, got 0"),
        # no world would read the other arguments
        ([], "n_values must hold at least one pool size"),
        # a later pool whose assistant sample rounds to 0 drew the earlier pool first
        ([2_000_000, 1], "assistant sample size rounds to 0"),
    ])
    def test_every_pool_size_is_read_before_the_first_world(self, monkeypatch, n_values,
                                                             message):
        # a bare int raised a TypeError, and [100, 200, 1.5] ran two worlds first
        def forbidden(*args, **kwargs):
            raise AssertionError("a world was built before the pool sizes were checked")

        monkeypatch.setattr(cueworld, "build_world", forbidden)
        with pytest.raises(ValidationError, match=message):
            concentration_experiment(n_values, PLAN, reps=2)

    @pytest.mark.parametrize("mode", ["homogeneous", "heterogeneous"])
    def test_an_assistant_sample_rounding_to_0_is_rejected_before_any_draw(self, monkeypatch,
                                                                          mode):
        # sample_ai_set used to find round(a*N) = 0 after the world had been drawn
        draws, uniforms = [], RngHandle.uniforms
        monkeypatch.setattr(RngHandle, "uniforms",
                            lambda self, n: draws.append(n) or uniforms(self, n))
        plan = SamplingPlan(a=1e-4, m=0.5, k=0.25, h_total=0.5)
        with pytest.raises(ValidationError, match="assistant sample size rounds to 0"):
            concentration_experiment([1000], plan, reps=2, mode=mode)
        assert draws == []

    def test_deterministic(self):
        a = concentration_experiment([1000], PLAN, reps=10, seed=3)
        b = concentration_experiment([1000], PLAN, reps=10, seed=3)
        assert a == b

    def test_per_rep_estimates_back_the_summary(self):
        # pool 0's world and its repetitions' assistant sets, from their child seeds
        summary, = concentration_experiment([1000], PLAN, reps=25, seed=4)
        world = build_world(1000, PLAN, seed=derive_seed(4, 0))
        estimates = np.array([
            empirical_lambda(world, sample_ai_set(world, PLAN.a, seed=derive_seed(4, 0, rep)))
            for rep in range(25)])
        assert np.all((0.0 <= estimates) & (estimates <= 1.0))
        errors = np.abs(estimates - summary.target)
        assert summary.mean_abs_error == float(np.mean(errors))
        assert summary.max_abs_error == float(np.max(errors))


def test_accessible_pool_overlap_matches_plan():
    # the pool-level rate is the overlap of the whole accessible pool
    world = build_world(1000, PLAN, mode="homogeneous", seed=0)
    assert empirical_lambda(world, np.arange(world.n_accessible)) == 0.5
    het = build_world(1000, PLAN, mode="heterogeneous", seed=0)
    assert 0.35 < empirical_lambda(het, np.arange(het.n_accessible)) < 0.65


def test_heterogeneous_reduces_to_homogeneous_when_bounds_collapse():
    world = build_world(200, PLAN, mode="heterogeneous", tau_bounds=(1.3, 1.3), seed=8)
    ai = sample_ai_set(world, 0.3, seed=8)
    count_ratio = np.intersect1d(ai, world.human_set).size / ai.size
    assert abs(empirical_lambda(world, ai) - count_ratio) < 1e-14
    assert abs(covariance_lambda(world, ai) - count_ratio) < 1e-14
