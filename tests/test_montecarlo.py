import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from dualsig.core import DegenerateDecompositionError, Environment, SignalSpec, ValidationError
from dualsig.core import bayes_posterior_mean
from dualsig.montecarlo import (
    CHUNK,
    RULES,
    Estimate,
    accumulate,
    paired_loss_estimates,
    parallel_map,
    sample_triple,
    verify_closed_forms,
    verify_decomposition,
)
from dualsig.rng import RngHandle

ENV = Environment(mu0=0.0, tau0=1.0)
SPEC = SignalSpec(tau_h=1.0, tau_a=1.0, lam=0.5)


def _pid_and_square(i):
    return os.getpid(), i * i


def _reject(i, bad):
    if i == bad:
        raise ValidationError(f"task {i} rejected in process {os.getpid()}")
    return i


def _total(*values):
    return sum(values)


def _pair(a, b):
    return a, b


def _touch(directory, i):
    """Mark task ``i`` as run by a file, then take 50 ms."""
    (directory / f"{i}").touch()
    time.sleep(0.05)


class TestSampleTriple:
    def test_fixed_seed_reproduces_first_triples(self):
        a_rng = RngHandle(0, 0)
        a = [sample_triple(ENV, SPEC, a_rng) for _ in range(10)]
        b_rng = RngHandle(0, 0)
        b = [sample_triple(ENV, SPEC, b_rng) for _ in range(10)]
        assert a == b

    def test_batch_matches_scalar_consumption(self):
        y, h, a = sample_triple(ENV, SPEC, RngHandle(1, 2), size=5)
        assert y.shape == h.shape == a.shape == (5,)

    def test_conditional_moments(self):
        y, h, a = sample_triple(ENV, SPEC, RngHandle(3, 0), size=1_000_000)
        n = y.size
        eh, ea = h - y, a - y
        for observed, expected, spread in (
            (np.mean(eh * eh), 1.0, np.std(eh * eh, ddof=1)),
            (np.mean(ea * ea), 1.0, np.std(ea * ea, ddof=1)),
            (np.mean(eh * ea), 0.5, np.std(eh * ea, ddof=1)),
        ):
            assert abs(observed - expected) <= 4.0 * spread / math.sqrt(n)

    def test_zero_overlap_independence(self):
        spec = SignalSpec(1.0, 1.0, 0.0)
        y, h, a = sample_triple(ENV, spec, RngHandle(4, 0), size=1_000_000)
        corr = np.corrcoef(h - y, a - y)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(y.size)

    def test_degenerate_spec_raises(self):
        with pytest.raises(DegenerateDecompositionError):
            sample_triple(ENV, SignalSpec(1.0, 1.0, 1.0), RngHandle(0, 0))


class TestEstimateLoss:
    def test_matches_closed_forms_at_reference_point(self):
        estimates = paired_loss_estimates(ENV, SPEC, 1_000_000, RngHandle(5, 0))
        for rule, closed in (("cn_joint", 4.0 / 9.0), ("human_only", 0.5),
                             ("ai_only", 0.5), ("bayes_joint", 3.0 / 7.0)):
            est = estimates[rule]
            assert abs(est.mean - closed) <= 4.0 * est.std_error

    def test_deterministic_estimates(self):
        a = paired_loss_estimates(ENV, SPEC, 200_000, RngHandle(6, 1))
        b = paired_loss_estimates(ENV, SPEC, 200_000, RngHandle(6, 1))
        assert a == b  # bit-identical, including the standard errors

    def test_empty_run_rejected(self):
        with pytest.raises(ValidationError):
            paired_loss_estimates(ENV, SPEC, 0, RngHandle(0, 0))
        with pytest.raises(ValidationError):
            accumulate(ENV, SPEC, 0, RngHandle(0, 0), {"y": lambda y, h, a: y})

    def test_estimate_fields(self):
        est = paired_loss_estimates(ENV, SPEC, 1000, RngHandle(7, 0))["human_only"]
        assert isinstance(est, Estimate)
        assert est.n == 1000
        assert est.std_error > 0.0


class TestAccumulate:
    def test_one_statistic_equals_its_paired_entry_bit_for_bit(self):
        # a statistic's estimate does not depend on what else shares the draws
        n = CHUNK + 1234  # a partial second chunk
        paired = paired_loss_estimates(ENV, SPEC, n, RngHandle(15, 2))
        alone = accumulate(ENV, SPEC, n, RngHandle(15, 2), {
            "bayes": lambda y, h, a: (bayes_posterior_mean(ENV, SPEC, h, a) - y) ** 2})
        assert alone["bayes"] == paired["bayes_joint"]

    def test_moments_of_the_state(self):
        est = accumulate(ENV, SPEC, 200_000, RngHandle(16, 0),
                         {"y": lambda y, h, a: y, "y2": lambda y, h, a: y * y})
        assert list(est) == ["y", "y2"]
        assert abs(est["y"].mean) <= 4.0 * est["y"].std_error
        assert abs(est["y2"].mean - 1.0) <= 4.0 * est["y2"].std_error

    def test_single_draw_has_no_standard_error(self):
        est = accumulate(ENV, SPEC, 1, RngHandle(17, 0), {"y": lambda y, h, a: y})["y"]
        assert est.n == 1 and math.isnan(est.std_error)


class TestPairedOrderings:
    def test_bayes_joint_never_worse_paired(self):
        specs = [SignalSpec(1.0, 1.0, 0.5), SignalSpec(1.5, 0.7, 0.4),
                 SignalSpec(0.8, 1.2, 0.3), SignalSpec(2.0, 0.5, 0.9)]
        for i, spec in enumerate(specs):
            est = paired_loss_estimates(ENV, spec, 400_000, RngHandle(8, i))
            assert est["bayes_joint"].mean <= est["human_only"].mean
            assert est["bayes_joint"].mean <= est["cn_joint"].mean

    def test_zero_overlap_rules_coincide(self):
        spec = SignalSpec(1.0, 0.9, 0.0)
        est = paired_loss_estimates(ENV, spec, 100_000, RngHandle(9, 0))
        assert abs(est["bayes_joint"].mean - est["cn_joint"].mean) < 1e-12


class TestVerifyClosedForms:
    def test_smoke_grid_runs_fast_and_flags_infeasible(self):
        import time
        start = time.perf_counter()
        checks = verify_closed_forms(ENV, 1.0, [0.5, 2.0], [0.0, 0.67], n=100,
                                     rng=RngHandle(10, 0))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        skipped = [c for c in checks if not c.feasible]
        assert [(c.tau_a, c.lam) for c in skipped] == [(2.0, 0.67)]
        tested = [c for c in checks if c.feasible]
        assert len(tested) == 3 * len(RULES)

    def test_all_pass_with_moderate_samples(self):
        checks = verify_closed_forms(ENV, 1.0, [0.4, 1.0, 1.8], [0.0, 0.45, 0.67],
                                     n=200_000, rng=RngHandle(11, 0))
        assert all(c.ok for c in checks)

    def test_cell_results_independent_of_grid_shape(self):
        rng = RngHandle(12, 0)
        full = verify_closed_forms(ENV, 1.0, [0.5, 1.0], [0.25], n=1000, rng=rng)
        single = verify_closed_forms(ENV, 1.0, [1.0], [0.25], n=1000,
                                     rng=RngHandle(12, 0))
        # the (1.0, 0.25) cell keeps its substream even when the grid changes
        full_cell = [c for c in full if c.tau_a == 1.0 and c.rule == "cn_joint"][0]
        single_cell = [c for c in single if c.rule == "cn_joint"][0]
        assert full_cell.mc_mean != single_cell.mc_mean  # different cell index
        again = verify_closed_forms(ENV, 1.0, [0.5, 1.0], [0.25], n=1000,
                                    rng=RngHandle(12, 0))
        assert [c.mc_mean for c in again] == [c.mc_mean for c in full]


class TestVerifyDecomposition:
    def test_reference_spec_moments(self):
        checks = verify_decomposition(ENV, SPEC, 500_000, RngHandle(13, 0))
        assert all(c.ok for c in checks)
        names = {c.name for c in checks}
        assert "var_a_given_y" in names and "corr_innovation_h_given_y" in names

    def test_detects_wrong_expectations(self):
        # same machinery, deliberately broken expectation: must fail
        checks = verify_decomposition(ENV, SPEC, 200_000, RngHandle(14, 0))
        var_a = [c for c in checks if c.name == "var_a_given_y"][0]
        assert abs(var_a.observed - 1.0) < 0.02
        assert not (abs(var_a.observed - 2.0) <= 4.0 * var_a.std_error)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool needs the fork start method")
class TestParallelMap:
    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the number of CPUs that ``parallel_map`` sees as usable."""
        def use(count):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                                raising=False)
        return use

    def test_keeps_input_order_with_more_tasks_than_workers(self, cpus):
        cpus(2)
        results = parallel_map([(_pid_and_square, i) for i in range(40)])
        assert [square for _, square in results] == [i * i for i in range(40)]
        assert os.getpid() not in {pid for pid, _ in results}

    def test_local_tasks_run_in_this_process(self, cpus):
        cpus(2)
        results = parallel_map([(_pid_and_square, i) for i in range(6)], local=2)
        assert [square for _, square in results] == [i * i for i in range(6)]
        assert [pid == os.getpid() for pid, _ in results] == [True] * 2 + [False] * 4

    @pytest.mark.parametrize("local", [0, 2])
    def test_one_cpu_runs_the_plain_loop_in_this_process(self, cpus, local):
        cpus(1)
        results = parallel_map([(_pid_and_square, i) for i in range(5)], local=local)
        assert results == [(os.getpid(), i * i) for i in range(5)]

    def test_tasks_of_unequal_arity_match_the_plain_loop(self, cpus):
        tasks = [(_total, 1, 2, 3), (_pair, 4, 5), (_total,), (_total, 6), (_pair, 7, 8)]
        cpus(2)
        pooled = parallel_map(tasks), parallel_map(tasks, local=1)
        cpus(1)
        assert pooled == (parallel_map(tasks),) * 2
        assert parallel_map(tasks) == [6, (4, 5), 0, 6, (7, 8)]

    @pytest.mark.parametrize("bad", [0, 5])
    def test_validation_error_reaches_the_caller_as_itself(self, cpus, bad):
        cpus(2)
        with pytest.raises(ValidationError, match=f"task {bad} rejected in process") as exc:
            parallel_map([(_reject, i, bad) for i in range(8)], local=1)
        assert type(exc.value) is ValidationError
        # task 0 runs in this process, the others in workers
        assert (f"process {os.getpid()}" in str(exc.value)) == (bad == 0)

    def test_an_error_cancels_the_tasks_not_yet_started(self, cpus, tmp_path):
        cpus(2)
        tasks = [(_reject, 0, 0)] + [(_touch, tmp_path, i) for i in range(40)]
        with pytest.raises(ValidationError, match="task 0 rejected"):
            parallel_map(tasks)
        # at most the tasks already handed to the two workers still run
        assert len(list(tmp_path.iterdir())) <= 10
