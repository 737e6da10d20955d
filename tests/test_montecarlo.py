import math
import os

import numpy as np
import pytest

from dualsig import core, montecarlo, regimes, verify, voi
from dualsig.core import SignalSpec, ValidationError
from dualsig.core import bayes_posterior_mean, feasible, loss_profile
from dualsig.montecarlo import (
    CHUNK,
    RULES,
    Estimate,
    accumulate,
    paired_loss_estimates,
    parallel_map,
    sample_triple,
    verify_closed_forms,
)
from dualsig.rng import RngHandle, derive_seed

SPEC = SignalSpec(tau_h=1.0, tau_a=1.0, lam=0.5)


def drew_triples(rng, n):
    """Whether ``rng`` has drawn exactly ``n`` triples: each takes three
    words, so its next word is word ``3n + 1`` of a fresh handle."""
    return rng.words(1)[0] == RngHandle(rng.seed, rng.stream).words(3 * n + 1)[-1]


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
    """Mark task ``i`` as run by a file."""
    (directory / f"{i}").touch()


class TestSampleTriple:
    def test_fixed_seed_reproduces_first_triples(self):
        a = sample_triple(1.0, SPEC, RngHandle(0, 0), size=10)
        b = sample_triple(1.0, SPEC, RngHandle(0, 0), size=10)
        assert all(np.array_equal(x, z) for x, z in zip(a, b))

    def test_batch_matches_scalar_consumption(self):
        y, h, a = sample_triple(1.0, SPEC, RngHandle(1, 2), size=5)
        assert y.shape == h.shape == a.shape == (5,)

    def test_conditional_moments(self):
        y, h, a = sample_triple(1.0, SPEC, RngHandle(3, 0), size=1_000_000)
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
        y, h, a = sample_triple(1.0, spec, RngHandle(4, 0), size=1_000_000)
        corr = np.corrcoef(h - y, a - y)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(y.size)

    def test_degenerate_spec_raises(self):
        with pytest.raises(ValidationError):
            sample_triple(1.0, SignalSpec(1.0, 1.0, 1.0), RngHandle(0, 0), size=1)

    def test_non_integer_size_rejected(self):
        # a float size is rejected, not truncated to fewer draws
        with pytest.raises(ValidationError, match="size must be an integer"):
            sample_triple(1.0, SPEC, RngHandle(0, 0), size=2.7)
        y, _, _ = sample_triple(1.0, SPEC, RngHandle(0, 0), size=np.int64(3))
        assert y.shape == (3,)


class TestEstimateLoss:
    def test_matches_closed_forms_at_reference_point(self):
        estimates = paired_loss_estimates(1.0, SPEC, 1_000_000, RngHandle(5, 0))
        for rule, closed in (("cn_joint", 4.0 / 9.0), ("human_only", 0.5),
                             ("ai_only", 0.5), ("bayes_joint", 3.0 / 7.0)):
            est = estimates[rule]
            assert abs(est.mean - closed) <= 4.0 * est.std_error

    def test_deterministic_estimates(self):
        a = paired_loss_estimates(1.0, SPEC, 200_000, RngHandle(6, 1))
        b = paired_loss_estimates(1.0, SPEC, 200_000, RngHandle(6, 1))
        assert a == b  # bit-identical, including the standard errors

    def test_empty_run_rejected(self):
        with pytest.raises(ValidationError):
            paired_loss_estimates(1.0, SPEC, 0, RngHandle(0, 0))
        with pytest.raises(ValidationError):
            accumulate(1.0, SPEC, 0, RngHandle(0, 0), {"y": lambda y, h, a: y})

    def test_estimate_fields(self):
        rng = RngHandle(7, 0)
        est = paired_loss_estimates(1.0, SPEC, 1000, rng)["human_only"]
        assert isinstance(est, Estimate)
        assert drew_triples(rng, 1000)
        assert est.std_error > 0.0


class TestAccumulate:
    def test_one_statistic_equals_its_paired_entry_bit_for_bit(self):
        # a statistic's estimate does not depend on what else shares the draws
        n = CHUNK + 1234  # a partial second chunk
        paired = paired_loss_estimates(1.0, SPEC, n, RngHandle(15, 2))
        alone = accumulate(1.0, SPEC, n, RngHandle(15, 2), {
            "bayes": lambda y, h, a: (bayes_posterior_mean(1.0, SPEC, h, a) - y) ** 2})
        assert alone["bayes"] == paired["bayes_joint"]

    def test_moments_of_the_state(self):
        est = accumulate(1.0, SPEC, 200_000, RngHandle(16, 0),
                         {"y": lambda y, h, a: y, "y2": lambda y, h, a: y * y})
        assert list(est) == ["y", "y2"]
        assert abs(est["y"].mean) <= 4.0 * est["y"].std_error
        assert abs(est["y2"].mean - 1.0) <= 4.0 * est["y2"].std_error

    def test_fewer_than_two_draws_rejected(self):
        # two draws are the fewest with a standard error
        with pytest.raises(ValidationError, match="n must be >= 2, got 1"):
            accumulate(1.0, SPEC, 1, RngHandle(17, 0), {"y": lambda y, h, a: y})
        rng = RngHandle(17, 0)
        est = accumulate(1.0, SPEC, 2, rng, {"y": lambda y, h, a: y})["y"]
        assert drew_triples(rng, 2) and math.isfinite(est.std_error)

    def test_non_integer_n_rejected(self):
        # 2.5 would draw 2 triples and divide their sum by 2.5
        with pytest.raises(ValidationError, match="n must be an integer"):
            accumulate(1.0, SPEC, 2.5, RngHandle(17, 0), {"y": lambda y, h, a: y})
        rng = RngHandle(17, 0)
        est = accumulate(1.0, SPEC, np.int64(2), rng, {"y": lambda y, h, a: np.ones_like(y)})["y"]
        assert est.mean == 1.0 and drew_triples(rng, 2)

    def test_grid_needs_two_draws_per_cell(self):
        with pytest.raises(ValidationError, match="n must be >= 2, got 1"):
            verify_closed_forms(1.0, 1.0, [0.5, 1.0], [0.25], n=1, rng=RngHandle(0, 0))


class TestPairedOrderings:
    def test_bayes_joint_never_worse_paired(self):
        specs = [SignalSpec(1.0, 1.0, 0.5), SignalSpec(1.5, 0.7, 0.4),
                 SignalSpec(0.8, 1.2, 0.3), SignalSpec(2.0, 0.5, 0.9)]
        for i, spec in enumerate(specs):
            est = paired_loss_estimates(1.0, spec, 400_000, RngHandle(8, i))
            assert est["bayes_joint"].mean <= est["human_only"].mean
            assert est["bayes_joint"].mean <= est["cn_joint"].mean

    def test_zero_overlap_rules_coincide(self):
        spec = SignalSpec(1.0, 0.9, 0.0)
        est = paired_loss_estimates(1.0, spec, 100_000, RngHandle(9, 0))
        assert abs(est["bayes_joint"].mean - est["cn_joint"].mean) < 1e-12


def _losses(cells, rule=None, tau_a=None):
    """``(rule, estimate, closed_form)`` of the feasible cells, optionally
    only one rule and one ``tau_a``."""
    return [loss for t, _, losses in cells if losses is not None and tau_a in (None, t)
            for loss in losses if rule in (None, loss[0])]


class TestVerifyClosedForms:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers are made by os.fork")
    @pytest.mark.parametrize("n", [-1, 1, 2.5, "100"])
    def test_a_bad_n_raises_before_any_fork(self, monkeypatch, n):
        # n = -1 used to fork both workers, whose tasks then rejected it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        with pytest.raises(ValidationError, match="n must be"):
            verify_closed_forms(1.0, 1.0, [0.5, 1.0], [0.25], n=n, rng=RngHandle(0, 0))
        assert forks == []

    def test_closed_forms_raise_before_any_draw_or_fork(self, monkeypatch):
        # the cell used to draw its estimates before loss_profile met T**2 = inf
        def forbidden(*args, **kwargs):
            raise AssertionError("a cell was simulated before its closed forms were read")

        monkeypatch.setattr(montecarlo, "paired_loss_estimates", forbidden)
        monkeypatch.setattr(os, "fork", forbidden, raising=False)
        with pytest.raises(ValidationError, match=r"T\*\*2 = inf is not finite"):
            verify_closed_forms(1e300, 1.0, [0.5], [0.25], 100, RngHandle(0))

    def test_closed_forms_are_each_cells_own_bits(self):
        # the phase grid's cells, each equal to one loss_profile call of its own
        tau0, tau_h = 0.7, 1.3
        tau_a_axis = [round(0.15 * i, 10) for i in range(1, 15)]
        lambda_axis = [0.0, 0.1, 0.33, 0.5, 0.67, 0.85, 0.99, 1.0]
        cells = verify_closed_forms(tau0, tau_h, tau_a_axis, lambda_axis, n=2,
                                    rng=RngHandle(13, 0))
        grid = regimes.phase_sweep(tau0, tau_h, tau_a_axis, lambda_axis).cells.ravel()
        assert [(t, lam) for t, lam, _ in cells] == [(t, lam) for lam in lambda_axis
                                                     for t in tau_a_axis]
        assert [(t, lam) for t, lam, _ in cells] == list(zip(grid["tau_a"], grid["lam"]))
        skipped = [(t, lam) for t, lam, losses in cells if losses is None]
        assert skipped == [(t, lam) for t, lam, _ in cells
                           if lam == 1.0 or not feasible(tau_h, t, lam)]
        assert [losses is None for _, _, losses in cells] == (
            ~grid["feasible"] | (grid["lam"] == 1.0)).tolist()
        assert any(lam < 1.0 for _, lam in skipped)  # infeasible cells
        assert any(lam == 1.0 and feasible(tau_h, t, lam) for t, lam in skipped)
        for (t, lam, losses), cell in zip(cells, grid):
            if losses is not None:
                profile = loss_profile(tau0, SignalSpec(tau_h, t, lam))
                assert [(rule, form) for rule, _, form in losses] == [
                    (rule, getattr(profile, field)) for rule, field in RULES.items()]
                assert [form for _, _, form in losses] == [cell[f] for f in RULES.values()]
                assert all(type(form) is float for _, _, form in losses)

    @pytest.mark.parametrize("bad", [[1.0, 0.5], [0.5, 0.5], [], [[0.25, 0.5]]],
                             ids=["decreasing", "repeated", "empty", "2-D"])
    @pytest.mark.parametrize("axis", ["tau_a_axis", "lambda_axis"])
    def test_an_axis_that_is_not_strictly_increasing_raises_before_any_fork(
            self, monkeypatch, axis, bad):
        # such axes used to be raveled and run
        def forbidden(*args, **kwargs):
            raise AssertionError("a worker was forked for a bad axis")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "fork", forbidden, raising=False)
        axes = {"tau_a_axis": [0.5, 1.0], "lambda_axis": [0.25, 0.5], axis: bad}
        with pytest.raises(ValidationError, match=axis):
            verify_closed_forms(1.0, 1.0, axes["tau_a_axis"], axes["lambda_axis"], 100,
                                RngHandle(0))

    def test_the_closed_forms_are_one_loss_profile_call_of_the_phase_grid(self, monkeypatch):
        # montecarlo used to call loss_profile through a binding of its own
        def forbidden(*args, **kwargs):
            raise AssertionError("loss_profile was called outside regimes.phase_sweep")

        calls, evaluate = [], core.loss_profile
        for module in (core, montecarlo, regimes):
            for name, value in list(vars(module).items()):
                if value is evaluate:
                    monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(regimes, "loss_profile",
                            lambda tau0, spec: calls.append(spec) or evaluate(tau0, spec))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cells = verify_closed_forms(1.0, 1.0, [0.5, 2.0], [0.0, 0.67, 1.0], n=2,
                                    rng=RngHandle(0))
        assert len(calls) == 1 and len(cells) == 6

    def test_a_grid_without_tested_cells_draws_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a cell without a test was simulated")

        monkeypatch.setattr(montecarlo, "paired_loss_estimates", forbidden)
        # infeasible cells, then feasible cells at lam = 1, which have no innovation
        assert verify_closed_forms(1.0, 1.0, [2.0, 4.0], [0.75, 1.0], n=100,
                                   rng=RngHandle(0, 0)) == [
            (2.0, 0.75, None), (4.0, 0.75, None), (2.0, 1.0, None), (4.0, 1.0, None)]
        assert verify_closed_forms(1.0, 1.0, [0.5, 1.0], [1.0], n=100,
                                   rng=RngHandle(0, 0)) == [(0.5, 1.0, None), (1.0, 1.0, None)]

    def test_smoke_grid_runs_fast_and_flags_infeasible(self):
        import time
        start = time.perf_counter()
        cells = verify_closed_forms(1.0, 1.0, [0.5, 2.0], [0.0, 0.67], n=100,
                                    rng=RngHandle(10, 0))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert [(t, lam) for t, lam, losses in cells if losses is None] == [(2.0, 0.67)]
        tested = _losses(cells)
        assert len(tested) == 3 * len(RULES)
        assert [rule for rule, _, _ in tested] == list(RULES) * 3
        assert all(isinstance(est, Estimate) for _, est, _ in tested)
        # cell i (from 1, lambda-major) holds the 100-draw estimates of its substream
        for cell, (t, lam, losses) in enumerate(cells, 1):
            if losses is not None:
                assert [est for _, est, _ in losses] == list(paired_loss_estimates(
                    1.0, SignalSpec(1.0, t, lam), 100, RngHandle(10, 0).split(cell)).values())

    def test_all_pass_with_moderate_samples(self):
        cells = verify_closed_forms(1.0, 1.0, [0.4, 1.0, 1.8], [0.0, 0.45, 0.67],
                                    n=200_000, rng=RngHandle(11, 0))
        assert all(abs(est.mean - closed) <= 4.0 * est.std_error
                   for _, est, closed in _losses(cells))

    def test_cell_results_independent_of_grid_shape(self):
        rng = RngHandle(12, 0)
        full = verify_closed_forms(1.0, 1.0, [0.5, 1.0], [0.25], n=1000, rng=rng)
        single = verify_closed_forms(1.0, 1.0, [1.0], [0.25], n=1000,
                                     rng=RngHandle(12, 0))
        # the (1.0, 0.25) cell keeps its substream even when the grid changes
        (_, full_cell, _), = _losses(full, "cn_joint", 1.0)
        (_, single_cell, _), = _losses(single, "cn_joint")
        assert full_cell.mean != single_cell.mean  # different cell index
        again = verify_closed_forms(1.0, 1.0, [0.5, 1.0], [0.25], n=1000,
                                    rng=RngHandle(12, 0))
        assert again == full


class TestVerifyDecomposition:
    """The conditional moments of the simulated triples, as the ``lemma``
    suite of :func:`dualsig.verify.run` measures them through
    :func:`accumulate`."""

    MOMENTS = ("var_h_given_y", "var_a_given_y", "cov_ha_given_y",
               "corr_innovation_h_given_y")
    SPECS = (SignalSpec(1.0, 1.0, 0.5), SignalSpec(2.0, 1.0, 0.5), SignalSpec(1.5, 0.8, 0.3))

    def moments(self, monkeypatch, n, seed, sigma_mult=4.0):
        """The 12 moment rows of the suite, in order.  The optimality search,
        which they do not use and which dominates the suite, is replaced by a
        constant."""
        monkeypatch.setattr(voi, "conditional_mean_optimality", lambda problem: 0.0)
        checks = verify.run("lemma", n=n, seed=seed, sigma_mult=sigma_mult, tau0=1.0, tau_h=1.0)
        rows = [c for c in checks if c.name.split("[")[0] in self.MOMENTS]
        assert [c.name for c in rows] == [f"{name}[spec{i}]" for i in range(3)
                                          for name in self.MOMENTS]
        return rows

    def test_reference_spec_moments(self, monkeypatch):
        assert all(c.ok for c in self.moments(monkeypatch, 500_000, 13))

    def test_detects_wrong_expectations(self, monkeypatch):
        # same measurement, deliberately broken expectation: must fail
        var_a = self.moments(monkeypatch, 200_000, 14)[1]
        assert var_a.name == "var_a_given_y[spec0]"
        assert abs(var_a.observed - 1.0) < 0.02
        assert not verify.Check(var_a.name, var_a.observed, 2.0, var_a.tol).ok

    @pytest.mark.parametrize("sigma_mult, ok", [(4.0, True), (0.0, False)])
    def test_chunked_rows_pass_at_4_sigma_and_fail_at_0(self, monkeypatch, sigma_mult, ok):
        rows = self.moments(monkeypatch, 2 * CHUNK + 1, 0, sigma_mult)
        assert [c.ok for c in rows] == [ok] * 12

    def test_chunked_rows_match_numpy_on_the_same_draws(self, monkeypatch):
        # reference: the same chunk-ordered draws, held whole, through
        # np.mean and np.corrcoef
        rows = iter(self.moments(monkeypatch, 2 * CHUNK + 1, 5))
        for i, spec in enumerate(self.SPECS):
            rng = RngHandle(derive_seed(5, 20, i), stream=0)
            y, h, a = map(np.concatenate, zip(*(sample_triple(1.0, spec, rng, size=m)
                                                for m in (CHUNK, CHUNK, 1))))
            eh, ea = h - y, a - y
            innov = (ea - spec.lam * eh) / (1.0 - spec.lam)
            expected = [np.mean(eh * eh), np.mean(ea * ea), np.mean(eh * ea),
                        np.corrcoef(eh, innov)[0, 1]]
            for check, value in zip([next(rows) for _ in range(4)], expected):
                assert check.observed == pytest.approx(value, rel=1e-12, abs=1e-15)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the workers are made by os.fork")
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

    @pytest.mark.parametrize("local", [-1, "1", 1.5])
    def test_a_bad_local_count_raises_before_any_fork(self, cpus, local):
        # -1 used to fork the workers and then fail in int.to_bytes
        cpus(2)
        with pytest.raises(ValidationError, match="local must be"):
            parallel_map([(_pid_and_square, i) for i in range(4)], local=local)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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

    def test_worker_k_runs_every_w_th_task_from_the_k_th(self, cpus):
        cpus(3)
        pids = [pid for pid, _ in parallel_map([(_pid_and_square, i) for i in range(11)],
                                               local=2)]
        assert pids[:2] == [os.getpid()] * 2
        assert [len(set(pids[2 + k::3])) for k in range(3)] == [1, 1, 1]
        assert len(set(pids)) == 4

    # Worker 0 runs tasks 0, 2, 4, ... and worker 1 the odd ones.  An error
    # stops the rest of its own worker's share only; every other share, and
    # with local=1 every worker task, runs to its end.
    @pytest.mark.parametrize("local, ran", [(0, [1, 3, 5, 7]), (1, [1, 2, 3, 4, 5, 6, 7, 8])],
                             ids=["worker", "local"])
    def test_an_error_stops_only_its_own_share_and_no_child_outlives_it(
            self, cpus, tmp_path, local, ran):
        cpus(2)
        tasks = [(_reject, 0, 0)] + [(_touch, tmp_path, i) for i in range(1, 9)]
        with pytest.raises(ValidationError, match="task 0 rejected in process") as exc:
            parallel_map(tasks, local=local)
        assert type(exc.value) is ValidationError
        assert (f"process {os.getpid()}" in str(exc.value)) == (local == 1)
        assert sorted(int(path.name) for path in tmp_path.iterdir()) == ran
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_worker_that_dies_without_results_is_named(self, cpus):
        cpus(2)
        with pytest.raises(RuntimeError, match=r"worker process \d+ exited with code 3 "):
            parallel_map([(os._exit, 3)] + [(_pid_and_square, i) for i in range(6)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
