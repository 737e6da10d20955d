"""Every public argument is read by the readers of ``dualsig.core``, so a bad
one raises ``ValidationError`` naming it, from whichever entry point it
enters: text is never a number, even where ``float`` would parse it, nor
are a bool, bytes or a value boxed in an object array; a two-element array is
not one number, NaN and inf are not finite, and None is no value at all.

Every parameter of every public callable has a row in ``ENTRY_POINTS`` or an
exemption with its reason in ``EXEMPT``, so a new parameter cannot go
unread.  No entry point freezes or changes an array the caller passes.
"""

import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest

import dualsig
from dualsig import bregman, cueworld, montecarlo, regimes, rng, verify, voi
from dualsig.core import SignalSpec, ValidationError, loss_profile

SPEC = SignalSpec(tau_h=1.0, tau_a=1.0, lam=0.5)
PLAN = cueworld.SamplingPlan(a=0.3, m=0.5, k=0.25, h_total=0.5)
WORLD = cueworld.CueWorld(precisions=np.ones(10), n_accessible=5, human_set=[0, 1])
XOR = voi.xor_construction(0.25)
QUADRATIC = voi.QuadraticLoss()


def problem(states=(0.0, 1.0), probs=np.full((2, 2, 2), 0.125), loss=QUADRATIC):
    return voi.DiscreteProblem(states=states, probs=probs, loss=loss)


def quadratic(twin):
    """The joint table of ``twin`` under quadratic loss, whose rule table
    holds one number per signal pair."""
    return problem(twin.states, twin.probs)


QUADRATIC_XOR = quadratic(XOR)


def plan(**fractions):
    return cueworld.SamplingPlan(**{"a": 0.3, "m": 0.5, "k": 0.25, "h_total": 0.5,
                                    **fractions})


def spec(**values):
    """A spec of one-element arrays, so a two-element one does not fit."""
    return SignalSpec(**{"tau_h": np.ones(1), "tau_a": np.ones(1), "lam": np.full(1, 0.5),
                         **values})


def world(**fields):
    return cueworld.CueWorld(**{"precisions": np.ones(2), "n_accessible": 1,
                                "human_set": [0], **fields})


def every_mode(call):
    """``call(v, mode)`` in each mode, raising only when each mode raises the
    same error, so a row checks the modes alike."""
    def each(v):
        errors = []
        for mode in cueworld.MODES:
            try:
                call(v, mode)
            except ValidationError as exc:
                errors.append(str(exc))
        if errors:
            assert errors == errors[:1] * len(cueworld.MODES), errors
            raise ValidationError(errors[0])
    return each


def run(**args):
    """The ``voi`` suite, the quickest to run in full."""
    return verify.run(**{"suite": "voi", "n": 0, "seed": 0, "sigma_mult": 4.0, "tau0": 1.0,
                         "tau_h": 1.0, **args})


# "module.callable.parameter": (the argument's name in the message, a call
# that passes a value in that parameter, whether a two-element array is bad
# there: it is not where the parameter takes an array of any length, a good
# value)
ENTRY_POINTS = {
    "bregman.bregman_loss.y": ("y", lambda v: bregman.bregman_loss(QUADRATIC, v, [0.5]),
                               False, np.array([1.0])),
    "bregman.bregman_loss.d": ("d", lambda v: bregman.bregman_loss(QUADRATIC, [1.0], v),
                               False, np.array([0.5])),
    "bregman.gap_check_discrete.delta_hat": ("delta_hat", lambda v: bregman.gap_check_discrete(
        QUADRATIC_XOR, v), True, np.full((2, 2, 1), 0.5)),
    "bregman.gap_check_gaussian_cn.tau0": ("tau0", lambda v: bregman.gap_check_gaussian_cn(
        v, SPEC, 2, rng.RngHandle(0)), True, 1.0),
    "bregman.gap_check_gaussian_cn.n": ("n", lambda v: bregman.gap_check_gaussian_cn(
        1.0, SPEC, v, rng.RngHandle(0)), True, 2),
    "core.loss_profile.tau0": ("tau0", lambda v: loss_profile(v, SPEC), True, 1.0),
    "core.SignalSpec.tau_h": ("tau_h", lambda v: spec(tau_h=v), False, np.ones(1)),
    "core.SignalSpec.tau_a": ("tau_a", lambda v: spec(tau_a=v), False, np.ones(1)),
    "core.SignalSpec.lam": ("lam", lambda v: spec(lam=v), False, np.full(1, 0.5)),
    "cueworld.SamplingPlan.a": ("a", lambda v: plan(a=v), True, 0.3),
    "cueworld.SamplingPlan.m": ("m", lambda v: plan(m=v), True, 0.5),
    "cueworld.SamplingPlan.k": ("k", lambda v: plan(k=v), True, 0.25),
    "cueworld.SamplingPlan.h_total": ("h_total", lambda v: plan(h_total=v), True, 0.5),
    "cueworld.CueWorld.precisions": ("precisions", lambda v: world(precisions=v), False,
                                     np.array([1.0, 2.0])),
    "cueworld.CueWorld.n_accessible": ("n_accessible", lambda v: world(n_accessible=v), True,
                                       1),
    # an index set is a sequence of integers, a set or an array; never one number
    "cueworld.CueWorld.human_set": ("human_set", lambda v: world(human_set=v), True,
                                    np.array([0])),
    "cueworld.build_world.n_cues": ("n_cues", lambda v: cueworld.build_world(v, PLAN), True,
                                    100),
    "cueworld.build_world.mode": ("mode", lambda v: cueworld.build_world(100, PLAN, v), True,
                                  "heterogeneous"),
    "cueworld.build_world.tau_bounds": ("tau_bounds", every_mode(
        lambda v, mode: cueworld.build_world(100, PLAN, mode, v)), False,
        np.array([0.5, 2.0])),
    "cueworld.build_world.seed": ("seed", lambda v: cueworld.build_world(100, PLAN, seed=v),
                                  True, 0),
    "cueworld.sample_ai_set.a": ("a", lambda v: cueworld.sample_ai_set(WORLD, v), True, 0.3),
    "cueworld.sample_ai_set.seed": ("seed", lambda v: cueworld.sample_ai_set(WORLD, 0.3, v),
                                    True, 0),
    "cueworld.empirical_lambda.ai_set": ("ai_set", lambda v: cueworld.empirical_lambda(
        WORLD, v), True, {0, 1}),
    "cueworld.covariance_lambda.ai_set": ("ai_set", lambda v: cueworld.covariance_lambda(
        WORLD, v), True, np.array([0, 1])),
    "cueworld.concentration_experiment.n_values": (
        "n_values", lambda v: cueworld.concentration_experiment(v, PLAN, 2), True,
        np.array([100])),
    "cueworld.concentration_experiment.reps": (
        "reps", lambda v: cueworld.concentration_experiment([100], PLAN, v), True, 2),
    "cueworld.concentration_experiment.mode": (
        "mode", lambda v: cueworld.concentration_experiment([100], PLAN, 2, v), True,
        "heterogeneous"),
    "cueworld.concentration_experiment.seed": (
        "seed", lambda v: cueworld.concentration_experiment([100], PLAN, 2, seed=v), True, 0),
    "cueworld.concentration_experiment.tau_bounds": (
        "tau_bounds", every_mode(lambda v, mode: cueworld.concentration_experiment(
            [100], PLAN, 2, mode, tau_bounds=v)), False, np.array([0.5, 2.0])),
    "montecarlo.sample_triple.size": ("size", lambda v: montecarlo.sample_triple(
        1.0, SPEC, rng.RngHandle(0), v), True, 2),
    "montecarlo.accumulate.tau0": ("tau0", lambda v: montecarlo.accumulate(
        v, SPEC, 2, rng.RngHandle(0), {}), True, 1.0),
    "montecarlo.accumulate.n": ("n", lambda v: montecarlo.accumulate(
        1.0, SPEC, v, rng.RngHandle(0), {}), True, 2),
    "montecarlo.paired_loss_estimates.tau0": (
        "tau0", lambda v: montecarlo.paired_loss_estimates(v, SPEC, 2, rng.RngHandle(0)), True,
        1.0),
    "montecarlo.paired_loss_estimates.n": ("n", lambda v: montecarlo.paired_loss_estimates(
        1.0, SPEC, v, rng.RngHandle(0)), True, 2),
    "montecarlo.parallel_map.local": ("local", lambda v: montecarlo.parallel_map([], v), True,
                                      0),
    "montecarlo.verify_closed_forms.tau0": ("tau0", lambda v: montecarlo.verify_closed_forms(
        v, 1.0, [1.0], [0.5], 2, rng.RngHandle(0)), True, 1.0),
    "montecarlo.verify_closed_forms.tau_h": ("tau_h", lambda v: montecarlo.verify_closed_forms(
        1.0, v, [1.0], [0.5], 2, rng.RngHandle(0)), True, 1.0),
    "montecarlo.verify_closed_forms.tau_a_axis": (
        "tau_a_axis", lambda v: montecarlo.verify_closed_forms(
            1.0, 1.0, v, [0.5], 2, rng.RngHandle(0)), False, np.array([1.0])),
    "montecarlo.verify_closed_forms.lambda_axis": (
        "lambda_axis", lambda v: montecarlo.verify_closed_forms(
            1.0, 1.0, [1.0], v, 2, rng.RngHandle(0)), False, np.array([0.5])),
    "montecarlo.verify_closed_forms.n": ("n", lambda v: montecarlo.verify_closed_forms(
        1.0, 1.0, [1.0], [0.5], v, rng.RngHandle(0)), True, 2),
    "regimes.tau_aug.tau0": ("tau0", lambda v: regimes.tau_aug(v, 1.0, 0.5), True, 1.0),
    "regimes.tau_aug.tau_h": ("tau_h", lambda v: regimes.tau_aug(1.0, v, 0.5), True, 1.0),
    "regimes.tau_aug.lam": ("lam", lambda v: regimes.tau_aug(1.0, 1.0, v), False,
                            np.array([0.25, 0.5])),
    "regimes.tau_auto.tau0": ("tau0", lambda v: regimes.tau_auto(v, 1.0, 0.5), True, 1.0),
    "regimes.tau_auto.tau_h": ("tau_h", lambda v: regimes.tau_auto(1.0, v, 0.5), True, 1.0),
    "regimes.tau_auto.lam": ("lam", lambda v: regimes.tau_auto(1.0, 1.0, v), False,
                             np.array([0.25, 0.5])),
    "regimes.lambda_bar.tau0": ("tau0", lambda v: regimes.lambda_bar(v, 1.0), True, 1.0),
    "regimes.lambda_bar.tau_h": ("tau_h", lambda v: regimes.lambda_bar(1.0, v), True, 1.0),
    "regimes.phase_sweep.tau0": ("tau0", lambda v: regimes.phase_sweep(
        v, 1.0, [1.0], [0.5]), True, 1.0),
    "regimes.phase_sweep.tau_h": ("tau_h", lambda v: regimes.phase_sweep(
        1.0, v, [1.0], [0.5]), True, 1.0),
    "regimes.phase_sweep.tau_a_axis": ("tau_a_axis", lambda v: regimes.phase_sweep(
        1.0, 1.0, v, [0.5]), False, np.array([1.0])),
    "regimes.phase_sweep.lambda_axis": ("lambda_axis", lambda v: regimes.phase_sweep(
        1.0, 1.0, [1.0], v), False, np.array([0.5])),
    "rng.RngHandle.seed": ("seed", rng.RngHandle, True, 0),
    "rng.RngHandle.stream": ("stream", lambda v: rng.RngHandle(0, v), True, 0),
    "rng.derive_seed.seed": ("seed", rng.derive_seed, True, 0),
    "rng.derive_seed.indices": ("split index", lambda v: rng.derive_seed(0, v), True, 1),
    "verify.run.suite": ("suite", lambda v: run(suite=v), True, "voi"),
    "verify.run.n": ("n", lambda v: run(n=v), True, 0),
    "verify.run.seed": ("seed", lambda v: run(seed=v), True, 0),
    "verify.run.sigma_mult": ("sigma_mult", lambda v: run(sigma_mult=v), True, 4.0),
    "verify.run.tau0": ("tau0", lambda v: run(tau0=v), True, 1.0),
    "verify.run.tau_h": ("tau_h", lambda v: run(tau_h=v), True, 1.0),
    "voi.DiscreteProblem.states": ("states", lambda v: problem(states=v), False,
                                   np.array([0.0, 2.0])),
    "voi.DiscreteProblem.probs": ("probs", lambda v: problem(probs=v), True,
                                  np.full((2, 2, 2), 0.125)),
    "voi.bayes_risk.signals": ("signals", lambda v: voi.bayes_risk(XOR, v), True, ("h",)),
    "voi.xor_construction.q": ("q", voi.xor_construction, True, 0.25),
    "voi.ratio_construction.t": ("t", voi.ratio_construction, True, 2.0),
    "voi.posterior_two_tests.prior": ("prior", lambda v: voi.posterior_two_tests(
        v, 0.7, 0.01), True, 0.1),
    "voi.posterior_two_tests.tpr": ("tpr", lambda v: voi.posterior_two_tests(
        0.1, v, 0.01), True, 0.7),
    "voi.posterior_two_tests.fpr": ("fpr", lambda v: voi.posterior_two_tests(
        0.1, 0.7, v), True, 0.01),
}

# reason: the parameters it exempts from a row, each named as
# "module.callable.parameter", as "module.callable" for all its parameters,
# or by a parameter name alone wherever it occurs
EXEMPT = {
    "read on every Monte Carlo chunk; accumulate, which runs the chunks, reads it once": (
        "montecarlo.sample_triple.tau0", "montecarlo.sample_triple.spec",
        "montecarlo.sample_triple.rng", "core.innovation_precision.spec",
        "core.cn_posterior_mean.tau0", "core.cn_posterior_mean.spec",
        "core.bayes_posterior_mean.tau0", "core.bayes_posterior_mean.spec"),
    "a record that the library fills with values it has read": (
        "bregman.GapReport", "core.LossProfile", "cueworld.ConcentrationSummary",
        "montecarlo.Estimate", "regimes.PhaseGrid", "verify.Check", "voi.VoiReport"),
    "an exception, whose arguments are its message": (
        "core.ValidationError",),
    "an enum: calling it looks a member up by value": ("regimes.Regime",),
    "a reader or check of core, which every row above runs": (
        "core.require", "core.count", "core.indices", "core.typed", "core.real",
        "core.real_scalar", "core.native", "core.finite_total"),
    "an element-wise formula on numbers already read by SignalSpec, phase_sweep or "
    "sample_triple; a reader's pass would repeat theirs on every Monte Carlo chunk": (
        "core.feasible", "core.cn_posterior_mean.h", "core.cn_posterior_mean.a",
        "core.bayes_posterior_mean.h", "core.bayes_posterior_mean.a"),
    "functions that the library calls as given": (
        "montecarlo.parallel_map.tasks", "montecarlo.accumulate.stats"),
    "argparse reads it, and tests/test_cli.py runs every flag": ("cli.main.argv",),
}

BAD_VALUES = {"text": "0.5", "array": np.array([0.5, 0.5]), "nan": math.nan,
              "inf": math.inf, "none": None, "bool": True,
              "boxed": np.array("0.5", dtype=object), "bytes": b"0.5"}


# "module.callable.parameter": (a call that passes a value in that parameter,
# a good value) for a parameter that takes a library object of one class,
# which core.typed reads: any other object raises a ValidationError naming it
TYPED = {
    "bregman.bregman_loss.loss": (lambda v: bregman.bregman_loss(v, [1.0], [0.5]), QUADRATIC),
    "bregman.gap_check_gaussian_cn.rng": (lambda v: bregman.gap_check_gaussian_cn(
        1.0, SPEC, 2, v), rng.RngHandle(0)),
    "montecarlo.accumulate.rng": (lambda v: montecarlo.accumulate(1.0, SPEC, 2, v, {}),
                                  rng.RngHandle(0)),
    "montecarlo.paired_loss_estimates.rng": (lambda v: montecarlo.paired_loss_estimates(
        1.0, SPEC, 2, v), rng.RngHandle(0)),
    "montecarlo.verify_closed_forms.rng": (lambda v: montecarlo.verify_closed_forms(
        1.0, 1.0, [1.0], [0.5], 2, v), rng.RngHandle(0)),
    "bregman.gap_check_discrete.problem": (lambda v: bregman.gap_check_discrete(
        v, np.full((2, 2, 2), 0.5)), XOR),
    "voi.DiscreteProblem.loss": (lambda v: problem(loss=v), voi.LogLoss()),
    "voi.bayes_risk.problem": (voi.bayes_risk, XOR),
    "voi.marginal_value_discrete.problem": (voi.marginal_value_discrete, XOR),
    "voi.brute_force_voi.problem": (voi.brute_force_voi, XOR),
    "voi.conditional_mean_optimality.problem": (voi.conditional_mean_optimality, XOR),
    "core.loss_profile.spec": (lambda v: loss_profile(1.0, v), SPEC),
    "montecarlo.accumulate.spec": (lambda v: montecarlo.accumulate(
        1.0, v, 2, rng.RngHandle(0), {}), SPEC),
    "montecarlo.paired_loss_estimates.spec": (lambda v: montecarlo.paired_loss_estimates(
        1.0, v, 2, rng.RngHandle(0)), SPEC),
    "bregman.gap_check_gaussian_cn.spec": (lambda v: bregman.gap_check_gaussian_cn(
        1.0, v, 2, rng.RngHandle(0)), SPEC),
    "regimes.classify.profile": (regimes.classify, loss_profile(1.0, SPEC)),
    "cueworld.build_world.plan": (lambda v: cueworld.build_world(100, v), PLAN),
    "cueworld.concentration_experiment.plan": (lambda v: cueworld.concentration_experiment(
        [100], v, 2), PLAN),
    "cueworld.sample_ai_set.world": (lambda v: cueworld.sample_ai_set(v, 0.3), WORLD),
    "cueworld.empirical_lambda.world": (lambda v: cueworld.empirical_lambda(v, [0, 1]), WORLD),
    "cueworld.covariance_lambda.world": (lambda v: cueworld.covariance_lambda(v, [0, 1]),
                                         WORLD),
}

WRONG_OBJECTS = {"int": 0, "none": None, "tuple": (0, 1)}


@pytest.mark.parametrize("entry, case", [(entry, case) for entry in TYPED
                                         for case in WRONG_OBJECTS])
def test_a_wrong_object_raises_a_validation_error_naming_it(entry, case):
    call, _ = TYPED[entry]
    name = entry.rsplit(".", 1)[1]
    with pytest.raises(ValidationError, match=rf"^{name} must be \w+"):
        call(WRONG_OBJECTS[case])


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry, (_, _, pair_is_bad, _) in ENTRY_POINTS.items()
    for case in BAD_VALUES if pair_is_bad or case != "array"])
def test_a_bad_argument_raises_a_validation_error_naming_it(entry, case):
    name, call, _, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValidationError, match=rf"\b{re.escape(name)}\b"):
        call(BAD_VALUES[case])


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in ENTRY_POINTS if entry.endswith(".tau0")
    for case in ("zero", "negative", *BAD_VALUES)])
def test_a_bad_prior_precision_is_rejected_before_any_draw_or_fork(entry, case, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("drew or forked before reading tau0")

    monkeypatch.setattr(montecarlo, "sample_triple", never)
    monkeypatch.setattr(montecarlo, "parallel_map", never)
    _, call, _, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValidationError, match=r"^tau0 must be"):
        call({"zero": 0, "negative": -1.0, **BAD_VALUES}[case])


# the erasure problem at t = 0 never erases: own signal 2 has probability 0,
# and a NaN decision there is read all the same
ERASURE = quadratic(voi.ratio_construction(0.0))
NAN_AT_ERASURE = np.full((3, 2, 1), 0.5)
NAN_AT_ERASURE[2] = math.nan


@pytest.mark.parametrize("problem, table", [
    (QUADRATIC_XOR, np.full((2, 2), 0.5)),
    (QUADRATIC_XOR, np.full((2, 3, 1), 0.5)),
    (QUADRATIC_XOR, np.full((2, 2, 2), 0.5)),
    (ERASURE, NAN_AT_ERASURE),
    (QUADRATIC_XOR, {(h, a): 0.5 for h in (0, 1) for a in (0, 1)}),
], ids=["no-decision-axis", "wrong-signal-shape", "wrong-decision-length",
        "nan-at-a-zero-probability-pair", "label-keyed-dict"])
def test_a_bad_rule_table_raises_a_validation_error_naming_delta_hat(problem, table):
    with pytest.raises(ValidationError, match=r"\bdelta_hat\b"):
        bregman.gap_check_discrete(problem, table)


def test_the_good_values_of_the_table_pass():
    # each call above fails only through its bad argument
    for _, call, _, good in ENTRY_POINTS.values():
        call(good)
    for call, good in TYPED.values():
        call(good)


@pytest.mark.parametrize("entry", [entry for entry, (*_, good) in ENTRY_POINTS.items()
                                   if isinstance(good, np.ndarray)])
def test_an_entry_point_neither_freezes_nor_changes_the_callers_array(entry):
    _, call, _, good = ENTRY_POINTS[entry]
    mine = good.copy()
    call(mine)
    assert mine.flags.writeable
    np.testing.assert_array_equal(mine, good)


def test_every_public_parameter_has_a_row_or_a_reason():
    exempt = {key for keys in EXEMPT.values() for key in keys}
    unread, names = [], set()
    for info in pkgutil.iter_modules(dualsig.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"dualsig.{info.name}")
        for name in module.__all__:
            owner, obj = f"{info.name}.{name}", getattr(module, name)
            names.add(owner)
            if not callable(obj) or owner in exempt:
                continue
            for param in inspect.signature(obj).parameters:
                path = f"{owner}.{param}"
                names.update((param, path))
                if (path not in ENTRY_POINTS and path not in TYPED and path not in exempt
                        and param not in exempt):
                    unread.append(path)
    assert unread == []
    # and each row and exemption names a parameter that exists
    assert sorted((set(ENTRY_POINTS) | set(TYPED) | exempt) - names) == []
