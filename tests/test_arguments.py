"""Every public argument is read by the readers of ``dualsig.core``, so a bad
one raises ``ValidationError`` naming it, from whichever entry point it
enters: text is never a number, even where ``float`` would parse it, a
two-element array is not one number, and NaN and inf are not finite.
"""

import itertools
import math
import re

import numpy as np
import pytest

from dualsig import bregman, cueworld, montecarlo, regimes, rng, voi
from dualsig.core import Environment, ValidationError

ENV = Environment(tau0=1.0)
WORLD = cueworld.CueWorld(precisions=np.ones(10), n_accessible=5, human_set=[0, 1])
XOR = voi.xor_construction(0.25)
SQUARED = bregman.BregmanGenerator("squared")


def problem(states=(0.0, 1.0), probs=np.full((2, 2, 2), 0.125)):
    return voi.DiscreteProblem(states=states, alphabets=((0, 1), (0, 1)), probs=probs,
                               loss=voi.QuadraticLoss())


def rule(decision):
    """One decision for every signal pair of ``XOR``."""
    return dict.fromkeys(itertools.product(*XOR.alphabets), decision)


# entry point: (the argument's name in the message, a call that passes the
# bad value in that argument, whether a two-element array is bad there: it
# is not where the argument takes an array of any length)
ENTRY_POINTS = {
    "tau_aug": ("lam", lambda v: regimes.tau_aug(ENV, 1.0, v), False),
    "tau_auto": ("lam", lambda v: regimes.tau_auto(ENV, 1.0, v), False),
    "phase_sweep-tau_a": ("tau_a_axis", lambda v: regimes.phase_sweep(ENV, 1.0, v, [0.5]),
                          False),
    "phase_sweep-lambda": ("lambda_axis", lambda v: regimes.phase_sweep(ENV, 1.0, [1.0], v),
                           False),
    "DiscreteProblem-states": ("states", lambda v: problem(states=v), False),
    "DiscreteProblem-probs": ("probs", lambda v: problem(probs=v), True),
    "binary_entropy": ("p", voi.binary_entropy, True),
    "xor_construction": ("q", voi.xor_construction, True),
    "erasure_construction": ("t", voi.erasure_construction, True),
    "xor_q_for_ratio": ("t", voi.xor_q_for_ratio, True),
    "ratio_construction": ("t", voi.ratio_construction, True),
    "posterior_two_tests-prior": ("prior", lambda v: voi.posterior_two_tests(v, 0.7, 0.01),
                                  True),
    "posterior_two_tests-tpr": ("tpr", lambda v: voi.posterior_two_tests(0.1, v, 0.01), True),
    "posterior_two_tests-fpr": ("fpr", lambda v: voi.posterior_two_tests(0.1, 0.7, v), True),
    "bregman_loss-y": ("y", lambda v: bregman.bregman_loss(SQUARED, v, [0.5]), False),
    "bregman_loss-d": ("d", lambda v: bregman.bregman_loss(SQUARED, [1.0], v), False),
    # the squared generator takes one number per signal pair
    "gap_check_discrete": ("decision", lambda v: bregman.gap_check_discrete(
        XOR, rule(v), SQUARED), True),
    "CueWorld": ("precisions", lambda v: cueworld.CueWorld(
        precisions=v, n_accessible=1, human_set=[0]), False),
    # an index set is a sequence of integers, a set or an array; never one number
    "CueWorld-human_set": ("human_set", lambda v: cueworld.CueWorld(
        precisions=np.ones(2), n_accessible=1, human_set=v), True),
    "empirical_lambda": ("ai_set", lambda v: cueworld.empirical_lambda(WORLD, v), True),
    "covariance_lambda": ("ai_set", lambda v: cueworld.covariance_lambda(WORLD, v), True),
    "round_half_away": ("x", cueworld.round_half_away, True),
    "sample_ai_set": ("a", lambda v: cueworld.sample_ai_set(WORLD, v), True),
    "overlap_estimates": ("a", lambda v: cueworld.overlap_estimates(WORLD, v, 2, 0), True),
    "normal_ppf": ("p", rng.normal_ppf, False),
    "verify_closed_forms-tau_h": ("tau_h", lambda v: montecarlo.verify_closed_forms(
        ENV, v, [1.0], [0.5], 2, rng.RngHandle(0)), True),
    "verify_closed_forms-lambda": ("lambda_grid", lambda v: montecarlo.verify_closed_forms(
        ENV, 1.0, [1.0], v, 2, rng.RngHandle(0)), False),
}

BAD_VALUES = {"text": "0.5", "array": np.array([0.5, 0.5]), "nan": math.nan,
              "inf": math.inf}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry, (_, _, pair_is_bad) in ENTRY_POINTS.items()
    for case in BAD_VALUES if pair_is_bad or case != "array"])
def test_a_bad_argument_raises_a_validation_error_naming_it(entry, case):
    name, call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValidationError, match=rf"\b{re.escape(name)}\b"):
        call(BAD_VALUES[case])


def test_the_good_values_of_the_table_pass():
    # each call above fails only through its bad argument
    good = {"phase_sweep-tau_a": [1.0], "phase_sweep-lambda": [0.5],
            "DiscreteProblem-states": (0.0, 2.0),
            "DiscreteProblem-probs": np.full((2, 2, 2), 0.125), "xor_q_for_ratio": 2.0,
            "ratio_construction": 2.0, "gap_check_discrete": 0.5, "CueWorld": [1.0, 2.0],
            "CueWorld-human_set": [0], "empirical_lambda": {0, 1},
            "covariance_lambda": np.array([0, 1]), "round_half_away": 2.5,
            "sample_ai_set": 0.3, "overlap_estimates": 0.3}
    for entry, (_, call, _) in ENTRY_POINTS.items():
        call(good.get(entry, 0.25))
