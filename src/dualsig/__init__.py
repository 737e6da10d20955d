"""Decision losses, regimes, and value of information for two-signal estimation.

A decision-maker estimates a Gaussian state from an own signal and a
partially redundant assistant signal.  This package provides the closed-form
expected losses (including the naive fusion that ignores the redundancy),
the capability thresholds and phase diagram of the best deployment, a
cue-pool micro-foundation of the overlap coefficient, exact discrete value
of information, Bregman-loss gap identities, and seeded Monte Carlo oracles
for every closed form.  The ``dualsig`` CLI emits all of it as CSV.

Each public name has one import path, its own module
(``from dualsig.core import loss_profile``); this package re-exports
nothing, so importing it loads no submodule.
"""

__version__ = "0.1.0"
