"""Every suite trial keeps its draws, and no trial folds a NaN away.

A trial's residual may move in the last bits with the BLAS build, but the
generator state after it depends only on what it drew and in which order.
The states below were captured from the suite as `run_suite` seeds it
(master seed 42, one child stream per identity) at `RunConfig` defaults.
"""

import math

import numpy as np
import pytest

from jlolab import suites
from jlolab.suites import IDENTITIES, RunConfig

# generator state after one trial of each identity, in IDENTITIES order
STATE_AFTER_ONE_TRIAL = {
    "shuffle_multiplicativity": 310555744244371408785199952813854486939,
    "cyclic_shuffle_pair": 81328023457312551548576080921806691808,
    "cyclic_shuffle_triple": 102378354935118732183713516268015451044,
    "contraction_is_boundary": 4012194670979179601298559348739171913,
    "perturbed_cocycle": 315276260166804068634809278234291293769,
    "perturbed_forms_agree": 21892469891509391572543988820271584321,
    "perturbed_multiplicativity": 14570111223652180871408883992717316830,
    "heat_factorization": 316817697534693991257927861190989468151,
    "derivation_on_products": 202302491693665897266250965641394665189,
    "kernel_projection_product": 309451959248898026042109831155769957113,
    "hochschild_square_zero": 268307512762771986554563948472794343768,
    "connes_square_zero": 158252398120450942822967027735952660034,
    "boundaries_anticommute": 25933384414764097050168236618202382938,
    "shuffle_associativity": 119130765061515238313492285849065439474,
    "hochschild_derivation_shuffle": 20985599323031359268113718858989351637,
    "scalar_slot_invariance": 134861420346854914877290408515374609459,
    "exact_vs_mc": 298620791887186982556401037532303492402,
    "index_pairing_vs_fredholm": 337366705522913682082512528491667450577,
    "index_multiplicativity": 58007821531994218142811607571477551751,
}


@pytest.mark.parametrize("i", range(len(IDENTITIES)),
                         ids=[name for name, _, _ in IDENTITIES])
def test_each_trial_keeps_its_draws(i):
    name, tol, fn = IDENTITIES[i]
    config = RunConfig()
    stream = np.random.SeedSequence(config.seed).spawn(len(IDENTITIES))[i]
    rng = np.random.default_rng(stream)
    residual = fn(rng, config.dims, max_degree=config.max_degree,
                  mc_samples=config.mc_samples)
    assert rng.bit_generator.state["state"]["state"] \
        == STATE_AFTER_ONE_TRIAL[name]
    assert residual <= tol


@pytest.mark.parametrize("i", range(len(IDENTITIES)),
                         ids=[name for name, _, _ in IDENTITIES])
def test_each_trial_runs_at_its_own_defaults(i):
    # perfbench's `algebra` workload calls the chain laws as trial(prng,
    # dims), at each trial's own max_degree and mc_samples defaults
    name, tol, fn = IDENTITIES[i]
    residual = fn(np.random.default_rng(i), ((1, 1),))
    assert math.isfinite(residual)
    assert residual <= tol


@pytest.mark.parametrize("name, top", [
    ("hochschild_square_zero", 4), ("connes_square_zero", 4),
    ("boundaries_anticommute", 3), ("shuffle_associativity", 2)])
def test_chain_laws_default_to_their_own_max_degree(name, top):
    # the four laws perfbench calls draw at these degrees when no
    # max_degree is passed, and a lower one draws differently
    fn = {n: f for n, _, f in IDENTITIES}[name]
    states = []
    for kwargs in ({}, {"max_degree": top}, {"max_degree": top - 1}):
        rng = np.random.default_rng(0)
        fn(rng, ((2, 1),), **kwargs)
        states.append(rng.bit_generator.state["state"]["state"])
    assert states[0] == states[1] != states[2]


@pytest.mark.parametrize("trial, step", [
    ("trial_heat_factorization", "opnorm"),
    ("trial_index_pairing", "index_of_pair"),
    ("trial_index_product", "index_of_pair")])
def test_a_nan_step_is_the_trials_residual(monkeypatch, trial, step):
    # the second of the values a trial folds is NaN; the first is finite
    real, calls = getattr(suites, step), []

    def nan_second(*args):
        calls.append(args)
        return math.nan if len(calls) == 2 else real(*args)

    monkeypatch.setattr(suites, step, nan_second)
    assert math.isnan(getattr(suites, trial)(np.random.default_rng(0),
                                             ((1, 1),)))
