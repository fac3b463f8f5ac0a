"""Multi-distribution learning on finite instances.

A library and CLI harness for no-regret game dynamics between a
hypothesis-choosing learner and a distribution-choosing sampling
adversary, together with exact brute-force ground truth so that the
realized worst-case loss and sample budgets of every run can be audited.

The names below are re-exported from their modules on first access, so
importing one submodule (say ``multidist.online``) loads only the modules
it depends on.
"""

import importlib

_EXPORTS = {
    "model": (
        "DomainMismatchError", "FiniteDistribution", "GuardError", "Hypothesis",
        "HypothesisClass", "LabeledExample", "MdlInstance", "RandomizedHypothesis",
        "SampleLedger", "brute_force_vc", "derive_seed", "exact_loss", "make_rng",
        "mixture_sample", "oracle_sample", "vc_dimension", "zero_one_loss",
    ),
    "evaluate": (
        "InstanceSpec", "OptResult", "brute_force_opt", "generate", "max_loss",
        "minority_bound_check",
    ),
    "online": (
        "CostVector", "SimplexWeights", "exp3_step",
        "hedge_step_cost", "hedge_step_payoff", "payoff_regret_of",
        "project_capped", "regret_of", "smooth_argmax", "smooth_cap",
    ),
    "cover": (
        "CoverResult", "SampleBatch", "cover_sample_size", "empirical_loss", "erm",
        "projection_cover",
    ),
    "algos": (
        "FastParams", "RunReport", "fast_params", "median_filter",
        "mid_adversary_estimate", "run_cover_then_finite", "run_fast", "run_finite",
        "run_mid", "run_personalized",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module 'multidist' has no attribute {name!r}")
    return getattr(importlib.import_module(f"multidist.{_OWNER[name]}"), name)
