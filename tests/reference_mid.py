"""Object-level reference for the mid dynamics, kept for differential tests.

This is the mid loop as it ran before the loop moved onto plain arrays: it
rebuilds a :class:`RandomizedHypothesis` every round to score the learner on
the adversary's point, and validates each step through the public
``SimplexWeights``/``CostVector`` wrappers.  ``algos.run_mid`` must produce
the same report, bit for bit, for every seed.
"""

from __future__ import annotations

import math

import numpy as np

from multidist.algos import (
    ESTIMATORS,
    RunReport,
    _clamp_rate,
    _mid_schedule,
    _resolve_vc,
    mid_adversary_estimate,
    resolve_constants,
)
from multidist.cover import projection_cover
from multidist.model import (
    MdlInstance,
    RandomizedHypothesis,
    SampleLedger,
    make_rng,
    mixture_sample,
    mixture_sample_many,
    oracle_sample,
)
from multidist.online import SimplexWeights, hedge_step_cost


def reference_run_mid(instance: MdlInstance, epsilon: float, delta: float, seed: int,
                      constants: dict[str, float] | None = None,
                      estimator: str = "unbiased", vc_dim: int | None = None,
                      record_trace: bool = True) -> RunReport:
    """Covered Hedge learner vs capped (2-smooth) Hedge adversary."""
    cons = resolve_constants(constants)
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must be in (0, 1)")
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    k = instance.k
    d = _resolve_vc(instance, vc_dim)
    sched = _mid_schedule(epsilon, delta, k, d, cons)
    rng = make_rng(seed)
    ledger = SampleLedger(k)

    uniform = np.full(k, 1.0 / k)
    pts, _ = mixture_sample_many(instance, uniform, sched["N"], rng, ledger)
    cover = projection_cover(instance.hypothesis_class, sorted(set(int(p) for p in pts)))
    sub = cover.subclass
    matrix = sub.matrix
    eta_learner = _clamp_rate(math.sqrt(math.log(max(len(sub), 2)) / sched["T"]))

    learner = SimplexWeights.uniform(len(sub))
    adversary = SimplexWeights.uniform(k, cap=sched["cap"])
    mean_weights = np.zeros(len(sub))
    trace: list[dict] = []
    for t in range(sched["T"]):
        mean_weights += learner.w
        z = mixture_sample(instance, adversary.w, rng, ledger)
        learner_costs = (matrix[:, z.point] != z.label).astype(np.float64)
        chosen = int(rng.integers(k))
        z2 = oracle_sample(instance, chosen, rng, ledger)
        iterate = RandomizedHypothesis.from_weights(sub.hypotheses, learner.w)
        estimate = mid_adversary_estimate(adversary, chosen, z2, iterate, estimator)
        if record_trace:
            trace.append({"t": t, "adversary": adversary.w.tolist(),
                          "learner_id": int(np.argmax(learner.w)),
                          "chosen": chosen,
                          "estimate": float(estimate.values[chosen])})
        learner = hedge_step_cost(learner, learner_costs, eta_learner)
        adversary = hedge_step_cost(adversary, estimate, sched["eta_adversary"])
    mean_weights /= sched["T"]
    config = {"epsilon": epsilon, "delta": delta, "constants": cons,
              "estimator": estimator, "vc_dim": d, "eta_learner": eta_learner,
              "cover_behaviors": cover.behavior_count, **sched}
    return RunReport(
        algorithm="mid", seed=seed, config=config,
        hypothesis=RandomizedHypothesis.from_weights(sub.hypotheses, mean_weights),
        ledger_per_oracle=list(ledger.per_oracle), ledger_total=ledger.total, trace=trace)
