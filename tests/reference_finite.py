"""Object-level references for the wide-class paths, kept for differential
tests.

These are the finite loop, its Exp3 step and ERM as they ran before they
moved onto plain arrays and counts: the loop draws through
``oracle_sample`` and validates each step through the public
``SimplexWeights`` wrappers (``hedge_step_cost``, ``exp3_step``), the Exp3
step updates a copy, and ERM averages a boolean mistake table.  The
array-native versions in ``multidist`` must return the same results, bit
for bit.  The slow VC reference is in ``reference_kernels``.
"""

from __future__ import annotations

import numpy as np

from multidist.algos import _finite_schedule
from multidist.cover import SampleBatch
from multidist.model import (
    Hypothesis,
    HypothesisClass,
    MdlInstance,
    RandomizedHypothesis,
    SampleLedger,
    oracle_sample,
)
from multidist.online import SimplexWeights, exp3_step, hedge_step_cost


def reference_finite_loop(instance: MdlInstance, hclass: HypothesisClass,
                          epsilon: float, delta: float, rng: np.random.Generator,
                          ledger: SampleLedger, C: float, record_trace: bool,
                          trace: list[dict]) -> tuple[RandomizedHypothesis, dict]:
    k = instance.k
    class_size = len(hclass)
    matrix = hclass.matrix
    T, eta_learner, eta_exp3, exploration = _finite_schedule(
        class_size, k, epsilon, delta, C)
    learner = SimplexWeights.uniform(class_size)
    adversary = SimplexWeights.uniform(k)
    mean_weights = np.zeros(class_size)
    for t in range(T):
        mean_weights += learner.w
        chosen = int(rng.choice(k, p=adversary.w))
        z = oracle_sample(instance, chosen, rng, ledger)
        costs = (matrix[:, z.point] != z.label).astype(np.float64)
        # Rounding can put the mixture's loss an ulp above 1, which would
        # hand Exp3 a negative cost.
        observed_loss = min(1.0, float(learner.w @ costs))
        if record_trace:
            trace.append({"t": t, "adversary": adversary.w.tolist(),
                          "learner_id": int(np.argmax(learner.w)),
                          "chosen": chosen, "observed_loss": observed_loss})
        learner = hedge_step_cost(learner, costs, eta_learner)
        adversary = exp3_step(adversary, chosen, 1.0 - observed_loss,
                              eta_exp3, exploration)
    mean_weights /= T
    meta = {"T": T, "eta_learner": eta_learner, "eta_exp3": eta_exp3,
            "exploration": exploration, "class_size": class_size}
    return RandomizedHypothesis.from_weights(hclass.hypotheses, mean_weights), meta


def reference_exp3_step(w: np.ndarray, chosen: int, observed_cost: float, eta: float,
                        exploration: float) -> np.ndarray:
    """The Exp3 update on a copy of w, as it ran before it updated in place."""
    prob = float(w[chosen])
    if prob <= 0.0:
        raise ValueError("chosen arm has zero sampling probability")
    estimate = observed_cost / prob
    scaled = w.copy()
    scaled[chosen] *= float(np.exp(-eta * estimate))
    p = scaled / scaled.sum()
    return (1.0 - exploration) * p + exploration / len(w)


def reference_erm(hclass: HypothesisClass, batch: SampleBatch) -> Hypothesis:
    """Exhaustive empirical minimizer; ties broken by lowest id."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    if len(hclass) == 0:
        raise ValueError("empty class")
    errors = (hclass.matrix[:, batch.points] != batch.labels).mean(axis=1)
    return hclass.hypotheses[int(np.argmin(errors))]
