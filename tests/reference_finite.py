"""Object-level references for the wide-class paths, kept for differential
tests.

These are the finite loop, ERM and VC search as they ran before they moved
onto plain arrays and counts: the loop draws through ``oracle_sample`` and
validates each step through the public ``SimplexWeights`` wrappers
(``hedge_step_cost``, ``exp3_step``), ERM averages a boolean mistake table,
and the VC search counts distinct codes with ``np.unique``.  The array-native
versions in ``multidist`` must return the same results, bit for bit.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from multidist.algos import _finite_schedule
from multidist.cover import SampleBatch
from multidist.model import (
    VC_MAX_CLASS,
    VC_MAX_DOMAIN,
    GuardError,
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


def reference_erm(hclass: HypothesisClass, batch: SampleBatch) -> Hypothesis:
    """Exhaustive empirical minimizer; ties broken by lowest id."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    if len(hclass) == 0:
        raise ValueError("empty class")
    errors = (hclass.matrix[:, batch.points] != batch.labels).mean(axis=1)
    return hclass.hypotheses[int(np.argmin(errors))]


def reference_brute_force_vc(hclass: HypothesisClass, n: int) -> int:
    """Exact VC dimension by subset enumeration (guarded to small inputs)."""
    if n > VC_MAX_DOMAIN or len(hclass) > VC_MAX_CLASS:
        raise GuardError(
            f"VC guard: need n <= {VC_MAX_DOMAIN} and |class| <= {VC_MAX_CLASS}")
    matrix = hclass.matrix.astype(np.int64)
    best = 0
    for m in range(1, n + 1):
        if len(hclass) < (1 << m):
            break
        weights = 1 << np.arange(m, dtype=np.int64)
        shattered = False
        for subset in combinations(range(n), m):
            codes = matrix[:, subset] @ weights
            if len(np.unique(codes)) == (1 << m):
                shattered = True
                break
        if not shattered:
            break
        best = m
    return best
