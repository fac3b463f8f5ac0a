"""Game-dynamics learners: fast ERM-vs-Hedge, finite Hedge-vs-Exp3,
cover-then-finite, the capped-adversary mid dynamics, and the personalized
halving loop over mid.  The three loops (fast, finite, mid) are written out
separately because they share no learner, adversary or feedback step.

Each run owns a seeded generator and a fresh :class:`SampleLedger`; the only
access to the distributions is through the ledgered oracles, so the realized
query totals in every report can be checked against the predicted budgets.

The mid and finite loops run on plain weight arrays through the same private
steps that the public wrappers (``mixture_sample``, ``oracle_sample``,
``hedge_step_cost``, ``project_capped``, ``exp3_step``,
``mid_adversary_estimate``) validate and call; both draw the adversary's
oracle with ``model._mixture_index``.  Each loop checks every round what
those wrappers would check: the mid estimate lies in [0, k], the finite
loop's observed cost lies in [0, 1], and both weight vectors are
nonnegative, sum to 1 and respect the adversary's cap.  Learning rates are
constant, so they are checked once, before the loop.

Per run, both loops compute the learner's Hedge factor row of each drawn
(point, label) once (the finite loop also keeps its 0/1 cost row).  The mid
loop reuses the totals its simplex checks return: the adversary's total
normalizes the next round's mixture, and the learner's total normalizes its
prediction at the adversary's point while every learner weight is positive.
Its adversary's estimate is one-hot, so the Hedge step scales the chosen
weight alone before the capped projection.  The finite loop draws its two
uniforms per round (oracle, then atom) in fixed-size blocks.  All of these
give the bits the public steps give.  The fast loop keeps its public steps,
since its cost is the ERM scan.  The object-level loops these replaced are
kept in ``tests/reference_mid.py`` and ``tests/reference_finite.py``, and
the tests require identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from multidist.cover import (
    SampleBatch,
    ceil_budget,
    cover_sample_size,
    empirical_loss,
    erm,
    projection_cover,
)
from multidist.model import (
    SUM_TOL,
    GuardError,
    Hypothesis,
    HypothesisClass,
    LabeledExample,
    MdlInstance,
    RandomizedHypothesis,
    SampleLedger,
    _draw,
    _label_loss,
    _mixture_draw,
    _mixture_index,
    _prediction_at,
    derive_seed,
    make_rng,
    mixture_sample_many,
    oracle_sample_many,
    vc_dimension,
)
from multidist.online import (
    CostVector,
    SimplexWeights,
    _check_eta,
    _check_exp3_rates,
    _check_simplex,
    _exp3_step,
    _project_capped,
    hedge_step_payoff,
    smooth_cap,
)

DEFAULT_CONSTANTS = {"C": 4.0, "C1": 4.0, "C2": 4.0, "Cprime": 4.0, "Ceval": 4.0}

ESTIMATORS = ("unbiased", "literal")

# Rates are clamped into the range Hedge accepts; the lower clamp only
# matters in degenerate dimensions (single action, k = 1).
_RATE_FLOOR = 1e-9
_RATE_CEIL = 0.5

# Rounds whose uniforms the finite loop draws at once: memory stays O(1) in T
# (a k = 64, eps = 0.01 run has T near 15 million).
_PAIR_BLOCK = 4096

# A schedule of more queries (about 130 times the T of that k = 64 run) would
# run for days or exhaust memory, so a run checks its budget before drawing.
QUERY_GUARD = 2_000_000_000


def resolve_constants(overrides: dict[str, float] | None) -> dict[str, float]:
    """The defaults with `overrides` applied: the one check of constants.
    Keys must be known and values positive and finite (NaN fails)."""
    out = dict(DEFAULT_CONSTANTS)
    for key, val in (overrides or {}).items():
        if key not in DEFAULT_CONSTANTS:
            raise ValueError(f"unknown constant {key!r} "
                             f"(known: {sorted(DEFAULT_CONSTANTS)})")
        if not 0.0 < float(val) < math.inf:
            raise ValueError(f"constant {key} must be positive and finite, got {val!r}")
        out[key] = float(val)
    return out


def _check_queries(total: int) -> None:
    if total > QUERY_GUARD:
        raise GuardError(f"query guard: {total} scheduled queries > {QUERY_GUARD}")


def _clamp_rate(x: float) -> float:
    return min(_RATE_CEIL, max(_RATE_FLOOR, x))


def _resolve_vc(instance: MdlInstance, vc_dim: int | None) -> int:
    if vc_dim is not None:
        if vc_dim < 0:
            raise ValueError("vc_dim must be >= 0")
        return vc_dim
    return vc_dimension(instance.hypothesis_class)


@dataclass
class RunReport:
    """Everything one execution produced, replayable from (seed, config)."""

    algorithm: str
    seed: int
    config: dict
    hypothesis: RandomizedHypothesis | None
    ledger_per_oracle: list[int]
    ledger_total: int
    trace: list[dict]
    assignments: dict[int, RandomizedHypothesis] | None = None

    def to_dict(self, include_trace: bool = True) -> dict:
        out: dict = {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "config": self.config,
            "hypothesis": _mixture_to_dict(self.hypothesis),
            "assignments": (
                None if self.assignments is None
                else {str(i): _mixture_to_dict(h) for i, h in sorted(self.assignments.items())}
            ),
            "ledger": {"per_oracle": self.ledger_per_oracle, "total": self.ledger_total},
        }
        if include_trace:
            out["trace"] = self.trace
        return out


def _mixture_to_dict(h: RandomizedHypothesis | None) -> dict | None:
    if h is None:
        return None
    return {
        "atoms": [
            {"id": i, "weight": w, "labels": labels}
            for i, w, labels in zip(h.ids.tolist(), h.weights.tolist(),
                                    h.labels.astype(int).tolist())
        ]
    }


# ---------------------------------------------------------------------------
# fast dynamics: ERM learner vs full-feedback Hedge adversary


@dataclass(frozen=True)
class FastParams:
    """Schedule for the fast dynamics, as computed by :func:`fast_params`."""

    epsilon: float
    alpha: float
    delta: float
    k: int
    d: int
    C1: float
    C2: float
    T: int
    r1: int
    r2: int
    clamped: bool = False

    @property
    def predicted_budget(self) -> int:
        return self.T * (self.r1 + self.k * self.r2)


def fast_params(epsilon: float, alpha: float, delta: float, k: int, d: int,
                C1: float = 4.0, C2: float = 4.0) -> FastParams:
    """Iteration and batch sizes for the fast dynamics.

    The analysis assumes epsilon <= alpha, so a larger epsilon is clamped
    down to alpha and flagged.  A single distribution degenerates the
    iteration formula to zero, so T is floored at one round.
    """
    if not 0 < epsilon < 0.5 or not 0 < alpha < 0.5:
        raise ValueError("epsilon and alpha must be in (0, 0.5)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if k < 1 or d < 0:
        raise ValueError("need k >= 1 and d >= 0")
    clamped = epsilon > alpha
    eps = min(epsilon, alpha)
    T = max(1, math.ceil(math.log(k) / (eps * alpha)))
    r1 = ceil_budget(C1 * (d + math.log(T / delta)) / (eps * alpha), "C1")
    r2 = ceil_budget(C2 * math.log(k / delta) / (T * eps ** 2), "C2")
    return FastParams(epsilon=eps, alpha=alpha, delta=delta, k=k, d=d,
                      C1=C1, C2=C2, T=T, r1=r1, r2=r2, clamped=clamped)


def run_fast(instance: MdlInstance, epsilon: float, alpha: float, delta: float,
             seed: int, constants: dict[str, float] | None = None,
             vc_dim: int | None = None, record_trace: bool = True) -> RunReport:
    """ERM learner against a Hedge adversary with fresh per-round batches.

    Round t: draw r1 points from the adversary's mixture and take the
    empirical minimizer, then show the adversary the mean loss of that
    hypothesis on r2 fresh draws from every distribution.  Output is the
    uniform mixture of the per-round minimizers.  Total queries are exactly
    T * (r1 + k * r2).
    """
    cons = resolve_constants(constants)
    k = instance.k
    d = _resolve_vc(instance, vc_dim)
    params = fast_params(epsilon, alpha, delta, k, d, cons["C1"], cons["C2"])
    _check_queries(params.predicted_budget)
    rng = make_rng(seed)
    ledger = SampleLedger(k)
    hclass = instance.hypothesis_class
    adversary = SimplexWeights.uniform(k)
    chosen_ids: list[int] = []
    trace: list[dict] = []
    for t in range(params.T):
        pts, lbs = mixture_sample_many(instance, adversary.w, params.r1, rng, ledger)
        h = erm(hclass, SampleBatch(pts, lbs))
        chosen_ids.append(h.id)
        payoffs = np.empty(k)
        for i in range(k):
            bp, bl = oracle_sample_many(instance, i, params.r2, rng, ledger)
            payoffs[i] = empirical_loss(h, SampleBatch(bp, bl))
        if record_trace:
            trace.append({"t": t, "adversary": adversary.w.tolist(),
                          "learner_id": h.id, "payoffs": payoffs.tolist()})
        adversary = hedge_step_payoff(adversary, payoffs, params.alpha)
    # the uniform mixture over the rounds' minimizers: np.add.at adds one
    # term per round, in round order, so a repeated id sums its terms
    weights = np.zeros(len(hclass))
    np.add.at(weights, chosen_ids, 1.0 / len(chosen_ids))
    config = {
        "epsilon_requested": epsilon, "epsilon": params.epsilon,
        "alpha": alpha, "delta": delta, "clamped": params.clamped,
        "T": params.T, "r1": params.r1, "r2": params.r2,
        "predicted_budget": params.predicted_budget,
        "constants": cons, "vc_dim": d,
    }
    return RunReport(
        algorithm="fast", seed=seed, config=config,
        hypothesis=RandomizedHypothesis(hclass.matrix, weights),
        ledger_per_oracle=list(ledger.per_oracle), ledger_total=ledger.total, trace=trace)


# ---------------------------------------------------------------------------
# finite dynamics: Hedge learner vs Exp3 adversary, one query per round


def _finite_schedule(class_size: int, k: int, epsilon: float, delta: float,
                     C: float) -> tuple[int, float, float, float]:
    T = max(1, ceil_budget(C * (math.log(class_size) + k * math.log(k / delta))
                           / epsilon ** 2, "C"))
    eta_learner = _clamp_rate(math.sqrt(math.log(max(class_size, 2)) / T))
    exploration = min(1.0, math.sqrt(k * math.log(max(k, 2)) / T))
    eta_exp3 = max(exploration / k, _RATE_FLOOR)
    return T, eta_learner, eta_exp3, exploration


def _uniform_pairs(rng: np.random.Generator,
                   count: int) -> Iterator[tuple[float, float]]:
    """`count` pairs of uniforms, drawn in blocks of _PAIR_BLOCK pairs.

    A block ``rng.random(2 * m)`` holds the doubles that 2 * m scalar
    ``rng.random()`` calls would return, in order, and the last block is cut
    to size, so the generator ends where the scalar calls would leave it.
    """
    for start in range(0, count, _PAIR_BLOCK):
        u = rng.random(2 * min(_PAIR_BLOCK, count - start)).tolist()
        yield from zip(u[0::2], u[1::2])


def _finite_loop(instance: MdlInstance, hclass: HypothesisClass, epsilon: float,
                 delta: float, rng: np.random.Generator, ledger: SampleLedger,
                 C: float, record_trace: bool,
                 trace: list[dict]) -> tuple[RandomizedHypothesis, dict]:
    k = instance.k
    class_size = len(hclass)
    T, eta_learner, eta_exp3, exploration = _finite_schedule(
        class_size, k, epsilon, delta, C)
    _check_queries(ledger.total + T)
    # Plain arrays, as in the mid loop (see the module docstring).  The costs
    # of a drawn (point, label) and their Hedge factors are the same every
    # time it is drawn, so each is computed once.  Only drawn atoms get rows,
    # which bounds the memory by the support, not by the domain.  The
    # uniforms come in blocks; each round takes one for the oracle and one
    # for the atom, in the order scalar draws would take them.
    rows: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    _check_eta(eta_learner)
    _check_exp3_rates(eta_exp3, exploration)
    learner = SimplexWeights.uniform(class_size).w
    adversary = SimplexWeights.uniform(k).w
    mean_weights = np.zeros(class_size)
    for t, (u_oracle, u_atom) in enumerate(_uniform_pairs(rng, T)):
        mean_weights += learner
        chosen = _mixture_index(adversary, u_oracle)
        atom = _draw(instance, chosen, u_atom, ledger)
        if atom not in rows:
            costs = (hclass.matrix[:, atom[0]] != atom[1]).astype(np.float64)
            rows[atom] = costs, np.exp(-eta_learner * costs)
        costs, factors = rows[atom]
        # Rounding can put the mixture's loss an ulp above 1, which would
        # hand Exp3 a negative cost.
        observed_loss = min(1.0, float(learner @ costs))
        if not 0.0 <= 1.0 - observed_loss <= 1.0:
            raise ValueError("observed cost must be in [0, 1]")
        if record_trace:
            trace.append({"t": t, "adversary": adversary.tolist(),
                          "learner_id": int(np.argmax(learner)),
                          "chosen": chosen, "observed_loss": observed_loss})
        scaled = learner * factors
        learner = scaled / scaled.sum()
        adversary = _exp3_step(adversary, chosen, 1.0 - observed_loss,
                               eta_exp3, exploration)
        _check_simplex(learner, None)
        _check_simplex(adversary, None)
    mean_weights /= T
    meta = {"T": T, "eta_learner": eta_learner, "eta_exp3": eta_exp3,
            "exploration": exploration, "class_size": class_size}
    return RandomizedHypothesis(hclass.matrix, mean_weights), meta


def run_finite(instance: MdlInstance, epsilon: float, delta: float, seed: int,
               constants: dict[str, float] | None = None,
               record_trace: bool = True) -> RunReport:
    """Hedge over the explicit class against an Exp3 adversary.

    One oracle query per round serves both players: the learner's cost
    vector is the per-hypothesis loss on the drawn point, and the adversary
    banks the learner mixture's loss on it as payoff.  Total queries = T.
    """
    cons = resolve_constants(constants)
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must be in (0, 1)")
    rng = make_rng(seed)
    ledger = SampleLedger(instance.k)
    trace: list[dict] = []
    mixture, meta = _finite_loop(instance, instance.hypothesis_class, epsilon,
                                 delta, rng, ledger, cons["C"], record_trace, trace)
    config = {"epsilon": epsilon, "delta": delta, "constants": cons, **meta}
    return RunReport(
        algorithm="finite", seed=seed, config=config, hypothesis=mixture,
        ledger_per_oracle=list(ledger.per_oracle), ledger_total=ledger.total, trace=trace)


def run_cover_then_finite(instance: MdlInstance, epsilon: float, delta: float,
                          seed: int, constants: dict[str, float] | None = None,
                          vc_dim: int | None = None,
                          record_trace: bool = True) -> RunReport:
    """Offline projection cover per oracle, then the finite dynamics on it."""
    cons = resolve_constants(constants)
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must be in (0, 1)")
    k = instance.k
    d = _resolve_vc(instance, vc_dim)
    per_oracle = max(1, ceil_budget(cons["C"] * d / epsilon, "C"))
    # the finite loop's rounds depend on the cover, so it checks the total
    _check_queries(k * per_oracle)
    rng = make_rng(seed)
    ledger = SampleLedger(k)
    points = [oracle_sample_many(instance, i, per_oracle, rng, ledger)[0]
              for i in range(k)]
    cover = projection_cover(instance.hypothesis_class, np.concatenate(points))
    trace: list[dict] = []
    mixture, meta = _finite_loop(instance, cover.subclass, epsilon, delta,
                                 rng, ledger, cons["C"], record_trace, trace)
    config = {"epsilon": epsilon, "delta": delta, "constants": cons,
              "vc_dim": d, "cover_samples_per_oracle": per_oracle,
              "cover_behaviors": cover.behavior_count, **meta}
    return RunReport(
        algorithm="cover_finite", seed=seed, config=config, hypothesis=mixture,
        ledger_per_oracle=list(ledger.per_oracle), ledger_total=ledger.total, trace=trace)


# ---------------------------------------------------------------------------
# mid dynamics: Hedge over a sampled cover vs capped Hedge adversary


def _estimate_value(loss: float, k: int, weight: float, estimator: str) -> float:
    """The chosen coordinate of :func:`mid_adversary_estimate`, given the
    learner's loss on the sample and the adversary's weight on `chosen`."""
    value = k * (1.0 - loss)
    if estimator == "literal":
        value *= weight
    return value


def mid_adversary_estimate(weights: SimplexWeights | Sequence[float], chosen: int,
                           z: LabeledExample, h: Hypothesis | RandomizedHypothesis,
                           estimator: str = "unbiased") -> CostVector:
    """One-sample cost estimate for the capped adversary.

    With `chosen` uniform over the k distributions and z drawn from it, the
    unbiased form puts k * (1 - loss(h, z)) on the chosen coordinate, so its
    expectation per coordinate is 1 - exact loss.  The `literal` form keeps
    an extra factor of the adversary's current weight on the chosen
    coordinate, which biases the linear cost; it exists for comparison.
    """
    w = weights.w if isinstance(weights, SimplexWeights) else np.asarray(weights, float)
    k = len(w)
    if not 0 <= chosen < k:
        raise IndexError(f"chosen index {chosen} out of range")
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    value = _estimate_value(h.expected_loss(z), k, float(w[chosen]), estimator)
    return CostVector.one_hot(k, chosen, value, bound=float(k))


def _mid_schedule(epsilon: float, delta: float, k: int, d: int,
                  cons: dict[str, float]) -> dict:
    term1 = ceil_budget(cons["Cprime"] * math.log(k / delta) / epsilon ** 2, "Cprime")
    if d >= 1:
        inner = d * k * math.log(d / (epsilon * delta)) / epsilon
        term2 = ceil_budget(cons["C"] * d * math.log(inner) / epsilon ** 2, "C")
    else:
        term2 = 0
    T = max(1, term1, term2)
    N = cover_sample_size(max(d, 1), epsilon, delta, cons["C"])
    cap = smooth_cap(k)
    # The single-sample estimate scales with k; folding that scale into the
    # adversary's rate keeps the effective exponent in the [0, 2] range the
    # capped analysis expects.
    eta_adversary = _clamp_rate(2.0 * math.sqrt(math.log(max(k, 2)) / T) / k)
    return {"T": T, "N": N, "cap": cap, "eta_adversary": eta_adversary,
            "term1": term1, "term2": term2}


def run_mid(instance: MdlInstance, epsilon: float, delta: float, seed: int,
            constants: dict[str, float] | None = None, estimator: str = "unbiased",
            vc_dim: int | None = None, record_trace: bool = True) -> RunReport:
    """Covered Hedge learner vs capped (2-smooth) Hedge adversary.

    First N uniform-mixture draws build a projection cover; then each of
    the T rounds costs exactly two queries, one for the learner's cost at a
    point from the adversary's mixture and one for the adversary's own
    uniform-index estimate.  Total queries are exactly N + 2T.
    """
    cons = resolve_constants(constants)
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must be in (0, 1)")
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    k = instance.k
    d = _resolve_vc(instance, vc_dim)
    sched = _mid_schedule(epsilon, delta, k, d, cons)
    _check_queries(sched["N"] + 2 * sched["T"])
    rng = make_rng(seed)
    ledger = SampleLedger(k)

    uniform = np.full(k, 1.0 / k)
    pts, _ = mixture_sample_many(instance, uniform, sched["N"], rng, ledger)
    cover = projection_cover(instance.hypothesis_class, pts)
    sub = cover.subclass
    matrix = sub.matrix
    eta_learner = _clamp_rate(math.sqrt(math.log(max(len(sub), 2)) / sched["T"]))

    # Plain arrays, with the public steps' RNG calls and arithmetic in their
    # order (see the module docstring).  The rates and the cap are constant,
    # so they are checked once, here; the estimate and the weights every round.
    cap, eta_adversary = sched["cap"], sched["eta_adversary"]
    _check_eta(eta_learner)
    _check_eta(eta_adversary)
    learner = SimplexWeights.uniform(len(sub)).w
    adversary = SimplexWeights.uniform(k, cap=cap).w
    learner_min, learner_total = _check_simplex(learner, None)
    _, adversary_total = _check_simplex(adversary, cap)
    # The learner's Hedge factors at a drawn (point, label) are the same
    # every time it is drawn, so each row is computed once.
    factor_rows: dict[tuple[int, int], np.ndarray] = {}
    mean_weights = np.zeros(len(sub))
    trace: list[dict] = []
    for t in range(sched["T"]):
        mean_weights += learner
        atom = _mixture_draw(instance, adversary / adversary_total, rng, ledger)
        if atom not in factor_rows:
            factor_rows[atom] = np.exp(-eta_learner * (matrix[:, atom[0]] != atom[1]))
        chosen = int(rng.integers(k))
        x2, y2 = _draw(instance, chosen, rng.random(), ledger)
        # with every weight positive, the mask would keep them all, so the
        # checked total is the normalizer
        p1 = _prediction_at(learner, matrix[:, x2],
                            learner_total if learner_min > 0 else None)
        value = _estimate_value(_label_loss(p1, y2), k, float(adversary[chosen]),
                                estimator)
        if not -SUM_TOL <= value <= k + SUM_TOL:
            raise ValueError(f"adversary estimate {value!r} outside [0, {k}]")
        if record_trace:
            trace.append({"t": t, "adversary": adversary.tolist(),
                          "learner_id": int(np.argmax(learner)),
                          "chosen": chosen, "estimate": value})
        scaled = learner * factor_rows[atom]
        learner = scaled / scaled.sum()
        # The estimate is one-hot: every other coordinate's factor is
        # exp(-0.0) = 1, so only the chosen weight is scaled.
        scaled = adversary.copy()
        scaled[chosen] *= np.exp(-eta_adversary * value)
        adversary = _project_capped(scaled, cap)
        learner_min, learner_total = _check_simplex(learner, None)
        _, adversary_total = _check_simplex(adversary, cap)
    mean_weights /= sched["T"]
    config = {"epsilon": epsilon, "delta": delta, "constants": cons,
              "estimator": estimator, "vc_dim": d, "eta_learner": eta_learner,
              "cover_behaviors": cover.behavior_count, **sched}
    return RunReport(
        algorithm="mid", seed=seed, config=config,
        hypothesis=RandomizedHypothesis(matrix, mean_weights),
        ledger_per_oracle=list(ledger.per_oracle), ledger_total=ledger.total, trace=trace)


# ---------------------------------------------------------------------------
# personalized halving loop


def median_filter(losses: Sequence[float]) -> list[int]:
    """Indices strictly above the median (midpoint rule for even counts).

    At most half the entries can lie strictly above the median, so the
    surviving set always halves.
    """
    v = np.asarray(losses, dtype=np.float64)
    if len(v) == 0:
        raise ValueError("median of empty losses")
    med = float(np.median(v))
    return [i for i in range(len(v)) if v[i] > med]


def personalized_eval_size(epsilon: float, delta: float, k: int,
                           Ceval: float = 4.0) -> int:
    # k * ln(k) degenerates to 0 at k = 1; floor the log argument at 1/delta.
    inside = max(k * math.log(k), 1.0) / delta
    return ceil_budget(Ceval * math.log(inside) / epsilon ** 2, "Ceval")


def run_personalized(instance: MdlInstance, epsilon: float, delta: float, seed: int,
                     constants: dict[str, float] | None = None,
                     estimator: str = "unbiased", vc_dim: int | None = None,
                     record_trace: bool = True) -> RunReport:
    """Halving loop that hands each distribution its own hypothesis.

    Each round runs the mid dynamics on the still-active distributions,
    scores the result on fresh evaluation batches, and retires every
    distribution at or below the median loss with that round's hypothesis.
    The failure budget delta is split across the ceil(log2 k) rounds.
    """
    cons = resolve_constants(constants)
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must be in (0, 1)")
    k = instance.k
    d = _resolve_vc(instance, vc_dim)
    rounds = max(1, math.ceil(math.log2(k)))
    delta_inner = delta / rounds
    m_eval = personalized_eval_size(epsilon, delta, k, cons["Ceval"])
    # each inner mid run checks its own queries; this bounds the evaluations
    _check_queries(rounds * k * m_eval)

    ledger = SampleLedger(k)
    active = list(range(k))
    assignments: dict[int, RandomizedHypothesis] = {}
    trace: list[dict] = []
    inner_meta: list[dict] = []
    last_hypothesis: RandomizedHypothesis | None = None
    for t in range(rounds):
        if not active:
            break
        sub = instance.restrict(active)
        inner = run_mid(sub, epsilon, delta_inner, derive_seed(seed, t, 0),
                        constants=cons, estimator=estimator, vc_dim=d,
                        record_trace=False)
        for g, count in zip(active, inner.ledger_per_oracle):
            ledger.record(g, count)
        h_t = inner.hypothesis
        last_hypothesis = h_t
        eval_rng = make_rng(derive_seed(seed, t, 1))
        losses = []
        for global_i in active:
            bp, bl = oracle_sample_many(instance, global_i, m_eval, eval_rng, ledger)
            losses.append(empirical_loss(h_t, SampleBatch(bp, bl)))
        survivors = median_filter(losses)
        survivor_set = set(survivors)
        removed = [g for j, g in enumerate(active) if j not in survivor_set]
        for g in removed:
            assignments[g] = h_t
        if record_trace:
            trace.append({"round": t, "active": list(active),
                          "losses": [float(x) for x in losses],
                          "removed": removed})
        inner_meta.append({"round": t, "active_size": len(active),
                           "mid_total": inner.ledger_total,
                           "T": inner.config["T"], "N": inner.config["N"]})
        active = [active[j] for j in survivors]
    for g in active:  # at most one distribution can outlast the halving
        assignments[g] = last_hypothesis
    config = {"epsilon": epsilon, "delta": delta, "delta_inner": delta_inner,
              "rounds": rounds, "m_eval": m_eval, "constants": cons,
              "estimator": estimator, "vc_dim": d, "inner": inner_meta}
    return RunReport(
        algorithm="personalized", seed=seed, config=config, hypothesis=None,
        assignments=assignments,
        ledger_per_oracle=list(ledger.per_oracle), ledger_total=ledger.total, trace=trace)
