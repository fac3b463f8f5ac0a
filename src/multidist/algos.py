"""Game-dynamics learners: fast ERM-vs-Hedge, finite Hedge-vs-Exp3,
cover-then-finite, the capped-adversary mid dynamics, and the personalized
halving loop over mid.

Each run owns a seeded generator and a fresh :class:`SampleLedger`; the only
access to the distributions is through the ledgered oracles, so the realized
query totals in every report can be checked against the predicted budgets.

The finite and mid dynamics are one game, played by one loop,
``_hedge_loop``: a Hedge learner over the rows of a class matrix against an
adversary over the k distributions.  The loop is the learner side, written
once, and it draws each round's distribution from the adversary's weights
itself.  The adversary is one of two small objects, ``_Exp3`` (finite:
bandit feedback on the query the learner pays on) and ``_CappedHedge``
(mid: a capped Hedge fed a one-sample estimate at its own uniform oracle),
each no more than its block ``queries``, its ``feedback`` and its ``step``;
the loop never asks which it runs.  Both sides run on plain weight arrays
through the private steps that the public wrappers (``mixture_sample``,
``oracle_sample``, ``hedge_step_cost``, ``project_capped``, ``exp3_step``,
``mid_adversary_estimate``) validate and call, and check what those
wrappers would check: the adversary checks its feedback every round (the
mid estimate lies in [0, k], the finite cost in [0, 1]); the loop writes
each round's learner and adversary into stacks of rows and checks them
(nonnegative, summing to 1, within the adversary's cap) every
``_CHECK_ROWS`` rounds with ``online._check_simplex_rows``, and before any
error a later round raises, so the first failing round raises the error it
raised alone.  Learning rates are constant, so they are checked once,
before the loop.

Per run, the loop finds a round's atom by bisecting the instance's packed
CDF list within that distribution's atoms, computes the cost and Hedge
factor rows of each drawn (point, label) once, in the slot of its first
atom in the table, and scales and normalizes the learner in place, in its
row of the check stack (row views made once); the learner's mean rides
that stack too, summed once per stack in row order.  It takes its
randomness in blocks of ``_PAIR_BLOCK`` rounds, one double of the stream
per draw (``rng.random((count, width))``, so a block boundary does not move
the stream): each round's mixture oracle and atom, then the adversary's
own query, if any; and it ledgers each block's counts at once.  The mid
adversary scores the learner at its point with one ``ndarray.dot``
(matmul's BLAS bits without its gufunc overhead) of the learner and the
labels there.  All of these give the bits the public steps give, but two.
That estimate's last bits can differ from those of ``mid_adversary_estimate``
on a ``RandomizedHypothesis``, which renormalizes the weights and adds them
up in sequence, so the capped adversary's weights can differ in their last
bits too.  And the mixture is drawn from the capped adversary's weights as
they are, not divided by their total first.  The learner sees the adversary
only through its draws, and either difference can move a draw only at a
uniform within an ulp or so of a CDF edge.  The fast loop keeps its public
steps; each player of a fast round draws in one call.  The object-level
loops these replaced are kept in ``tests/reference_mid.py`` and
``tests/reference_finite.py``, and the tests require identical reports.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from multidist.cover import (
    SampleBatch,
    _check_epsilon_delta,
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
    _draws,
    _label_loss,
    _mixture_index,
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
    _check_simplex_rows,
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

# Rounds whose randomness the finite and mid loops draw at once: memory stays
# O(1) in T (a k = 64, eps = 0.01 run has T near 15 million).  Both loops
# check their weights in stacks of at most _CHECK_ROWS rounds, and of at most
# _CHECK_ENTRIES learner weights (256 KB): 32 rounds at |H| = 1024.
_PAIR_BLOCK = 4096
_CHECK_ROWS, _CHECK_ENTRIES = 128, 32_768

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
    _check_epsilon_delta(epsilon, delta)
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
        payoffs = empirical_loss(h, SampleBatch(*oracle_sample_many(
            instance, range(k), params.r2, rng, ledger)))
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
# the Hedge loop of the finite and mid dynamics


def _hedge_loop(instance: MdlInstance, matrix: np.ndarray, T: int, eta: float,
                adversary: _Exp3 | _CappedHedge, rng: np.random.Generator,
                ledger: SampleLedger, record_trace: bool, trace: list[dict]) -> np.ndarray:
    """T rounds of Hedge at rate eta over the rows of the 0/1 `matrix`
    against `adversary`; returns the learner's mean weights.  A round pays
    the costs of the atom drawn from the adversary's mixture; the adversary,
    handed the learner before its step, names the coordinate it updates
    and its feedback there."""
    _check_eta(eta)
    k = instance.k
    table = instance.atom_table()
    cdf, bounds, points, labels = table.cdf, table.bounds, table.points, table.labels
    _, first, pair = np.unique(2 * points + labels, return_index=True, return_inverse=True)
    slots, rows = first[pair].tolist(), [None] * len(pair)
    check_rows = max(1, min(_CHECK_ROWS, _CHECK_ENTRIES // len(matrix)))
    # The learner's check stack also carries its mean: row 0 holds the sum
    # of the learners of the rounds before the stack, row 1 the learner its
    # first round starts from, and the rows after it each round's stepped
    # learner.  One axis-0 sum per stack adds each column in row order, so
    # the mean has the bits of a per-round `+=`.
    stack = np.zeros((check_rows + 2, len(matrix)))
    learner = stack[1]
    learner[:] = SimplexWeights.uniform(len(matrix)).w
    learner_stack, adversary_rows = stack[2:], np.empty((check_rows, k))
    learner_rows = list(learner_stack)  # each round's row, as a view made once
    feedback, step = adversary.feedback, adversary.step
    key, cap = adversary.trace_key, adversary.cap
    pending = 0
    try:
        for start in range(0, T, _PAIR_BLOCK):
            u = rng.random((min(_PAIR_BLOCK, T - start), adversary.width))
            queries = adversary.queries(instance, u, ledger)
            counts = [0] * k
            for t, u1, u2, query in zip(range(start, T), u[:, 0].tolist(),
                                        u[:, 1].tolist(), queries):
                i = _mixture_index(adversary.w, u1)
                counts[i] += 1
                slot = slots[bisect_right(cdf, u2, *bounds[i])]
                if (entry := rows[slot]) is None:
                    costs = (matrix[:, points[slot]] != labels[slot]).astype(np.float64)
                    entry = rows[slot] = costs, np.exp(-eta * costs)
                costs, factors = entry
                chosen, value = feedback(learner, costs, i, query)
                if record_trace:
                    trace.append({"t": t, "adversary": adversary.w.tolist(),
                                  "learner_id": int(np.argmax(learner)),
                                  "chosen": chosen, key: value})
                scaled = np.multiply(learner, factors, out=learner_rows[pending])
                learner = np.divide(scaled, np.add.reduce(scaled), out=scaled)
                step(chosen, value)
                adversary_rows[pending] = adversary.w
                pending += 1
                if pending == check_rows:
                    pending = 0
                    _check_simplex_rows(learner_stack, adversary_rows, cap=cap)
                    stack[0] = np.add.reduce(stack[:-1], axis=0)
                    stack[1] = learner
                    learner = stack[1]
            ledger.record_counts(counts)
    finally:  # the last rounds, or those before the round that raised
        _check_simplex_rows(learner_stack[:pending], adversary_rows[:pending], cap=cap)
    return np.add.reduce(stack[:pending + 1], axis=0) / T


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


class _Exp3:
    """The finite adversary: Exp3 over the k distributions, on the one
    query a round that the learner also pays on.  It plays the mixture's
    draw and banks the learner mixture's loss there as payoff; its weights
    are updated in place."""

    width, cap, trace_key = 2, None, "observed_loss"

    def __init__(self, k: int, eta: float, exploration: float):
        _check_exp3_rates(eta, exploration)
        self.w = SimplexWeights.uniform(k).w
        self.eta, self.exploration = eta, exploration

    def queries(self, instance: MdlInstance, u: np.ndarray, ledger: SampleLedger):
        return repeat(None, len(u))

    def feedback(self, learner: np.ndarray, costs: np.ndarray, i: int,
                 query: None) -> tuple[int, float]:
        # Rounding can put the mixture's loss an ulp above 1, which would
        # hand Exp3 a negative cost.
        loss = min(1.0, float(learner.dot(costs)))
        if not 0.0 <= 1.0 - loss <= 1.0:
            raise ValueError("observed cost must be in [0, 1]")
        return i, loss

    def step(self, chosen: int, loss: float) -> None:
        _exp3_step(self.w, chosen, 1.0 - loss, self.eta, self.exploration)


def _finite_loop(instance: MdlInstance, hclass: HypothesisClass, epsilon: float,
                 delta: float, rng: np.random.Generator, ledger: SampleLedger,
                 C: float, record_trace: bool,
                 trace: list[dict]) -> tuple[RandomizedHypothesis, dict]:
    class_size = len(hclass)
    T, eta_learner, eta_exp3, exploration = _finite_schedule(
        class_size, instance.k, epsilon, delta, C)
    _check_queries(ledger.total + T)
    adversary = _Exp3(instance.k, eta_exp3, exploration)
    mean_weights = _hedge_loop(instance, hclass.matrix, T, eta_learner, adversary,
                               rng, ledger, record_trace, trace)
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
    _check_epsilon_delta(epsilon, delta)
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
    _check_epsilon_delta(epsilon, delta)
    k = instance.k
    d = _resolve_vc(instance, vc_dim)
    per_oracle = max(1, ceil_budget(cons["C"] * d / epsilon, "C"))
    # the finite loop's rounds depend on the cover, so it checks the total
    _check_queries(k * per_oracle)
    rng = make_rng(seed)
    ledger = SampleLedger(k)
    points, _ = oracle_sample_many(instance, range(k), per_oracle, rng, ledger)
    cover = projection_cover(instance.hypothesis_class, points.ravel())
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
    values = np.zeros(k)
    values[chosen] = _estimate_value(h.expected_loss(z), k, float(w[chosen]), estimator)
    return CostVector(values, bound=float(k))


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


class _CappedHedge:
    """The mid adversary: Hedge on the 2-smooth simplex (each weight at most
    `cap`), fed a one-sample estimate at its own uniform oracle.

    That query does not depend on the game, so a block's queries are drawn
    in one ``_draws`` call: the oracle is floor(u * k) of the third uniform
    (always below k, since ``random()`` never exceeds 1 - 2^-53, and within
    k * 2^-53 of uniform), the atom is at the fourth.  The estimate reads
    the learner's labels at the drawn point as a row of the transposed class
    matrix; ``__init__`` makes those rows a list of views and the estimator's
    test a bool, so a round makes no view of its own.  The learner's
    probability of label 1 there is one ``ndarray.dot`` of the learner, as
    the loop holds it, with that row (a zero weight adds nothing; for its
    last bits see the module docstring).  The estimate is one-hot, so the
    Hedge step scales the chosen weight alone before the capped projection.
    """

    width, trace_key = 4, "estimate"

    def __init__(self, k: int, matrix: np.ndarray, eta: float, cap: float,
                 estimator: str):
        _check_eta(eta)
        self.w = SimplexWeights.uniform(k, cap=cap).w
        self.k, self.eta, self.cap, self.estimator = k, eta, cap, estimator
        self.literal = estimator == "literal"
        self.labels_at = list(np.ascontiguousarray(matrix.T, dtype=np.float64))

    def queries(self, instance: MdlInstance, u: np.ndarray, ledger: SampleLedger):
        chosen = (u[:, 2] * self.k).astype(np.int64)
        points, labels = _draws(instance, chosen, u[:, 3], ledger)
        return zip(chosen.tolist(), points.tolist(), labels.tolist())

    def feedback(self, learner: np.ndarray, costs: np.ndarray, i: int,
                 query: tuple[int, int, int]) -> tuple[int, float]:
        chosen, x, y = query
        p1 = float(learner.dot(self.labels_at[x]))
        weight = float(self.w[chosen]) if self.literal else 1.0
        value = _estimate_value(_label_loss(p1, y), self.k, weight, self.estimator)
        if not -SUM_TOL <= value <= self.k + SUM_TOL:
            raise ValueError(f"adversary estimate {value!r} outside [0, {self.k}]")
        return chosen, value

    def step(self, chosen: int, value: float) -> None:
        # every other coordinate's factor would be exp(-0.0) = 1; the check
        # stack holds a copy of the weights, so they are scaled in place
        self.w[chosen] *= np.exp(-self.eta * value)
        self.w = _project_capped(self.w, self.cap)


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
    _check_epsilon_delta(epsilon, delta)
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

    adversary = _CappedHedge(k, matrix, sched["eta_adversary"], sched["cap"], estimator)
    trace: list[dict] = []
    mean_weights = _hedge_loop(instance, matrix, sched["T"], eta_learner, adversary,
                               rng, ledger, record_trace, trace)
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
    _check_epsilon_delta(epsilon, delta)
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
        losses = empirical_loss(h_t, SampleBatch(*oracle_sample_many(
            instance, active, m_eval, eval_rng, ledger)))
        survivors = median_filter(losses)
        survivor_set = set(survivors)
        removed = [g for j, g in enumerate(active) if j not in survivor_set]
        for g in removed:
            assignments[g] = h_t
        if record_trace:
            trace.append({"round": t, "active": list(active),
                          "losses": losses.tolist(),
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
