"""No-regret primitives: Hedge for costs and payoffs, capped-simplex
projection and linear maximization, an Exp3 step, and exact regret
accounting.

All updates are pure functions from weights to weights.  Weight vectors
carry an optional per-coordinate cap; a capped Hedge step is the plain
multiplicative update followed by the KL projection back onto the capped
simplex, which preserves the exponential-weights regret analysis against
capped comparators.

The unchecked private steps (``_check_simplex``, ``_project_capped``,
``_exp3_step``) are what the dynamics loops in ``algos`` call every round;
the loops do the plain Hedge multiply themselves, on cached factor rows.
The loops check their weights with ``_check_simplex_rows``, which applies
its predicates, cap included, to stacks of rows at once and hands the first
failing row to ``_check_simplex`` for its error.  ``_project_capped`` returns
the normalized vector at once when its maximum is within the cap; otherwise
each clamping pass works on the index array of the coordinates still free
(the masked pass it replaced is kept in ``tests/reference_projection.py``).
The mid adversary runs it every round, so its clamp pass calls what
numpy's convenience wrappers call, for their bits without their frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from multidist.model import SUM_TOL


def _check_simplex(w: np.ndarray, cap: float | None) -> None:
    """Raise unless w is nonnegative, sums to 1 and stays at or below cap;
    the sum test is written so that a NaN sum fails it."""
    if float(np.minimum.reduce(w)) < 0:
        raise ValueError("weights must be nonnegative")
    total = float(np.add.reduce(w))
    if not abs(total - 1.0) <= SUM_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")
    if cap is not None and float(np.maximum.reduce(w)) > cap + SUM_TOL:
        raise ValueError("weight exceeds declared cap")


def _check_simplex_rows(*stacks: np.ndarray, cap: float | None = None) -> None:
    """:func:`_check_simplex` on rows of C-contiguous 2-D stacks, row j of each
    before row j + 1 of any; a `cap` binds the rows of the last stack alone.
    Axis-1 reductions give each row its own bits, and the first failing row
    raises its usual error."""
    caps = [None] * (len(stacks) - 1) + [cap]
    failing = np.logical_or.reduce([_failing_rows(s, c) for s, c in zip(stacks, caps)])
    for j in np.flatnonzero(failing)[:1].tolist():
        for s, c in zip(stacks, caps):
            _check_simplex(s[j], c)


def _failing_rows(stack: np.ndarray, cap: float | None) -> np.ndarray:
    """Which rows of `stack` :func:`_check_simplex` would reject."""
    bad = ((np.minimum.reduce(stack, axis=1) < 0)
           | ~(np.abs(np.add.reduce(stack, axis=1) - 1.0) <= SUM_TOL))
    if cap is not None:
        bad |= np.maximum.reduce(stack, axis=1) > cap + SUM_TOL
    return bad


def _check_cap(cap: float, d: int) -> None:
    """Raise unless the capped simplex {w : w_i <= cap} in dimension d is
    nonempty (within SUM_TOL); written so that a NaN cap fails it."""
    if not (cap > 0 and cap * d >= 1.0 - SUM_TOL):
        raise ValueError(f"infeasible cap {cap} in dimension {d}")


@dataclass(frozen=True, eq=False)
class SimplexWeights:
    """Probability vector, optionally constrained to max weight <= cap."""

    w: np.ndarray
    cap: float | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        object.__setattr__(self, "w", w)
        if w.ndim != 1 or len(w) < 1:
            raise ValueError("weights must be a nonempty vector")
        if self.cap is not None:
            _check_cap(self.cap, len(w))
        _check_simplex(w, self.cap)

    def __len__(self) -> int:
        return len(self.w)

    @classmethod
    def uniform(cls, d: int, cap: float | None = None) -> "SimplexWeights":
        return cls(np.full(d, 1.0 / d), cap)


@dataclass(frozen=True, eq=False)
class CostVector:
    """Cost (or payoff) entries with their declared range [0, bound]."""

    values: np.ndarray
    bound: float = 1.0

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        # written so that a NaN entry fails it
        if v.size and not (v.min() >= -SUM_TOL and v.max() <= self.bound + SUM_TOL):
            raise ValueError(f"cost entries outside [0, {self.bound}]")


def _cost_values(costs: CostVector | Sequence[float], d: int) -> np.ndarray:
    v = costs.values if isinstance(costs, CostVector) else np.asarray(costs, dtype=np.float64)
    if v.shape != (d,):
        raise ValueError(f"cost dimension {v.shape} does not match weights ({d},)")
    return v


def _check_eta(eta: float) -> None:
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ValueError(f"learning rate must be positive and finite, got {eta}")


def _project_capped(v: np.ndarray, cap: float) -> np.ndarray:
    """The projection of :func:`project_capped`, without input checks.

    A normalized v within the cap is its own projection.  Otherwise each
    clamping pass keeps the indices of the coordinates still free:
    every other coordinate is at the cap, and the free ones share the
    residual mass in proportion to v.  The pass calls what ``flatnonzero``,
    ``full``, ``sum`` and ``all`` wrap (``nonzero()[0]``, ``empty`` then
    ``fill``, ``np.add.reduce``, ``np.logical_and.reduce``): their bits,
    without their wrappers' calls.
    """
    w = v / np.add.reduce(v)
    if float(np.maximum.reduce(w)) <= cap:
        return w
    free = (w <= cap).nonzero()[0]
    while True:  # each pass clamps at least one more coordinate
        residual = 1.0 - cap * (len(v) - len(free))
        w = np.empty(len(v))
        w.fill(cap)
        if not (residual > 0 and len(free)):
            w[free] = 0.0
            return w
        source = v[free]
        src_total = float(np.add.reduce(source))
        if src_total > 0:
            # divide before scaling: keeps subnormal inputs from
            # underflowing the redistributed mass to zero
            share = (source / src_total) * residual
        else:
            share = np.full(len(free), residual / len(free))
        w[free] = share
        under = share <= cap
        if np.logical_and.reduce(under):
            return w
        free = free[under]


def project_capped(raw: Sequence[float], cap: float) -> SimplexWeights:
    """KL projection of a nonnegative vector onto {p : sum p = 1, p_i <= cap}.

    Iteratively clamp the coordinates above the cap and spread the leftover
    mass over the rest in proportion to their current weight (uniformly if
    they are all zero).  Each round clamps at least one new coordinate, so
    at most d rounds are needed.
    """
    v = np.asarray(raw, dtype=np.float64)
    d = len(v)
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ValueError("input must be nonnegative and finite")
    if float(v.sum()) <= 0:
        raise ValueError("input must not be all zero")
    _check_cap(cap, d)
    return SimplexWeights(_project_capped(v, cap), cap=cap)


def hedge_step_cost(w: SimplexWeights, costs: CostVector | Sequence[float],
                    eta: float) -> SimplexWeights:
    """Multiplicative-weights step penalizing per-coordinate costs.

    A capped step is the plain update followed by :func:`project_capped`.
    """
    _check_eta(eta)
    c = _cost_values(costs, len(w))
    scaled = w.w * np.exp(-eta * c)
    if w.cap is None:
        return SimplexWeights(scaled / scaled.sum())
    return SimplexWeights(_project_capped(scaled, w.cap), cap=w.cap)


def hedge_step_payoff(w: SimplexWeights, payoffs: CostVector | Sequence[float],
                      eta: float) -> SimplexWeights:
    """Multiplicative-weights step rewarding per-coordinate payoffs."""
    return hedge_step_cost(w, -_cost_values(payoffs, len(w)), eta)


def _check_exp3_rates(eta: float, exploration: float) -> None:
    _check_eta(eta)
    if not 0.0 <= exploration <= 1.0:
        raise ValueError("exploration must be in [0, 1]")


def _exp3_step(state: np.ndarray, played: np.ndarray, chosen: int, observed_cost: float,
               eta: float, exploration: float) -> np.ndarray:
    """Exp3's update in place on plain arrays: the unmixed `state` steps on
    the cost divided by the `played` probability and is renormalized, and
    `played` (returned) becomes it mixed with uniform at the exploration
    rate.  One array as both is :func:`exp3_step`'s one-step form.  Only the
    played arm's probability is checked: the estimate divides by it."""
    prob = float(played[chosen])
    if prob <= 0.0:
        raise ValueError("chosen arm has zero sampling probability")
    state[chosen] *= np.exp(-eta * (observed_cost / prob))
    np.divide(state, np.add.reduce(state), out=state)
    np.multiply(state, 1.0 - exploration, out=played)
    return np.add(played, exploration / len(played), out=played)


def exp3_step(w: SimplexWeights, chosen: int, observed_cost: float, eta: float,
              exploration: float) -> SimplexWeights:
    """Bandit update: importance-weighted cost on the played coordinate only,
    exponential reweighting, then mixing with uniform at the exploration rate.
    """
    if not 0 <= chosen < len(w):
        raise IndexError(f"chosen arm {chosen} out of range")
    if not 0.0 <= observed_cost <= 1.0:
        raise ValueError("observed cost must be in [0, 1]")
    _check_exp3_rates(eta, exploration)
    v = w.w.copy()
    return SimplexWeights(_exp3_step(v, v, chosen, observed_cost, eta, exploration))


def smooth_cap(k: int) -> float:
    """The 2-smooth cap min(1, 2/k) on any one of k coordinates."""
    return min(1.0, 2.0 / k)


def smooth_argmax(losses: Sequence[float], cap: float) -> tuple[float, np.ndarray]:
    """Exact maximum of <w, losses> over the capped simplex {w : w_i <= cap}.

    Greedy is exact for a linear objective: pour mass `cap` onto the largest
    coordinates until the unit budget runs out.  Ties go to the lowest index.
    """
    v = np.asarray(losses, dtype=np.float64)
    k = len(v)
    if k < 1:
        raise ValueError("need at least one coordinate")
    _check_cap(cap, k)
    order = np.argsort(-v, kind="stable")
    weights = np.zeros(k, dtype=np.float64)
    remaining = 1.0
    for idx in order:
        take = min(cap, remaining)
        weights[idx] = take
        remaining -= take
        if remaining <= 0.0:
            break
    return float(weights @ v), weights


def _action_matrix(actions: Sequence[SimplexWeights | Sequence[float]]) -> np.ndarray:
    rows = [a.w if isinstance(a, SimplexWeights) else np.asarray(a, dtype=np.float64)
            for a in actions]
    return np.vstack(rows)


def _cost_matrix(costs: Sequence[CostVector | Sequence[float]], d: int) -> np.ndarray:
    return np.vstack([_cost_values(c, d) for c in costs])


def _best_fixed(totals: np.ndarray, cap: float | None) -> float:
    """The least total cost of a fixed (possibly capped) comparator."""
    if cap is None:
        return float(totals.min())
    value, _ = smooth_argmax(-totals, cap)
    return -value


def regret_of(actions: Sequence[SimplexWeights | Sequence[float]],
              costs: Sequence[CostVector | Sequence[float]],
              cap: float | None = None) -> float:
    """Realized cost minus the best fixed (possibly capped) comparator."""
    if len(actions) != len(costs):
        raise ValueError("actions and costs must have equal length")
    if not actions:
        return 0.0
    acts = _action_matrix(actions)
    cmat = _cost_matrix(costs, acts.shape[1])
    realized = float((acts * cmat).sum())
    return realized - _best_fixed(cmat.sum(axis=0), cap)


def payoff_regret_of(actions: Sequence[SimplexWeights | Sequence[float]],
                     payoffs: Sequence[CostVector | Sequence[float]],
                     cap: float | None = None) -> float:
    """Best fixed comparator's payoff minus the realized payoff: the regret
    of the negated payoffs as costs (negation is exact, so no bit changes)."""
    if len(actions) != len(payoffs):
        raise ValueError("actions and payoffs must have equal length")
    return regret_of(actions, [-_cost_values(p, len(a))
                               for a, p in zip(actions, payoffs)], cap)
