"""No-regret primitives: Hedge for costs and payoffs, capped-simplex
projection and linear maximization, an Exp3 step, and exact regret
accounting.

All updates are pure functions from weights to weights.  Weight vectors
carry an optional per-coordinate cap; a capped Hedge step is the plain
multiplicative update followed by the KL projection back onto the capped
simplex, which preserves the exponential-weights regret analysis against
capped comparators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from multidist.model import SUM_TOL


def _check_simplex(w: np.ndarray, cap: float | None) -> None:
    """Raise unless w is nonnegative, sums to 1 and stays at or below cap.

    The sum test is written so that a NaN sum fails it.
    """
    if w.min() < 0:
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if not abs(total - 1.0) <= SUM_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")
    if cap is not None and float(w.max()) > cap + SUM_TOL:
        raise ValueError("weight exceeds declared cap")


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
        if self.cap is not None and (self.cap <= 0
                                     or self.cap * len(w) < 1.0 - SUM_TOL):
            raise ValueError(f"infeasible cap {self.cap} in dimension {len(w)}")
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

    @classmethod
    def one_hot(cls, d: int, index: int, value: float, bound: float) -> "CostVector":
        """Zero costs except `value` at `index`.  Only that one value can
        leave [0, bound], so it is checked as a scalar (NaN fails) and the
        vector check is skipped."""
        if not -SUM_TOL <= value <= bound + SUM_TOL:
            raise ValueError(f"cost entries outside [0, {bound}]")
        values = np.zeros(d)
        values[index] = value
        out = object.__new__(cls)
        object.__setattr__(out, "values", values)
        object.__setattr__(out, "bound", bound)
        return out


def _cost_values(costs: CostVector | Sequence[float], d: int) -> np.ndarray:
    v = costs.values if isinstance(costs, CostVector) else np.asarray(costs, dtype=np.float64)
    if v.shape != (d,):
        raise ValueError(f"cost dimension {v.shape} does not match weights ({d},)")
    return v


def _check_eta(eta: float) -> None:
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ValueError(f"learning rate must be positive and finite, got {eta}")


def _project_capped(v: np.ndarray, cap: float) -> np.ndarray:
    """The projection of :func:`project_capped`, without input checks."""
    d = len(v)
    w = v / v.sum()
    clamped = np.zeros(d, dtype=bool)
    for _ in range(d):
        over = (w > cap) & ~clamped
        if not over.any():
            break
        clamped |= over
        residual = 1.0 - cap * int(clamped.sum())
        w = np.where(clamped, cap, 0.0)
        free = ~clamped
        if residual > 0 and free.any():
            source = v[free]
            src_total = float(source.sum())
            if src_total > 0:
                # divide before scaling: keeps subnormal inputs from
                # underflowing the redistributed mass to zero
                w[free] = (source / src_total) * residual
            else:
                w[free] = residual / int(free.sum())
    return w


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
    if cap <= 0 or cap * d < 1.0 - SUM_TOL:
        raise ValueError(f"infeasible cap {cap} in dimension {d}")
    return SimplexWeights(_project_capped(v, cap), cap=cap)


def _hedge_step(w: np.ndarray, costs: np.ndarray, eta: float,
                cap: float | None) -> np.ndarray:
    """The update of :func:`hedge_step_cost` on plain arrays, unchecked."""
    scaled = w * np.exp(-eta * costs)
    if cap is None:
        return scaled / scaled.sum()
    return _project_capped(scaled, cap)


def hedge_step_cost(w: SimplexWeights, costs: CostVector | Sequence[float],
                    eta: float) -> SimplexWeights:
    """Multiplicative-weights step penalizing per-coordinate costs.

    A capped step is the plain update followed by :func:`project_capped`.
    """
    _check_eta(eta)
    c = _cost_values(costs, len(w))
    return SimplexWeights(_hedge_step(w.w, c, eta, w.cap), cap=w.cap)


def hedge_step_payoff(w: SimplexWeights, payoffs: CostVector | Sequence[float],
                      eta: float) -> SimplexWeights:
    """Multiplicative-weights step rewarding per-coordinate payoffs."""
    return hedge_step_cost(w, -_cost_values(payoffs, len(w)), eta)


def _check_exp3_rates(eta: float, exploration: float) -> None:
    if eta <= 0:
        raise ValueError("eta must be positive")
    if not 0.0 <= exploration <= 1.0:
        raise ValueError("exploration must be in [0, 1]")


def _exp3_step(w: np.ndarray, chosen: int, observed_cost: float, eta: float,
               exploration: float) -> np.ndarray:
    """The update of :func:`exp3_step` on plain arrays; only the played
    arm's probability is checked, because the estimate divides by it."""
    prob = float(w[chosen])
    if prob <= 0.0:
        raise ValueError("chosen arm has zero sampling probability")
    estimate = observed_cost / prob
    scaled = w.copy()
    scaled[chosen] *= float(np.exp(-eta * estimate))
    p = scaled / scaled.sum()
    return (1.0 - exploration) * p + exploration / len(w)


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
    return SimplexWeights(_exp3_step(w.w, chosen, observed_cost, eta, exploration))


def smooth_argmax(losses: Sequence[float], cap: float) -> tuple[float, np.ndarray]:
    """Exact maximum of <w, losses> over the capped simplex {w : w_i <= cap}.

    Greedy is exact for a linear objective: pour mass `cap` onto the largest
    coordinates until the unit budget runs out.  Ties go to the lowest index.
    """
    v = np.asarray(losses, dtype=np.float64)
    k = len(v)
    if k < 1:
        raise ValueError("need at least one coordinate")
    if cap <= 0 or cap * k < 1.0 - 1e-12:
        raise ValueError(f"infeasible cap {cap} for dimension {k}")
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


def _best_fixed(totals: np.ndarray, cap: float | None, maximize: bool) -> float:
    if cap is None:
        return float(totals.max() if maximize else totals.min())
    if maximize:
        return smooth_argmax(totals, cap)[0]
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
    return realized - _best_fixed(cmat.sum(axis=0), cap, maximize=False)


def payoff_regret_of(actions: Sequence[SimplexWeights | Sequence[float]],
                     payoffs: Sequence[CostVector | Sequence[float]],
                     cap: float | None = None) -> float:
    """Best fixed comparator's payoff minus the realized payoff."""
    if len(actions) != len(payoffs):
        raise ValueError("actions and payoffs must have equal length")
    if not actions:
        return 0.0
    acts = _action_matrix(actions)
    pmat = _cost_matrix(payoffs, acts.shape[1])
    realized = float((acts * pmat).sum())
    return _best_fixed(pmat.sum(axis=0), cap, maximize=True) - realized


@dataclass
class RegretLedger:
    """Running totals from which regret is recomputable at any point."""

    d: int
    cap: float | None = None
    totals: np.ndarray = field(init=False)
    realized: float = field(init=False, default=0.0)
    rounds: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.totals = np.zeros(self.d, dtype=np.float64)

    def record(self, action: SimplexWeights | Sequence[float],
               values: CostVector | Sequence[float]) -> None:
        a = action.w if isinstance(action, SimplexWeights) else np.asarray(action, dtype=np.float64)
        v = _cost_values(values, self.d)
        if a.shape != (self.d,):
            raise ValueError("action dimension mismatch")
        self.realized += float(a @ v)
        self.totals += v
        self.rounds += 1

    def cost_regret(self) -> float:
        return self.realized - _best_fixed(self.totals, self.cap, maximize=False)

    def payoff_regret(self) -> float:
        return _best_fixed(self.totals, self.cap, maximize=True) - self.realized
