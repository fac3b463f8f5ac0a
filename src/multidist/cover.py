"""Empirical loss, exhaustive ERM, and projection coverings of a class.

Nothing here samples: callers draw through the ledgered oracles in
:mod:`multidist.model` and pass the draws in as a :class:`SampleBatch`.
ERM counts each hypothesis's mistakes from the batch's (point, label)
histogram, so its cost grows with the domain, not with the batch; the
boolean-table version it replaced is kept in ``tests/reference_finite.py``.
The projection cover is the class's row dedupe applied to the columns at
the witness points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from multidist.model import (Hypothesis, HypothesisClass, RandomizedHypothesis,
                             first_distinct_rows)


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """A drawn sample, kept as parallel (points, labels) arrays."""

    points: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class CoverResult:
    """Representatives of the distinct behaviors on the witness points."""

    subclass: HypothesisClass
    witness_points: list[int]
    behavior_count: int
    representative_ids: list[int]  # ids in the original class


def _checked_batch(batch: SampleBatch, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The batch's (points, labels), checked: nonempty, points in 0..n-1, labels 0/1."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    points, labels = np.asarray(batch.points), np.asarray(batch.labels)
    if points.min() < 0 or points.max() >= n:
        raise IndexError("batch point outside the class domain")
    if labels.min() < 0 or labels.max() > 1:
        raise ValueError("batch labels must be in {0, 1}")
    return points, labels


def empirical_loss(h: Hypothesis | RandomizedHypothesis, batch: SampleBatch) -> float:
    """Mean 0-1 loss over the batch (expected loss for mixtures)."""
    pm = h.prediction_mean()
    points, labels = _checked_batch(batch, len(pm))
    per = np.where(labels == 1, 1.0 - pm[points], pm[points])
    return float(per.mean())


def erm(hclass: HypothesisClass, batch: SampleBatch) -> Hypothesis:
    """Exhaustive empirical minimizer, as one new Hypothesis over its
    class row; ties broken by lowest id.

    Mistakes are counted from the batch's (point, label) histogram c: a
    hypothesis errs on the c[x, 1] ones at points it labels 0 and on the
    c[x, 0] zeros at points it labels 1.  The counts are integers and the
    empirical loss is count / m, so the argmin is the same.
    """
    n = hclass.domain_size
    points, labels = _checked_batch(batch, n)
    c = np.bincount(points * 2 + labels, minlength=2 * n).reshape(n, 2)
    mistakes = hclass.matrix @ (c[:, 0] - c[:, 1]) + c[:, 1].sum()
    best = int(np.argmin(mistakes))
    return Hypothesis(hclass.matrix[best], best)


def projection_cover(hclass: HypothesisClass, points: Sequence[int]) -> CoverResult:
    """Group hypotheses by their labels on the points; keep the lowest id of
    each group.  Distinct behaviors are in bijection with the subclass."""
    pts = sorted(set(int(p) for p in points))
    if not pts:
        raise ValueError("cover needs at least one witness point")
    if max(pts) >= hclass.domain_size or min(pts) < 0:
        raise ValueError("witness point outside the class domain")
    reps = first_distinct_rows(hclass.matrix[:, pts])
    subclass = HypothesisClass(hclass.matrix[reps])
    return CoverResult(subclass=subclass, witness_points=pts,
                       behavior_count=len(reps), representative_ids=reps.tolist())


def ceil_budget(value: float, constant: str) -> int:
    """A schedule's count, rounded up; a ValueError naming the constant that
    scales it when the count is not finite or does not fit the 64-bit
    counts that numpy draws take."""
    if not value < 2.0 ** 63:  # NaN fails too
        raise ValueError(f"constant {constant} is too large: "
                         f"the budget it scales is {value!r}")
    return math.ceil(value)


def cover_sample_size(d: int, epsilon: float, delta: float, C: float = 4.0) -> int:
    """Number of witness draws needed for an epsilon-net by projection."""
    if d < 1:
        raise ValueError("d must be ≥ 1")
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must be in (0, 1)")
    return ceil_budget(C * (d * math.log(d / epsilon) + math.log(1.0 / delta)) / epsilon,
                       "C")
