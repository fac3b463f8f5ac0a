"""The exact integer kernels of ``multidist.model`` as they were before their
fast versions, kept as test oracles.

- ``reference_first_distinct_rows``: ``np.unique`` over whole rows
  (``axis=0``), which sorts the rows as opaque records, label by label.
- ``reference_brute_force_vc``: every m-subset's label codes computed from
  scratch, a gather of the subset's columns and an integer matmul, then the
  same ``bincount`` leaf test.
- ``reference_mixture_sample_many``: mixture draws oracle by oracle, one
  boolean mask and one ``rng.random(m)`` block per chosen oracle.
- ``reference_oracle_sample_many``: one oracle's batch through its own
  ``draw_indices`` lookup and ledger entry, as it drew before it went
  through ``model._draws``.
- ``reference_oracle_rows`` and ``reference_row_losses``: the
  per-distribution loops ``algos.run_fast``, ``run_cover_then_finite`` and
  ``run_personalized`` ran before one ``oracle_sample_many`` call drew a
  row per distribution and one ``empirical_loss`` call scored every row:
  a one-index batch per listed distribution, written into the row it
  owns, and one 1-D ``empirical_loss`` call per row.  Patched into
  ``multidist.algos`` in place of those two calls, they give the old runs.
- ``reference_distribution_arrays``: the checks of the old
  ``FiniteDistribution`` constructor, ``np.isin`` for the labels and a set
  of numpy scalars for the duplicates; it returns the points, labels and
  unnormalized masses the constructor kept.  Its int64 casts truncate a
  non-integral point or label, which the constructor now rejects, so it is
  an oracle only for integer input.

The fast kernels must give the same indices, the same VC dimension, the
same draws (dtypes included), ledger and generator state, and the same
accept/reject outcome and message.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from multidist.cover import SampleBatch, empirical_loss
from multidist.model import (
    VC_MAX_CLASS,
    VC_MAX_DOMAIN,
    GuardError,
    Hypothesis,
    HypothesisClass,
    MdlInstance,
    RandomizedHypothesis,
    SampleLedger,
    _check_mixture,
)


def reference_first_distinct_rows(matrix: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct row, in row order."""
    _, first = np.unique(matrix, axis=0, return_index=True)
    return np.sort(first)


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
            # the subset is shattered iff all 2^m label codes occur
            codes = matrix[:, subset] @ weights
            if np.count_nonzero(np.bincount(codes, minlength=1 << m)) == (1 << m):
                shattered = True
                break
        if not shattered:
            break
        best = m
    return best


def reference_distribution_arrays(
        mass: Iterable[tuple[int, int, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The old constructor's checks, in its order and with its messages."""
    atoms = list(mass)
    if not atoms:
        raise ValueError("distribution needs at least one atom")
    pts = np.array([a[0] for a in atoms], dtype=np.int64)
    lbs = np.array([a[1] for a in atoms], dtype=np.int64)
    pbs = np.array([a[2] for a in atoms], dtype=np.float64)
    if np.any(pts < 0):
        raise ValueError("negative domain point")
    if not np.isin(lbs, (0, 1)).all():
        raise ValueError("labels must be in {0, 1}")
    if len({(int(x), int(y)) for x, y in zip(pts, lbs)}) != len(atoms):
        raise ValueError("duplicate (point, label) atom")
    return pts, lbs, pbs


def reference_mixture_sample_many(instance: MdlInstance, weights: np.ndarray, count: int,
                                  rng: np.random.Generator,
                                  ledger: SampleLedger) -> tuple[np.ndarray, np.ndarray]:
    """`count` mixture draws, vectorized per chosen oracle; `count` increments."""
    w = _check_mixture(np.asarray(weights), instance.k)
    if count < 0:
        raise ValueError("count must be >= 0")
    chosen = rng.choice(instance.k, size=count, p=w)
    points = np.empty(count, dtype=np.int64)
    labels = np.empty(count, dtype=np.int64)
    for i in range(instance.k):
        mask = chosen == i
        m = int(mask.sum())
        if m == 0:
            continue
        dist = instance.distributions[i]
        idx = dist.draw_indices(m, rng)
        points[mask] = dist.points[idx]
        labels[mask] = dist.labels[idx]
        ledger.record(i, m)
    return points, labels


def reference_oracle_sample_many(instance: MdlInstance, i: int, count: int,
                                 rng: np.random.Generator,
                                 ledger: SampleLedger) -> tuple[np.ndarray, np.ndarray]:
    """`count` ledgered draws from distribution i, as (points, labels) arrays."""
    if not 0 <= i < instance.k:
        raise IndexError(f"oracle {i} out of range")
    if count < 0:
        raise ValueError("count must be >= 0")
    dist = instance.distributions[i]
    idx = dist.draw_indices(count, rng)
    ledger.record(i, count)
    return dist.points[idx].copy(), dist.labels[idx].copy()


def reference_oracle_rows(instance: MdlInstance, indices: Sequence[int], count: int,
                          rng: np.random.Generator,
                          ledger: SampleLedger) -> tuple[np.ndarray, np.ndarray]:
    """`count` ledgered draws from each listed distribution, one row each,
    by one one-index batch per distribution in list order."""
    points = np.empty((len(indices), count), dtype=np.int64)
    labels = np.empty((len(indices), count), dtype=np.int64)
    for row, i in enumerate(indices):
        points[row], labels[row] = reference_oracle_sample_many(instance, i, count,
                                                                rng, ledger)
    return points, labels


def reference_row_losses(h: Hypothesis | RandomizedHypothesis,
                         batch: SampleBatch) -> np.ndarray:
    """The empirical loss of each row of a 2-D batch, one 1-D call per row."""
    losses = np.empty(len(batch.points))
    for row, (points, labels) in enumerate(zip(batch.points, batch.labels)):
        losses[row] = empirical_loss(h, SampleBatch(points, labels))
    return losses
