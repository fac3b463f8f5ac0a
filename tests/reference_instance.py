"""Tuple-level references for class construction, kept for differential
tests.

These are the row loops that built hypothesis classes before every class
became one label matrix deduplicated by ``model.first_distinct_rows``: the
constructor's tuple set, the structured families as nested comprehensions,
the one-vector-per-call random class, the tuple scan in ``_with_member``,
and the bytes-keyed grouping of ``projection_cover``.  The array versions
in ``multidist`` must give the same matrices, ids and generator states.

``reference_loss_matrix`` is ``evaluate.loss_matrix`` as it was before it
gathered support columns with ``take``: a fancy-indexed boolean table
times the masses, one row per distribution.  The loss matrices must be
equal bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from multidist.evaluate import InstanceSpec
from multidist.model import HypothesisClass, MdlInstance


def reference_class_matrix(label_vectors: Iterable[Sequence[int]]) -> np.ndarray:
    """The constructor's loop: truncate each label to int, reject non-binary
    values, keep first occurrences."""
    rows: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for vec in label_vectors:
        key = tuple(int(v) for v in vec)
        if any(v not in (0, 1) for v in key):
            raise ValueError("hypothesis labels must be in {0, 1}")
        if key in seen:
            continue
        seen.add(key)
        rows.append(key)
    if not rows:
        raise ValueError("hypothesis class must be nonempty")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("hypotheses must share one domain size")
    return np.array(rows, dtype=np.uint8)


def reference_family_vectors(family: str, n: int) -> list[list[int]]:
    if family == "thresholds":
        return [[1 if x >= t else 0 for x in range(n)] for t in range(n + 1)]
    if family == "intervals":
        return [
            [1 if a <= x < b else 0 for x in range(n)]
            for a in range(n + 1)
            for b in range(a, n + 1)
        ]
    if family == "singletons":
        return [[1 if x == i else 0 for x in range(n)] for i in range(n)]
    raise ValueError(f"unknown family {family!r}")


def _reference_class(vectors, family: str = "explicit") -> HypothesisClass:
    # the matrix is already deduplicated, so the constructor keeps it as is
    out = HypothesisClass(reference_class_matrix(vectors))
    out.family_tag = family
    return out


def reference_random_class(spec: InstanceSpec, rng: np.random.Generator) -> HypothesisClass:
    if spec.class_family != "explicit":
        return _reference_class(
            reference_family_vectors(spec.class_family, spec.n), spec.class_family)
    want = min(spec.class_size, 2 ** spec.n)
    vectors: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    while len(vectors) < want and attempts < 200 * want:
        vec = tuple(int(b) for b in rng.integers(0, 2, size=spec.n))
        attempts += 1
        if vec not in seen:
            seen.add(vec)
            vectors.append(vec)
    return _reference_class(vectors)


def reference_with_member(hclass: HypothesisClass,
                          member: np.ndarray) -> tuple[HypothesisClass, int]:
    key = tuple(int(v) for v in member)
    for h in hclass.hypotheses:
        if tuple(int(v) for v in h.labels) == key:
            return hclass, h.id
    vectors = [key] + [tuple(int(v) for v in h.labels) for h in hclass.hypotheses]
    rebuilt = _reference_class(vectors, "explicit")
    return rebuilt, 0


def reference_cover_ids(hclass: HypothesisClass, pts: Sequence[int]) -> list[int]:
    """Lowest id of each behavior on the (sorted, distinct) points."""
    projected = hclass.matrix[:, pts]
    seen: dict[bytes, int] = {}
    reps: list[int] = []
    for i in range(len(hclass)):
        key = projected[i].tobytes()
        if key not in seen:
            seen[key] = i
            reps.append(i)
    return reps


def reference_loss_matrix(instance: MdlInstance) -> np.ndarray:
    hmat = instance.hypothesis_class.matrix
    rows = []
    for dist in instance.distributions:
        errs = hmat[:, dist.points] != dist.labels
        rows.append(errs @ dist.probs)
    return np.array(rows, dtype=np.float64)
