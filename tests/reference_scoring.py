"""The scoring of a deterministic :class:`Hypothesis` as it was before every
hypothesis was scored through its prediction vector, kept as a test oracle.

Each function is the ``Hypothesis`` branch one module kept next to its
mixture formula:

- ``reference_exact_loss``: ``model.exact_loss``, a boolean error vector
  dotted with the atom masses.
- ``reference_empirical_loss``: ``cover.empirical_loss``, the mean of a
  boolean error vector over the batch.
- ``reference_example_loss``: ``model.zero_one_loss`` through
  ``Hypothesis.predict``, as ``algos.mid_adversary_estimate`` called it.

The shared formulas, fed a hypothesis's labels, must give the same bits.
"""

from __future__ import annotations

from multidist.cover import SampleBatch
from multidist.model import (
    DomainMismatchError,
    FiniteDistribution,
    Hypothesis,
    LabeledExample,
)


def reference_exact_loss(dist: FiniteDistribution, h: Hypothesis) -> float:
    if dist.max_point() >= len(h.labels):
        raise DomainMismatchError("distribution support outside hypothesis domain")
    errs = (h.labels[dist.points] != dist.labels)
    return float(errs @ dist.probs)


def reference_empirical_loss(h: Hypothesis, batch: SampleBatch) -> float:
    if len(batch) == 0:
        raise ValueError("empty batch")
    return float((h.labels[batch.points] != batch.labels).mean())


def reference_example_loss(h: Hypothesis, z: LabeledExample) -> float:
    if not 0 <= z.point < len(h.labels):
        raise DomainMismatchError(f"point {z.point} outside domain")
    return float(int(h.labels[z.point]) != z.label)
