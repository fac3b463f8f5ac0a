"""Object-level mixture, kept for differential tests.

This is ``RandomizedHypothesis`` as it was before mixtures became arrays
over a class matrix: a list of ``(Hypothesis, weight)`` atoms, with the
report serializer and the fast loop's uniform mixture over the rounds' ERM
ids that went with it.  The array mixture in ``multidist.model`` must give
the same predictions, losses and report bytes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from multidist.model import (
    Hypothesis,
    HypothesisClass,
    LabeledExample,
    _label_loss,
    _normalized,
)


class ReferenceMixture:
    """Convex mixture of hypotheses; losses are exact expectations."""

    __slots__ = ("atoms", "_pred_mean")

    def __init__(self, atoms: Iterable[tuple[Hypothesis, float]]):
        pairs = [(h, float(w)) for h, w in atoms]
        if not pairs:
            raise ValueError("mixture needs at least one atom")
        weights = np.array([w for _, w in pairs], dtype=np.float64)
        weights = _normalized(weights, "RandomizedHypothesis")
        self.atoms = [(h, float(w)) for (h, _), w in zip(pairs, weights)]
        self._pred_mean = None

    @classmethod
    def from_weights(cls, hypotheses: Sequence[Hypothesis],
                     weights: Sequence[float]) -> "ReferenceMixture":
        """Mixture from a weight vector; zero-weight atoms are dropped."""
        if len(hypotheses) != len(weights):
            raise ValueError("weights length must match hypotheses")
        pairs = [(h, float(w)) for h, w in zip(hypotheses, weights) if w > 0.0]
        return cls(pairs)

    def prediction_mean(self) -> np.ndarray:
        if self._pred_mean is None:
            weights = np.array([w for _, w in self.atoms])
            labels = np.array([h.labels for h, _ in self.atoms])
            terms = weights[:, None] * labels
            self._pred_mean = np.add.accumulate(terms, axis=0)[-1].copy()
        return self._pred_mean

    def expected_loss(self, z: LabeledExample) -> float:
        return _label_loss(float(self.prediction_mean()[z.point]), z.label)


def reference_mixture_to_dict(h: ReferenceMixture | None) -> dict | None:
    if h is None:
        return None
    return {
        "atoms": [
            {"id": hyp.id, "weight": w, "labels": hyp.labels.astype(int).tolist()}
            for hyp, w in h.atoms
        ]
    }


def reference_uniform_over_ids(hclass: HypothesisClass,
                               ids: Sequence[int]) -> ReferenceMixture:
    weights = np.zeros(len(hclass))
    for i in ids:
        weights[i] += 1.0 / len(ids)
    return ReferenceMixture.from_weights(hclass.hypotheses, weights)
