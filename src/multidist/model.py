"""Finite-support learning instances, 0-1 loss, and ledgered example oracles.

Everything downstream assumes a finite domain ``{0, ..., n-1}`` with binary
labels, distributions given as explicit probability mass over (point, label)
atoms, and hypothesis classes expanded to explicit label vectors.  Sampling
always goes through an oracle function that charges a :class:`SampleLedger`,
so realized query budgets can be compared against predicted ones exactly.

The private draws (``_draw``, ``_mixture_index``, ``_mixture_draw``) are
what the dynamics loops call every round; the public oracles validate their
arguments and then call them.  ``_mixture_index`` repeats the arithmetic of
``rng.choice(k, p=p)``, so a loop that uses it draws the same oracles from
the same generator state.  The VC search tests shattering by counting the
distinct label codes with ``np.bincount``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

# Stored probability vectors must sum to 1 within SUM_TOL; constructors
# silently renormalize anything within RENORM_TOL and reject beyond it.
SUM_TOL = 1e-12
RENORM_TOL = 1e-9

VC_MAX_DOMAIN = 20
VC_MAX_CLASS = 4096

CLASS_FAMILIES = ("explicit", "thresholds", "intervals", "singletons")


class DomainMismatchError(ValueError):
    """A point or label fell outside the instance's domain."""


class GuardError(RuntimeError):
    """An exact computation was requested beyond its size guard."""


def make_rng(seed: int | Sequence[int]) -> np.random.Generator:
    """Seeded generator; identical seed gives an identical stream."""
    return np.random.default_rng(seed)


def derive_seed(*parts: int) -> int:
    """Deterministically derive a child seed from integer parts."""
    ss = np.random.SeedSequence(list(parts))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _normalized(probs: np.ndarray, what: str) -> np.ndarray:
    if np.any(probs < 0):
        raise ValueError(f"{what}: negative probability")
    total = float(probs.sum())
    if abs(total - 1.0) > RENORM_TOL:
        raise ValueError(f"{what}: probabilities sum to {total!r}, not 1")
    return probs / total


@dataclass(frozen=True)
class LabeledExample:
    point: int
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


class FiniteDistribution:
    """Probability mass over distinct (point, label) atoms."""

    __slots__ = ("points", "labels", "probs", "_cdf")

    def __init__(self, mass: Iterable[tuple[int, int, float]]):
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
        self.points = pts
        self.labels = lbs
        self.probs = _normalized(pbs, "FiniteDistribution")
        self._cdf = np.cumsum(self.probs)

    @property
    def support_size(self) -> int:
        return len(self.points)

    def atoms(self) -> list[tuple[int, int, float]]:
        return [
            (int(x), int(y), float(p))
            for x, y, p in zip(self.points, self.labels, self.probs)
        ]

    def max_point(self) -> int:
        return int(self.points.max())

    def draw_indices(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF indices of `count` i.i.d. atoms (no ledger here)."""
        u = rng.random(count)
        return np.minimum(np.searchsorted(self._cdf, u, side="right"),
                          len(self.probs) - 1)


@dataclass(frozen=True, eq=False)
class Hypothesis:
    """One binary labeling of the domain, identified within its class."""

    labels: np.ndarray
    id: int

    def predict(self, point: int) -> int:
        if not 0 <= point < len(self.labels):
            raise DomainMismatchError(f"point {point} outside domain")
        return int(self.labels[point])


class HypothesisClass:
    """Explicit, deduplicated list of hypotheses over a fixed domain.

    Structured families expand eagerly so that ERM scans, coverings, and the
    brute-force optimum all enumerate the same explicit list.
    """

    __slots__ = ("hypotheses", "family_tag", "matrix")

    def __init__(self, label_vectors: Iterable[Sequence[int]], family_tag: str = "explicit"):
        if family_tag not in CLASS_FAMILIES:
            raise ValueError(f"unknown family {family_tag!r}")
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
        self.matrix = np.array(rows, dtype=np.uint8)
        self.hypotheses = [Hypothesis(self.matrix[i], i) for i in range(len(rows))]
        self.family_tag = family_tag

    def __len__(self) -> int:
        return len(self.hypotheses)

    def __iter__(self):
        return iter(self.hypotheses)

    @property
    def domain_size(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def thresholds(cls, n: int) -> "HypothesisClass":
        """All step labelings 1[x >= t], t = 0..n."""
        vecs = [[1 if x >= t else 0 for x in range(n)] for t in range(n + 1)]
        return cls(vecs, "thresholds")

    @classmethod
    def intervals(cls, n: int) -> "HypothesisClass":
        """All labelings 1[a <= x < b] including the empty interval."""
        vecs = [
            [1 if a <= x < b else 0 for x in range(n)]
            for a in range(n + 1)
            for b in range(a, n + 1)
        ]
        return cls(vecs, "intervals")

    @classmethod
    def singletons(cls, n: int) -> "HypothesisClass":
        """One indicator hypothesis per domain point."""
        vecs = [[1 if x == i else 0 for x in range(n)] for i in range(n)]
        return cls(vecs, "singletons")

    @classmethod
    def from_family(cls, family: str, n: int,
                    vectors: Iterable[Sequence[int]] | None = None) -> "HypothesisClass":
        if family == "explicit":
            if vectors is None:
                raise ValueError("explicit family needs label vectors")
            return cls(vectors, "explicit")
        if family == "thresholds":
            return cls.thresholds(n)
        if family == "intervals":
            return cls.intervals(n)
        if family == "singletons":
            return cls.singletons(n)
        raise ValueError(f"unknown family {family!r}")


def _label_loss(p1: float, label: int) -> float:
    """Expected 0-1 loss on a point of `label` when label 1 has probability p1."""
    return 1.0 - p1 if label == 1 else p1


def _prediction_at(weights: np.ndarray, column: np.ndarray) -> float:
    """Probability of label 1 at one point under the mixture with these
    weights over hypotheses whose labels there are `column`.

    Bit-identical to ``RandomizedHypothesis.from_weights(hyps, weights)
    .prediction_mean()[point]``: the positive weights are normalized by their
    own sum, then added up in hypothesis order (a sequential sum, unlike the
    pairwise one a dot product would take).
    """
    pos = weights > 0
    w = weights[pos]
    return float(np.add.accumulate((w / w.sum()) * column[pos])[-1])


class RandomizedHypothesis:
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
    def single(cls, h: Hypothesis) -> "RandomizedHypothesis":
        return cls([(h, 1.0)])

    @classmethod
    def from_weights(cls, hypotheses: Sequence[Hypothesis],
                     weights: Sequence[float]) -> "RandomizedHypothesis":
        """Mixture from a weight vector; zero-weight atoms are dropped."""
        if len(hypotheses) != len(weights):
            raise ValueError("weights length must match hypotheses")
        pairs = [(h, float(w)) for h, w in zip(hypotheses, weights) if w > 0.0]
        return cls(pairs)

    def prediction_mean(self) -> np.ndarray:
        """Per-point probability of predicting label 1."""
        if self._pred_mean is None:
            n = len(self.atoms[0][0].labels)
            pm = np.zeros(n, dtype=np.float64)
            for h, w in self.atoms:
                pm += w * h.labels
            self._pred_mean = pm
        return self._pred_mean

    def expected_loss(self, z: LabeledExample) -> float:
        pm = self.prediction_mean()
        if not 0 <= z.point < len(pm):
            raise DomainMismatchError(f"point {z.point} outside domain")
        return _label_loss(float(pm[z.point]), z.label)

    def total_weight(self) -> float:
        return float(sum(w for _, w in self.atoms))


class SampleLedger:
    """Exact per-oracle query counters; counters only ever increase."""

    __slots__ = ("per_oracle", "total")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("need at least one oracle")
        self.per_oracle = [0] * k
        self.total = 0

    def record(self, oracle: int, count: int = 1) -> None:
        if count < 0:
            raise ValueError("ledger counts never decrease")
        if not 0 <= oracle < len(self.per_oracle):
            raise IndexError(f"oracle {oracle} out of range")
        self.per_oracle[oracle] += count
        self.total += count


class MdlInstance:
    """k finite-support distributions plus an explicit hypothesis class."""

    __slots__ = ("domain_size", "distributions", "hypothesis_class")

    def __init__(self, domain_size: int, distributions: Sequence[FiniteDistribution],
                 hypothesis_class: HypothesisClass):
        if domain_size < 1:
            raise ValueError("domain_size must be >= 1")
        if len(distributions) < 1:
            raise ValueError("k must be ≥ 1")
        if hypothesis_class.domain_size != domain_size:
            raise DomainMismatchError("class domain size differs from instance")
        for d in distributions:
            if d.max_point() >= domain_size:
                raise DomainMismatchError("distribution support outside domain")
        self.domain_size = domain_size
        self.distributions = list(distributions)
        self.hypothesis_class = hypothesis_class

    @property
    def k(self) -> int:
        return len(self.distributions)

    def restrict(self, indices: Sequence[int]) -> "MdlInstance":
        """Sub-instance over a subset of the distributions (class shared)."""
        return MdlInstance(self.domain_size,
                           [self.distributions[i] for i in indices],
                           self.hypothesis_class)

    def to_dict(self) -> dict:
        cls_obj: dict = {"family": self.hypothesis_class.family_tag}
        if self.hypothesis_class.family_tag == "explicit":
            cls_obj["hypotheses"] = self.hypothesis_class.matrix.astype(int).tolist()
        return {
            "domain_size": self.domain_size,
            "distributions": [
                [[x, y, p] for x, y, p in d.atoms()] for d in self.distributions
            ],
            "class": cls_obj,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MdlInstance":
        n = int(obj["domain_size"])
        dists = [FiniteDistribution([(int(x), int(y), float(p)) for x, y, p in d])
                 for d in obj["distributions"]]
        cobj = obj["class"]
        hclass = HypothesisClass.from_family(
            cobj["family"], n, cobj.get("hypotheses"))
        return cls(n, dists, hclass)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path: str) -> "MdlInstance":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def zero_one_loss(h: Hypothesis, z: LabeledExample) -> int:
    """1 iff the hypothesis mislabels the example."""
    return int(h.predict(z.point) != z.label)


def exact_loss(dist: FiniteDistribution,
               h: Hypothesis | RandomizedHypothesis) -> float:
    """Exact expected 0-1 loss under the distribution; no sampling."""
    if isinstance(h, Hypothesis):
        if dist.max_point() >= len(h.labels):
            raise DomainMismatchError("distribution support outside hypothesis domain")
        errs = (h.labels[dist.points] != dist.labels)
        return float(errs @ dist.probs)
    pm = h.prediction_mean()
    if dist.max_point() >= len(pm):
        raise DomainMismatchError("distribution support outside hypothesis domain")
    per_atom = np.where(dist.labels == 1, 1.0 - pm[dist.points], pm[dist.points])
    return float(per_atom @ dist.probs)


def _draw(instance: MdlInstance, i: int, rng: np.random.Generator,
          ledger: SampleLedger) -> tuple[int, int]:
    """One ledgered draw from distribution i, as (point, label); i unchecked."""
    dist = instance.distributions[i]
    idx = int(dist.draw_indices(1, rng)[0])
    ledger.record(i, 1)
    return int(dist.points[idx]), int(dist.labels[idx])


def _mixture_index(p: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with probabilities p (nonnegative, normalized, unchecked).

    This is the arithmetic of ``rng.choice(len(p), p=p)``, so it returns the
    same index and leaves the generator in the same state, without the
    validation ``choice`` repeats on every call.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _mixture_draw(instance: MdlInstance, p: np.ndarray, rng: np.random.Generator,
                  ledger: SampleLedger) -> tuple[int, int]:
    """One ledgered draw from the mixture with normalized weights p."""
    return _draw(instance, _mixture_index(p, rng), rng, ledger)


def oracle_sample(instance: MdlInstance, i: int, rng: np.random.Generator,
                  ledger: SampleLedger) -> LabeledExample:
    """One ledgered draw from distribution i."""
    if not 0 <= i < instance.k:
        raise IndexError(f"oracle {i} out of range")
    return LabeledExample(*_draw(instance, i, rng, ledger))


def oracle_sample_many(instance: MdlInstance, i: int, count: int,
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


def _check_mixture(weights: np.ndarray, k: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (k,):
        raise ValueError(f"mixture weights must have length {k}")
    return _normalized(w, "mixture weights")


def mixture_sample(instance: MdlInstance, weights: Sequence[float],
                   rng: np.random.Generator, ledger: SampleLedger) -> LabeledExample:
    """One draw from the weighted mixture of oracles; one ledger increment."""
    w = _check_mixture(np.asarray(weights), instance.k)
    return LabeledExample(*_mixture_draw(instance, w, rng, ledger))


def mixture_sample_many(instance: MdlInstance, weights: Sequence[float], count: int,
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


def brute_force_vc(hclass: HypothesisClass, n: int) -> int:
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
