"""Finite-support learning instances, 0-1 loss, and ledgered example oracles.

Everything downstream assumes a finite domain ``{0, ..., n-1}`` with binary
labels, distributions given as explicit probability mass over (point, label)
atoms, and hypothesis classes as explicit label matrices.  Sampling always
goes through an oracle function that charges a :class:`SampleLedger`, so
realized query budgets can be compared against predicted ones exactly.
Every class is built from one 0/1 matrix; ``first_distinct_rows`` is the
one row dedupe, for classes and for ``cover.projection_cover`` alike.  It
packs each row into bytes and sorts one opaque key per row.

The private draws (``_draw``, ``_mixture_index``, ``_mixture_draw``) are
what the dynamics loops call every round; the public oracles validate their
arguments and then call them.  The private draws take their uniforms as
arguments, one scalar ``rng.random()`` each (the same double and generator
state as ``rng.random(1)``), so a loop may also draw them in blocks.
``_mixture_index`` repeats the arithmetic of ``rng.choice(k, p=p)``, so a
loop that uses it draws the same oracles from the same generator state.
Every atom, scalar or batched, is looked up by one inverse-CDF method,
``FiniteDistribution.atom_index``.  The VC search is brute force over the
subsets in ``itertools.combinations`` order; it keeps the label codes of
each prefix of the current subset, so a subset costs one add, and tests
shattering by counting the distinct codes with ``np.bincount``.  The
versions these three kernels replaced (and the old distribution checks)
are kept in ``tests/reference_kernels.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    if probs.min() < 0:
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


def _integers(values: np.ndarray, what: str) -> np.ndarray:
    """The values as int64; a ValueError unless each one is an integer
    (an integral float such as 1.0 is one, 0.7 is not)."""
    if values.dtype.kind == "f":
        if not ((np.abs(values) < 2.0 ** 63) & (values == np.trunc(values))).all():
            raise ValueError(f"{what} must be integers")
    elif values.dtype.kind not in "biu":
        raise ValueError(f"{what} must be integers")
    return values.astype(np.int64, copy=False)


class FiniteDistribution:
    """Probability mass over distinct (point, label) atoms.

    Points must be nonnegative integers and labels 0 or 1; an integral float
    (1.0) counts as its integer, any other value is rejected, not rounded.
    """

    __slots__ = ("points", "labels", "probs", "_cdf")

    def __init__(self, mass: Iterable[tuple[int, int, float]]):
        atoms = list(mass)
        if not atoms:
            raise ValueError("distribution needs at least one atom")
        pts = _integers(np.array([a[0] for a in atoms]), "domain points")
        labels = [a[1] for a in atoms]
        pbs = np.array([a[2] for a in atoms], dtype=np.float64)
        if pts.min() < 0:
            raise ValueError("negative domain point")
        # 0.0, 1.0, False and True hash and compare as 0 and 1; 0.7 does not
        if not set(labels) <= {0, 1}:
            raise ValueError("labels must be in {0, 1}")
        if len(set(zip(pts.tolist(), labels))) != len(atoms):
            raise ValueError("duplicate (point, label) atom")
        self.points = pts
        self.labels = np.array(labels, dtype=np.int64)
        self.probs = _normalized(pbs, "FiniteDistribution")
        # The last atom's upper edge is +inf rather than the rounded total, so
        # every uniform lands on an atom: the same atom a clamp to the last
        # index would give, without the clamp.
        self._cdf = np.cumsum(self.probs)
        self._cdf[-1] = np.inf

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

    def atom_index(self, u: float | np.ndarray):
        """Inverse-CDF index of the atom at the uniform u in [0, 1), or the
        indices at an array of uniforms; every draw looks atoms up here."""
        return self._cdf.searchsorted(u, side="right")

    def draw_indices(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF indices of `count` i.i.d. atoms (no ledger here)."""
        return self.atom_index(rng.random(count))


def _label_loss(p1: float, label: int) -> float:
    """Expected 0-1 loss on a point of `label` when label 1 has probability p1."""
    return 1.0 - p1 if label == 1 else p1


class _Scored:
    """Both kinds of hypothesis are scored through ``prediction_mean()``,
    the per-point probability of label 1 (a deterministic one's labels)."""

    __slots__ = ()

    def expected_loss(self, z: LabeledExample) -> float:
        pm = self.prediction_mean()
        if not 0 <= z.point < len(pm):
            raise DomainMismatchError(f"point {z.point} outside domain")
        return _label_loss(float(pm[z.point]), z.label)


@dataclass(frozen=True, eq=False)
class Hypothesis(_Scored):
    """One binary labeling of the domain, identified within its class."""

    labels: np.ndarray
    id: int

    def prediction_mean(self) -> np.ndarray:
        return self.labels


def first_distinct_rows(matrix: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct row of a 0/1 matrix,
    in row order.

    Each row is packed eight labels to a byte and compared as one opaque
    key, so the sort runs over one key per row, not over the row's labels.
    Zero-width rows are all equal: the first one, if any, is kept.
    """
    if matrix.shape[1] == 0:
        return np.arange(min(len(matrix), 1))
    # packbits keeps the input's memory order; a key view needs C order
    packed = np.ascontiguousarray(np.packbits(matrix, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    return np.sort(first)


class HypothesisClass:
    """Explicit, deduplicated label matrix over a fixed domain.

    Every class, structured families included, is built from one label
    matrix whose repeated rows are dropped (first occurrence kept), so ERM
    scans, coverings, and the brute-force optimum all enumerate the same
    explicit rows.  The per-row :class:`Hypothesis` objects are built only
    when ``hypotheses`` is first read; the algorithms never read it.

    A class is tagged ``explicit`` unless a structured-family builder
    (``thresholds``, ``intervals``, ``singletons``) made it, so a tag always
    names the rows the class holds.
    """

    __slots__ = ("matrix", "family_tag", "_hypotheses")

    def __init__(self, label_vectors: Iterable[Sequence[int]]):
        rows = label_vectors if isinstance(label_vectors, np.ndarray) else list(label_vectors)
        if len(rows) == 0:
            raise ValueError("hypothesis class must be nonempty")
        try:
            labels = np.asarray(rows)
        except ValueError:  # ragged rows
            labels = None
        if labels is None or labels.ndim != 2:
            raise ValueError("hypotheses must share one domain size")
        if not ((labels == 0) | (labels == 1)).all():
            raise ValueError("hypothesis labels must be in {0, 1}")
        labels = labels.astype(np.uint8, copy=False)
        self.matrix = labels[first_distinct_rows(labels)]
        self.family_tag = "explicit"
        self._hypotheses: list[Hypothesis] | None = None

    @classmethod
    def _tagged(cls, label_vectors: Iterable[Sequence[int]],
                family: str) -> "HypothesisClass":
        """The class of these rows, tagged as the structured `family` they
        are; for the family builders only."""
        out = cls(label_vectors)
        out.family_tag = family
        return out

    @property
    def hypotheses(self) -> list[Hypothesis]:
        """One Hypothesis per row, its id the row index."""
        if self._hypotheses is None:
            self._hypotheses = [Hypothesis(row, i) for i, row in enumerate(self.matrix)]
        return self._hypotheses

    def __len__(self) -> int:
        return len(self.matrix)

    def __iter__(self):
        return iter(self.hypotheses)

    @property
    def domain_size(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def thresholds(cls, n: int) -> "HypothesisClass":
        """All step labelings 1[x >= t], t = 0..n."""
        return cls._tagged(np.arange(n) >= np.arange(n + 1)[:, None], "thresholds")

    @classmethod
    def intervals(cls, n: int) -> "HypothesisClass":
        """All labelings 1[a <= x < b] including the empty interval."""
        a, b = np.triu_indices(n + 1)
        x = np.arange(n)
        return cls._tagged((a[:, None] <= x) & (x < b[:, None]), "intervals")

    @classmethod
    def singletons(cls, n: int) -> "HypothesisClass":
        """One indicator hypothesis per domain point."""
        return cls._tagged(np.eye(n, dtype=np.uint8), "singletons")

    @classmethod
    def from_family(cls, family: str, n: int,
                    vectors: Iterable[Sequence[int]] | None = None) -> "HypothesisClass":
        if family == "explicit":
            if vectors is None:
                raise ValueError("explicit family needs label vectors")
            return cls(vectors)
        if family == "thresholds":
            return cls.thresholds(n)
        if family == "intervals":
            return cls.intervals(n)
        if family == "singletons":
            return cls.singletons(n)
        raise ValueError(f"unknown family {family!r}")


def _prediction_at(weights: np.ndarray, column: np.ndarray,
                   total: float | None = None) -> float:
    """Probability of label 1 at one point under the mixture with these
    weights over hypotheses whose labels there are `column`.

    Bit-identical to ``RandomizedHypothesis(labels, weights)
    .prediction_mean()[point]``: the positive weights are normalized by their
    own sum, then added up in hypothesis order (a sequential sum, unlike the
    pairwise one a dot product would take).  A caller whose weights are all
    positive may pass their sum as `total`: the positive weights are then the
    whole vector, so the masking is skipped and the sum is the same.
    """
    if total is None:
        pos = weights > 0
        weights, column = weights[pos], column[pos]
        total = weights.sum()
    return float(np.add.accumulate((weights / total) * column)[-1])


class RandomizedHypothesis(_Scored):
    """Convex mixture of hypotheses; losses are exact expectations.

    Built from weights over the rows of a label matrix (a class matrix, say),
    with ids `ids` or else the row indices, it keeps three arrays over the
    rows of positive weight: label rows, ids and weights normalized by their sum.
    """

    __slots__ = ("labels", "ids", "weights", "_pred_mean")

    def __init__(self, labels: np.ndarray, weights: Sequence[float],
                 ids: Sequence[int] | None = None):
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(labels),):
            raise ValueError("weights length must match hypotheses")
        keep = np.flatnonzero(w > 0.0)
        if len(keep) == 0:
            raise ValueError("mixture needs at least one atom")
        self.weights = _normalized(w[keep], "RandomizedHypothesis")
        self.labels = labels[keep]
        self.ids = keep if ids is None else np.asarray(ids)[keep]
        self._pred_mean = None

    @classmethod
    def from_weights(cls, hypotheses: Sequence[Hypothesis],
                     weights: Sequence[float]) -> "RandomizedHypothesis":
        """Mixture from a weight vector over these hypotheses."""
        return cls(np.array([h.labels for h in hypotheses]), weights,
                   [h.id for h in hypotheses])

    def prediction_mean(self) -> np.ndarray:
        """Per-point probability of predicting label 1.

        The weighted label rows are added up in atom order, a sequential sum
        (not the pairwise one ``sum`` would take).
        """
        if self._pred_mean is None:
            terms = self.weights[:, None] * self.labels
            self._pred_mean = np.add.accumulate(terms, axis=0)[-1].copy()
        return self._pred_mean


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
        dists = [FiniteDistribution([(x, y, p) for x, y, p in d])
                 for d in obj["distributions"]]
        cobj = obj["class"]
        hclass = HypothesisClass.from_family(
            cobj["family"], n, cobj.get("hypotheses"))
        return cls(n, dists, hclass)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(self.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "MdlInstance":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def exact_loss(dist: FiniteDistribution,
               h: Hypothesis | RandomizedHypothesis) -> float:
    """Exact expected 0-1 loss under the distribution; no sampling."""
    pm = h.prediction_mean()
    if dist.max_point() >= len(pm):
        raise DomainMismatchError("distribution support outside hypothesis domain")
    per_atom = np.where(dist.labels == 1, 1.0 - pm[dist.points], pm[dist.points])
    return float(per_atom @ dist.probs)


def _draw(instance: MdlInstance, i: int, u: float,
          ledger: SampleLedger) -> tuple[int, int]:
    """One ledgered draw from distribution i at the uniform u, as
    (point, label); i unchecked."""
    dist = instance.distributions[i]
    idx = dist.atom_index(u)
    ledger.record(i, 1)
    return int(dist.points[idx]), int(dist.labels[idx])


def _mixture_index(p: np.ndarray, u: float) -> int:
    """Index drawn at the uniform u with probabilities p (nonnegative,
    normalized, unchecked).

    With ``u = rng.random()`` this is the arithmetic of
    ``rng.choice(len(p), p=p)``, so it returns the same index and leaves the
    generator in the same state, without the validation ``choice`` repeats
    on every call.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def _mixture_draw(instance: MdlInstance, p: np.ndarray, rng: np.random.Generator,
                  ledger: SampleLedger) -> tuple[int, int]:
    """One ledgered draw from the mixture with normalized weights p: the
    first uniform picks the distribution, the second the atom."""
    i = _mixture_index(p, rng.random())
    return _draw(instance, i, rng.random(), ledger)


def oracle_sample(instance: MdlInstance, i: int, rng: np.random.Generator,
                  ledger: SampleLedger) -> LabeledExample:
    """One ledgered draw from distribution i."""
    if not 0 <= i < instance.k:
        raise IndexError(f"oracle {i} out of range")
    return LabeledExample(*_draw(instance, i, rng.random(), ledger))


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


def _shatters_some(cols: np.ndarray, m: int) -> bool:
    """Whether some m-subset of the domain is shattered, trying the subsets
    in ``itertools.combinations`` order and stopping at the first shattered
    one.  ``cols[j]`` holds every hypothesis's label at point j.

    A subset is shattered iff its label codes (one bit per point of the
    subset) take all 2^m values.  ``doubled[d]`` holds twice the codes of
    the current subset's first d points, so a subset's codes are one add,
    ``doubled[m - 1] + cols[last point]``; moving to the next subset
    recomputes only the prefixes from the first point that changed.
    """
    n, size = cols.shape
    full = 1 << m
    subset = list(range(m))
    doubled: list = [np.zeros(size, dtype=np.int64)] * m
    depth = 1  # the first prefix whose codes are stale
    while True:
        for d in range(depth, m):
            doubled[d] = (doubled[d - 1] + cols[subset[d - 1]]) << 1
        codes = doubled[m - 1] + cols[subset[m - 1]]
        if np.count_nonzero(np.bincount(codes, minlength=full)) == full:
            return True
        last = m - 1
        while last >= 0 and subset[last] == n - m + last:
            last -= 1
        if last < 0:
            return False
        subset[last] += 1
        for d in range(last + 1, m):
            subset[d] = subset[d - 1] + 1
        depth = last + 1


def brute_force_vc(hclass: HypothesisClass, n: int) -> int:
    """Exact VC dimension by subset enumeration (guarded to small inputs)."""
    if n > VC_MAX_DOMAIN or len(hclass) > VC_MAX_CLASS:
        raise GuardError(
            f"VC guard: need n <= {VC_MAX_DOMAIN} and |class| <= {VC_MAX_CLASS}")
    cols = np.ascontiguousarray(hclass.matrix[:, :n].T, dtype=np.int64)
    best = 0
    for m in range(1, n + 1):
        if len(hclass) < (1 << m) or not _shatters_some(cols, m):
            break
        best = m
    return best


def vc_dimension(hclass: HypothesisClass) -> int:
    """Exact VC dimension: closed forms for the structured families (whose
    tag only their builders set), brute force for explicit classes.
    Thresholds shatter one point, intervals two (one at n = 1), singletons
    one (none at n = 1, where the class is one row).
    """
    n = hclass.domain_size
    closed = {"thresholds": 1, "intervals": min(n, 2), "singletons": min(n - 1, 1)}
    if hclass.family_tag in closed:
        return closed[hclass.family_tag]
    return brute_force_vc(hclass, n)
