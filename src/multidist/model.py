"""Finite-support learning instances, 0-1 loss, and ledgered example oracles.

Everything downstream assumes a finite domain ``{0, ..., n-1}`` with binary
labels, distributions given as explicit probability mass over (point, label)
atoms, and hypothesis classes as explicit label matrices.  Sampling always
goes through an oracle function that charges a :class:`SampleLedger`, so
realized query budgets can be compared against predicted ones exactly.
Every class is built from one 0/1 matrix; ``first_distinct_rows`` is the
one row dedupe, for classes and for ``cover.projection_cover`` alike.  It
packs each row into bytes and sorts one opaque key per row.
A distribution's constructor and ``_normalized``, the one owner of the mass
rule, reduce with ufuncs (``np.minimum.reduce``, ``np.add.reduce``,
``np.add.accumulate``): the ``ndarray`` methods' bits without their wrappers.
An ``MdlInstance`` owns the record of which positions share a distribution
object; ``save``, ``load`` and ``evaluate`` work once per distinct object.

The public oracles validate their arguments, then draw through one private
path, ``_draws``: one search of the instance's ``_AtomTable`` (its distinct
objects' atoms, packed at the first draw) finds a batch of atoms from any
oracles, and one ``bincount`` ledgers them.  ``oracle_sample_many`` takes
one index or a sequence (a row each); a scalar oracle is its batched
twin's count-1 call.  Every draw is one double (``rng.random(m)`` gives the
doubles of m ``rng.random()`` calls), so a loop may draw uniforms in
blocks.  The dynamics loop calls ``_mixture_index`` every round (the index
``rng.choice(k, p=p)`` would draw), bisects the table's CDF list within
that distribution's atoms, and ledgers a block at once.

The exact VC search works from both ends.  Bottom up, a subset scan tries
the levels m = 1, 2, ... over the subsets in ``itertools.combinations``
order; it keeps the label codes of each prefix of the current subset, so a
subset costs one add, and tests shattering by counting the distinct codes
with ``np.bincount``.  Top down, a closure starts from the packed bitset of
the codes no row takes and ANDs it with its flip along one point at a time
(a shift and a mask inside a word for points 0..5, two runs of words for
the others); the n - r points outside a set R of r points are shattered
iff the closure over R is empty.  ``_closure_pays(n, m, |class|)`` hands
the levels from m up to the closure where its whole cost, in words, is at
most an eighth of a full scan of level m, in labels: from level 8 at n = 12,
|class| = 1024; never at n = 8, |class| = 24, nor at any n >= 15 under the
VC guard.  The versions these three kernels replaced (and the old
distribution checks) are kept in ``tests/reference_kernels.py``.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import add
from typing import Iterable, Sequence

import numpy as np

# Stored probability vectors must sum to 1 within SUM_TOL; constructors
# silently renormalize anything within RENORM_TOL and reject beyond it.
SUM_TOL = 1e-12
RENORM_TOL = 1e-9

VC_MAX_DOMAIN = 20
VC_MAX_CLASS = 4096

# Largest class label matrix (rows x points) a builder allocates.  Intervals
# at n = 500 (62.9M cells) still build, and trip the loss-matrix guard.
CLASS_CELL_GUARD = 100_000_000

CLASS_FAMILIES = ("explicit", "thresholds", "intervals", "singletons")


class DomainMismatchError(ValueError):
    """A point or label fell outside the instance's domain."""


class GuardError(RuntimeError):
    """An exact computation was requested beyond its size guard."""


def _class_rows(family: str, n: int, class_size: int = 0) -> int:
    """The rows of the class `family` over n points, in closed form (for
    `explicit`, the first `class_size` distinct label vectors, at most 2^n),
    or a GuardError, before anything is allocated, if its label matrix
    would exceed CLASS_CELL_GUARD cells."""
    if family not in CLASS_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    rows = (min(class_size, 2 ** n) if family == "explicit" else
            {"thresholds": n + 1, "intervals": (n + 1) * (n + 2) // 2, "singletons": n}[family])
    if rows * n > CLASS_CELL_GUARD:
        raise GuardError(f"class guard: {rows} rows x {n} points is more than "
                         f"{CLASS_CELL_GUARD} labels")
    return rows


def make_rng(seed: int | Sequence[int]) -> np.random.Generator:
    """Seeded generator; identical seed gives an identical stream."""
    return np.random.default_rng(seed)


def derive_seed(*parts: int) -> int:
    """Deterministically derive a child seed from integer parts."""
    ss = np.random.SeedSequence(list(parts))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _check_nonnegative(probs: np.ndarray, what: str) -> None:
    # written so that a NaN fails it
    if not np.minimum.reduce(probs) >= 0:
        raise ValueError(f"{what}: negative or NaN probability")


def _normalized(probs: np.ndarray, what: str) -> np.ndarray:
    _check_nonnegative(probs, what)
    # written so that a NaN sum fails it
    total = float(np.add.reduce(probs))
    if not abs(total - 1.0) <= RENORM_TOL:
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


def _json(value, kind, field: str):
    """`value` if ``json.load`` gave it the type `kind`, else a ValueError."""
    if not isinstance(value, kind):
        raise ValueError(f"malformed instance: {field} has the wrong JSON type")
    return value


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
        pbs = np.array([a[2] for a in atoms])
        if pbs.dtype.kind not in "fiu" or pbs.ndim != 1:
            raise ValueError("FiniteDistribution: masses must be numbers")
        if np.minimum.reduce(pts) < 0:
            raise ValueError("negative domain point")
        # 0.0, 1.0, False and True hash and compare as 0 and 1; 0.7 does not
        if not set(labels) <= {0, 1}:
            raise ValueError("labels must be in {0, 1}")
        if len(set(zip(pts.tolist(), labels))) != len(atoms):
            raise ValueError("duplicate (point, label) atom")
        self.points = pts
        self.labels = np.array(labels, dtype=np.int64)
        self.probs = _normalized(pbs.astype(np.float64, copy=False), "FiniteDistribution")
        # The last atom's upper edge is +inf rather than the rounded total, so
        # every uniform lands on an atom: the same atom a clamp to the last
        # index would give, without the clamp.
        self._cdf = np.add.accumulate(self.probs)
        self._cdf[-1] = np.inf

    @property
    def support_size(self) -> int:
        return len(self.points)

    def atoms(self) -> list[tuple[int, int, float]]:
        return list(zip(self.points.tolist(), self.labels.tolist(), self.probs.tolist()))

    def max_point(self) -> int:
        return int(np.maximum.reduce(self.points))

    def atom_index(self, u: float | np.ndarray):
        """Inverse-CDF index of the atom at the uniform u in [0, 1), or the
        indices at an array of uniforms: the atoms the oracles draw there."""
        idx = self._cdf.searchsorted(u, side="right")
        return int(idx) if isinstance(u, float) else idx

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
    when ``hypotheses`` is first read (the algorithms never read it), and
    the VC dimension only when ``vc_dimension`` first asks for it.

    A class is tagged ``explicit`` unless ``from_family``, the one builder of
    the structured families, made it, so a tag always names the rows the
    class holds, and ``vc_dimension`` reads the family's closed form from it.
    """

    __slots__ = ("matrix", "family_tag", "_hypotheses", "_vc")

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
        self._vc: int | None = None

    @property
    def hypotheses(self) -> list[Hypothesis]:
        """One Hypothesis per row, its id the row index."""
        if self._hypotheses is None:
            self._hypotheses = [Hypothesis(row, i) for i, row in enumerate(self.matrix)]
        return self._hypotheses

    def __len__(self) -> int:
        return len(self.matrix)

    @property
    def domain_size(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_family(cls, family: str, n: int,
                    vectors: Iterable[Sequence[int]] | None = None) -> "HypothesisClass":
        """The class of `family` over n points, the one builder of structured
        classes: thresholds 1[x >= t] for t = 0..n, intervals 1[a <= x < b]
        with the empty one, or singletons 1[x = i]; `explicit` takes the rows
        `vectors`.  A structured class is sized by ``_class_rows`` before its
        matrix is allocated, and tagged with its family."""
        if family == "explicit":
            if vectors is None:
                raise ValueError("explicit family needs label vectors")
            return cls(vectors)
        _class_rows(family, n)
        x = np.arange(n)
        if family == "thresholds":
            out = cls(x >= np.arange(n + 1)[:, None])
        elif family == "intervals":
            a, b = np.triu_indices(n + 1)
            out = cls((a[:, None] <= x) & (x < b[:, None]))
        else:
            out = cls(np.eye(n, dtype=np.uint8))
        out.family_tag = family
        return out


class RandomizedHypothesis(_Scored):
    """Convex mixture of hypotheses; losses are exact expectations.

    Built from weights over the rows of a label matrix (a class matrix, say),
    with ids `ids` or else the row indices, it keeps three arrays over the
    rows of positive weight: label rows, ids and weights normalized by their sum.
    Every weight, kept or not, must be nonnegative (NaN fails).
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
        _check_nonnegative(w, "RandomizedHypothesis")
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

    def record_counts(self, counts: list[int]) -> None:
        """Add nonnegative counts to the first len(counts) oracles' counters."""
        self.per_oracle[:len(counts)] = map(add, self.per_oracle, counts)
        self.total += sum(counts)


class _AtomTable:
    """The ``distinct`` objects' atoms in turn: points, labels, keys object +
    1j * CDF edge (ascending, as numpy orders complex numbers by real part
    first), the edges as a list, and each position's object and bounds."""

    def __init__(self, instance: "MdlInstance"):
        dists, sizes = instance.distinct, [d.support_size for d in instance.distinct]
        self.points = np.concatenate([d.points for d in dists])
        self.labels = np.concatenate([d.labels for d in dists])
        self.keys = np.empty(len(self.points), dtype=np.complex128)  # by part: 1j * inf has a NaN
        self.keys.real = np.repeat(np.arange(len(dists)), sizes)
        self.keys.imag = np.concatenate([d._cdf for d in dists])
        self.cdf, self.objects = self.keys.imag.tolist(), np.array(instance.distinct_index, float)
        ends = np.add.accumulate(sizes).tolist()
        self.bounds = [(ends[j] - sizes[j], ends[j]) for j in instance.distinct_index]


class MdlInstance:
    """k finite-support distributions plus an explicit hypothesis class;
    ``distinct`` lists the distinct distribution objects, first seen first,
    and ``distinct_index[i]`` is position i's index into it."""

    __slots__ = ("domain_size", "distributions", "hypothesis_class", "distinct",
                 "distinct_index", "_table")

    def __init__(self, domain_size: int, distributions: Sequence[FiniteDistribution],
                 hypothesis_class: HypothesisClass):
        if domain_size < 1:
            raise ValueError("domain_size must be >= 1")
        if len(distributions) < 1:
            raise ValueError("k must be ≥ 1")
        if hypothesis_class.domain_size != domain_size:
            raise DomainMismatchError("class domain size differs from instance")
        index: dict[FiniteDistribution, int] = {}  # keyed by object identity
        self.distinct_index = [index.setdefault(d, len(index)) for d in distributions]
        self.distinct = list(index)
        for d in self.distinct:
            if d.max_point() >= domain_size:
                raise DomainMismatchError("distribution support outside domain")
        self.domain_size = domain_size
        self.distributions = list(distributions)
        self.hypothesis_class = hypothesis_class
        self._table = None

    @property
    def k(self) -> int:
        return len(self.distributions)

    def atom_table(self) -> _AtomTable:
        """The packed atoms every draw looks up, built at the first call."""
        if self._table is None:
            self._table = _AtomTable(self)
        return self._table

    def by_position(self, rows: np.ndarray) -> np.ndarray:
        """Rows per distinct object as rows per position (`rows` itself if all are distinct)."""
        return rows if len(self.distinct) == self.k else rows[self.distinct_index]

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
        """The instance of a JSON object shaped as ``to_dict`` writes it; a
        ValueError names the first field of another JSON type."""
        number = (int, float, str)  # a string fails its own field's check
        size = _json(_json(obj, dict, "the instance")["domain_size"], number, "domain_size")
        n = int(_integers(np.asarray(size), "domain_size"))
        dists = _json(obj["distributions"], list, "distributions")
        atoms = [_json(a, list, "an atom") for d in dists for a in _json(d, list, "a distribution")]
        if not all(isinstance(v, number) for a in atoms for v in a):
            raise ValueError("malformed instance: an atom entry has the wrong JSON type")
        # positions whose atom lists read alike (-0.0 apart) share one object
        keys = [repr(d) for d in dists]
        built = {key: FiniteDistribution([(x, y, p) for x, y, p in d])
                 for key, d in dict(zip(keys, dists)).items()}
        cobj = _json(obj["class"], dict, "class")
        hclass = HypothesisClass.from_family(cobj["family"], n, _json(
            cobj.get("hypotheses"), (list, type(None)), "hypotheses"))
        return cls(n, [built[key] for key in keys], hclass)

    def save(self, path: str) -> None:
        """Write ``json.dumps(self.to_dict(), sort_keys=True)`` and a newline,
        byte for byte; the class rows are formatted from the matrix in one
        byte pass (``[0, 0, ..., 0], `` per row, its labels added to the digits),
        and the ``distinct`` objects by one ``json.dumps`` of their atom lists,
        split at the ``]], [[`` between two of them (no atom holds one), each
        object's text repeated at its positions."""
        hclass = self.hypothesis_class
        cls_text = f'"family": {json.dumps(hclass.family_tag)}'
        if hclass.family_tag == "explicit":
            h, n = hclass.matrix.shape
            row = f"[{', '.join('0' * n)}], ".encode()
            rows = np.tile(np.frombuffer(row, np.uint8), (h, 1))
            rows[:, 1:3 * n:3] += hclass.matrix
            cls_text += f', "hypotheses": [{rows.tobytes()[:-2].decode()}]'
        # every support is nonempty, so the dump is "[[[" ... "]]]"
        pieces = json.dumps([d.atoms() for d in self.distinct])[3:-3].split("]], [[")
        text = [f"[[{piece}]]" for piece in pieces]
        dists = f"[{', '.join([text[j] for j in self.distinct_index])}]"
        with open(path, "w", encoding="utf-8") as f:
            f.write(f'{{"class": {{{cls_text}}}, "distributions": {dists}, '
                    f'"domain_size": {json.dumps(self.domain_size)}}}\n')

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


def _mixture_index(p: np.ndarray, u: float) -> int:
    """Index drawn at the uniform u with probabilities p (nonnegative,
    normalized, unchecked).

    With ``u = rng.random()`` this is the index ``rng.choice(len(p), p=p)``
    draws, without the validation ``choice`` repeats on every call, and it
    leaves the generator in the same state.  ``choice`` divides the whole
    CDF by its last entry and takes ``searchsorted(u, side="right")``; here
    a bisection computes the same IEEE quotient at each of its O(log k)
    probes only.  Since u < 1 = cdf[-1] / cdf[-1], the last entry is never
    passed over, so it is not probed, and a NaN weight still gives an index
    below len(p).
    """
    cdf = np.add.accumulate(p)
    last = float(cdf[-1])
    return bisect_right(cdf, u, hi=len(p) - 1, key=lambda c: float(c) / last)


def _draws(instance: MdlInstance, oracles: np.ndarray, u: np.ndarray,
           ledger: SampleLedger) -> tuple[np.ndarray, np.ndarray]:
    """Ledgered draws, the j-th from distribution ``oracles[j]`` at the
    uniform ``u[j]``, as (points, labels) arrays; the oracles unchecked.
    The key (object, u) sorts just below the object's first edge above u."""
    table = instance.atom_table()
    keys = np.empty(len(u), dtype=np.complex128)
    keys.real, keys.imag = table.objects[oracles], u
    idx = table.keys.searchsorted(keys, side="right")
    ledger.record_counts(np.bincount(oracles).tolist())
    return table.points[idx], table.labels[idx]


def oracle_sample(instance: MdlInstance, i: int, rng: np.random.Generator,
                  ledger: SampleLedger) -> LabeledExample:
    """One ledgered draw from distribution i."""
    points, labels = oracle_sample_many(instance, i, 1, rng, ledger)
    return LabeledExample(int(points[0]), int(labels[0]))


def oracle_sample_many(instance: MdlInstance, i: int | Sequence[int], count: int,
                       rng: np.random.Generator,
                       ledger: SampleLedger) -> tuple[np.ndarray, np.ndarray]:
    """`count` ledgered draws from distribution i, as (points, labels) arrays;
    for a sequence i, a row per index, drawn as the one-index calls in turn."""
    oracles = _integers(np.asarray(i), "oracle indices")
    bad = oracles[(oracles < 0) | (oracles >= instance.k)]
    if bad.size:
        raise IndexError(f"oracle {bad[0]} out of range")
    if count < 0:
        raise ValueError("count must be >= 0")
    draws = _draws(instance, np.repeat(oracles, count), rng.random(oracles.size * count), ledger)
    return tuple(a.reshape(*oracles.shape, count) for a in draws)


def _check_mixture(weights: np.ndarray, k: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (k,):
        raise ValueError(f"mixture weights must have length {k}")
    return _normalized(w, "mixture weights")


def mixture_sample(instance: MdlInstance, weights: Sequence[float],
                   rng: np.random.Generator, ledger: SampleLedger) -> LabeledExample:
    """One draw from the weighted mixture of oracles; one ledger increment."""
    points, labels = mixture_sample_many(instance, weights, 1, rng, ledger)
    return LabeledExample(int(points[0]), int(labels[0]))


def mixture_sample_many(instance: MdlInstance, weights: Sequence[float], count: int,
                        rng: np.random.Generator,
                        ledger: SampleLedger) -> tuple[np.ndarray, np.ndarray]:
    """`count` mixture draws, in one table search; `count` increments."""
    w = _check_mixture(np.asarray(weights), instance.k)
    if count < 0:
        raise ValueError("count must be >= 0")
    chosen = rng.choice(instance.k, size=count, p=w)
    # oracle by oracle, in index order, the uniforms of its draws in draw
    # order: one block holds the doubles of the per-oracle blocks in turn
    u = np.empty(count)
    u[np.argsort(chosen, kind="stable")] = rng.random(count)
    return _draws(instance, chosen, u, ledger)


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


def _words(n: int) -> int:
    """Words of a bitset over the 2^n codes of n points."""
    return max(1, (1 << n) >> 6)


# bits of a 64-bit word whose index has bit x clear, x = 0..5
_LOW_BITS = [np.uint64(mask) for mask in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF)]


def _closure_step(level: np.ndarray, n: int, r: int) -> np.ndarray:
    """The closures of every (r+1)-set of points from those of every r-set.

    Row i of `level` is the closure Z_R of the i-th r-set R, the sets in
    order of their largest point (so the C(x, r) sets below x come first);
    the result holds Z_{R + {x}} = Z_R & flip_x(Z_R), in the same order,
    one strided pass per point x over the C(x, r) rows below it.  Z_R is
    the same on every code of an R-coset, so only the code with zeros on R
    is kept and the rest of the coset reads 0: a flip along a point outside
    R keeps the bits on R, so the zeros never reach a kept code.
    """
    out = np.zeros((comb(n, r + 1), level.shape[1]), dtype=level.dtype)
    start = 0
    for x in range(r, n):
        parents = level[:comb(x, r)]
        block = out[start:start + len(parents)]
        start += len(parents)
        if x < 6:
            # pairs of codes that differ at bit x lie in one word, 2^x apart
            np.right_shift(parents, 1 << x, out=block)
            block &= parents
            block &= _LOW_BITS[x]
        else:
            # ... or in two runs of 2^(x-6) words
            run = 1 << (x - 6)
            pair = parents.reshape(len(parents), -1, 2, run)
            np.bitwise_and(pair[:, :, 0], pair[:, :, 1],
                           out=block.reshape(len(parents), -1, 2, run)[:, :, 0])
    return out


def _closure_vc(cols: np.ndarray, m: int) -> int:
    """The VC dimension of the class whose labels at point j are `cols[j]`,
    given that it is at least m - 1, found top down.

    Z is the packed bitset over {0,1}^n of the codes no row takes (code bit
    j is the label at point j, code c is bit c % 64 of little-endian word
    c // 64).  For a set R of points, Z_R holds the codes c whose whole
    R-coset (every code that agrees with c off R) is missing, so the other
    n - |R| points are shattered iff Z_R is empty.  Level r holds Z_R for
    every r-set R (see ``_closure_step``); the first level r <= n - m with
    an empty Z_R gives the dimension n - r, and none gives m - 1.
    """
    n, size = cols.shape
    missing = np.zeros(64 * _words(n), dtype=bool)
    missing[: 1 << n] = True
    missing[(1 << np.arange(n)) @ cols] = False
    level = np.packbits(missing, bitorder="little").view("<u8")[None, :]
    for r in range(n - m + 1):
        if r:
            level = _closure_step(level, n, r - 1)
        if size >= 1 << (n - r) and not level.any(axis=1).all():
            return n - r
    return m - 1


@lru_cache(maxsize=1024)
def _closure_cost(n: int, m: int) -> int:
    """The closure's work down to level n - m, in words: sum_{r <= n-m}
    C(n, r) rows of ceil(2^n / 64) words, made in (n(n+1) - m(m+1)) / 2
    strided passes, each pass's fixed cost counted as 8 words."""
    rows = sum(comb(n, r) for r in range(n - m + 1))
    passes = (n * (n + 1) - m * (m + 1)) // 2
    return rows * _words(n) + 8 * passes


def _closure_pays(n: int, m: int, size: int) -> bool:
    """Whether the closure down to level n - m costs at most an eighth of a
    full scan of the m-subsets, C(n, m) codes of `size` labels each.

    The pass cost keeps the closure off one-word rows (n <= 6) unless the
    class is (nearly) the whole cube: there numpy's call overhead, not the
    words, sets its time.  The closure's level n - m alone is C(n, m) rows,
    so it never pays unless a row's words are at most an eighth of `size`.
    """
    if 8 * _words(n) > size:
        return False
    return 8 * _closure_cost(n, m) <= comb(n, m) * size


def _brute_force_vc(hclass: HypothesisClass, n: int, closure_pays) -> int:
    """Exact VC dimension: the subset scan level by level from m = 1, until
    ``closure_pays(n, m, |class|)`` hands the levels from m up to the
    closure."""
    if n > VC_MAX_DOMAIN or len(hclass) > VC_MAX_CLASS:
        raise GuardError(
            f"VC guard: need n <= {VC_MAX_DOMAIN} and |class| <= {VC_MAX_CLASS}")
    cols = np.ascontiguousarray(hclass.matrix[:, :n].T, dtype=np.int64)
    size = len(hclass)
    for m in range(1, n + 1):
        if size < (1 << m):
            return m - 1
        if closure_pays(n, m, size):
            return _closure_vc(cols, m)
        if not _shatters_some(cols, m):
            return m - 1
    return n


def brute_force_vc(hclass: HypothesisClass, n: int) -> int:
    """Exact VC dimension of the class on points 0..n-1 (guarded to small
    inputs), from both ends: the subset scan tries the levels m = 1, 2, ...
    bottom up, and at the first level where ``_closure_pays(n, m, |class|)``
    holds, the closure over the missing codes decides the levels from m up
    top down."""
    return _brute_force_vc(hclass, n, _closure_pays)


def vc_dimension(hclass: HypothesisClass) -> int:
    """Exact VC dimension: closed forms for the structured families (whose
    tag only ``from_family`` sets), ``brute_force_vc`` for explicit classes.
    Over n points, thresholds have min(n, 1), intervals min(n, 2) and
    singletons min(n - 1, 1) (one row at n = 1; at n = 0 the class is empty,
    which the constructor refuses).  The class keeps the value, so each run
    reads it here and a class is searched once; a GuardError is not kept.
    """
    if hclass._vc is None:
        n, tag = hclass.domain_size, hclass.family_tag
        closed = {"thresholds": min(n, 1), "intervals": min(n, 2), "singletons": min(n - 1, 1)}
        hclass._vc = closed[tag] if tag in closed else brute_force_vc(hclass, n)
    return hclass._vc
