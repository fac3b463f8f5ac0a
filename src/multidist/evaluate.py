"""Exact ground truth: brute-force optima, worst-case losses, the
majority-subset bound check, the audit of a run, and instance generators.

This is the only module allowed to read distribution masses directly.
Algorithms are audited against the quantities computed here; neither they
nor the no-regret primitives in :mod:`multidist.online` import this module.
The exact 2-smooth maximum, ``smooth_argmax``, lives in ``online`` and is
re-exported here; the majority-subset check compares it with one order
statistic of the losses, so it needs no guard on k.

The instance path runs in vectorized passes: ``_random_class`` keys each
batch's rows by their packed bytes in one pass, ``_build`` feeds each
distribution ``tolist()`` columns, and ``loss_matrix`` gathers, compares
and casts the support columns of several of the instance's ``distinct``
objects at once, in blocks of bounded size, then computes one row per object
by a gemv on its column slice; ``tests/reference_instance.py`` keeps the
loops they replaced.  The loss table, its guard and the exact audit work
once per distinct object; only personalized assignments, once per position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from multidist.algos import RunReport
from multidist.model import (
    GuardError,
    FiniteDistribution,
    Hypothesis,
    HypothesisClass,
    MdlInstance,
    RandomizedHypothesis,
    _class_rows,
    exact_loss,
    make_rng,
)
from multidist.online import smooth_argmax, smooth_cap

OPT_CELL_GUARD = 10_000_000

# The float64 entries (256 KB) of one gathered block of the loss table.  One
# gather per instance would hold an (|H|, sum of supports) table: at k = 64,
# |H| = 1024 that is 3.5 MB, and it raised the peak memory of a run of gen
# cells by 20%; blocks this size keep it within 0.5% and were faster than one
# gather too (2 vCPU, numpy 2.4).
_GATHER_ENTRIES = 32_768


@dataclass(frozen=True)
class OptResult:
    """Exact min-max optimum over deterministic hypotheses."""

    opt_value: float
    argmin_id: int
    loss_matrix: np.ndarray  # shape (k, |class|)


def loss_matrix(instance: MdlInstance) -> np.ndarray:
    """Exact per-(distribution, hypothesis) loss table: one row per distinct
    object, in blocks of at most ``_GATHER_ENTRIES`` table entries (or one
    object, if it alone is wider), spread over its positions.  The guard
    bounds |H| x the distinct objects' supports, and the k x |H| entries."""
    hmat = instance.hypothesis_class.matrix
    distinct = instance.distinct
    cells = len(hmat) * sum(d.support_size for d in distinct)
    if cells > OPT_CELL_GUARD:
        raise GuardError(f"loss matrix would need {cells} cell evaluations")
    if instance.k * len(hmat) > OPT_CELL_GUARD:  # trips on repeated objects only
        raise GuardError(f"loss matrix would hold {instance.k * len(hmat)} entries")
    table = np.empty((len(distinct), len(hmat)))
    width = _GATHER_ENTRIES // len(hmat)  # support columns per block
    block: list[int] = []
    columns = 0
    for i, d in enumerate(distinct):
        if block and columns + d.support_size > width:
            _loss_rows(hmat, distinct, block, table)
            block, columns = [], 0
        block.append(i)
        columns += d.support_size
    _loss_rows(hmat, distinct, block, table)
    return instance.by_position(table)


def _loss_rows(hmat: np.ndarray, dists: list[FiniteDistribution],
               block: list[int], out: np.ndarray) -> None:
    """Rows `block` of the loss table: the support columns of those
    distributions are gathered C-ordered by one ``take``, compared with their
    uint8 labels and cast to float64 once; then one gemv of each one's
    column slice with its masses gives the bits of the row-major product
    ``(hmat[:, points] != labels) @ probs``."""
    labels = np.concatenate([dists[i].labels for i in block]).astype(np.uint8)
    errs = (hmat.take(np.concatenate([dists[i].points for i in block]), axis=1)
            != labels).astype(np.float64)
    start = 0
    for i in block:
        end = start + dists[i].support_size
        np.matmul(errs[:, start:end], dists[i].probs, out=out[i])
        start = end


def brute_force_opt(instance: MdlInstance) -> OptResult:
    """OPT = min over hypotheses of max over distributions, exactly."""
    matrix = loss_matrix(instance)
    worst = matrix.max(axis=0)
    argmin = int(np.argmin(worst))  # first minimum, i.e. lowest id
    return OptResult(float(worst[argmin]), argmin, matrix)


def _losses(instance: MdlInstance, h: Hypothesis | RandomizedHypothesis) -> np.ndarray:
    """Exact loss of h on each distribution, one ``exact_loss`` per object."""
    return instance.by_position(np.array([exact_loss(d, h) for d in instance.distinct]))


def max_loss(instance: MdlInstance,
             h: Hypothesis | RandomizedHypothesis) -> tuple[float, int]:
    """Exact worst-case loss of h and the index of a worst distribution."""
    losses = _losses(instance, h)
    worst = int(np.argmax(losses))
    return float(losses[worst]), worst


def minority_bound_check(instance: MdlInstance,
                         h: Hypothesis | RandomizedHypothesis) -> bool:
    """Does some majority subset's worst loss stay under the 2-smooth max?

    Exact over all subsets containing at least half the distributions: the
    smallest worst loss among them is the ceil(k/2)-th smallest loss.  A
    False on any input is a build-breaking bug, not data.
    """
    k = instance.k
    losses = _losses(instance, h)
    smooth_value, _ = smooth_argmax(losses, smooth_cap(k))
    return bool(np.sort(losses)[(k + 1) // 2 - 1] <= smooth_value + 1e-12)


def evaluate_run(instance: MdlInstance, report: RunReport, epsilon: float,
                 alpha: float, opt: OptResult) -> dict:
    """Exact losses of the run's output (a personalized run's assignments) vs OPT."""
    if report.assignments is None:
        losses = _losses(instance, report.hypothesis)
        smooth = smooth_argmax(losses, smooth_cap(instance.k))[0]
    else:
        losses = np.array([exact_loss(d, report.assignments[i])
                           for i, d in enumerate(instance.distributions)])
        smooth = None
    worst = int(np.argmax(losses))
    value = float(losses[worst])
    bound = epsilon + (1.0 + alpha) * opt.opt_value
    return {
        "opt": opt.opt_value,
        "max_loss": value,
        "worst_index": worst,
        "excess": value - opt.opt_value,
        "smooth_max_loss": smooth,
        "eps_ok": value <= bound,
        "slack": bound - value,
    }


# ---------------------------------------------------------------------------
# instance generators

GENERATOR_FAMILIES = ("random", "realizable", "opposed_labels", "shared_bayes")


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for a generated instance; same spec -> identical instance."""

    family: str
    n: int
    k: int
    class_size: int
    seed: int
    class_family: str = "explicit"

    def __post_init__(self) -> None:
        if self.family not in GENERATOR_FAMILIES:
            raise ValueError(f"unknown generator family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be ≥ 1")
        if self.k < 1:
            raise ValueError("k must be ≥ 1")
        if self.class_size < 1:
            raise ValueError("class size must be ≥ 1")
        if self.family == "opposed_labels" and self.k < 2:
            raise ValueError("opposed_labels needs k ≥ 2")


def _random_class(spec: InstanceSpec, rng: np.random.Generator) -> HypothesisClass:
    """The first `class_size` distinct uniform label vectors (at most 2^n),
    drawn in batches no larger than the number still missing, so the
    generator ends exactly where one draw per vector would leave it; a
    batch's new rows, found by their packed bytes, are kept as one block."""
    if spec.class_family != "explicit":
        return HypothesisClass.from_family(spec.class_family, spec.n)
    want = _class_rows("explicit", spec.n, spec.class_size)
    row_key = np.dtype((np.void, (spec.n + 7) // 8))  # one packed row
    blocks: list[np.ndarray] = []
    seen: set[bytes] = set()
    attempts = 0
    while len(seen) < want and attempts < 200 * want:
        take = min(want - len(seen), 200 * want - attempts)
        attempts += take
        batch = rng.integers(0, 2, size=(take, spec.n)).astype(np.uint8)
        new = []
        for j, row in enumerate(np.packbits(batch, axis=1).view(row_key).ravel().tolist()):
            if row not in seen:
                seen.add(row)
                new.append(j)
        blocks.append(batch[new])
    return HypothesisClass(np.concatenate(blocks))


def _with_member(hclass: HypothesisClass, member: np.ndarray) -> tuple[HypothesisClass, int]:
    """Class guaranteed to contain `member`; returns (class, member id)."""
    hits = np.flatnonzero((hclass.matrix == member).all(axis=1))
    if len(hits):
        return hclass, int(hits[0])
    return HypothesisClass(np.vstack([member, hclass.matrix])), 0


def _support_points(n: int, rng: np.random.Generator) -> np.ndarray:
    size = int(rng.integers(1, min(n, 6) + 1))
    return rng.choice(n, size=size, replace=False)


def _build(spec: InstanceSpec, rng: np.random.Generator) -> tuple[MdlInstance, int | None]:
    n, k = spec.n, spec.k
    hclass = _random_class(spec, rng)
    planted: int | None = None

    if spec.family == "random":
        dists = []
        for _ in range(k):
            size = int(rng.integers(1, min(2 * n, 8) + 1))
            pairs = rng.choice(2 * n, size=size, replace=False)
            probs = rng.dirichlet(np.ones(size))
            dists.append(FiniteDistribution(
                zip((pairs // 2).tolist(), (pairs % 2).tolist(), probs.tolist())))
        return MdlInstance(n, dists, hclass), None

    if spec.family == "realizable":
        planted = int(rng.integers(len(hclass)))
        star = hclass.matrix[planted]
        dists = []
        for _ in range(k):
            pts = _support_points(n, rng)
            probs = rng.dirichlet(np.ones(len(pts)))
            dists.append(FiniteDistribution(
                zip(pts.tolist(), star[pts].tolist(), probs.tolist())))
        return MdlInstance(n, dists, hclass), planted

    if spec.family == "opposed_labels":
        # Shared support and masses, labels flipped between two halves, so
        # any hypothesis pays >= 1/2 on one side: a high-OPT stress instance.
        pts = _support_points(n, rng)
        xs, probs = pts.tolist(), rng.dirichlet(np.ones(len(pts))).tolist()
        zeros = FiniteDistribution(zip(xs, [0] * len(xs), probs))
        ones = FiniteDistribution(zip(xs, [1] * len(xs), probs))
        half = (k + 1) // 2
        dists = [zeros if i < half else ones for i in range(k)]
        return MdlInstance(n, dists, hclass), None

    # shared_bayes: one conditional label rule for every distribution, with
    # differing marginals; the planted rule is Bayes-optimal everywhere.
    planted_vec = (hclass.matrix[int(rng.integers(len(hclass)))]
                   if spec.class_family != "explicit"
                   else rng.integers(0, 2, size=n).astype(np.uint8))
    hclass, planted = _with_member(hclass, planted_vec)
    star = hclass.matrix[planted]
    noise = rng.uniform(0.05, 0.45, size=n)
    q = np.where(star == 1, 1.0 - noise, noise)  # P(label=1 | x)
    dists = []
    for _ in range(k):
        pts = _support_points(n, rng)
        marg = rng.dirichlet(np.ones(len(pts)))
        ones, zeros = (marg * q[pts]).tolist(), (marg * (1.0 - q[pts])).tolist()
        dists.append(FiniteDistribution(
            atom for x, p1, p0 in zip(pts.tolist(), ones, zeros)
            for atom in ((x, 1, p1), (x, 0, p0))))
    return MdlInstance(n, dists, hclass), planted


def _post_check(spec: InstanceSpec, instance: MdlInstance,
                planted: int | None) -> tuple[bool, OptResult | None]:
    """Whether the instance has its family's defining property, and the
    exact optimum computed to check it (None for `random`, which has no
    property to check)."""
    if spec.family == "random":
        return True, None
    opt = brute_force_opt(instance)
    if spec.family == "realizable":
        return opt.opt_value <= 1e-12, opt
    if spec.family == "opposed_labels":
        return opt.opt_value >= 0.5 - 1e-9, opt
    matrix = opt.loss_matrix
    per_dist_min = matrix.min(axis=1)
    return bool(np.all(matrix[:, planted] <= per_dist_min + 1e-12)), opt


def generate_with_opt(spec: InstanceSpec) -> tuple[MdlInstance, OptResult | None]:
    """:func:`generate`, plus the exact optimum its property check computed.

    The optimum is None for the `random` family; callers that need it there
    compute it with :func:`brute_force_opt`.
    """
    # rows x k is the loss table's entries, which its guard bounds; the
    # objects of every family but opposed_labels are all distinct, with at
    # least one atom (two for shared_bayes), so rows x k (x 2) also bounds
    # their cells, before anything is built.
    cells = _class_rows(spec.class_family, spec.n, spec.class_size) * spec.k * (
        2 if spec.family == "shared_bayes" else 1)
    if spec.family != "random" and cells > OPT_CELL_GUARD:
        raise GuardError(f"loss matrix would need at least {cells} cell evaluations")
    rng = make_rng(spec.seed)
    for _ in range(100):
        instance, planted = _build(spec, rng)
        ok, opt = _post_check(spec, instance, planted)
        if ok:
            return instance, opt
    raise GuardError(f"could not generate a {spec.family} instance in 100 attempts")


def generate(spec: InstanceSpec) -> MdlInstance:
    """Generate an instance satisfying the family's defining property."""
    return generate_with_opt(spec)[0]
