"""Exact ground truth: brute-force optima, worst-case losses, the
majority-subset bound check, the audit of a run, and instance generators.

This is the only module allowed to read distribution masses directly.
Algorithms are audited against the quantities computed here; neither they
nor the no-regret primitives in :mod:`multidist.online` import this module.
The exact 2-smooth maximum, ``smooth_argmax``, lives in ``online`` and is
re-exported here; the majority-subset check compares it with one order
statistic of the losses, so it needs no guard on k.
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
    exact_loss,
    make_rng,
)
from multidist.online import smooth_argmax, smooth_cap

OPT_CELL_GUARD = 10_000_000


@dataclass(frozen=True)
class OptResult:
    """Exact min-max optimum over deterministic hypotheses."""

    opt_value: float
    argmin_id: int
    loss_matrix: np.ndarray  # shape (k, |class|)


def loss_matrix(instance: MdlInstance) -> np.ndarray:
    """Exact per-(distribution, hypothesis) loss table."""
    hmat = instance.hypothesis_class.matrix
    cells = len(instance.hypothesis_class) * sum(
        d.support_size for d in instance.distributions)
    if cells > OPT_CELL_GUARD:
        raise GuardError(f"loss matrix would need {cells} cell evaluations")
    rows = []
    for dist in instance.distributions:
        errs = hmat[:, dist.points] != dist.labels
        rows.append(errs @ dist.probs)
    return np.array(rows, dtype=np.float64)


def brute_force_opt(instance: MdlInstance) -> OptResult:
    """OPT = min over hypotheses of max over distributions, exactly."""
    matrix = loss_matrix(instance)
    worst = matrix.max(axis=0)
    argmin = int(np.argmin(worst))  # first minimum, i.e. lowest id
    return OptResult(float(worst[argmin]), argmin, matrix)


def _per_distribution_losses(instance: MdlInstance, hypotheses: list) -> np.ndarray:
    """Exact loss of each distribution under its own entry of `hypotheses`."""
    return np.array([exact_loss(d, h)
                     for d, h in zip(instance.distributions, hypotheses)])


def max_loss(instance: MdlInstance,
             h: Hypothesis | RandomizedHypothesis) -> tuple[float, int]:
    """Exact worst-case loss of h and the index of a worst distribution."""
    losses = _per_distribution_losses(instance, [h] * instance.k)
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
    losses = _per_distribution_losses(instance, [h] * k)
    smooth_value, _ = smooth_argmax(losses, smooth_cap(k))
    return bool(np.sort(losses)[(k + 1) // 2 - 1] <= smooth_value + 1e-12)


def evaluate_run(instance: MdlInstance, report: RunReport, epsilon: float,
                 alpha: float, opt: OptResult) -> dict:
    """Exact losses of the run's output (a personalized run's assignments) vs OPT."""
    k = instance.k
    if report.assignments is None:
        losses = _per_distribution_losses(instance, [report.hypothesis] * k)
        smooth = smooth_argmax(losses, smooth_cap(k))[0]
    else:
        losses = _per_distribution_losses(instance, [report.assignments[i] for i in range(k)])
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
    generator ends exactly where one draw per vector would leave it."""
    if spec.class_family != "explicit":
        return HypothesisClass.from_family(spec.class_family, spec.n)
    want = min(spec.class_size, 2 ** spec.n)
    rows: list[np.ndarray] = []
    seen: set[bytes] = set()
    attempts = 0
    while len(rows) < want and attempts < 200 * want:
        take = min(want - len(rows), 200 * want - attempts)
        attempts += take
        for row in rng.integers(0, 2, size=(take, spec.n)).astype(np.uint8):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                rows.append(row)
    return HypothesisClass(np.array(rows))


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
                [(int(v // 2), int(v % 2), float(p)) for v, p in zip(pairs, probs)]))
        return MdlInstance(n, dists, hclass), None

    if spec.family == "realizable":
        planted = int(rng.integers(len(hclass)))
        star = hclass.matrix[planted]
        dists = []
        for _ in range(k):
            pts = _support_points(n, rng)
            probs = rng.dirichlet(np.ones(len(pts)))
            dists.append(FiniteDistribution(
                [(int(x), int(star[x]), float(p)) for x, p in zip(pts, probs)]))
        return MdlInstance(n, dists, hclass), planted

    if spec.family == "opposed_labels":
        # Shared support and masses, labels flipped between two halves, so
        # any hypothesis pays >= 1/2 on one side: a high-OPT stress instance.
        pts = _support_points(n, rng)
        probs = rng.dirichlet(np.ones(len(pts)))
        zeros = FiniteDistribution([(int(x), 0, float(p)) for x, p in zip(pts, probs)])
        ones = FiniteDistribution([(int(x), 1, float(p)) for x, p in zip(pts, probs)])
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
        atoms = []
        for x, m in zip(pts, marg):
            atoms.append((int(x), 1, float(m * q[x])))
            atoms.append((int(x), 0, float(m * (1.0 - q[x]))))
        dists.append(FiniteDistribution(atoms))
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
