"""One scoring path: a deterministic hypothesis is scored through its labels,
the prediction vector the mixture formulas read, and must give the bits of
the per-kind formulas kept in ``tests/reference_scoring.py``."""

import numpy as np

from multidist.algos import _estimate_value, mid_adversary_estimate
from multidist.cover import SampleBatch, empirical_loss
from multidist.model import (
    FiniteDistribution,
    Hypothesis,
    LabeledExample,
    RandomizedHypothesis,
    derive_seed,
    exact_loss,
    make_rng,
)
from reference_scoring import (
    reference_empirical_loss,
    reference_example_loss,
    reference_exact_loss,
)


def _random_case(rng):
    """A hypothesis, a distribution, a batch and an example over one domain."""
    n = int(rng.integers(1, 13))
    h = Hypothesis(rng.integers(0, 2, size=n).astype(np.uint8), 0)
    pairs = rng.choice(2 * n, size=int(rng.integers(1, 2 * n + 1)), replace=False)
    # a small Dirichlet parameter gives masses across many binades
    probs = rng.dirichlet(np.full(len(pairs), float(rng.choice([0.1, 1.0]))))
    dist = FiniteDistribution([(int(v // 2), int(v % 2), float(p))
                               for v, p in zip(pairs, probs)])
    m = int(rng.integers(1, 60))
    batch = SampleBatch(rng.integers(0, n, size=m), rng.integers(0, 2, size=m))
    z = LabeledExample(int(rng.integers(n)), int(rng.integers(2)))
    return h, dist, batch, z


def test_deterministic_scoring_matches_the_reference_bits():
    rng = make_rng(derive_seed(1010, 1))
    for _ in range(5_000):
        h, dist, batch, z = _random_case(rng)
        assert exact_loss(dist, h).hex() == reference_exact_loss(dist, h).hex()
        assert (empirical_loss(h, batch).hex()
                == reference_empirical_loss(h, batch).hex())
        assert h.expected_loss(z).hex() == reference_example_loss(h, z).hex()


def test_adversary_estimate_of_a_hypothesis_matches_the_reference():
    rng = make_rng(derive_seed(1010, 2))
    for _ in range(500):
        h, _, _, z = _random_case(rng)
        k = int(rng.integers(1, 9))
        weights = rng.dirichlet(np.ones(k))
        chosen = int(rng.integers(k))
        for estimator in ("unbiased", "literal"):
            got = mid_adversary_estimate(weights, chosen, z, h, estimator).values
            want = _estimate_value(reference_example_loss(h, z), k,
                                   float(weights[chosen]), estimator)
            assert got[chosen] == want


def test_a_hypothesis_scores_as_its_one_atom_mixture():
    rng = make_rng(derive_seed(1010, 3))
    for _ in range(500):
        h, dist, batch, z = _random_case(rng)
        mix = RandomizedHypothesis(h.labels[None, :], [1.0])
        assert exact_loss(dist, h) == exact_loss(dist, mix)
        assert empirical_loss(h, batch) == empirical_loss(mix, batch)
        assert h.expected_loss(z) == mix.expected_loss(z)


def _row_mixture(rng, n):
    """A mixture over random label rows, some weights zero and some subnormal."""
    rows = int(rng.integers(1, 6))
    weights = rng.random(rows)
    weights[rng.random(rows) < 0.3] = 0.0
    weights[rng.random(rows) < 0.3] = 5e-324 * float(rng.integers(1, 1000))
    weights[int(rng.integers(rows))] = 1.0
    labels = rng.integers(0, 2, size=(rows, n)).astype(np.uint8)
    return RandomizedHypothesis(labels, weights / weights.sum())


def test_row_losses_match_the_one_dimensional_calls():
    # each row of a 2-D batch is scored with the bits of its own 1-D call,
    # and a hypothesis's 1-D call with the bits of the reference formula
    rng = make_rng(derive_seed(1010, 4))
    for _ in range(1_000):
        h, _, _, _ = _random_case(rng)
        n = len(h.labels)
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 300)))
        batch = SampleBatch(rng.integers(0, n, size=shape), rng.integers(0, 2, size=shape))
        rows = [SampleBatch(p, y) for p, y in zip(batch.points, batch.labels)]
        for scored in (h, _row_mixture(rng, n)):
            got = empirical_loss(scored, batch)
            assert got.shape == (shape[0],) and got.dtype == np.float64
            want = [empirical_loss(scored, row) for row in rows]
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
        assert [x.hex() for x in empirical_loss(h, batch).tolist()] == [
            reference_empirical_loss(h, row).hex() for row in rows]
