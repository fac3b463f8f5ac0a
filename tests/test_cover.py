import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import hypothesis_classes, suite_instance
from multidist.cover import (
    SampleBatch,
    cover_sample_size,
    empirical_loss,
    erm,
    projection_cover,
)
from multidist.evaluate import InstanceSpec, generate
from multidist.model import (
    FiniteDistribution,
    Hypothesis,
    HypothesisClass,
    RandomizedHypothesis,
    SampleLedger,
    brute_force_vc,
    derive_seed,
    exact_loss,
    make_rng,
    mixture_sample_many,
)


def _batch(pairs):
    return SampleBatch(np.array([p for p, _ in pairs]),
                       np.array([l for _, l in pairs]))


class TestEmpiricalLoss:
    def test_all_correct(self):
        h = Hypothesis(np.array([1, 0, 1], dtype=np.uint8), 0)
        batch = _batch([(0, 1), (1, 0), (2, 1)])
        assert empirical_loss(h, batch) == 0.0

    def test_one_error_in_four(self):
        h = Hypothesis(np.array([1, 0], dtype=np.uint8), 0)
        batch = _batch([(0, 1), (0, 1), (1, 0), (1, 1)])
        assert empirical_loss(h, batch) == pytest.approx(0.25, abs=1e-15)

    def test_matches_exact_loss_on_enumerated_support(self):
        d = FiniteDistribution([(0, 1, 0.25), (1, 0, 0.25), (2, 1, 0.25), (3, 0, 0.25)])
        batch = _batch([(0, 1), (1, 0), (2, 1), (3, 0)])
        h = Hypothesis(np.array([1, 1, 0, 0], dtype=np.uint8), 0)
        assert empirical_loss(h, batch) == pytest.approx(exact_loss(d, h), abs=1e-15)

    def test_randomized_hypothesis(self):
        cls = HypothesisClass([[0, 0], [1, 1]])
        mix = RandomizedHypothesis.from_weights(cls.hypotheses, [0.25, 0.75])
        batch = _batch([(0, 1), (1, 1)])
        assert empirical_loss(mix, batch) == pytest.approx(0.25, abs=1e-15)

    def test_empty_batch(self):
        h = Hypothesis(np.array([1], dtype=np.uint8), 0)
        with pytest.raises(ValueError):
            empirical_loss(h, _batch([]))


# erm and empirical_loss (for either kind of hypothesis) share one batch check
_SCORERS = {
    "erm": lambda batch: erm(HypothesisClass([[1, 0]]), batch),
    "hypothesis": lambda batch: empirical_loss(
        Hypothesis(np.array([1, 0], dtype=np.uint8), 0), batch),
    "mixture": lambda batch: empirical_loss(
        RandomizedHypothesis(np.array([[1, 0]], dtype=np.uint8), [1.0]), batch),
}


@pytest.mark.parametrize("scorer", _SCORERS)
class TestBatchCheck:
    def test_point_outside_domain(self, scorer):
        # before the shared check, a negative point wrapped around to the
        # last domain point
        for point in (-1, 2):
            with pytest.raises(IndexError, match="batch point outside the class domain"):
                _SCORERS[scorer](_batch([(0, 1), (point, 0)]))

    def test_non_binary_label(self, scorer):
        # before, the label 2 cost a hypothesis 1.0 and its mixture 0.0
        with pytest.raises(ValueError, match=r"batch labels must be in \{0, 1\}"):
            _SCORERS[scorer](_batch([(0, 1), (1, 2)]))

    @pytest.mark.parametrize("points, labels", [
        # before, these broadcast: the first scored 3 points against one label
        ([0, 1, 1], [1]), ([[0, 1], [1, 0]], [1, 0]),
        # and these failed with numpy's broadcast error
        ([0, 1, 1], [1, 0]), ([[0, 1]], [[1], [0]]), ([], [1])])
    def test_unequal_shapes(self, scorer, points, labels):
        batch = SampleBatch(np.array(points), np.array(labels))
        message = (f"batch points of shape {np.shape(points)}, "
                   f"labels of shape {np.shape(labels)}")
        with pytest.raises(ValueError, match=re.escape(message)):
            _SCORERS[scorer](batch)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4)])
    def test_empty_batch_of_any_shape(self, scorer, shape):
        # a (3, 0) batch has three rows but nothing to score
        batch = SampleBatch(np.zeros(shape, np.int64), np.zeros(shape, np.int64))
        with pytest.raises(ValueError, match="^empty batch$"):
            _SCORERS[scorer](batch)


def _erm_oracle(hclass, batch):
    # independently written scan: plain python loops, no vectorization
    best_h, best_loss = None, None
    for h in hclass.hypotheses:
        wrong = 0
        for x, y in zip(batch.points, batch.labels):
            if int(h.labels[x]) != int(y):
                wrong += 1
        loss = wrong / len(batch.points)
        if best_loss is None or loss < best_loss:
            best_h, best_loss = h, loss
    return best_h


class TestErm:
    def test_realizable_batch_gets_zero_loss(self):
        cls = HypothesisClass([[0, 1, 0], [1, 1, 1], [0, 0, 0]])
        batch = _batch([(0, 0), (1, 1), (2, 0)])
        h = erm(cls, batch)
        assert empirical_loss(h, batch) == 0.0

    def test_tie_goes_to_lower_id(self):
        cls = HypothesisClass([[1, 0], [0, 1]])
        batch = _batch([(0, 1), (1, 1)])  # both hypotheses get loss 0.5
        assert erm(cls, batch).id == 0

    def test_matches_independent_scan(self):
        rng = make_rng(1234)
        for _ in range(100):
            size = int(rng.integers(1, 12))
            n = int(rng.integers(2, 8))
            vecs = rng.integers(0, 2, size=(size, n))
            cls = HypothesisClass(vecs.tolist())
            m = int(rng.integers(1, 20))
            batch = SampleBatch(rng.integers(0, n, size=m),
                                rng.integers(0, 2, size=m))
            assert erm(cls, batch).id == _erm_oracle(cls, batch).id

    def test_empty_batch_rejected(self):
        cls = HypothesisClass([[0]])
        with pytest.raises(ValueError):
            erm(cls, _batch([]))

    def test_point_outside_domain_rejected(self):
        cls = HypothesisClass([[0, 1], [1, 1]])
        for point in (2, -1):
            with pytest.raises(IndexError):
                erm(cls, _batch([(0, 1), (point, 0)]))

    def test_non_binary_label_rejected(self):
        cls = HypothesisClass([[0, 1], [1, 1]])
        with pytest.raises(ValueError):
            erm(cls, _batch([(0, 1), (1, 2)]))


class TestProjectionCover:
    def test_full_domain_recovers_class(self):
        cls = HypothesisClass([[0, 1, 0], [1, 1, 1], [0, 1, 0], [0, 0, 0]])
        result = projection_cover(cls, list(range(3)))
        assert result.behavior_count == len(cls)
        assert np.array_equal(result.subclass.matrix, cls.matrix)

    def test_single_point_at_most_two(self):
        cls = HypothesisClass.from_family("intervals", 5)
        result = projection_cover(cls, [2])
        assert result.behavior_count <= 2

    def test_representative_is_lowest_id(self):
        cls = HypothesisClass([[0, 0], [1, 0], [0, 1], [1, 1]])
        result = projection_cover(cls, [0])
        assert result.representative_ids == [0, 1]

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            projection_cover(HypothesisClass([[0]]), [])

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_sauer_shelah_bound(self, data):
        n = 6
        cls = data.draw(hypothesis_classes(n=n, max_size=16))
        pts = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                 min_size=1, max_size=n, unique=True))
        d = brute_force_vc(cls, n)
        result = projection_cover(cls, pts)
        m = len(result.witness_points)
        bound = sum(math.comb(m, i) for i in range(0, d + 1))
        assert result.behavior_count <= bound
        # behaviors really are distinct on the witness points
        proj = result.subclass.matrix[:, result.witness_points]
        assert len({tuple(r) for r in proj}) == result.behavior_count


class TestCoverSampleSize:
    def _formula(self, d, eps, delta, C):
        return math.ceil(C / eps * (d * math.log(d / eps) + math.log(1 / delta)))

    def test_monotone_in_epsilon(self):
        assert cover_sample_size(3, 0.1, 0.2) >= cover_sample_size(3, 0.2, 0.2)

    def test_matches_independent_recomputation(self):
        assert cover_sample_size(1, 0.5, 0.5, 4.0) == self._formula(1, 0.5, 0.5, 4.0)
        for d, eps, delta in [(1, 0.3, 0.1), (2, 0.2, 0.2), (5, 0.15, 0.05)]:
            assert cover_sample_size(d, eps, delta, 4.0) == self._formula(d, eps, delta, 4.0)

    def test_near_linear_in_d(self):
        for d in (2, 4, 8):
            for eps in (0.1, 0.2):
                ratio = cover_sample_size(2 * d, eps, 0.2) / cover_sample_size(d, eps, 0.2)
                assert ratio <= 2 * (1 + math.log(2) / math.log(d / eps)) + 0.01

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            cover_sample_size(0, 0.2, 0.2)
        with pytest.raises(ValueError):
            cover_sample_size(2, 1.5, 0.2)


def _uniform_marginal(instance):
    marg = np.zeros(instance.domain_size)
    for dist in instance.distributions:
        for x, _, p in dist.atoms():
            marg[x] += p / instance.k
    return marg


def _net_holds(instance, cover, marginal, eps):
    cmat = cover.subclass.matrix.astype(np.int64)
    for row in instance.hypothesis_class.matrix.astype(np.int64):
        disagreement = (cmat != row[None, :]).astype(float) @ marginal
        if float(disagreement.min()) > eps:
            return False
    return True


def _smooth_vertices(k):
    cap = min(1.0, 2.0 / k)
    full = int(math.floor(1.0 / cap + 1e-12))
    rem = 1.0 - full * cap
    for caps in itertools.combinations(range(k), full):
        if rem <= 1e-12:
            v = np.zeros(k)
            v[list(caps)] = cap
            yield v
        else:
            for extra in set(range(k)) - set(caps):
                v = np.zeros(k)
                v[list(caps)] = cap
                v[extra] = rem
                yield v


class TestEpsNetProperty:
    EPS = 0.2
    DELTA = 0.2

    def _cover_for(self, s):
        inst = generate(InstanceSpec(
            "random", n=4 + (s % 9), k=2 + (s % 4),
            class_size=8 + ((s * 5) % 25), seed=derive_seed(55, s)))
        d = max(1, brute_force_vc(inst.hypothesis_class, inst.domain_size))
        N = cover_sample_size(d, self.EPS, self.DELTA, 4.0)
        ledger = SampleLedger(inst.k)
        pts, _ = mixture_sample_many(inst, np.full(inst.k, 1.0 / inst.k), N,
                                     make_rng(derive_seed(56, s)), ledger)
        cover = projection_cover(inst.hypothesis_class,
                                 sorted(set(int(p) for p in pts)))
        return inst, cover

    def test_net_rate_and_smooth_transfer(self):
        hits = 0
        transfers_checked = 0
        for s in range(60):
            inst, cover = self._cover_for(s)
            marginal = _uniform_marginal(inst)
            holds = _net_holds(inst, cover, marginal, self.EPS)
            hits += holds
            if holds and inst.k <= 6:
                # any 2-smooth mixture doubles the uniform mass at most,
                # so disagreement stays under 2*eps at every vertex
                for v in _smooth_vertices(inst.k):
                    marg_v = np.zeros(inst.domain_size)
                    for i, dist in enumerate(inst.distributions):
                        for x, _, p in dist.atoms():
                            marg_v[x] += p * v[i]
                    assert _net_holds(inst, cover, marg_v, 2 * self.EPS)
                transfers_checked += 1
        assert hits >= math.ceil((1 - self.DELTA - 0.1) * 60)
        assert transfers_checked > 0


class TestSuiteHelpers:
    def test_suite_instance_is_deterministic(self):
        a = suite_instance(3)
        b = suite_instance(3)
        assert a.to_dict() == b.to_dict()
