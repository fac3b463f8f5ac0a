import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import counted, distributions, hypothesis_classes
from multidist import evaluate, model
from multidist.cover import projection_cover
from multidist.evaluate import GENERATOR_FAMILIES, InstanceSpec, _with_member, generate
from multidist.model import (
    DomainMismatchError,
    FiniteDistribution,
    GuardError,
    Hypothesis,
    HypothesisClass,
    LabeledExample,
    MdlInstance,
    RandomizedHypothesis,
    SampleLedger,
    brute_force_vc,
    derive_seed,
    exact_loss,
    make_rng,
    mixture_sample,
    mixture_sample_many,
    oracle_sample,
    oracle_sample_many,
    vc_dimension,
)


def _class(*vectors) -> HypothesisClass:
    return HypothesisClass(list(vectors))


def _instance(dists, hclass=None, n=4) -> MdlInstance:
    if hclass is None:
        hclass = _class([0] * n, [1] * n)
    return MdlInstance(n, dists, hclass)


class TestZeroOneLoss:
    def test_agreement(self):
        h = Hypothesis(np.array([1, 0], dtype=np.uint8), 0)
        assert h.expected_loss(LabeledExample(0, 1)) == 0.0

    def test_disagreement(self):
        h = Hypothesis(np.array([1, 0], dtype=np.uint8), 0)
        assert h.expected_loss(LabeledExample(0, 0)) == 1.0

    def test_out_of_range_point(self):
        h = Hypothesis(np.array([1, 0], dtype=np.uint8), 0)
        with pytest.raises(DomainMismatchError):
            h.expected_loss(LabeledExample(5, 0))

    def test_mixture_linearity(self):
        # 1/4 weight on an erring hypothesis, 3/4 on a correct one -> 1/4.
        err = Hypothesis(np.array([0], dtype=np.uint8), 0)
        good = Hypothesis(np.array([1], dtype=np.uint8), 1)
        mix = RandomizedHypothesis.from_weights([err, good], [0.25, 0.75])
        assert mix.expected_loss(LabeledExample(0, 1)) == pytest.approx(0.25, abs=1e-15)


class TestExactLoss:
    def test_symmetric_labels(self):
        d = FiniteDistribution([(0, 0, 0.5), (0, 1, 0.5)])
        for h in _class([0], [1]).hypotheses:
            assert exact_loss(d, h) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_correct(self):
        d = FiniteDistribution([(2, 1, 1.0)])
        h = Hypothesis(np.array([0, 0, 1], dtype=np.uint8), 0)
        assert exact_loss(d, h) == 0.0

    def test_against_monte_carlo(self):
        # Independent oracle: direct MC over the support, 1e6 draws.
        rng = make_rng(424242)
        pts = rng.choice(5, size=5, replace=False)
        probs = rng.dirichlet(np.ones(5))
        labels = rng.integers(0, 2, size=5)
        d = FiniteDistribution(
            [(int(x), int(y), float(p)) for x, y, p in zip(pts, labels, probs)])
        h = Hypothesis(rng.integers(0, 2, size=5).astype(np.uint8), 0)
        exact = exact_loss(d, h)
        draws = rng.choice(5, size=1_000_000, p=probs)
        errs = (h.labels[pts[draws]] != labels[draws]).astype(float)
        sigma = errs.std() / 1000.0
        assert abs(errs.mean() - exact) <= 3 * sigma + 1e-9

    def test_domain_mismatch(self):
        d = FiniteDistribution([(7, 1, 1.0)])
        h = Hypothesis(np.array([0, 1], dtype=np.uint8), 0)
        with pytest.raises(DomainMismatchError):
            exact_loss(d, h)

    @given(d=distributions(n=6), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_affine_in_mixture_weights(self, d, data):
        hclass = data.draw(hypothesis_classes(n=6, max_size=8))
        raw = data.draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                                 min_size=len(hclass), max_size=len(hclass)))
        w = np.asarray(raw) / sum(raw)
        mix = RandomizedHypothesis.from_weights(hclass.hypotheses, w)
        expected = sum(wi * exact_loss(d, h) for h, wi in zip(hclass.hypotheses, w))
        assert exact_loss(d, mix) == pytest.approx(expected, abs=1e-12)


class TestFiniteDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            FiniteDistribution([(0, 0, 0.6), (1, 1, 0.6)])

    def test_renormalizes_tiny_drift(self):
        d = FiniteDistribution([(0, 0, 0.5 + 2e-10), (1, 1, 0.5)])
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FiniteDistribution([(0, 0, 0.5), (0, 0, 0.5)])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FiniteDistribution([(0, 0, 1.2), (1, 1, -0.2)])

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            FiniteDistribution([(0, 2, 1.0)])

    @pytest.mark.parametrize("mass", [[np.nan, 1.0], [1.0, np.nan]])
    def test_rejects_nan_mass(self, mass):
        with pytest.raises(ValueError, match="FiniteDistribution"):
            FiniteDistribution([(0, 0, mass[0]), (1, 1, mass[1])])

    @pytest.mark.parametrize("mass", ["1.0", None, True, [1.0]])
    def test_rejects_masses_that_are_not_numbers(self, mass):
        # before the check, "1.0" was parsed, True read as 1.0 and [1.0] as
        # a one-mass row
        with pytest.raises(ValueError, match="FiniteDistribution: masses must be numbers"):
            FiniteDistribution([(0, 0, mass)])

    def test_integer_masses_load_as_floats(self):
        d = FiniteDistribution([(0, 0, 0), (1, 1, np.uint8(1))])
        assert d.probs.dtype == np.float64 and d.probs.tolist() == [0.0, 1.0]


class TestInverseCdf:
    @given(d=distributions(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_atom_index_matches_clamped_search(self, d, seed):
        cdf = np.cumsum(d.probs)
        u = np.concatenate([make_rng(seed).random(50), cdf, [0.0, np.nextafter(1.0, 0.0)]])
        u = u[u < 1.0]
        clamped = np.minimum(np.searchsorted(cdf, u, side="right"), d.support_size - 1)
        assert np.array_equal(d.atom_index(u), clamped)
        assert [int(d.atom_index(float(x))) for x in u] == clamped.tolist()

    def test_trailing_zero_mass_and_rounded_total(self):
        # the cumulative sum ends below 1; uniforms above it take the last atom
        d = FiniteDistribution([(x, 0, 0.1) for x in range(10)] + [(10, 1, 0.0)])
        last = float(np.cumsum(d.probs)[-1])
        assert last < 1.0
        assert int(d.atom_index(np.nextafter(1.0, 0.0))) == 10
        assert int(d.atom_index(last)) == 10
        assert int(d.atom_index(np.nextafter(last, 0.0))) == 9

    def test_bisected_float_matches_searchsorted(self):
        # random CDFs with zero masses and one-atom distributions, at every
        # edge and the doubles beside it, at 0.0 and at the largest double
        # below 1; the +inf last edge is rebuilt here, not read back
        rng = make_rng(8401)
        below_one = np.nextafter(1.0, 0.0)
        for size in [1] * 20 + [int(s) for s in rng.integers(2, 41, 400)]:
            probs = rng.random(size) * 10.0 ** rng.uniform(-8, 0, size)
            probs[rng.random(size) < 0.2] = 0.0
            probs[rng.integers(size)] += 0.5
            probs /= probs.sum()
            d = FiniteDistribution([(x, 0, p) for x, p in enumerate(probs)])
            cdf = np.cumsum(d.probs)
            edges = cdf[cdf < 1.0]
            u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                                [0.0, below_one], rng.random(20)])
            u = u[(u >= 0.0) & (u < 1.0)]
            cdf[-1] = np.inf
            expected = np.searchsorted(cdf, u, side="right").tolist()
            ours = [d.atom_index(x) for x in u.tolist()]
            assert all(type(i) is int for i in ours)
            assert ours == expected
            assert d.atom_index(u).tolist() == expected
            assert [int(d.atom_index(x)) for x in u] == expected  # numpy doubles
            if size == 1:
                assert set(ours) == {0}

    @given(d=distributions(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_scalar_draw_matches_one_element_batch(self, d, seed):
        inst = _instance([d], _class([0] * 6, [1] * 6), n=6)
        ledger = SampleLedger(1)
        ours, theirs = make_rng(seed), make_rng(seed)
        for _ in range(20):
            idx = int(d.draw_indices(1, theirs)[0])
            assert oracle_sample(inst, 0, ours, ledger) == LabeledExample(
                int(d.points[idx]), int(d.labels[idx]))
            assert ours.bit_generator.state == theirs.bit_generator.state
        assert ledger.per_oracle == [20]


class TestOracleSample:
    def test_degenerate(self):
        inst = _instance([FiniteDistribution([(1, 1, 1.0)])])
        ledger = SampleLedger(1)
        rng = make_rng(0)
        for _ in range(20):
            assert oracle_sample(inst, 0, rng, ledger) == LabeledExample(1, 1)

    def test_frequencies_within_3_sigma(self):
        probs = [0.2, 0.3, 0.5]
        inst = _instance([FiniteDistribution(
            [(0, 0, probs[0]), (1, 1, probs[1]), (2, 0, probs[2])])])
        ledger = SampleLedger(1)
        rng = make_rng(11)
        m = 100_000
        pts, _ = oracle_sample_many(inst, 0, m, rng, ledger)
        for x, p in enumerate(probs):
            sigma = (m * p * (1 - p)) ** 0.5
            assert abs(int((pts == x).sum()) - m * p) <= 3 * sigma

    def test_ledger_counts(self):
        inst = _instance([FiniteDistribution([(0, 0, 1.0)])] * 3)
        ledger = SampleLedger(3)
        rng = make_rng(5)
        for _ in range(7):
            oracle_sample(inst, 2, rng, ledger)
        assert ledger.per_oracle == [0, 0, 7]
        assert ledger.total == 7

    def test_index_out_of_range(self):
        inst = _instance([FiniteDistribution([(0, 0, 1.0)])])
        with pytest.raises(IndexError):
            oracle_sample(inst, 1, make_rng(0), SampleLedger(1))

    @staticmethod
    def _three_oracles() -> MdlInstance:
        return _instance([FiniteDistribution([(0, 0, 0.5), (j, 1, 0.5)]) for j in (1, 2, 3)])

    @pytest.mark.parametrize("bad, error, message", [
        (1.5, ValueError, "oracle indices must be integers"),
        (-1, IndexError, "oracle -1 out of range"),
        (3, IndexError, "oracle 3 out of range"),
        (7.0, IndexError, "oracle 7 out of range"),
    ])
    @pytest.mark.parametrize("prefix", [None, [], [2], [0, 1]])
    def test_bad_index_moves_neither_generator_nor_ledger(self, bad, error, message, prefix):
        # alone, or after valid indices in a sequence: every index is
        # checked before the first draw
        inst = self._three_oracles()
        rng, ledger = make_rng(3), SampleLedger(3)
        before = rng.bit_generator.state
        i = bad if prefix is None else [*prefix, bad]
        with pytest.raises(error, match=message):
            oracle_sample_many(inst, i, 5, rng, ledger)
        assert rng.bit_generator.state == before
        assert ledger.per_oracle == [0, 0, 0] and ledger.total == 0

    def test_integral_float_index_counts_as_its_integer(self):
        inst = self._three_oracles()
        for two in (2.0, np.float64(2.0), [2.0], np.array([2.0, 0.0])):
            rows, ints = make_rng(4), make_rng(4)
            ledger_rows, ledger_ints = SampleLedger(3), SampleLedger(3)
            got = oracle_sample_many(inst, two, 6, rows, ledger_rows)
            want = oracle_sample_many(inst, np.asarray(two).astype(int), 6, ints, ledger_ints)
            assert all(np.array_equal(a, b) and a.shape == b.shape for a, b in zip(got, want))
            assert ledger_rows.per_oracle == ledger_ints.per_oracle
            assert rows.bit_generator.state == ints.bit_generator.state

    def test_sequence_gives_a_row_per_index(self):
        inst = self._three_oracles()
        ledger = SampleLedger(3)
        points, labels = oracle_sample_many(inst, [2, 0, 2], 4, make_rng(5), ledger)
        assert points.shape == labels.shape == (3, 4)
        assert set(points[0][labels[0] == 1].tolist()) <= {3}
        assert set(points[1][labels[1] == 1].tolist()) <= {1}
        assert ledger.per_oracle == [4, 0, 8] and ledger.total == 12


class TestMixtureSample:
    def test_point_mass_hits_single_oracle(self):
        inst = _instance([FiniteDistribution([(0, 0, 1.0)]),
                          FiniteDistribution([(1, 1, 1.0)])])
        ledger = SampleLedger(2)
        rng = make_rng(3)
        for _ in range(25):
            z = mixture_sample(inst, [1.0, 0.0], rng, ledger)
            assert z == LabeledExample(0, 0)
        assert ledger.per_oracle == [25, 0]

    def test_uniform_counts_within_3_sigma(self):
        inst = _instance([FiniteDistribution([(0, 0, 1.0)]),
                          FiniteDistribution([(1, 1, 1.0)])])
        ledger = SampleLedger(2)
        m = 100_000
        mixture_sample_many(inst, [0.5, 0.5], m, make_rng(17), ledger)
        sigma = (m * 0.25) ** 0.5
        assert abs(ledger.per_oracle[0] - m / 2) <= 3 * sigma
        assert ledger.total == m

    def test_ledger_exact(self):
        inst = _instance([FiniteDistribution([(0, 0, 1.0)]),
                          FiniteDistribution([(1, 1, 1.0)])])
        ledger = SampleLedger(2)
        rng = make_rng(9)
        for _ in range(13):
            mixture_sample(inst, [0.3, 0.7], rng, ledger)
        assert ledger.total == 13

    def test_dimension_mismatch(self):
        inst = _instance([FiniteDistribution([(0, 0, 1.0)])])
        with pytest.raises(ValueError):
            mixture_sample(inst, [0.5, 0.5], make_rng(0), SampleLedger(1))

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan]])
    def test_rejects_nan_weights(self, weights):
        inst = _instance([FiniteDistribution([(0, 0, 1.0)]),
                          FiniteDistribution([(1, 1, 1.0)])])
        ledger = SampleLedger(2)
        with pytest.raises(ValueError, match="mixture weights"):
            mixture_sample(inst, weights, make_rng(0), ledger)
        assert ledger.total == 0

    @pytest.mark.parametrize("weights", [["0.5", "0.5"], [True, False], [None, None]])
    def test_rejects_weights_that_are_not_numbers(self, weights):
        # string weights were once parsed, and the mixture drawn
        inst = _instance([FiniteDistribution([(0, 0, 1.0)]),
                          FiniteDistribution([(1, 1, 1.0)])])
        ledger = SampleLedger(2)
        with pytest.raises(ValueError, match="mixture weights must be numbers"):
            mixture_sample(inst, weights, make_rng(0), ledger)
        assert ledger.total == 0


class _FixedUniform(np.random.Generator):
    """A generator whose every uniform is `u`.  ``choice`` draws through
    ``random``, so this hands it any double in [0, 1), not only the
    multiples of 2^-53 a bit generator yields."""

    u = 0.0

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u if size is None else np.full(size, self.u)


class TestMixtureIndexEdges:
    """``_mixture_index`` bisects the CDF and divides only the entries it
    probes; it must pick the index of the CDF divided in place, and of
    ``rng.choice``, at every edge of that CDF and one ulp below it."""

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 1024])
    def test_matches_the_divided_cdf_and_choice(self, k):
        draw = make_rng(derive_seed(8125, k))
        choice = _FixedUniform(np.random.PCG64(0))
        for trial in range(12):
            p = draw.random(k)
            if trial % 2:  # zero-weight plateaus, first and last entries too
                p[draw.random(k) < 0.5] = 0.0
                p[draw.integers(k)] += 0.5
            p /= p.sum()
            cdf = p.cumsum()
            cdf /= cdf[-1]
            edges = cdf[cdf < 1.0]
            us = np.concatenate([[0.0, 1.0 - 2.0 ** -53], edges, np.nextafter(edges, 0.0)])
            for u in us[us >= 0.0].tolist():
                choice.u = u
                want = int(cdf.searchsorted(u, side="right"))
                assert model._mixture_index(p, u) == want == int(choice.choice(k, p=p))
                assert p[want] > 0.0


def _shatters(matrix: np.ndarray, subset: tuple[int, ...]) -> bool:
    # independently written shattering check: collect behaviors as tuples
    behaviors = {tuple(row[list(subset)]) for row in matrix}
    return len(behaviors) == 2 ** len(subset)


def _vc_oracle(hclass: HypothesisClass, n: int) -> int:
    from itertools import combinations
    best = 0
    for m in range(1, n + 1):
        if any(_shatters(hclass.matrix, sub) for sub in combinations(range(n), m)):
            best = m
        else:
            break
    return best


class TestBruteForceVc:
    def test_singletons(self):
        assert brute_force_vc(HypothesisClass.from_family("singletons", 5), 5) == 1

    def test_thresholds_against_oracle(self):
        cls = HypothesisClass.from_family("thresholds", 8)
        assert brute_force_vc(cls, 8) == _vc_oracle(cls, 8) == 1

    def test_full_cube(self):
        vecs = [[(i >> j) & 1 for j in range(4)] for i in range(16)]
        assert brute_force_vc(HypothesisClass(vecs), 4) == 4

    def test_intervals_against_oracle(self):
        cls = HypothesisClass.from_family("intervals", 6)
        assert brute_force_vc(cls, 6) == _vc_oracle(cls, 6) == 2

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_classes_match_oracle(self, data):
        cls = data.draw(hypothesis_classes(n=5, max_size=10))
        assert brute_force_vc(cls, 5) == _vc_oracle(cls, 5)

    def test_guard(self):
        with pytest.raises(GuardError):
            brute_force_vc(HypothesisClass.from_family("thresholds", 30), 30)


class TestVcDimension:
    @pytest.mark.parametrize("family", ["thresholds", "intervals", "singletons"])
    def test_closed_form_matches_brute_force(self, family):
        # thresholds and intervals are one empty row at n = 0 (VC 0), and
        # singletons are empty there
        for n in range(family == "singletons", 21):
            cls = HypothesisClass.from_family(family, n)
            assert vc_dimension(cls) == brute_force_vc(cls, n), (family, n)

    def test_structured_classes_past_the_brute_force_guard(self):
        for family, vc in (("thresholds", 1), ("intervals", 2), ("singletons", 1)):
            assert vc_dimension(HypothesisClass.from_family(family, 200)) == vc

    def test_explicit_classes_use_brute_force(self):
        vecs = [[(i >> j) & 1 for j in range(4)] for i in range(16)]
        assert vc_dimension(HypothesisClass(vecs)) == 4
        # the thresholds' rows, but an explicit class: brute force and its guard
        rows = HypothesisClass.from_family("thresholds", 30).matrix
        with pytest.raises(GuardError):
            vc_dimension(HypothesisClass(rows))

    def test_the_class_keeps_its_vc(self, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "brute_force_vc", counted(model.brute_force_vc, calls))
        vecs = [[(i >> j) & 1 for j in range(4)] for i in range(16)]
        hclass = HypothesisClass(vecs)
        assert vc_dimension(hclass) == vc_dimension(hclass) == 4
        assert len(calls) == 1
        # a new class is searched again, even with the same rows
        assert vc_dimension(HypothesisClass(vecs)) == 4
        assert len(calls) == 2

    def test_a_guard_error_is_not_kept(self, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "brute_force_vc", counted(model.brute_force_vc, calls))
        hclass = HypothesisClass(HypothesisClass.from_family("thresholds", 30).matrix)
        for _ in range(2):
            with pytest.raises(GuardError):
                vc_dimension(hclass)
        assert len(calls) == 2

    def test_a_kept_zero_is_not_searched_again(self, monkeypatch):
        # 0 is a kept value, not a missing one: structured classes with
        # closed form 0 never search, and a one-row explicit class searches once
        calls = []
        monkeypatch.setattr(model, "brute_force_vc", counted(model.brute_force_vc, calls))
        for hclass in (HypothesisClass.from_family("thresholds", 0),
                       HypothesisClass.from_family("singletons", 1)):
            assert vc_dimension(hclass) == vc_dimension(hclass) == 0
        assert calls == []
        one_row = HypothesisClass([[0, 1, 1]])
        assert vc_dimension(one_row) == vc_dimension(one_row) == 0
        assert len(calls) == 1


class TestHypothesisClass:
    def test_deduplicates(self):
        cls = _class([0, 1], [0, 1], [1, 1])
        assert len(cls) == 2

    def test_ids_are_positions(self):
        cls = HypothesisClass.from_family("thresholds", 4)
        assert [h.id for h in cls.hypotheses] == list(range(len(cls)))

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            _class([0, 1], [0, 1, 1])

    def test_family_expansion_deterministic(self):
        a = HypothesisClass.from_family("intervals", 5)
        b = HypothesisClass.from_family("intervals", 5)
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("bad", [0.7, 2, -1, 1.5, float("nan")])
    def test_rejects_non_binary_labels(self, bad):
        # 0.7 used to be truncated to a 0 label
        with pytest.raises(ValueError, match=r"hypothesis labels must be in \{0, 1\}"):
            _class([bad, 1], [1, 1])

    def test_accepts_bools_and_integral_floats(self):
        expected = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        for rows in ([[False, True], [True, True]], [[0.0, 1.0], [1.0, 1.0]],
                     np.array([[0.0, 1.0], [1.0, 1.0]])):
            got = HypothesisClass(rows).matrix
            assert np.array_equal(got, expected) and got.dtype == np.uint8

    def test_empty_and_ragged_messages(self):
        with pytest.raises(ValueError, match="nonempty"):
            HypothesisClass([])
        with pytest.raises(ValueError, match="share one domain size"):
            HypothesisClass(iter([[0, 1], [0, 1, 1]]))

    def test_builders_size_the_class_before_building_it(self, monkeypatch):
        # the bound is inclusive; thresholds at n = 10 are 11 x 10 labels
        monkeypatch.setattr(model, "CLASS_CELL_GUARD", 110)
        assert len(HypothesisClass.from_family("thresholds", 10)) == 11
        assert len(HypothesisClass.from_family("singletons", 10)) == 10
        for family, n in (("thresholds", 11), ("intervals", 10), ("singletons", 11)):
            with pytest.raises(GuardError, match="class guard"):
                HypothesisClass.from_family(family, n)
        # an explicit draw is sized by min(class size, 2^n) rows
        assert len(evaluate._random_class(InstanceSpec("random", n=10, k=1, class_size=11,
                                                       seed=0), make_rng(0))) == 11
        with pytest.raises(GuardError, match="class guard"):
            evaluate._random_class(InstanceSpec("random", n=10, k=1, class_size=12, seed=0),
                                   make_rng(0))
        assert len(evaluate._random_class(InstanceSpec("random", n=3, k=1, class_size=10**9,
                                                       seed=0), make_rng(0))) == 8

    def test_matrix_does_not_alias_input(self):
        rows = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        cls = HypothesisClass(rows)
        rows[0, 0] = 1
        assert cls.matrix[0, 0] == 0


class TestFamilyTag:
    """A structured family's tag comes only from ``from_family``, the one
    builder of structured classes, so the tag always names the rows the
    class holds."""

    def test_constructor_takes_no_tag(self):
        # a one-row class tagged "intervals" used to report VC 2 and reload
        # from its file as the 7-row interval class
        with pytest.raises(TypeError):
            HypothesisClass([[0, 0, 0]], "intervals")
        assert HypothesisClass([[0, 0, 0]]).family_tag == "explicit"

    @pytest.mark.parametrize("family", ["thresholds", "intervals", "singletons"])
    def test_builders_tag_their_classes(self, family):
        assert not hasattr(HypothesisClass, family)
        assert HypothesisClass.from_family(family, 5).family_tag == family
        assert HypothesisClass.from_family("explicit", 2, [[0, 1]]).family_tag == "explicit"

    @staticmethod
    def _round_trip(hclass: HypothesisClass) -> HypothesisClass:
        n = hclass.domain_size
        inst = MdlInstance(n, [FiniteDistribution([(n - 1, 1, 1.0)])], hclass)
        return MdlInstance.from_dict(inst.to_dict()).hypothesis_class

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_round_trip_keeps_every_matrix(self, n):
        built = [HypothesisClass.from_family(f, n) for f in ("thresholds", "intervals",
                                                              "singletons")]
        absent = np.ones(n, dtype=np.uint8)
        absent[0] = 0
        # _with_member prepends a row a structured class lacks, so the
        # result must be (and is tagged) explicit
        thresholds, intervals, singletons = built
        built += [_with_member(singletons, absent)[0], _with_member(thresholds, absent)[0],
                  projection_cover(intervals, [0, n - 1]).subclass]
        for hclass in built:
            again = self._round_trip(hclass)
            assert np.array_equal(again.matrix, hclass.matrix)
            assert again.family_tag == hclass.family_tag
            assert vc_dimension(again) == brute_force_vc(hclass, n)


class TestRandomizedHypothesis:
    def test_weights_normalized(self):
        h0 = Hypothesis(np.array([0], dtype=np.uint8), 0)
        with pytest.raises(ValueError):
            RandomizedHypothesis.from_weights([h0, h0], [0.4, 0.4])

    def test_zero_weights_dropped(self):
        cls = _class([0], [1])
        mix = RandomizedHypothesis.from_weights(cls.hypotheses, [0.0, 1.0])
        assert mix.ids.tolist() == [1] and mix.labels.tolist() == [[1]]
        assert mix.weights.tolist() == [1.0]

    def test_ids_default_to_rows_and_follow_given_ids(self):
        matrix = np.array([[0, 1], [1, 1], [1, 0]], dtype=np.uint8)
        mix = RandomizedHypothesis(matrix, [0.5, 0.0, 0.5])
        assert mix.ids.tolist() == [0, 2]
        assert np.array_equal(mix.labels, matrix[[0, 2]])
        assert RandomizedHypothesis(matrix, [0.0, 1.0, 0.0], [7, 8, 9]).ids.tolist() == [8]

    @pytest.mark.parametrize("weights", [[0.0, 0.0], [-1.0, 0.0], [1.0]])
    def test_rejects_empty_or_mismatched_weights(self, weights):
        with pytest.raises(ValueError):
            RandomizedHypothesis(np.eye(2, dtype=np.uint8), weights)

    @pytest.mark.parametrize("bad", [-0.25, np.nan, -np.inf])
    def test_rejects_a_negative_or_nan_weight_it_would_drop(self, bad):
        # the bad weight's row is not kept, but the weights are still checked
        cls = _class([0], [1])
        for build in (lambda: RandomizedHypothesis(cls.matrix, [bad, 1.0]),
                      lambda: RandomizedHypothesis.from_weights(cls.hypotheses, [bad, 1.0])):
            with pytest.raises(ValueError,
                               match="RandomizedHypothesis: negative or NaN probability"):
                build()

    def test_empty_weights_have_no_atom(self):
        for build in (lambda: RandomizedHypothesis(np.zeros((0, 2), np.uint8), []),
                      lambda: RandomizedHypothesis.from_weights([], [])):
            with pytest.raises(ValueError, match="mixture needs at least one atom"):
                build()


class TestSerialization:
    def test_round_trip(self):
        inst = _instance([FiniteDistribution([(0, 0, 0.25), (3, 1, 0.75)])],
                         hclass=HypothesisClass.from_family("thresholds", 4))
        again = MdlInstance.from_dict(inst.to_dict())
        assert again.to_dict() == inst.to_dict()

    def test_file_round_trip(self, tmp_path):
        inst = _instance([FiniteDistribution([(1, 1, 1.0)])])
        path = tmp_path / "inst.json"
        inst.save(str(path))
        again = MdlInstance.load(str(path))
        assert again.to_dict() == inst.to_dict()
        # probabilities survive the decimal round trip losslessly
        raw = json.loads(path.read_text())
        assert raw["distributions"][0][0][2] == 1.0

    SAVE_CASES = {
        **{family: InstanceSpec(family, n=9, k=5, class_size=60, seed=3)
           for family in GENERATOR_FAMILIES},
        # structured classes: no "hypotheses" key
        **{cf: InstanceSpec("shared_bayes", n=7, k=4, class_size=1, seed=2,
                            class_family=cf)
           for cf in ("thresholds", "intervals", "singletons")},
        "n1": InstanceSpec("random", n=1, k=3, class_size=2, seed=1),
        "one_row": InstanceSpec("random", n=6, k=2, class_size=1, seed=4),
        "k1": InstanceSpec("random", n=5, k=1, class_size=8, seed=2),
        "k64_h1024": InstanceSpec("realizable", n=12, k=64, class_size=1024, seed=3),
        # 64 positions over 2 distribution objects, each formatted once
        "opposed_k64": InstanceSpec("opposed_labels", n=12, k=64, class_size=1024, seed=3),
    }

    @staticmethod
    def _assert_save_bytes(inst, tmp_path):
        path, stream = tmp_path / "inst.json", tmp_path / "stream.json"
        inst.save(str(path))
        with open(stream, "w", encoding="utf-8") as f:
            json.dump(inst.to_dict(), f, sort_keys=True)
            f.write("\n")
        assert path.read_bytes() == stream.read_bytes()
        return path

    @pytest.mark.parametrize("case", SAVE_CASES)
    def test_save_bytes_equal_streaming_encoder(self, case, tmp_path):
        path = self._assert_save_bytes(generate(self.SAVE_CASES[case]), tmp_path)
        # loading renormalizes the masses, which may move their last bits,
        # so a reloaded instance is held to its own reference
        self._assert_save_bytes(MdlInstance.load(str(path)), tmp_path)

    @pytest.mark.parametrize("case", SAVE_CASES)
    def test_load_shares_what_the_file_repeats(self, case, tmp_path):
        # positions with equal distribution texts load as one object, which
        # changes no saved byte: an instance built with one object per
        # position saves the same file, and a reload keeps the sharing
        path = tmp_path / "inst.json"
        generate(self.SAVE_CASES[case]).save(str(path))
        raw = json.loads(path.read_text())
        texts = [json.dumps(d) for d in raw["distributions"]]
        first = list(dict.fromkeys(texts))
        loaded = MdlInstance.load(str(path))
        assert loaded.distinct_index == [first.index(t) for t in texts]
        assert all(loaded.distributions[i] is loaded.distinct[j]
                   for i, j in enumerate(loaded.distinct_index))
        unshared = MdlInstance(loaded.domain_size,
                               [FiniteDistribution(map(tuple, d)) for d in raw["distributions"]],
                               loaded.hypothesis_class)
        assert len(unshared.distinct) == unshared.k
        again = tmp_path / "again.json"
        loaded.save(str(path))
        unshared.save(str(again))
        assert path.read_bytes() == again.read_bytes()
        assert len(MdlInstance.load(str(path)).distinct) == len(loaded.distinct)

    def test_load_keeps_negative_zero_apart(self, tmp_path):
        # 0.0 == -0.0, but the saved text tells them apart
        path = tmp_path / "inst.json"
        raw = {"class": {"family": "thresholds"}, "domain_size": 2,
               "distributions": [[[0, 0, 0.0], [1, 1, 1.0]], [[0, 0, -0.0], [1, 1, 1.0]],
                                 [[0, 0, 0.0], [1, 1, 1.0]]]}
        path.write_text(json.dumps(raw, sort_keys=True) + "\n")
        loaded = MdlInstance.load(str(path))
        assert loaded.distinct_index == [0, 1, 0]
        text = path.read_bytes()
        loaded.save(str(path))
        assert path.read_bytes() == text

    @pytest.mark.parametrize("value", [2.0, 2.5, "2"])
    def test_domain_size_loads_only_as_an_integer(self, value, tmp_path):
        # before the check, int() truncated 2.5 to 2 and parsed "2"
        obj = _instance([FiniteDistribution([(1, 1, 1.0)])], n=2).to_dict()
        obj["domain_size"] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj))
        if value != 2.0:
            with pytest.raises(ValueError, match="domain_size must be integers"):
                MdlInstance.load(str(path))
            return
        loaded = MdlInstance.load(str(path))
        assert type(loaded.domain_size) is int and loaded.domain_size == 2

    def test_restrict_keeps_sharing(self):
        inst = generate(InstanceSpec("opposed_labels", n=6, k=8, class_size=16, seed=1))
        sub = inst.restrict([5, 0, 6, 1, 0])
        assert sub.distinct == [inst.distributions[5], inst.distributions[0]]
        assert sub.distinct_index == [0, 1, 0, 1, 1]
        assert all(sub.distributions[i] is sub.distinct[j]
                   for i, j in enumerate(sub.distinct_index))

    def test_save_dumps_as_often_at_k2_as_at_k64(self, tmp_path, monkeypatch):
        # the distinct distributions are dumped in one call, not one each
        dumps, calls = json.dumps, []

        def counted(*args, **kwargs):
            calls.append(1)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(model.json, "dumps", counted)
        counts = []
        for k in (2, 64):
            inst = generate(InstanceSpec("random", n=12, k=k, class_size=64, seed=7))
            assert len({id(d) for d in inst.distributions}) == k
            calls.clear()
            inst.save(str(tmp_path / f"k{k}.json"))
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(99).random(16)
        b = make_rng(99).random(16)
        assert np.array_equal(a, b)

    def test_ledger_never_decreases(self):
        ledger = SampleLedger(2)
        with pytest.raises(ValueError):
            ledger.record(0, -1)

    def test_ledger_counts_add_up_as_single_records(self):
        # a count vector may stop short of k; the counters it skips stay put
        ours, theirs = SampleLedger(4), SampleLedger(4)
        for counts in ([2, 0, 5], [], [1, 1, 1, 1], [0, 3]):
            ours.record_counts(counts)
            for i, n in enumerate(counts):
                theirs.record(i, n)
        assert ours.per_oracle == theirs.per_oracle == [3, 4, 6, 1]
        assert ours.total == theirs.total == 14
        assert all(type(n) is int for n in ours.per_oracle)


class TestPredictionMean:
    @given(hclass=hypothesis_classes(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_sequential_loop_bitwise(self, hclass, data):
        m = data.draw(st.integers(1, len(hclass)))
        raw = np.array(data.draw(st.lists(st.floats(1e-6, 1.0), min_size=m, max_size=m)))
        self._check(RandomizedHypothesis(hclass.matrix[:m], raw / raw.sum()))

    def test_equals_sequential_loop_on_wide_mixtures(self):
        rng = make_rng(31)
        for m in (1, 2, 1000):
            hclass = HypothesisClass(rng.integers(0, 2, size=(m, 16)))
            raw = rng.random(len(hclass))
            self._check(RandomizedHypothesis.from_weights(hclass.hypotheses,
                                                          raw / raw.sum()))

    @staticmethod
    def _check(mix):
        loop = np.zeros(mix.labels.shape[1])
        for labels, w in zip(mix.labels, mix.weights.tolist()):
            loop += w * labels
        assert mix.prediction_mean().tobytes() == loop.tobytes()
