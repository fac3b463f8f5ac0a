import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import distributions, hypothesis_classes
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
    _draw,
    brute_force_vc,
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
        for h in _class([0], [1]):
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
        expected = sum(wi * exact_loss(d, h) for h, wi in zip(hclass, w))
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

    @given(d=distributions(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_scalar_draw_matches_one_element_batch(self, d, seed):
        inst = _instance([d], _class([0] * 6, [1] * 6), n=6)
        ledger = SampleLedger(1)
        ours, theirs = make_rng(seed), make_rng(seed)
        for _ in range(20):
            idx = int(d.draw_indices(1, theirs)[0])
            assert _draw(inst, 0, ours.random(), ledger) == (
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
        assert brute_force_vc(HypothesisClass.singletons(5), 5) == 1

    def test_thresholds_against_oracle(self):
        cls = HypothesisClass.thresholds(8)
        assert brute_force_vc(cls, 8) == _vc_oracle(cls, 8) == 1

    def test_full_cube(self):
        vecs = [[(i >> j) & 1 for j in range(4)] for i in range(16)]
        assert brute_force_vc(HypothesisClass(vecs), 4) == 4

    def test_intervals_against_oracle(self):
        cls = HypothesisClass.intervals(6)
        assert brute_force_vc(cls, 6) == _vc_oracle(cls, 6) == 2

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_classes_match_oracle(self, data):
        cls = data.draw(hypothesis_classes(n=5, max_size=10))
        assert brute_force_vc(cls, 5) == _vc_oracle(cls, 5)

    def test_guard(self):
        with pytest.raises(GuardError):
            brute_force_vc(HypothesisClass.thresholds(30), 30)


class TestVcDimension:
    @pytest.mark.parametrize("family", ["thresholds", "intervals", "singletons"])
    def test_closed_form_matches_brute_force(self, family):
        for n in range(1, 21):
            cls = HypothesisClass.from_family(family, n)
            assert vc_dimension(cls) == brute_force_vc(cls, n), (family, n)

    def test_structured_classes_past_the_brute_force_guard(self):
        for family, vc in (("thresholds", 1), ("intervals", 2), ("singletons", 1)):
            assert vc_dimension(HypothesisClass.from_family(family, 200)) == vc

    def test_explicit_classes_use_brute_force(self):
        vecs = [[(i >> j) & 1 for j in range(4)] for i in range(16)]
        assert vc_dimension(HypothesisClass(vecs)) == 4
        # the thresholds' rows, but an explicit class: brute force and its guard
        with pytest.raises(GuardError):
            vc_dimension(HypothesisClass(HypothesisClass.thresholds(30).matrix))


class TestHypothesisClass:
    def test_deduplicates(self):
        cls = _class([0, 1], [0, 1], [1, 1])
        assert len(cls) == 2

    def test_ids_are_positions(self):
        cls = HypothesisClass.thresholds(4)
        assert [h.id for h in cls] == list(range(len(cls)))

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ValueError):
            _class([0, 1], [0, 1, 1])

    def test_family_expansion_deterministic(self):
        a = HypothesisClass.intervals(5)
        b = HypothesisClass.intervals(5)
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

    def test_matrix_does_not_alias_input(self):
        rows = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        cls = HypothesisClass(rows)
        rows[0, 0] = 1
        assert cls.matrix[0, 0] == 0


class TestFamilyTag:
    """A structured family's tag comes only from its builder, so the tag
    always names the rows the class holds."""

    def test_constructor_takes_no_tag(self):
        # a one-row class tagged "intervals" used to report VC 2 and reload
        # from its file as the 7-row interval class
        with pytest.raises(TypeError):
            HypothesisClass([[0, 0, 0]], "intervals")
        assert HypothesisClass([[0, 0, 0]]).family_tag == "explicit"

    @pytest.mark.parametrize("family", ["thresholds", "intervals", "singletons"])
    def test_builders_tag_their_classes(self, family):
        assert getattr(HypothesisClass, family)(5).family_tag == family
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
        built += [_with_member(HypothesisClass.singletons(n), absent)[0],
                  _with_member(HypothesisClass.thresholds(n), absent)[0],
                  projection_cover(HypothesisClass.intervals(n), [0, n - 1]).subclass]
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


class TestSerialization:
    def test_round_trip(self):
        inst = _instance([FiniteDistribution([(0, 0, 0.25), (3, 1, 0.75)])],
                         hclass=HypothesisClass.thresholds(4))
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

    @pytest.mark.parametrize("family", GENERATOR_FAMILIES)
    def test_save_bytes_equal_streaming_encoder(self, family, tmp_path):
        inst = generate(InstanceSpec(family, n=9, k=5, class_size=60, seed=3))
        path = tmp_path / "inst.json"
        inst.save(str(path))
        with open(tmp_path / "stream.json", "w", encoding="utf-8") as f:
            json.dump(inst.to_dict(), f, sort_keys=True)
            f.write("\n")
        assert path.read_bytes() == (tmp_path / "stream.json").read_bytes()


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(99).random(16)
        b = make_rng(99).random(16)
        assert np.array_equal(a, b)

    def test_ledger_never_decreases(self):
        ledger = SampleLedger(2)
        with pytest.raises(ValueError):
            ledger.record(0, -1)


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
