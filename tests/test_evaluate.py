import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import small_instances
from multidist import evaluate
from multidist.algos import RunReport
from multidist.evaluate import (
    InstanceSpec,
    brute_force_opt,
    generate,
    loss_matrix,
    max_loss,
    minority_bound_check,
    smooth_argmax,
)
from multidist.model import (
    FiniteDistribution,
    GuardError,
    HypothesisClass,
    MdlInstance,
    RandomizedHypothesis,
    derive_seed,
    exact_loss,
    make_rng,
)

from reference_instance import reference_loss_matrix
from test_online import _capped_vertices


def _opposed_instance():
    # one point, two distributions with opposite labels, constant hypotheses
    d0 = FiniteDistribution([(0, 0, 1.0)])
    d1 = FiniteDistribution([(0, 1, 1.0)])
    cls = HypothesisClass([[0], [1]])
    return MdlInstance(1, [d0, d1], cls)


class TestBruteForceOpt:
    def test_consistent_hypothesis_gives_zero(self):
        inst = generate(InstanceSpec("realizable", n=6, k=3, class_size=10, seed=5))
        assert brute_force_opt(inst).opt_value == pytest.approx(0.0, abs=1e-12)

    def test_opposed_two_by_two(self):
        # exhaustively: both constants err fully on one side -> OPT = 1
        result = brute_force_opt(_opposed_instance())
        assert result.opt_value == 1.0
        assert result.loss_matrix.shape == (2, 2)
        assert result.loss_matrix.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_permutation_invariance(self):
        inst = generate(InstanceSpec("random", n=6, k=4, class_size=12, seed=8))
        perm = MdlInstance(inst.domain_size,
                           [inst.distributions[i] for i in (2, 0, 3, 1)],
                           inst.hypothesis_class)
        assert brute_force_opt(inst).opt_value == pytest.approx(
            brute_force_opt(perm).opt_value, abs=1e-15)

    def test_argmin_lowest_id_on_ties(self):
        d = FiniteDistribution([(0, 1, 1.0)])
        cls = HypothesisClass([[0], [1], [0, ]])
        inst = MdlInstance(1, [d], HypothesisClass([[1], [0]]))
        assert brute_force_opt(inst).argmin_id == 0

    def test_guard(self):
        cls = HypothesisClass([[i >> j & 1 for j in range(12)] for i in range(4096)])
        dists = [FiniteDistribution([(x, 0, 1.0 / 12) for x in range(12)])
                 for _ in range(300)]
        inst = MdlInstance(12, dists, cls)
        with pytest.raises(GuardError):
            brute_force_opt(inst)

    @given(inst=small_instances())
    @settings(max_examples=25, deadline=None)
    def test_opt_lower_bounds_every_hypothesis(self, inst):
        result = brute_force_opt(inst)
        for h in inst.hypothesis_class.hypotheses:
            assert result.opt_value <= max_loss(inst, h)[0] + 1e-12


def _assert_bitwise_reference(inst):
    got, want = loss_matrix(inst), reference_loss_matrix(inst)
    assert got.shape == want.shape == (inst.k, len(inst.hypothesis_class))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestLossMatrixReference:
    @pytest.mark.parametrize("family", evaluate.GENERATOR_FAMILIES)
    def test_generated_instances_bitwise(self, family):
        # every n from 1 to 20, |H| from 1 to 4096 (capped at 2^n), k from 1
        # to 64; opposed_labels needs two distributions
        for n in range(1, 21):
            for j, size in enumerate((1, 60, 4096)):
                k = (1, 7, 64)[(n + j) % 3]
                k = max(k, 2) if family == "opposed_labels" else k
                _assert_bitwise_reference(generate(InstanceSpec(
                    family, n=n, k=k, class_size=size, seed=100 * n + j)))

    @pytest.mark.parametrize("class_family,n", [("thresholds", 5000), ("intervals", 200)])
    def test_structured_classes_bitwise(self, class_family, n):
        _assert_bitwise_reference(generate(InstanceSpec(
            "shared_bayes", n=n, k=64, class_size=1, seed=4, class_family=class_family)))

    @pytest.mark.parametrize("k", [2, 3, 64])
    def test_repeated_distribution_objects_bitwise(self, k):
        # opposed_labels lists two distribution objects, each repeated
        for seed in range(5):
            inst = generate(InstanceSpec("opposed_labels", n=12, k=k, class_size=1024,
                                         seed=seed))
            assert len({id(d) for d in inst.distributions}) == 2
            _assert_bitwise_reference(inst)

    def test_one_object_at_positions_apart(self):
        rng = make_rng(11)
        cls = HypothesisClass(rng.integers(0, 2, size=(300, 9)))
        a, b, c = (FiniteDistribution(zip(rng.choice(9, 4, replace=False).tolist(),
                                          rng.integers(0, 2, 4).tolist(),
                                          rng.dirichlet(np.ones(4)).tolist()))
                   for _ in range(3))
        inst = MdlInstance(9, [a, b, a, c, b, a], cls)
        got = loss_matrix(inst)
        _assert_bitwise_reference(inst)
        assert np.array_equal(got[0], got[2]) and np.array_equal(got[0], got[5])
        assert np.array_equal(got[1], got[4])

    @pytest.mark.parametrize("family", ["realizable", "shared_bayes"])
    def test_blocks_stay_within_the_entry_budget(self, family, monkeypatch):
        # a block holds several distinct objects, yet no more table entries
        # than the budget unless it is one object alone
        inst = generate(InstanceSpec(family, n=12, k=64, class_size=1024, seed=5))
        blocks = []
        loss_rows = evaluate._loss_rows

        def recording(hmat, dists, block, out):
            blocks.append((len(block), sum(dists[i].support_size for i in block) * len(hmat)))
            return loss_rows(hmat, dists, block, out)

        monkeypatch.setattr(evaluate, "_loss_rows", recording)
        _assert_bitwise_reference(inst)
        assert sum(n for n, _ in blocks) == 64 and max(n for n, _ in blocks) > 1
        assert all(e <= evaluate._GATHER_ENTRIES or n == 1 for n, e in blocks)


class TestSharedObjects:
    """The loss table and its guard work once per distinct object, and the
    table they return is bounded too."""

    def test_many_positions_over_two_objects_are_accepted(self):
        # 1000 positions x 4096 rows x 3 atoms is past the cell guard counted
        # per position; its 2 distinct objects need 2 x 3 x 4096 cells
        inst, opt = evaluate.generate_with_opt(InstanceSpec(
            "opposed_labels", n=12, k=1000, class_size=4096, seed=1))
        assert len(inst.distinct) == 2
        assert opt.opt_value >= 0.5
        _assert_bitwise_reference(inst)

    def test_table_entries_are_bounded_before_it_is_allocated(self, monkeypatch):
        # one object at 2500 positions: 4096 x 12 cells, but a table of
        # 2500 x 4096 entries, past the guard
        cls = HypothesisClass((np.arange(4096)[:, None] >> np.arange(12)) & 1)
        inst = MdlInstance(12, [FiniteDistribution([(x, 0, 1 / 12) for x in range(12)])]
                           * 2500, cls)

        def never(*args, **kwargs):
            raise AssertionError("the table was allocated before the guard")

        monkeypatch.setattr(evaluate.np, "empty", never)
        with pytest.raises(GuardError, match="loss matrix would hold 10240000 entries"):
            loss_matrix(inst)

    def test_table_bound_is_inclusive(self, monkeypatch):
        inst = generate(InstanceSpec("opposed_labels", n=4, k=64, class_size=16, seed=2))
        entries = inst.k * len(inst.hypothesis_class)
        monkeypatch.setattr(evaluate, "OPT_CELL_GUARD", entries - 1)
        with pytest.raises(GuardError, match=f"would hold {entries} entries"):
            loss_matrix(inst)
        monkeypatch.setattr(evaluate, "OPT_CELL_GUARD", entries)
        _assert_bitwise_reference(inst)

    @pytest.mark.parametrize("family", ["random", "realizable", "shared_bayes"])
    def test_all_distinct_instances_keep_their_guard(self, family, monkeypatch):
        # with every object distinct the guard counts |H| x the sum of all
        # supports, as it did per position, and names that count
        instances = [generate(InstanceSpec(family, n=3 + seed, k=1 + 7 * seed,
                                           class_size=60, seed=seed)) for seed in range(10)]
        for inst in instances:
            assert len(inst.distinct) == inst.k
            cells = len(inst.hypothesis_class) * sum(
                d.support_size for d in inst.distributions)
            monkeypatch.setattr(evaluate, "OPT_CELL_GUARD", cells - 1)
            with pytest.raises(GuardError, match=f"would need {cells} cell evaluations$"):
                loss_matrix(inst)
            monkeypatch.setattr(evaluate, "OPT_CELL_GUARD", cells)
            _assert_bitwise_reference(inst)

    def test_audit_scores_each_object_once(self, monkeypatch):
        inst = generate(InstanceSpec("opposed_labels", n=6, k=64, class_size=20, seed=4))
        h = inst.hypothesis_class.hypotheses[3]
        want = [exact_loss(d, h) for d in inst.distributions]
        calls = []

        def counted(d, hyp):
            calls.append(d)
            return exact_loss(d, hyp)

        monkeypatch.setattr(evaluate, "exact_loss", counted)
        assert max_loss(inst, h) == (max(want), int(np.argmax(want)))
        minority_bound_check(inst, h)
        report = RunReport("argmin_stub", 0, {}, RandomizedHypothesis(h.labels[None], [1.0]),
                           [0] * inst.k, 0, [])
        opt = brute_force_opt(inst)
        assert evaluate.evaluate_run(inst, report, 0.1, 0.25, opt)["max_loss"] == max(want)
        assert len(calls) == 3 * len(inst.distinct) == 6
        # a personalized run's assignments are scored per position
        calls.clear()
        evaluate.evaluate_run(inst, RunReport("personalized", 0, {}, None, [0] * inst.k, 0, [],
                                              assignments=dict.fromkeys(range(inst.k), h)),
                              0.1, 0.25, opt)
        assert len(calls) == inst.k


class TestMaxLoss:
    def test_argmin_attains_opt(self):
        inst = generate(InstanceSpec("random", n=6, k=3, class_size=10, seed=2))
        result = brute_force_opt(inst)
        h = inst.hypothesis_class.hypotheses[result.argmin_id]
        assert max_loss(inst, h)[0] == pytest.approx(result.opt_value, abs=1e-15)

    def test_uniform_mixture_on_opposed_instance(self):
        inst = _opposed_instance()
        mix = RandomizedHypothesis.from_weights(
            inst.hypothesis_class.hypotheses, [0.5, 0.5])
        # hand sum: each distribution sees half the mass wrong
        value, _ = max_loss(inst, mix)
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_permutation_invariant_value(self):
        inst = generate(InstanceSpec("random", n=5, k=3, class_size=8, seed=3))
        h = inst.hypothesis_class.hypotheses[0]
        perm = inst.restrict([2, 1, 0])
        assert max_loss(inst, h)[0] == pytest.approx(max_loss(perm, h)[0], abs=1e-15)


class TestSmoothArgmax:
    def test_frozen_example(self):
        value, weights = smooth_argmax([0.9, 0.5, 0.1, 0.3], 0.5)
        assert value == pytest.approx(0.7, abs=1e-15)
        assert np.allclose(weights, [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_cap_one_is_plain_max(self):
        value, weights = smooth_argmax([0.2, 0.8, 0.5], 1.0)
        assert value == pytest.approx(0.8, abs=1e-15)
        assert np.allclose(weights, [0, 1, 0], atol=1e-15)

    def test_uniform_losses(self):
        value, _ = smooth_argmax([0.3, 0.3, 0.3], 0.5)
        assert value == pytest.approx(0.3, abs=1e-12)

    def test_tie_prefers_lowest_index(self):
        _, weights = smooth_argmax([0.5, 0.5, 0.1], 0.6)
        assert weights[0] == pytest.approx(0.6)
        assert weights[1] == pytest.approx(0.4)

    def test_infeasible_cap(self):
        with pytest.raises(ValueError):
            smooth_argmax([0.1, 0.2], 0.3)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_vertex_enumeration(self, data):
        k = data.draw(st.integers(min_value=1, max_value=6))
        losses = np.asarray(data.draw(st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=k, max_size=k)))
        cap = min(1.0, 2.0 / k)
        value, weights = smooth_argmax(losses, cap)
        best = max(float(v @ losses) for v in _capped_vertices(k, cap))
        assert value == pytest.approx(best, abs=1e-12)
        assert float(weights.max()) <= cap + 1e-12
        assert float(weights.sum()) == pytest.approx(1.0, abs=1e-12)


def _minority_oracle(instance, h, smooth_value=None):
    # independent enumeration of every subset with at least half the
    # distributions (2^k of them)
    k = instance.k
    losses = [exact_loss(d, h) for d in instance.distributions]
    if smooth_value is None:
        smooth_value, _ = smooth_argmax(losses, min(1.0, 2.0 / k))
    for mask in range(1, 1 << k):
        if 2 * mask.bit_count() < k:
            continue
        subset_max = max(losses[i] for i in range(k) if mask >> i & 1)
        if subset_max <= smooth_value + 1e-12:
            return True
    return False


class TestMinorityBound:
    def test_k_equals_one(self):
        inst = generate(InstanceSpec("random", n=4, k=1, class_size=6, seed=1))
        assert minority_bound_check(inst, inst.hypothesis_class.hypotheses[0])

    def test_matches_independent_oracle_and_holds(self):
        rng = make_rng(5150)
        for s in range(120):
            k = 1 + (s % 12)
            inst = generate(InstanceSpec("random", n=4 + (s % 6), k=k,
                                         class_size=6 + (s % 10),
                                         seed=derive_seed(88, s)))
            cls = inst.hypothesis_class
            if s % 2:
                h = cls.hypotheses[int(rng.integers(len(cls)))]
            else:
                h = RandomizedHypothesis.from_weights(
                    cls.hypotheses, rng.dirichlet(np.ones(len(cls))))
            got = minority_bound_check(inst, h)
            assert got == _minority_oracle(inst, h)
            assert got  # the bound is a theorem: False means a bug

    def test_matches_enumeration_beyond_old_guard(self):
        # k = 13..16 used to be refused by a k <= 12 guard
        for k in range(13, 17):
            for s in range(3):
                inst = generate(InstanceSpec("random", n=6, k=k, class_size=10,
                                             seed=derive_seed(89, k, s)))
                for h in inst.hypothesis_class.hypotheses[:4]:
                    got = minority_bound_check(inst, h)
                    assert got == _minority_oracle(inst, h)
                    assert got

    def test_k_64(self):
        inst = generate(InstanceSpec("shared_bayes", n=10, k=64, class_size=50,
                                     seed=4))
        for h in inst.hypothesis_class.hypotheses[:5]:
            assert minority_bound_check(inst, h) is True

    def test_matches_enumeration_at_every_threshold(self, monkeypatch):
        # the bound always holds at the true 2-smooth max, so move the
        # threshold across tied and untied losses to exercise both answers
        rng = make_rng(77)
        for s in range(200):
            k = 1 + s % 9
            losses = rng.integers(0, 5, size=k) / 4.0
            dists = [FiniteDistribution([(0, 1, 1 - v), (0, 0, v)]) if 0 < v < 1
                     else FiniteDistribution([(0, int(v == 0), 1.0)]) for v in losses]
            inst = MdlInstance(1, dists, HypothesisClass([[1]]))
            h = inst.hypothesis_class.hypotheses[0]
            for t in (0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 0.6):
                monkeypatch.setattr(evaluate, "smooth_argmax", lambda v, cap: (t, None))
                assert minority_bound_check(inst, h) == _minority_oracle(inst, h, t)


class TestGenerate:
    def test_realizable_has_zero_opt(self):
        inst = generate(InstanceSpec("realizable", n=8, k=4, class_size=12, seed=7))
        assert brute_force_opt(inst).opt_value <= 1e-12

    def test_opposed_has_high_opt(self):
        inst = generate(InstanceSpec("opposed_labels", n=6, k=4, class_size=8, seed=7))
        assert brute_force_opt(inst).opt_value >= 0.5 - 1e-9

    def test_shared_bayes_has_common_argmin(self):
        inst = generate(InstanceSpec("shared_bayes", n=6, k=4, class_size=8, seed=7))
        matrix = loss_matrix(inst)
        per_dist_min = matrix.min(axis=1)
        # some single column is simultaneously optimal for every distribution
        simultaneous = np.all(matrix <= per_dist_min[:, None] + 1e-12, axis=0)
        assert bool(simultaneous.any())

    def test_same_seed_same_instance(self):
        spec = InstanceSpec("random", n=6, k=3, class_size=10, seed=99)
        assert generate(spec).to_dict() == generate(spec).to_dict()

    def test_structured_class_family(self):
        inst = generate(InstanceSpec("realizable", n=6, k=2, class_size=4,
                                     seed=3, class_family="thresholds"))
        assert inst.hypothesis_class.family_tag == "thresholds"
        assert brute_force_opt(inst).opt_value <= 1e-12

    def test_opposed_requires_two_distributions(self):
        with pytest.raises(ValueError):
            InstanceSpec("opposed_labels", n=4, k=1, class_size=4, seed=0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            InstanceSpec("bogus", n=4, k=2, class_size=4, seed=0)

    @pytest.mark.parametrize("family, cells", [
        ("realizable", 10), ("opposed_labels", 10), ("shared_bayes", 20)])
    def test_loss_matrix_bound_before_the_build(self, family, cells, monkeypatch):
        # at n = 1 every support is the one point, so the 2 thresholds at
        # k = 5 need exactly the bound: 2 x 5 cells, x 2 atoms for shared_bayes
        spec = InstanceSpec(family, n=1, k=5, class_size=1, seed=0,
                            class_family="thresholds")
        monkeypatch.setattr(evaluate, "OPT_CELL_GUARD", cells)
        instance, _ = evaluate.generate_with_opt(spec)
        assert len(instance.hypothesis_class) * sum(
            d.support_size for d in instance.distributions) == cells

        def never(*args, **kwargs):
            raise AssertionError("the instance was built before the guard")

        monkeypatch.setattr(evaluate, "OPT_CELL_GUARD", cells - 1)
        monkeypatch.setattr(evaluate, "_build", never)
        with pytest.raises(GuardError, match=f"at least {cells} cell"):
            evaluate.generate_with_opt(spec)

    def test_unknown_class_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate(InstanceSpec("realizable", n=4, k=2, class_size=4, seed=0,
                                  class_family="bogus"))
