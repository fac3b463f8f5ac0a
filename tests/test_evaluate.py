import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import small_instances
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
        for h in inst.hypothesis_class:
            assert result.opt_value <= max_loss(inst, h)[0] + 1e-12


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


def _minority_oracle(instance, h):
    # independent shortcut: the best half-or-larger subset is the one with
    # the ceil(k/2) smallest losses, so compare against that order statistic
    losses = sorted(exact_loss(d, h) for d in instance.distributions)
    k = instance.k
    need = (k + 1) // 2
    smooth_value, _ = smooth_argmax(
        [exact_loss(d, h) for d in instance.distributions], min(1.0, 2.0 / k))
    return losses[need - 1] <= smooth_value + 1e-12


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

    def test_guard(self):
        inst = generate(InstanceSpec("random", n=4, k=13, class_size=4, seed=0))
        with pytest.raises(GuardError):
            minority_bound_check(inst, inst.hypothesis_class.hypotheses[0])


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
