import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same, suite_instance
from multidist import algos
from multidist.algos import (
    QUERY_GUARD,
    _finite_schedule,
    fast_params,
    median_filter,
    mid_adversary_estimate,
    run_cover_then_finite,
    run_fast,
    run_finite,
    run_mid,
    run_personalized,
)
from multidist.evaluate import (
    InstanceSpec,
    brute_force_opt,
    generate,
    loss_matrix,
    max_loss,
    smooth_argmax,
)
from multidist.model import (
    FiniteDistribution,
    HypothesisClass,
    LabeledExample,
    MdlInstance,
    RandomizedHypothesis,
    derive_seed,
    exact_loss,
    make_rng,
)
from reference_kernels import reference_oracle_rows, reference_row_losses


class TestFastParams:
    def test_epsilon_equals_alpha(self):
        p = fast_params(0.2, 0.2, 0.1, k=5, d=3)
        assert p.T == math.ceil(math.log(5) / 0.2 ** 2)

    def test_doubling_k_moves_t_by_log_ratio(self):
        for k in (2, 3, 8):
            a = fast_params(0.2, 0.25, 0.1, k=k, d=2)
            b = fast_params(0.2, 0.25, 0.1, k=2 * k, d=2)
            assert b.T == math.ceil(math.log(2 * k) / (0.2 * 0.25))
            assert b.T >= a.T

    def test_clamps_epsilon_to_alpha(self):
        p = fast_params(0.4, 0.25, 0.1, k=4, d=2)
        assert p.clamped and p.epsilon == 0.25

    def test_predicted_budget_formula(self):
        p = fast_params(0.3, 0.3, 0.2, k=4, d=2)
        assert p.predicted_budget == p.T * (p.r1 + p.k * p.r2)

    def test_k_one_still_runs_one_round(self):
        assert fast_params(0.2, 0.25, 0.1, k=1, d=2).T == 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            fast_params(0.6, 0.25, 0.1, k=2, d=1)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, float("nan"), float("inf")])
    def test_delta_checked_by_the_shared_rule(self, delta):
        with pytest.raises(ValueError, match=r"epsilon and delta must be in \(0, 1\)"):
            fast_params(0.2, 0.25, delta, k=2, d=1)


class TestRunFast:
    def test_ledger_identity_across_configs(self):
        for s, (eps, alpha, delta) in enumerate(
                [(0.3, 0.3, 0.2), (0.25, 0.4, 0.1), (0.45, 0.45, 0.3)]):
            inst = suite_instance(s)
            rep = run_fast(inst, eps, alpha, delta, seed=derive_seed(21, s),
                           record_trace=False)
            assert rep.ledger_total == rep.config["predicted_budget"]

    def test_realizable_reaches_epsilon(self):
        good = 0
        for s in range(40):
            inst = generate(InstanceSpec("realizable", n=6, k=3, class_size=12,
                                         seed=derive_seed(41, s)))
            rep = run_fast(inst, 0.2, 0.25, 0.2, seed=derive_seed(42, s),
                           record_trace=False)
            good += max_loss(inst, rep.hypothesis)[0] <= 0.2
        assert good >= math.ceil((1 - 0.2 - 0.1) * 40)

    def test_single_distribution_adversary_constant(self):
        inst = generate(InstanceSpec("random", n=5, k=1, class_size=8, seed=11))
        rep = run_fast(inst, 0.3, 0.3, 0.2, seed=1)
        assert all(rec["adversary"] == [1.0] for rec in rep.trace)

    def test_deterministic_report(self):
        inst = suite_instance(4)
        a = run_fast(inst, 0.3, 0.3, 0.2, seed=9).to_dict()
        b = run_fast(inst, 0.3, 0.3, 0.2, seed=9).to_dict()
        assert_same(json.dumps(a, sort_keys=True), json.dumps(b, sort_keys=True))


class TestRunFinite:
    def test_query_guard_leaves_headroom(self):
        # the largest run the package documents: k = 64, eps = 0.01, |H| = 1024
        T = _finite_schedule(1024, 64, 0.01, 0.2, 4.0)[0]
        assert T > 1e7 and 100 * T <= QUERY_GUARD

    def test_singleton_class_returns_it(self):
        d = FiniteDistribution([(0, 1, 1.0)])
        inst = MdlInstance(1, [d], HypothesisClass([[1]]))
        rep = run_finite(inst, 0.3, 0.3, seed=0)
        assert rep.hypothesis.ids.tolist() == [0]

    def test_ledger_equals_rounds(self):
        inst = suite_instance(2)
        rep = run_finite(inst, 0.3, 0.3, seed=5, record_trace=False)
        assert rep.ledger_total == rep.config["T"]

    def test_adversary_stays_on_simplex(self):
        inst = suite_instance(1)
        rep = run_finite(inst, 0.4, 0.3, seed=3)
        for rec in rep.trace:
            w = np.asarray(rec["adversary"])
            assert abs(w.sum() - 1.0) <= 1e-9 and np.all(w >= 0)

    def test_excess_small_on_random_suite(self):
        good = 0
        for s in range(40):
            inst = generate(InstanceSpec(
                "random", n=4 + (s % 7), k=2 + (s % 3),
                class_size=8 + ((s * 3) % 9), seed=derive_seed(999, s)))
            rep = run_finite(inst, 0.2, 0.2, seed=derive_seed(4, s),
                             record_trace=False)
            opt = brute_force_opt(inst).opt_value
            good += max_loss(inst, rep.hypothesis)[0] - opt <= 0.2
        assert good >= math.ceil(0.7 * 40)


class TestRunCoverThenFinite:
    def test_two_behavior_class_covers_to_two(self):
        # hypotheses differ only at the unsampled point 3
        cls = HypothesisClass([[0, 0, 0, 0], [0, 0, 0, 1], [1, 1, 1, 0], [1, 1, 1, 1]])
        d = FiniteDistribution([(0, 0, 0.5), (1, 0, 0.5)])
        inst = MdlInstance(4, [d], cls)
        rep = run_cover_then_finite(inst, 0.3, 0.3, seed=2)
        assert rep.config["cover_behaviors"] <= 2
        assert rep.config["class_size"] <= 2

    def test_ledger_includes_covering(self):
        inst = suite_instance(3)
        rep = run_cover_then_finite(inst, 0.3, 0.3, seed=7, record_trace=False)
        per_oracle = rep.config["cover_samples_per_oracle"]
        assert per_oracle == max(1, math.ceil(4.0 * rep.config["vc_dim"] / 0.3))
        assert rep.ledger_total == inst.k * per_oracle + rep.config["T"]

    def test_excess_small_on_random_suite(self):
        good = 0
        for s in range(40):
            inst = generate(InstanceSpec(
                "random", n=4 + (s % 7), k=2 + (s % 3),
                class_size=8 + ((s * 3) % 9), seed=derive_seed(999, s)))
            rep = run_cover_then_finite(inst, 0.2, 0.2, seed=derive_seed(5, s),
                                        record_trace=False)
            opt = brute_force_opt(inst).opt_value
            good += max_loss(inst, rep.hypothesis)[0] - opt <= 0.4
        assert good >= math.ceil(0.7 * 40)


class TestMidAdversaryEstimate:
    def test_full_loss_gives_zero_vector(self):
        h = HypothesisClass([[0, 0]]).hypotheses[0]
        cv = mid_adversary_estimate(np.array([0.5, 0.5]), 1, LabeledExample(0, 1), h)
        assert np.all(cv.values == 0.0)

    def test_k_one_reduces_to_one_minus_loss(self):
        h = HypothesisClass([[1, 0]]).hypotheses[0]
        cv = mid_adversary_estimate(np.array([1.0]), 0, LabeledExample(0, 1), h)
        assert cv.values.tolist() == [1.0]

    def test_single_nonzero_coordinate(self):
        h = HypothesisClass([[1, 0]]).hypotheses[0]
        cv = mid_adversary_estimate(np.array([0.25] * 4), 2, LabeledExample(0, 1), h)
        assert cv.values[2] == pytest.approx(4.0)
        assert np.all(cv.values[[0, 1, 3]] == 0.0)
        assert cv.bound == 4.0

    def test_literal_variant_scales_by_weight(self):
        h = HypothesisClass([[1, 0]]).hypotheses[0]
        w = np.array([0.5, 0.3, 0.2])
        cv = mid_adversary_estimate(w, 1, LabeledExample(0, 1), h, estimator="literal")
        assert cv.values[1] == pytest.approx(3 * 0.3)

    def test_unbiased_in_expectation(self):
        inst = generate(InstanceSpec("random", n=6, k=4, class_size=10, seed=9))
        cls = inst.hypothesis_class
        h = RandomizedHypothesis.from_weights(
            cls.hypotheses, make_rng(1).dirichlet(np.ones(len(cls))))
        rng = make_rng(2)
        m = 20_000
        k = inst.k
        acc = np.zeros(k)
        chosen = rng.integers(k, size=m)
        for i in range(k):
            cnt = int((chosen == i).sum())
            dist = inst.distributions[i]
            idx = dist.draw_indices(cnt, rng)
            for x, y in zip(dist.points[idx], dist.labels[idx]):
                acc += mid_adversary_estimate(
                    np.full(k, 1 / k), i, LabeledExample(int(x), int(y)), h).values
        acc /= m
        exact = np.array([1.0 - exact_loss(d, h) for d in inst.distributions])
        second = np.array([k * sum(p * (1.0 - _loss_on(h, x, y)) ** 2
                                   for x, y, p in d.atoms())
                           for d in inst.distributions])
        sigma = np.sqrt(np.maximum(second - exact ** 2, 0.0) / m)
        assert np.all(np.abs(acc - exact) <= 3 * sigma + 1e-9)


def _loss_on(h, x, y):
    return h.expected_loss(LabeledExample(int(x), int(y)))


class TestRunMid:
    def test_ledger_identity(self):
        for s in range(3):
            inst = suite_instance(s)
            rep = run_mid(inst, 0.3, 0.3, seed=derive_seed(61, s),
                          record_trace=False)
            assert rep.ledger_total == rep.config["N"] + 2 * rep.config["T"]

    def test_adversary_respects_cap(self):
        inst = suite_instance(5)
        rep = run_mid(inst, 0.35, 0.3, seed=13)
        cap = min(1.0, 2.0 / inst.k)
        for rec in rep.trace:
            assert max(rec["adversary"]) <= cap + 1e-12

    def test_smooth_excess_against_benchmark(self):
        eps = 0.25
        good = 0
        for s in range(10):
            inst = suite_instance(s)
            cap = min(1.0, 2.0 / inst.k)
            rep = run_mid(inst, eps, 0.2, seed=derive_seed(62, s),
                          record_trace=False)
            per_dist = [exact_loss(d, rep.hypothesis) for d in inst.distributions]
            ours = smooth_argmax(per_dist, cap)[0]
            lmat = loss_matrix(inst)
            bench = min(smooth_argmax(lmat[:, j], cap)[0]
                        for j in range(lmat.shape[1]))
            good += ours <= bench + 3 * eps
        assert good >= 7

    def test_literal_estimator_runs(self):
        inst = suite_instance(1)
        rep = run_mid(inst, 0.35, 0.3, seed=3, estimator="literal",
                      record_trace=False)
        assert rep.config["estimator"] == "literal"
        assert rep.ledger_total == rep.config["N"] + 2 * rep.config["T"]

    def test_deterministic_report(self):
        inst = suite_instance(6)
        a = run_mid(inst, 0.35, 0.3, seed=17).to_dict()
        b = run_mid(inst, 0.35, 0.3, seed=17).to_dict()
        assert_same(json.dumps(a, sort_keys=True), json.dumps(b, sort_keys=True))


class TestMedianFilter:
    def test_basic(self):
        assert median_filter([0.1, 0.2, 0.3, 0.4]) == [2, 3]

    def test_all_equal_empty(self):
        assert median_filter([0.5, 0.5, 0.5]) == []

    def test_singleton_empty(self):
        assert median_filter([0.9]) == []

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                    max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_survivors_at_most_half_and_above_median(self, losses):
        survivors = median_filter(losses)
        assert len(survivors) <= len(losses) // 2
        med = float(np.median(losses))
        assert all(losses[i] > med for i in survivors)


class TestRunPersonalized:
    def test_k_one_single_round(self):
        inst = generate(InstanceSpec("random", n=5, k=1, class_size=8, seed=23))
        rep = run_personalized(inst, 0.3, 0.3, seed=2)
        assert list(rep.assignments.keys()) == [0]
        assert len(rep.trace) == 1

    def test_every_distribution_gets_one_hypothesis(self):
        inst = suite_instance(7, kmax=8)
        rep = run_personalized(inst, 0.3, 0.3, seed=3, record_trace=False)
        assert sorted(rep.assignments.keys()) == list(range(inst.k))

    def test_halving_and_round_budget(self):
        for s in range(6):
            inst = suite_instance(s, kmax=8)
            rep = run_personalized(inst, 0.3, 0.3, seed=derive_seed(71, s))
            sizes = [len(rec["active"]) for rec in rep.trace]
            removed = [len(rec["removed"]) for rec in rep.trace]
            for j, size in enumerate(sizes):
                survivors = size - removed[j]
                assert survivors <= size // 2
                if j + 1 < len(sizes):
                    assert sizes[j + 1] == survivors
            assert len(rep.trace) <= max(1, math.ceil(math.log2(inst.k)))

    def test_ledger_decomposition(self):
        inst = suite_instance(9, kmax=8)
        rep = run_personalized(inst, 0.3, 0.3, seed=5, record_trace=True)
        m_eval = rep.config["m_eval"]
        expected = sum(meta["mid_total"] + meta["active_size"] * m_eval
                       for meta in rep.config["inner"])
        assert rep.ledger_total == expected

    def test_per_distribution_guarantee(self):
        good = 0
        for s in range(12):
            inst = suite_instance(s, kmax=8)
            rep = run_personalized(inst, 0.2, 0.2, seed=derive_seed(72, s),
                                   record_trace=False)
            opt = brute_force_opt(inst).opt_value
            ok = all(exact_loss(inst.distributions[i], h) <= opt + 0.4
                     for i, h in rep.assignments.items())
            good += ok
        assert good >= 9

    def test_deterministic_report(self):
        inst = suite_instance(2, kmax=8)
        a = run_personalized(inst, 0.3, 0.3, seed=4).to_dict()
        b = run_personalized(inst, 0.3, 0.3, seed=4).to_dict()
        assert_same(json.dumps(a, sort_keys=True), json.dumps(b, sort_keys=True))


# fast draws a payoff row per distribution each round, cover_finite a row of
# witness points per distribution, personalized an evaluation row per active
# distribution each round; with the per-distribution loops patched back in
# for those calls, every report must keep its bytes, trace included
_BATCHED_RUNS = {
    "fast": lambda inst, seed: run_fast(inst, 0.3, 0.3, 0.3, seed),
    "cover_finite": lambda inst, seed: run_cover_then_finite(inst, 0.3, 0.3, seed),
    "personalized": lambda inst, seed: run_personalized(inst, 0.3, 0.3, seed),
}


@pytest.mark.parametrize("algo", _BATCHED_RUNS)
def test_batched_draws_match_the_per_distribution_loops(algo, monkeypatch):
    # the suite, and an opposed_labels instance whose 64 positions share
    # two distribution objects
    instances = [suite_instance(s, kmax=8) for s in range(40)] + [
        generate(InstanceSpec("opposed_labels", n=6, k=64, class_size=16, seed=1))]
    run = _BATCHED_RUNS[algo]
    ours = [json.dumps(run(inst, derive_seed(88, s)).to_dict(), sort_keys=True)
            for s, inst in enumerate(instances)]
    monkeypatch.setattr(algos, "oracle_sample_many", reference_oracle_rows)
    monkeypatch.setattr(algos, "empirical_loss", reference_row_losses)
    for s, inst in enumerate(instances):
        want = json.dumps(run(inst, derive_seed(88, s)).to_dict(), sort_keys=True)
        assert_same(ours[s], want, f"instance {s}")
