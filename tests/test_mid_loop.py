"""The array-native mid loop against its object-level reference, and the
invariants it keeps every round."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import small_instances, suite_instance
from multidist import algos
from multidist.algos import run_mid, run_personalized
from multidist.evaluate import InstanceSpec, generate
from multidist.model import FiniteDistribution, derive_seed
from reference_mid import reference_run_mid

SUITE = range(40)


def _dumped(report) -> str:
    return json.dumps(report.to_dict())


def _same(a, b) -> bool:
    # a plain bool keeps pytest from diffing two long JSON strings on failure
    return _dumped(a) == _dumped(b)


class TestAgainstReference:
    @pytest.mark.parametrize("estimator", algos.ESTIMATORS)
    def test_mid_reports_identical_on_suite(self, estimator):
        for s in SUITE:
            inst = suite_instance(s)
            seed = derive_seed(8101, s)
            ours = run_mid(inst, 0.45, 0.3, seed, estimator=estimator)
            ref = reference_run_mid(inst, 0.45, 0.3, seed, estimator=estimator)
            assert _same(ours, ref), f"suite member {s}"

    @pytest.mark.parametrize("estimator", algos.ESTIMATORS)
    def test_personalized_reports_identical_on_suite(self, estimator, monkeypatch):
        def runs():
            return [run_personalized(suite_instance(s), 0.45, 0.3, derive_seed(8102, s),
                                     estimator=estimator) for s in SUITE]

        ours = runs()
        monkeypatch.setattr(algos, "run_mid", reference_run_mid)
        for s, (a, b) in enumerate(zip(ours, runs())):
            assert _same(a, b), f"suite member {s}"

    @pytest.mark.parametrize("k", [16, 64])
    def test_mid_identical_where_the_cap_binds(self, k):
        # the benchmark's dynamics cells: random, n = 8, |H| = 24
        cap = min(1.0, 2.0 / k)
        binding = 0
        for s in range(3):
            inst = generate(InstanceSpec("random", n=8, k=k, class_size=24,
                                         seed=derive_seed(8103, k, s)))
            for estimator in algos.ESTIMATORS:
                ours = run_mid(inst, 0.3, 0.2, s, estimator=estimator)
                ref = reference_run_mid(inst, 0.3, 0.2, s, estimator=estimator)
                assert _same(ours, ref), f"seed {s}, {estimator}"
                binding += sum(max(rec["adversary"]) == cap for rec in ours.trace)
        assert binding > 0


def _counting_draws(monkeypatch) -> Counter:
    """Count the atoms drawn from each distribution object, ledger aside."""
    drawn: Counter = Counter()
    original = FiniteDistribution.draw_indices

    def draw_indices(self, count, rng):
        drawn[id(self)] += count
        return original(self, count, rng)

    monkeypatch.setattr(FiniteDistribution, "draw_indices", draw_indices)
    return drawn


class TestLoopInvariants:
    @given(inst=small_instances())
    @settings(max_examples=30, deadline=None)
    def test_capped_simplex_and_ledger(self, inst):
        with pytest.MonkeyPatch.context() as mp:
            drawn = _counting_draws(mp)
            rep = run_mid(inst, 0.45, 0.3, seed=derive_seed(8104, inst.k))
        cap = min(1.0, 2.0 / inst.k)
        assert len(rep.trace) == rep.config["T"]
        for rec in rep.trace:
            w = np.asarray(rec["adversary"])
            assert w.min() >= 0.0
            assert abs(w.sum() - 1.0) <= 1e-12
            assert w.max() <= cap + 1e-12
        assert sum(rep.ledger_per_oracle) == rep.config["N"] + 2 * rep.config["T"]
        assert rep.ledger_per_oracle == [drawn[id(d)] for d in inst.distributions]
