"""The array mixture against the object-level one it replaced, and where
`Hypothesis` objects are still built."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import distributions, hypothesis_classes, suite_instance
from multidist import cli, model
from multidist.algos import (
    _mixture_to_dict,
    run_cover_then_finite,
    run_fast,
    run_finite,
    run_mid,
    run_personalized,
)
from multidist.evaluate import InstanceSpec, generate
from multidist.model import (
    FiniteDistribution,
    HypothesisClass,
    RandomizedHypothesis,
    exact_loss,
    make_rng,
)
from reference_mixture import (
    ReferenceMixture,
    reference_mixture_to_dict,
    reference_uniform_over_ids,
)

_SUBNORMAL = np.nextafter(0.0, 1.0)


def _assert_same(ours: RandomizedHypothesis, ref: ReferenceMixture,
                 dists: list[FiniteDistribution]) -> None:
    assert ours.prediction_mean().tobytes() == ref.prediction_mean().tobytes()
    for d in dists:
        assert exact_loss(d, ours) == exact_loss(d, ref)
    assert (json.dumps(_mixture_to_dict(ours))
            == json.dumps(reference_mixture_to_dict(ref)))


def _both_ways(hclass: HypothesisClass, weights: np.ndarray,
               dists: list[FiniteDistribution]) -> None:
    ref = ReferenceMixture.from_weights(hclass.hypotheses, weights)
    _assert_same(RandomizedHypothesis(hclass.matrix, weights), ref, dists)
    _assert_same(RandomizedHypothesis.from_weights(hclass.hypotheses, weights), ref, dists)


_weight = st.one_of(st.just(0.0), st.floats(5e-324, 1e-300),
                    st.floats(1e-3, 1.0))


@given(hclass=hypothesis_classes(), d=distributions(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_matches_reference_with_zero_and_subnormal_weights(hclass, d, data):
    raw = np.array(data.draw(st.lists(_weight, min_size=len(hclass),
                                      max_size=len(hclass))))
    raw[data.draw(st.integers(0, len(hclass) - 1))] = 1.0
    _both_ways(hclass, raw / raw.sum(), [d])


def test_matches_reference_on_random_mixtures():
    rng = make_rng(2024)
    for _ in range(2000):
        n = int(rng.integers(1, 17))
        hclass = HypothesisClass(rng.integers(0, 2, size=(int(rng.integers(1, 65)), n)))
        raw = rng.random(len(hclass))
        raw[rng.random(len(hclass)) < 0.3] = 0.0
        raw[rng.random(len(hclass)) < 0.1] = _SUBNORMAL
        raw[int(rng.integers(len(hclass)))] = 1.0
        points = rng.choice(n, size=min(n, 3), replace=False)
        probs = rng.dirichlet(np.ones(len(points)))
        d = FiniteDistribution([(int(x), int(rng.integers(2)), float(p))
                                for x, p in zip(points, probs)])
        _both_ways(hclass, raw / raw.sum(), [d])


def test_fast_mixture_matches_reference_over_repeated_erm_ids():
    repeated = 0
    for s in range(12):
        inst = suite_instance(s)
        rep = run_fast(inst, 0.3, 0.3, 0.2, seed=s)
        ids = [row["learner_id"] for row in rep.trace]
        repeated += len(ids) > len(set(ids))
        ref = reference_uniform_over_ids(inst.hypothesis_class, ids)
        _assert_same(rep.hypothesis, ref, inst.distributions)
    assert repeated >= 6


@pytest.fixture
def built(monkeypatch):
    """Counts every Hypothesis constructed while the test runs."""
    calls = []
    init = model.Hypothesis.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(model.Hypothesis, "__init__", counting)
    return calls


def test_gen_builds_no_hypothesis(built, tmp_path, capsys):
    for family in ("random", "realizable", "opposed_labels", "shared_bayes"):
        for class_family in ("explicit", "intervals"):
            assert cli.main(["gen", "--family", family, "--n", "10", "--k", "8",
                             "--class-size", "300", "--class-family", class_family,
                             "--seed", "5", "--out", str(tmp_path / "i.json")]) == 0
    assert built == []


@pytest.mark.parametrize("family", ["random", "realizable"])
def test_runs_build_hypotheses_only_for_erm(built, family):
    inst = generate(InstanceSpec(family, n=8, k=4, class_size=64, seed=3))
    built.clear()
    run_finite(inst, 0.3, 0.3, seed=1)
    run_cover_then_finite(inst, 0.3, 0.3, seed=1)
    run_mid(inst, 0.3, 0.3, seed=1)
    run_personalized(inst, 0.3, 0.3, seed=1)
    assert built == []
    rep = run_fast(inst, 0.3, 0.3, 0.2, seed=1)
    assert len(built) == rep.config["T"]
