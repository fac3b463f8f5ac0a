"""The array-native wide-class paths (the finite loop, ERM by counts, the
VC search and the mixture index) against their object-level references."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import suite_instance
from multidist import algos
from multidist.algos import run_cover_then_finite, run_fast, run_finite
from multidist.cover import SampleBatch, erm
from multidist.evaluate import InstanceSpec, generate
from multidist.model import (
    HypothesisClass,
    _mixture_index,
    brute_force_vc,
    derive_seed,
    make_rng,
)
from reference_finite import reference_brute_force_vc, reference_erm, reference_finite_loop

SUITE = range(40)


def _dumped(report) -> str:
    return json.dumps(report.to_dict())


def _runs(inst, epsilon, delta, alpha, seed):
    return [run_finite(inst, epsilon, delta, seed),
            run_cover_then_finite(inst, epsilon, delta, seed),
            run_fast(inst, epsilon, alpha, delta, seed)]


def _assert_same_as_reference(monkeypatch, cases) -> list[list[str]]:
    """`cases` is a list of (label, instance, epsilon, delta, alpha, seed);
    returns our dumped finite, cover_finite and fast reports per case."""
    ours = [[_dumped(r) for r in _runs(*case[1:])] for case in cases]
    monkeypatch.setattr(algos, "_finite_loop", reference_finite_loop)
    monkeypatch.setattr(algos, "erm", reference_erm)
    for case, dumped in zip(cases, ours):
        ref = [_dumped(r) for r in _runs(*case[1:])]
        for algo, a, b in zip(("finite", "cover_finite", "fast"), dumped, ref):
            # a plain bool keeps pytest from diffing two long JSON strings
            assert a == b, f"{algo} on {case[0]}"
    return ours


class TestAgainstReference:
    def test_reports_identical_on_suite(self, monkeypatch):
        cases = [(f"suite member {s}", suite_instance(s), 0.45, 0.3, 0.3,
                  derive_seed(8201, s)) for s in SUITE]
        _assert_same_as_reference(monkeypatch, cases)

    def test_reports_identical_on_wide_realizable(self, monkeypatch):
        # the benchmark's wide-class cells: n = 12, k = 4, |H| = 1024
        cases = []
        for s in range(3):
            inst = generate(InstanceSpec("realizable", n=12, k=4, class_size=1024,
                                         seed=derive_seed(8202, s)))
            cases.append((f"realizable seed {s}", inst, 0.2, 0.2, 0.25, s))
        _assert_same_as_reference(monkeypatch, cases)

    def test_reports_identical_where_the_clamp_binds(self, monkeypatch):
        # sweep seeds on which the learner mixture's loss rounds above 1
        cases = []
        for s in (111, 196, 278):
            inst = generate(InstanceSpec("random", n=12, k=4, class_size=1024,
                                         seed=derive_seed(s, 4, 0)))
            cases.append((f"random seed {s}", inst, 0.2, 0.2, 0.25,
                          derive_seed(s, 200000, 4, 1)))
        ours = _assert_same_as_reference(monkeypatch, cases)
        finite_traces = [json.loads(dumped[0])["trace"] for dumped in ours]
        assert any(rec["observed_loss"] == 1.0 for tr in finite_traces for rec in tr)


class TestMixtureIndex:
    def test_matches_rng_choice(self):
        draw = make_rng(8203)
        ours, theirs = make_rng(8204), make_rng(8204)
        for _ in range(10_000):
            k = int(draw.integers(1, 65))
            p = draw.random(k)
            p[draw.random(k) < 0.3] = 0.0
            p[draw.integers(k)] += 0.5  # keep some mass
            p /= p.sum()
            assert _mixture_index(p, ours) == int(theirs.choice(k, p=p))
            assert ours.bit_generator.state == theirs.bit_generator.state


@st.composite
def _class_and_batch(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         min_size=1, max_size=40))
    m = draw(st.integers(min_value=1, max_value=60))
    points = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    labels = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    return HypothesisClass(rows), SampleBatch(np.array(points), np.array(labels))


class TestErmAndVc:
    @given(case=_class_and_batch())
    @settings(max_examples=300, deadline=None)
    def test_erm_matches_reference(self, case):
        hclass, batch = case
        assert erm(hclass, batch).id == reference_erm(hclass, batch).id

    @given(rows=st.integers(1, 8).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=64)))
    @settings(max_examples=150, deadline=None)
    def test_vc_matches_reference(self, rows):
        hclass = HypothesisClass(rows)
        n = hclass.domain_size
        assert brute_force_vc(hclass, n) == reference_brute_force_vc(hclass, n)

    @pytest.mark.parametrize("family", ["thresholds", "intervals", "singletons"])
    def test_vc_matches_reference_on_structured_classes(self, family):
        hclass = HypothesisClass.from_family(family, 9)
        assert brute_force_vc(hclass, 9) == reference_brute_force_vc(hclass, 9)

    def test_vc_matches_reference_on_a_wide_class(self):
        hclass = generate(InstanceSpec("random", n=12, k=1, class_size=1024,
                                       seed=8205)).hypothesis_class
        assert brute_force_vc(hclass, 12) == reference_brute_force_vc(hclass, 12)
