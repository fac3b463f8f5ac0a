"""Differential tests: label-matrix class construction against the tuple
loops kept in ``reference_instance.py``."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multidist import cover, evaluate, model
from multidist.evaluate import GENERATOR_FAMILIES, InstanceSpec
from multidist.model import CLASS_FAMILIES, HypothesisClass, make_rng

from reference_instance import (
    reference_class_matrix,
    reference_cover_ids,
    reference_family_vectors,
    reference_random_class,
    reference_with_member,
)

# (n, class sizes): every n reaches sizes at or beyond 2^n where that is
# drawable; n = 70 rows do not fit in an int64 code.  Then every other
# n <= 10 at 2^n, where the batches shrink to single rows, and the n where
# a packed row fills 8 bytes (63, 64) or spills into a ninth (65).
RANDOM_CLASS_CASES = [
    (1, [1, 2, 3]),
    (3, [1, 2, 5, 8, 9, 40]),
    (12, [1, 7, 300, 1024, 4096, 5000]),
    (14, [1, 100, 2000, 6000]),
    (70, [1, 2, 50, 700]),
    *((n, [2 ** n]) for n in (2, 4, 5, 6, 7, 8, 9, 10)),
    *((n, [1, 40, 500]) for n in (63, 64, 65)),
]


@pytest.mark.parametrize("n,sizes", RANDOM_CLASS_CASES)
def test_random_class_matches_reference(n, sizes):
    for size in sizes:
        for seed in range(3):
            spec = InstanceSpec("random", n=n, k=1, class_size=size, seed=seed)
            ours, theirs = make_rng(seed), make_rng(seed)
            got = evaluate._random_class(spec, ours)
            want = reference_random_class(spec, theirs)
            assert np.array_equal(got.matrix, want.matrix), (n, size, seed)
            assert got.matrix.dtype == want.matrix.dtype
            assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("family", ["thresholds", "intervals", "singletons"])
def test_structured_families_match_reference(family):
    # singletons are empty at n = 0, which the constructor refuses
    for n in range(family == "singletons", 40):
        got = HypothesisClass.from_family(family, n)
        want = reference_class_matrix(reference_family_vectors(family, n))
        assert np.array_equal(got.matrix, want), (family, n)
        assert got.matrix.dtype == np.uint8
        assert got.family_tag == family


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
@pytest.mark.parametrize("class_family", CLASS_FAMILIES)
def test_generated_instances_match_reference(family, class_family, monkeypatch):
    specs = [InstanceSpec(family, n=7, k=3, class_size=8 + 30 * s, seed=s,
                          class_family=class_family) for s in range(4)]
    # and the benchmark's gen cells: n = 12, k = 64, |H| = 1024
    specs += [InstanceSpec(family, n=12, k=64, class_size=1024, seed=s,
                           class_family=class_family) for s in range(2)]
    ours = [json.dumps(evaluate.generate(s).to_dict(), sort_keys=True) for s in specs]
    monkeypatch.setattr(evaluate, "_random_class", reference_random_class)
    monkeypatch.setattr(evaluate, "_with_member", reference_with_member)
    theirs = [json.dumps(evaluate.generate(s).to_dict(), sort_keys=True) for s in specs]
    # a plain bool keeps pytest from diffing long JSON strings on failure
    same = ours == theirs
    assert same


@given(rows=st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=30)),
    pick=st.integers(0, 63), absent=st.booleans())
@settings(max_examples=200, deadline=None)
def test_with_member_matches_reference(rows, pick, absent):
    hclass = HypothesisClass(rows)
    n = hclass.domain_size
    member = (np.array([pick >> j & 1 for j in range(n)], dtype=np.uint8) if absent
              else hclass.matrix[pick % len(hclass)].copy())
    got, got_id = evaluate._with_member(hclass, member)
    want, want_id = reference_with_member(hclass, member)
    assert np.array_equal(got.matrix, want.matrix)
    assert got_id == want_id
    assert np.array_equal(got.matrix[got_id], member)


@given(rows=st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
             min_size=1, max_size=60),
    st.lists(st.integers(0, n - 1), min_size=1, max_size=12))))
@example(rows=([[0, 1, 0], [1, 1, 0], [0, 1, 1]], [2]))
@example(rows=([[0, 1, 0], [1, 1, 0], [0, 0, 1]], [2, 0, 2, 2]))
@settings(max_examples=300, deadline=None)
def test_projection_cover_matches_reference(rows):
    # the cover gathers its witness columns with `take`; the reference
    # groups the fancy-index gather, duplicate and single points included
    vectors, points = rows
    hclass = HypothesisClass(vectors)
    got = cover.projection_cover(hclass, points)
    reps = reference_cover_ids(hclass, sorted(set(points)))
    assert reps == model.first_distinct_rows(
        hclass.matrix[:, sorted(set(points))]).tolist()
    assert got.representative_ids == reps
    assert all(type(i) is int for i in got.representative_ids)
    assert got.behavior_count == len(reps)
    assert np.array_equal(got.subclass.matrix, reference_class_matrix(
        [hclass.matrix[i] for i in reps]))


@given(vectors=st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=40)))
@settings(max_examples=200, deadline=None)
def test_constructor_matches_reference(vectors):
    got = HypothesisClass(vectors)
    assert np.array_equal(got.matrix, reference_class_matrix(vectors))
    assert [h.id for h in got.hypotheses] == list(range(len(got)))


def test_saturated_class_dedupes_once(monkeypatch):
    calls = []
    original = model.first_distinct_rows

    def counted(matrix):
        calls.append(len(matrix))
        return original(matrix)

    monkeypatch.setattr(model, "first_distinct_rows", counted)
    spec = InstanceSpec("random", n=10, k=1, class_size=1024, seed=5)
    hclass = evaluate._random_class(spec, make_rng(5))
    assert len(hclass) == 1024
    assert len(calls) <= 1
