"""Shared fixtures: the standard random suite and hypothesis strategies."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from multidist.evaluate import InstanceSpec, generate
from multidist.model import (
    FiniteDistribution,
    HypothesisClass,
    MdlInstance,
    derive_seed,
)


def assert_same(ours: str, theirs: str, label: str = "") -> None:
    """Assert that two (long) texts are equal through a plain bool, so a
    failing case reports its label in seconds; pytest would diff the texts."""
    same = ours == theirs
    assert same, label


def suite_instance(s: int, kmax: int = 6) -> MdlInstance:
    """Deterministic member s of the standard random suite (n<=10, |H|<=40)."""
    n = 4 + (s % 7)
    k = 2 + (s % (kmax - 1))
    class_size = 8 + ((s * 7) % 33)
    return generate(InstanceSpec("random", n=n, k=k, class_size=class_size,
                                 seed=derive_seed(999, s)))


@st.composite
def simplex_vectors(draw, max_dim: int = 8):
    d = draw(st.integers(min_value=1, max_value=max_dim))
    raw = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                        min_size=d, max_size=d))
    v = np.asarray(raw)
    return v / v.sum()


@st.composite
def small_instances(draw, max_n: int = 8, max_k: int = 5, max_class: int = 16):
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=max_k))
    class_size = draw(st.integers(min_value=1, max_value=max_class))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return generate(InstanceSpec("random", n=n, k=k, class_size=class_size,
                                 seed=seed))


@st.composite
def distributions(draw, n: int = 6, max_atoms: int = 6):
    size = draw(st.integers(min_value=1, max_value=min(max_atoms, 2 * n)))
    pair_ids = draw(st.permutations(range(2 * n)))[:size]
    raw = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                        min_size=size, max_size=size))
    total = sum(raw)
    return FiniteDistribution(
        [(v // 2, v % 2, w / total) for v, w in zip(pair_ids, raw)])


@st.composite
def hypothesis_classes(draw, n: int = 6, max_size: int = 12):
    size = draw(st.integers(min_value=1, max_value=max_size))
    vecs = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n),
        min_size=size, max_size=size))
    return HypothesisClass(vecs)
