"""Differential tests: the exact kernels of ``multidist.model`` (packed-key
row dedupe, prefix-code VC search, batched mixture draws, array checks of a
distribution) against the versions kept in ``reference_kernels.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import suite_instance
from multidist.model import (
    FiniteDistribution,
    HypothesisClass,
    SampleLedger,
    brute_force_vc,
    first_distinct_rows,
    make_rng,
    mixture_sample_many,
)

from reference_kernels import (
    reference_brute_force_vc,
    reference_distribution_arrays,
    reference_first_distinct_rows,
    reference_mixture_sample_many,
)

# byte edges of the packed keys (7, 8, 9), of one 64-bit word (63, 64, 65),
# and a structured-family width (200)
WIDTHS = [0, 1, 7, 8, 9, 63, 64, 65, 200]


@st.composite
def zero_one_matrices(draw):
    """A 0/1 matrix whose rows repeat a few distinct rows, so the dedupe has
    work to do; sometimes no rows at all."""
    width = draw(st.sampled_from(WIDTHS))
    seed = draw(st.integers(0, 2**32 - 1))
    pool = np.random.default_rng(seed).integers(
        0, 2, size=(draw(st.integers(1, 5)), width)).astype(bool)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
    return pool[picks].reshape(len(picks), width)


def _same_indices(matrix: np.ndarray) -> None:
    got, want = first_distinct_rows(matrix), reference_first_distinct_rows(matrix)
    assert np.array_equal(got, want), matrix.shape
    assert got.dtype == want.dtype


class TestFirstDistinctRows:
    @given(matrix=zero_one_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_bool_and_uint8(self, matrix):
        _same_indices(matrix)
        _same_indices(matrix.astype(np.uint8))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_zero_rows_and_all_equal_rows(self, width):
        _same_indices(np.zeros((0, width), dtype=np.uint8))
        for rows in (1, 2, 17):
            _same_indices(np.ones((rows, width), dtype=np.uint8))
            _same_indices(np.zeros((rows, width), dtype=bool))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_non_contiguous_input(self, width):
        # a column gather (as projection_cover makes), Fortran order, a view
        rng = np.random.default_rng(width)
        matrix = rng.integers(0, 2, size=(60, width + 3), dtype=np.uint8)
        matrix[30:] = matrix[:30]
        _same_indices(matrix[:, rng.permutation(width)])
        _same_indices(np.asfortranarray(matrix[:, :width]))
        _same_indices(matrix[::2, 1:width + 1])

    def test_zero_width_class_keeps_one_row(self):
        assert HypothesisClass([[], []]).matrix.shape == (1, 0)

    def test_intervals_at_n_200(self):
        a, b = np.triu_indices(201)
        x = np.arange(200)
        _same_indices((a[:, None] <= x) & (x < b[:, None]))


def _random_class(rng: np.random.Generator, n: int, size: int) -> HypothesisClass:
    return HypothesisClass(rng.integers(0, 2, size=(size, n), dtype=np.uint8))


def _cube_class(rng: np.random.Generator, n: int, m: int, extra: int) -> HypothesisClass:
    """Every labeling of m random points (2^m rows), the other points labeled
    at random, plus `extra` random rows: VC at least m."""
    cube = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    rows = rng.integers(0, 2, size=((1 << m) + extra, n), dtype=np.uint8)
    rows[: 1 << m, rng.choice(n, size=m, replace=False)] = cube
    return HypothesisClass(rows)


class TestBruteForceVc:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11, 14])
    def test_random_classes_match_reference(self, n):
        rng = np.random.default_rng(n)
        sizes = {1, 2, 3, 7, 50}
        for m in range(1, min(n, 10) + 1):  # |H| = 2^m and 2^m - 1 rows drawn
            sizes |= {(1 << m) - 1, 1 << m}
        for size in sorted(sizes):
            hclass = _random_class(rng, n, size)
            assert brute_force_vc(hclass, n) == reference_brute_force_vc(hclass, n), (n, size)

    @pytest.mark.parametrize("n", [4, 9, 14])
    def test_planted_cubes_match_reference(self, n):
        rng = np.random.default_rng(100 + n)
        for m in range(1, min(n, 9) + 1):
            for extra in (0, 1, 40):
                hclass = _cube_class(rng, n, m, extra)
                got = brute_force_vc(hclass, n)
                assert got == reference_brute_force_vc(hclass, n) >= m, (n, m, extra)

    def test_exact_class_sizes_match_reference(self):
        # classes of exactly 2^m and 2^m - 1 distinct rows, the edge of the
        # size bound that stops the search
        rng = np.random.default_rng(7)
        for n in (6, 10, 13):
            every = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
            for m in range(1, n + 1):
                for size in ((1 << m) - 1, 1 << m):
                    if not 1 <= size <= 2048:
                        continue
                    hclass = HypothesisClass(every[rng.choice(1 << n, size, replace=False)])
                    assert len(hclass) == size
                    assert brute_force_vc(hclass, n) == reference_brute_force_vc(hclass, n)

    @pytest.mark.parametrize("family", ["thresholds", "intervals", "singletons"])
    def test_structured_families_match_reference(self, family):
        for n in range(1, 21):
            hclass = HypothesisClass.from_family(family, n)
            assert brute_force_vc(hclass, n) == reference_brute_force_vc(hclass, n), n


def _outcome(build, atoms):
    try:
        return build(atoms)
    except ValueError as exc:
        return str(exc)


atoms_lists = st.lists(
    st.tuples(st.integers(-2, 5), st.integers(-1, 2), st.just(1.0)), max_size=8)


class TestFiniteDistributionChecks:
    @given(atoms=atoms_lists)
    @settings(max_examples=400, deadline=None)
    def test_same_outcome_and_message_as_reference(self, atoms):
        atoms = [(x, y, p / max(len(atoms), 1)) for x, y, p in atoms]
        got = _outcome(FiniteDistribution, atoms)
        want = _outcome(reference_distribution_arrays, atoms)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, FiniteDistribution), got
            pts, lbs, pbs = want
            assert np.array_equal(got.points, pts) and got.points.dtype == np.int64
            assert np.array_equal(got.labels, lbs) and got.labels.dtype == np.int64
            assert np.array_equal(got.probs, pbs / pbs.sum())

    @pytest.mark.parametrize("point, label, message", [
        (1.5, 1, "domain points must be integers"),
        (float("nan"), 1, "domain points must be integers"),
        (float("inf"), 1, "domain points must be integers"),
        ("1", 1, "domain points must be integers"),
        (1, 0.7, r"labels must be in \{0, 1\}"),
        (1, float("nan"), r"labels must be in \{0, 1\}"),
        (1, "1", r"labels must be in \{0, 1\}"),
    ])
    def test_rejects_non_integral_points_and_labels(self, point, label, message):
        with pytest.raises(ValueError, match=message):
            FiniteDistribution([(0, 0, 0.5), (point, label, 0.5)])

    def test_integral_floats_and_bools_load_as_integers(self):
        d = FiniteDistribution([(2.0, 1.0, 0.5), (0, False, 0.25), (np.int64(1), True, 0.25)])
        assert d.points.tolist() == [2, 0, 1] and d.points.dtype == np.int64
        assert d.labels.tolist() == [1, 0, 1] and d.labels.dtype == np.int64

    def test_integral_float_duplicates_are_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            FiniteDistribution([(2, 1, 0.5), (2.0, 1.0, 0.5)])


@pytest.mark.parametrize("count", [0, 1, 2, 37, 500])
def test_mixture_draws_match_the_per_oracle_loop(count):
    # weights with zeros, so some oracles are never chosen
    for s in range(40):
        inst = suite_instance(s)
        w = make_rng(s).random(inst.k) * (make_rng(s + 40).random(inst.k) < 0.7)
        if not w.sum() > 0:
            w[0] = 1.0
        w /= w.sum()
        ours, theirs = make_rng((8401, s)), make_rng((8401, s))
        ours_ledger, theirs_ledger = SampleLedger(inst.k), SampleLedger(inst.k)
        got = mixture_sample_many(inst, w, count, ours, ours_ledger)
        want = reference_mixture_sample_many(inst, w, count, theirs, theirs_ledger)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(got, want)), f"suite member {s}"
        assert ours_ledger.per_oracle == theirs_ledger.per_oracle
        assert ours.bit_generator.state == theirs.bit_generator.state
