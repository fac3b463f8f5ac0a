"""Differential tests: the exact kernels of ``multidist.model`` (packed-key
row dedupe, the VC search by prefix-code scan and by missing-code closure,
batched mixture and oracle draws, array checks of a distribution) against
the versions kept in ``reference_kernels.py``."""

import tracemalloc
from bisect import bisect_right
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import suite_instance
from multidist import cli, model
from multidist.evaluate import InstanceSpec, generate
from multidist.model import (
    VC_MAX_CLASS,
    VC_MAX_DOMAIN,
    FiniteDistribution,
    HypothesisClass,
    MdlInstance,
    SampleLedger,
    _closure_pays,
    _closure_vc,
    _draws,
    brute_force_vc,
    first_distinct_rows,
    make_rng,
    mixture_sample,
    mixture_sample_many,
    oracle_sample_many,
)

from reference_kernels import (
    reference_brute_force_vc,
    reference_distribution_arrays,
    reference_first_distinct_rows,
    reference_mixture_sample,
    reference_mixture_sample_many,
    reference_oracle_rows,
    reference_oracle_sample_many,
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


def _assert_vc_paths_agree(hclass: HypothesisClass, n: int, closure_alone: bool = True) -> int:
    """The selecting brute_force_vc, the subset scan alone, the closure alone
    (from level 1; its levels grow as 2^n, so only up to n = 14) and the
    reference give one VC dimension, which is returned."""
    want = reference_brute_force_vc(hclass, n)
    assert brute_force_vc(hclass, n) == want, (n, len(hclass))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_closure_pays", lambda n, m, size: False)
        assert brute_force_vc(hclass, n) == want, (n, len(hclass))
    if closure_alone:
        cols = np.ascontiguousarray(hclass.matrix[:, :n].T, dtype=np.int64)
        assert _closure_vc(cols, 1) == want, (n, len(hclass))
    return want


def _every_code(n: int) -> np.ndarray:
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)


class TestBruteForceVc:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_random_classes_match_reference(self, n):
        # |H| from 1 to 2^n (capped at the VC guard), the edges 2^m - 1 and
        # 2^m of the size bound that stops the scan, and random sizes between
        rng = np.random.default_rng(n)
        top = min(1 << n, VC_MAX_CLASS)
        sizes = {1, 2, 3, top, *rng.integers(1, top + 1, size=4).tolist()}
        for m in range(1, n + 1):
            sizes |= {(1 << m) - 1, 1 << m}
        codes = _every_code(n)
        for size in sorted(size for size in sizes if size <= top):
            # distinct rows, so the class has exactly `size` of them
            hclass = HypothesisClass(codes[rng.choice(1 << n, size, replace=False)])
            assert len(hclass) == size
            _assert_vc_paths_agree(hclass, n)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_word_edges(self, n):
        # 2^5 codes pad one word, 2^6 fill it, and point 6 is the first
        # flip between words rather than inside one
        rng = np.random.default_rng(50 + n)
        for size in rng.integers(1, (1 << n) + 1, size=60):
            _assert_vc_paths_agree(_random_class(rng, n, int(size)), n)

    @pytest.mark.parametrize("n", [4, 9, 14])
    def test_planted_cubes_match_reference(self, n):
        rng = np.random.default_rng(100 + n)
        for m in range(1, min(n, 9) + 1):
            for extra in (0, 1, 40):
                hclass = _cube_class(rng, n, m, extra)
                assert _assert_vc_paths_agree(hclass, n) >= m, (n, m, extra)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_full_cube_and_one_row(self, n):
        if 1 << n <= VC_MAX_CLASS:
            assert _assert_vc_paths_agree(HypothesisClass(_every_code(n)), n) == n
        row = np.random.default_rng(n).integers(0, 2, size=(1, n), dtype=np.uint8)
        assert _assert_vc_paths_agree(HypothesisClass(row), n) == 0

    def test_exact_class_sizes_match_reference(self):
        # classes of exactly 2^m and 2^m - 1 distinct rows, the edge of the
        # size bound that stops the scan, where the closure often takes over
        rng = np.random.default_rng(7)
        for n in (6, 10, 13):
            every = _every_code(n)
            for m in range(1, n + 1):
                for size in ((1 << m) - 1, 1 << m):
                    if not 1 <= size <= 2048:
                        continue
                    hclass = HypothesisClass(every[rng.choice(1 << n, size, replace=False)])
                    assert len(hclass) == size
                    _assert_vc_paths_agree(hclass, n)

    @pytest.mark.parametrize("family", ["thresholds", "intervals", "singletons"])
    def test_structured_families_match_reference(self, family):
        # the rows of each family as a plain explicit class, so no closed
        # form answers; the closure alone runs up to n = 14
        for n in range(1, 21):
            hclass = HypothesisClass(HypothesisClass.from_family(family, n).matrix)
            assert hclass.family_tag == "explicit"
            _assert_vc_paths_agree(hclass, n, closure_alone=n <= 14)


class TestClosureRule:
    """``_closure_pays`` is a pure function of (n, m, |H|)."""

    def test_scan_everywhere_on_the_wide_and_the_small(self):
        assert not any(_closure_pays(20, m, 4096) for m in range(1, 21))
        assert not any(_closure_pays(8, m, 24) for m in range(1, 9))

    def test_one_word_rows_keep_the_scan_short_of_the_cube(self):
        # at n <= 6 a row is one word and each pass's call overhead, not its
        # words, sets the closure's time: it pays only on (nearly) the cube
        picked = {(n, size) for n in range(1, 7) for size in range(1, (1 << n) + 1)
                  if any(size >= 1 << m and _closure_pays(n, m, size)
                         for m in range(1, n + 1))}
        assert picked == {(3, 8), (4, 16), (5, 32)} | {(6, size) for size in range(59, 65)}

    def test_closure_from_level_8_at_n_12_with_1024_rows(self):
        assert [m for m in range(1, 13) if _closure_pays(12, m, 1024)][0] == 8

    def test_peak_memory_under_the_vc_guard(self):
        # A larger class only lowers the level where the rule fires, and the
        # scan reaches level m only if |H| >= 2^m, so the largest class the
        # guard admits gives each n its deepest closure.  The closure holds
        # two consecutive levels of ceil(2^n / 64) words a row.
        chosen = {}
        for n in range(1, VC_MAX_DOMAIN + 1):
            size = min(1 << n, VC_MAX_CLASS)
            fires = [m for m in range(1, n + 1) if size >= 1 << m and _closure_pays(n, m, size)]
            if fires:
                words = -(-(1 << n) // 64)
                chosen[n] = 8 * words * max((comb(n, r) + comb(n, r + 1)
                                             for r in range(n - fires[0])), default=1)
        assert max(chosen) == 14
        assert chosen[14] == 8 * 256 * (comb(14, 4) + comb(14, 5)) == 6_150_144
        assert max(chosen.values()) == chosen[14]
        # measured: the levels, the label columns and the packed codes
        hclass = HypothesisClass(np.random.default_rng(1).integers(
            0, 2, size=(VC_MAX_CLASS, 14), dtype=np.uint8))
        tracemalloc.start()
        try:
            brute_force_vc(hclass, 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


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


def test_scalar_mixture_draw_matches_the_two_double_path():
    # 60 instances (one object at several oracles in opposed_labels, and
    # k = 1 and k = 64), 200 weight vectors each with about 30% of the
    # weights zero, 3 draws per vector, each from where the last one left
    # the stream
    instances = [suite_instance(s) for s in range(56)] + [
        generate(InstanceSpec(family, n=9, k=k, class_size=16, seed=3))
        for family, k in (("opposed_labels", 5), ("opposed_labels", 8),
                          ("random", 1), ("random", 64))]
    for s, inst in enumerate(instances):
        weights = make_rng((8404, s))
        ours, theirs = make_rng((8405, s)), make_rng((8405, s))
        ours_ledger, theirs_ledger = SampleLedger(inst.k), SampleLedger(inst.k)
        for v in range(200):
            w = weights.random(inst.k) * (weights.random(inst.k) < 0.7)
            if not w.sum() > 0:
                w[v % inst.k] = 1.0
            w /= w.sum()
            for _ in range(3):
                got = mixture_sample(inst, w, ours, ours_ledger)
                want = reference_mixture_sample(inst, w, theirs, theirs_ledger)
                assert got == want, f"instance {s}, weights {v}"
        assert ours_ledger.per_oracle == theirs_ledger.per_oracle
        assert ours_ledger.total == theirs_ledger.total == 600
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("count", [0, 1, 7, 5000])
def test_oracle_draws_match_their_own_lookup(count):
    # every oracle of each instance in turn, from one generator, so each
    # batch starts where the last one left the stream; opposed_labels puts
    # one distribution object at several oracles
    instances = [suite_instance(s) for s in range(20)] + [
        generate(InstanceSpec("opposed_labels", n=9, k=5, class_size=16, seed=s))
        for s in range(3)]
    for s, inst in enumerate(instances):
        ours, theirs = make_rng((8402, s)), make_rng((8402, s))
        ours_ledger, theirs_ledger = SampleLedger(inst.k), SampleLedger(inst.k)
        for i in range(inst.k):
            got = oracle_sample_many(inst, i, count, ours, ours_ledger)
            want = reference_oracle_sample_many(inst, i, count, theirs, theirs_ledger)
            assert all(np.array_equal(a, b) and a.dtype == b.dtype
                       for a, b in zip(got, want)), f"instance {s}, oracle {i}"
        assert ours_ledger.per_oracle == theirs_ledger.per_oracle == [count] * inst.k
        assert ours_ledger.total == theirs_ledger.total
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("count", [0, 1, 7, 5000])
def test_oracle_rows_match_the_stacked_one_index_calls(count):
    # every index list draws from one generator in turn, so each call starts
    # where the last one left the stream; a twin generator runs the
    # one-index batches, one per listed distribution, stacked as rows
    instances = [suite_instance(s) for s in range(20)] + [
        generate(InstanceSpec("opposed_labels", n=9, k=5, class_size=16, seed=s))
        for s in range(3)]
    for s, inst in enumerate(instances):
        last = inst.k - 1
        lists = [range(inst.k), [min(2, last), 0, min(2, last)], [], [last]]
        ours, theirs = make_rng((8403, s)), make_rng((8403, s))
        ours_ledger, theirs_ledger = SampleLedger(inst.k), SampleLedger(inst.k)
        for indices in lists:
            got = oracle_sample_many(inst, indices, count, ours, ours_ledger)
            want = reference_oracle_rows(inst, indices, count, theirs, theirs_ledger)
            assert all(a.shape == b.shape == (len(indices), count)
                       and a.dtype == b.dtype and np.array_equal(a, b)
                       for a, b in zip(got, want)), f"instance {s}, oracles {indices}"
        assert ours_ledger.per_oracle == theirs_ledger.per_oracle
        assert ours_ledger.total == theirs_ledger.total
        assert ours.bit_generator.state == theirs.bit_generator.state


class _Uniforms:
    """A stand-in generator whose ``random(count)`` hands out given doubles."""

    def __init__(self, u: np.ndarray):
        self.u = u

    def random(self, count: int) -> np.ndarray:
        assert count == len(self.u)
        return self.u


def _edge_uniforms(dist: FiniteDistribution, rng: np.random.Generator) -> np.ndarray:
    # every CDF edge below 1 and the doubles beside it, both zeros, the
    # largest double below 1 and a few random doubles
    cdf = np.add.accumulate(dist.probs)
    edges = cdf[cdf < 1.0]
    u = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
                        [0.0, -0.0, np.nextafter(1.0, 0.0)], rng.random(8)])
    return u[(u >= 0.0) & (u < 1.0)]


def _table_instances() -> dict[str, MdlInstance]:
    zeros = FiniteDistribution([(0, 0, -0.0), (1, 1, 0.5), (2, 0, 0.0), (3, 1, 0.0),
                                (4, 0, 0.5), (5, 1, -0.0)])
    one_atom = FiniteDistribution([(2, 1, 1.0)])
    cls = HypothesisClass(((np.arange(8)[:, None] >> np.arange(6)) & 1).tolist())
    opposed = generate(InstanceSpec("opposed_labels", n=6, k=64, class_size=16, seed=1))
    suite = suite_instance(7)
    return {
        **{f"suite {s}": suite_instance(s) for s in range(8)},
        "zero masses": MdlInstance(6, [zeros, one_atom, zeros], cls),
        "one atom, k = 1": MdlInstance(6, [one_atom], cls),
        "opposed_labels k = 64": opposed,
        "restricted opposed_labels": opposed.restrict([5, 0, 6, 1, 0]),
        "restricted suite": suite.restrict(list(range(suite.k))[::-1] + [0]),
    }


@pytest.mark.parametrize("name", list(_table_instances()))
def test_table_draws_match_the_per_distribution_lookup(name):
    # one _draws call over every position's edge uniforms, shuffled, against
    # reference_oracle_sample_many at the same uniforms, position by position
    inst = _table_instances()[name]
    rng = make_rng(8404)
    per_oracle = [_edge_uniforms(d, rng) for d in inst.distributions]
    oracles = np.repeat(np.arange(inst.k), [len(u) for u in per_oracle])
    u = np.concatenate(per_oracle)
    order = rng.permutation(len(u))
    ledger, theirs_ledger = SampleLedger(inst.k), SampleLedger(inst.k)
    points, labels = _draws(inst, oracles[order], u[order], ledger)
    assert points.dtype == labels.dtype == np.int64
    for i, ui in enumerate(per_oracle):
        want = reference_oracle_sample_many(inst, i, len(ui), _Uniforms(ui), theirs_ledger)
        rows = order.argsort()[oracles == i]
        assert np.array_equal(points[rows], want[0]) and np.array_equal(labels[rows], want[1]), \
            f"{name}, oracle {i}"
    assert ledger.per_oracle == theirs_ledger.per_oracle
    # a batch of none draws nothing and ledgers nothing
    none = _draws(inst, np.empty(0, dtype=np.int64), np.empty(0), ledger)
    assert all(a.shape == (0,) and a.dtype == np.int64 for a in none)
    assert ledger.per_oracle == theirs_ledger.per_oracle


@pytest.mark.parametrize("name", list(_table_instances()))
def test_loop_bisection_finds_the_searched_atom(name):
    # the Hedge loop bisects the CDF list within a position's bounds; the
    # batched search looks the complex key up in the whole table
    inst = _table_instances()[name]
    table, rng = inst.atom_table(), make_rng(8405)
    assert inst.atom_table() is table
    for i, d in enumerate(inst.distributions):
        lo, hi = table.bounds[i]
        assert table.points[lo:hi].tolist() == d.points.tolist()
        assert table.labels[lo:hi].tolist() == d.labels.tolist()
        u = _edge_uniforms(d, rng)
        keys = np.empty(len(u), dtype=np.complex128)
        keys.real, keys.imag = table.objects[i], u
        searched = table.keys.searchsorted(keys, side="right").tolist()
        assert [bisect_right(table.cdf, x, lo, hi) for x in u.tolist()] == searched
        assert [lo + d.atom_index(x) for x in u.tolist()] == searched


def test_gen_builds_no_table(monkeypatch, tmp_path):
    # gen draws nothing, so it never packs the atoms; a solve run does
    built = []

    def counted(instance):
        built.append(instance)
        return table(instance)

    table = model._AtomTable
    monkeypatch.setattr(model, "_AtomTable", counted)
    path = tmp_path / "inst.json"
    assert cli.main(["gen", "--family", "realizable", "--n", "8", "--k", "16",
                     "--class-size", "64", "--seed", "1", "--out", str(path)]) == 0
    assert built == []
    assert generate(InstanceSpec("opposed_labels", n=6, k=8, class_size=16, seed=1))._table is None
    assert cli.main(["solve", "--algo", "mid", "--instance", str(path), "--epsilon", "0.45",
                     "--no-trace", "--out", str(tmp_path / "r.json")]) == 0
    assert len(built) == 1
