"""The array-native mid loop against its object-level reference, and the
invariants it keeps every round."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import small_instances, suite_instance
from multidist import algos
from multidist.algos import run_finite, run_mid, run_personalized
from multidist.evaluate import InstanceSpec, brute_force_opt, evaluate_run, generate
from multidist.model import (
    SUM_TOL,
    SampleLedger,
    _label_loss,
    derive_seed,
)
import multidist.model
import multidist.online
import reference_mid
from multidist.online import _check_simplex
from reference_finite import reference_finite_loop
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

    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_mid_identical_at_small_k(self, k, monkeypatch):
        # k that are not powers of two, and k = 2, where the cap is 1
        paths: Counter = Counter()
        project = algos._project_capped

        def counted(v, cap):
            paths["clamp" if (v / v.sum() > cap).any() else "early"] += 1
            return project(v, cap)

        monkeypatch.setattr(algos, "_project_capped", counted)
        for s in range(3):
            inst = generate(InstanceSpec("random", n=6, k=k, class_size=16,
                                         seed=derive_seed(8105, k, s)))
            for estimator in algos.ESTIMATORS:
                ours = run_mid(inst, 0.3, 0.2, s, estimator=estimator)
                ref = reference_run_mid(inst, 0.3, 0.2, s, estimator=estimator)
                assert _same(ours, ref), f"seed {s}, {estimator}"
        assert paths["early"] > 0
        assert (paths["clamp"] > 0) == (k > 2)


class TestAcrossBlocks:
    def test_mid_identical_with_small_blocks(self, monkeypatch):
        # blocks of 7 rounds, so every run spans several, the last cut short
        monkeypatch.setattr(algos, "_PAIR_BLOCK", 7)
        cases = [(suite_instance(s), 0.45, 0.3, derive_seed(8106, s))
                 for s in range(0, 40, 4)]
        cases += [(generate(InstanceSpec("random", n=8, k=16, class_size=24,
                                         seed=derive_seed(8106, 16))), 0.3, 0.2, 5)]
        for inst, eps, delta, seed in cases:
            for estimator in algos.ESTIMATORS:
                ours = run_mid(inst, eps, delta, seed, estimator=estimator)
                ref = reference_run_mid(inst, eps, delta, seed, estimator=estimator)
                assert _same(ours, ref), f"k = {inst.k}, seed {seed}, {estimator}"

    def test_mid_identical_with_one_round_blocks(self, monkeypatch):
        # a (1, 4) block of doubles per round reads the stream the scalar
        # reference reads, four doubles a round
        monkeypatch.setattr(algos, "_PAIR_BLOCK", 1)
        for s in range(0, 40, 8):
            inst, seed = suite_instance(s), derive_seed(8111, s)
            for estimator in algos.ESTIMATORS:
                ours = run_mid(inst, 0.45, 0.3, seed, estimator=estimator)
                ref = reference_run_mid(inst, 0.45, 0.3, seed, estimator=estimator)
                assert _same(ours, ref), f"suite member {s}, {estimator}"

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_personalized_identical_down_to_one_distribution(self, k, monkeypatch):
        # k = 1 runs mid on one distribution; at k = 3 and 5 the halving
        # leaves at most one distribution for its last round
        insts = [generate(InstanceSpec("random", n=6, k=k, class_size=12,
                                       seed=derive_seed(8107, k, s))) for s in range(4)]

        def runs():
            return [run_personalized(inst, 0.45, 0.3, derive_seed(8108, k, s))
                    for s, inst in enumerate(insts)]

        ours = runs()
        monkeypatch.setattr(algos, "run_mid", reference_run_mid)
        for s, (a, b) in enumerate(zip(ours, runs())):
            assert _same(a, b), f"instance {s}"
        sizes = [rec["active_size"] for rep in ours for rec in rep.config["inner"]]
        assert 1 in sizes


class TestCheckStacks:
    """Each round's weights are checked in stacks of rounds; the stacks' edges
    change no report, and a fault raises what the per-round checks raised,
    for the same round."""

    @pytest.mark.parametrize("edge", ["T < B", "T = B", "T = B + 1",
                                      "stacks straddle blocks"])
    def test_reports_identical_at_stack_edges(self, edge, monkeypatch):
        monkeypatch.setattr(algos, "_PAIR_BLOCK", 7)
        real_check = algos._check_simplex_rows
        for s in (3, 10):
            inst, seed = suite_instance(s), derive_seed(8111, s)
            T = run_mid(inst, 0.45, 0.3, seed, record_trace=False).config["T"]
            B = {"T < B": T + 1, "T = B": T, "T = B + 1": T - 1,
                 "stacks straddle blocks": 5}[edge]
            sizes = []

            def counted(*stacks, cap=None):
                sizes.append(len(stacks[0]))
                real_check(*stacks, cap=cap)

            for estimator in algos.ESTIMATORS:
                sizes.clear()
                with monkeypatch.context() as m:
                    m.setattr(algos, "_CHECK_ROWS", B)
                    m.setattr(algos, "_check_simplex_rows", counted)
                    ours = run_mid(inst, 0.45, 0.3, seed, estimator=estimator)
                # full stacks, then the rest at the end (possibly none)
                assert sizes == [B] * (T // B) + [T % B]
                theirs = reference_run_mid(inst, 0.45, 0.3, seed, estimator=estimator)
                assert _same(ours, theirs), f"suite member {s}, {estimator}"

    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_personalized_identical_with_small_stacks(self, rows, monkeypatch):
        monkeypatch.setattr(algos, "_PAIR_BLOCK", 7)
        monkeypatch.setattr(algos, "_CHECK_ROWS", rows)

        def runs():
            return [run_personalized(suite_instance(s), 0.45, 0.3, derive_seed(8112, s))
                    for s in (2, 4, 9)]

        ours = runs()
        monkeypatch.setattr(algos, "run_mid", reference_run_mid)
        for a, b in zip(ours, runs()):
            assert _same(a, b)

    @staticmethod
    def _failing_round(monkeypatch, run) -> tuple[str, int, int]:
        """The error `run` raises, the round whose weights raised it, and
        the rounds begun by then, counted by the mixture draw each loop
        makes first in a round; ours finds the round from the stack that
        failed."""
        real_check, real_index = algos._check_simplex_rows, algos._mixture_index
        real_sample = reference_mid.mixture_sample
        seen = {"checked": 0, "failed": None, "begun": 0}

        def counted_check(*stacks, cap=None):
            try:
                real_check(*stacks, cap=cap)
            except ValueError:
                seen["failed"] = seen["checked"] + next(
                    j for j in range(len(stacks[0]))
                    if _raises(stacks[0][j], None) or _raises(stacks[1][j], cap))
                raise
            seen["checked"] += len(stacks[0])

        def counted_index(*args):
            seen["begun"] += 1
            return real_index(*args)

        def counted_sample(*args):
            seen["begun"] += 1
            return real_sample(*args)

        with monkeypatch.context() as m:
            m.setattr(algos, "_check_simplex_rows", counted_check)
            m.setattr(algos, "_mixture_index", counted_index)
            m.setattr(reference_mid, "mixture_sample", counted_sample)
            with pytest.raises(ValueError) as info:
                run()
        if seen["failed"] is None:  # the reference raised in its round
            return str(info.value), seen["begun"] - 1, seen["begun"]
        return str(info.value), seen["failed"], seen["begun"]

    @pytest.mark.parametrize("estimator", algos.ESTIMATORS)
    @pytest.mark.parametrize("s", [2, 4, 8])
    def test_a_nan_learner_raises_the_reference_error(self, s, estimator, monkeypatch):
        # every learner factor row on which hypothesis 1 errs gets a NaN
        # there, in our cached rows and in the reference's per-round Hedge
        # step alike; the learner's rows are |sub| wide, the adversary's k
        inst, seed = suite_instance(s), derive_seed(8113, s)
        width = run_mid(inst, 0.45, 0.3, seed, record_trace=False).config["cover_behaviors"]
        assert width not in (1, inst.k)
        real_exp = np.exp

        def poisoned(x, *args, **kwargs):
            out = real_exp(x, *args, **kwargs)
            if isinstance(out, np.ndarray) and out.size == width and x[1] < 0:
                out[1] = np.nan
            return out

        monkeypatch.setattr(np, "exp", poisoned)
        theirs = self._failing_round(monkeypatch, lambda: reference_run_mid(
            inst, 0.45, 0.3, seed, estimator=estimator))
        # the stack's middle row: the rows before it pass, later rounds run
        bad = theirs[1]
        assert bad >= 1
        monkeypatch.setattr(algos, "_PAIR_BLOCK", 7)
        monkeypatch.setattr(algos, "_CHECK_ROWS", bad + 2)
        ours = self._failing_round(monkeypatch, lambda: run_mid(
            inst, 0.45, 0.3, seed, estimator=estimator))
        assert ours[:2] == theirs[:2] == ("weights sum to nan, not 1", bad)
        assert ours[2] > bad + 1  # the error came from the stack, rounds later

    @pytest.mark.parametrize("estimator", algos.ESTIMATORS)
    @pytest.mark.parametrize("fault, message", [
        ("negative", "weights must be nonnegative"),
        ("over cap", "weight exceeds declared cap"),
    ])
    @pytest.mark.parametrize("s, at", [(1, 10), (3, 58), (9, 130), (1, 244)])
    def test_a_bad_adversary_raises_the_reference_error(self, s, at, fault, message,
                                                        estimator, monkeypatch):
        # round `at` projects the adversary onto a vector that fails one
        # check: in the middle of a stack of 4, or in the last round
        inst, seed = suite_instance(s), derive_seed(8114, s)
        T = run_mid(inst, 0.45, 0.3, seed, record_trace=False).config["T"]
        real_project = algos._project_capped

        def faulty(v, cap):
            w = real_project(v, cap)
            calls.append(1)
            if len(calls) - 1 != at:
                return w
            w = w * 0.1  # the sum stays 1 in both faults
            if fault == "negative":
                w[1] += w[0] + 0.9 + 1e-3
                w[0] = -1e-3
            else:  # the cap is at most 2/3 for k >= 3
                w[0] += 0.9
            return w

        calls: list[int] = []
        monkeypatch.setattr(multidist.online, "_project_capped", faulty)
        theirs = self._failing_round(monkeypatch, lambda: reference_run_mid(
            inst, 0.45, 0.3, seed, estimator=estimator))
        calls.clear()
        monkeypatch.setattr(algos, "_project_capped", faulty)
        monkeypatch.setattr(algos, "_PAIR_BLOCK", 7)
        monkeypatch.setattr(algos, "_CHECK_ROWS", 4)
        ours = self._failing_round(monkeypatch, lambda: run_mid(
            inst, 0.45, 0.3, seed, estimator=estimator))
        assert ours[:2] == theirs[:2] == (message, at)
        if at == T - 1:  # checked after the loop, in a stack cut to one row
            assert T % 4 == 1 and ours[2] == T
        else:
            assert 0 < at % 4 < 3 and ours[2] > at + 1

    @pytest.mark.parametrize("adversary, run", [(algos._Exp3, run_finite),
                                                (algos._CappedHedge, run_mid)])
    def test_a_nan_adversary_raises_the_stack_error(self, adversary, run, monkeypatch):
        # round 4's step leaves a NaN in the adversary's weights, so every
        # quotient of the next draw's CDF is NaN; that draw must still name
        # a distribution, so the rounds run on and only the check stack
        # raises, with no other error in flight
        real_step, real_index = adversary.step, algos._mixture_index
        steps, nan_draws = [], []

        def step(self, chosen, value):
            real_step(self, chosen, value)
            steps.append(1)
            if len(steps) == 5:
                self.w[0] = np.nan

        def index(p, u):
            i = real_index(p, u)
            if np.isnan(p).any():
                nan_draws.append((i, len(p)))
            return i

        monkeypatch.setattr(adversary, "step", step)
        monkeypatch.setattr(algos, "_mixture_index", index)
        inst = suite_instance(3)
        with pytest.raises(ValueError, match="weights sum to nan") as info:
            run(inst, 0.45, 0.3, derive_seed(8121, inst.k))
        assert info.value.__context__ is None
        assert nan_draws and all(0 <= i < k for i, k in nan_draws)
        assert len(steps) > 6


def _sequential_feedback(self, learner, costs, i, query):
    """``_CappedHedge.feedback`` as it scored the learner before the dot
    product: the positive weights normalized by their own sum and added up
    in hypothesis order, the bits of ``RandomizedHypothesis.prediction_mean``."""
    chosen, x, y = query
    positive = learner > 0
    weights, column = learner[positive], self.labels_at[x][positive]
    p1 = float(np.add.accumulate((weights / weights.sum()) * column)[-1])
    weight = float(self.w[chosen]) if self.estimator == "literal" else 1.0
    value = algos._estimate_value(_label_loss(p1, y), self.k, weight, self.estimator)
    if not -SUM_TOL <= value <= self.k + SUM_TOL:
        raise ValueError(f"adversary estimate {value!r} outside [0, {self.k}]")
    return chosen, value


class TestScoringChange:
    """The mid adversary scores its learner with one dot product, not the
    sequential sum it used before, so its estimates and weights move in
    their last bits.  The learner sees the adversary only through its
    draws, which move only at a uniform within an ulp or so of a CDF edge:
    on the suite, no mixture, ledger or sweep-row field moves."""

    @staticmethod
    def _runs():
        out = []
        for s in SUITE:
            inst = suite_instance(s)
            opt = brute_force_opt(inst)
            reports = [run_mid(inst, 0.45, 0.3, derive_seed(8122, s), estimator=e)
                       for e in algos.ESTIMATORS]
            reports.append(run_personalized(inst, 0.45, 0.3, derive_seed(8123, s)))
            out += [(r, evaluate_run(inst, r, 0.45, 0.25, opt)) for r in reports]
        return out

    def test_only_the_adversary_bits_move(self, monkeypatch):
        ours = self._runs()
        monkeypatch.setattr(algos._CappedHedge, "feedback", _sequential_feedback)
        moved = 0
        for (a, row_a), (b, row_b) in zip(ours, self._runs()):
            assert row_a == row_b
            assert a.to_dict(include_trace=False) == b.to_dict(include_trace=False)
            assert len(a.trace) == len(b.trace)
            for x, y in zip(a.trace, b.trace):
                if a.algorithm == "personalized":
                    assert x == y
                    continue
                assert (x["t"], x["learner_id"], x["chosen"]) == \
                    (y["t"], y["learner_id"], y["chosen"])
                assert abs(x["estimate"] - y["estimate"]) <= 1e-12
                assert np.abs(np.subtract(x["adversary"], y["adversary"])).max() <= 1e-12
                moved += x != y
        assert moved > 0  # the old scoring ran, and its bits differ


class _SummingExp3(algos._Exp3):
    """Exp3 that also adds up, with a per-round `+=`, every learner it is
    handed: the learners the rounds start from."""

    def __init__(self, k: int, width: int):
        super().__init__(k, 0.05, 0.2)
        self.total = np.zeros(width)

    def feedback(self, learner, costs, i, query):
        self.total += learner
        return super().feedback(learner, costs, i, query)


class TestStackedMean:
    """The loop adds the learner's rounds up once per check stack, with an
    axis-0 sum; each column must come out with the bits of the per-round
    sum, whatever the class width (at width 1 numpy may sum the column
    pairwise) and wherever the run ends in a stack."""

    @pytest.mark.parametrize("rows", [1, 2, 127, 128, 129])
    @pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 24, 1024])
    def test_mean_has_the_bits_of_the_per_round_sum(self, width, rows, monkeypatch):
        monkeypatch.setattr(algos, "_PAIR_BLOCK", 7)
        monkeypatch.setattr(algos, "_CHECK_ROWS", rows)
        monkeypatch.setattr(algos, "_CHECK_ENTRIES", rows * width)
        inst = generate(InstanceSpec("random", n=6, k=3, class_size=8,
                                     seed=derive_seed(8115, width)))
        rng = np.random.default_rng(derive_seed(8116, width, rows))
        matrix = rng.integers(0, 2, size=(width, 6)).astype(np.uint8)
        # full stacks only, a last stack cut short, a first stack cut short
        for T in (3 * rows, 3 * rows - 1, rows // 2 + 1):
            adversary = _SummingExp3(inst.k, width)
            mean = algos._hedge_loop(inst, matrix, T, 0.3, adversary, rng,
                                     SampleLedger(inst.k), False, [])
            want = adversary.total / T
            assert np.array_equal(mean.view(np.uint64), want.view(np.uint64)), T

    @pytest.mark.parametrize("rows", [1, 2, 5])
    @pytest.mark.parametrize("class_size", [1, 2])
    def test_one_and_two_row_classes_match_their_references(self, class_size, rows,
                                                            monkeypatch):
        monkeypatch.setattr(algos, "_PAIR_BLOCK", 7)
        monkeypatch.setattr(algos, "_CHECK_ROWS", rows)
        for s in range(3):
            inst = generate(InstanceSpec("random", n=6, k=3, class_size=class_size,
                                         seed=derive_seed(8117, class_size, s)))
            seed = derive_seed(8118, class_size, s)
            for estimator in algos.ESTIMATORS:
                ours = run_mid(inst, 0.3, 0.2, seed, estimator=estimator)
                assert ours.config["cover_behaviors"] == class_size
                ref = reference_run_mid(inst, 0.3, 0.2, seed, estimator=estimator)
                assert _same(ours, ref), f"mid, seed {s}, {estimator}"
            ours = run_finite(inst, 0.3, 0.2, seed)
            with monkeypatch.context() as m:
                m.setattr(algos, "_finite_loop", reference_finite_loop)
                assert _same(ours, run_finite(inst, 0.3, 0.2, seed)), f"finite, seed {s}"


def _raises(w: np.ndarray, cap: float | None) -> bool:
    try:
        _check_simplex(w, cap)
    except ValueError:
        return True
    return False


class TestEstimateOracle:
    def test_largest_double_needs_no_clamp(self):
        # random() returns at most 1 - 2**-53, and rounding is monotone, so
        # floor(u * k) <= k - 1 for every draw once it holds at that u: the
        # mid loop's oracle (u * k).astype(int64) is always in range(k), and
        # at k = 1 it is always 0
        ks = np.arange(1, 2 ** 20 + 1)
        u = 1.0 - 2.0 ** -53
        assert np.array_equal((u * ks).astype(np.int64), ks - 1)

    @pytest.mark.parametrize("k", [2 ** 31 + 1, 2 ** 32 + 1, 2 ** 45 + 7, 2 ** 52 + 1,
                                   2 ** 53 - 1])
    def test_no_clamp_for_any_k_below_2_to_the_53(self, k):
        # past the exhaustive range: for k < 2**53, u * k = k - k * 2**-53 at
        # the largest u lies between k and the double below it, nearer that
        # double, so it rounds below k
        u = np.array([0.0, 0.5, 1.0 - 2.0 ** -53])
        assert (u * k).astype(np.int64).tolist() == [0, k // 2, k - 1]

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 16, 64])
    def test_the_estimate_queries_a_uniform_oracle(self, k, monkeypatch):
        # the estimate needs its oracle uniform over the k distributions and
        # independent of the atom drawn from it; eps = 0.1 runs two blocks
        drawn = []
        draws = algos._draws

        def recorded(instance, oracles, u, ledger):
            drawn.append((oracles.copy(), u.copy()))
            return draws(instance, oracles, u, ledger)

        monkeypatch.setattr(algos, "_draws", recorded)
        inst = generate(InstanceSpec("random", n=6, k=k, class_size=12,
                                     seed=derive_seed(8109, k)))
        run_mid(inst, 0.1, 0.2, derive_seed(8110, k))
        assert len(drawn) > 1
        oracles = np.concatenate([o for o, _ in drawn])
        atoms = np.concatenate([u for _, u in drawn])
        counts = np.bincount(oracles, minlength=k)
        assert len(counts) == k and ((0 <= atoms) & (atoms < 1)).all()
        # Pearson's statistic has mean k - 1 and variance 2 (k - 1) when the
        # oracle is uniform
        expected = len(oracles) / k
        assert ((counts - expected) ** 2 / expected).sum() <= k - 1 + 5 * np.sqrt(2 * (k - 1))
        if k > 1:
            assert abs(np.corrcoef(oracles, atoms)[0, 1]) < 5 / np.sqrt(len(oracles))


def _counting_draws(monkeypatch, inst) -> Counter:
    """Count the atoms drawn from each distribution object of `inst`, ledger
    and atom lookup aside: a batch draws one atom per oracle it hands
    ``_draws``, and a loop round one atom from the distribution its
    ``_mixture_index`` names."""
    drawn: Counter = Counter()
    draws, mixture_index = algos._draws, algos._mixture_index

    def counted_draws(instance, oracles, u, ledger):
        drawn.update(id(instance.distributions[i]) for i in oracles.tolist())
        return draws(instance, oracles, u, ledger)

    def counted_index(p, u):
        i = mixture_index(p, u)
        drawn[id(inst.distributions[i])] += 1
        return i

    monkeypatch.setattr(algos, "_draws", counted_draws)  # the estimate's batches
    monkeypatch.setattr(multidist.model, "_draws", counted_draws)  # the public oracles'
    monkeypatch.setattr(algos, "_mixture_index", counted_index)
    return drawn


class TestLoopInvariants:
    @given(inst=small_instances())
    @settings(max_examples=30, deadline=None)
    def test_capped_simplex_and_ledger(self, inst):
        with pytest.MonkeyPatch.context() as mp:
            drawn = _counting_draws(mp, inst)
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
