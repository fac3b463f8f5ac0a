"""The array-native wide-class paths (the finite loop, ERM by counts, the
VC search and the mixture index) against their object-level references, and
the finite adversary's regret against Exp3's bound."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_same, suite_instance
from multidist import algos
from multidist.algos import run_cover_then_finite, run_fast, run_finite
from multidist.cover import SampleBatch, erm
from multidist.evaluate import InstanceSpec, generate, loss_matrix
from multidist.model import (
    HypothesisClass,
    _mixture_index,
    brute_force_vc,
    derive_seed,
    make_rng,
)
from multidist.online import _project_capped, payoff_regret_of, smooth_cap
from reference_finite import reference_erm, reference_finite_loop
from reference_kernels import reference_brute_force_vc

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
            assert_same(a, b, f"{algo} on {case[0]}")
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
        # sweep seeds; on 234 the learner mixture's loss rounds above 1
        cases = []
        for s in (111, 196, 234):
            inst = generate(InstanceSpec("random", n=12, k=4, class_size=1024,
                                         seed=derive_seed(s, 4, 0)))
            cases.append((f"random seed {s}", inst, 0.2, 0.2, 0.25,
                          derive_seed(s, 200000, 4, 1)))
        ours = _assert_same_as_reference(monkeypatch, cases)
        finite_traces = [json.loads(dumped[0])["trace"] for dumped in ours]
        assert any(rec["observed_loss"] == 1.0 for tr in finite_traces for rec in tr)


class TestBlockDrawnUniforms:
    def test_reports_identical_with_one_round_blocks(self, monkeypatch):
        # a (1, 2) block of doubles per round reads the stream the scalar
        # reference reads, the oracle's double, then the atom's
        monkeypatch.setattr(algos, "_PAIR_BLOCK", 1)
        cases = [(f"suite member {s}", suite_instance(s), 0.45, 0.3, 0.3,
                  derive_seed(8206, s)) for s in range(0, 40, 8)]
        _assert_same_as_reference(monkeypatch, cases)

    def test_reports_identical_across_blocks(self, monkeypatch):
        # small blocks, so every run spans several, the last one cut short
        monkeypatch.setattr(algos, "_PAIR_BLOCK", 7)
        cases = [(f"suite member {s}", suite_instance(s), 0.45, 0.3, 0.3,
                  derive_seed(8207, s)) for s in range(0, 40, 4)]
        _assert_same_as_reference(monkeypatch, cases)


class TestCheckStacks:
    """Each round's weights are checked in stacks of rounds; the stacks' edges
    change no report, and an error surfaces as the per-round checks raised it."""

    @pytest.mark.parametrize("record_trace", [True, False])
    @pytest.mark.parametrize("edge", ["T < B", "T = B", "T multiple of B", "T = B + 1",
                                      "B = 1", "stacks straddle blocks"])
    def test_reports_identical_at_stack_edges(self, edge, record_trace, monkeypatch):
        monkeypatch.setattr(algos, "_PAIR_BLOCK", 7)
        inst, seed = suite_instance(3), 8208
        real_check = algos._check_simplex_rows
        for run in (run_finite, run_cover_then_finite):
            T = run(inst, 0.45, 0.3, seed, record_trace=False).config["T"]
            B = {"T < B": T + 1, "T = B": T,
                 "T multiple of B": max(b for b in range(2, T) if T % b == 0),
                 "T = B + 1": T - 1, "B = 1": 1, "stacks straddle blocks": 5}[edge]
            sizes = []

            def counted(*stacks, cap=None):
                sizes.append(len(stacks[0]))
                real_check(*stacks, cap=cap)

            with monkeypatch.context() as m:
                m.setattr(algos, "_CHECK_ROWS", B)
                m.setattr(algos, "_check_simplex_rows", counted)
                ours = run(inst, 0.45, 0.3, seed, record_trace=record_trace)
            # full stacks, then the rest at the end (possibly none)
            assert sizes == [B] * (T // B) + [T % B]
            with monkeypatch.context() as m:
                m.setattr(algos, "_finite_loop", reference_finite_loop)
                theirs = run(inst, 0.45, 0.3, seed, record_trace=record_trace)
            assert_same(_dumped(ours), _dumped(theirs), ours.algorithm)

    @pytest.mark.parametrize("poison", [np.nan, -0.5])
    @pytest.mark.parametrize("s", [0, 3, 9, 14])
    def test_poisoned_factor_row_raises_the_reference_error(self, poison, s, monkeypatch):
        # every factor row on which hypothesis 1 errs gets `poison` there, in
        # our cached rows and in the reference's per-round Hedge step alike
        real_exp = np.exp

        def poisoned(x, *args, **kwargs):
            out = real_exp(x, *args, **kwargs)
            if isinstance(out, np.ndarray) and out.ndim == 1 and out.size > 1 and x[1] < 0:
                out[1] = poison
            return out

        inst = suite_instance(s)
        monkeypatch.setattr(np, "exp", poisoned)
        for run in (run_finite, run_cover_then_finite):
            with pytest.raises(ValueError) as ours:
                run(inst, 0.45, 0.3, 8209)
            with monkeypatch.context() as m:
                m.setattr(algos, "_finite_loop", reference_finite_loop)
                with pytest.raises(ValueError) as theirs:
                    run(inst, 0.45, 0.3, 8209)
            assert str(ours.value) == str(theirs.value)
            assert "weights" in str(ours.value)

    def test_a_round_error_waits_for_the_pending_checks(self, monkeypatch):
        # a round that raises after an unchecked bad round raises the bad
        # round's error; after good rounds, its own
        real_step, real_exp = algos._exp3_step, np.exp
        calls = []

        def failing_step(*args):
            calls.append(1)
            if len(calls) == 20:
                raise RuntimeError("round 20")
            return real_step(*args)

        def nan_row(x, *args, **kwargs):
            out = real_exp(x, *args, **kwargs)
            if isinstance(out, np.ndarray) and len(calls) >= 10:
                out[0] = np.nan
            return out

        inst = suite_instance(2)
        monkeypatch.setattr(algos, "_exp3_step", failing_step)
        with pytest.raises(RuntimeError, match="round 20"):
            run_finite(inst, 0.45, 0.3, 8210)
        calls.clear()
        monkeypatch.setattr(np, "exp", nan_row)
        with pytest.raises(ValueError, match="weights sum to nan"):
            run_finite(inst, 0.45, 0.3, 8210)
        assert len(calls) == 20


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
            assert _mixture_index(p, ours.random()) == int(theirs.choice(k, p=p))
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_drawing_unnormalized_weights_moves_a_draw_only_at_an_edge(self):
        """The mid loop draws from the capped adversary's weights as they
        are, not divided by their total first: `_mixture_index` divides its
        cumulative sum by the last entry either way, so the two CDFs differ
        at most in their last bits, and a draw can move only when u lies
        within a few ulps of an edge of one of them.  Of 1,000,000 random u
        (10,000 capped vectors at each k below, 20 u each) none moved; of
        5,020,000 u at an edge or one ulp either side, 88,268 did."""
        draw = make_rng(8205)
        moved = {"random": 0, "edge": 0}
        for k in (1, 2, 4, 16, 64):
            for j in range(100):
                w = _project_capped(draw.random(k) ** 8 + 1e-3, smooth_cap(k))
                p = w / np.add.reduce(w)
                edges = np.concatenate([_cdf(w), _cdf(p)])
                near = np.concatenate([np.nextafter(edges, 0), edges,
                                       np.nextafter(edges, 1)])
                cases = [("random", draw.random(20))]
                if j < 10:
                    cases.append(("edge", near[(near >= 0) & (near < 1)]))
                for kind, us in cases:
                    for u in us.tolist():
                        if _mixture_index(w, u) != _mixture_index(p, u):
                            moved[kind] += 1
                            assert (np.abs(u - edges) <= 4 * np.spacing(edges)).any()
        assert moved["edge"] > 0


def _cdf(p: np.ndarray) -> np.ndarray:
    """The CDF `_mixture_index` searches."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


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


class _RecordingExp3(algos._Exp3):
    """Exp3 that also keeps each round's played distribution and the learner
    it is handed."""

    def __init__(self, k: int, eta: float, exploration: float):
        super().__init__(k, eta, exploration)
        self.played, self.learners = [], []

    def feedback(self, learner, costs, i, query):
        self.played.append(self.w.copy())
        self.learners.append(learner.copy())
        return super().feedback(learner, costs, i, query)


class TestExp3Regret:
    @pytest.mark.parametrize("k", [4, 16])
    def test_regret_on_exact_losses_within_the_exp3_bound(self, k, monkeypatch):
        # Exp3's regret is at most (e - 1)γT + k ln k / γ (Auer, Cesa-Bianchi,
        # Freund & Schapire 2002), e·γT at the run's γ = sqrt(k ln k / T).
        # An adversary that mixed its exploration into its state broke this
        # bound at both k: up to 0.59 per round at k = 16, against 0.21.
        adversaries = []

        def recording(*args):
            adversaries.append(_RecordingExp3(*args))
            return adversaries[-1]

        monkeypatch.setattr(algos, "_Exp3", recording)
        for s in range(20):
            inst = generate(InstanceSpec("random", n=8, k=k, class_size=24, seed=s))
            report = run_finite(inst, 0.2, 0.2, 100 + s)
            adversary = adversaries[-1]
            T, gamma = report.config["T"], report.config["exploration"]
            payoffs = np.array(adversary.learners) @ loss_matrix(inst).T
            regret = payoff_regret_of(adversary.played, payoffs)
            assert regret / T <= math.e * gamma, (s, regret / T, math.e * gamma)
