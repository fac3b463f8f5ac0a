import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import simplex_vectors
import multidist.online
from multidist.online import (
    CostVector,
    RegretLedger,
    SimplexWeights,
    exp3_step,
    hedge_step_cost,
    hedge_step_payoff,
    payoff_regret_of,
    project_capped,
    regret_of,
)


class TestSimplexWeights:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([0.5, 0.6]))

    def test_rejects_cap_violation(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([0.9, 0.1]), cap=0.6)

    def test_rejects_infeasible_cap(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([0.5, 0.5]), cap=0.3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SimplexWeights(np.array([np.nan, 1.0]))


class TestHedgeCost:
    def test_zero_costs_identity(self):
        w = SimplexWeights(np.array([0.2, 0.3, 0.5]))
        out = hedge_step_cost(w, np.zeros(3), 0.1)
        assert np.allclose(out.w, w.w, atol=1e-15)

    def test_closed_form_two_actions(self):
        # hand arithmetic: 0.5*e^{-ln 2} = 0.25 against 0.5 -> (1/3, 2/3)
        w = SimplexWeights.uniform(2)
        out = hedge_step_cost(w, np.array([1.0, 0.0]), math.log(2.0))
        assert np.allclose(out.w, [1 / 3, 2 / 3], atol=1e-12)

    def test_eta_out_of_range(self):
        w = SimplexWeights.uniform(2)
        with pytest.raises(ValueError):
            hedge_step_cost(w, np.zeros(2), 0.0)

    def test_dimension_mismatch(self):
        w = SimplexWeights.uniform(2)
        with pytest.raises(ValueError):
            hedge_step_cost(w, np.zeros(3), 0.1)

    def test_regret_bound_on_random_sequences(self):
        # replay of the exponential-weights guarantee on [0, 1] costs
        rng = np.random.default_rng(301)
        for _ in range(60):
            d = int(rng.integers(2, 17))
            T = int(rng.integers(1, 257))
            eta = float(rng.choice([0.05, 0.1, 0.25, 0.5]))
            costs = rng.random((T, d))
            w = SimplexWeights.uniform(d)
            actions = []
            for t in range(T):
                actions.append(w)
                w = hedge_step_cost(w, costs[t], eta)
            bound = math.log(d) / eta + eta * float(costs.sum(axis=0).min())
            assert regret_of(actions, list(costs)) <= bound + 1e-9

    @given(w=simplex_vectors(max_dim=6), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_output_is_simplex(self, w, data):
        eta = data.draw(st.floats(min_value=0.01, max_value=0.5))
        costs = np.asarray(data.draw(st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=len(w), max_size=len(w))))
        out = hedge_step_cost(SimplexWeights(w), costs, eta)
        assert abs(out.w.sum() - 1.0) <= 1e-12
        assert np.all(out.w >= 0)


class TestHedgePayoff:
    def test_zero_payoffs_identity(self):
        w = SimplexWeights(np.array([0.7, 0.3]))
        out = hedge_step_payoff(w, np.zeros(2), 0.2)
        assert np.allclose(out.w, w.w, atol=1e-15)

    def test_shift_equivalence_with_cost_step(self):
        # exp(eta*rho) and exp(-eta*(B - rho)) agree after normalization
        w = SimplexWeights(np.array([0.2, 0.5, 0.3]))
        rho = np.array([0.9, 0.1, 0.4])
        via_payoff = hedge_step_payoff(w, rho, 0.3)
        via_cost = hedge_step_cost(w, 1.0 - rho, 0.3)
        assert np.allclose(via_payoff.w, via_cost.w, atol=1e-12)

    @pytest.mark.parametrize("cap", [None, 0.3])
    def test_bitwise_equal_to_direct_payoff_update(self, cap):
        rng = np.random.default_rng(303)
        for _ in range(50):
            w = SimplexWeights.uniform(5, cap=cap)
            for _ in range(20):
                rho = rng.random(5)
                scaled = w.w * np.exp(0.4 * rho)
                direct = (scaled / scaled.sum() if cap is None
                          else project_capped(scaled, cap).w)
                w = hedge_step_payoff(w, rho, 0.4)
                assert np.array_equal(w.w, direct)

    def test_payoff_regret_bound_on_random_sequences(self):
        rng = np.random.default_rng(302)
        for _ in range(60):
            d = int(rng.integers(2, 17))
            T = int(rng.integers(1, 257))
            eta = float(rng.choice([0.05, 0.1, 0.25, 0.5]))
            payoffs = rng.random((T, d))
            w = SimplexWeights.uniform(d)
            actions = []
            for t in range(T):
                actions.append(w)
                w = hedge_step_payoff(w, payoffs[t], eta)
            bound = math.log(d) / eta + eta * float(payoffs.sum(axis=0).max())
            assert payoff_regret_of(actions, list(payoffs)) <= bound + 1e-9


def _grid_kl_projection(w, cap, step=1e-3):
    """Independent oracle: grid search minimizing KL(w || q) over the capped
    simplex (ties broken toward maximum entropy)."""
    d = len(w)
    w = np.asarray(w, dtype=float)
    w = w / w.sum()
    axes = [np.arange(0.0, cap + step / 2, step)] * (d - 1)
    best_kl, best_ent, best_q = np.inf, -np.inf, None
    for combo in itertools.product(*axes):
        last = 1.0 - sum(combo)
        if last < -1e-12 or last > cap + 1e-12:
            continue
        q = np.array(list(combo) + [max(last, 0.0)])
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(w > 0, w * (np.log(np.maximum(w, 1e-300))
                                         - np.log(np.maximum(q, 1e-300))), 0.0)
            ent = float(-(q[q > 0] * np.log(q[q > 0])).sum())
        kl = float(terms.sum())
        if kl < best_kl - 1e-12 or (abs(kl - best_kl) <= 1e-12 and ent > best_ent):
            best_kl, best_ent, best_q = kl, ent, q
    return best_q


class TestProjectCapped:
    def test_feasible_unchanged(self):
        out = project_capped(np.array([0.3, 0.3, 0.4]), 0.5)
        assert np.allclose(out.w, [0.3, 0.3, 0.4], atol=1e-15)

    def test_single_clamp(self):
        out = project_capped(np.array([0.8, 0.1, 0.1]), 2 / 3)
        assert np.allclose(out.w, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)
        oracle = _grid_kl_projection([0.8, 0.1, 0.1], 2 / 3, step=1e-2)
        assert 0.5 * np.abs(out.w - oracle).sum() <= 2e-2

    def test_point_mass(self):
        out = project_capped(np.array([1.0, 0.0, 0.0, 0.0]), 0.5)
        assert np.allclose(out.w, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-12)

    def test_point_mass_matches_grid_oracle(self):
        oracle = _grid_kl_projection([1.0, 0.0, 0.0], 2 / 3, step=1e-2)
        out = project_capped(np.array([1.0, 0.0, 0.0]), 2 / 3)
        assert 0.5 * np.abs(out.w - oracle).sum() <= 2e-2

    def test_cascading_clamps(self):
        # redistribution pushes the second coordinate over the cap too
        out = project_capped(np.array([0.5, 0.45, 0.05]), 0.4)
        assert np.allclose(out.w, [0.4, 0.4, 0.2], atol=1e-12)

    def test_infeasible_cap(self):
        with pytest.raises(ValueError):
            project_capped(np.array([0.5, 0.5]), 0.4)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            project_capped(np.zeros(3), 0.5)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_feasible(self, data):
        d = data.draw(st.integers(min_value=2, max_value=8))
        raw = np.asarray(data.draw(st.lists(
            st.floats(min_value=0.0, max_value=10.0),
            min_size=d, max_size=d)))
        if raw.sum() <= 0:
            raw[0] = 1.0
        cap = data.draw(st.floats(min_value=1.0 / d + 1e-6, max_value=1.0))
        once = project_capped(raw, cap)
        assert float(once.w.max()) <= cap + 1e-12
        assert abs(float(once.w.sum()) - 1.0) <= 1e-12
        twice = project_capped(once.w, cap)
        assert np.all(np.abs(twice.w - once.w) <= 1e-12)

    def test_order_insensitive(self):
        raw = np.array([0.7, 0.2, 0.06, 0.04])
        perm = np.array([2, 0, 3, 1])
        direct = project_capped(raw[perm], 0.5).w
        permuted = project_capped(raw, 0.5).w[perm]
        assert np.all(np.abs(direct - permuted) <= 1e-12)


class TestExp3:
    def test_zero_cost_only_explores(self):
        w = SimplexWeights(np.array([0.6, 0.4]))
        out = exp3_step(w, 0, 0.0, eta=0.2, exploration=0.1)
        expected = 0.9 * w.w + 0.1 / 2
        assert np.allclose(out.w, expected, atol=1e-15)

    def test_penalized_arm_decreases(self):
        w = SimplexWeights.uniform(2)
        history = [w.w[0]]
        for _ in range(10):
            w = exp3_step(w, 0, 1.0, eta=0.1, exploration=0.1)
            history.append(w.w[0])
        assert all(b < a for a, b in zip(history, history[1:]))

    def test_estimator_unbiased(self):
        # Monte-Carlo oracle for E[c_hat * e_chosen] = c
        rng = np.random.default_rng(303)
        w = np.array([0.5, 0.3, 0.2])
        c = np.array([0.8, 0.4, 0.1])
        m = 200_000
        chosen = rng.choice(3, size=m, p=w)
        acc = np.zeros(3)
        sq = np.zeros(3)
        for i in range(3):
            cnt = int((chosen == i).sum())
            est = c[i] / w[i]
            acc[i] = est * cnt / m
            sq[i] = est ** 2 * cnt / m
        sigma = np.sqrt(np.maximum(sq - acc ** 2, 0) / m)
        assert np.all(np.abs(acc - c) <= 3 * sigma + 1e-12)

    def test_zero_probability_arm_rejected(self):
        w = SimplexWeights(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            exp3_step(w, 1, 0.5, eta=0.1, exploration=0.0)


def _capped_vertices(d: int, cap: float):
    """All vertices of {w in simplex : w_i <= cap}: a set of coordinates at
    the cap plus at most one carrying the remainder."""
    full = int(math.floor(1.0 / cap + 1e-12))
    rem = 1.0 - full * cap
    verts = []
    for caps in itertools.combinations(range(d), full):
        if rem <= 1e-12:
            v = np.zeros(d)
            v[list(caps)] = cap
            verts.append(v)
            continue
        for extra in range(d):
            if extra in caps:
                continue
            v = np.zeros(d)
            v[list(caps)] = cap
            v[extra] = rem
            verts.append(v)
    return verts


class TestRegret:
    def test_single_round_zero(self):
        assert regret_of([np.array([1.0])], [np.array([0.7])]) == pytest.approx(0.0)

    def test_constant_best_action_zero(self):
        costs = [np.array([0.2, 0.9])] * 8
        actions = [np.array([1.0, 0.0])] * 8
        assert regret_of(actions, costs) == pytest.approx(0.0, abs=1e-12)

    def test_capped_comparator_matches_vertex_enumeration(self):
        rng = np.random.default_rng(304)
        cap = 0.5
        for _ in range(50):
            T = int(rng.integers(1, 20))
            costs = [rng.random(3) for _ in range(T)]
            actions = [rng.dirichlet(np.ones(3)) for _ in range(T)]
            got = regret_of(actions, costs, cap=cap)
            totals = np.sum(costs, axis=0)
            realized = sum(float(a @ c) for a, c in zip(actions, costs))
            best = min(float(v @ totals) for v in _capped_vertices(3, cap))
            assert got == pytest.approx(realized - best, abs=1e-10)

    def test_payoff_capped_comparator(self):
        rng = np.random.default_rng(305)
        cap = 0.5
        payoffs = [rng.random(3) for _ in range(12)]
        actions = [rng.dirichlet(np.ones(3)) for _ in range(12)]
        got = payoff_regret_of(actions, payoffs, cap=cap)
        totals = np.sum(payoffs, axis=0)
        realized = sum(float(a @ c) for a, c in zip(actions, payoffs))
        best = max(float(v @ totals) for v in _capped_vertices(3, cap))
        assert got == pytest.approx(best - realized, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            regret_of([np.array([1.0])], [])

    def test_ledger_matches_batch_computation(self):
        rng = np.random.default_rng(306)
        ledger = RegretLedger(4, cap=0.5)
        actions, costs = [], []
        for _ in range(30):
            a = rng.dirichlet(np.ones(4))
            c = rng.random(4)
            ledger.record(a, c)
            actions.append(a)
            costs.append(c)
        assert ledger.cost_regret() == pytest.approx(
            regret_of(actions, costs, cap=0.5), abs=1e-10)
        assert ledger.payoff_regret() == pytest.approx(
            payoff_regret_of(actions, costs, cap=0.5), abs=1e-10)


class TestCostVector:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            CostVector(np.array([0.5, 1.5]), bound=1.0)

    def test_wide_bound_allows_scaled_costs(self):
        cv = CostVector(np.array([0.0, 3.0]), bound=4.0)
        assert cv.bound == 4.0

    def test_rejects_nan(self):
        for values in ([np.nan, 0.5], [0.5, np.nan]):
            with pytest.raises(ValueError):
                CostVector(np.array(values))
        with pytest.raises(ValueError):
            CostVector.one_hot(3, 1, float("nan"), bound=3.0)

    def test_one_hot_checks_its_value(self):
        cv = CostVector.one_hot(3, 1, 2.5, bound=3.0)
        assert cv.values.tolist() == [0.0, 2.5, 0.0] and cv.bound == 3.0
        for value in (-0.1, 3.1):
            with pytest.raises(ValueError):
                CostVector.one_hot(3, 1, value, bound=3.0)


class TestStochasticApproximation:
    def test_gap_grows_like_sqrt_t(self):
        # mean |regret(expected) - regret(sampled)| should scale ~ sqrt(T):
        # quadrupling T must raise it by at most 2.5x, not 4x
        def gap(T, seed, d=4):
            rng = np.random.default_rng(seed)
            means = rng.uniform(0.2, 0.8, size=d)
            eta = math.sqrt(math.log(d) / T)
            sampled = (rng.random((T, d)) < means).astype(float)
            w = SimplexWeights.uniform(d)
            actions = []
            for t in range(T):
                actions.append(w)
                w = hedge_step_cost(w, sampled[t], eta)
            return abs(regret_of(actions, list(sampled))
                       - regret_of(actions, [means] * T))

        small = np.mean([gap(128, 1000 + s) for s in range(200)])
        large = np.mean([gap(512, 2000 + s) for s in range(200)])
        assert large / small <= 2.5


def test_import_does_not_load_ground_truth_module():
    src = str(Path(multidist.online.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import multidist.online; "
            "print('multidist.evaluate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
