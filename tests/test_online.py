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
from multidist import algos
from multidist.evaluate import InstanceSpec, generate
from multidist.model import derive_seed
from multidist.online import (
    CostVector,
    SimplexWeights,
    _check_simplex,
    _check_simplex_rows,
    _exp3_step,
    _project_capped,
    exp3_step,
    hedge_step_cost,
    hedge_step_payoff,
    payoff_regret_of,
    project_capped,
    regret_of,
    smooth_argmax,
    smooth_cap,
)
from reference_finite import reference_exp3_step
from reference_projection import reference_project_capped


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


class TestCheckSimplex:
    @pytest.mark.parametrize("w, cap, message", [
        ([0.5, np.nan, 0.5], None, "sum to nan"),
        ([np.nan, 0.5, 0.5], 1.0, "sum to nan"),
        ([-0.25, 1.25], None, "nonnegative"),
        ([0.7, 0.3], 0.5, "cap"),
        ([0.25, 0.25, 0.25], None, "not 1"),
    ])
    def test_rejects(self, w, cap, message):
        with pytest.raises(ValueError, match=message):
            _check_simplex(np.array(w), cap)


def _simplex_rows(rng, rows: int, d: int) -> np.ndarray:
    stack = rng.random((rows, d)) + 1e-3
    return stack / stack.sum(axis=1, keepdims=True)


def _first_row_error(stacks, cap: float | None = None) -> tuple[type, str] | None:
    """What one `_check_simplex` call per row raises first, row j of every
    stack before row j + 1 of any, or None if every row passes; `cap` binds
    the last stack's rows."""
    for j in range(len(stacks[0])):
        for i, s in enumerate(stacks):
            try:
                _check_simplex(s[j], cap if i == len(stacks) - 1 else None)
            except ValueError as err:
                return type(err), str(err)
    return None


def _capped_rows(rng, rows: int, k: int) -> np.ndarray:
    """Rows on the simplex with every entry at most 2 / k: entries drawn
    from [1, 2) sum to at least k."""
    stack = rng.random((rows, k)) + 1.0
    return stack / stack.sum(axis=1, keepdims=True)


class TestCheckSimplexRows:
    def test_row_reductions_have_the_bits_of_one_row_at_a_time(self):
        # the loop checks the rows of a learner stack (|H| wide) and of an
        # adversary stack (k wide), each a leading slice of a larger buffer
        rng = np.random.default_rng(8301)
        for d in [*range(1, 65), 100, 255, 256, 257, 1000, 1023, 1024, 5001, 40_000]:
            for rows in (1, 2, 7, 32, 40):
                buffer = rng.random((rows + 3, d)) * 10.0 ** rng.uniform(-3, 3, (rows + 3, 1))
                stack = buffer[:rows]
                low = np.minimum.reduce(stack, axis=1)
                total = np.add.reduce(stack, axis=1)
                for j in range(rows):
                    assert low[j] == np.minimum.reduce(stack[j])
                    assert total[j] == np.add.reduce(stack[j])

    @pytest.mark.parametrize("d", [1, 2, 4, 7, 8, 16, 64, 1024])
    def test_a_fault_raises_what_the_first_failing_row_raises(self, d):
        rng = np.random.default_rng(8302 + d)
        raised = 0
        for _ in range(150):
            rows = int(rng.integers(1, 41))
            stacks = [_simplex_rows(rng, rows, d),
                      _simplex_rows(rng, rows, int(rng.integers(1, 65)))]
            for _ in range(int(rng.integers(0, 4))):
                s = stacks[int(rng.integers(2))]
                j, i = int(rng.integers(rows)), int(rng.integers(s.shape[1]))
                fault = int(rng.integers(4))
                if fault == 0:
                    s[j, i] = np.nan
                elif fault == 1:
                    s[j, i] = -np.inf
                elif fault == 2:  # a negative entry, its mass moved to the next
                    below = rng.choice([5e-324, 1e-300, 0.25])
                    s[j, (i + 1) % s.shape[1]] += s[j, i] + below
                    s[j, i] = -below
                else:
                    s[j] *= 1.0 + 1e-6
            expected = _first_row_error(stacks)
            if expected is None:
                _check_simplex_rows(*stacks)
                continue
            raised += 1
            with pytest.raises(expected[0]) as info:
                _check_simplex_rows(*stacks)
            assert str(info.value) == expected[1]
        assert 50 < raised < 150  # both outcomes occur

    def test_no_rows_pass(self):
        _check_simplex_rows(np.empty((0, 5)), np.empty((0, 3)))
        _check_simplex_rows(np.empty((0, 5)), np.empty((0, 3)), cap=0.5)

    @pytest.mark.parametrize("d", [1, 2, 7, 16, 64, 1024])
    def test_a_capped_fault_raises_what_the_first_failing_row_raises(self, d):
        # the mid loop's call: a learner stack, then an adversary stack whose
        # rows must also stay at or below the cap
        rng = np.random.default_rng(8303 + d)
        raised = {"cap": 0, "other": 0}
        for _ in range(150):
            rows, k = int(rng.integers(1, 41)), int(rng.integers(3, 65))
            cap = 2.0 / k
            stacks = [_simplex_rows(rng, rows, d), _capped_rows(rng, rows, k)]
            for _ in range(int(rng.integers(0, 4))):
                s = stacks[int(rng.integers(2))]
                j, i = int(rng.integers(rows)), int(rng.integers(s.shape[1]))
                fault = int(rng.integers(4))
                if fault == 0:
                    s[j, i] = np.nan
                elif fault == 1:
                    s[j, i] = -1e-300
                elif fault == 2:
                    s[j] *= 1.0 + 1e-6
                else:  # mass moved onto one entry: the sum stays 1
                    s[j] *= 0.5
                    s[j, i] += 0.5
            expected = _first_row_error(stacks, cap)
            if expected is None:
                _check_simplex_rows(*stacks, cap=cap)
                continue
            raised["cap" if "cap" in expected[1] else "other"] += 1
            with pytest.raises(expected[0]) as info:
                _check_simplex_rows(*stacks, cap=cap)
            assert str(info.value) == expected[1]
        assert raised["cap"] > 5 and raised["other"] > 5

    def test_a_row_over_the_cap_alone_raises_the_cap_error(self):
        rng = np.random.default_rng(8304)
        adversary = _capped_rows(rng, 6, 8)
        adversary[3] = [0.5] + [0.5 / 7] * 7
        learner = _simplex_rows(rng, 6, 5)
        _check_simplex_rows(learner, adversary)  # uncapped, as the finite loop calls it
        # the cap binds the last stack alone
        _check_simplex_rows(adversary, _capped_rows(rng, 6, 8), cap=0.25)
        _check_simplex_rows(learner[:3], adversary[:3], cap=0.25)  # rows before it pass
        with pytest.raises(ValueError, match="^weight exceeds declared cap$"):
            _check_simplex_rows(learner, adversary, cap=0.25)
        with pytest.raises(ValueError, match="^weight exceeds declared cap$"):
            _check_simplex_rows(adversary, cap=0.25)

    def test_a_nan_row_raises_the_sum_error_before_the_cap(self):
        rng = np.random.default_rng(8305)
        learner, adversary = _simplex_rows(rng, 5, 4), _capped_rows(rng, 5, 8)
        adversary[2, 0] = np.nan
        adversary[4] = [0.5] + [0.5 / 7] * 7
        _check_simplex_rows(learner[:2], adversary[:2], cap=0.25)
        with pytest.raises(ValueError, match=r"^weights sum to nan, not 1$"):
            _check_simplex_rows(learner, adversary, cap=0.25)
        learner[1] *= 1.0 + 1e-6  # a learner row fails an earlier round first
        with pytest.raises(ValueError, match=r"^weights sum to 1\.00000\d+, not 1$"):
            _check_simplex_rows(learner, adversary, cap=0.25)


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


# (vector, cap) pairs at the edges of the clamp pass
_PROJECTION_EDGES = [
    ([0.3, 0.7], 1.0), ([1.0, 0.0], 1.0),  # cap = 1 at k = 2
    ([0.0, 0.0, 5.0], 0.5), ([1.0, 0.0, 0.0, 0.0], 0.5),  # zeros
    ([5e-324, 0.0, 0.0], 0.5), ([5e-324, 5e-324, 1e-310], 0.5),  # subnormals
    ([1.0, 1.0, 0.0, 0.0], 0.5), ([10.0, 1.0, 1.0, 1.0, 0.0], 0.25),  # ties at cap
    # every coordinate clamped: the cap sits just inside the feasibility
    # tolerance, so the uniform share of the zeros exceeds it
    ([1.0, 0.0, 0.0, 0.0], (1.0 - 1e-13) / 4),
    # residual <= 0: three clamps at cap 1/3 leave 1 - 3 * cap = 0 for the last
    ([1.0, 1.0, 1.0 + 2.0 ** -52, 0.0], 1.0 / 3.0),
]


def _projection_cases(count: int, seed: int, chunk: int = 10_000):
    """Random (vector, cap) pairs, k in 1..64: uniform, heavy-tailed (many
    clamps), small integers (ties) and subnormal entries, a fifth of them
    zeroed, at caps from just inside the feasibility tolerance up to 1.
    Drawn in chunks of rows; each vector is a prefix of its row."""
    rng = np.random.default_rng(seed)
    for start in range(0, count, chunk):
        rows = min(chunk, count - start)
        kinds = np.stack([
            rng.random((rows, 64)),
            rng.exponential(size=(rows, 64)) ** 3,
            rng.integers(0, 4, size=(rows, 64)).astype(np.float64),
            rng.random((rows, 64)) * 10.0 ** rng.uniform(-322, -300, (rows, 64)),
        ])
        m = kinds[rng.integers(4, size=rows), np.arange(rows)]
        m[rng.random((rows, 64)) < 0.2] = 0.0
        m[:, 0] += m[:, 0] == 0  # a zero first entry becomes 1: no zero vector
        d = rng.integers(1, 65, size=rows)
        caps = np.stack([np.minimum(1.0, 2.0 / d), 1.0 / d, (1.0 - 1e-13) / d,
                         np.ones(rows), rng.uniform(1.0 / d, 1.0)])
        pick = rng.choice(len(caps), size=rows, p=[0.35, 0.05, 0.05, 0.15, 0.4])
        cap = caps[pick, np.arange(rows)]
        yield from zip([m[r, :d[r]] for r in range(rows)], cap.tolist())


class TestProjectionAgainstReference:
    def test_bits_match_the_masked_clamp_pass(self):
        clamped = 0
        cases = [(np.array(v), cap) for v, cap in _PROJECTION_EDGES]
        for v, cap in [*cases, *_projection_cases(100_000, 8301)]:
            ours = _project_capped(v, cap)
            ref = reference_project_capped(v, cap)
            assert ours.tobytes() == ref.tobytes(), (v.tolist(), cap)
            clamped += bool((v / v.sum() > cap).any())
        assert 10_000 < clamped < 90_000

    def test_bits_match_on_loop_steps(self, monkeypatch):
        # every adversary step of mid, as the loop hands it over after the
        # one-hot scale: a capped point re-clamped, with several coordinates
        # exactly at the cap, which the random cases above are not built as
        steps = []
        project = algos._project_capped

        def recording(v, cap):
            steps.append((v.copy(), cap))
            return project(v, cap)

        monkeypatch.setattr(algos, "_project_capped", recording)
        for k in (16, 64):
            for s in range(4):
                inst = generate(InstanceSpec("random", n=8, k=k, class_size=24,
                                             seed=derive_seed(8304, k, s)))
                algos.run_mid(inst, 0.3, 0.2, derive_seed(8305, k, s), record_trace=False)
        clamped = at_cap = 0
        for v, cap in steps:
            ours = _project_capped(v, cap)
            assert ours.tobytes() == reference_project_capped(v, cap).tobytes(), (
                v.tolist(), cap)
            clamped += bool((v / v.sum() > cap).any())
            at_cap += np.count_nonzero(v == cap) >= 2
        assert {len(v) for v, _ in steps} == {16, 64}
        # 1,592 of the 8,312 steps clamp, 555 of them with two or more
        # coordinates at the cap
        assert clamped > 1_000 and at_cap > 250


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

    def test_in_place_step_has_the_bits_of_the_copying_step(self):
        rng = np.random.default_rng(8303)
        for _ in range(20_000):
            k = int(rng.integers(1, 65))
            w = _simplex_rows(rng, 1, k)[0]
            chosen = int(rng.integers(k))
            cost, eta, exploration = rng.random(), rng.random(), rng.random()
            expected = reference_exp3_step(w, chosen, cost, eta, exploration)
            got = w.copy()
            assert _exp3_step(got, got, chosen, cost, eta, exploration) is got
            assert got.tobytes() == expected.tobytes()

    def test_public_step_leaves_its_input(self):
        w = SimplexWeights(np.array([0.25, 0.75]))
        exp3_step(w, 0, 1.0, eta=0.5, exploration=0.1)
        assert w.w.tolist() == [0.25, 0.75]

    @pytest.mark.parametrize("eta", [0.0, -0.1, math.nan, math.inf, -math.inf])
    def test_rate_must_be_positive_and_finite(self, eta):
        # the rate rule of the Hedge steps, with its message
        w = SimplexWeights.uniform(2)
        with pytest.raises(ValueError,
                           match=f"learning rate must be positive and finite, got {eta}"):
            exp3_step(w, 0, 0.5, eta=eta, exploration=0.1)


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

    @staticmethod
    def _one_hot(value: float) -> np.ndarray:
        values = np.zeros(3)
        values[1] = value
        return values

    def test_checks_a_one_hot_value(self):
        # the mid adversary's estimate: one value at its index, zeros elsewhere
        cv = CostVector(self._one_hot(2.5), bound=3.0)
        assert cv.values.tolist() == [0.0, 2.5, 0.0] and cv.bound == 3.0
        for value in (float("nan"), -0.1, 3.1):
            with pytest.raises(ValueError, match=r"cost entries outside \[0, 3.0\]"):
                CostVector(self._one_hot(value), bound=3.0)


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


class TestOneCapRule:
    """SimplexWeights, project_capped and smooth_argmax accept and reject the
    same (cap, d) pairs, with one message."""

    D = 4
    EDGE = (1.0 - 1e-12) / 4  # dividing by 4 is exact: cap * d == 1 - 1e-12

    @staticmethod
    def _uses(cap, d):
        return [lambda: SimplexWeights.uniform(d, cap),
                lambda: project_capped(np.ones(d), cap),
                lambda: project_capped(np.arange(d, dtype=np.float64), cap),
                lambda: smooth_argmax(np.arange(d, dtype=np.float64), cap)]

    @pytest.mark.parametrize("cap", [EDGE, float(np.nextafter(EDGE, 1.0)), 0.5, 1.0])
    def test_feasible_caps_accepted_everywhere(self, cap):
        for use in self._uses(cap, self.D):
            use()

    @pytest.mark.parametrize("cap", [float(np.nextafter(EDGE, 0.0)), 0.0, -0.25,
                                     float("nan")])
    def test_infeasible_caps_rejected_everywhere(self, cap):
        for use in self._uses(cap, self.D):
            with pytest.raises(ValueError) as err:
                use()
            assert str(err.value) == f"infeasible cap {cap} in dimension {self.D}"


def test_import_does_not_load_ground_truth_module():
    src = str(Path(multidist.online.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import multidist.online; "
            "print('multidist.evaluate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
