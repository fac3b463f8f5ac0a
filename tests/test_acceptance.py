"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with `pytest -s` to see them
live).  Thresholds are pinned here, not tuned: statistical criteria state an
allowed failure frequency over fixed seed sets, exact criteria allow only
numerical slack.
"""

import csv
import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np

from helpers import suite_instance
from multidist import cli
from multidist.algos import (
    fast_params,
    mid_adversary_estimate,
    run_fast,
    run_mid,
    run_personalized,
)
from multidist.cover import (
    SampleBatch,
    cover_sample_size,
    erm,
    projection_cover,
)
from multidist.evaluate import (
    InstanceSpec,
    brute_force_opt,
    generate,
    loss_matrix,
    max_loss,
    minority_bound_check,
    smooth_argmax,
)
from multidist.model import (
    HypothesisClass,
    LabeledExample,
    RandomizedHypothesis,
    SampleLedger,
    brute_force_vc,
    derive_seed,
    exact_loss,
    make_rng,
    mixture_sample_many,
)
from multidist.online import (
    SimplexWeights,
    hedge_step_cost,
    hedge_step_payoff,
    payoff_regret_of,
    project_capped,
    regret_of,
)


@contextmanager
def criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {description}")
        raise
    print(f"[PASS] criterion {num:2d}: {description} "
          f"({time.perf_counter() - start:.1f}s)")


def test_c01_hedge_regret_bounds():
    with criterion(1, "Hedge regret bound holds on 200+200 random sequences"):
        rng = np.random.default_rng(9001)
        etas = [0.05, 0.1, 0.25, 0.5]
        for _ in range(200):
            d = int(rng.integers(2, 17))
            T = int(rng.integers(1, 513))
            eta = float(rng.choice(etas))
            costs = rng.random((T, d))
            w = SimplexWeights.uniform(d)
            actions = []
            for t in range(T):
                actions.append(w)
                w = hedge_step_cost(w, costs[t], eta)
            bound = math.log(d) / eta + eta * float(costs.sum(axis=0).min())
            assert regret_of(actions, list(costs)) <= bound + 1e-9
        for _ in range(200):
            d = int(rng.integers(2, 17))
            T = int(rng.integers(1, 513))
            eta = float(rng.choice(etas))
            payoffs = rng.random((T, d))
            w = SimplexWeights.uniform(d)
            actions = []
            for t in range(T):
                actions.append(w)
                w = hedge_step_payoff(w, payoffs[t], eta)
            bound = math.log(d) / eta + eta * float(payoffs.sum(axis=0).max())
            assert payoff_regret_of(actions, list(payoffs)) <= bound + 1e-9


def test_c02_capped_projection_matches_grid_kl():
    with criterion(2, "capped projection matches 1e-3 grid KL search (TV<=2e-3)"):
        cap = 2.0 / 3.0
        step = 1e-3
        axis = np.arange(0.0, cap + step / 2, step)
        P1, P2 = np.meshgrid(axis, axis, indexing="ij")
        P3 = 1.0 - P1 - P2
        mask = (P3 >= -1e-12) & (P3 <= cap + 1e-12)
        grid = np.stack([P1[mask], P2[mask], np.clip(P3[mask], 0.0, cap)], axis=1)
        log_grid = np.log(np.maximum(grid, 1e-300))
        rng = np.random.default_rng(9002)
        for _ in range(100):
            raw = rng.uniform(0.05, 1.0, size=3)
            w = raw / raw.sum()
            kl = -(w[None, :] * log_grid).sum(axis=1)  # + const(w)
            oracle = grid[int(np.argmin(kl))]
            ours = project_capped(raw, cap).w
            assert 0.5 * float(np.abs(ours - oracle).sum()) <= 2e-3
            again = project_capped(ours, cap).w
            assert np.all(np.abs(again - ours) <= 1e-12)


def test_c03_erm_matches_independent_scan():
    with criterion(3, "ERM equals an independent exhaustive scan on 500 pairs"):
        rng = make_rng(9003)
        for _ in range(500):
            size = int(rng.integers(1, 16))
            n = int(rng.integers(2, 9))
            cls = HypothesisClass(rng.integers(0, 2, size=(size, n)).tolist())
            m = int(rng.integers(1, 24))
            batch = SampleBatch(rng.integers(0, n, size=m),
                                rng.integers(0, 2, size=m))
            best_id, best_loss = None, None
            for h in cls.hypotheses:  # second, separately written scan
                wrong = sum(1 for x, y in zip(batch.points, batch.labels)
                            if int(h.labels[x]) != int(y))
                loss = wrong / m
                if best_loss is None or loss < best_loss:
                    best_id, best_loss = h.id, loss
            assert erm(cls, batch).id == best_id


def test_c04_accounting_identities():
    with criterion(4, "ledger totals equal predicted budgets (20+20 configs)"):
        fast_grid = list(itertools.product(
            [0.25, 0.3, 0.35, 0.4, 0.45], [0.25, 0.45], [0.1, 0.3]))
        assert len(fast_grid) == 20
        for i, (eps, alpha, delta) in enumerate(fast_grid):
            inst = suite_instance(i)
            rep = run_fast(inst, eps, alpha, delta, seed=derive_seed(9004, i),
                           record_trace=False)
            params = fast_params(eps, alpha, delta, inst.k,
                                 rep.config["vc_dim"])
            assert rep.ledger_total == params.predicted_budget
            assert rep.ledger_total == rep.config["T"] * (
                rep.config["r1"] + inst.k * rep.config["r2"])
        mid_grid = list(itertools.product(
            [0.25, 0.3, 0.35, 0.4, 0.45], [0.1, 0.3], [0, 1]))
        assert len(mid_grid) == 20
        for i, (eps, delta, shift) in enumerate(mid_grid):
            inst = suite_instance(2 * i + shift)
            rep = run_mid(inst, eps, delta, seed=derive_seed(9005, i),
                          record_trace=False)
            assert rep.ledger_total == rep.config["N"] + 2 * rep.config["T"]


def test_c05_fast_guarantee_shape():
    with criterion(5, "fast dynamics: failure freq <= 0.3 at eps=0.15 over 40 seeds"):
        eps, delta, alpha = 0.15, 0.2, 0.25
        failures = 0
        for s in range(40):
            inst = suite_instance(s)
            rep = run_fast(inst, eps, alpha, delta, seed=derive_seed(9006, s),
                           record_trace=False)
            opt = brute_force_opt(inst).opt_value
            value, _ = max_loss(inst, rep.hypothesis)
            failures += value > eps + (1 + alpha) * opt
        assert failures <= 0.3 * 40


def test_c06_mid_guarantee_shape():
    with criterion(6, "mid dynamics: 2-smooth excess <= 3*eps, failure freq <= 0.3"):
        eps, delta = 0.2, 0.2
        failures = 0
        for s in range(40):
            inst = suite_instance(s, kmax=6)
            cap = min(1.0, 2.0 / inst.k)
            rep = run_mid(inst, eps, delta, seed=derive_seed(9007, s),
                          record_trace=False)
            per_dist = [exact_loss(d, rep.hypothesis)
                        for d in inst.distributions]
            ours = smooth_argmax(per_dist, cap)[0]
            lmat = loss_matrix(inst)
            benchmark = min(smooth_argmax(lmat[:, j], cap)[0]
                            for j in range(lmat.shape[1]))
            failures += ours > benchmark + 3 * eps
        assert failures <= 0.3 * 40


def test_c07_personalized_guarantee():
    with criterion(7, "personalized: per-distribution loss <= OPT + 2*eps, halving"):
        eps, delta = 0.2, 0.2
        failures = 0
        for s in range(40):
            inst = suite_instance(s, kmax=8)
            rep = run_personalized(inst, eps, delta, seed=derive_seed(9008, s),
                                   record_trace=True)
            opt = brute_force_opt(inst).opt_value
            bad = any(exact_loss(inst.distributions[i], h) > opt + 2 * eps
                      for i, h in rep.assignments.items())
            failures += bad
            sizes = [len(rec["active"]) for rec in rep.trace]
            removed = [len(rec["removed"]) for rec in rep.trace]
            for j, size in enumerate(sizes):
                survivors = size - removed[j]
                assert survivors <= size // 2  # halving on every round
                if j + 1 < len(sizes):
                    assert sizes[j + 1] == survivors
            assert len(rep.trace) <= max(1, math.ceil(math.log2(inst.k)))
            assert sorted(rep.assignments.keys()) == list(range(inst.k))
        assert failures <= 0.3 * 40


def test_c08_minority_smoothing():
    with criterion(8, "2-smooth max dominates some majority subset (500 pairs)"):
        rng = make_rng(9009)
        for s in range(500):
            k = 1 + (s % 12)
            inst = generate(InstanceSpec(
                "random", n=4 + (s % 6), k=k, class_size=6 + (s % 10),
                seed=derive_seed(9010, s)))
            cls = inst.hypothesis_class
            if s % 2:
                h = cls.hypotheses[int(rng.integers(len(cls)))]
            else:
                h = RandomizedHypothesis.from_weights(
                    cls.hypotheses, rng.dirichlet(np.ones(len(cls))))
            assert minority_bound_check(inst, h)


def test_c09_estimator_unbiasedness():
    with criterion(9, "adversary estimate matches 1 - exact loss within 3 sigma"):
        draws = 100_000
        for pair in range(20):
            inst = suite_instance(pair)
            k = inst.k
            cls = inst.hypothesis_class
            pair_rng = make_rng(derive_seed(9211, pair))
            if pair % 2:
                h = cls.hypotheses[int(pair_rng.integers(len(cls)))]
            else:
                h = RandomizedHypothesis.from_weights(
                    cls.hypotheses, pair_rng.dirichlet(np.ones(len(cls))))
            acc = np.zeros(k)
            chosen = pair_rng.integers(k, size=draws)
            uniform = np.full(k, 1.0 / k)
            for i in range(k):
                cnt = int((chosen == i).sum())
                dist = inst.distributions[i]
                idx = dist.draw_indices(cnt, pair_rng)
                # the same draws, summed as one estimate per distinct atom
                # times the number of times it was drawn
                counts = np.bincount(idx, minlength=dist.support_size)
                for atom in np.flatnonzero(counts).tolist():
                    z = LabeledExample(int(dist.points[atom]), int(dist.labels[atom]))
                    acc += int(counts[atom]) * mid_adversary_estimate(uniform, i, z, h).values
            acc /= draws

            def loss_on(x, y):
                z = LabeledExample(int(x), int(y))
                return (h.expected_loss(z) if isinstance(h, RandomizedHypothesis)
                        else float(int(h.labels[int(x)]) != int(y)))

            exact = np.array([1.0 - exact_loss(d, h) for d in inst.distributions])
            second = np.array([k * sum(p * (1.0 - loss_on(x, y)) ** 2
                                       for x, y, p in d.atoms())
                               for d in inst.distributions])
            sigma = np.sqrt(np.maximum(second - exact ** 2, 0.0) / draws)
            assert np.all(np.abs(acc - exact) <= 3 * sigma + 1e-9)


def test_c10_eps_net_property():
    with criterion(10, "sampled projection cover is an eps-net in >=70% of 200 seeds"):
        eps, delta = 0.2, 0.2
        hits = 0
        for s in range(200):
            inst = generate(InstanceSpec(
                "random", n=4 + (s % 9), k=2 + (s % 4),
                class_size=8 + ((s * 5) % 25), seed=derive_seed(9012, s)))
            n, k = inst.domain_size, inst.k
            d = max(1, brute_force_vc(inst.hypothesis_class, n))
            N = cover_sample_size(d, eps, delta, 4.0)
            ledger = SampleLedger(k)
            pts, _ = mixture_sample_many(inst, np.full(k, 1.0 / k), N,
                                         make_rng(derive_seed(9013, s)), ledger)
            assert ledger.total == N
            cover = projection_cover(inst.hypothesis_class,
                                     sorted(set(int(p) for p in pts)))
            marginal = np.zeros(n)
            for dist in inst.distributions:
                for x, _, p in dist.atoms():
                    marginal[x] += p / k
            cmat = cover.subclass.matrix.astype(np.int64)
            ok = True
            for row in inst.hypothesis_class.matrix.astype(np.int64):
                disagreement = (cmat != row[None, :]).astype(float) @ marginal
                if float(disagreement.min()) > eps:
                    ok = False
                    break
            hits += ok
        assert hits >= 0.7 * 200


def test_c11_determinism(tmp_path):
    with criterion(11, "solve and sweep reruns are byte-identical"):
        solve_flags = ["solve", "--algo", "mid", "--family", "random",
                       "--n", "6", "--k", "3", "--epsilon", "0.3",
                       "--delta", "0.3", "--seed", "12"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(solve_flags + ["--out", str(a)]) == 0
        assert cli.main(solve_flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        sweep_flags = ["sweep", "--algo", "fast", "--family", "random",
                       "--n", "6", "--k", "3", "--grid-epsilon", "0.3,0.4",
                       "--seeds", "1,2", "--epsilon", "0.3"]
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        assert cli.main(sweep_flags + ["--jobs", "1", "--out", str(c)]) == 0
        assert cli.main(sweep_flags + ["--jobs", "2", "--out", str(d)]) == 0
        assert c.read_bytes() == d.read_bytes()
        rows = list(csv.DictReader(c.open()))
        assert len(rows) == 4 and all(r["error"] == "" for r in rows)

        # personalized reports replay identically too
        p1 = json.dumps(run_personalized(suite_instance(1, kmax=8), 0.3, 0.3,
                                         seed=5).to_dict(), sort_keys=True)
        p2 = json.dumps(run_personalized(suite_instance(1, kmax=8), 0.3, 0.3,
                                         seed=5).to_dict(), sort_keys=True)
        assert p1 == p2
