import csv
import json

import pytest

from multidist import algos, cli, evaluate
from multidist.algos import RunReport
from multidist.evaluate import InstanceSpec, brute_force_opt, generate
from multidist.model import (
    FiniteDistribution,
    HypothesisClass,
    MdlInstance,
    RandomizedHypothesis,
)


def run_cli(*argv):
    return cli.main(list(argv))


def _counted(fn, calls: list):
    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    return wrapper


class TestGen:
    def test_realizable_file_has_zero_opt(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert run_cli("gen", "--family", "realizable", "--k", "4", "--n", "8",
                       "--seed", "7", "--out", str(out)) == 0
        inst = MdlInstance.load(str(out))
        assert brute_force_opt(inst).opt_value <= 1e-12
        printed = capsys.readouterr().out
        assert "OPT=" in printed and "VC=" in printed

    def test_same_flags_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli("gen", "--family", "random", "--k", "3", "--n", "6",
                    "--seed", "11", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_one_loss_matrix_per_cell(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(evaluate, "loss_matrix", _counted(evaluate.loss_matrix, calls))
        out = tmp_path / "inst.json"
        assert run_cli("gen", "--family", "realizable", "--n", "12", "--k", "64",
                       "--class-size", "1024", "--seed", "3", "--out", str(out)) == 0
        assert len(calls) == 1
        printed = capsys.readouterr().out
        assert f"OPT={brute_force_opt(MdlInstance.load(str(out))).opt_value!r}" in printed

    def test_invalid_k_message_and_exit(self, tmp_path, capsys):
        code = run_cli("gen", "--family", "random", "--k", "0",
                       "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "k must be ≥ 1" in capsys.readouterr().err


class TestSolve:
    def test_report_and_csv_row(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        run_cli("gen", "--family", "realizable", "--k", "3", "--n", "6",
                "--seed", "5", "--out", str(inst_path))
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "row.csv"
        assert run_cli("solve", "--algo", "fast", "--instance", str(inst_path),
                       "--epsilon", "0.2", "--delta", "0.2", "--alpha", "0.25",
                       "--seed", "3", "--out", str(report_path),
                       "--csv", str(csv_path)) == 0
        report = json.loads(report_path.read_text())
        cfg = report["config"]
        assert report["ledger"]["total"] == cfg["T"] * (cfg["r1"] + 3 * cfg["r2"])
        rows = list(csv.DictReader(csv_path.open()))
        assert len(rows) == 1
        row = rows[0]
        assert int(row["samples_total"]) == report["ledger"]["total"]
        assert row["eps_ok"] == ("true" if report["evaluation"]["eps_ok"] else "false")
        # numeric text parses back losslessly
        assert float(row["opt"]) == report["evaluation"]["opt"]
        assert float(row["max_loss"]) == report["evaluation"]["max_loss"]
        assert row["wall_ms"] == ""  # timing omitted unless requested

    def test_csv_runs_algorithm_once(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_fast", _counted(cli.run_fast, calls))
        assert run_cli("solve", "--algo", "fast", "--family", "random", "--n", "6",
                       "--k", "3", "--seed", "3", "--out", str(tmp_path / "r.json"),
                       "--csv", str(tmp_path / "row.csv")) == 0
        assert len(calls) == 1

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            run_cli("solve", "--algo", "mid", "--family", "random", "--k", "3",
                    "--n", "6", "--epsilon", "0.3", "--delta", "0.3",
                    "--seed", "2", "--out", str(out))
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_algorithm_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--algo", "nonsense", "--out",
                    str(tmp_path / "r.json"))
        assert exc.value.code == 2

    def test_guard_violation_exit_code(self, tmp_path):
        code = run_cli("solve", "--algo", "fast", "--family", "random",
                       "--n", "24", "--class-size", "8",
                       "--out", str(tmp_path / "r.json"))
        assert code == 3

    def test_io_error_exit_code(self, tmp_path):
        code = run_cli("solve", "--algo", "fast", "--family", "random",
                       "--out", str(tmp_path / "missing" / "r.json"))
        assert code == 4

    def test_bad_constant_exit_code(self, tmp_path):
        code = run_cli("solve", "--algo", "fast", "--family", "random",
                       "--constants", "Cbogus=2", "--out", str(tmp_path / "r.json"))
        assert code == 2


class TestSweep:
    def test_grid_shape_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ("sweep", "--algo", "fast", "--family", "random", "--n", "6",
                "--k", "3", "--grid-epsilon", "0.3,0.4", "--seeds", "1,2,3",
                "--jobs", "1")
        assert run_cli(*args, "--out", str(out1)) == 0
        rows = list(csv.DictReader(out1.open()))
        assert len(rows) == 6
        assert all(row["error"] == "" for row in rows)
        run_cli(*args, "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "ser.csv", tmp_path / "par.csv"
        base = ("sweep", "--algo", "finite", "--family", "random", "--n", "5",
                "--k", "2", "--grid-epsilon", "0.3,0.4", "--seeds", "1,2")
        run_cli(*base, "--jobs", "1", "--out", str(serial))
        run_cli(*base, "--jobs", "2", "--out", str(parallel))
        assert serial.read_bytes() == parallel.read_bytes()

    def test_jobs_below_one_rejected(self, tmp_path):
        for command in ("sweep", "audit"):
            code = run_cli(command, "--algo", "finite", "--family", "random",
                           "--jobs", "0", "--out", str(tmp_path / "x"))
            assert code == 2

    def test_one_vc_computation_per_cell(self, tmp_path, monkeypatch):
        calls = []
        counting = _counted(cli.brute_force_vc, calls)
        monkeypatch.setattr(cli, "brute_force_vc", counting)
        monkeypatch.setattr(algos, "brute_force_vc", counting)
        assert run_cli("sweep", "--algo", "fast", "--family", "random", "--n", "6",
                       "--k", "3", "--seeds", "1", "--out", str(tmp_path / "s.csv")) == 0
        assert len(calls) == 1

    def test_one_loss_matrix_per_cell(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluate, "loss_matrix", _counted(evaluate.loss_matrix, calls))
        assert run_cli("sweep", "--algo", "fast", "--family", "realizable", "--n", "12",
                       "--k", "4", "--class-size", "1024", "--seeds", "1",
                       "--out", str(tmp_path / "s.csv")) == 0
        assert len(calls) == 1

    def test_jobs_clamped_to_cores_and_cells(self, tmp_path, monkeypatch):
        # a recording stand-in for the pool: it runs the cells in-process
        # and starts no worker
        asked = []

        class FakePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        args = ("sweep", "--algo", "fast", "--family", "random", "--n", "6",
                "--k", "3", "--seeds", "1,2,3", "--jobs", "4096")
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert run_cli(*args, "--out", str(tmp_path / "a.csv")) == 0
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert run_cli(*args, "--out", str(tmp_path / "b.csv")) == 0
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert run_cli(*args, "--out", str(tmp_path / "c.csv")) == 0
        assert asked == [3, 2]  # one core: the cells run without a pool
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()

    def test_finite_cells_survive_rounding_of_mixture_loss(self, tmp_path):
        # On these seeds the learner mixture's loss rounds an ulp above 1;
        # unclamped, that hands Exp3 a negative cost.
        out = tmp_path / "fin.csv"
        assert run_cli("sweep", "--algo", "finite", "--family", "random",
                       "--n", "12", "--k", "4", "--class-size", "1024",
                       "--epsilon", "0.2", "--delta", "0.2", "--alpha", "0.25",
                       "--seeds", "111,196,278", "--out", str(out)) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        assert all(row["error"] == "" for row in rows)

    def test_fast_budget_monotone_in_epsilon(self, tmp_path):
        out = tmp_path / "mono.csv"
        run_cli("sweep", "--algo", "fast", "--family", "random", "--n", "6",
                "--k", "3", "--grid-epsilon", "0.4,0.2,0.1", "--seeds", "1",
                "--out", str(out))
        rows = list(csv.DictReader(out.open()))
        budgets = {float(r["epsilon"]): int(r["samples_total"]) for r in rows}
        assert budgets[0.2] >= budgets[0.4]
        assert budgets[0.1] >= budgets[0.2]

    def test_partial_failures_become_error_rows(self, tmp_path):
        out = tmp_path / "err.csv"
        assert run_cli("sweep", "--algo", "fast", "--family", "opposed_labels",
                       "--grid-k", "1,2", "--seeds", "1", "--epsilon", "0.3",
                       "--out", str(out)) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        assert any(row["error"] for row in rows)          # k=1 is invalid
        assert any(not row["error"] for row in rows)      # k=2 succeeded

    def test_header_column_order_fixed(self, tmp_path):
        out = tmp_path / "h.csv"
        run_cli("sweep", "--algo", "finite", "--family", "random",
                "--seeds", "1", "--out", str(out))
        header = out.read_text().splitlines()[0]
        assert header == ",".join(cli.CSV_COLUMNS)


def _one_point_instance():
    # one point, two distributions with opposite labels, constant hypotheses
    d0 = FiniteDistribution([(0, 0, 1.0)])
    d1 = FiniteDistribution([(0, 1, 1.0)])
    return MdlInstance(1, [d0, d1], HypothesisClass([[0], [1]]))


def _evaluate(instance, weights, epsilon, alpha=0.0):
    hypothesis = RandomizedHypothesis.from_weights(
        instance.hypothesis_class.hypotheses, weights)
    report = RunReport(algorithm="fixed", seed=0, config={}, hypothesis=hypothesis,
                       ledger_per_oracle=[0] * instance.k, ledger_total=0, trace=[])
    return cli._evaluate_run(instance, report, epsilon, alpha)


class TestEvaluateRun:
    """eps_ok is max_loss <= epsilon + (1 + alpha) * OPT; slack is the margin."""

    def test_exact_argmin_passes_at_zero(self):
        inst = generate(InstanceSpec("random", n=6, k=3, class_size=10, seed=4))
        weights = [0.0] * len(inst.hypothesis_class)
        weights[brute_force_opt(inst).argmin_id] = 1.0
        assert _evaluate(inst, weights, 0.0)["eps_ok"]

    def test_mixture_may_beat_deterministic_opt(self):
        # OPT = 1, bound = 1.2, the mixture's worst loss is 0.8
        ev = _evaluate(_one_point_instance(), [0.8, 0.2], 0.2)
        assert ev["eps_ok"] and ev["slack"] == pytest.approx(0.4, abs=1e-12)
        assert ev["worst_index"] == 1

    def test_arithmetic_of_failure(self):
        d = FiniteDistribution([(0, 1, 0.5), (1, 0, 0.5)])
        inst = MdlInstance(2, [d], HypothesisClass([[0, 0], [1, 0]]))  # OPT = 0
        ev = _evaluate(inst, [1.0, 0.0], 0.2)  # loss 0.5
        assert not ev["eps_ok"]
        assert ev["slack"] == pytest.approx(-0.3, abs=1e-12)
        assert ev["excess"] == pytest.approx(0.5, abs=1e-12)

    def test_alpha_relaxed_form(self):
        # OPT = 0.4, alpha = 0.25, max_loss = 0.55, eps = 0.1 -> 0.55 <= 0.6
        d = FiniteDistribution([(0, 0, 0.55), (0, 1, 0.40), (1, 1, 0.05)])
        inst = MdlInstance(2, [d], HypothesisClass([[1, 1], [0, 1]]))
        ev = _evaluate(inst, [1.0, 0.0], 0.1, alpha=0.25)
        assert ev["opt"] == pytest.approx(0.4, abs=1e-12)
        assert ev["max_loss"] == pytest.approx(0.55, abs=1e-12)
        assert ev["eps_ok"] and ev["slack"] == pytest.approx(0.05, abs=1e-12)


class TestAudit:
    def test_single_trial_frequency_is_binary(self, tmp_path):
        out = tmp_path / "audit.json"
        assert run_cli("audit", "--algo", "finite", "--family", "random",
                       "--n", "5", "--k", "2", "--trials", "1", "--seed", "4",
                       "--epsilon", "0.3", "--out", str(out)) == 0
        summary = json.loads(out.read_text())
        assert summary["failure_rate"] in (0.0, 1.0)
        assert 0.0 <= summary["wilson_95_low"] <= summary["wilson_95_high"] <= 1.0

    def test_argmin_stub_never_fails(self, tmp_path):
        out = tmp_path / "stub.json"
        run_cli("audit", "--algo", "argmin_stub", "--family", "random",
                "--trials", "12", "--seed", "1", "--out", str(out))
        summary = json.loads(out.read_text())
        assert summary["failures"] == 0
        assert summary["max_samples"] == 0

    def test_invalid_trials(self, tmp_path):
        code = run_cli("audit", "--algo", "finite", "--family", "random",
                       "--trials", "0", "--out", str(tmp_path / "a.json"))
        assert code == 2

    def test_guarded_trial_exits_as_guard_violation(self, tmp_path, capsys):
        # n = 24 is past the VC guard, so every mid trial stops there
        code = run_cli("audit", "--algo", "mid", "--family", "random", "--n", "24",
                       "--class-size", "8", "--trials", "2",
                       "--out", str(tmp_path / "a.json"))
        assert code == 3
        assert capsys.readouterr().err.startswith("guard violation: ")


class TestWilson:
    def test_interval_basics(self):
        low, high = cli.wilson_interval(0, 20)
        assert low == 0.0 and 0.1 < high < 0.2
        low, high = cli.wilson_interval(10, 20)
        assert low < 0.5 < high

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            cli.wilson_interval(0, 0)
