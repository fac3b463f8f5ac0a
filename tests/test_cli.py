import concurrent.futures
import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from multidist import algos, cli, evaluate, model
from multidist.algos import RunReport
from multidist.evaluate import InstanceSpec, brute_force_opt, evaluate_run, generate
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

    def test_intervals_at_n_200(self, tmp_path, capsys):
        # the structured-scale target: VC from the closed form, OPT, and a
        # run of the cheaper algorithms at k = 64 (finite, cover_finite and
        # personalized take seconds to tens of seconds here)
        common = ["--family", "shared_bayes", "--class-family", "intervals",
                  "--n", "200", "--k", "64"]
        assert run_cli("gen", *common, "--out", str(tmp_path / "inst.json")) == 0
        assert "VC=2" in capsys.readouterr().out.splitlines()
        for algo in ("mid", "fast", "argmin_stub"):
            assert run_cli("solve", "--algo", algo, *common, "--no-trace",
                           "--out", str(tmp_path / f"{algo}.json")) == 0, algo

    @pytest.mark.parametrize("argv", [
        ["--class-family", "intervals", "--n", "5000"],
        ["--class-family", "singletons", "--n", "20000"],
        ["--family", "random", "--n", "2000000", "--class-size", "60"],
    ])
    def test_class_guard_trips_before_the_class_is_built(self, argv, tmp_path, capsys):
        # intervals at n = 5000 would be 12.5M rows x 5000 labels: the guard
        # sizes the matrix from its closed-form row count, so nothing is
        # allocated and no file is written
        out = tmp_path / "i.json"
        t0 = time.perf_counter()
        assert run_cli("gen", *argv, "--out", str(out)) == 3
        assert time.perf_counter() - t0 < 0.5
        assert "class guard" in capsys.readouterr().err
        assert not out.exists()

    def test_loss_matrix_bound_trips_before_the_class_is_built(self, tmp_path,
                                                               monkeypatch, capsys):
        # 125,751 intervals x 64 distributions x 2 atoms is past the loss
        # matrix's guard, and known before any label is built
        def never(*args, **kwargs):
            raise AssertionError("the class was built before the optimum's guard")

        monkeypatch.setattr(evaluate, "_random_class", never)
        monkeypatch.setattr(evaluate, "_build", never)
        out = tmp_path / "i.json"
        assert run_cli("gen", "--family", "shared_bayes", "--class-family", "intervals",
                       "--n", "500", "--k", "64", "--out", str(out)) == 3
        assert "loss matrix would need at least 16096128" in capsys.readouterr().err
        assert not out.exists()

    def test_structured_class_vc_past_the_guard(self, tmp_path, capsys):
        assert run_cli("gen", "--family", "shared_bayes", "--class-family", "intervals",
                       "--n", "60", "--seed", "2", "--out", str(tmp_path / "i.json")) == 0
        assert "VC=2\n" in capsys.readouterr().out

    def test_vc_guard_alone_keeps_the_opt_line(self, tmp_path, capsys):
        # n = 21 is past the VC guard; OPT is still exact
        assert run_cli("gen", "--family", "realizable", "--n", "21", "--k", "2",
                       "--class-size", "8", "--out", str(tmp_path / "i.json")) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "OPT=0.0", "VC skipped (size guard)"]

    def test_loss_matrix_guard_alone_keeps_the_vc_line(self, tmp_path, monkeypatch, capsys):
        # `random` instances are not checked through OPT, so gen writes the file
        monkeypatch.setattr(evaluate, "OPT_CELL_GUARD", 10)
        assert run_cli("gen", "--family", "random", "--n", "6", "--k", "4",
                       "--class-family", "thresholds", "--seed", "1",
                       "--out", str(tmp_path / "i.json")) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "OPT skipped (size guard)", "VC=1"]

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

    @pytest.mark.parametrize("algo", cli.ALGORITHMS)
    def test_structured_class_past_the_vc_guard(self, algo, tmp_path):
        out, row = tmp_path / "r.json", tmp_path / "r.csv"
        assert run_cli("solve", "--algo", algo, "--class-family", "intervals",
                       "--n", "60", "--no-trace", "--out", str(out),
                       "--csv", str(row)) == 0
        assert json.loads(out.read_text())["config"].get("vc_dim", 2) == 2
        assert next(csv.DictReader(row.open()))["vc_dim"] == "2"

    def test_loss_matrix_guard_trips_before_the_run(self, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the run started before the optimum's guard")

        monkeypatch.setattr(cli, "run_finite", never)
        code = run_cli("solve", "--algo", "finite", "--family", "random", "--n", "20",
                       "--k", "64", "--class-size", "50000",
                       "--out", str(tmp_path / "r.json"))
        assert code == 3
        assert "loss matrix would need" in capsys.readouterr().err

    def test_shared_objects_round_trip_through_a_file(self, tmp_path, capsys):
        # 1000 positions over 2 objects: the loaded file shares them again,
        # so its loss table is as cheap as the generated instance's
        path, out = tmp_path / "inst.json", tmp_path / "r.json"
        assert run_cli("gen", "--family", "opposed_labels", "--n", "12", "--k", "1000",
                       "--class-size", "4096", "--seed", "1", "--out", str(path)) == 0
        assert len(MdlInstance.load(str(path)).distinct) == 2
        assert run_cli("solve", "--algo", "argmin_stub", "--instance", str(path),
                       "--no-trace", "--out", str(out)) == 0
        assert json.loads(out.read_text())["evaluation"]["opt"] >= 0.5

    def test_loss_table_guard_exit_code(self, tmp_path, capsys):
        # one object at 2500 positions over 4096 rows: few cells, but a
        # table past the guard
        cls = HypothesisClass((np.arange(4096)[:, None] >> np.arange(12)) & 1)
        path = tmp_path / "inst.json"
        MdlInstance(12, [FiniteDistribution([(x, 1, 1 / 12) for x in range(12)])] * 2500,
                    cls).save(str(path))
        assert run_cli("solve", "--algo", "argmin_stub", "--instance", str(path),
                       "--no-trace", "--out", str(tmp_path / "r.json")) == 3
        assert "loss matrix would hold 10240000 entries" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path):
        code = run_cli("solve", "--algo", "fast", "--family", "random",
                       "--out", str(tmp_path / "missing" / "r.json"))
        assert code == 4

    def test_non_binary_class_labels_exit_code(self, tmp_path, capsys):
        inst = MdlInstance(2, [FiniteDistribution([(1, 1, 1.0)])],
                           HypothesisClass([[0, 1], [1, 1]]))
        obj = inst.to_dict()
        obj["class"]["hypotheses"][0][0] = 0.7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code = run_cli("solve", "--algo", "finite", "--instance", str(path),
                       "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "hypothesis labels must be in {0, 1}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("field, value, message", [
        (1, 0.7, "labels must be in {0, 1}"),
        (0, 1.5, "domain points must be integers"),
        (1, 1.0, None),
        (0, 1.0, None),
    ])
    def test_non_integral_atoms_exit_code(self, field, value, message, tmp_path, capsys):
        # before the check, int() truncated 0.7 to 0 and 1.5 to 1, and the
        # file loaded as another instance
        inst = MdlInstance(2, [FiniteDistribution([(1, 1, 1.0)])],
                           HypothesisClass([[0, 1], [1, 1]]))
        obj = inst.to_dict()
        obj["distributions"][0][0][field] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "r.json"
        code = run_cli("solve", "--algo", "finite", "--instance", str(path),
                       "--out", str(out))
        if message is None:  # an integral float loads as its integer
            assert code == 0
            return
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [2.0, 2.5, "2"])
    def test_non_integral_domain_size_exit_code(self, value, tmp_path, capsys):
        # before the check, 2.5 and "2" loaded as n = 2 and the run exited 0
        obj = MdlInstance(2, [FiniteDistribution([(1, 1, 1.0)])],
                          HypothesisClass([[0, 1], [1, 1]])).to_dict()
        obj["domain_size"] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "r.json"
        code = run_cli("solve", "--algo", "finite", "--instance", str(path),
                       "--out", str(out))
        if value == 2.0:  # an integral float loads as its integer
            assert code == 0
            return
        assert code == 2
        assert "domain_size must be integers" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_mass_exit_code(self, tmp_path, capsys):
        # a NaN mass once loaded, and the report read "max_loss": NaN
        inst = MdlInstance(2, [FiniteDistribution([(0, 0, 0.5), (1, 1, 0.5)])],
                           HypothesisClass([[0, 1], [1, 1]]))
        obj = inst.to_dict()
        obj["distributions"][0][0][2] = float("nan")
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(obj))
        assert "NaN" in path.read_text()
        out = tmp_path / "r.json"
        code = run_cli("solve", "--algo", "finite", "--instance", str(path),
                       "--out", str(out))
        assert code == 2
        assert "FiniteDistribution" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e308", "1e200"])
    @pytest.mark.parametrize("algo, key", [
        ("mid", "C"), ("mid", "Cprime"), ("fast", "C1"), ("fast", "C2"),
        ("finite", "C"), ("cover_finite", "C"), ("personalized", "C"),
        ("personalized", "Ceval"),
    ])
    def test_huge_constant_exit_code(self, algo, key, value, tmp_path, capsys):
        # finite constants whose schedule overflows to an infinite budget
        # (1e308), or to one past the 64-bit counts numpy draws (1e200)
        out = tmp_path / "r.json"
        code = run_cli("solve", "--algo", algo, "--family", "random", "--n", "6",
                       "--k", "2", "--class-size", "8", "--constants", f"{key}={value}",
                       "--out", str(out))
        assert code == 2
        assert f"constant {key} is too large" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algo, key", [
        ("fast", "C1"), ("finite", "C"), ("cover_finite", "C"), ("mid", "C"),
        ("personalized", "C"), ("personalized", "Ceval"),
    ])
    def test_query_guard_exit_code(self, algo, key, tmp_path, monkeypatch, capsys):
        # a budget that fits a 64-bit count but would run for ever (finite)
        # or exhaust memory (the batched draws) is refused before any draw;
        # a run that reaches a draw fails here instead of hanging
        def never(*args, **kwargs):
            raise AssertionError("the run drew before its query guard")

        for name in ("mixture_sample_many", "oracle_sample_many", "_hedge_loop"):
            monkeypatch.setattr(algos, name, never)
        out = tmp_path / "r.json"
        start = time.perf_counter()
        code = run_cli("solve", "--algo", algo, "--family", "random", "--n", "6",
                       "--k", "2", "--class-size", "8", "--constants", f"{key}=1e15",
                       "--no-trace", "--out", str(out))
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "query guard" in capsys.readouterr().err
        assert not out.exists()

    def test_timing_fields(self, tmp_path):
        # --timing adds one wall_ms key to the JSON and fills the CSV column;
        # nothing else in the report moves
        untimed, timed = tmp_path / "u.json", tmp_path / "t.json"
        row = tmp_path / "t.csv"
        flags = ("solve", "--algo", "mid", "--family", "random", "--n", "6",
                 "--k", "3", "--seed", "2")
        assert run_cli(*flags, "--out", str(untimed)) == 0
        assert run_cli(*flags, "--timing", "--out", str(timed), "--csv", str(row)) == 0
        report = json.loads(timed.read_text())
        wall_ms = report.pop("wall_ms")
        assert isinstance(wall_ms, float) and wall_ms >= 0.0
        assert (json.dumps(report, sort_keys=True, indent=2) + "\n"
                == untimed.read_text())
        assert float(next(csv.DictReader(row.open()))["wall_ms"]) >= 0.0

    def test_bad_constant_exit_code(self, tmp_path, capsys):
        code = run_cli("solve", "--algo", "fast", "--family", "random",
                       "--constants", "Cbogus=2", "--out", str(tmp_path / "r.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown constant 'Cbogus'" in err and "'Ceval'" in err

    def test_argmin_stub_reuses_the_cell_opt(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluate, "loss_matrix", _counted(evaluate.loss_matrix, calls))
        assert run_cli("solve", "--algo", "argmin_stub", "--family", "random",
                       "--seed", "3", "--out", str(tmp_path / "r.json")) == 0
        assert len(calls) == 1


@pytest.mark.parametrize("pair", ["C=inf", "Cprime=inf", "C1=inf", "C=nan", "C=0", "C=-1"])
@pytest.mark.parametrize("command, algo", [("solve", "mid"), ("solve", "fast"),
                                           ("solve", "argmin_stub"), ("sweep", "mid")])
def test_bad_constant_rejected_before_generation(command, algo, pair, tmp_path,
                                                 monkeypatch, capsys):
    def generate_with_opt(spec):
        pytest.fail("instance generated before the constants were checked")

    monkeypatch.setattr(cli, "generate_with_opt", generate_with_opt)
    out = tmp_path / "out"
    code = run_cli(command, "--algo", algo, "--family", "random",
                   "--constants", pair, "--out", str(out))
    assert code == 2
    key = pair.split("=")[0]
    assert f"constant {key} must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "-3"])
@pytest.mark.parametrize("command, algo", [("solve", "mid"), ("sweep", "cover_finite"),
                                           ("audit", "finite")])
def test_bad_alpha_rejected_before_any_cell(command, algo, alpha, tmp_path,
                                            monkeypatch, capsys):
    # once only fast checked alpha: a NaN slack was reported, a negative one
    # failed every audit trial
    def run_cell(*args):
        pytest.fail("a cell ran before --alpha was checked")

    monkeypatch.setattr(cli, "_run_cell", run_cell)
    out = tmp_path / "out"
    code = run_cli(command, "--algo", algo, "--family", "random",
                   f"--alpha={alpha}", "--out", str(out))
    assert code == 2
    assert "--alpha must be nonnegative and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("gen", ("--seed", "-1"), "--seed expects a nonnegative integer, got -1"),
    ("solve", ("--algo", "fast", "--seed", "-1"),
     "--seed expects a nonnegative integer, got -1"),
    ("solve", ("--algo", "fast", "--instance", "inst.json", "--seed", "-1"),
     "--seed expects a nonnegative integer, got -1"),
    ("solve", ("--algo", "fast", "--instance-seed", "-2"),
     "--instance-seed expects a nonnegative integer, got -2"),
    ("audit", ("--algo", "finite", "--seed", "-1"),
     "--seed expects a nonnegative integer, got -1"),
])
def test_negative_seed_named_before_any_work(command, flags, message, tmp_path,
                                             monkeypatch, capsys):
    # numpy's own error named neither the flag nor the value, and `solve`
    # raised it only after loading the instance and computing its VC
    def never(*args, **kwargs):
        pytest.fail("work began before the seed was checked")

    monkeypatch.chdir(tmp_path)
    assert run_cli("gen", "--family", "random", "--n", "6", "--k", "3",
                   "--out", "inst.json") == 0
    capsys.readouterr()
    for name in ("generate_with_opt", "_run_cell", "vc_dimension"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(MdlInstance, "load", never)
    out = tmp_path / "out"
    assert run_cli(command, *flags, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def _report_text(instance, report, epsilon, alpha) -> str:
    """The JSON `solve --no-trace` writes for `report`, a run on `instance`."""
    payload = report.to_dict(include_trace=False)
    payload["evaluation"] = evaluate_run(instance, report, epsilon, alpha,
                                         brute_force_opt(instance))
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestSolveMatchesInProcessRuns:
    def test_instance_seed_seeds_the_instance_and_seed_the_run(self, tmp_path):
        # the ROADMAP baseline cell: instance seed 1, run seed 3
        out = tmp_path / "r.json"
        assert run_cli("solve", "--algo", "fast", "--instance-seed", "1", "--seed", "3",
                       "--no-trace", "--out", str(out)) == 0
        instance = generate(InstanceSpec("random", 8, 4, 16, 1))
        assert instance.to_dict() != generate(InstanceSpec("random", 8, 4, 16, 3)).to_dict()
        report = algos.run_fast(instance, 0.2, 0.25, 0.2, 3, record_trace=False)
        assert out.read_text() == _report_text(instance, report, 0.2, 0.25)

    @pytest.mark.parametrize("algo, run", [("mid", algos.run_mid),
                                           ("personalized", algos.run_personalized)])
    def test_literal_estimator(self, algo, run, tmp_path):
        instance = generate(InstanceSpec("random", 6, 3, 16, 2))
        texts = {}
        for estimator in algos.ESTIMATORS:
            out = tmp_path / f"{estimator}.json"
            assert run_cli("solve", "--algo", algo, "--n", "6", "--k", "3",
                           "--epsilon", "0.3", "--delta", "0.3", "--seed", "2",
                           "--estimator", estimator, "--no-trace", "--out", str(out)) == 0
            report = run(instance, 0.3, 0.3, 2, estimator=estimator, record_trace=False)
            texts[estimator] = out.read_text()
            assert texts[estimator] == _report_text(instance, report, 0.3, 0.25)
        assert texts["literal"] != texts["unbiased"]


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
        monkeypatch.setattr(model, "brute_force_vc", _counted(model.brute_force_vc, calls))
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
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

    @pytest.mark.parametrize("flags, message", [
        (("--epsilon", "inf"), "--epsilon expects positive finite numbers, got 'inf'"),
        (("--grid-epsilon", "0.3,inf"),
         "--grid-epsilon expects positive finite numbers, got 'inf'"),
        (("--grid-epsilon", "nan"), "--grid-epsilon expects positive finite numbers, got 'nan'"),
        (("--grid-epsilon", "0.3,-0.1"),
         "--grid-epsilon expects positive finite numbers, got '-0.1'"),
        (("--epsilon", "-0.1"), "--epsilon expects positive finite numbers, got '-0.1'"),
        (("--grid-k", "2,-3"), "--grid-k expects integers >= 1, got '-3'"),
        (("--seeds", "1,,2"), "--seeds expects nonnegative integers, got ''"),
    ])
    def test_bad_grid_items_rejected_before_any_cell(self, flags, message, tmp_path,
                                                     monkeypatch, capsys):
        def never(task):
            raise AssertionError("a cell ran before the grids were checked")

        monkeypatch.setattr(cli, "_solve_task", never)
        out = tmp_path / "bad.csv"
        code = run_cli("sweep", "--algo", "fast", "--family", "random", "--n", "6",
                       *flags, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

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
    return evaluate_run(instance, report, epsilon, alpha, brute_force_opt(instance))


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


class TestParserReuse:
    # gen, sweep, a usage error, then solve: one process, one parser
    CALLS = [
        ("gen", "--family", "realizable", "--k", "3", "--n", "6", "--seed", "5",
         "--out", "{dir}/inst.json"),
        ("sweep", "--algo", "mid", "--family", "random", "--n", "6", "--k", "3",
         "--epsilon", "0.45", "--delta", "0.3", "--seeds", "0,1",
         "--out", "{dir}/sweep.csv"),
        ("sweep", "--algo", "nope", "--out", "{dir}/bad.csv"),
        ("solve", "--algo", "finite", "--instance", "{dir}/inst.json",
         "--epsilon", "0.45", "--delta", "0.3", "--seed", "2",
         "--out", "{dir}/report.json"),
    ]

    def _run_all(self, directory, capsys, fresh: bool) -> list:
        results = []
        for call in self.CALLS:
            if fresh:
                cli.build_parser.cache_clear()
            argv = [a.format(dir=directory) for a in call]
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out.replace(str(directory), "<dir>"),
                            captured.err))
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        return results + [files]

    def test_cached_parser_matches_fresh_parsers(self, tmp_path, capsys):
        (tmp_path / "cached").mkdir()
        (tmp_path / "fresh").mkdir()
        cli.build_parser.cache_clear()
        cached = self._run_all(tmp_path / "cached", capsys, fresh=False)
        fresh = self._run_all(tmp_path / "fresh", capsys, fresh=True)
        assert [r[0] for r in cached[:-1]] == [0, 0, 2, 0]
        assert cached == fresh
        assert cli.build_parser() is cli.build_parser()


def test_import_does_not_load_the_process_pool():
    # only a sweep with more than one worker imports the pool's modules
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import multidist.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('concurrent', 'multiprocessing'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
