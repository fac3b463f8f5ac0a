"""Smoke runs of the experiment scripts at their smallest sizes, so that an
API they use cannot disappear unnoticed."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SMALL = ["--n", "4", "--k", "2", "--class-size", "4"]


def _run_script(name, argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return stop.value.code


def test_audit_algorithms(monkeypatch, capsys):
    code = _run_script("audit_algorithms.py",
                       ["--trials", "1", "--epsilon", "0.45", *SMALL], monkeypatch)
    assert code == 0
    table = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in table[1:]] == [
        "fast", "finite", "cover_finite", "mid", "personalized"]


def test_sweep_epsilon(monkeypatch, tmp_path):
    code = _run_script("sweep_epsilon.py", ["--out", str(tmp_path), "--grid-epsilon",
                                            "0.45", "--seeds", "0", *SMALL], monkeypatch)
    assert code == 0
    for algo in ("fast", "finite", "cover_finite", "mid", "personalized"):
        rows = list(csv.DictReader((tmp_path / f"sweep_{algo}.csv").open()))
        assert len(rows) == 1 and rows[0]["error"] == ""
