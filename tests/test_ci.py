"""The CI workflow times out after 30 minutes.  It prints the Python and
numpy versions and numpy's BLAS, runs the installed `multidist` console
script's `gen` and `solve` on a small instance whose 64 positions share two
distribution objects (so its file round-trips shared objects), runs a short
benchmark correctness check on every workload, untraced and traced, then
the tier-1 command that ROADMAP.md names, then logs the line count of src/
that ROADMAP.md tracks.  Its matrix starts at the oldest Python that
pyproject.toml declares, and the package imports nothing beyond the
dependencies pyproject.toml declares."""

import ast
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_runs_the_tier1_command():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    job = workflow["jobs"]["tests"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    assert job["timeout-minutes"] == 30
    runs = [step["run"] for step in job["steps"] if "run" in step]
    assert any(".[test]" in run for run in runs)
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text()).group(1)
    assert runs[-2] == tier1
    assert runs[-1] == "wc -l src/multidist/*.py"


def test_workflow_checks_the_benchmark_before_tier1():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    runs = [step["run"] for step in workflow["jobs"]["tests"]["steps"] if "run" in step]
    smoke = [i for i, run in enumerate(runs) if "perfbench/run.py" in run]
    assert len(smoke) == 1 and smoke[0] < len(runs) - 2
    run = runs[smoke[0]]
    assert "python -m pip install py-cpuinfo" in run.splitlines()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in benchmark["workloads"]:
        assert workload["name"] in run
    # each workload runs untraced and traced; a traced run is correct only if
    # every traced cell's output equals its untraced twin's
    assert "for t in 0 1; do" in [line.strip() for line in run.splitlines()]
    assert '--seed 1 --seconds 2 --trace "$t"' in run
    assert 'r["correct"] is True and r["failed"] == 0' in run


def test_workflow_runs_the_console_script_before_tier1():
    # README's CLI examples run the installed script, while the tests call
    # cli.main, so only this step catches a broken [project.scripts] entry
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    runs = [step["run"] for step in workflow["jobs"]["tests"]["steps"] if "run" in step]
    assert re.search(r'^multidist = "multidist\.cli:main"$',
                     (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    install = next(i for i, run in enumerate(runs) if ".[test]" in run)
    script = [i for i, run in enumerate(runs) if "multidist gen" in run]
    assert len(script) == 1 and install < script[0] < len(runs) - 2
    lines = runs[script[0]].splitlines()
    assert [line.split()[:2] for line in lines] == [["multidist", "gen"],
                                                    ["multidist", "solve"]]
    # the solve line also writes the one-row CSV, so the script runs that writer
    assert "--no-trace" in lines[1].split() and "--csv" in lines[1].split()


def test_workflow_prints_the_versions_before_the_benchmark_smoke():
    # the bit-for-bit differentials rest on numpy's generator streams and
    # sums, and the loss matrix's bits on the gemv of the BLAS numpy links,
    # so every CI log names the numpy and the BLAS it ran
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    runs = [step["run"] for step in workflow["jobs"]["tests"]["steps"] if "run" in step]
    install = next(i for i, run in enumerate(runs) if ".[test]" in run)
    smoke = next(i for i, run in enumerate(runs) if "perfbench/run.py" in run)
    versions = [i for i, run in enumerate(runs)
                if "sys.version" in run and "numpy.__version__" in run
                and 'numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]' in run]
    assert len(versions) == 1 and install < versions[0] < smoke


def test_workflow_tests_the_oldest_declared_python():
    # the package uses 3.10 features (bisect_right's key=, say), and a matrix
    # that starts above the declared floor would not catch code that needs a
    # later Python; tomllib is 3.11+, so the floor is read with a regex
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    versions = workflow["jobs"]["tests"]["strategy"]["matrix"]["python-version"]
    floor = re.search(r'^requires-python\s*=\s*">=\s*([0-9.]+)"\s*$',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE).group(1)
    assert min(versions, key=lambda v: tuple(map(int, v.split(".")))) == floor


def test_src_imports_only_declared_dependencies():
    # scipy is often installed next to numpy: an unguarded import of it would
    # pass here and fail for a user who installed what pyproject.toml declares
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r"^dependencies = \[(.*)\]$", pyproject, re.M).group(1)
    names = {re.match(r'\s*"([A-Za-z0-9_.-]+)', item).group(1)
             for item in declared.split(",")}
    assert names == {"numpy"}
    allowed = set(sys.stdlib_module_names) | names | {"multidist"}
    imported = set()
    for path in sorted((ROOT / "src/multidist").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["multidist" if node.level else node.module]
            else:
                continue
            imported |= {(m.split(".")[0], f"{path.name}:{node.lineno}") for m in modules}
    assert sorted(i for i in imported if i[0] not in allowed) == []
    assert {"numpy", "multidist"} <= {m for m, _ in imported}
