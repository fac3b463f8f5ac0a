"""The CI workflow runs the tier-1 command that ROADMAP.md names, then logs
the line count of src/ that ROADMAP.md tracks."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_runs_the_tier1_command():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    job = workflow["jobs"]["tests"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    runs = [step["run"] for step in job["steps"] if "run" in step]
    assert any(".[test]" in run for run in runs)
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text()).group(1)
    assert runs[-2] == tier1
    assert runs[-1] == "wc -l src/multidist/*.py"
