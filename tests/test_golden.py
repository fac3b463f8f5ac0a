"""The committed golden digests: every seeded `gen` file, `solve` report and
CSV row of `scripts/golden.py`'s grid hashes as recorded.  A change that
moves outputs on purpose reruns the script with `--update` and says why."""

import json
import runpy
from pathlib import Path

import pytest

GOLDEN = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "golden.py"))


def test_no_golden_cell_moved():
    recorded = json.loads(GOLDEN["GOLDEN"].read_text(encoding="utf-8"))
    here = GOLDEN["environment"]()
    differ = {key: (value, here.get(key))
              for key, value in recorded["environment"].items() if here.get(key) != value}
    if differ:
        pytest.skip(f"digests recorded in another environment (recorded, here): {differ}")
    moved = GOLDEN["moved"](recorded["cells"], GOLDEN["digests"]())
    assert not moved, f"{len(moved)} golden cells moved: {moved}"
