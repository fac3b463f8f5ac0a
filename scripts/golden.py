#!/usr/bin/env python3
"""Hash the seeded outputs users see over a fixed grid, and compare them with
the committed digests in ``tests/golden/outputs.json``.

The grid is every generator family x class family x two seeds at n = 6,
k = 3: one ``gen`` file per cell, and for each of the six ``--algo``
choices the ``solve`` report (traces on) and its ``--csv`` row.  Each
output's sha256 is one named cell.  numpy and its BLAS set the last bits of
some sums, so the file records the environment it was made in and a
comparison is only meaningful there:

    python scripts/golden.py            # list the cells that moved; exit 1 if any
    python scripts/golden.py --update   # rewrite the committed digests
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy

from multidist import cli
from multidist.evaluate import GENERATOR_FAMILIES
from multidist.model import CLASS_FAMILIES

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "outputs.json"
SEEDS = (1, 2)
SIZE = ["--n", "6", "--k", "3"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """What the digests depend on besides the source: Python, numpy, its
    BLAS and the CPU model (a BLAS picks its kernels by CPU)."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before `mode`
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "cpu": _cpu_model()}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):  # gen's summary names the temp file
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: multidist {' '.join(argv)}")


def digests() -> dict[str, str]:
    """{cell: sha256} over the whole grid, in a fresh temporary directory."""
    cells = {}
    with tempfile.TemporaryDirectory() as tmp:
        out, report, row = Path(tmp, "gen.json"), Path(tmp, "report.json"), Path(tmp, "row.csv")
        for family in GENERATOR_FAMILIES:
            for class_family in CLASS_FAMILIES:
                for seed in SEEDS:
                    flags = ["--family", family, "--class-family", class_family, *SIZE,
                             "--seed", str(seed)]
                    name = f"{family}/{class_family}/seed{seed}"
                    _run(["gen", *flags, "--out", str(out)])
                    cells[f"gen/{name}"] = _sha(out)
                    for algo in cli.ALGORITHMS:
                        _run(["solve", "--algo", algo, *flags, "--out", str(report),
                              "--csv", str(row)])
                        cells[f"solve/{algo}/{name}/report"] = _sha(report)
                        cells[f"solve/{algo}/{name}/csv"] = _sha(row)
    return cells


def moved(recorded: dict[str, str], now: dict[str, str]) -> list[str]:
    """The cells whose digest differs, or that only one side has."""
    return sorted(c for c in recorded.keys() | now.keys() if recorded.get(c) != now.get(c))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed digests with this tree's outputs")
    args = parser.parse_args()
    now = digests()
    if args.update:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps({"environment": environment(), "cells": now},
                                     sort_keys=True, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN}: {len(now)} cells")
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["environment"] != environment():
        print(f"recorded in {golden['environment']}, running in {environment()}: "
              "digests may differ for that alone")
    changed = moved(golden["cells"], now)
    print("\n".join(changed) or f"all {len(now)} cells unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
