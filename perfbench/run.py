"""Layered benchmark of multidist CLI cells.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dynamics_smooth --seed 1 --seconds 36 --trace 0

One process, one client, a closed loop: each cell is an in-process
``multidist.cli.main(argv)`` call issued after the previous one returns.
With ``--trace 0`` it times cells for ``--seconds`` with no wrappers
installed and prints the end-to-end metrics; with ``--trace 1`` it runs
each cell untraced and then traced (span wrappers installed around every
layer's public functions) and prints the per-layer metrics.  Every cell's
output is checked after the loop.  The last line of stdout is the result
object; details (output digest, error rate, environment) go to the line
before it and to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cells

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 5      # fresh interpreters timed for setup_s
# Cell times are reported scaled to a machine on which reference_ms()
# takes REF_MS (its typical time on the machine the baseline was taken on).
REF_MS = 4.5
DIGEST_CELLS = 32     # the digest covers this many leading cells
MIN_CELLS = 100       # so that ten cells lie beyond p90 ...
STRETCH = 1.25        # ... unless that takes this many times --seconds


def import_cli():
    """Import multidist from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import multidist
    import multidist.cli

    if Path(multidist.__file__).resolve().parent != (SRC / "multidist").resolve():
        raise ImportError(f"multidist imported from {multidist.__file__}")
    return multidist.cli


def run_cell(cli, cell: cells.Cell, workdir: Path) -> cells.CellOutput:
    path = str(workdir / cell.out_name())
    argv = cell.argv(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
        except Exception as exc:  # a crashing cell is a failed cell
            rc = f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1000.0
    return cells.CellOutput(cell, rc, ms, out.getvalue().replace(path, "<out>"),
                            err.getvalue().replace(path, "<out>"), path)


class _Pair:
    __slots__ = ("values", "step")

    def __init__(self, values, step: int):
        self.values, self.step = values, step


def reference_ms() -> float:
    """Time one pass of a fixed loop that runs no multidist code.

    Its mix (small numpy arrays and generator draws, Python lists, small
    objects and float arithmetic) resembles the cells' inner loops, so its
    time follows the shared machine's speed, which drifts by tens of
    percent over seconds to minutes, and not the program's.
    """
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    acc = 0.0
    for t in range(300):
        pair = _Pair(rng.random(24), t)
        acc += float((pair.values > 0.5).mean()) + pair.step * 1e-9
        acc += sum([x * x for x in range(10)]) * 1e-9
        acc += int(rng.integers(16))
    return (time.perf_counter() - t0) * 1000.0


def run_loop(cli, cell_list, workdir: Path, seconds: float):
    """Closed loop over cells until `seconds` have passed and MIN_CELLS
    cells have run, but never past STRETCH times `seconds`.  The reference
    loop runs before the first cell and after every cell, outside the
    cells' timings, so each cell has a reference time on either side."""
    workdir.mkdir(parents=True, exist_ok=True)
    outputs, refs = [], [reference_ms()]
    start = time.perf_counter()
    for cell in cell_list:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(outputs) >= MIN_CELLS
                                   or elapsed >= STRETCH * seconds):
            break
        outputs.append(run_cell(cli, cell, workdir))
        refs.append(reference_ms())
    return outputs, refs, time.perf_counter() - start


def run_pairs(cli, cell_list, workdir: Path, seconds: float, tracer):
    """Each cell once untraced and once traced, back to back, until
    `seconds` have passed.  Pairing puts both runs of a cell in the same
    machine state; the order alternates so that neither side always runs
    second."""
    plain_dir, traced_dir = workdir / "plain", workdir / "traced"
    plain_dir.mkdir(parents=True, exist_ok=True)
    traced_dir.mkdir(parents=True, exist_ok=True)
    plain, with_spans = [], []
    start = time.perf_counter()
    for cell in cell_list:
        if time.perf_counter() - start >= seconds:
            break
        for traced_turn in ((False, True) if cell.index % 2 else (True, False)):
            if not traced_turn:
                plain.append(run_cell(cli, cell, plain_dir))
                continue
            tracer.current_cell = cell.index
            tracer.install()
            try:
                with_spans.append(run_cell(cli, cell, traced_dir))
            finally:
                tracer.uninstall()
    return plain, with_spans


def set_up(workload: str, seed: int, workdir: Path):
    """Import, build the cell list, run the untimed warm-up cell."""
    t0 = time.perf_counter()
    cli = import_cli()
    cell_list = cells.build_cells(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    warm = run_cell(cli, cells.warmup_cell(workload), workdir)
    return cli, cell_list, warm, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """set_up() timed in a fresh interpreter, so the import is cold."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def check_all(outputs):
    """Check every cell.  Returns the number of failed cells (any problem),
    the wrong-output problems, the errors of cells that failed as
    operations, and each cell's facts."""
    failed, problems, errors, facts = 0, [], [], []
    for out in outputs:
        found, fact = cells.check(out)
        if found:
            failed += 1
            sink = errors if fact.get("errored") else problems
            sink.extend(f"cell {out.cell.index}: {p}" for p in found)
        facts.append(fact)
    return failed, problems, errors, facts


def digest(outputs) -> str:
    return hashlib.sha256("".join(
        o.digest for o in outputs[:DIGEST_CELLS]).encode()).hexdigest()


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    cache = OUT / "cpuinfo.json"
    if cache.is_file():
        cpu = json.loads(cache.read_text())
    else:
        import cpuinfo

        info = cpuinfo.get_cpu_info()
        cpu = {k: info.get(k) for k in ("brand_raw", "hz_advertised_friendly",
                                         "arch", "count", "l2_cache_size")}
        OUT.mkdir(parents=True, exist_ok=True)
        cache.write_text(json.dumps(cpu))
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(args, workdir: Path):
    setup_samples = [probe_setup(args.workload, args.seed)
                     for _ in range(SETUP_PROBES)]
    cli, cell_list, warm, own_setup = set_up(args.workload, args.seed, workdir)
    outputs, refs, loop_s = run_loop(cli, cell_list, workdir, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems, errors, facts = check_all(outputs)
    problems += [f"warm-up: {p}" for p in cells.check(warm)[0]]

    n = len(outputs)
    wall = [o.ms for o in outputs]
    # Each cell's time scaled by the reference loop's times around it.
    scaled = [ms * 2.0 * REF_MS / (before + after)
              for ms, before, after in zip(wall, refs, refs[1:])]
    queries = [f.get("queries", 0) for f in facts]
    # A cell with no queries counts as one, so on a query-free workload
    # us_per_query reads as µs per cell.
    counted = sum(max(1, q) for q in queries)

    def timing(ms: list[float], total_ms: float) -> dict:
        return {"cells_per_s": n * 1000.0 / total_ms,
                "cell_ms_p50": statistics.median(ms),
                "cell_ms_p90": statistics.quantiles(ms, n=10)[8] if n > 1 else ms[0],
                "us_per_query": total_ms * 1000.0 / counted}

    units = {"cells_per_s": "1/ref_s", "cell_ms_p50": "ref_ms",
             "cell_ms_p90": "ref_ms", "us_per_query": "ref_us"}
    metrics = {name: (value, units[name])
               for name, value in timing(scaled, sum(scaled)).items()}
    metrics.update({
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "eps_ok_rate": (sum(bool(f.get("audit_ok")) for f in facts) / n, "fraction"),
    })
    info = {
        "cells": n, "loop_s": loop_s, "error_rate": failed / n, "errors": errors[:20],
        "wall": timing(wall, loop_s * 1000.0),
        "reference_ms": {"median": statistics.median(refs), "min": min(refs),
                         "max": max(refs)},
        "queries": sum(queries),
        "opt_drift": sum(bool(f.get("opt_drift")) for f in facts),
        "setup_samples_s": setup_samples, "own_setup_s": own_setup,
        "digest": digest(outputs), "digest_cells": min(n, DIGEST_CELLS),
    }
    detail = {"cell_ms": wall, "cell_queries": queries, "reference_ms": refs}
    return metrics, info, detail, problems, n, failed


def traced(args, workdir: Path):
    import spans

    cli, cell_list, warm, _ = set_up(args.workload, args.seed, workdir)
    tracer = spans.Tracer()
    plain, with_spans = run_pairs(cli, cell_list, workdir, args.seconds, tracer)
    n = len(plain)
    failed, problems, errors, facts = check_all(plain)
    problems += [f"warm-up: {p}" for p in cells.check(warm)[0]]
    for a, b in zip(plain, with_spans):
        if a.digest != b.digest:
            problems.append(f"cell {a.cell.index}: traced output differs")
            failed += 1

    plain_ms = sum(o.ms for o in plain)
    traced_ms = sum(o.ms for o in with_spans)
    summary = tracer.summary()
    metrics: dict[str, tuple[float, str]] = {}
    layer_self = dict.fromkeys(spans.LAYERS, 0.0)
    for i, name in enumerate(spans.NAMES):
        metrics[f"{name}.calls"] = (float(summary["calls"][i]) / n, "count/cell")
        metrics[f"{name}.ms"] = (float(summary["ms"][i]) / n, "ms/cell")
        metrics[f"{name}.self_ms"] = (float(summary["self_ms"][i]) / n, "ms/cell")
        layer_self[name.split(".")[0]] += float(summary["self_ms"][i])
    for layer, total in layer_self.items():
        metrics[f"layer.{layer}.self_ms"] = (total / n, "ms/cell")
    metrics["model.queries"] = (
        sum(f.get("queries", 0) for f in facts) / n, "count/cell")
    metrics["cover.erm.cells"] = (tracer.erm_cells / n, "count/cell")
    metrics["cover.projection_cover.behaviors"] = (
        tracer.cover_behaviors / n, "count/cell")
    metrics["trace.cell_ms"] = (traced_ms / n, "ms")
    metrics["trace_overhead_pct"] = (100.0 * (traced_ms / plain_ms - 1.0), "%")
    metrics["trace.self_gap_pct"] = (
        100.0 * (sum(layer_self.values()) / plain_ms - 1.0), "%")

    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    span_file = OUT / "spans" / f"{args.workload}-seed{args.seed}.npz"
    tracer.save(str(span_file))
    info = {"cells": n, "error_rate": failed / n, "errors": errors[:20],
            "untraced_cell_ms": plain_ms / n,
            "spans": len(tracer.start), "span_file": str(span_file.relative_to(ROOT)),
            "digest": digest(plain), "digest_cells": min(n, DIGEST_CELLS)}
    detail = {"untraced_cell_ms": [o.ms for o in plain],
              "traced_cell_ms": [o.ms for o in with_spans]}
    return metrics, info, detail, problems, n, failed


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(cells.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time set-up in this interpreter and print it")
    args = p.parse_args(argv)
    if not (SRC / "multidist" / "__init__.py").is_file():
        print(f"no multidist sources under {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            _, _, _, seconds = set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        run = traced if args.trace else end_to_end
        metrics, info, detail, problems, attempted, failed = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, problems=problems[:20], env=environment())
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"result": result, "info": info, **detail}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
