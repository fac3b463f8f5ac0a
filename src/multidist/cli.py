"""Command-line harness: instance generation, single runs, seeded sweeps,
and optimality audits with CSV/JSON reporting.

Exit codes: 0 success, 2 configuration error, 3 size-guard violation,
4 I/O error.  Outputs are byte-identical across reruns with the same flags;
wall-clock timings are only written when --timing is passed, since they are
the one nondeterministic field.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time

from multidist.algos import (
    ESTIMATORS,
    RunReport,
    resolve_constants,
    run_cover_then_finite,
    run_fast,
    run_finite,
    run_mid,
    run_personalized,
)
from multidist.evaluate import (
    GENERATOR_FAMILIES,
    InstanceSpec,
    OptResult,
    brute_force_opt,
    evaluate_run,
    generate_with_opt,
)
from multidist.model import (
    CLASS_FAMILIES,
    GuardError,
    MdlInstance,
    RandomizedHypothesis,
    derive_seed,
    vc_dimension,
)

ALGORITHMS = ("fast", "finite", "cover_finite", "mid", "personalized", "argmin_stub")

CSV_COLUMNS = [
    "algorithm", "seed", "n", "k", "class_size", "vc_dim", "epsilon", "delta",
    "alpha", "samples_total", "samples_max_per_oracle", "opt", "max_loss",
    "excess", "smooth_max_loss", "iterations", "wall_ms", "eps_ok", "error",
]

_WILSON_Z = 1.959963984540054  # two-sided 95%


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_constants(pairs: list[str] | None) -> dict[str, float]:
    """The schedule constants with `--constants` pairs applied, checked by
    ``resolve_constants`` before any cell does work."""
    out: dict[str, float] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--constants expects key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        out[key] = float(val)
    return resolve_constants(out)


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    if trials < 1:
        raise ValueError("trials must be ≥ 1")
    z = _WILSON_Z
    p = failures / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# shared plumbing


def _instance_from_task(task: dict) -> tuple[MdlInstance, OptResult | None]:
    """The cell's instance, and its exact optimum if generating it computed one."""
    if task.get("instance_path"):
        return MdlInstance.load(task["instance_path"]), None
    return generate_with_opt(InstanceSpec(
        family=task["family"], n=task["n"], k=task["k"],
        class_size=task["class_size"], seed=task["instance_seed"],
        class_family=task["class_family"]))


def _argmin_stub(instance: MdlInstance, seed: int, opt: OptResult) -> RunReport:
    """Diagnostic plant: returns the cell's exact brute-force argmin, zero
    queries.

    Useful for validating the audit path itself (its failure rate must be 0).
    """
    row = instance.hypothesis_class.matrix[[opt.argmin_id]]
    return RunReport(algorithm="argmin_stub", seed=seed,
                     config={"argmin_id": opt.argmin_id},
                     hypothesis=RandomizedHypothesis(row, [1.0], [opt.argmin_id]),
                     ledger_per_oracle=[0] * instance.k, ledger_total=0,
                     trace=[])


def _run_algorithm(algo: str, instance: MdlInstance, task: dict, opt: OptResult) -> RunReport:
    """Run one algorithm; only `argmin_stub` reads the cell's exact optimum `opt`."""
    epsilon, delta, alpha = task["epsilon"], task["delta"], task["alpha"]
    seed, constants = task["run_seed"], task["constants"]
    trace = task.get("trace", True)
    if algo == "fast":
        return run_fast(instance, epsilon, alpha, delta, seed, constants=constants,
                        record_trace=trace)
    if algo == "finite":
        return run_finite(instance, epsilon, delta, seed,
                          constants=constants, record_trace=trace)
    if algo == "cover_finite":
        return run_cover_then_finite(instance, epsilon, delta, seed, constants=constants,
                                     record_trace=trace)
    if algo == "mid":
        return run_mid(instance, epsilon, delta, seed, constants=constants,
                       estimator=task["estimator"], record_trace=trace)
    if algo == "personalized":
        return run_personalized(instance, epsilon, delta, seed, constants=constants,
                                estimator=task["estimator"], record_trace=trace)
    if algo == "argmin_stub":
        return _argmin_stub(instance, seed, opt)
    raise ValueError(f"unknown algorithm {algo!r}")


def _vc_or_none(instance: MdlInstance) -> int | None:
    try:
        return vc_dimension(instance.hypothesis_class)
    except GuardError:
        return None


def _new_row(task: dict) -> dict:
    row = {col: None for col in CSV_COLUMNS}
    row.update(algorithm=task["algo"], seed=task["row_seed"],
               epsilon=task["epsilon"], delta=task["delta"],
               alpha=task["alpha"], error="")
    return row


def _run_cell(task: dict, row: dict | None) -> tuple[RunReport, dict, float]:
    """Generate, run (timed, in ms) and evaluate one cell, filling `row` (if given).

    The exact optimum (the one generation computed, if any) comes first, so
    its size guard trips before any other work; the class keeps the VC
    dimension the row reads, so the run does not search it again.
    """
    instance, opt = _instance_from_task(task)
    if opt is None:
        opt = brute_force_opt(instance)
    if row is not None:
        row.update(n=instance.domain_size, k=instance.k,
                   class_size=len(instance.hypothesis_class))
        row["vc_dim"] = _vc_or_none(instance)
    t0 = time.perf_counter()
    report = _run_algorithm(task["algo"], instance, task, opt)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    ev = evaluate_run(instance, report, task["epsilon"], task["alpha"], opt)
    if row is not None:
        row.update(
            samples_total=report.ledger_total,
            samples_max_per_oracle=max(report.ledger_per_oracle),
            opt=ev["opt"], max_loss=ev["max_loss"], excess=ev["excess"],
            smooth_max_loss=ev["smooth_max_loss"],
            iterations=report.config.get("T", report.config.get("rounds")),
            wall_ms=wall_ms if task.get("timing") else None,
            eps_ok=ev["eps_ok"],
        )
    return report, ev, wall_ms


def _solve_task(task: dict) -> dict:
    """One (instance, algorithm, seed) cell -> CSV row dict."""
    row = _new_row(task)
    try:
        _run_cell(task, row)
    except Exception as exc:  # recorded, not raised: sweeps keep going
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _run_cells(tasks: list[dict], jobs: int) -> list[dict]:
    if jobs < 1:
        raise ValueError("--jobs must be ≥ 1")
    # more workers than cores or cells would only add idle processes
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        # imported here: the pool's modules would add to every cold start
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_solve_task, tasks))
    return [_solve_task(t) for t in tasks]


def _write_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])


def _write_json(path: str | None, obj: dict) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=GENERATOR_FAMILIES, default="random",
                   help="generator family for synthesized instances")
    p.add_argument("--n", type=int, default=8, help="domain size")
    p.add_argument("--k", type=int, default=4, help="number of distributions")
    p.add_argument("--class-size", type=int, default=16,
                   help="hypothesis count for explicit classes")
    p.add_argument("--class-family", choices=CLASS_FAMILIES, default="explicit")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algo", choices=ALGORITHMS, required=True)
    p.add_argument("--instance", help="instance JSON path (else generated)")
    _add_generator_flags(p)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--constants", action="append", metavar="KEY=VAL",
                   help="override a schedule constant (repeatable)")
    p.add_argument("--estimator", choices=ESTIMATORS, default="unbiased")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock fields (breaks byte-determinism)")


def _check_seed(flag: str, seed: int | None) -> None:
    """Name a negative seed and its flag up front; numpy's error names neither."""
    if seed is not None and seed < 0:
        raise ValueError(f"{flag} expects a nonnegative integer, got {seed}")


def _base_task(args) -> dict:
    # the evaluation's slack for every algorithm; fast also bounds it itself
    if not 0.0 <= args.alpha < math.inf:
        raise ValueError(f"--alpha must be nonnegative and finite, got {args.alpha!r}")
    return {
        "algo": args.algo,
        "instance_path": getattr(args, "instance", None),
        "family": args.family, "n": args.n, "k": args.k,
        "class_size": args.class_size, "class_family": args.class_family,
        "epsilon": args.epsilon, "delta": args.delta, "alpha": args.alpha,
        "constants": parse_constants(args.constants),
        "estimator": args.estimator,
        "timing": args.timing,
    }


def cmd_gen(args) -> int:
    _check_seed("--seed", args.seed)
    spec = InstanceSpec(family=args.family, n=args.n, k=args.k,
                        class_size=args.class_size, seed=args.seed,
                        class_family=args.class_family)
    instance, opt = generate_with_opt(spec)
    instance.save(args.out)
    print(f"wrote {args.out}: n={instance.domain_size} k={instance.k} "
          f"|class|={len(instance.hypothesis_class)}")
    try:
        opt = opt or brute_force_opt(instance)
        print(f"OPT={opt.opt_value!r}")
    except GuardError:
        print("OPT skipped (size guard)")
    vc_dim = _vc_or_none(instance)
    print("VC skipped (size guard)" if vc_dim is None else f"VC={vc_dim}")
    return 0


def cmd_solve(args) -> int:
    _check_seed("--seed", args.seed)
    _check_seed("--instance-seed", args.instance_seed)
    task = _base_task(args)
    task.update(run_seed=args.seed, row_seed=args.seed,
                instance_seed=args.instance_seed if args.instance_seed is not None
                else args.seed,
                trace=not args.no_trace)
    row = _new_row(task) if args.csv else None
    report, ev, wall_ms = _run_cell(task, row)
    payload = report.to_dict(include_trace=not args.no_trace)
    payload["evaluation"] = ev
    if args.timing:
        payload["wall_ms"] = wall_ms
    _write_json(args.out, payload)
    if row is not None:
        _write_csv(args.csv, [row])
    return 0


def _grid(flag: str, text: str, parse, ok, need: str) -> list:
    """The comma list `text` of `flag`, each item parsed and checked by
    `ok`; a bad item is named with its flag before any cell runs."""
    items = []
    for item in text.split(","):
        try:
            value = parse(item)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise ValueError(f"{flag} expects {need}, got {item!r}")
        items.append(value)
    return items


def _sweep_tasks(args) -> list[dict]:
    eps_flag, eps_text = (("--grid-epsilon", args.grid_epsilon) if args.grid_epsilon
                          else ("--epsilon", repr(args.epsilon)))
    eps_grid = _grid(eps_flag, eps_text, float, lambda x: 0.0 < x < math.inf,
                     "positive finite numbers")
    k_flag, k_text = ("--grid-k", args.grid_k) if args.grid_k else ("--k", str(args.k))
    k_grid = _grid(k_flag, k_text, int, lambda x: x >= 1, "integers >= 1")
    seeds = _grid("--seeds", args.seeds, int, lambda x: x >= 0, "nonnegative integers")
    if args.grid_k and args.instance:
        raise ValueError("cannot sweep k over a fixed instance file")
    tasks = []
    for k in k_grid:
        for eps in eps_grid:
            for seed in seeds:
                task = _base_task(args)
                task.update(
                    k=k, epsilon=eps, row_seed=seed,
                    instance_seed=derive_seed(seed, k, 0),
                    run_seed=derive_seed(seed, int(round(eps * 1e6)), k, 1),
                    trace=False)
                tasks.append(task)
    return tasks


def cmd_sweep(args) -> int:
    rows = _run_cells(_sweep_tasks(args), args.jobs)
    _write_csv(args.out, rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def cmd_audit(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be ≥ 1")
    _check_seed("--seed", args.seed)
    tasks = []
    for trial in range(args.trials):
        task = _base_task(args)
        task.update(row_seed=trial,
                    instance_seed=derive_seed(args.seed, trial, 0),
                    run_seed=derive_seed(args.seed, trial, 1),
                    trace=False)
        tasks.append(task)
    rows = _run_cells(tasks, args.jobs)
    errors = [r["error"] for r in rows if r["error"]]
    if errors:
        # A trial stopped by a size guard exits as a guard violation, as the
        # same cell does under `solve`; `_solve_task` prefixes the type name.
        guarded = errors[0].startswith(f"{GuardError.__name__}:")
        raise (GuardError if guarded else RuntimeError)(
            f"audit trial failed: {errors[0]}")
    failures = sum(1 for r in rows if not r["eps_ok"])
    low, high = wilson_interval(failures, args.trials)
    samples = [r["samples_total"] for r in rows]
    summary = {
        "algorithm": args.algo,
        "trials": args.trials,
        "failures": failures,
        "failure_rate": failures / args.trials,
        "wilson_95_low": low,
        "wilson_95_high": high,
        "mean_samples": sum(samples) / len(samples),
        "max_samples": max(samples),
        "epsilon": args.epsilon,
        "delta": args.delta,
        "alpha": args.alpha,
        "seed": args.seed,
    }
    _write_json(args.out, summary)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves no state in
    it, and every call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="multidist",
        description="Multi-distribution learning dynamics with exact auditing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    _add_generator_flags(p_gen)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="run one algorithm once")
    _add_run_flags(p_solve)
    p_solve.add_argument("--instance-seed", type=int, default=None,
                         help="seed for the generated instance (default: --seed)")
    p_solve.add_argument("--out", default="-", help="report JSON path or '-'")
    p_solve.add_argument("--csv", help="also write a one-row CSV here")
    p_solve.add_argument("--no-trace", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="grid of runs -> CSV")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--grid-epsilon", help="comma list of epsilons")
    p_sweep.add_argument("--grid-k", help="comma list of k values")
    p_sweep.add_argument("--seeds", default="0", help="comma list of seeds")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_audit = sub.add_parser("audit", help="failure-frequency estimate")
    _add_run_flags(p_audit)
    p_audit.add_argument("--trials", type=int, default=20)
    p_audit.add_argument("--jobs", type=int, default=1)
    p_audit.add_argument("--out", default="-", help="summary JSON path or '-'")
    p_audit.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, RuntimeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
