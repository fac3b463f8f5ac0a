"""Workload cells and the checks applied to each cell's output.

A cell is one in-process ``multidist.cli.main(argv)`` call: a one-seed
``sweep`` (generate, VC, run, exact evaluation, CSV row) or a ``gen``.
Each workload cycles through a fixed list of cell kinds; cell ``i`` takes
kind ``i % len(kinds)`` and a seed derived from the workload seed and ``i``.

multidist is imported inside the checks, because it becomes importable
only once run.py has put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass

_DYNAMICS = ["--family", "random", "--n", "8", "--class-size", "24",
             "--delta", "0.2", "--estimator", "unbiased"]
# wide_class draws `realizable` instances, not `random` ones: on `random`
# instances about 1 finite/cover_finite cell in 150-270 fails, because the
# finite loop hands exp3_step the cost 1 - w @ costs, which rounds below 0
# once the learner's weight sits on hypotheses that all err on the drawn
# point.  A realizable class keeps a hypothesis that never errs, and Hedge
# gives it the largest weight (at least 1/|H|), so the cost stays in [0, 1].
_WIDE = ["--family", "realizable", "--n", "12", "--k", "4", "--class-size", "1024",
         "--epsilon", "0.2", "--delta", "0.2", "--alpha", "0.25"]
_GEN = ["--n", "12", "--k", "64", "--class-size", "1024"]

# Each kind is the argv of a cell without its seed and output flags.
WORKLOADS: dict[str, list[list[str]]] = {
    "dynamics_smooth": [
        ["sweep", "--algo", "mid", "--k", "16", "--epsilon", "0.3", *_DYNAMICS],
        ["sweep", "--algo", "mid", "--k", "64", "--epsilon", "0.3", *_DYNAMICS],
        ["sweep", "--algo", "personalized", "--k", "16", "--epsilon", "0.4",
         *_DYNAMICS],
    ],
    "wide_class": [
        ["sweep", "--algo", algo, *_WIDE] for algo in ("fast", "finite", "cover_finite")
    ],
    "exact_gen": [
        ["gen", "--family", family, *_GEN]
        for family in ("realizable", "opposed_labels", "shared_bayes")
    ],
}

# Upper bound on cells one run can reach; far above what fits in a minute.
MAX_CELLS = 4096

# Schedule constants the cells run with (the CLI defaults).
C = C1 = C2 = CPRIME = CEVAL = 4.0


def cell_seed(workload: str, seed: int | str, index: int | str) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


@dataclass(frozen=True)
class Cell:
    index: int
    kind: list[str]
    seed: int

    @property
    def is_gen(self) -> bool:
        return self.kind[0] == "gen"

    def argv(self, out_path: str) -> list[str]:
        seed_flag = "--seed" if self.is_gen else "--seeds"
        return [*self.kind, seed_flag, str(self.seed), "--out", out_path]

    def out_name(self) -> str:
        return f"cell-{self.index}.{'json' if self.is_gen else 'csv'}"


def build_cells(workload: str, seed: int) -> list[Cell]:
    kinds = WORKLOADS[workload]
    return [Cell(i, kinds[i % len(kinds)], cell_seed(workload, seed, i))
            for i in range(MAX_CELLS)]


def warmup_cell(workload: str) -> Cell:
    """Untimed first cell; fixed per workload so set-up time does not
    depend on the workload seed."""
    return Cell(-1, WORKLOADS[workload][0], cell_seed(workload, "warmup", 0))


@dataclass
class CellOutput:
    """What one cell produced.  `stdout` has the output path replaced by
    ``<out>``, so the digest does not depend on where the run wrote; the
    digest covers argv, exit code, both streams and the output file, and
    no timing."""

    cell: Cell
    rc: object
    ms: float
    stdout: str
    stderr: str
    path: str
    digest: str = ""

    def __post_init__(self) -> None:
        h = hashlib.sha256()
        for part in (" ".join(self.cell.argv("<out>")), repr(self.rc),
                     self.stdout, self.stderr):
            h.update(part.encode())
            h.update(b"\0")
        try:
            with open(self.path, "rb") as f:
                h.update(f.read())
        except FileNotFoundError:
            h.update(b"<no output>")
        self.digest = h.hexdigest()


# ---------------------------------------------------------------------------
# predicted query budgets, from the public formulas


def mid_rounds(epsilon: float, delta: float, k: int, d: int) -> int:
    """The mid dynamics' round count T, as its schedule defines it."""
    term1 = math.ceil(CPRIME * math.log(k / delta) / epsilon ** 2)
    if d >= 1:
        inner = d * k * math.log(d / (epsilon * delta)) / epsilon
        term2 = math.ceil(C * d * math.log(inner) / epsilon ** 2)
    else:
        term2 = 0
    return max(1, term1, term2)


def personalized_budgets(epsilon: float, delta: float, k: int, d: int) -> set[int]:
    """Every total the halving loop can ledger, over all survivor paths.

    Round t runs mid on the a_t active distributions and scores each on
    m_eval fresh draws; at most floor(a_t / 2) survive (strictly above the
    median), and the loop stops when none are left.
    """
    from multidist.algos import personalized_eval_size
    from multidist.cover import cover_sample_size

    rounds = max(1, math.ceil(math.log2(k)))
    delta_inner = delta / rounds
    m_eval = personalized_eval_size(epsilon, delta, k, CEVAL)
    cover = cover_sample_size(max(d, 1), epsilon, delta_inner, C)
    totals: set[int] = set()
    frontier = {(k, 0)}
    for _ in range(rounds):
        nxt = set()
        for active, spent in frontier:
            spent += cover + 2 * mid_rounds(epsilon, delta_inner, active, d) \
                + active * m_eval
            for survivors in range(active // 2 + 1):
                if survivors == 0:
                    totals.add(spent)
                else:
                    nxt.add((survivors, spent))
        frontier = nxt
    totals.update(spent for _, spent in frontier)
    return totals


def _sweep_problems(row: dict) -> list[str]:
    from multidist.algos import fast_params
    from multidist.cover import cover_sample_size

    algo = row["algorithm"]
    k, d = int(row["k"]), int(row["vc_dim"])
    eps, delta, alpha = (float(row[c]) for c in ("epsilon", "delta", "alpha"))
    T = int(row["iterations"])
    samples = int(row["samples_total"])
    if algo == "fast":
        params = fast_params(eps, alpha, delta, k, d, C1, C2)
        expected = {params.predicted_budget} if params.T == T else set()
    elif algo == "finite":
        expected = {T}
    elif algo == "mid":
        expected = {cover_sample_size(max(d, 1), eps, delta, C) + 2 * T}
    elif algo == "cover_finite":
        expected = {k * max(1, math.ceil(C * d / eps)) + T}
    elif algo == "personalized":
        expected = personalized_budgets(eps, delta, k, d)
    else:
        return [f"unexpected algorithm {algo!r}"]
    if samples not in expected:
        return [f"{algo}: samples_total {samples} is not the predicted budget"]
    if row["eps_ok"] not in ("true", "false"):
        return [f"eps_ok field {row['eps_ok']!r}"]
    return []


# Loading renormalizes each distribution's probabilities, which can move
# the last bits of the loaded instance's OPT; the printed OPT comes from the
# instance before it was saved.  `opt_drift` counts the cells where the two
# differ at all.
OPT_TOL = 1e-12


def _gen_problems(out: CellOutput) -> tuple[list[str], bool]:
    from multidist.evaluate import brute_force_opt
    from multidist.model import MdlInstance

    kind = out.cell.kind
    family, n, k, size = (kind[kind.index(flag) + 1] for flag in
                          ("--family", "--n", "--k", "--class-size"))
    lines = dict(line.split("=", 1) for line in out.stdout.splitlines()
                 if line.startswith(("OPT=", "VC=")))
    if "OPT" not in lines or "VC" not in lines:
        return ["gen printed no OPT/VC"], False
    instance = MdlInstance.load(out.path)
    opt = brute_force_opt(instance).opt_value
    problems = []
    if (instance.domain_size, instance.k) != (int(n), int(k)) \
            or len(instance.hypothesis_class) < int(size):
        problems.append("loaded instance has the wrong shape")
    printed = float(lines["OPT"])
    if abs(printed - opt) > OPT_TOL:
        problems.append(f"printed OPT {printed!r} != brute force {opt!r}")
    if family == "realizable" and opt != 0.0:
        problems.append(f"realizable OPT {opt!r} != 0")
    if family == "opposed_labels" and opt < 0.5 - 1e-9:
        problems.append(f"opposed_labels OPT {opt!r} < 1/2")
    return problems, printed != opt


def check(out: CellOutput) -> tuple[list[str], dict]:
    """Problems with one cell's output (empty when correct) and the facts
    the metrics need: ledgered queries, whether the exact audit passed, and
    whether the cell errored, that is, failed as an operation (exit code
    or CSV `error` field) rather than producing a wrong output."""
    if out.rc != 0:
        return [f"exit code {out.rc!r}: {out.stderr.strip()[:200]}"], {"errored": True}
    try:
        if out.cell.is_gen:
            problems, drift = _gen_problems(out)
            return problems, {"queries": 0, "audit_ok": not problems,
                              "opt_drift": drift}
        with open(out.path, encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != 1:
            return [f"sweep wrote {len(rows)} rows"], {}
        row = rows[0]
        if row["error"]:
            return [f"sweep error: {row['error']}"], {"errored": True}
        problems = _sweep_problems(row)
        facts = {} if problems else {"queries": int(row["samples_total"]),
                                     "audit_ok": row["eps_ok"] == "true"}
        return problems, facts
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}
