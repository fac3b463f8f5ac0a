"""Span tracing of multidist's layer functions, installed from outside.

Each traced function is replaced, under every name a multidist module binds
it to, by a wrapper that records one span: function, parent span, cell,
start and end.  Spans are kept in flat arrays in memory and summarised (or
saved) after the run.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("model", "online", "cover", "algos", "evaluate", "cli")

# (layer, function) pairs; "Class.method" patches the class attribute.
TRACED = [
    ("model", "mixture_sample"), ("model", "oracle_sample"),
    ("model", "mixture_sample_many"), ("model", "oracle_sample_many"),
    ("model", "brute_force_vc"), ("model", "exact_loss"),
    ("model", "MdlInstance.save"),
    ("online", "hedge_step_cost"), ("online", "project_capped"),
    ("online", "hedge_step_payoff"), ("online", "exp3_step"),
    ("cover", "erm"), ("cover", "empirical_loss"), ("cover", "projection_cover"),
    ("algos", "run_mid"), ("algos", "run_personalized"), ("algos", "run_fast"),
    ("algos", "run_finite"), ("algos", "run_cover_then_finite"),
    ("evaluate", "generate"), ("evaluate", "loss_matrix"),
    ("evaluate", "brute_force_opt"), ("evaluate", "max_loss"),
    ("evaluate", "smooth_argmax"),
    ("cli", "main"),
]

NAMES = [f"{layer}.{func.split('.')[-1]}" for layer, func in TRACED]


class Tracer:
    def __init__(self) -> None:
        self.func = array("h")
        self.parent = array("i")
        self.cell = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_cell = -1
        self.erm_cells = 0
        self.cover_behaviors = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    # -- installation -------------------------------------------------------

    def _wrap(self, fid: int, fn, hook=None):
        func, parent, cell = self.func, self.parent, self.cell
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            func.append(fid)
            parent.append(stack[-1])
            cell.append(self.current_cell)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _count_erm(self, args, _result) -> None:
        hclass, batch = args[0], args[1]
        self.erm_cells += len(hclass) * len(batch)

    def _count_cover(self, _args, result) -> None:
        self.cover_behaviors += result.behavior_count

    def _patch_list(self) -> list[tuple[object, str, object, object]]:
        """(namespace, name, original, wrapper) for every binding to patch."""
        modules = [importlib.import_module("multidist")] + [
            importlib.import_module(f"multidist.{layer}") for layer in LAYERS]
        hooks = {"cover.erm": self._count_erm,
                 "cover.projection_cover": self._count_cover}
        patches = []
        for fid, (layer, name) in enumerate(TRACED):
            owner = importlib.import_module(f"multidist.{layer}")
            *cls_name, attr = name.split(".")
            if cls_name:
                owner = getattr(owner, cls_name[0])
            original = getattr(owner, attr)
            targets = [(owner, attr)] if cls_name else [
                (mod, key) for mod in modules
                for key, val in vars(mod).items() if val is original]
            wrapper = self._wrap(fid, original, hooks.get(NAMES[fid]))
            patches += [(target, key, original, wrapper) for target, key in targets]
        return patches

    def install(self) -> None:
        if not self._patches:
            self._patches = self._patch_list()
        for target, key, _, wrapper in self._patches:
            setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original, _ in self._patches:
            setattr(target, key, original)

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "func": np.frombuffer(self.func, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "cell": np.frombuffer(self.cell, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())

    def summary(self) -> dict[str, np.ndarray]:
        """Per-function call counts, total ms and self ms.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly on one thread, so these sum to the
        durations of the root spans.
        """
        a = self.arrays()
        dur = (a["end"] - a["start"]) * 1000.0
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=len(dur))
        self_ms = dur - child
        n = len(NAMES)
        return {
            "calls": np.bincount(a["func"], minlength=n),
            "ms": np.bincount(a["func"], weights=dur, minlength=n),
            "self_ms": np.bincount(a["func"], weights=self_ms, minlength=n),
        }
