"""The benchmark under ``perfbench/`` resolves the package functions it
traces and the helpers its checks import, and the CLI parses the argv of
every cell kind it runs.

The first two checks parse the files, not import them.  The argv check
loads ``cells.py`` (whose top level defines its cells and imports only the
standard library) without writing bytecode, so nothing is left behind in
that directory, and runs no cell.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from multidist import cli


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED list")


def _package_imports(name: str) -> list[tuple[str, str]]:
    """(module, name) of every ``from multidist... import name`` in a file."""
    tree = ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "multidist"
            for alias in node.names]


def test_every_traced_name_resolves():
    traced = _traced()
    assert len(traced) == 25
    for layer, name in traced:
        owner = importlib.import_module(f"multidist.{layer}")
        for part in name.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{layer}.{name}"


def test_every_helper_cells_imports_exists():
    imports = _package_imports("cells.py")
    assert imports
    for module, attr in imports:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def _cells_module():
    """``perfbench/cells.py`` as a module; its dataclasses need it listed in
    ``sys.modules`` while it runs, and it is unlisted again after."""
    name = "perfbench_cells"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "cells.py")
    module = importlib.util.module_from_spec(spec)
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
        del sys.modules[name]
    return module


def test_cli_parses_every_cell_kind():
    # a flag the benchmark passes that the CLI dropped or renamed fails
    # here, not as a failed benchmark run
    cells = _cells_module()
    parser = cli.build_parser()
    kinds = 0
    for workload, kinds_of in cells.WORKLOADS.items():
        for cell in cells.build_cells(workload, 1)[:len(kinds_of)]:
            args = parser.parse_args(cell.argv("out"))
            assert args.command == cell.kind[0], (workload, cell.kind)
            kinds += 1
    assert kinds == 9
