"""The benchmark under ``perfbench/`` resolves the package functions it
traces and the helpers its checks import.

Both files are parsed, not imported, so the check runs no benchmark code
and leaves nothing behind in that directory.
"""

import ast
import importlib
from pathlib import Path


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
