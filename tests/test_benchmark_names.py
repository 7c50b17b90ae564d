"""The benchmark's workloads (perfbench/workloads.py) call tpcost through
module attributes and imported names. This checks that every one of them
exists, so that removing a name the benchmark uses fails here first. The
file is read with `ast`, not imported, so nothing is written under
perfbench/."""

import ast
import importlib
import types
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _tpcost_names(tree):
    """The tpcost modules bound by `from tpcost... import`, by local name,
    and (module, name) of every name imported from tpcost and of every
    attribute read from such a module."""
    modules, used = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "tpcost":
            for alias in node.names:
                used.append((node.module, alias.name))
                value = getattr(importlib.import_module(node.module),
                                alias.name, None)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value.__name__
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            used.append((modules[node.value.id], node.attr))
    return modules, used


def test_every_tpcost_name_the_benchmark_uses_exists():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS))
    modules, used = _tpcost_names(tree)
    assert "tpcost.costmodel" in modules.values()  # the walk finds them
    missing = sorted({f"{module}.{name}" for module, name in used
                      if not hasattr(importlib.import_module(module), name)})
    assert not missing, f"perfbench/workloads.py uses missing names: {missing}"
