"""Every ``inclab`` name the benchmark under ``perfbench/`` reaches still resolves.

The benchmark's tracer wraps functions by module and attribute name, and
its workloads and runner import from the package, so a renamed or moved
name breaks the benchmark without breaking any other test.  The benchmark's
files are only read here: the wrap table is loaded from
``perfbench/tracing.py``, which imports nothing beyond the standard library,
and the package names of ``workloads.py`` and ``child.py`` are read from
their syntax trees.
"""

import ast
import importlib
import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _wrap_table():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # where its dataclasses look their module up
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    return [(f"inclab.{module}", attr) for module, attr, *_ in tracing.TARGETS]


def _imported_names(filename):
    """(module, attribute) for each name the file imports from the package
    and each attribute it reads off a package module it holds."""
    with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules, names = {"inclab": "inclab"}, []  # child.py passes the package around as ``inclab``
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "inclab" and alias.asname:
                    modules[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "inclab":
            for alias in node.names:
                names.append((node.module, alias.name))
                try:  # a submodule, whose attributes are read in turn
                    module = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    continue
                modules[alias.asname or alias.name] = module.__name__
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.append((modules[node.value.id], node.attr))
    return names


_NAMES = list(dict.fromkeys(
    _wrap_table() + _imported_names("workloads.py") + _imported_names("child.py")))


@pytest.mark.parametrize("module, attr", _NAMES)
def test_every_name_the_benchmark_uses_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
