"""The benchmark reaches into ``orbiteq`` by name: the traced run wraps
library functions, and the cases, the answer check and the worker import
and call them.  A rename or a deletion in ``orbiteq`` would otherwise
leave per-layer counters silently unwired, or fail only when the
benchmark runs."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def test_traced_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attrs in tracing.TARGETS.items():
        owner = importlib.import_module(f"orbiteq.{module}")
        for attr in attrs:
            if "." in attr:
                # wrapped through the class dict, so it must be defined there
                cls_name, meth = attr.split(".")
                fn = getattr(owner, cls_name, None)
                fn = vars(fn).get(meth) if isinstance(fn, type) else None
            else:
                fn = getattr(owner, attr, None)
            if not callable(fn):
                missing.append(f"{module}.{attr}")
    assert missing == []


def orbiteq_names(tree):
    """``(module, name)`` for each name a bench file takes from
    ``orbiteq``: ``from orbiteq[.module] import name``, ``orbiteq.name``
    and ``jsonio.name``."""
    owners = {"orbiteq": "orbiteq", "jsonio": "orbiteq.jsonio"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "orbiteq":
            yield from ((node.module, alias.name) for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in owners
        ):
            yield owners[node.value.id], node.attr


@pytest.mark.parametrize(
    "name", ["cases.py", "check.py", "launcher.py", "selftest.py", "worker.py"]
)
def test_bench_imports_resolve(name):
    tree = ast.parse((BENCH / name).read_text(encoding="utf-8"))
    names = sorted(set(orbiteq_names(tree)))
    assert names, name
    missing = [
        f"{module}.{attr}"
        for module, attr in names
        # a submodule such as jsonio is an attribute only once imported
        if not hasattr(importlib.import_module(module), attr)
        and importlib.util.find_spec(f"{module}.{attr}") is None
    ]
    assert missing == []
