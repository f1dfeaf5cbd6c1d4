"""The traced benchmark wraps library functions by name; a rename or a
deletion in ``orbiteq`` would otherwise leave its per-layer counters
silently unwired."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
