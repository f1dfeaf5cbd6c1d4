import doctest
import importlib
import pkgutil

import orbiteq


def test_docstring_examples():
    names = ["orbiteq"] + [
        m.name for m in pkgutil.iter_modules(orbiteq.__path__, "orbiteq.")
    ]
    results = {
        name: doctest.testmod(importlib.import_module(name)) for name in names
    }
    assert sum(r.attempted for r in results.values()) > 0
    assert {n: r.failed for n, r in results.items() if r.failed} == {}
