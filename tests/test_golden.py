"""Every verdict of the golden corpus (``golden.py``) is unchanged.

A change that alters verdicts on purpose rewrites ``golden_verdicts.json``
with ``PYTHONPATH=src python tests/golden.py`` and lists the printed ids in
``CHANGES.md``.
"""

import json

from golden import GOLDEN, digests


def test_golden_verdicts_are_unchanged():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    assert len(expected) == 515
    changed = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert changed == []
