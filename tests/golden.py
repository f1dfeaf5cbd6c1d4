"""Golden verdicts: one sha256 digest per case of a fixed corpus, so that
any change of a verdict or of its witnesses shows in the test suite.

The corpus is

* the 200 ``split-corpus`` cases of seed 1 and the ``transducer-ladder``
  cases of seeds 1 and 2, built by the benchmark's own case lists
  (``bench/cases.py``, imported and never changed);
* every exchange of two incomparable words of length 1 to 3 on the full
  2-shift (:func:`orbiteq.generators.prefix_exchange`);
* each command line of ``bench/inputs/manifest.json``, run in process
  through :func:`orbiteq.cli.main` with ``--format json``.

A case is hashed as the benchmark's worker hashes it: the sorted, compact
JSON of ``{"inverse", "verdict"}`` for a pair (``verify_inverse_pair``,
then ``classify``), and of ``{"exit", "stdout", "traceback"}`` for a
command line.  So the digests of a case here and in a bench run agree.

After a change that alters verdicts on purpose, rewrite the file and list
the ids it prints in ``CHANGES.md``::

    PYTHONPATH=src python tests/golden.py
"""

import hashlib
import importlib.util
import itertools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from orbiteq import RunConfig, build_shift_space, classify, cli, jsonio
from orbiteq import verify_inverse_pair
from orbiteq.generators import prefix_exchange

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
GOLDEN = Path(__file__).resolve().parent / "golden_verdicts.json"
WORKLOADS = (("split-corpus", 1), ("transducer-ladder", 1), ("transducer-ladder", 2))


def bench_cases():
    """``bench/cases.py`` as a module, loaded without writing bytecode
    next to it.  It imports ``bench/check.py`` by its bare name."""
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_cases", BENCH / "cases.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    return module


def digest(record):
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(line.encode()).hexdigest()


def pair_record(h, h_inv, cfg):
    ok, _ = verify_inverse_pair(h, h_inv)
    verdict = classify(h, h_inv, cfg) if ok else None
    return {"inverse": ok, "verdict": verdict and jsonio.verdict_to_json(verdict)}


def cli_record(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "traceback": "Traceback (most recent call last)" in err.getvalue(),
    }


def exchanges():
    """Every pair of incomparable words of length 1 to 3 on the full 2-shift."""
    full2 = build_shift_space([[1, 1], [1, 1]])
    words = [w for m in (1, 2, 3) for w in full2.words(m)]
    for u, v in itertools.combinations(words, 2):
        if u[: len(v)] != v[: len(u)]:
            yield u, v, prefix_exchange(full2, u, v)


def records():
    """``(id, record)`` for every case of the corpus, in a fixed order."""
    cases = bench_cases()
    for workload, seed in WORKLOADS:
        for build in cases.WORKLOADS[workload](seed):
            case = build()
            h, h_inv, cfg_args = case.args
            yield f"{workload}/{seed}/{case.id}", pair_record(h, h_inv, RunConfig(**cfg_args))
    for u, v, f in exchanges():
        name = "-".join(",".join(map(str, w)) for w in (u, v))
        yield f"prefix-exchange/{name}", pair_record(f, f, RunConfig())
    for cmd in cases.load_input("manifest.json")["cli"]:
        paths = [str(cases.INPUTS / f) for f in cmd["files"]]
        yield f"cli/{cmd['name']}", cli_record([cmd["command"], *paths, "--format", "json"])


def digests():
    return {case_id: digest(record) for case_id, record in records()}


def main():
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    new = digests()
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    changed = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    for case_id in changed:
        print(case_id)
    print(f"{len(changed)} of {len(new)} digests changed", file=sys.stderr)


if __name__ == "__main__":
    main()
