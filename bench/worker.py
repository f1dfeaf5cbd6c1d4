"""One chunk of a workload's cycle, in a fresh process.

Usage: python3 bench/worker.py --workload NAME --seed N --chunk K --chunks C [--trace FILE]

A cycle of a workload runs every case of it once, split into ``C``
contiguous chunks, each run by its own worker process.  The worker imports
orbiteq and builds the cases of chunk ``K`` (timed together as set-up),
runs them in a closed loop (the next case starts when the previous one
returns), and only then checks every answer and hashes the canonical JSON
of every case.  It prints one JSON line with the case times, the set-up
time, peak RSS, the case hashes and the failures.  Times are scaled to a
reference speed, as described at ``REFERENCE_S``.

With ``--trace FILE`` the timing wrappers of :mod:`tracing` are installed
after set-up, and the spans and counters of the chunk are written to FILE.
For ``cli`` every child then runs through ``launcher.py`` and writes its
own trace file next to FILE.
"""

import argparse
import time

T0 = time.perf_counter()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

# Library calls go through the package namespace, where the timing
# wrappers are bound when the pass is traced.
import orbiteq  # noqa: E402
from orbiteq import RunConfig, TooLarge, jsonio  # noqa: E402

import cases as case_lists  # noqa: E402
import check  # noqa: E402
import tracing  # noqa: E402

CLI_TIMEOUT_S = 120


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_classify(case):
    h, h_inv, cfg_args = case.args
    cfg = RunConfig(**cfg_args)
    pre, cyc = case.extra.get("family", (cfg.max_pre, cfg.max_cyc))
    ok, _ = orbiteq.verify_inverse_pair(h, h_inv, pre, cyc)
    return ok, orbiteq.classify(h, h_inv, cfg) if ok else None


def run_compare(case):
    """What ``orbiteq compare`` computes, without the file parsing."""
    a, b = case.args
    rep = orbiteq.obstruction_report(a, b)
    conjugate, pair = False, None
    if not rep.obstructed:
        try:
            conjugate = orbiteq.decide_one_sided_conjugacy(a, b)
        except TooLarge:
            conjugate = None
        if conjugate:
            pair = orbiteq.conjugacy_from_amalgamation(a, b)
    return rep, conjugate, pair


def run_cli(case, trace_file):
    if trace_file is None:
        cmd = [sys.executable, "-m", "orbiteq.cli", *case.args]
    else:
        cmd = [sys.executable, str(BENCH / "launcher.py"), "--trace", trace_file, "--case", case.id, "--", *case.args]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=child_env(), timeout=CLI_TIMEOUT_S
    )
    return proc.returncode, proc.stdout, proc.stderr


def to_record(case, outcome):
    """The canonical JSON-ready record of a finished case."""
    if case.kind == "classify":
        ok, verdict = outcome
        return {"inverse": ok, "verdict": verdict and jsonio.verdict_to_json(verdict)}
    if case.kind == "compare":
        rep, conjugate, pair = outcome
        pair_json = pair and {
            "map": jsonio.map_to_json(pair[0]),
            "inverse": jsonio.map_to_json(pair[1]),
        }
        return {
            "payload": {
                "obstruction": jsonio.obstruction_to_json(rep),
                "oneSidedConjugate": conjugate,
                "conjugacy": pair_json,
            }
        }
    code, stdout, stderr = outcome
    return {
        "exit": code,
        "stdout": stdout,
        "traceback": "Traceback (most recent call last)" in stderr,
        "stderr": stderr,
    }


def digest_line(record):
    # stderr holds file paths of the checkout, so it stays out of the digest
    public = {k: v for k, v in record.items() if k != "stderr"}
    return json.dumps(public, sort_keys=True, separators=(",", ":"))


# Speed normalisation.  On a 2-core machine shared with other processes the
# same pure-Python work was measured to run up to 25% faster or slower from
# one second to the next.  A fixed reference loop is timed before the first
# case and after every case, and the time of a case shorter than
# UNSCALED_FROM_S is scaled by REFERENCE_S over the mean of the two
# reference times around it.  REFERENCE_S is the loop's typical time there,
# so scaled times still read as seconds, while the swings shared by the
# case and the loop cancel.  A longer case averages over the swings itself,
# and scaling it by the loop around it would only add the loop's noise, so
# it keeps its wall time.  Raw times are kept too.
REFERENCE_S = 0.004
UNSCALED_FROM_S = 1.0


def scaled(raw_s, reference):
    return raw_s if raw_s >= UNSCALED_FROM_S else raw_s * REFERENCE_S / reference


def reference_s():
    """Seconds the fixed reference loop takes right now."""
    t0 = time.perf_counter()
    table = {}
    for i in range(5000):
        word = (i % 7, i % 11, i % 13, i)
        table[word[:3]] = table.get(word[:3], 0) + len(word)
    sorted(table.items())
    return time.perf_counter() - t0


def run_pass(cases, tracer=None, trace_dir=None):
    """Run every case once, closed loop.

    Each case's objects are dropped and the garbage collector run before
    the next case starts (outside the timed region), so a case pays
    neither for the caches nor for the garbage of the cases before it.
    ``cases`` is emptied.  Returns the wall seconds of every case, the
    reference-loop seconds around each case, and the JSON-ready records.
    """
    raw, ref, records = [], [], []
    before = reference_s()
    for j in range(len(cases)):
        case, cases[j] = cases[j], None
        trace_file = None
        if tracer is not None:
            tracer.begin_case(case.id)
            if case.kind == "cli":
                trace_file = str(Path(trace_dir) / f"child-{j}.json")
        t0 = time.perf_counter()
        try:
            if case.kind == "classify":
                outcome = run_classify(case)
            elif case.kind == "compare":
                outcome = run_compare(case)
            else:
                outcome = run_cli(case, trace_file)
            error = None
        except Exception as exc:  # a raising case is a failed case, not a dead run
            outcome, error = None, {"error": type(exc).__name__, "message": str(exc)}
        raw.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_case()
        records.append(error or to_record(case, outcome))
        del case, outcome
        gc.collect()
        after = reference_s()
        ref.append((before + after) / 2)
        before = after
    return raw, ref, records


def finish(cases, records):
    """Check every answer and hash every record, outside the timed region.

    ``cases`` are freshly built copies of the cases that ran, so the
    checks start from the same inputs as the cases did.
    """
    hashes = []
    failures = []
    for case, record in zip(cases, records):
        hashes.append(hashlib.sha256(digest_line(record).encode()).hexdigest())
        try:
            problem = check.check_case(case, record, case_lists.INPUTS)
        except Exception as exc:  # an answer the checker cannot parse is wrong
            problem = f"{case.kind}:unparsable:{type(exc).__name__}"
        if problem is not None:
            failures.append(
                {"case": case.id, "signature": problem, "known": problem in check.KNOWN_SIGNATURES}
            )
    return hashes, failures


def chunk_slice(n, k, chunks):
    return slice(n * k // chunks, n * (k + 1) // chunks)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(case_lists.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--chunk", type=int, required=True)
    ap.add_argument("--chunks", type=int, required=True)
    ap.add_argument("--trace")
    args = ap.parse_args(argv)
    # One CPU for this worker and its children, so that the reference loop
    # runs where the cases run.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    builders = case_lists.WORKLOADS[args.workload](args.seed)
    builders = builders[chunk_slice(len(builders), args.chunk, args.chunks)]
    cases = [build() for build in builders]
    ids = [c.id for c in cases]
    setup_raw_s = time.perf_counter() - T0
    setup_s = scaled(setup_raw_s, statistics.median(reference_s() for _ in range(5)))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    raw, ref, records = run_pass(cases, tracer, args.trace and Path(args.trace).parent)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    if tracer is not None:
        tracer.dump(args.trace)
    hashes, failures = finish([build() for build in builders], records)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "setup_raw_s": setup_raw_s,
                "times_s": [scaled(t, r) for t, r in zip(raw, ref)],
                "raw_s": raw,
                "peak_rss_mb": peak_rss_mb,
                "hashes": hashes,
                "failures": failures,
                "cases": ids,
            }
        )
    )


if __name__ == "__main__":
    main()
