"""The orbiteq benchmark.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``cases.py`` for why each one is there): ``split-corpus``,
``transducer-ladder``, ``invariants-compare`` and ``cli``.

A run is a sequence of cycles.  A cycle runs every case of the workload
once, closed loop and single-threaded, split into ``CHUNKS`` chunks that
each run in a fresh worker process (``worker.py``), so every chunk starts
with the cold module-level caches a user's process starts with.  Another
cycle starts only while it is expected to end within ``--seconds``; the
first one always runs.  Every answer is checked after its chunk ends
(``check.py``), outside the timed region.

Times are wall-clock seconds; those of cases shorter than a second are
scaled to a reference speed by a fixed loop timed right before and after
each case (``worker.py``), which cancels the swings in speed of a machine
shared with other processes.  The raw times are kept in the record under
``.bench_out/``.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics.  With ``--trace 1`` an untraced and a traced cycle
alternate, and the last line carries the per-module metrics of the traced
cycles (``tracing.py``) and ``trace_overhead_ratio``.  The line before it
holds the details of the run: the machine, the verdict digest, the
failures by signature, and the percentile behind ``case_tail_ms``.  The
whole record, with the raw times, is also written under ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("split-corpus", "transducer-ladder", "invariants-compare", "cli")
CHUNKS = 4
HARD_LIMIT_S = 170
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)

sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def machine_info(seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def run_worker(cmd, deadline):
    """Run one worker in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("a worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err[-4000:]}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError(f"worker printed no result:\n{err[-4000:]}") from None


def run_cycle(workload, seed, deadline, trace_dir=None):
    t0 = time.monotonic()
    chunks = []
    for k in range(CHUNKS):
        cmd = [
            sys.executable,
            str(BENCH / "worker.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--chunk", str(k),
            "--chunks", str(CHUNKS),
        ]
        if trace_dir is not None:
            chunk_dir = trace_dir / f"chunk-{k}"
            chunk_dir.mkdir(parents=True)
            cmd += ["--trace", str(chunk_dir / "worker.json")]
        chunks.append(run_worker(cmd, deadline))
    times = [t for c in chunks for t in c["times_s"]]
    raw = [t for c in chunks for t in c["raw_s"]]
    hashes = [h for c in chunks for h in c["hashes"]]
    return {
        "wall_s": time.monotonic() - t0,
        "times_s": times,
        "raw_s": raw,
        "setup_s": [c["setup_s"] for c in chunks],
        "setup_raw_s": [c["setup_raw_s"] for c in chunks],
        "peak_rss_mb": max(c["peak_rss_mb"] for c in chunks),
        "digest": hashlib.sha256("\n".join(hashes).encode()).hexdigest(),
        "failures": [f for c in chunks for f in c["failures"]],
        "cases": [i for c in chunks for i in c["cases"]],
        "trace_dir": trace_dir and str(trace_dir),
    }


def tail_percentile(cases_per_cycle):
    """The highest listed percentile with at least ten samples beyond it
    in a single cycle, so every run of a workload reports the same one."""
    for p in TAIL_PERCENTILES:
        if cases_per_cycle * (100 - p) / 100 >= 10:
            return p
    return 50


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def end_to_end(cycles):
    times = [t for c in cycles for t in c["times_s"]]
    p = tail_percentile(len(cycles[0]["times_s"]))
    tail = percentile(times, p)
    metrics = {
        "setup_s": (statistics.median(s for c in cycles for s in c["setup_s"]), "s"),
        "cases_per_s": (
            statistics.median(len(c["times_s"]) / sum(c["times_s"]) for c in cycles),
            "1/s",
        ),
        "case_p50_ms": (statistics.median(times) * 1000, "ms"),
        "case_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in cycles), "MB"),
    }
    beyond = sum(1 for t in times if t > tail)
    details = {"tail": {"percentile": p, "samples": len(times), "beyond": beyond}}
    return metrics, details


def per_layer(untraced, traced):
    reports = []
    for c in traced:
        dumps = [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(Path(c["trace_dir"]).rglob("*.json"))
        ]
        reports.append(tracing.report(dumps))
    metrics = {
        name: (statistics.median(r[name][0] for r in reports), unit)
        for name, (_, unit) in reports[0].items()
    }
    overhead = statistics.median(sum(c["times_s"]) for c in traced) / statistics.median(
        sum(c["times_s"]) for c in untraced
    )
    metrics["trace_overhead_ratio"] = (overhead, "ratio")
    counts = [{k: v for k, (v, unit) in r.items() if unit == "count"} for r in reports]
    return metrics, {"counts_repeat": all(c == counts[0] for c in counts)}


def run(workload, seed, seconds, traced):
    out_dir = OUT / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    cycles, traced_cycles = [], []
    while True:
        t0 = time.monotonic()
        cycles.append(run_cycle(workload, seed, deadline))
        if traced:
            trace_dir = out_dir / f"trace-{len(traced_cycles)}"
            traced_cycles.append(run_cycle(workload, seed, deadline, trace_dir))
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        if elapsed + took > seconds or elapsed + 1.5 * took > HARD_LIMIT_S:
            break
    every = cycles + traced_cycles
    failures = Counter(f["signature"] for c in every for f in c["failures"])
    unknown = sorted({f["signature"] for c in every for f in c["failures"] if not f["known"]})
    digests = sorted({c["digest"] for c in every})
    signatures = {tuple(sorted(f["signature"] for f in c["failures"])) for c in every}
    attempted = sum(len(c["times_s"]) for c in every)
    failed = sum(failures.values())
    if traced:
        metrics, details = per_layer(cycles, traced_cycles)
    else:
        metrics, details = end_to_end(cycles)
    details.update(
        {
            "workload": workload,
            "trace": int(traced),
            "machine": machine_info(seed),
            "cycles": len(cycles) + len(traced_cycles),
            "digest": digests[0] if len(digests) == 1 else digests,
            "fail_ratio": failed / attempted,
            "failures": dict(sorted(failures.items())),
            "unexpected_failures": unknown,
        }
    )
    correct = len(digests) == 1 and len(signatures) == 1 and not unknown
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {"details": details, "result": result, "cycles": every}
    (out_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orbiteq" / "__init__.py").is_file():
        print(f"error: no orbiteq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
