"""Tests of the benchmark itself.

Run with ``python3 -m pytest bench/selftest.py`` from the root of the
repository.  The file is not named ``test_*.py``, so the library's own test
run does not collect it.
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cases  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SEED = 2


def built(workload, seed=SEED):
    return [build() for build in cases.WORKLOADS[workload](seed)]


def builders(workload, keep=lambda case: True, seed=SEED):
    return [b for b in cases.WORKLOADS[workload](seed) if keep(b())]


def run_and_check(chosen, tracer=None):
    _, _, records = worker.run_pass([build() for build in chosen], tracer)
    return worker.finish([build() for build in chosen], records)


def test_workload_names_match_run_py_and_benchmark_json():
    assert set(cases.WORKLOADS) == set(run.WORKLOADS)
    names = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert names == set(run.WORKLOADS)


def test_per_layer_metrics_match_the_tracer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    reported = [(name, unit) for name, (_, unit) in tracing.per_layer_names()]
    assert listed == reported + [("trace_overhead_ratio", "ratio")]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "cases_per_s", "case_p50_ms", "case_tail_ms", "peak_rss_mb"
    ]


def test_only_short_cases_are_scaled():
    assert worker.scaled(0.5, 2 * worker.REFERENCE_S) == pytest.approx(0.25)
    assert worker.scaled(3.0, 2 * worker.REFERENCE_S) == 3.0


def test_same_seed_same_cases_and_seed_zero_is_the_acceptance_corpus():
    first = [(c.id, c.args[0].source, c.args[0].table) for c in built("split-corpus", 0)[:5]]
    again = [(c.id, c.args[0].source, c.args[0].table) for c in built("split-corpus", 0)[:5]]
    assert first == again
    import random

    from orbiteq import random_shift_space, split_chain

    for case_id, source, table in first:
        i = int(case_id.split("-")[1])
        rng = random.Random(cases.ACCEPTANCE_SEED + i)
        base = random_shift_space(rng, rng.choice([2, 3]))
        _, code, _ = split_chain(rng, base, max_splits=2)
        assert source == base and table == code.table


def test_relabelled_split_cases_still_verify():
    hashes, failures = run_and_check(cases.WORKLOADS["split-corpus"](SEED)[:6])
    assert failures == [] and len(hashes) == 6


def test_transducer_ladder_verdict_mix():
    case_list = built("transducer-ladder")
    kinds = Counter(c.expected["verdict"] for c in case_list)
    assert kinds["COE"] == len(cases.EXPANSION_SIZES) + 1
    assert kinds["EventualConjugacy"] + kinds["Conjugacy"] == len(cases.RECODER_SIZES) + 2
    assert {"fixed-recoder2", "fixed-golden-expansion", "fixed-recoder5"} <= {c.id for c in case_list}
    cheap = builders(
        "transducer-ladder",
        lambda c: c.id in ("fixed-recoder2", "fixed-golden-expansion")
        or (c.id.startswith(("expansion", "recoder")) and c.args[0].source.n <= 3),
    )[:8]
    _, failures = run_and_check(cheap)
    assert failures == []


def test_invariants_compare_mix_and_oracle():
    case_list = built("invariants-compare")
    kinds = Counter(c.id.split("-")[0] for c in case_list)
    assert kinds == {
        "split": cases.COMPARE_SPLIT_PAIRS,
        "unrelated": cases.COMPARE_UNRELATED,
        "fixed": 1,
    }
    for c in case_list:
        a, b = c.args
        assert max(a.n, b.n) <= 12
        if c.id.startswith("split"):
            assert check.oracle_conjugate(a.matrix.entries.tolist(), b.matrix.entries.tolist())
    full2, full3 = [[1, 1], [1, 1]], [[1, 1, 1]] * 3
    assert not check.oracle_conjugate(full2, full3)


def test_known_failures_are_counted_not_hidden():
    item2 = builders("invariants-compare", lambda c: c.id == "fixed-item2")
    _, failures = run_and_check(item2)
    assert failures == [{"case": "fixed-item2", "signature": "compare:false-refutation", "known": True}]


def test_cli_case_files_parse_and_cover_every_subcommand():
    case_list = built("cli")
    assert {c.args[0] for c in case_list} == {"analyze", "compare", "verify", "psi"}
    assert sum(c.id.endswith("verify-recoder5") for c in case_list) == 1


def test_wrappers_leave_the_digest_unchanged_and_count_calls(tmp_path):
    pick = cases.WORKLOADS["split-corpus"](SEED)[:3] + builders(
        "transducer-ladder", lambda c: c.id == "fixed-golden-expansion"
    )
    plain, _ = run_and_check(pick)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced, _ = run_and_check(pick, tracer)
    finally:
        uninstall()
    assert traced == plain
    tracer.dump(tmp_path / "trace.json")
    report = tracing.report([json.loads((tmp_path / "trace.json").read_text())])
    assert report["orbit.classify.calls"][0] == 4
    assert report["maps.verify_inverse_pair.calls"][0] == 4
    assert report["functions.find_transfer.calls"][0] >= 1
    assert report["invariants.obstruction_report.calls"][0] == 0
    assert report["shifts.shift_point.calls"][0] > 0
    assert all(v >= -1e-9 for k, (v, unit) in report.items() if k.endswith("self_s"))


def test_self_time_subtracts_child_spans_and_leaves():
    dump = {
        "spans": [
            [0, "orbit.classify", "c", 0.0, 10.0, None, 1.0],
            [1, "orbit.orbit_cocycles", "c", 1.0, 5.0, 0, 2.0],
        ],
        "leaves": {name: [0, 0.0, 0.0] for name in tracing.HOT},
        "raised": dict.fromkeys(tracing.MODULES, 0),
        "found": {name: [0, 0] for name in tracing.FOUND},
        "enumerate_points": [0, 0],
        "extra": {},
    }
    dump["leaves"]["maps.apply_map"] = [5, 3.0, 3.0]
    report = tracing.report([dump])
    assert report["orbit.classify.self_s"][0] == pytest.approx(10 - 4 - 1)
    assert report["orbit.orbit_cocycles.self_s"][0] == pytest.approx(4 - 2)
    assert report["orbit.self_s"][0] == pytest.approx(7)
    assert report["maps.apply_map.calls"][0] == 5


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(1000) == 99
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert sum(v > run.percentile(values, 90) for v in values) == 10


@pytest.mark.parametrize("name", ["verify-recoder2", "compare-item2", "analyze-m12", "verify-recoder5"])
def test_launcher_matches_the_cli(name, tmp_path):
    spec = next(c for c in cases.load_input("manifest.json")["cli"] if c["name"] == name)
    argv = [spec["command"], *(str(cases.INPUTS / f) for f in spec["files"]), "--format", "json"]
    env = worker.child_env()
    plain = subprocess.run(
        [sys.executable, "-m", "orbiteq.cli", *argv], capture_output=True, text=True, env=env
    )
    trace_file = tmp_path / "trace.json"
    launched = subprocess.run(
        [sys.executable, str(BENCH / "launcher.py"), "--trace", str(trace_file), "--case", "x", "--", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert launched.returncode == plain.returncode
    assert launched.stdout == plain.stdout
    assert ("Traceback" in launched.stderr) == ("Traceback" in plain.stderr)
    report = tracing.report([json.loads(trace_file.read_text())])
    assert report["cli.main.calls"][0] == 1
    assert report["cli.import_s"][0] > 0


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
