"""Answer checks for every benchmark case, run outside the timed region.

Each check returns ``None`` when the answer is right, or a short failure
signature such as ``"classify:raised:TooLarge"``.  The signatures of the
defects known when the benchmark was defined are listed in
``known_failures.json``; a failure with any other signature means the code
under test gave an answer the benchmark did not expect, and the run
reports ``"correct": false``.

The one-sided conjugacy oracle here is independent of the library: it is
Williams' total column amalgamation over nonnegative integer matrices
(merged rows add), which is unique up to relabelling and decides
conjugacy of one-sided vertex shifts, followed by a brute-force
isomorphism test of the two terminal matrices.
"""

import json
from pathlib import Path

from orbiteq import (
    OrbitCocyclePair,
    RunConfig,
    cylinder_family,
    jsonio,
    verify_cocycles,
    verify_inverse_pair,
)

KNOWN_FAILURES = json.loads(
    (Path(__file__).resolve().parent / "known_failures.json").read_text(encoding="utf-8")
)
KNOWN_SIGNATURES = {sig for entry in KNOWN_FAILURES for sig in entry["signatures"]}


# ---------------------------------------------------------------------------
# independent one-sided conjugacy oracle


def integer_total_amalgamation(rows):
    """Merge states with equal columns, adding their rows, until none remain."""
    a = [list(r) for r in rows]
    while True:
        n = len(a)
        cols = [tuple(a[i][j] for i in range(n)) for j in range(n)]
        pair = next(
            ((p, q) for p in range(n) for q in range(p + 1, n) if cols[p] == cols[q]),
            None,
        )
        if pair is None:
            return a
        p, q = pair
        a[p] = [x + y for x, y in zip(a[p], a[q])]
        a = [[x for j, x in enumerate(r) if j != q] for i, r in enumerate(a) if i != q]


def integer_isomorphic(a, b):
    """Is there a permutation ``s`` with ``a[i][j] == b[s(i)][s(j)]``?"""
    n = len(a)
    if n != len(b):
        return False

    def sig(m, i):
        return (m[i][i], sorted(m[i]), sorted(r[i] for r in m))

    sa = [sig(a, i) for i in range(n)]
    sb = [sig(b, i) for i in range(n)]
    if sorted(sa) != sorted(sb):
        return False
    perm = []
    used = set()

    def extend(i):
        if i == n:
            return True
        for j in range(n):
            if j in used or sa[i] != sb[j]:
                continue
            if all(
                a[i][i2] == b[j][perm[i2]] and a[i2][i] == b[perm[i2]][j]
                for i2 in range(i)
            ) and a[i][i] == b[j][j]:
                perm.append(j)
                used.add(j)
                if extend(i + 1):
                    return True
                perm.pop()
                used.discard(j)
        return False

    return extend(0)


def oracle_conjugate(rows_a, rows_b):
    """One-sided conjugacy of the vertex shifts of two 0-1 matrices."""
    return integer_isomorphic(
        integer_total_amalgamation(rows_a), integer_total_amalgamation(rows_b)
    )


# ---------------------------------------------------------------------------
# classify cases (in process and through ``orbiteq verify``)


def _transfer_holds(difference, b):
    """Exact check of ``l - k = 1 + b - b o sigma`` on every cylinder."""
    space = b.space
    m = b.depth
    d = max(difference.depth, m + 1)
    return all(
        difference.table[w[: difference.depth]] == 1 + b.table[w[:m]] - b.table[w[1 : m + 1]]
        for w in space.words(d)
    )


def check_verdict(h, h_inv, payload, expected, cfg):
    """Check a ``verdict_to_json`` payload for the pair ``(h, h_inv)``."""
    got = payload.get("verdict")
    if got != expected["verdict"]:
        return f"classify:verdict:{got}"
    if payload.get("K") != expected["K"]:
        return f"classify:lag:{payload.get('K')}"
    cocycles = payload.get("cocycles")
    if got in ("Conjugacy", "EventualConjugacy", "StrongCOE", "COE") and cocycles is None:
        return "classify:no-cocycles"
    pairs = []
    if cocycles is not None:
        for hh, key in ((h, "forward"), (h_inv, "backward")):
            obj = cocycles[key]
            kl = OrbitCocyclePair(
                jsonio.function_from_json(hh.source, obj["k"]),
                jsonio.function_from_json(hh.source, obj["l"]),
            )
            family = sorted(
                {p for pts in cylinder_family(hh.source, kl.depth, cfg).values() for p in pts}
            )
            ok, _ = verify_cocycles(hh, kl, family)
            if not ok:
                return f"classify:cocycles-{key}"
            pairs.append(kl)
        want = expected.get("cocycles")
        if want is not None:
            for kl in pairs:
                if not (kl.k.is_constant(want[0]) and kl.l.is_constant(want[1])):
                    return "classify:cocycle-values"
    transfers = payload.get("transfers")
    if got == "StrongCOE" and transfers is None:
        return "classify:no-transfers"
    if transfers is not None:
        for hh, key, kl in zip((h, h_inv), ("b1", "b2"), pairs):
            b = jsonio.function_from_json(hh.source, transfers[key])
            if not _transfer_holds(kl.difference(), b):
                return f"classify:transfer-{key}"
    return None


def check_classify(case, record):
    h, h_inv, cfg_args = case.args
    if not record["inverse"]:
        return "classify:inverse-rejected"
    return check_verdict(h, h_inv, record["verdict"], case.expected, RunConfig(**cfg_args))


# ---------------------------------------------------------------------------
# compare cases


def check_compare_payload(a, b, payload, expected):
    conjugate = payload["oneSidedConjugate"]
    if payload["obstruction"]["obstructed"] and conjugate is not False:
        return "compare:obstructed-but-conjugate"
    if conjugate != expected["conjugate"]:
        if expected["conjugate"] and conjugate is False:
            return "compare:false-refutation"
        return f"compare:answer:{conjugate}"
    pair = payload["conjugacy"]
    if conjugate and pair is None:
        return "compare:no-witness"
    if pair is not None:
        h = jsonio.map_from_json(a, b, pair["map"])
        h_inv = jsonio.map_from_json(b, a, pair["inverse"])
        if not verify_inverse_pair(h, h_inv, 2, 2)[0]:
            return "compare:witness-rejected"
    return None


def check_compare(case, record):
    a, b = case.args
    return check_compare_payload(a, b, record["payload"], case.expected)


# ---------------------------------------------------------------------------
# cli cases


def _traceback_type(stderr):
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    return last.split(":", 1)[0].rsplit(".", 1)[-1] or "unknown"


def check_cli(case, record, inputs):
    spec = case.extra["spec"]
    code = record["exit"]
    if record["traceback"]:
        return f"cli:{spec['command']}:traceback:{_traceback_type(record['stderr'])}"
    if code not in (0, 1, 2, 3):
        return f"cli:{spec['command']}:exit:{code}"
    if code != case.expected["exit"]:
        return f"cli:{spec['command']}:exit:{code}"
    try:
        payload = json.loads(record["stdout"])
    except ValueError:
        return f"cli:{spec['command']}:stdout-not-json"
    files = [jsonio.load_file(inputs / f) for f in spec["files"]]
    if spec["command"] == "verify":
        a, b = (jsonio.matrix_from_json(f) for f in files[:2])
        h = jsonio.map_from_json(a, b, files[2])
        h_inv = jsonio.map_from_json(b, a, files[3])
        problem = check_verdict(h, h_inv, payload, case.expected, RunConfig())
    elif spec["command"] == "compare":
        a, b = (jsonio.matrix_from_json(f) for f in files)
        problem = check_compare_payload(a, b, payload, case.expected)
    elif spec["command"] == "analyze":
        problem = None if "invariants" in payload else "analyze:no-invariants"
    else:
        problem = None if payload.get("induced") else "psi:no-induced"
    return problem and f"cli:{problem}"


def check_case(case, record, inputs):
    if "error" in record:
        return f"{case.kind}:raised:{record['error']}"
    if case.kind == "classify":
        return check_classify(case, record)
    if case.kind == "compare":
        return check_compare(case, record)
    return check_cli(case, record, inputs)
