"""Seeded case lists for the four benchmark workloads.

A case is one unit of user work together with the answer known for it
without asking the code under test: by construction (out-splittings are
conjugacies, first-symbol recoders are lag-1 eventual conjugacies, symbol
expansions are orbit equivalences), or from the independent amalgamation
oracle in :mod:`check` for pairs of unrelated matrices.

Everything random flows from the ``--seed`` of the run, so the same seed
gives the same cases.  Each workload function returns one builder per
case, in the order the cases run; calling the builders is the set-up the
benchmark times as ``setup_s``.  Every space is built fresh for its case,
so the word tables and point caches on it start cold when the case runs,
as they do for a user.
"""

import random
from dataclasses import dataclass, field
from pathlib import Path

from orbiteq import (
    build_shift_space,
    compile_block_code,
    jsonio,
    random_shift_space,
    split_chain,
    transducer,
)

import check

INPUTS = Path(__file__).resolve().parent / "inputs"
ACCEPTANCE_SEED = 20240601

# Cases in one cycle.  The cost of a case swings by whole factors with its
# spaces and maps, so these come from fixed pools and the seed only
# relabels their symbols: every seed asks for the same work on different
# inputs, and the spread between seeds is the machine's, not the pool's.
SPLIT_CASES = 200  # the whole acceptance corpus
RECODER_SIZES = (3,) * 40 + (4,) * 3 + (5,)
EXPANSION_SIZES = (2,) * 60 + (3,) * 10 + (4,)
COMPARE_SPLIT_PAIRS = 400
COMPARE_UNRELATED = 150


@dataclass
class Case:
    """One unit of user work and what its answer must be."""

    id: str
    kind: str  # "classify", "compare" or "cli"
    args: tuple
    expected: dict
    extra: dict = field(default_factory=dict)


def load_input(name):
    return jsonio.load_file(INPUTS / name)


def relabelling(rng, n, seed):
    """A random permutation of the symbols ``1..n``; seed 0 keeps them."""
    image = list(range(1, n + 1))
    if seed:
        rng.shuffle(image)
    return dict(zip(range(1, n + 1), image))


def relabel_space(space, perm):
    rows = [[0] * space.n for _ in range(space.n)]
    for i, row in enumerate(space.matrix.entries.tolist(), start=1):
        for j, x in enumerate(row, start=1):
            rows[perm[i] - 1][perm[j] - 1] = x
    return build_shift_space(rows)


def relabel_code(code, source, target, p_source, p_target):
    table = {tuple(p_source[a] for a in w): p_target[v] for w, v in code.table.items()}
    return compile_block_code(source, target, code.window, table)


# ---------------------------------------------------------------------------
# split-corpus: the acceptance suite's out-split conjugacies


def split_corpus(seed):
    """The acceptance corpus (cases ``20240601 + i``), every space
    relabelled by the seed; seed 0 keeps the labels."""
    return [lambda i=i: _split_case(seed, i) for i in range(SPLIT_CASES)]


def _split_case(seed, i):
    rng = random.Random(ACCEPTANCE_SEED + i)
    base = random_shift_space(rng, rng.choice([2, 3]))
    split, code, inverse = split_chain(rng, base, max_splits=2)
    rng = random.Random(f"split-corpus/{seed}/{i}")
    pa, pb = relabelling(rng, base.n, seed), relabelling(rng, split.n, seed)
    a, b = relabel_space(base, pa), relabel_space(split, pb)
    return Case(
        f"split-{i}",
        "classify",
        (relabel_code(code, a, b, pa, pb), relabel_code(inverse, b, a, pb, pa), {"depth": 6}),
        {"verdict": "Conjugacy", "K": 0, "cocycles": (0, 1)},
        {"family": (2, 3)},
    )


# ---------------------------------------------------------------------------
# transducer-ladder: homeomorphisms that are not block codes


def recoder_pair(space, tau):
    """The first-symbol recoder ``x -> tau_{x2}(x1) x2 x3 ...`` and its
    inverse, as transducers.

    ``tau[b]`` maps each predecessor of ``b`` to a predecessor of ``b``
    and must be a permutation of them, so the recoded word stays
    admissible and the inverse recodes with the inverse permutations.
    """
    inv = {b: {v: a for a, v in t.items()} for b, t in tau.items()}
    return _recoder(space, tau), _recoder(space, inv)


def _recoder(space, tau):
    n = space.n
    fol = space.matrix.followers
    delta = {}
    for a in range(1, n + 1):
        delta[("q0", a)] = (f"s{a}", ())
        delta[("copy", a)] = ("copy", (a,))
        for b in fol[a - 1]:
            delta[(f"s{a}", b)] = ("copy", (tau[b][a], b))
    states = ["q0", *(f"s{a}" for a in range(1, n + 1)), "copy"]
    return transducer(space, space, states, "q0", delta)


def predecessors(space, b):
    return [a for a in range(1, space.n + 1) if space.matrix.allows(a, b)]


def random_tau(rng, space):
    tau = {}
    for b in range(1, space.n + 1):
        pred = predecessors(space, b)
        image = pred[:]
        rng.shuffle(image)
        tau[b] = dict(zip(pred, image))
    return tau


def recoder_expected(tau):
    if all(a == v for t in tau.values() for a, v in t.items()):
        return {"verdict": "Conjugacy", "K": 0}
    return {"verdict": "EventualConjugacy", "K": 1}


def expansion_pair(n, expand):
    """Full ``n``-shift onto the space where each ``j`` in ``expand`` is
    always followed by ``expand[j]``, by ``j -> j expand[j]``.

    The inverse copies every symbol and drops the one after each
    expanded symbol, so it needs two states.
    """
    source = build_shift_space([[1] * n for _ in range(n)])
    rows = []
    for j in range(1, n + 1):
        c = expand.get(j)
        rows.append([int(c is None or c == t) for t in range(1, n + 1)])
    target = build_shift_space(rows)
    fwd = {
        ("s", j): ("s", (j, expand[j]) if j in expand else (j,))
        for j in range(1, n + 1)
    }
    back = {}
    for j in range(1, n + 1):
        back[("copy", j)] = ("skip" if j in expand else "copy", (j,))
        back[("skip", j)] = ("copy", ())
    h = transducer(source, target, ["s"], "s", fwd)
    h_inv = transducer(target, source, ["copy", "skip"], "copy", back)
    return h, h_inv


def random_expansion(rng, n):
    """A random set of expanded symbols of the full ``n``-shift, each
    with a kept symbol to follow it."""
    symbols = list(range(1, n + 1))
    rng.shuffle(symbols)
    k = rng.randint(1, n - 1)
    expanded, kept = symbols[:k], symbols[k:]
    return {j: rng.choice(kept) for j in sorted(expanded)}


def _fixed_map_case(name):
    spec = load_input("manifest.json")["maps"][name]
    a = jsonio.matrix_from_json(load_input(spec["a"]))
    b = jsonio.matrix_from_json(load_input(spec["b"]))
    h = jsonio.map_from_json(a, b, load_input(spec["map"]))
    h_inv = jsonio.map_from_json(b, a, load_input(spec["inverse"]))
    return Case(f"fixed-{name}", "classify", (h, h_inv, {}), spec["expected"])


def transducer_ladder(seed):
    """First-symbol recoders and symbol expansions from a fixed pool,
    relabelled by the seed, and the three committed maps."""
    pool = random.Random("transducer-ladder/pool")
    recoders = []
    for n in RECODER_SIZES:
        space = random_shift_space(pool, n)
        recoders.append((space.matrix.entries.tolist(), random_tau(pool, space)))
    expansions = [(n, random_expansion(pool, n)) for n in EXPANSION_SIZES]
    builders = [
        lambda j=j, rows=rows, tau=tau: _recoder_case(seed, j, rows, tau)
        for j, (rows, tau) in enumerate(recoders)
    ]
    builders += [
        lambda j=j, n=n, expand=expand: _expansion_case(seed, j, n, expand)
        for j, (n, expand) in enumerate(expansions)
    ]
    builders += [
        lambda name=name: _fixed_map_case(name)
        for name in ("recoder2", "golden-expansion", "recoder5")
    ]
    return builders


def _recoder_case(seed, j, rows, tau):
    space = build_shift_space(rows)
    p = relabelling(random.Random(f"transducer-ladder/{seed}/recoder/{j}"), space.n, seed)
    tau = {p[b]: {p[a]: p[v] for a, v in t.items()} for b, t in tau.items()}
    h, h_inv = recoder_pair(relabel_space(space, p), tau)
    return Case(f"recoder-{j}", "classify", (h, h_inv, {}), recoder_expected(tau))


def _expansion_case(seed, j, n, expand):
    p = relabelling(random.Random(f"transducer-ladder/{seed}/expansion/{j}"), n, seed)
    h, h_inv = expansion_pair(n, {p[a]: p[c] for a, c in expand.items()})
    return Case(f"expansion-{j}", "classify", (h, h_inv, {}), {"verdict": "COE", "K": None})


# ---------------------------------------------------------------------------
# invariants-compare: what ``orbiteq compare`` computes


def invariants_compare(seed):
    """Out-split pairs up to the 12-state matching cap, unrelated random
    pairs judged by the oracle, and the committed ROADMAP item-2 pair."""
    builders = [lambda j=j: _split_pair_case(seed, j) for j in range(COMPARE_SPLIT_PAIRS)]
    builders += [lambda j=j: _unrelated_case(seed, j) for j in range(COMPARE_UNRELATED)]
    builders.append(_item2_case)
    return builders


def _split_pair_case(seed, j):
    rng = random.Random(f"invariants-compare/pool/split/{j}")
    base = random_shift_space(rng, rng.randint(2, 9))
    split, _, _ = split_chain(rng, base, max_splits=min(3, 12 - base.n))
    rng = random.Random(f"invariants-compare/{seed}/split/{j}")
    a = relabel_space(base, relabelling(rng, base.n, seed))
    b = relabel_space(split, relabelling(rng, split.n, seed))
    return Case(f"split-pair-{j}", "compare", (a, b), {"conjugate": True})


def _unrelated_case(seed, j):
    rng = random.Random(f"invariants-compare/pool/unrelated/{j}")
    a = random_shift_space(rng, rng.randint(3, 6))
    b = random_shift_space(rng, rng.randint(3, 6))
    rng = random.Random(f"invariants-compare/{seed}/unrelated/{j}")
    a = relabel_space(a, relabelling(rng, a.n, seed))
    b = relabel_space(b, relabelling(rng, b.n, seed))
    truth = check.oracle_conjugate(a.matrix.entries.tolist(), b.matrix.entries.tolist())
    return Case(f"unrelated-{j}", "compare", (a, b), {"conjugate": truth})


def _item2_case():
    pair = load_input("manifest.json")["compare"]["item2"]
    a = jsonio.matrix_from_json(load_input(pair["a"]))
    b = jsonio.matrix_from_json(load_input(pair["b"]))
    return Case("fixed-item2", "compare", (a, b), {"conjugate": True})


# ---------------------------------------------------------------------------
# cli: one subprocess per case on the committed inputs


def cli_cases(seed):
    """Every committed command line, as often as its ``repeats`` in the
    manifest.  The inputs are the committed files, so the seed changes
    nothing here."""
    commands = load_input("manifest.json")["cli"]
    order = [c for r in range(max(c["repeats"] for c in commands)) for c in commands if r < c["repeats"]]
    return [lambda j=j, cmd=cmd: _cli_case(j, cmd) for j, cmd in enumerate(order)]


def _cli_case(j, cmd):
    """Parsing the command's input files is the set-up of a cli case, so
    a malformed committed input fails set-up rather than a case."""
    files = [load_input(f) for f in cmd["files"]]
    if cmd["command"] in ("verify", "psi"):
        a, b = (jsonio.matrix_from_json(f) for f in files[:2])
        jsonio.map_from_json(a, b, files[2])
        if cmd["command"] == "verify":
            jsonio.map_from_json(b, a, files[3])
    else:
        for f in files:
            jsonio.matrix_from_json(f)
    argv = (cmd["command"], *(str(INPUTS / f) for f in cmd["files"]), "--format", "json")
    return Case(f"cli-{j}-{cmd['name']}", "cli", argv, cmd["expected"], {"spec": cmd})


WORKLOADS = {
    "split-corpus": split_corpus,
    "transducer-ladder": transducer_ladder,
    "invariants-compare": invariants_compare,
    "cli": cli_cases,
}
