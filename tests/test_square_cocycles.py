"""The least cocycles from the square of a map, cylinder by cylinder.

``orbit._least_pair`` reads ``l - k`` where the runs on ``w`` and on
``w[1:]`` first share a state, and the least ``l`` from one walk over
the square.  Here each cylinder's pair is compared with the point
proposal loop (``orbit._proposed``), which searches pairs on mapped
points and certifies each with a product walk, and no point may be
mapped on the way.
"""

import itertools
import json
import random
from math import inf
from pathlib import Path

import pytest

from orbiteq import (
    NoAlignment,
    RunConfig,
    build_shift_space,
    classify,
    compile_block_code,
    jsonio,
    orbit,
    orbit_cocycles,
    transducer,
)
from orbiteq.generators import prefix_exchange, random_shift_space
from orbiteq.maps import _as_transducer

from conftest import expansion_maps, random_tau, recoder_map

INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
FULL2 = build_shift_space([[1, 1], [1, 1]])


def relabelled(space, p):
    rows = [[0] * space.n for _ in range(space.n)]
    for i, row in enumerate(space.matrix.entries, start=1):
        for j, x in enumerate(row, start=1):
            rows[p[i] - 1][p[j] - 1] = x
    return build_shift_space(rows)


def permutation(rng, n):
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return dict(zip(range(1, n + 1), image))


def ladder_maps(seed):
    """Recoders and expansions drawn from one fixed pool, as the
    ``transducer-ladder`` benchmark draws them, relabelled by ``seed``;
    both directions of each pair."""
    pool = random.Random("transducer-ladder/pool")
    recoders = []
    for n in (3,) * 40 + (4,) * 3 + (5,):
        space = random_shift_space(pool, n)
        recoders.append((space, random_tau(pool, space)))
    expansions = []
    for n in (2,) * 60 + (3,) * 10 + (4,):
        symbols = list(range(1, n + 1))
        pool.shuffle(symbols)
        cut = pool.randint(1, n - 1)
        kept = symbols[cut:]
        expansions.append((n, {j: pool.choice(kept) for j in sorted(symbols[:cut])}))
    for j, (space, tau) in enumerate(recoders):
        p = permutation(random.Random(f"transducer-ladder/{seed}/recoder/{j}"), space.n)
        tau = {p[b]: {p[a]: p[v] for a, v in t.items()} for b, t in tau.items()}
        inv = {b: {v: a for a, v in t.items()} for b, t in tau.items()}
        space = relabelled(space, p)
        yield f"recoder-{j}", recoder_map(space, tau)
        yield f"recoder-{j}-inverse", recoder_map(space, inv)
    for j, (n, expand) in enumerate(expansions):
        p = permutation(random.Random(f"transducer-ladder/{seed}/expansion/{j}"), n)
        h, h_inv = expansion_maps(n, {p[a]: p[c] for a, c in expand.items()})
        yield f"expansion-{j}", h
        yield f"expansion-{j}-inverse", h_inv


def exchanges():
    words = [w for m in (1, 2, 3) for w in FULL2.words(m)]
    for u, v in itertools.combinations(words, 2):
        if u[: len(v)] != v[: len(u)]:
            yield f"exchange-{u}-{v}", prefix_exchange(FULL2, u, v)


def committed(name):
    read = lambda f: json.loads((INPUTS / f).read_text())  # noqa: E731
    space = jsonio.matrix_from_json(read("full2.json"))
    return jsonio.map_from_json(space, space, read(name))


def duplicator():
    return transducer(
        FULL2,
        FULL2,
        ["init", "copy"],
        "init",
        {
            ("init", 1): ("copy", (1, 1)),
            ("init", 2): ("copy", (2, 2)),
            ("copy", 1): ("copy", (1,)),
            ("copy", 2): ("copy", (2,)),
        },
    )


def late_recoder():
    """``x -> x1 x2 t(x3, x4) x4 x5 ...`` on the full 2-shift, with
    ``t(c, d)`` swapping ``c`` when ``d = 2``: the runs on ``w`` and on
    ``w[1:]`` share a state only two symbols past a depth-3 word, and
    the root compares a pair before the mismatches come."""
    delta = {}
    for a in (1, 2):
        delta[("q0", a)] = ("q1", (a,))
        delta[("q1", a)] = ("s", (a,))
        delta[("s", a)] = (f"t{a}", ())
        delta[("copy", a)] = ("copy", (a,))
        for d in (1, 2):
            delta[(f"t{a}", d)] = ("copy", (a if d == 1 else 3 - a, d))
    return transducer(FULL2, FULL2, ["q0", "q1", "s", "t1", "t2", "copy"], "q0", delta)


def outcome(find):
    try:
        return find()
    except NoAlignment:
        return "NoAlignment"


def assert_square_matches_points(images, maps, depths):
    """Each cylinder's pair from the square, found with no point mapped,
    equals the point loop's.  Returns the number of cylinders with no
    alignment and the number of cylinders."""
    rows = []
    for name, h in maps:
        m = _as_transducer(h)
        for depth in depths:
            safe, late = set(), {}
            for w in m.source.words(depth):
                pair = outcome(lambda: orbit._least_pair(m, w, depth, safe, late))
                rows.append((name, depth, w, m, pair))
    assert images == []  # every root reaches a node with equal states
    for name, depth, w, m, pair in rows:
        proposed = outcome(lambda: orbit._proposed(m, w, depth, set()))
        assert pair == proposed, (name, depth, w)
    return sum(pair == "NoAlignment" for *_, pair in rows), len(rows)


@pytest.mark.parametrize("seed", [1, 2])
def test_square_matches_point_loop_on_ladder_maps(orbit_images, seed):
    maps = list(ladder_maps(seed))
    assert len(maps) == 2 * (44 + 71)
    assert_square_matches_points(orbit_images, maps, [3])


def test_square_matches_point_loop_on_prefix_exchanges(orbit_images):
    maps = list(exchanges())
    assert len(maps) == 71
    unaligned, cylinders = assert_square_matches_points(orbit_images, maps, [3, 4, 5])
    assert cylinders == 71 * (8 + 16 + 32)
    assert unaligned > 0  # some exchanges need deeper cylinders


def test_square_matches_point_loop_on_small_maps(orbit_images):
    maps = [
        ("recoder2", committed("recoder2.json")),
        ("duplicator", duplicator()),
        ("late-recoder", late_recoder()),
    ]
    assert_square_matches_points(orbit_images, maps, [1, 2, 3, 4])
    kl = orbit_cocycles(late_recoder(), 3)
    assert (set(kl.k.table.values()), set(kl.l.table.values())) == ({3}, {4})


# --- edge cases --------------------------------------------------------------


def pair_buffer():
    """The identity of the full 2-shift that reads its input in pairs and
    emits each pair whole: the runs on ``w`` and on ``w[1:]`` stay at
    opposite parity, so they never share a state."""
    delta = {}
    for a in (1, 2):
        delta[("E", a)] = (f"O{a}", ())
        for b in (1, 2):
            delta[(f"O{a}", b)] = ("E", (a, b))
    return transducer(FULL2, FULL2, ["E", "O1", "O2"], "E", delta)


def test_pair_buffer_identity_falls_back_on_points(orbit_images):
    h = pair_buffer()
    for depth in (3, 4):
        kl = orbit_cocycles(h, depth)
        assert set(kl.k.table.values()) == {0}
        assert set(kl.l.table.values()) == {1}
    assert orbit_images  # the fallback maps points
    assert classify(h, h, RunConfig(depth=4)).kind == "Conjugacy"


def test_constant_code_is_not_injective_and_gets_0_1():
    # every image is 1 1 1 ..., so (0, 0) aligns each point, and the point
    # loop finds it; the square reads l - k = 1 off the one state, and
    # (0, 1) aligns every point too, but it is the least pair only for an
    # injective map
    const = compile_block_code(FULL2, FULL2, 1, {(1,): 1, (2,): 1})
    m = _as_transducer(const)
    for depth in (1, 2, 3):
        kl = orbit_cocycles(const, depth)
        assert set(kl.k.table.values()) == {0}
        assert set(kl.l.table.values()) == {1}
        for w in FULL2.words(depth):
            assert orbit._proposed(m, w, depth, set()) == (0, 0)


def walk_from(delta, root):
    """:func:`orbit._last_mismatch` from ``(root states, last input 1)``
    on a copying machine of the full 2-shift with the given extra moves."""
    delta = {**delta, **{("C", a): ("C", (a,)) for a in (1, 2)}}
    states = sorted({s for s, _ in delta})
    m = transducer(FULL2, FULL2, states, root[0], delta)
    return orbit._last_mismatch(m, (*root, 1, 0, 0, (), ()), set(), {})


def test_mismatch_on_a_self_loop_recurs():
    # from (P, Q) input 1 stays there and emits 1 against 2; input 2 leaves
    # for the copying state with no mismatch
    delta = {
        ("P", 1): ("P", (1,)),
        ("Q", 1): ("Q", (2,)),
        ("P", 2): ("C", (2,)),
        ("Q", 2): ("C", (2,)),
    }
    assert walk_from(delta, ("P", "Q")) == inf


def test_mismatch_reached_from_a_two_node_cycle_recurs():
    # (P1, Q1) and (P2, Q2) alternate on inputs 2 and 1 with no mismatch;
    # only the exit from (P1, Q1) on input 1 mismatches, once
    delta = {
        ("P1", 2): ("P2", (1,)),
        ("Q1", 2): ("Q2", (1,)),
        ("P2", 1): ("P1", (1,)),
        ("Q2", 1): ("Q1", (1,)),
        ("P1", 1): ("C", (1,)),
        ("Q1", 1): ("C", (2,)),
        ("P2", 2): ("C", (2,)),
        ("Q2", 2): ("C", (2,)),
    }
    assert walk_from(delta, ("P1", "Q1")) == inf
    # without the cycle, the mismatch is the first pair compared
    del delta[("P2", 1)], delta[("Q2", 1)]
    delta[("P2", 1)], delta[("Q2", 1)] = ("C", (1,)), ("C", (1,))
    assert walk_from(delta, ("P1", "Q1")) == 1
