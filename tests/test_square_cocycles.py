"""The least cocycles from the square of a map, cylinder by cylinder.

``orbit_cocycles`` takes the runs on each word ``w`` and on ``w[1:]`` from
one depth-first walk of the words (``maps._two_runs``), and
``maps._least_pair`` runs the same per-cylinder code on one word.  Runs
that end in one state give the pair in closed form, off their outputs;
otherwise ``l - k`` is read where the runs first share a state, or from
the first finite walk among the differences outward from the output lead,
and the least ``l`` from one walk over the square, which stops at nodes
whose two sides are settled in one state.  No point is mapped.  Here each
cylinder's pair is compared with a point proposal loop held in this file
(:func:`point_loop`), which searches pairs on mapped points with the test
suite's own closed-form solver (``conftest.aligning_shifts``) and
certifies each with a product walk, and with :func:`walk_only_pair`, which
reads every pair off the walks as the code did before the closed form.
"""

import json
from math import inf
from pathlib import Path

import pytest

from orbiteq import (
    NoAlignment,
    TooLarge,
    RunConfig,
    build_shift_space,
    classify,
    compile_block_code,
    jsonio,
    orbit,
    orbit_cocycles,
    transducer,
)
from orbiteq import maps
from orbiteq.config import MAX_DEPTH
from orbiteq.maps import (
    _as_transducer,
    _compared,
    _difference,
    _last_mismatch,
    _least_pair,
    _misaligned,
    _square_edges,
    apply_map,
)
from orbiteq.shifts import point_with_prefix, shift_point

import golden
from conftest import aligning_shifts, alignment_record, pair_buffer, two_mode

INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
FULL2 = build_shift_space([[1, 1], [1, 1]])


def ladder_maps(seed):
    """Both directions of each recoder and expansion pair of the
    ``transducer-ladder`` benchmark at ``seed``, from its own case list;
    the three committed ``fixed-*`` maps are left out."""
    for build in golden.bench_cases().transducer_ladder(seed):
        case = build()
        if not case.id.startswith("fixed-"):
            h, h_inv, _ = case.args
            yield case.id, h
            yield f"{case.id}-inverse", h_inv


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


def least_on_points(m, w, depth, points, images):
    """The least ``(k, l)``, minimizing ``l`` and then ``k``, that aligns
    every one of ``points``, searching up to twice ``depth`` plus the
    preperiod and cycle length of the shortest of them.  ``images`` holds
    the images of ``p`` and ``sigma p`` mapped so far."""
    least = min(len(p.preperiod) + len(p.cycle) for p in points)
    top = 2 * (depth + least)
    recs = []
    for p in points:
        sp = shift_point(m.source, p)
        for q in (p, sp):
            if q not in images:
                images[q] = apply_map(m, q)
        recs.append(alignment_record(images[p], images[sp]))
    for l in range(top + 1):
        sols = [aligning_shifts(rec, l, top) for rec in recs]
        k = next((k for k in min(sols, key=len) if all(k in s for s in sols)), None)
        if k is not None:
            return k, l
    raise NoAlignment(f"no orbit alignment on cylinder {w}")


def point_loop(m, w, depth):
    """The least pair on ``[w]`` from points: the least pair that aligns
    the points found so far, certified by ``maps._misaligned`` or refuted
    by a word whose point joins them."""
    src = m.source
    points = {point_with_prefix(src, w), orbit.aperiodic_point_with_prefix(src, w)}
    images = {}
    while True:
        k, l = least_on_points(m, w, depth, points, images)
        word = _misaligned(m, (w,), k, l)
        if word is None:
            return k, l
        points.add(point_with_prefix(src, word))


def walk_only_pair(m, w, memo):
    """The least pair on ``[w]`` read off the walks alone, as the code did
    before settled runs were read in closed form: ``l - k`` from
    ``_difference`` (or the offsets outward from the output lead), then the
    root node and ``_last_mismatch``, on every cylinder."""
    (sa, oa), (sb, ob) = m._run(w), m._run(w[1:])
    d0 = len(oa) - len(ob)
    c = maps._difference(m, sa, sb, w[-1], d0)
    if c is None:
        span = range(d0 - MAX_DEPTH, d0 + MAX_DEPTH + 1)
        diffs, skipped = sorted(span, key=lambda c: (abs(c - d0), c)), TooLarge
    else:
        diffs, skipped = [c], ()
    for c in diffs:
        root, n, miss = _compared(sa, sb, w[-1], max(c, 0), max(-c, 0), oa, ob)
        try:
            after = maps._last_mismatch(m, root, memo)
        except skipped:
            continue
        if after < inf:
            l = max(c, 0) + (n + after if after else miss)
            return l - c, l
    raise NoAlignment(f"no orbit alignment on cylinder {w}")


def cocycle_tables(h, depth):
    """``orbit_cocycles`` as ``(word, (k, l))`` items in table order, or the
    message of its ``NoAlignment``."""
    try:
        kl = orbit_cocycles(h, depth)
    except NoAlignment as e:
        return str(e)
    assert list(kl.k.table) == list(kl.l.table)
    return [(w, (kl.k.table[w], kl.l.table[w])) for w in kl.k.table]


def unshared(m, w):
    """Do the runs on ``w`` and on ``w[1:]`` never share a state?"""
    (sa, oa), (sb, ob) = m._run(w), m._run(w[1:])
    return _difference(m, sa, sb, w[-1], len(oa) - len(ob)) is None


def assert_square_matches_points(named_maps, depths):
    """Each cylinder's pair from the square equals the point loop's and
    :func:`walk_only_pair`'s, and ``orbit_cocycles`` gives the same tables,
    in word order, or fails on the first cylinder that has no pair.
    Returns the number of cylinders with no alignment, the number of
    cylinders, and the number whose two runs never share a state."""
    rows = []
    for name, h in named_maps:
        m = _as_transducer(h)
        for depth in depths:
            memo, ref_memo, pairs = {}, {}, []
            for w in m.source.words(depth):
                pair = outcome(lambda: _least_pair(m, w, memo))
                assert pair == outcome(lambda: point_loop(m, w, depth)), (name, w)
                reference = outcome(lambda: walk_only_pair(m, w, ref_memo))
                assert pair == reference, (name, w)
                pairs.append((w, pair))
                rows.append((pair, unshared(m, w)))
            first = next((w for w, pair in pairs if pair == "NoAlignment"), None)
            if first is not None:
                pairs = f"no orbit alignment on cylinder {first}"
            assert cocycle_tables(h, depth) == pairs, (name, depth)
    unaligned = sum(pair == "NoAlignment" for pair, _ in rows)
    return unaligned, len(rows), sum(u for _, u in rows)


@pytest.mark.parametrize("seed", [1, 2])
def test_square_matches_point_loop_on_ladder_maps(seed):
    named_maps = list(ladder_maps(seed))
    assert len(named_maps) == 2 * (44 + 71)
    *_, unshared_roots = assert_square_matches_points(named_maps, [3])
    assert unshared_roots == 0  # every root reaches a node with equal states


def test_square_matches_point_loop_on_prefix_exchanges():
    named_maps = [(f"exchange-{u}-{v}", f) for u, v, f in golden.exchanges()]
    assert len(named_maps) == 71
    unaligned, cylinders, unshared_roots = assert_square_matches_points(
        named_maps, [3, 4, 5]
    )
    assert cylinders == 71 * (8 + 16 + 32)
    assert unaligned > 0  # some exchanges need deeper cylinders
    assert unshared_roots == 0


def test_square_matches_point_loop_on_small_maps():
    named_maps = [
        ("recoder2", committed("recoder2.json")),
        ("duplicator", duplicator()),
        ("late-recoder", late_recoder()),
        ("pair-buffer", pair_buffer()),
        ("two-mode", two_mode()),
    ]
    for name, h in named_maps:
        _, _, unshared_roots = assert_square_matches_points([(name, h)], [1, 2, 3, 4])
        assert (unshared_roots > 0) is (name in ("pair-buffer", "two-mode")), name
    kl = orbit_cocycles(late_recoder(), 3)
    assert (set(kl.k.table.values()), set(kl.l.table.values())) == ({3}, {4})
    for depth in (1, 2, 3, 4):
        kl = orbit_cocycles(two_mode(), depth)
        assert (set(kl.k.table.values()), set(kl.l.table.values())) == ({0}, {1})


# --- edge cases --------------------------------------------------------------


def test_pair_buffer_identity_maps_no_point(orbit_images):
    h = pair_buffer()
    for depth in (3, 4):
        kl = orbit_cocycles(h, depth)
        assert set(kl.k.table.values()) == {0}
        assert set(kl.l.table.values()) == {1}
    assert orbit_images == []
    assert classify(h, h, RunConfig(depth=4)).kind == "Conjugacy"


def test_output_lead_is_not_the_difference_on_the_two_mode_identity():
    # on [1 2 1] the run on w copies and the run on w[1:] buffers two
    # symbols: w's output leads by 3 at the root and on every node after,
    # yet l - k = 1, so no balance of output lengths gives the difference
    m = two_mode()
    w = (1, 2, 1)
    (sa, oa), (sb, ob) = m._run(w), m._run(w[1:])
    assert len(oa) - len(ob) == 3
    assert unshared(m, w)
    assert _least_pair(m, w, {}) == (0, 1)


def pair_doubler():
    """Reads its input in pairs ``(a, b)`` and emits ``(a, a)``: not
    injective, not an orbit map, and its runs never share a state."""
    delta = {}
    for a in (1, 2):
        delta[("E", a)] = (f"O{a}", ())
        for b in (1, 2):
            delta[(f"O{a}", b)] = ("E", (a, a))
    return transducer(FULL2, FULL2, ["E", "O1", "O2"], "E", delta)


def test_pair_doubler_has_no_alignment_on_any_cylinder():
    m = pair_doubler()
    memo = {}
    for w in FULL2.words(3):
        assert unshared(m, w)
        with pytest.raises(NoAlignment):
            _least_pair(m, w, memo)
    # the walk of all cylinders (sharing the memo, as orbit_cocycles would
    # build it) and the walk-only reference fail on the same first cylinder
    with pytest.raises(NoAlignment) as walked:
        orbit._cocycles(m, 3, memo)
    with pytest.raises(NoAlignment) as reference:
        walk_only_pair(m, FULL2.words(3)[0], memo)
    assert str(walked.value) == str(reference.value)
    assert str(walked.value) == "no orbit alignment on cylinder (1, 1, 1)"


def test_settled_cylinders_take_no_walk(monkeypatch):
    # every depth-3 cylinder of a recoder ends its two runs in one state, so
    # its pair is read off the outputs: no difference walk, no mismatch walk
    calls = []
    for name in ("_difference", "_last_mismatch"):
        fn = getattr(maps, name)
        monkeypatch.setattr(
            maps, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a)
        )
    recoders = [committed("recoder2.json")]
    recoders += [h for name, h in ladder_maps(1) if name.startswith("recoder-")][:8]
    tables = [cocycle_tables(h, 3) for h in recoders]
    assert calls == []
    # the walk-only reference takes both walks and reads the same pairs
    for h, table in zip(recoders, tables):
        m = _as_transducer(h)
        assert table == [(w, walk_only_pair(m, w, {})) for w in m.source.words(3)]
    assert set(calls) == {"_difference", "_last_mismatch"}


def test_square_edges_stop_at_a_settled_node():
    # one state, nothing owed, nothing queued: both sides emit one stream,
    # so the node has no edge to walk; owing or queueing a symbol has edges
    for h in (committed("recoder2.json"), late_recoder(), two_mode()):
        m = _as_transducer(h)
        for s in m.states:
            for last in (1, 2):
                assert list(_square_edges(m, (s, s, last, 0, 0, (), ()))) == []
                assert list(_square_edges(m, (s, s, last, 1, 0, (), ())))
                assert list(_square_edges(m, (s, s, last, 0, 0, (1,), ())))


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
            assert point_loop(m, w, depth) == (0, 0)


def walk_from(delta, root):
    """:func:`maps._last_mismatch` from ``(root states, last input 1)``
    on a copying machine of the full 2-shift with the given extra moves."""
    delta = {**delta, **{("C", a): ("C", (a,)) for a in (1, 2)}}
    states = sorted({s for s, _ in delta})
    m = transducer(FULL2, FULL2, states, root[0], delta)
    node, _, _ = _compared(*root, 1, 0, 0, (), ())
    return _last_mismatch(m, node, {})


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


def test_one_memo_holds_what_a_fresh_walk_reads():
    # the cocycle walks of a map share one memo across cylinders and
    # depths, as ``orbit._search_cocycles`` does: each node's entry must be
    # what a walk from that node alone reads, 0 where no mismatch is reachable
    named_maps = list(ladder_maps(1))
    named_maps += [(f"exchange-{u}-{v}", f) for u, v, f in golden.exchanges()]
    entries = 0
    for name, h in named_maps:
        m, memo = _as_transducer(h), {}
        for depth in (3, 4):
            outcome(lambda: orbit._cocycles(m, depth, memo))
        for node, value in memo.items():
            assert value == _last_mismatch(m, node, {}), (name, node)
        entries += len(memo)
    assert entries > 0
