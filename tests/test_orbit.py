import itertools
import random
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiteq import (
    BlockCode,
    CylinderFunction,
    InconsistentRoutes,
    OrbitCocyclePair,
    TooLarge,
    apply_map,
    aperiodic_point_with_prefix,
    block_to_transducer,
    build_shift_space,
    check_conjugacy,
    check_eventual_conjugacy,
    check_potential_identity,
    check_strong_coe,
    classify,
    combine,
    compile_block_code,
    compose_shift,
    constant,
    cylinder_family,
    enumerate_points,
    evaluate,
    find_transfer,
    identity_code,
    indicator,
    induced_potential,
    orbit,
    orbit_cocycles,
    out_split,
    pullback,
    shift_point,
    tables_equal,
    transfer_obstruction,
    verify_cocycles,
    verify_inverse_pair,
)
from orbiteq import functions, jsonio
from orbiteq.config import MAX_DEPTH, WORD_TABLE_LIMIT
from orbiteq.generators import random_shift_space, split_chain
from orbiteq.maps import _as_transducer

from conftest import (
    aligning_shifts,
    alignment_record,
    delay_line_json,
    expand_point,
    expansion_maps,
    random_tau,
    raw_expand,
    recoder_map,
)


def brute_minimal_pair(h, points, horizon=24, length=60):
    """Minimal constant (k, l) over the given points, by raw expansion.

    Independent of the library's alignment search: orbits are compared
    as long explicit symbol prefixes.
    """
    seqs = []
    for p in points:
        hp = expand_point(apply_map(h, p), length + horizon)
        hsp = expand_point(apply_map(h, shift_point(h.source, p)), length + horizon)
        seqs.append((hp, hsp))
    for l in range(horizon + 1):
        for k in range(horizon + 1):
            if all(hsp[k : k + length // 2] == hp[l : l + length // 2] for hp, hsp in seqs):
                return k, l
    return None


def pointwise_potential(h, kl, f, p):
    """The defining inclusive sums, evaluated directly at one point."""
    src, tgt = h.source, h.target
    k = kl.k.table[p.expand(kl.depth)]
    l = kl.l.table[p.expand(kl.depth)]
    pos = 0
    q = apply_map(h, p)
    for _ in range(l + 1):
        pos += evaluate(f, q)
        q = shift_point(tgt, q)
    neg = 0
    q = apply_map(h, shift_point(src, p))
    for _ in range(k + 1):
        neg += evaluate(f, q)
        q = shift_point(tgt, q)
    return pos - neg


# --- cocycles ----------------------------------------------------------------


def test_identity_cocycles_are_0_1(full2, cfg):
    ident = identity_code(full2)
    for depth in (1, 2, 4, 8):
        kl = orbit_cocycles(ident, depth)
        assert kl.k.is_constant(0) and kl.l.is_constant(1)


def test_conjugacy_cocycles_are_0_1(golden, cfg):
    _, code, inverse = out_split(golden, {1: [(1,), (2,)]})
    for h in (code, inverse):
        kl = orbit_cocycles(h, 2)
        assert kl.k.is_constant(0) and kl.l.is_constant(1)


def test_duplicator_cocycle_table(full2, duplicator, cfg):
    kl = orbit_cocycles(duplicator, 2)
    fam = cylinder_family(full2, 2, cfg)
    for w in full2.words(2):
        expected = brute_minimal_pair(duplicator, fam[w])
        assert expected == (kl.k.table[w], kl.l.table[w])
    # frozen values: aligned immediately on repeated symbols, one step
    # later otherwise
    assert kl.k.table == {(1, 1): 0, (1, 2): 1, (2, 1): 1, (2, 2): 0}
    assert kl.l.table == {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 1}


def test_recoder_cocycle_table(full2, recoder, cfg):
    kl = orbit_cocycles(recoder, 3)
    fam = cylinder_family(full2, 3, cfg)
    for w in full2.words(3):
        assert brute_minimal_pair(recoder, fam[w]) == (
            kl.k.table[w],
            kl.l.table[w],
        )
    assert kl.k.table == {w: int(w[2] == 2) for w in full2.words(3)}
    assert kl.l.table == {w: 1 + int(w[2] == 2) for w in full2.words(3)}


def test_cocycle_identity_reverifies(full2, recoder, duplicator, cfg):
    points = enumerate_points(full2, 3, 4)
    for h, depth in ((recoder, 3), (duplicator, 2)):
        kl = orbit_cocycles(h, depth)
        ok, wit = verify_cocycles(h, kl, points)
        assert ok, wit
        # one more shift on one side, on one cylinder, fails inside it
        for w, side in itertools.product(full2.words(depth), ("k", "l")):
            f = getattr(kl, side)
            bumped = CylinderFunction(full2, depth, {**f.table, w: f.table[w] + 1})
            wrong = OrbitCocyclePair(**{"k": kl.k, "l": kl.l, side: bumped})
            ok, wit = verify_cocycles(h, wrong, points)
            assert not ok and wit.expand(depth) == w, (w, side)
    for k, l in ((-1, 0), (0, -1)):  # no point shifts a negative number of times
        kl = OrbitCocyclePair(constant(full2, k), constant(full2, l))
        with pytest.raises(ValueError):
            verify_cocycles(recoder, kl, enumerate_points(full2, 0, 1))


def test_cocycles_nonnegative(full2, recoder, cfg):
    kl = orbit_cocycles(recoder, 3)
    assert kl.k.min() >= 0 and kl.l.min() >= 0


def test_aperiodic_representatives(full2, golden):
    for s in (full2, golden):
        for d in (1, 2, 4):
            for w in s.words(d):
                p = aperiodic_point_with_prefix(s, w)
                assert p.preperiod
                assert p.expand(d) == w


# --- induced potential -------------------------------------------------------


def test_conjugacy_induces_composition(full2, golden, swap2, cfg):
    cases = [(full2, identity_code(full2)), (full2, swap2)]
    sp, code, inverse = out_split(golden, {1: [(1,), (2,)]})
    cases += [(golden, code), (sp, inverse)]
    for src, h in cases:
        kl = orbit_cocycles(h, 2)
        for d in (1, 2, 3):
            for w in h.target.words(d):
                f = indicator(h.target, w)
                assert tables_equal(induced_potential(h, kl, f), pullback(f, h))


def test_constant_potential_reduction(full2, recoder, duplicator, cfg):
    for h, depth in ((recoder, 3), (duplicator, 2), (identity_code(full2), 1)):
        kl = orbit_cocycles(h, depth)
        for c in (1, -2, 5):
            got = induced_potential(h, kl, constant(full2, c))
            want = combine(c, kl.l, -c, kl.k)
            assert tables_equal(got, want)


def test_potential_additivity(full2, recoder, cfg):
    kl = orbit_cocycles(recoder, 3)
    f = indicator(full2, (1, 2))
    g = indicator(full2, (2,))
    for a, b in ((1, 1), (2, -1), (-3, 4)):
        lhs = induced_potential(recoder, kl, combine(a, f, b, g))
        rhs = combine(
            a,
            induced_potential(recoder, kl, f),
            b,
            induced_potential(recoder, kl, g),
        )
        assert tables_equal(lhs, rhs)


def test_potential_matches_pointwise_formula(full2, recoder, duplicator, cfg):
    # dual route: the exact table against raw inclusive sums at points
    for h, depth in ((recoder, 3), (duplicator, 2)):
        kl = orbit_cocycles(h, depth)
        for w in ((1,), (2, 1), (1, 2, 2)):
            f = indicator(full2, w)
            table = induced_potential(h, kl, f)
            for p in enumerate_points(full2, 2, 3):
                assert evaluate(table, p) == pointwise_potential(h, kl, f, p)


def test_potential_identity_conjugacy_true(full2, golden, swap2, cfg):
    sp, code, inverse = out_split(golden, {1: [(1,), (2,)]})
    for h in (identity_code(full2), swap2, code, inverse):
        kl = orbit_cocycles(h, 2)
        for depth in (1, 2, 4, 6):
            ok, wit = check_potential_identity(h, kl, depth)
            assert ok, (h, depth, wit)


@pytest.mark.parametrize("depth", [0, -1])
def test_potential_identity_rejects_depths_below_one(recoder, depth):
    # at depth 0 every window is the empty word, so it used to pass vacuously
    kl = orbit_cocycles(recoder, 3)
    with pytest.raises(ValueError, match="at least 1"):
        check_potential_identity(recoder, kl, depth)


def test_potential_identity_recoder_false_with_witness(full2, recoder, cfg):
    kl = orbit_cocycles(recoder, 3)
    ok, witness = check_potential_identity(recoder, kl, 2)
    assert not ok and witness is not None
    # the witness indicator fails pointwise at some family point
    f = indicator(full2, witness)
    bad = [
        p
        for p in enumerate_points(full2, 3, 4)
        if pointwise_potential(recoder, kl, f, p)
        != evaluate(pullback(f, recoder), p)
    ]
    assert bad


def test_depth1_constant_decomposition(full2, recoder, cfg):
    # f == 1 decomposed into depth-1 indicators gives l - k
    kl = orbit_cocycles(recoder, 3)
    total = constant(full2, 0)
    for a in (1, 2):
        total = combine(
            1, total, 1, induced_potential(recoder, kl, indicator(full2, (a,)))
        )
    assert tables_equal(total, kl.difference())


def test_remark_symmetry_between_parameterizations(full2, recoder, swap2, cfg):
    # quantifying over target indicators is the same as quantifying over
    # source indicators composed with the inverse
    for h, h_inv, expect in ((swap2, swap2, True), (recoder, recoder, False)):
        kl = orbit_cocycles(h, 3)
        forward, _ = check_potential_identity(h, kl, 2)
        dual_ok = True
        for d in (1, 2):
            for w in h.source.words(d):
                f = pullback(indicator(h.source, w), h_inv)
                lhs = induced_potential(h, kl, f)
                if not tables_equal(lhs, pullback(f, h)):
                    dual_ok = False
        assert forward is expect and dual_ok is expect


# --- ladder checks -----------------------------------------------------------


def test_check_conjugacy(full2, swap2, duplicator, cfg):
    assert check_conjugacy(identity_code(full2))[0]
    assert check_conjugacy(swap2)[0]
    ok, wit = check_conjugacy(duplicator)
    assert not ok and wit is not None
    # re-verify the witness by hand
    lhs = apply_map(duplicator, shift_point(full2, wit))
    rhs = shift_point(full2, apply_map(duplicator, wit))
    assert lhs != rhs


def test_check_eventual_conjugacy_monotone(full2, swap2, cfg):
    for k in (0, 1, 3):
        assert check_eventual_conjugacy(swap2, swap2, k)[0]


def test_recoder_eventual_lag_one(full2, recoder, cfg):
    assert not check_eventual_conjugacy(recoder, recoder, 0)[0]
    assert check_eventual_conjugacy(recoder, recoder, 1)[0]
    assert check_eventual_conjugacy(recoder, recoder, 2)[0]


def test_strong_coe_constants(full2, swap2, recoder, cfg):
    kl = orbit_cocycles(swap2, 3)
    res = check_strong_coe(swap2, swap2, kl, kl)
    assert res is not None and res[0].is_constant() and res[1].is_constant()
    kl = orbit_cocycles(recoder, 3)
    res = check_strong_coe(recoder, recoder, kl, kl)
    assert res is not None and res[0].is_constant() and res[1].is_constant()


def test_strong_coe_reverifies(full2, recoder, cfg):
    kl1 = orbit_cocycles(recoder, 3)
    kl2 = orbit_cocycles(recoder, 3)
    b1, b2 = check_strong_coe(recoder, recoder, kl1, kl2)
    lhs = combine(1, constant(full2, 1), 1, combine(1, b1, -1, compose_shift(b1)))
    assert tables_equal(lhs, kl1.difference())


def test_strong_coe_is_none_when_only_the_backward_direction_fails(full2, golden):
    # the identity admits a transfer, the committed golden map does not:
    # the forward solve passes and the backward one refuses
    path = Path(__file__).resolve().parents[1] / "bench/inputs/golden-map.json"
    golden_map = jsonio.map_from_json(full2, golden, jsonio.load_file(path))
    ident = identity_code(full2)
    assert find_transfer(full2, orbit_cocycles(ident, 3).difference(), 1) is not None
    kl = orbit_cocycles(golden_map, 3)
    assert transfer_obstruction(full2, kl.difference(), 1) is not None
    assert check_strong_coe(ident, golden_map, orbit_cocycles(ident, 3), kl) is None


@pytest.mark.parametrize(
    "n,expand", [(2, {2: 1}), (2, {1: 2}), (3, {2: 1, 3: 1}), (4, {1: 3, 4: 2})]
)
def test_expansion_coe_note_names_periodic_obstruction(n, expand, cfg):
    h, h_inv = expansion_maps(n, expand)
    v = classify(h, h_inv, cfg)
    assert (v.kind, v.transfers) == ("COE", None)
    m = re.fullmatch(
        r"no strong orbit equivalence transfer exists: (forward|backward) "
        r"l - k - 1 sums to (-?\d+) over the cycle ([\d,]+)",
        v.note,
    )
    assert m is not None, v.note
    i = ("forward", "backward").index(m[1])
    diffs = [kl.difference() for kl in v.cocycles]
    assert all(find_transfer(d.space, d, 1) is not None for d in diffs[:i])
    p, s = transfer_obstruction(diffs[i].space, diffs[i], 1)
    assert (int(m[2]), m[3]) == (s, ",".join(map(str, p.cycle)))
    # the sum re-checks on the raw periodic sequence
    g, period = diffs[i], len(p.cycle)
    seq = raw_expand((), p.cycle, period + g.depth)
    assert s == sum(g.table[seq[j : j + g.depth]] - 1 for j in range(period)) != 0


# --- classification ----------------------------------------------------------


def test_classify_identity_and_swap(full2, swap2, cfg):
    ident = identity_code(full2)
    assert classify(ident, ident, cfg).kind == "Conjugacy"
    v = classify(swap2, swap2, cfg)
    assert v.kind == "Conjugacy"
    assert v.cocycles[0].k.is_constant(0)


def test_classify_out_split_pair(golden, cfg):
    sp, code, inverse = out_split(golden, {1: [(1,), (2,)]})
    assert verify_inverse_pair(code, inverse)[0]
    v = classify(code, inverse, cfg)
    assert v.kind == "Conjugacy"


def test_classify_recoder(full2, recoder, cfg):
    assert verify_inverse_pair(recoder, recoder)[0]
    v = classify(recoder, recoder, cfg)
    assert v.kind == "EventualConjugacy"
    assert v.lag == 1
    assert v.witness is not None  # the failing indicator word
    # carried cocycles re-verify
    ok, _ = verify_cocycles(recoder, v.cocycles[0], enumerate_points(full2, 3, 4))
    assert ok


def test_closed_form_alignment_matches_shift_point():
    """``k in aligning_shifts(alignment_record(a, b), l, 12)`` exactly
    when ``sigma^l a = sigma^k b``, over all pairs of enumerated points:
    the closed-form oracle of ``tests/test_square_cocycles.py`` against
    ``shift_point``."""
    rng = random.Random(20261018)
    top = 12
    kinds = Counter()
    for n in (2, 3, 4):
        s = random_shift_space(rng, n)
        pts = enumerate_points(s, 2, 3)
        shifts = {p: [shift_point(s, p, i) for i in range(top + 1)] for p in pts}
        at = {}  # at[b][q] = the k <= top with sigma^k b = q
        for b in pts:
            for k, q in enumerate(shifts[b]):
                at.setdefault(b, {}).setdefault(q, set()).add(k)
        for a, b in itertools.product(pts, repeat=2):
            rec = alignment_record(a, b)
            for l in range(top + 1):
                sols = aligning_shifts(rec, l, top)
                assert set(sols) == at[b].get(shifts[a][l], set()), (a, b, l)
                if a != b and l < len(a.preperiod) and sols:
                    kinds["aligned inside the preperiods"] += 1
            ca, cb = a.cycle, b.cycle
            if len(ca) != len(cb):
                kinds["unequal cycle lengths"] += 1
            elif ca != cb and cb in {ca[i:] + ca[:i] for i in range(len(ca))}:
                kinds["rotated cycles"] += 1
    assert len(kinds) == 3, kinds


# --- certification depth against the word walk -------------------------------


def word_walk_depth(h, kl, need):
    """The certification depth by its definition: the least depth at which
    every word's output prefix, and its shift's, covers ``need`` symbols
    past the cocycle bound, walking the word tables (which keep their cap)."""
    c = kl.depth
    for d in range(max(c, 2), MAX_DEPTH + 1):
        if all(
            len(h.output_prefix(w)) >= kl.l.table[w[:c]] + need
            and len(h.output_prefix(w[1:])) >= kl.k.table[w[:c]] + need
            for w in h.source.words(d)
        ):
            return d
    raise TooLarge(f"potential not certifiable within depth cap {MAX_DEPTH}")


def depth_outcome(find, h, kl, need):
    """The depth ``find`` returns, or the type and message of the cap error
    it raises (which tell the depth cap from the word-table cap)."""
    try:
        return find(h, kl, need)
    except TooLarge as e:
        return type(e), str(e)


def _transducer_maps(codes=False):
    """Recoders, symbol expansions and split codes with their inverses; the
    split codes as :class:`BlockCode` objects when ``codes``, else through
    :func:`block_to_transducer`."""
    rng = random.Random(20261018)
    for i in range(4):
        space = random_shift_space(rng, 3)
        tau = random_tau(rng, space)
        yield f"recoder-{i}", recoder_map(space, tau)
        yield f"recoder-{i}-inverse", recoder_map(
            space, {b: {v: a for a, v in t.items()} for b, t in tau.items()}
        )
    for n, expand in ((2, {1: 2}), (3, {2: 1, 3: 1}), (4, {1: 3, 4: 2})):
        h, h_inv = expansion_maps(n, expand)
        yield f"expansion-{n}", h
        yield f"expansion-{n}-inverse", h_inv
    for i in range(2):
        base = random_shift_space(rng, 2)
        _, code, inverse = split_chain(rng, base, max_splits=2)
        for name, c in ((f"split-{i}", code), (f"split-{i}-inverse", inverse)):
            yield name, c if codes else block_to_transducer(c)


SPLIT_CODES = [
    (f"{name}-code", h) for name, h in _transducer_maps(True) if isinstance(h, BlockCode)
]


@pytest.mark.parametrize("name,h", list(_transducer_maps()) + SPLIT_CODES)
def test_certification_depth_matches_word_walk(name, h, cfg):
    kl = orbit_cocycles(h, 3)
    for need in range(1, 9):
        got = depth_outcome(orbit._certification_depth, _as_transducer(h), kl, need)
        assert got == depth_outcome(word_walk_depth, h, kl, need), (name, need)
        if name == "expansion-4-inverse" and need == 8:
            assert got[0] is TooLarge and got[1].startswith("word table at depth")


@st.composite
def recoders_with_bounds(draw):
    """A first-symbol recoder on a small space (the cycle ``1 -> ... -> n
    -> 1`` and the loop at 1 keep it valid) and arbitrary bounds ``k, l``."""
    n = draw(st.integers(2, 3))
    rows = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1
    rows[0][0] = 1
    space = build_shift_space(rows)
    tau = {}
    for b in range(1, n + 1):
        pred = [a for a in range(1, n + 1) if space.matrix.allows(a, b)]
        tau[b] = dict(zip(pred, draw(st.permutations(pred))))
    c = draw(st.integers(1, 3))
    words = space.words(c)
    k, l = (
        CylinderFunction(space, c, {w: draw(st.integers(0, 3)) for w in words})
        for _ in range(2)
    )
    return recoder_map(space, tau), OrbitCocyclePair(k, l)


@settings(max_examples=60, deadline=None)
@given(recoders_with_bounds(), st.integers(1, 4))
def test_certification_depth_property(map_and_bounds, need):
    h, kl = map_and_bounds
    assert depth_outcome(orbit._certification_depth, h, kl, need) == depth_outcome(
        word_walk_depth, h, kl, need
    )


def test_certification_depth_cap_on_a_long_delay_line(golden):
    # 25 silent inputs before the copy starts: the golden mean's word counts
    # stay under the word-table cap through the depth cap, so the depth cap
    # is what stops the search
    h = jsonio.map_from_json(golden, golden, delay_line_json(25))
    assert len(h.states) == 26 and golden.word_count(MAX_DEPTH) <= WORD_TABLE_LIMIT
    kl = OrbitCocyclePair(constant(golden, 0), constant(golden, 1))
    message = f"^potential not certifiable within depth cap {MAX_DEPTH}$"
    for need in (1, 2):
        with pytest.raises(TooLarge, match=message):
            orbit._certification_depth(h, kl, need)
    with pytest.raises(TooLarge, match=message):
        induced_potential(h, kl, indicator(golden, (1,)))


@pytest.mark.parametrize("name,h", list(_transducer_maps()))
def test_pullback_stops_within_the_certification_depth(name, h):
    # every word of the certified depth emits at least f.depth symbols, so
    # the composition with the map is determined at no greater depth
    kl = orbit_cocycles(h, 3)
    for d in (1, 2, 3):
        for w in h.target.words(d):
            f = indicator(h.target, w)
            g = induced_potential(h, kl, f)
            assert pullback(f, h).depth <= g.depth, (name, w)


# --- the potential identity runs only where it can decide --------------------


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_classify_skips_potential_identity_without_lag(monkeypatch, recoder, cfg):
    h, h_inv = expansion_maps(3, {2: 1, 3: 1})
    kl1 = orbit_cocycles(h, 3)
    kl2 = orbit_cocycles(h_inv, 3)
    _, direct_wit = check_conjugacy(h)
    assert apply_map(h, shift_point(h.source, direct_wit)) != shift_point(
        h.target, apply_map(h, direct_wit)
    )
    calls = _count_calls(monkeypatch, orbit, "check_potential_identity")
    v = classify(h, h_inv, cfg)
    assert calls == []
    assert (v.kind, v.lag, v.witness) == ("COE", None, direct_wit)
    assert [(kl.k.table, kl.l.table) for kl in v.cocycles] == [
        (kl.k.table, kl.l.table) for kl in (kl1, kl2)
    ]
    # with a lag the identity decides, so it runs
    assert classify(recoder, recoder, cfg).kind == "EventualConjugacy"
    assert len(calls) == 1


@pytest.mark.parametrize(
    "n,expand", [(2, {2: 1}), (2, {1: 2}), (3, {2: 1, 3: 1}), (4, {1: 3, 4: 2})]
)
def test_coe_obstruction_reads_the_differences_classify_built(
    monkeypatch, n, expand, cfg
):
    # each direction reached builds l - k once for classify's eventual test
    # or obstruction search and once in check_strong_coe, and its graph is
    # solved once by find_transfer and once by transfer_obstruction
    h, h_inv = expansion_maps(n, expand)
    plain = classify(h, h_inv, cfg)
    diffs = _count_calls(monkeypatch, OrbitCocyclePair, "difference")
    solves = _count_calls(monkeypatch, functions, "_solve_transfer")
    v = classify(h, h_inv, cfg)
    assert v == plain and v.kind == "COE"
    reached = 1 + v.note.startswith(
        "no strong orbit equivalence transfer exists: backward"
    )
    assert (len(diffs), len(solves)) == (2 * reached, 2 * reached)


def test_direct_conjugacy_without_lag_is_inconsistent(monkeypatch, cfg):
    # the cocycles of this expansion give no lag, so the theorem route fails
    h, h_inv = expansion_maps(3, {2: 1, 3: 1})
    monkeypatch.setattr(orbit, "_intertwining_witness", lambda m, k: None)
    with pytest.raises(InconsistentRoutes):
        classify(h, h_inv, cfg)


def test_direct_conjugacy_against_failed_identity_is_inconsistent(
    monkeypatch, recoder, cfg
):
    # the recoder has a lag, and its potential identity fails
    monkeypatch.setattr(orbit, "_intertwining_witness", lambda m, k: None)
    with pytest.raises(InconsistentRoutes):
        classify(recoder, recoder, cfg)


def test_block_code_identity_builds_no_word_table():
    # a 33-cycle with one loop and a window-4 code: with cocycles (0, 1) the
    # runs on w and w[1:] settle at length 4, so the walk reaches no leaf,
    # builds no table longer than the ones already built and no lookup
    # table over 34**4 entries
    n = 33
    space = build_shift_space(
        [[int(j == (i + 1) % n or i == j == 0) for j in range(n)] for i in range(n)]
    )
    code = compile_block_code(space, space, 4, {w: w[0] for w in space.words(4)})
    words = space.words(1)
    built = max(space._words)
    kl = OrbitCocyclePair(
        CylinderFunction(space, 1, dict.fromkeys(words, 0)),
        CylinderFunction(space, 1, dict.fromkeys(words, 1)),
    )
    tracemalloc.start()
    try:
        assert check_potential_identity(code, kl, 1) == (True, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert max(space._words) == built


@pytest.fixture(scope="module")
def identity_oracle_codes(swap2, xor2):
    """``swap2``, ``xor2`` and two seeded split chains with their inverses."""
    rng = random.Random(20261019)
    codes = [swap2, xor2]
    for _ in range(2):
        _, code, inverse = split_chain(rng, random_shift_space(rng, 2), max_splits=2)
        codes += [code, inverse]
    return codes


@st.composite
def cocycle_pairs(draw, space):
    """A hand-built pair on ``space``: constant ``(k, l)`` of ``(0, 1)``,
    ``(1, 2)``, ``(0, 2)`` or ``(1, 1)``, or ``k`` and ``l - k`` drawn per
    cylinder."""
    c = draw(st.integers(1, 2))
    words = space.words(c)
    shape = draw(st.sampled_from([(0, 1), (1, 2), (0, 2), (1, 1), "per cylinder"]))
    if shape == "per cylinder":
        k = {w: draw(st.integers(0, 1)) for w in words}
        l = {w: k[w] + draw(st.sampled_from((1, 0, 2))) for w in words}
    else:
        k, l = dict.fromkeys(words, shape[0]), dict.fromkeys(words, shape[1])
    return OrbitCocyclePair(CylinderFunction(space, c, k), CylinderFunction(space, c, l))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_code_identity_matches_transducer_path(identity_oracle_codes, data):
    h = data.draw(st.sampled_from(identity_oracle_codes))
    kl = data.draw(cocycle_pairs(h.source))
    # a block code and its transducer presentation give the same verdict and
    # the same first failing word at every depth
    general = block_to_transducer(h)
    for depth in (1, 2, 3):
        ok, wit = check_potential_identity(h, kl, depth)
        ok_general, wit_general = check_potential_identity(general, kl, depth)
        assert ok == ok_general, depth
        assert wit == wit_general, depth
        if not ok:
            assert wit is not None


# --- the depth-first walk against the word-table loops -----------------------


def table_identity(h, kl, depth):
    """:func:`check_potential_identity` as it was written over the word
    table of the certified depth: the oracle for the depth-first walk."""
    d = orbit._certification_depth(_as_transducer(h), kl, depth)
    for w in h.source.words(d):
        k = kl.k.table[w[: kl.depth]]
        l = kl.l.table[w[: kl.depth]]
        out = h.output_prefix(w)
        out_s = h.output_prefix(w[1:])
        c = Counter(out[i : i + depth] for i in range(l + 1))
        c.subtract(out_s[j : j + depth] for j in range(k + 1))
        c[out[:depth]] -= 1
        for v, mult in c.items():
            if mult != 0:
                return False, v
    return True, None


def table_potential(h, kl, f):
    """:func:`induced_potential` as it was written over the word table."""
    d = orbit._certification_depth(_as_transducer(h), kl, f.depth)
    src = h.source
    df = f.depth
    table = {}
    for w in src.words(d):
        k = kl.k.table[w[: kl.depth]]
        l = kl.l.table[w[: kl.depth]]
        out = h.output_prefix(w)
        out_s = h.output_prefix(w[1:])
        pos = sum(f.table[out[i : i + df]] for i in range(l + 1))
        neg = sum(f.table[out_s[j : j + df]] for j in range(k + 1))
        table[w] = pos - neg
    return CylinderFunction(src, d, table)


def identity_and_potential(identity, induce, h, kl, f):
    """What ``identity`` says at depths 1..3, then the depth and the items,
    in order, of what ``induce`` gives for ``f``; each outcome is the cap
    error's type and message when one is raised."""

    def items(h, kl, f):
        g = induce(h, kl, f)
        return g.depth, list(g.table.items())

    outcomes = [depth_outcome(identity, h, kl, d) for d in (1, 2, 3)]
    return outcomes + [depth_outcome(items, h, kl, f)]


def assert_walk_matches_tables(h, kl, f):
    walk = identity_and_potential(check_potential_identity, induced_potential, h, kl, f)
    assert walk == identity_and_potential(table_identity, table_potential, h, kl, f)
    return walk


@st.composite
def target_functions(draw, space):
    c = draw(st.integers(1, 2))
    return CylinderFunction(
        space, c, {w: draw(st.integers(-2, 2)) for w in space.words(c)}
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_potential_walk_matches_tables_on_recoders(data):
    h, kl = data.draw(recoders_with_bounds())
    assert_walk_matches_tables(h, kl, data.draw(target_functions(h.target)))


@pytest.mark.parametrize("name,h", list(_transducer_maps()))
def test_potential_walk_matches_tables_on_ladder_maps(name, h):
    kl = orbit_cocycles(h, 3)
    rng = random.Random(name)
    f = CylinderFunction(
        h.target, 2, {w: rng.randint(-2, 2) for w in h.target.words(2)}
    )
    assert_walk_matches_tables(h, kl, f)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_potential_walk_matches_tables_on_block_codes(identity_oracle_codes, data):
    # a block code takes the walk of its transducer presentation, and a
    # shift-commuting map passes the identity exactly where l - k = 1
    h = data.draw(st.sampled_from(identity_oracle_codes))
    kl = data.draw(cocycle_pairs(h.source))
    f = data.draw(target_functions(h.target))
    walk = assert_walk_matches_tables(h, kl, f)
    general = block_to_transducer(h)
    assert walk == identity_and_potential(
        check_potential_identity, induced_potential, general, kl, f
    )
    assert walk[0][0] is kl.difference().is_constant(1)


@pytest.mark.parametrize("name,h", list(_transducer_maps()))
def test_potential_walk_matches_tables_at_the_classify_depth(name, h):
    # classify checks the identity at depth 8, where settled subtrees are
    # skipped far more often than at depths 1..3
    kl = orbit_cocycles(h, 3)
    got = depth_outcome(check_potential_identity, h, kl, 8)
    assert got == depth_outcome(table_identity, h, kl, 8), name


@pytest.mark.parametrize("p", [4, 5])
def test_late_recoder_is_not_skipped_before_its_runs_meet(full2, cfg, p):
    # on [x1 .. x_{p-1}] the runs on w and w[1:] emit x2 .. x_{p-1} alike
    # but are in different states, so the walk may not skip that subtree:
    # the recoded p-th symbol below it fails the identity
    h = recoder_map(full2, {b: {1: 2, 2: 1} for b in (1, 2)}, p)
    kl = orbit_cocycles(h, 3)
    for depth in (1, 2, 3, 8):
        got = depth_outcome(check_potential_identity, h, kl, depth)
        assert got == depth_outcome(table_identity, h, kl, depth), depth
    v = classify(h, h, cfg)
    assert (v.kind, v.lag) == ("EventualConjugacy", p)


def dense4():
    return build_shift_space(
        [[1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1], [1, 1, 1, 1]]
    )


def identity_tau(space):
    """``tau[b]`` fixing every predecessor of ``b``: the recoder is the identity."""
    symbols = range(1, space.n + 1)
    return {b: {a: a for a in symbols if space.matrix.allows(a, b)} for b in symbols}


def test_potential_identity_skips_settled_subtrees(monkeypatch):
    # the identity-tau recoder's runs on w and w[1:] meet in "copy" at
    # depth 3 and emit the same stream from there: of the 46,328 words of
    # the certified depth 9 the walk reaches none.  The seed-43 recoder
    # fails on its first word, as before
    leaves = []
    runs = orbit._runs

    def counted(*args, **kwargs):
        for leaf in runs(*args, **kwargs):
            leaves.append(leaf[0])
            yield leaf

    monkeypatch.setattr(orbit, "_runs", counted)
    space = dense4()
    h = recoder_map(space, identity_tau(space))
    kl = orbit_cocycles(h, 3)
    assert orbit._certification_depth(h, kl, 8) == 9
    assert check_potential_identity(h, kl, 8) == (True, None)
    assert leaves == []
    h = recoder_map(space, random_tau(random.Random(43), space))
    kl = orbit_cocycles(h, 3)
    assert check_potential_identity(h, kl, 8) == (False, (3, 1, 1, 1, 1, 1, 1, 1))
    assert len(leaves) == 1


def test_potential_identity_keeps_the_word_table_cap_when_it_skips():
    # the identity-tau recoder on the full 5-shift would visit no leaf,
    # but its certified depth has 5^9 words, past the cap, so the identity
    # stays undecided as it is over the word table
    full5 = build_shift_space([[1] * 5] * 5)
    h = recoder_map(full5, identity_tau(full5))
    kl = orbit_cocycles(h, 3)
    cap = (TooLarge, "word table at depth 9 too large")
    assert depth_outcome(check_potential_identity, h, kl, 8) == cap
    assert depth_outcome(table_identity, h, kl, 8) == cap


def test_potential_identity_builds_no_deep_word_table():
    # a dense 4-state recoder certifies its identity at depth 10, 148,913
    # words; the walk stops at the first failing word and builds no table
    space = dense4()
    h = recoder_map(space, random_tau(random.Random(43), space))
    kl = orbit_cocycles(h, 3)
    assert orbit._certification_depth(h, kl, 8) == 10
    tracemalloc.start()
    try:
        ok, wit = check_potential_identity(h, kl, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ok is False and len(wit) == 8
    assert max(space._words) == 3
    assert peak < 2**20


def test_potential_walk_keeps_the_word_table_cap_on_block_codes():
    # a window-2 code on the full 16-shift with constant (k, l) = (1, 3)
    # certifies at depth 5 or more, and 16^5 words pass the cap: the walk
    # raises the table's error before it visits a word
    full16 = build_shift_space([[1] * 16] * 16)
    h = compile_block_code(full16, full16, 2, {w: w[0] for w in full16.words(2)})
    kl = OrbitCocyclePair(constant(full16, 1, 2), constant(full16, 3, 2))
    f = indicator(full16, (1,))
    walk = identity_and_potential(check_potential_identity, induced_potential, h, kl, f)
    assert walk == [(TooLarge, "word table at depth 5 too large")] * 4
    assert max(full16._words) == 2  # compile_block_code builds no 3-words
    assert walk == identity_and_potential(table_identity, table_potential, h, kl, f)
