import itertools
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiteq import (
    CylinderFunction,
    InconsistentRoutes,
    OrbitCocyclePair,
    PreconditionFailed,
    SegmentReduction,
    TooLarge,
    apply_map,
    aperiodic_point_with_prefix,
    block_to_transducer,
    build_shift_space,
    canonical_point,
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
    reduce_orbit_segments,
    shift_point,
    tables_equal,
    transfer_obstruction,
    verify_cocycles,
    verify_inverse_pair,
)
from orbiteq.config import MAX_DEPTH
from orbiteq.generators import random_shift_space, split_chain

from conftest import (
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
        kl = orbit_cocycles(ident, depth, cfg)
        assert kl.k.is_constant(0) and kl.l.is_constant(1)


def test_conjugacy_cocycles_are_0_1(golden, cfg):
    _, code, inverse = out_split(golden, {1: [(1,), (2,)]})
    for h in (code, inverse):
        kl = orbit_cocycles(h, 2, cfg)
        assert kl.k.is_constant(0) and kl.l.is_constant(1)


def test_duplicator_cocycle_table(full2, duplicator, cfg):
    kl = orbit_cocycles(duplicator, 2, cfg)
    fam = cylinder_family(full2, 2, cfg)
    for w in full2.words(2):
        expected = brute_minimal_pair(duplicator, fam[w])
        assert expected == (kl.k.table[w], kl.l.table[w])
    # frozen values: aligned immediately on repeated symbols, one step
    # later otherwise
    assert kl.k.table == {(1, 1): 0, (1, 2): 1, (2, 1): 1, (2, 2): 0}
    assert kl.l.table == {(1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 1}


def test_recoder_cocycle_table(full2, recoder, cfg):
    kl = orbit_cocycles(recoder, 3, cfg)
    fam = cylinder_family(full2, 3, cfg)
    for w in full2.words(3):
        assert brute_minimal_pair(recoder, fam[w]) == (
            kl.k.table[w],
            kl.l.table[w],
        )
    assert kl.k.table == {w: int(w[2] == 2) for w in full2.words(3)}
    assert kl.l.table == {w: 1 + int(w[2] == 2) for w in full2.words(3)}


def test_cocycle_identity_reverifies(full2, recoder, duplicator, cfg):
    for h, depth in ((recoder, 3), (duplicator, 2)):
        kl = orbit_cocycles(h, depth, cfg)
        ok, wit = verify_cocycles(h, kl, enumerate_points(full2, 3, 4))
        assert ok, wit
    for k, l in ((-1, 0), (0, -1)):  # no point shifts a negative number of times
        kl = OrbitCocyclePair(constant(full2, k), constant(full2, l))
        with pytest.raises(ValueError):
            verify_cocycles(recoder, kl, enumerate_points(full2, 0, 1))


def test_cocycles_nonnegative(full2, recoder, cfg):
    kl = orbit_cocycles(recoder, 3, cfg)
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
        kl = orbit_cocycles(h, 2, cfg)
        for d in (1, 2, 3):
            for w in h.target.words(d):
                f = indicator(h.target, w)
                assert tables_equal(induced_potential(h, kl, f), pullback(f, h))


def test_constant_potential_reduction(full2, recoder, duplicator, cfg):
    for h, depth in ((recoder, 3), (duplicator, 2), (identity_code(full2), 1)):
        kl = orbit_cocycles(h, depth, cfg)
        for c in (1, -2, 5):
            got = induced_potential(h, kl, constant(full2, c))
            want = combine(c, kl.l, -c, kl.k)
            assert tables_equal(got, want)


def test_potential_additivity(full2, recoder, cfg):
    kl = orbit_cocycles(recoder, 3, cfg)
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
        kl = orbit_cocycles(h, depth, cfg)
        for w in ((1,), (2, 1), (1, 2, 2)):
            f = indicator(full2, w)
            table = induced_potential(h, kl, f)
            for p in enumerate_points(full2, 2, 3):
                assert evaluate(table, p) == pointwise_potential(h, kl, f, p)


def test_potential_identity_conjugacy_true(full2, golden, swap2, cfg):
    sp, code, inverse = out_split(golden, {1: [(1,), (2,)]})
    for h in (identity_code(full2), swap2, code, inverse):
        kl = orbit_cocycles(h, 2, cfg)
        for depth in (1, 2, 4, 6):
            ok, wit = check_potential_identity(h, kl, depth)
            assert ok, (h, depth, wit)


def test_potential_identity_recoder_false_with_witness(full2, recoder, cfg):
    kl = orbit_cocycles(recoder, 3, cfg)
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
    kl = orbit_cocycles(recoder, 3, cfg)
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
        kl = orbit_cocycles(h, 3, cfg)
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
    assert check_conjugacy(identity_code(full2), cfg)[0]
    assert check_conjugacy(swap2, cfg)[0]
    ok, wit = check_conjugacy(duplicator, cfg, depth=2)
    assert not ok and wit is not None
    # re-verify the witness by hand
    lhs = apply_map(duplicator, shift_point(full2, wit))
    rhs = shift_point(full2, apply_map(duplicator, wit))
    assert lhs != rhs


def test_check_eventual_conjugacy_monotone(full2, swap2, cfg):
    for k in (0, 1, 3):
        assert check_eventual_conjugacy(swap2, swap2, k, cfg)[0]


def test_recoder_eventual_lag_one(full2, recoder, cfg):
    assert not check_eventual_conjugacy(recoder, recoder, 0, cfg)[0]
    assert check_eventual_conjugacy(recoder, recoder, 1, cfg)[0]
    assert check_eventual_conjugacy(recoder, recoder, 2, cfg)[0]


def test_strong_coe_constants(full2, swap2, recoder, cfg):
    res = check_strong_coe(swap2, swap2, cfg)
    assert res is not None and res[0].is_constant() and res[1].is_constant()
    res = check_strong_coe(recoder, recoder, cfg)
    assert res is not None and res[0].is_constant() and res[1].is_constant()


def test_strong_coe_reverifies(full2, recoder, cfg):
    kl1 = orbit_cocycles(recoder, 3, cfg)
    kl2 = orbit_cocycles(recoder, 3, cfg)
    b1, b2 = check_strong_coe(recoder, recoder, cfg, kl1, kl2)
    lhs = combine(1, constant(full2, 1), 1, combine(1, b1, -1, compose_shift(b1)))
    assert tables_equal(lhs, kl1.difference())


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


# --- segment reduction -------------------------------------------------------


def test_reduce_singleton(full2):
    y = canonical_point(full2, (), (1,))
    assert reduce_orbit_segments(full2, 1, y, y) == SegmentReduction(True, None)


def test_reduce_k0(full2):
    y = canonical_point(full2, (), (1, 2))
    assert reduce_orbit_segments(full2, 0, y, y).equal
    with pytest.raises(PreconditionFailed):
        reduce_orbit_segments(full2, 0, y, shift_point(full2, y))


def test_reduce_two_cycle(full2):
    y = canonical_point(full2, (), (1, 2))
    w = canonical_point(full2, (), (2, 1))
    out = reduce_orbit_segments(full2, 2, y, w)
    assert out == SegmentReduction(False, 2)
    # verified period
    q = y
    for _ in range(2):
        q = shift_point(full2, q)
    assert q == y


def test_reduce_precondition_failed(full2):
    y = canonical_point(full2, (), (1, 2))
    w = canonical_point(full2, (), (1,))
    with pytest.raises(PreconditionFailed):
        reduce_orbit_segments(full2, 2, y, w)


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
    """``k in _solutions(_record(a, b), l, 12)`` exactly when
    ``sigma^l a = sigma^k b``, over all pairs of enumerated points."""
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
            rec = orbit._record(a, b)
            for l in range(top + 1):
                sols = orbit._solutions(rec, l, top)
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


def _transducer_maps():
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
        yield f"split-{i}", block_to_transducer(code)
        yield f"split-{i}-inverse", block_to_transducer(inverse)


@pytest.mark.parametrize("name,h", list(_transducer_maps()))
def test_certification_depth_matches_word_walk(name, h, cfg):
    kl = orbit_cocycles(h, 3, cfg)
    for need in range(1, 9):
        got = depth_outcome(orbit._certification_depth, h, kl, need)
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
    kl1 = orbit_cocycles(h, 3, cfg)
    kl2 = orbit_cocycles(h_inv, 3, cfg)
    _, direct_wit = check_conjugacy(h, cfg, depth=3)
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


def test_direct_conjugacy_without_lag_is_inconsistent(monkeypatch, cfg):
    h, h_inv = expansion_maps(3, {2: 1, 3: 1})
    align = orbit._align

    def direct_without_lag(*args):
        kl1, kl2, _, _ = align(*args)
        return kl1, kl2, None, None

    monkeypatch.setattr(orbit, "_align", direct_without_lag)
    with pytest.raises(InconsistentRoutes):
        classify(h, h_inv, cfg)


def test_direct_conjugacy_against_failed_identity_is_inconsistent(
    monkeypatch, recoder, cfg
):
    align = orbit._align

    def direct_with_lag(*args):
        kl1, kl2, _, lag = align(*args)
        return kl1, kl2, None, lag

    monkeypatch.setattr(orbit, "_align", direct_with_lag)
    with pytest.raises(InconsistentRoutes):
        classify(recoder, recoder, cfg)


def test_block_code_identity_builds_no_word_table():
    # a 33-cycle with one loop and a window-4 code: with cocycles (0, 1) the
    # identity is decided from the cocycles alone, so no table longer than
    # the ones already built and no lookup table over 34**4 entries
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


# --- the block-code potential identity against the transducer path ----------


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
    # the transducer presentation runs the general multiset comparison
    general = block_to_transducer(h)
    for depth in (1, 2, 3):
        ok, wit = check_potential_identity(h, kl, depth)
        ok_general, wit_general = check_potential_identity(general, kl, depth)
        assert ok == ok_general, depth
        if not ok:
            assert wit is not None and wit_general is not None
