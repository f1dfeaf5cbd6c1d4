import copy
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiteq import (
    BlockCode,
    ImageInadmissible,
    InadmissibleWord,
    NotTotal,
    Point,
    PreconditionFailed,
    ShiftSpace,
    StallingCycle,
    TooLarge,
    apply_map,
    block_to_transducer,
    build_shift_space,
    canonical_point,
    classify,
    compile_block_code,
    compose_block_codes,
    enumerate_points,
    identity_code,
    indicator,
    pullback,
    random_shift_space,
    shift_point,
    tables_equal,
    transducer,
    verify_inverse_pair,
)

from orbiteq import jsonio, maps, shifts
from orbiteq.generators import prefix_exchange, split_chain

from conftest import (
    delay_line_json,
    expand_point,
    expansion_maps,
    random_tau,
    raw_expand,
    recoder_map,
)

INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"


def test_identity_and_swap_compile(full2, swap2):
    assert identity_code(full2).window == 1
    assert swap2.table == {(1,): 2, (2,): 1}


def test_swap_on_golden_inadmissible(golden):
    with pytest.raises(ImageInadmissible) as err:
        compile_block_code(golden, golden, 1, {(1,): 2, (2,): 1})
    # the witness word is the diagonal transition needing 2 -> 2
    assert err.value.args[1] == (1, 1)


def test_not_total_rejected(full2):
    with pytest.raises(NotTotal):
        compile_block_code(full2, full2, 1, {(1,): 1})


def test_apply_identity(full2, golden):
    ident = identity_code(full2)
    for p in enumerate_points(full2, 2, 3):
        assert apply_map(ident, p) == p


def test_apply_swap(full2, swap2):
    p = canonical_point(full2, (1,), (2,))
    assert apply_map(swap2, p) == Point((2,), (1,))


def test_apply_xor_code(full2, xor2):
    # hand-run: 1 2 1 2 1 2 -> windows alternate -> constant 2
    assert apply_map(xor2, Point((), (1, 2))) == Point((), (2,))
    assert apply_map(xor2, Point((), (1,))) == Point((), (1,))


def test_block_code_shift_commutation(full2, golden, xor2, swap2):
    cases = [(full2, xor2), (full2, swap2), (golden, identity_code(golden))]
    for space, code in cases:
        for p in enumerate_points(space, 2, 3):
            left = apply_map(code, shift_point(space, p))
            right = shift_point(code.target, apply_map(code, p))
            assert left == right


def test_block_to_transducer_single_state(full2, swap2):
    t = block_to_transducer(swap2)
    assert len(t.states) == 1


def test_block_to_transducer_agreement(full2, golden, xor2):
    t = block_to_transducer(xor2)
    for p in enumerate_points(full2, 2, 3):
        assert apply_map(t, p) == apply_map(xor2, p)
    # golden-mean window-2 code: buffer states are the length-1 words
    code = compile_block_code(golden, golden, 2, {w: w[0] for w in golden.words(2)})
    t2 = block_to_transducer(code)
    assert set(t2.states) == {(), (1,), (2,)}
    for p in enumerate_points(golden, 2, 3):
        assert apply_map(t2, p) == apply_map(code, p)


def test_transducer_validation_not_total(full2):
    with pytest.raises(NotTotal):
        transducer(full2, full2, ["a"], "a", {("a", 1): ("a", (1,))})


def test_transducer_validation_stalling(full2):
    with pytest.raises(StallingCycle):
        transducer(
            full2,
            full2,
            ["a"],
            "a",
            {("a", 1): ("a", ()), ("a", 2): ("a", (2,))},
        )


def test_transducer_validation_image(full2, golden):
    # emits 2,2 which golden forbids
    with pytest.raises(ImageInadmissible):
        transducer(
            full2,
            golden,
            ["a"],
            "a",
            {("a", 1): ("a", (2, 2)), ("a", 2): ("a", (1,))},
        )


def test_duplicator_output(full2, duplicator):
    p = canonical_point(full2, (1,), (2,))
    q = apply_map(duplicator, p)
    assert expand_point(q, 8) == (1, 1, 2, 2, 2, 2, 2, 2)


def test_recoder_is_involution(full2, recoder):
    for p in enumerate_points(full2, 3, 4):
        assert apply_map(recoder, apply_map(recoder, p)) == p


def test_verify_inverse_pair(full2, swap2, recoder):
    ident = identity_code(full2)
    assert verify_inverse_pair(ident, ident) == (True, None)
    assert verify_inverse_pair(swap2, swap2) == (True, None)
    ok, wit = verify_inverse_pair(swap2, ident)
    assert not ok and wit == Point((), (1,))
    assert verify_inverse_pair(recoder, recoder)[0]


def test_verify_inverse_pair_refutes_block_codes_the_family_misses(full2):
    # w -> w[0] except 12 -> 2: the identity on the fixed points, which are
    # the whole family at (0, 1), but not on any point through 12
    ident = identity_code(full2)
    table = {w: w[0] for w in full2.words(2)}
    table[(1, 2)] = 2
    h_inv = compile_block_code(full2, full2, 2, table)
    ok, p = verify_inverse_pair(ident, h_inv)
    assert not ok
    assert apply_map(ident, apply_map(h_inv, p)) != p
    assert apply_map(h_inv, apply_map(ident, p)) != p
    # the witness starts with the first failing word, 12
    assert p == Point((1,), (2,))


def test_verify_inverse_pair_checks_both_composites(full2, golden):
    # the golden mean shift into the full 2-shift, and a retraction back:
    # the retraction after the inclusion is the identity, the other way not
    incl = compile_block_code(golden, full2, 1, {(1,): 1, (2,): 2})
    table = {w: w[0] for w in full2.words(2)}
    table[(2, 2)] = 1
    retract = compile_block_code(full2, golden, 2, table)
    assert compose_block_codes(retract, incl) == identity_code(golden)
    ok, q = verify_inverse_pair(incl, retract)
    assert not ok
    assert apply_map(incl, apply_map(retract, q)) != q


def _refutes(h, h_inv, p):
    """``p`` is a point that a composite of two self-maps does not fix."""
    there, back = apply_map(h_inv, apply_map(h, p)), apply_map(h, apply_map(h_inv, p))
    return there != p or back != p


def _count_family(monkeypatch):
    """Count the point enumerations and images that ``verify_inverse_pair``
    makes, through either module that holds the two functions."""
    calls = {"enumerate_points": 0, "apply_map": 0}
    for module, name in itertools.product((maps, shifts), calls):
        real = getattr(module, name, None)
        if real is None:
            continue

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_prefix_exchange_is_an_involution(full2, golden):
    f = prefix_exchange(full2, (1, 1, 2), (2, 2, 1))
    for p in enumerate_points(full2, 3, 4):
        seq = expand_point(p, 12)
        image = expand_point(apply_map(f, p), 12)
        for u, v in (((1, 1, 2), (2, 2, 1)), ((2, 2, 1), (1, 1, 2))):
            if seq[:3] == u:
                assert image == v + seq[3:]
        if seq[:3] not in ((1, 1, 2), (2, 2, 1)):
            assert image == seq
        assert apply_map(f, apply_map(f, p)) == p
    g = prefix_exchange(golden, (1,), (2, 1))
    assert apply_map(g, Point((), (1,))) == Point((2,), (1,))


@pytest.mark.parametrize(
    "u, v, error",
    [
        ((1,), (1, 2), PreconditionFailed),  # comparable
        ((1, 2), (1, 2), PreconditionFailed),
        ((), (2,), InadmissibleWord),
        ((2, 2), (1,), InadmissibleWord),
        ((1,), (2,), PreconditionFailed),  # 1 and 2 have different followers
        ((1, 2), (2, 1), PreconditionFailed),
    ],
)
def test_prefix_exchange_rejects(golden, u, v, error):
    with pytest.raises(error):
        prefix_exchange(golden, u, v)


def test_verify_inverse_pair_refutes_transducers_the_family_misses(full2):
    # the fixed points and the points of period 2 avoid both cylinders
    # [1,1,2] and [2,2,1], so the families at (0, 1) and (0, 2) see the
    # exchange as the identity
    ident = identity_code(full2)
    f = prefix_exchange(full2, (1, 1, 2), (2, 2, 1))
    ok, p = verify_inverse_pair(ident, f)
    assert not ok and _refutes(ident, f, p)
    # the witness starts with the first failing word, 112
    assert p == Point((1, 1), (2,))


def test_verify_inverse_pair_matches_output_ahead_of_input(full2, duplicator):
    # the duplicator emits x1 before x2 is read; so does the identity after
    # it, and the second x1 must meet x2: no fixed point sees the difference
    ident = identity_code(full2)
    ok, p = verify_inverse_pair(duplicator, ident)
    assert not ok and _refutes(duplicator, ident, p)
    # the expansion inverse emits a forced symbol ahead of its input
    assert verify_inverse_pair(*expansion_maps(2, {2: 1})) == (True, None)


def test_verify_inverse_pair_checks_both_transducer_composites(full2, duplicator):
    # dropping the first symbol undoes the duplicator, not the other way
    drop = transducer(
        full2,
        full2,
        ["init", "copy"],
        "init",
        {
            ("init", 1): ("copy", ()),
            ("init", 2): ("copy", ()),
            ("copy", 1): ("copy", (1,)),
            ("copy", 2): ("copy", (2,)),
        },
    )
    ok, q = verify_inverse_pair(duplicator, drop)
    assert not ok
    assert apply_map(duplicator, apply_map(drop, q)) != q


def test_family_past_its_cap_keeps_the_exact_refutation():
    # the point family of the full 32-shift at (3, 4) needs the 4-words,
    # past the word-table cap; the exchange of 1 and 2 is refuted anyway
    n = 32
    space = build_shift_space([[1] * n] * n)

    def one_state(image):
        delta = {("s", a): ("s", (image.get(a, a),)) for a in range(1, n + 1)}
        return transducer(space, space, ["s"], "s", delta)

    ident, swap = one_state({}), one_state({1: 2, 2: 1})
    with pytest.raises(TooLarge):
        enumerate_points(space, 3, 4)
    assert verify_inverse_pair(ident, swap) == (False, Point((), (1,)))
    assert verify_inverse_pair(ident, ident) == (True, None)


def _exchanges(space):
    words = [w for m in (1, 2, 3) for w in space.words(m)]
    for u, v in itertools.combinations(words, 2):
        if u[-1] == v[-1] and u[: len(v)] != v[: len(u)]:
            yield u, v


def test_exchange_sweep_is_decided_by_the_product(full2, golden, monkeypatch):
    # every prefix exchange is its own inverse by construction
    calls = _count_family(monkeypatch)
    swept = 0
    for space in (full2, golden):
        ident = identity_code(space)
        for u, v in _exchanges(space):
            f = prefix_exchange(space, u, v)
            assert verify_inverse_pair(f, f) == (True, None)
            assert calls == {"enumerate_points": 0, "apply_map": 0}
            ok, p = verify_inverse_pair(f, ident)
            assert not ok and _refutes(f, ident, p)
            ok, p = verify_inverse_pair(ident, f)
            assert not ok and _refutes(ident, f, p)
            calls.update(enumerate_points=0, apply_map=0)
            swept += 1
    # per last symbol: 16 and 16 on the full 2-shift, 10 and 5 on the golden mean
    assert swept == 32 + 15


def test_recoders_with_other_inverses_are_refuted(full2, golden):
    for space in (full2, golden):
        symbols = range(1, space.n + 1)
        preds = {b: [a for a in symbols if space.matrix.allows(a, b)] for b in symbols}
        taus = [
            {b: dict(zip(preds[b], image)) for b, image in zip(symbols, images)}
            for images in itertools.product(
                *(itertools.permutations(preds[b]) for b in symbols)
            )
        ]
        for tau, other in itertools.product(taus, repeat=2):
            h = recoder_map(space, tau)
            inv = {b: {v: a for a, v in t.items()} for b, t in other.items()}
            h_inv = recoder_map(space, inv)
            ok, p = verify_inverse_pair(h, h_inv)
            if tau == other:
                assert (ok, p) == (True, None)
            else:
                assert not ok and _refutes(h, h_inv, p)


def test_product_cap_is_undecided(full2, monkeypatch):
    recoder2 = jsonio.map_from_json(
        full2, full2, jsonio.load_file(INPUTS / "recoder2.json")
    )
    calls = _count_family(monkeypatch)
    assert verify_inverse_pair(recoder2, recoder2) == (True, None)
    # the recoder holds back one input symbol, past a cap of none
    monkeypatch.setattr(maps, "MAX_DEPTH", 0)
    with pytest.raises(TooLarge):
        verify_inverse_pair(recoder2, recoder2)
    assert calls == {"enumerate_points": 0, "apply_map": 0}


def _first_table_miss(outer, inner):
    """The oracle: the first key of the composite table whose value is not
    the key's first symbol."""
    table = compose_block_codes(outer, inner).table
    return next((u for u, b in table.items() if b != u[0]), None)


def _misses_match_the_table(pairs):
    """``_composite_mismatch`` on each pair equals the table oracle, and no
    call leaves a deeper word table on a space than it found."""
    depths = [max(inner.source._words) for _, inner in pairs]
    found = [maps._composite_mismatch(outer, inner) for outer, inner in pairs]
    assert [max(inner.source._words) for _, inner in pairs] == depths
    assert found == [_first_table_miss(outer, inner) for outer, inner in pairs]
    return found


def _window_identity(space, window, rng=None):
    """The identity as a ``window``-block code; with ``rng``, one entry of
    its table changed to another symbol (on a full shift any image is
    admissible)."""
    table = {w: w[0] for w in space.words(window)}
    if rng is not None:
        w = rng.choice(sorted(table))
        table[w] = rng.choice([a for a in range(1, space.n + 1) if a != w[0]])
    return compile_block_code(space, space, window, table)


def test_composite_mismatch_matches_the_composite_table():
    rng = random.Random(5)
    found = []
    # split codes and their inverses, both ways round, and with one entry
    # of the code changed where the change keeps the image admissible
    for _ in range(15):
        _, code, inverse = split_chain(rng, random_shift_space(rng, rng.choice([2, 3])))
        pairs = [(inverse, code), (code, inverse)]
        table = dict(code.table)
        w = rng.choice(sorted(table))
        table[w] = rng.randint(1, code.target.n)
        try:
            bent = compile_block_code(code.source, code.target, code.window, table)
        except ImageInadmissible:
            bent = None
        if bent is not None:
            pairs.append((inverse, bent))
        found += _misses_match_the_table(pairs)
    # windows 1-4 on each side, on fresh full shifts
    for n, inner_w, outer_w in itertools.product((2, 3), range(1, 5), range(1, 5)):
        pairs = []
        for bend_inner, bend_outer in itertools.product((None, rng), repeat=2):
            space = build_shift_space([[1] * n] * n)
            inner = _window_identity(space, inner_w, bend_inner)
            outer = _window_identity(space, outer_w, bend_outer)
            pairs.append((outer, inner))
        found += _misses_match_the_table(pairs)
    # both outcomes occur often
    assert found.count(None) > 10 and len(found) - found.count(None) > 10


def test_composite_mismatch_checks_the_word_cap_first(monkeypatch):
    space = build_shift_space([[1, 1], [1, 1]])
    inner, outer = _window_identity(space, 2), _window_identity(space, 3)
    depth = max(space._words)
    monkeypatch.setattr(maps, "WORD_TABLE_LIMIT", space.word_count(4) - 1)
    with pytest.raises(TooLarge):
        maps._composite_mismatch(outer, inner)
    assert max(space._words) == depth


def test_transducer_validates_a_long_delay_line(full2):
    # 1,200 silent states in a row hold the output back; the stalling
    # check peels them off instead of recursing once per configuration
    h = jsonio.map_from_json(full2, full2, delay_line_json(1200))
    assert len(h.states) == 1201
    assert h.output_prefix((1, 2) * 601) == (1, 2)
    for loop_to in (0, 1000, 1199):  # the same chain closed into a silent cycle
        with pytest.raises(StallingCycle):
            jsonio.map_from_json(full2, full2, delay_line_json(1200, loop_to))


def test_compose_block_codes(full2, swap2, xor2):
    ident = identity_code(full2)
    assert compose_block_codes(swap2, swap2) == ident
    both = compose_block_codes(xor2, swap2)
    for p in enumerate_points(full2, 2, 3):
        assert apply_map(both, p) == apply_map(xor2, apply_map(swap2, p))
    # on fresh spaces: composing reads the window-words of the source only
    src, mid = (build_shift_space([[1, 1], [1, 1]]) for _ in range(2))
    swap = compile_block_code(src, mid, 1, swap2.table)
    xor = compile_block_code(mid, mid, 2, xor2.table)
    assert compose_block_codes(xor, swap).window == max(src._words) == 2


def test_inverse_pair_pullback_round_trip(full2, golden, swap2):
    from orbiteq import out_split

    cases = [(full2, swap2, swap2)]
    _, code, inverse = out_split(golden, {1: [(1,), (2,)]})
    cases.append((golden, code, inverse))
    for src, h, h_inv in cases:
        assert verify_inverse_pair(h, h_inv)[0]
        for d in (1, 2, 3):
            for w in src.words(d):
                f = indicator(src, w)
                back = pullback(pullback(f, h_inv), h)
                assert tables_equal(back, f)


def _raw_transduce(h, seq):
    """The output of ``h`` on the finite input ``seq``, read symbol by
    symbol off its window table or its transition function."""
    if isinstance(h, BlockCode):
        w = h.window
        return tuple(h.table[tuple(seq[i : i + w])] for i in range(len(seq) - w + 1))
    state, out = h.initial, []
    for a in seq:
        state, emitted = h.delta[(state, a)]
        out.extend(emitted)
    return tuple(out)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(["recoder", "code", "inverse", "code-transducer"]),
    st.data(),
)
def test_apply_map_matches_raw_transduction(seed, kind, data):
    rng = random.Random(seed)
    space = random_shift_space(rng, rng.randint(2, 3))
    if kind == "recoder":
        h = recoder_map(space, random_tau(rng, space))
    else:
        _, code, inverse = split_chain(rng, space, max_splits=2)
        h = {"code": code, "inverse": inverse}.get(kind) or block_to_transducer(code)
    p = data.draw(st.sampled_from(enumerate_points(h.source, 2, 3)))
    n = len(p.preperiod) + 4 * len(p.cycle) + 6
    raw = _raw_transduce(h, raw_expand(p.preperiod, p.cycle, n))
    # the raw output determines its own length of symbols, and no more
    assert raw and apply_map(h, p).expand(len(raw)) == raw


def test_classify_leaves_transducers_unchanged(cfg):
    # a transducer keeps no state of its own: classifying a recoder pair,
    # which runs both maps on every word at the certified depth, must not
    # grow anything on them (the spaces they act on hold their own caches)
    rng = random.Random(1)
    space = random_shift_space(rng, 3)
    tau = random_tau(rng, space)
    h = recoder_map(space, tau)
    h_inv = recoder_map(
        space, {b: {v: a for a, v in t.items()} for b, t in tau.items()}
    )

    def state(t):
        return {
            k: v if isinstance(v, ShiftSpace) else copy.deepcopy(v)
            for k, v in vars(t).items()
        }

    before = state(h), state(h_inv)
    assert classify(h, h_inv, cfg).kind == "EventualConjugacy"
    assert (state(h), state(h_inv)) == before
