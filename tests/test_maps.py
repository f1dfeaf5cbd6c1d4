import ast
import copy
import itertools
import random
from pathlib import Path

import numpy as np
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
    orbit_cocycles,
    pullback,
    random_shift_space,
    shift_point,
    tables_equal,
    transducer,
    verify_inverse_pair,
)

from orbiteq import generators, jsonio, maps, shifts
from orbiteq.generators import prefix_exchange, random_single_split, split_chain

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


@pytest.mark.parametrize("value", [0, 3, 2.0, "2", True])
def test_table_value_outside_the_target_alphabet_rejected(full2, value):
    # 2.0 once ended in a bare TypeError, and True read as the symbol 1
    with pytest.raises(ImageInadmissible, match="^table value outside the target"):
        compile_block_code(full2, full2, 1, {(1,): 1, (2,): value})


def test_numpy_integer_table_values_compile(full2):
    table = {(1,): np.int64(2), (2,): np.uint8(1)}
    assert compile_block_code(full2, full2, 1, table).table == {(1,): 2, (2,): 1}


def reference_compile_error(source, target, window, table):
    """``(type, message, witness)`` of the error the table check raises when
    it builds the ``(window + 1)``-words and reads two window-words of
    each, or None when the table compiles."""
    table = {tuple(k): v for k, v in table.items()}
    if set(table) != set(source.words(window)):
        return NotTotal, "table keys must be exactly the allowed window-words", None
    if any(not (1 <= v <= target.n) for v in table.values()):
        return ImageInadmissible, "table value outside the target alphabet", None
    for w in source.words(window + 1):
        a, b = table[w[:window]], table[w[1:]]
        if not target.matrix.allows(a, b):
            message = f"image of {w} needs forbidden transition {a}->{b}"
            return ImageInadmissible, message, w
    return None


def _bad_tables(rng, source, target, window):
    """Tables for ``source -> target``: values changed at the first, a
    middle, the last and a random window-word, one of them outside the
    target, a key missing, keys that are no window-word added, or put in
    place of one that is."""
    words = source.words(window)
    if target is source:  # the identity, changed in one place at a time
        table = {w: w[0] for w in words}
    else:
        table = {w: rng.randint(1, target.n) for w in words}
    for w in (words[0], words[len(words) // 2], words[-1], rng.choice(words)):
        yield {**table, w: rng.randint(1, target.n)}
        yield {**table, w: rng.choice([0, target.n + 1])}
        yield {k: v for k, v in table.items() if k != w}
    forbidden = [
        w + (b,) for w in source.words(window - 1)
        for b in range(1, source.n + 1) if b not in source.matrix.followers[w[-1] - 1]
    ] if window > 1 else []
    longer = words[0] + (source.matrix.followers[words[0][-1] - 1][0],)
    for extra in [*forbidden[:2], longer, (source.n + 1,) * window]:
        yield {**table, extra: 1}
        yield {**{k: v for k, v in table.items() if k != words[-1]}, extra: 1}
    yield table


def test_compile_raises_what_the_longer_word_check_raised():
    rng = random.Random(31)
    outcomes = []
    for window, _ in itertools.product((1, 2, 3), range(4)):
        rows = random_shift_space(rng, rng.randint(2, 4)).matrix.entries
        target_rows = random_shift_space(rng, rng.randint(2, 4)).matrix.entries
        for same in (True, False):
            checked = build_shift_space(rows)
            target = checked if same else build_shift_space(target_rows)
            for table in _bad_tables(rng, checked, target, window):
                reference = build_shift_space(rows)
                expected = reference_compile_error(
                    reference, reference if same else target, window, table
                )
                try:
                    compile_block_code(checked, target, window, table)
                    got = None
                except (NotTotal, ImageInadmissible) as e:
                    got = type(e), e.args[0], (e.args[1] if len(e.args) > 1 else None)
                assert got == expected, (rows, window, table)
                outcomes.append(expected and (expected[0], expected[2]))
    # every outcome occurs, the forbidden transition at many witnesses
    kinds = {x and (x[0], x[1] is not None) for x in outcomes}
    image = ImageInadmissible
    assert kinds == {None, (NotTotal, False), (image, False), (image, True)}
    assert len({x[1] for x in outcomes if x and x[1]}) > 20


def test_compile_names_the_first_forbidden_follower():
    # images are tested as a set per key; the witness is still the first
    # follower in order whose image is forbidden
    full3 = build_shift_space([[1, 1, 1]] * 3)
    three = build_shift_space([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    # after (1, 1) -> 1, the images 1 and 2 of (1, 1) and (1, 2) are
    # allowed, the image 3 of (1, 3) is not
    # window 1: the images after (1,) are {2}, after (2,) {1, 2}, and
    # 2 -> 1 is forbidden, so images keyed on w[1:] == () would miss it
    two = build_shift_space([[0, 1], [1, 1]])
    loop3 = build_shift_space([[0, 1, 0], [0, 1, 1], [1, 0, 0]])
    for source, target, window, table, witness in (
        (full3, three, 2, {w: w[1] for w in full3.words(2)}, (1, 1, 3)),
        (two, loop3, 1, {(1,): 1, (2,): 2}, (2, 1)),
    ):
        expected = reference_compile_error(source, target, window, table)
        assert expected[2] == witness
        with pytest.raises(ImageInadmissible) as err:
            compile_block_code(source, target, window, table)
        assert (type(err.value), *err.value.args) == expected


def test_compile_builds_no_longer_word_table():
    rng = random.Random(8)
    for window in (1, 2, 3, 4):
        for n in (2, 3, 4):
            source = random_shift_space(rng, n)
            target = build_shift_space(source.matrix.entries)
            code = compile_block_code(
                source, target, window, {w: w[0] for w in source.words(window)}
            )
            assert code.window == max(source._words) == window
            assert max(target._words) == 1


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


def _compose_by_output_prefix(outer, inner):
    """The composite's table as ``compose_block_codes`` once defined it:
    each word's inner outputs read off ``output_prefix`` on its own."""
    w = inner.window + outer.window - 1
    return {u: outer.table[inner.output_prefix(u)] for u in inner.source.words(w)}


def test_compose_block_codes_matches_output_prefix_on_the_compare_pool(monkeypatch):
    # the split chains of the invariants-compare pool: bases of 2-9
    # states, up to 3 splits, composed by split_chain both ways round,
    # and each chain's codes composed with the window-1 identity of its base
    pairs = []
    compose = generators.compose_block_codes

    def recorded(outer, inner):
        pairs.append((outer, inner))
        return compose(outer, inner)

    monkeypatch.setattr(generators, "compose_block_codes", recorded)
    for j in range(150):
        rng = random.Random(f"invariants-compare/pool/split/{j}")
        base = random_shift_space(rng, rng.randint(2, 9))
        _, code, inverse = split_chain(rng, base, max_splits=min(3, 12 - base.n))
        pairs += [(code, identity_code(base)), (identity_code(base), inverse)]
    monkeypatch.undo()
    calls = []
    output_prefix = BlockCode.output_prefix
    monkeypatch.setattr(
        BlockCode, "output_prefix", lambda h, w: calls.append(w) or output_prefix(h, w)
    )
    found = [compose_block_codes(outer, inner) for outer, inner in pairs]
    assert calls == []
    for h, (outer, inner) in zip(found, pairs):
        assert (h.source, h.target) == (inner.source, outer.target)
        assert h.window == inner.window + outer.window - 1
        assert list(h.table.items()) == list(_compose_by_output_prefix(outer, inner).items())
    assert max(h.window for h in found) >= 4 and len(pairs) > 300


def _split_chain_from_identities(rng, base, max_splits):
    """The reference for ``split_chain``: each chain starts from the
    identity codes of its base and composes every split onto them."""
    space, code, inverse = base, identity_code(base), identity_code(base)
    for _ in range(rng.randint(1, max_splits)):
        space, c, iv = random_single_split(rng, space)
        code = compose_block_codes(c, code)
        inverse = compose_block_codes(inverse, iv)
    return space, code, inverse


def test_split_chain_matches_the_chain_from_identity_codes():
    # starting from the first split gives the same spaces, codes and
    # random state as composing that split with the base's identity
    for seed in range(300):
        runs = []
        for chain in (split_chain, _split_chain_from_identities):
            rng = random.Random(seed)
            base = random_shift_space(rng, rng.randint(2, 5))
            space, code, inverse = chain(rng, base, max_splits=3)
            codes = [(h.window, list(h.table.items())) for h in (code, inverse)]
            runs.append((space.matrix.entries.tolist(), codes, rng.getstate()))
        assert runs[0] == runs[1]


def test_compose_block_codes_is_associative_past_outer_window_two():
    rng = random.Random(11)
    for n in (2, 3, 4):
        spaces = [random_shift_space(rng, n)]
        codes = []
        for _ in range(4):  # the last code is two splits composed: window 3
            space, code, _ = random_single_split(rng, spaces[-1])
            spaces.append(space)
            codes.append(code)
        c1, c2, c3 = codes[0], codes[1], compose_block_codes(codes[3], codes[2])
        assert c3.window == 3
        left = compose_block_codes(compose_block_codes(c3, c2), c1)
        right = compose_block_codes(c3, compose_block_codes(c2, c1))
        assert left.window == right.window == 5
        assert list(left.table.items()) == list(right.table.items())
        assert list(left.table.items()) == list(
            _compose_by_output_prefix(compose_block_codes(c3, c2), c1).items()
        )
    # windows 1-4 on both sides of a bent full-shift code
    space = build_shift_space([[1, 1], [1, 1]])
    for outer_w, inner_w in itertools.product(range(1, 5), repeat=2):
        outer = _window_identity(space, outer_w, rng)
        inner = _window_identity(space, inner_w, rng)
        got = compose_block_codes(outer, inner).table
        assert list(got.items()) == list(_compose_by_output_prefix(outer, inner).items())


def test_compose_block_codes_checks_the_word_cap_first(monkeypatch):
    space = build_shift_space([[1, 1], [1, 1]])
    inner, outer = _window_identity(space, 2), _window_identity(space, 3)
    lookups = []

    class Counted(dict):
        def __getitem__(self, key):
            lookups.append(key)
            return dict.__getitem__(self, key)

    inner.table, outer.table = Counted(inner.table), Counted(outer.table)
    depth = max(space._words)
    monkeypatch.setattr(shifts, "WORD_TABLE_LIMIT", space.word_count(4) - 1)
    with pytest.raises(TooLarge):
        compose_block_codes(outer, inner)
    assert max(space._words) == depth and lookups == []
    monkeypatch.undo()
    assert compose_block_codes(outer, inner).window == 4 and lookups


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


def test_apply_map_agrees_with_output_prefix(full2, golden, xor2, recoder):
    # the image of every point starts with what the map emits on a long
    # prefix of it, for both presentations of a block code too
    for h in (
        xor2,
        block_to_transducer(xor2),
        recoder,
        prefix_exchange(full2, (1, 1, 2), (2, 2, 1)),
        prefix_exchange(golden, (1,), (2, 1)),
    ):
        for p in enumerate_points(h.source, 2, 4):
            raw = h.output_prefix(p.expand(24))
            assert raw and apply_map(h, p).expand(len(raw)) == raw, (h, p)


def test_apply_map_rejects_an_empty_output_cycle(full2):
    # bare machines, not validated: one is silent on every input, the other
    # after its first symbol, so no point has an output cycle
    silent = {("q", a): ("q", ()) for a in (1, 2)}
    once = {**silent, **{("a", a): ("q", (a,)) for a in (1, 2)}}
    for states, delta in ((["q"], silent), (["a", "q"], once)):
        h = maps.Transducer(full2, full2, states, states[0], delta)
        for p in (Point((), (1,)), Point((2,), (1,)), Point((), (1, 2))):
            with pytest.raises(StallingCycle, match="empty output cycle"):
                apply_map(h, p)


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


def test_every_product_walk_caps_its_nodes(monkeypatch, full2):
    # the inverse check and the cocycle walks both admit nodes in maps._admit
    monkeypatch.setattr(maps, "WORD_TABLE_LIMIT", 3)
    f = prefix_exchange(full2, (1,), (2, 2, 1))
    for check in (lambda: verify_inverse_pair(f, f), lambda: orbit_cocycles(f, 3)):
        with pytest.raises(TooLarge, match="product walk past 3 nodes"):
            check()


def test_only_maps_admits_product_walk_nodes():
    # one admission point, where every product walk counts and caps its nodes
    named = set()
    for path in Path(maps.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = (getattr(node, f, None) for f in ("id", "attr", "name"))
            if "_admit" in names:
                named.add(path.name)
    assert named == {"maps.py"}


def test_only_maps_steps_a_machine():
    # every walk that steps a machine lives in maps.py; jsonio.py reads
    # delta and initial only to write a transducer out
    steps = {"delta", "initial", "_run"}
    walk_parts = {"_compared", "_difference", "_last_mismatch"}
    found = set()
    for path in Path(maps.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, f, None) for f in ("id", "attr", "name")}
            read = {node.attr} & steps if isinstance(node, ast.Attribute) else set()
            found.update((path.name, name) for name in read | names & walk_parts)
    outside = {(module, name) for module, name in found if module != "maps.py"}
    assert outside <= {("jsonio.py", "delta"), ("jsonio.py", "initial")}


def test_misaligned_mismatch_at_a_root(full2):
    # the identity's runs on (1, 2) and on (2,) emit 1, 2 and 2: with no
    # shift on either side they differ at the first pair, before any walk
    m = block_to_transducer(identity_code(full2))
    assert maps._misaligned(m, ((1, 2),), 0, 0) == (1, 2)
