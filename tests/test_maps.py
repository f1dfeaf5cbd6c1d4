import pytest

from orbiteq import (
    ImageInadmissible,
    NotTotal,
    Point,
    StallingCycle,
    apply_map,
    block_to_transducer,
    canonical_point,
    compile_block_code,
    compose_block_codes,
    enumerate_points,
    identity_code,
    indicator,
    pullback,
    shift_point,
    tables_equal,
    transducer,
    verify_inverse_pair,
)

from conftest import expand_point


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
    assert verify_inverse_pair(ident, ident, 2, 3) == (True, None)
    assert verify_inverse_pair(swap2, swap2, 2, 3) == (True, None)
    ok, wit = verify_inverse_pair(swap2, ident, 2, 3)
    assert not ok and wit == Point((), (1,))
    assert verify_inverse_pair(recoder, recoder, 3, 4)[0]


def test_compose_block_codes(full2, swap2, xor2):
    ident = identity_code(full2)
    assert compose_block_codes(swap2, swap2) == ident
    both = compose_block_codes(xor2, swap2)
    for p in enumerate_points(full2, 2, 3):
        assert apply_map(both, p) == apply_map(xor2, apply_map(swap2, p))


def test_inverse_pair_pullback_round_trip(full2, golden, swap2):
    from orbiteq import out_split

    cases = [(full2, swap2, swap2)]
    _, code, inverse = out_split(golden, {1: [(1,), (2,)]})
    cases.append((golden, code, inverse))
    for src, h, h_inv in cases:
        assert verify_inverse_pair(h, h_inv, 2, 3)[0]
        for d in (1, 2, 3):
            for w in src.words(d):
                f = indicator(src, w)
                back = pullback(pullback(f, h_inv), h)
                assert tables_equal(back, f)
