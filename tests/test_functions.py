import random

import pytest

from orbiteq import (
    CylinderFunction,
    InadmissibleWord,
    TooLarge,
    build_shift_space,
    canonical_point,
    combine,
    compose_shift,
    constant,
    enumerate_points,
    evaluate,
    find_transfer,
    indicator,
    pullback,
    random_shift_space,
    refine,
    tables_equal,
    transducer,
    transfer_obstruction,
)
from orbiteq import jsonio
from orbiteq.config import MAX_DEPTH

from conftest import delay_line_json, raw_expand


def test_indicator_tables(golden, full2):
    assert indicator(golden, (1, 2)).table == {(1, 1): 0, (1, 2): 1, (2, 1): 0}
    assert indicator(full2, (1,)).table == {(1,): 1, (2,): 0}


def test_indicator_rejects_bad_word(golden):
    with pytest.raises(InadmissibleWord):
        indicator(golden, (2, 2))


def test_evaluate_first_symbols_decide(full2):
    f = indicator(full2, (1, 2))
    assert evaluate(f, canonical_point(full2, (), (1, 2))) == 1
    assert evaluate(f, canonical_point(full2, (), (2, 1))) == 0
    assert evaluate(f, canonical_point(full2, (2,), (1,))) == 0


def test_evaluate_depth3_on_fixed_point(full2):
    f = indicator(full2, (2, 2, 2))
    assert evaluate(f, canonical_point(full2, (), (2,))) == 1
    assert evaluate(f, canonical_point(full2, (), (1,))) == 0


def test_constant_evaluates_everywhere(golden):
    one = constant(golden, 1)
    for p in enumerate_points(golden, 2, 3):
        assert evaluate(one, p) == 1


def test_combine_cancellation(full2):
    f = indicator(full2, (1, 2))
    assert combine(1, f, -1, f).is_constant(0)


def test_partition_of_unity(golden):
    for m in (1, 2, 3):
        total = constant(golden, 0)
        for w in golden.words(m):
            total = combine(1, total, 1, indicator(golden, w))
        assert total.is_constant(1)
        assert total.depth == m


def test_combine_example_value(full2):
    f = combine(2, indicator(full2, (1,)), 3, indicator(full2, (1, 2)))
    assert evaluate(f, canonical_point(full2, (), (1, 2))) == 5


def test_linearity_pointwise(golden):
    f = indicator(golden, (1, 2))
    g = indicator(golden, (1,))
    for c1, c2 in ((1, 1), (2, -3), (0, 5)):
        h = combine(c1, f, c2, g)
        for p in enumerate_points(golden, 2, 3):
            assert evaluate(h, p) == c1 * evaluate(f, p) + c2 * evaluate(g, p)


def test_refinement_soundness(golden):
    f = indicator(golden, (2, 1))
    for extra in (1, 2, 3):
        r = refine(f, f.depth + extra)
        assert tables_equal(r, f)
        for p in enumerate_points(golden, 2, 3):
            assert evaluate(r, p) == evaluate(f, p)


def test_equal_functions_hash_equal(golden, full2):
    # equality is taken at the common refinement, so the depth is no part
    # of the hash: equal functions of different depths are one set member
    assert constant(full2, 1, 1) == constant(full2, 1, 2)
    assert len({constant(full2, 1, 1), constant(full2, 1, 2)}) == 1
    f = indicator(golden, (1, 2))
    assert len({f, refine(f, 4)}) == 1
    assert len({constant(full2, 1), constant(golden, 1)}) == 2


def test_pullback_of_constant(full2, swap2):
    c = constant(full2, 7)
    assert tables_equal(pullback(c, swap2), c)


def test_pullback_identity_and_swap(full2, swap2):
    from orbiteq import identity_code

    f = indicator(full2, (1, 2))
    assert tables_equal(pullback(f, identity_code(full2)), f)
    g = pullback(indicator(full2, (1,)), swap2)
    assert tables_equal(g, indicator(full2, (2,)))


def test_pullback_two_block(full2):
    from orbiteq import compile_block_code

    # window-2 code reading only its first symbol, output swapped
    code = compile_block_code(
        full2, full2, 2, {w: 3 - w[0] for w in full2.words(2)}
    )
    g = pullback(indicator(full2, (1,)), code)
    assert tables_equal(g, indicator(full2, (2,)))


def test_pullback_word_cap_is_too_large():
    # a 10-state delay line: silent for 9 inputs, then copies its input,
    # so one output symbol needs a depth-10 word table, past the cap
    full4 = build_shift_space([[1] * 4] * 4)
    delta = {(i, a): (i + 1, ()) for i in range(9) for a in range(1, 5)}
    delta.update({(9, a): (9, (a,)) for a in range(1, 5)})
    t = transducer(full4, full4, range(10), 0, delta)
    with pytest.raises(TooLarge, match="word table at depth"):
        pullback(constant(full4, 1), t)


def test_pullback_depth_cap_is_too_large(golden):
    # 25 silent inputs before the copy starts: the golden mean's word tables
    # fit through the depth cap, so the depth cap is what stops the search
    h = jsonio.map_from_json(golden, golden, delay_line_json(25))
    message = f"^1 output symbols not determined by {MAX_DEPTH} input symbols$"
    with pytest.raises(TooLarge, match=message):
        pullback(indicator(golden, (1,)), h)


def test_find_transfer_zero(full2):
    b = find_transfer(full2, constant(full2, 1), 1)
    assert b is not None and b.is_constant(0)


def test_find_transfer_recovers_coboundary(full2):
    ind = indicator(full2, (1,))
    g = combine(1, constant(full2, 1), 1, combine(1, ind, -1, compose_shift(ind)))
    b = find_transfer(full2, g, 1)
    assert b is not None
    assert combine(1, b, -1, ind).is_constant()
    # the certificate re-verifies
    lhs = combine(1, constant(full2, 1), 1, combine(1, b, -1, compose_shift(b)))
    assert tables_equal(lhs, g)


def test_find_transfer_cycle_sum_obstruction(full2):
    # along any n-cycle the sums force n*c = sum of g, so g=2, c=1 fails
    assert find_transfer(full2, constant(full2, 2), 1) is None


def test_find_transfer_word_cap_is_not_found():
    # no solution exists: 0 - 1 sums to -1 over the fixed point 1, which the
    # one-depth solve on the 1-words finds without a deeper word table
    full16 = build_shift_space([[1] * 16] * 16)
    assert find_transfer(full16, constant(full16, 0), 1) is None


@pytest.mark.parametrize("solve", [find_transfer, transfer_obstruction])
def test_transfer_rejects_a_function_on_another_space(golden, full2, solve):
    # full-2 tables read over golden-mean words used to answer None, or
    # fail find_transfer's re-check with InconsistentRoutes
    for g in (indicator(full2, (2, 2)), constant(full2, 1, 2)):
        with pytest.raises(ValueError, match="given space"):
            solve(golden, g, 1)


def test_find_transfer_deeper_coboundary(golden):
    ind = indicator(golden, (1, 2))
    g = combine(1, constant(golden, 1), 1, combine(1, ind, -1, compose_shift(ind)))
    b = find_transfer(golden, g, 1)
    assert b is not None
    lhs = combine(1, constant(golden, 1), 1, combine(1, b, -1, compose_shift(b)))
    assert tables_equal(lhs, g)


def test_transfer_certificate_cycle_sums(full2):
    # whenever a transfer exists, Birkhoff sums along every short cycle
    # must equal the cycle length times the constant
    ind = indicator(full2, (1,))
    g = combine(1, constant(full2, 1), 1, combine(1, ind, -1, compose_shift(ind)))
    b = find_transfer(full2, g, 1)
    assert b is not None
    from orbiteq import shift_point

    for p in enumerate_points(full2, 0, 8):
        n = len(p.cycle)
        if n > 8:
            continue
        total = 0
        q = p
        for _ in range(n):
            total += evaluate(g, q)
            q = shift_point(full2, q)
        assert total == n * 1


def _oracle_transfer(space, g, c, max_depth):
    """The least depth up to ``max_depth`` with a transfer: the
    depth-by-depth search of undirected constraint graphs that
    ``find_transfer`` ran before it solved at one depth."""
    for m in range(1, max_depth + 1):
        big = max(g.depth, m + 1)
        gm = refine(g, big)
        # edges[u] = list of (v, r) meaning b[u] - b[v] = r
        edges = {w: [] for w in space.words(m)}
        ok = True
        for w in space.words(big):
            u, v, r = w[:m], w[1 : m + 1], gm.table[w] - c
            edges[u].append((v, r))
            edges[v].append((u, -r))
        val = {}
        order = space.words(m)
        val[order[0]] = 0
        queue = [order[0]]
        while queue and ok:
            u = queue.pop()
            for v, r in edges[u]:
                want = val[u] - r
                if v in val:
                    if val[v] != want:
                        ok = False
                        break
                else:
                    val[v] = want
                    queue.append(v)
        if ok and len(val) == len(order):
            base = val[order[0]]
            b = CylinderFunction(space, m, {w: val[w] - base for w in order})
            lhs = combine(1, constant(space, c), 1, combine(1, b, -1, compose_shift(b)))
            if tables_equal(lhs, g):
                return b
    return None


def _transfer_cases(count, seed=8):
    """Seeded ``(space, g, c)``: random tables and coboundaries ``c + b -
    b∘σ`` of depth 1-3, each refined 0-1 levels past its depth."""
    rng = random.Random(seed)
    for i in range(count):
        space = random_shift_space(rng, rng.randint(2, 5))
        c = rng.randint(-1, 2)
        e = rng.randint(1, 3)
        f = CylinderFunction(space, e, {w: rng.randint(-2, 2) for w in space.words(e)})
        if i % 2:
            f = combine(1, constant(space, c), 1, combine(1, f, -1, compose_shift(f)))
        yield space, refine(f, f.depth + rng.randint(0, 1)), c


def _period_sum(g, c, p):
    """``g - c`` summed over one period of the periodic point ``p``, on
    the raw sequence."""
    n = len(p.cycle)
    seq = raw_expand((), p.cycle, n + g.depth)
    return sum(g.table[seq[i : i + g.depth]] - c for i in range(n))


def test_find_transfer_matches_depth_search_oracle():
    found = refuted = 0
    for space, g, c in _transfer_cases(600):
        b = find_transfer(space, g, c)
        want = _oracle_transfer(space, g, c, g.depth)
        assert (b is None) == (want is None)
        if b is None:
            refuted += 1
            p, s = transfer_obstruction(space, g, c)
            assert not p.preperiod and s != 0 and _period_sum(g, c, p) == s
        else:
            found += 1
            assert (b.depth, b.table) == (want.depth, want.table)
            assert transfer_obstruction(space, g, c) is None
    assert found > 200 and refuted > 200


def test_find_transfer_builds_no_deeper_table():
    full4 = build_shift_space([[1] * 4] * 4)
    rng = random.Random(3)
    g = CylinderFunction(full4, 3, {w: rng.randint(0, 2) for w in full4.words(3)})
    assert find_transfer(full4, g, 1) is None
    assert transfer_obstruction(full4, g, 1) is not None
    assert max(full4._words) == 3
