import random
from itertools import combinations
from math import gcd

import numpy as np
import pytest

from orbiteq import (
    InvalidPartition,
    TooLarge,
    amalgamation_terminals,
    bowen_franks,
    build_shift_space,
    classify,
    compile_block_code,
    compose_block_codes,
    conjugacy_from_amalgamation,
    decide_one_sided_conjugacy,
    exact_det,
    find_isomorphism,
    identity_code,
    matrices_isomorphic,
    obstruction_report,
    out_split,
    smith_normal_form,
    total_amalgamation,
    verify_inverse_pair,
)
from orbiteq.maps import _composite_mismatch
from orbiteq.generators import random_shift_space, random_single_split


def minor_det(m):
    """Cofactor-expansion determinant; independent of the library's."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * minor_det(sub)
    return total


def matmul(a, b):
    cols = len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


# --- Smith normal form -------------------------------------------------------


def test_snf_identity():
    u, d, v = smith_normal_form([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]
    assert u == [[1, 0], [0, 1]] and v == [[1, 0], [0, 1]]


def test_snf_gcd_structure():
    u, d, v = smith_normal_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    assert matmul(matmul(u, [[2, 0], [0, 3]]), v) == d


def test_snf_full3(full3):
    m = (np.eye(3, dtype=int) - full3.matrix.entries).tolist()
    u, d, v = smith_normal_form(m)
    assert [d[i][i] for i in range(3)] == [1, 1, 2]


def test_snf_certificates_random():
    rng = random.Random(99)
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        u, d, v = smith_normal_form(m)
        assert matmul(matmul(u, m), v) == d
        assert abs(minor_det(u)) == 1
        assert abs(minor_det(v)) == 1
        diag = [d[i][i] for i in range(min(r, c))]
        nonzero = [x for x in diag if x]
        assert diag == nonzero + [0] * (len(diag) - len(nonzero))  # zeros last
        assert all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0


@pytest.mark.parametrize("m", [[], [[]], [[], []]])
def test_snf_of_empty_matrices(m):
    rows, cols = len(m), len(m[0]) if m else 0
    u, d, v = smith_normal_form(m)
    assert u == [[int(i == j) for j in range(rows)] for i in range(rows)]
    assert v == [[int(i == j) for j in range(cols)] for i in range(cols)]
    assert d == m
    assert matmul(matmul(u, m), v) == d
    assert exact_det(u) == exact_det(v) == 1


def test_snf_of_array_without_rows_keeps_its_columns():
    u, d, v = smith_normal_form(np.zeros((0, 3), dtype=int))
    assert (u, d) == ([], [])
    assert v == [[int(i == j) for j in range(3)] for i in range(3)]


def test_exact_det_of_empty_matrix_is_one():
    assert exact_det([]) == 1


@pytest.mark.parametrize(
    "call,m",
    [
        (total_amalgamation, [[1, 1.5], [1, 0]]),
        (lambda m: matrices_isomorphic(m, [[2]]), [[2.9]]),
        (lambda m: find_isomorphism([[2]], m), [[2.9]]),
        (exact_det, [[1.5, 0], [0, 1]]),
        (smith_normal_form, [[1.5]]),
        (smith_normal_form, [["2"]]),
        (exact_det, [["1", 0], [0, 1]]),
        (total_amalgamation, [["1", 1], [1, 0]]),
    ],
)
def test_non_integer_entries_are_rejected(call, m):
    with pytest.raises(ValueError, match="not an integer"):
        call(m)


def test_integral_entries_of_other_types_are_read_as_ints():
    # an entry equal to an integer is that integer, whatever its type
    assert exact_det([[2.0, True], [np.int64(1), 1]]) == 1
    assert smith_normal_form(np.array([[4.0, 0.0], [0.0, 6.0]]))[1] == [[2, 0], [0, 12]]
    assert matrices_isomorphic([[np.int8(1), 1.0], [1, 0]], [[0, 1], [1, 1]])


def determinantal_divisors(m):
    """``D_k``, the gcd of all k x k minors, for k = 1..min(rows, cols)."""
    rows, cols = len(m), len(m[0])
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                g = gcd(g, minor_det([[m[i][j] for j in ci] for i in ri]))
        out.append(g)
    return out


def assert_snf_matches_minors(m):
    # d_1 ... d_k = D_k, independently of how the diagonal was reached
    _, d, _ = smith_normal_form(m)
    prod = 1
    for k, dk in enumerate(determinantal_divisors(m)):
        prod *= d[k][k]
        assert prod == dk


def test_snf_against_determinantal_divisors():
    rng = random.Random(17)
    for _ in range(150):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        bound = rng.choice([2, 6, 30])
        m = [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.25:  # rank one, so trailing zeros occur
            m = [[x * rng.randint(-3, 3) for x in m[0]] for _ in range(r)]
        assert_snf_matches_minors(m)
    for _ in range(60):
        space = random_shift_space(rng, rng.randint(2, 5))
        assert_snf_matches_minors(
            (np.eye(space.n, dtype=int) - space.matrix.entries).tolist()
        )


def test_exact_det_against_minors():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert exact_det(m) == minor_det(m)


# --- invariants --------------------------------------------------------------


def test_bowen_franks_examples(full2, full3, golden):
    assert bowen_franks(full2) == ((), -1)
    assert bowen_franks(full3) == ((2,), -1)
    assert bowen_franks(golden) == ((), -1)


def test_k_theory_examples(full2, full3):
    # K0 = coker(I - A^T) is read from the Bowen-Franks factors: trivial for
    # the full 2-shift, Z/2 for the full 3-shift; neither has a free summand,
    # so the rank of K1 = ker(I - A^T) is 0
    k0, _ = bowen_franks(full2)
    assert (k0, k0.count(0)) == ((), 0)
    k0, _ = bowen_franks(full3)
    assert (k0, k0.count(0)) == ((2,), 0)


def test_bowen_franks_matches_transpose_smith_form():
    # reference: the Smith normal form of I - A^T itself, not of I - A;
    # its zeros are the rank of K1 = ker(I - A^T)
    rng = random.Random(5)
    for _ in range(100):
        space = random_shift_space(rng, rng.randint(2, 9))
        m = (np.eye(space.n, dtype=int) - np.array(space.matrix.entries).T).tolist()
        _, d, _ = smith_normal_form(m)
        diag = [d[i][i] for i in range(space.n)]
        factors, _ = bowen_franks(space)
        assert factors == tuple(x for x in diag if x != 1)
        assert factors.count(0) == diag.count(0)


def test_bowen_franks_sign_matches_exact_det():
    # the sign is read off the Smith certificate; the reference is the
    # determinant of I - A itself
    rng = random.Random(5)
    signs = set()
    for _ in range(200):
        space = random_shift_space(rng, rng.randint(2, 9))
        det = exact_det(np.eye(space.n, dtype=int) - np.array(space.matrix.entries))
        _, sign = bowen_franks(space)
        assert sign == (det > 0) - (det < 0)
        signs.add(sign)
    assert signs == {-1, 0, 1}


def test_bowen_franks_det_zero_instance():
    # det(I - A) vanishes here, so the kernel of I - A^T has rank >= 1
    space = build_shift_space([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    factors, sign = bowen_franks(space)
    assert sign == 0
    assert factors.count(0) >= 1


def test_nonzero_factor_product_matches_det(full3, golden):
    for space in (full3, golden):
        m = np.eye(space.n, dtype=int) - space.matrix.entries
        det = exact_det(m.tolist())
        factors, sign = bowen_franks(space)
        prod = 1
        for f in factors:
            if f:
                prod *= f
        assert prod == abs(det)
        assert sign == (0 if det == 0 else (1 if det > 0 else -1))


def test_obstruction_full2_vs_full3(full2, full3):
    rep = obstruction_report(full2, full3)
    assert rep.obstructed
    assert rep.ruled_out == {
        "coe": True,
        "strong_coe": True,
        "eventual_conjugacy": True,
        "conjugacy": True,
    }


def test_obstruction_reflexive_and_split(golden):
    assert not obstruction_report(golden, golden).obstructed
    sp, _, _ = out_split(golden, {1: [(1,), (2,)]})
    assert not obstruction_report(golden, sp).obstructed


# --- splitting and amalgamation ----------------------------------------------


def test_out_split_trivial_partition_is_relabeling(golden):
    sp, code, inverse = out_split(golden, {})
    assert sp.n == golden.n
    assert matrices_isomorphic(sp, golden)
    assert verify_inverse_pair(code, inverse)[0]


def test_out_split_golden(golden, cfg):
    sp, code, inverse = out_split(golden, {1: [(1,), (2,)]})
    assert sp.n == 3
    assert verify_inverse_pair(code, inverse)[0]
    assert classify(code, inverse, cfg).kind == "Conjugacy"


def test_out_split_rejects_bad_partitions(golden):
    with pytest.raises(InvalidPartition):
        out_split(golden, {1: [(1,), ()]})
    with pytest.raises(InvalidPartition):
        out_split(golden, {1: [(1,), (1, 2)]})
    with pytest.raises(InvalidPartition):
        out_split(golden, {1: [(1,)]})


def test_composed_splits_stay_conjugate(golden, cfg):
    sp, c1, i1 = out_split(golden, {1: [(1,), (2,)]})
    sp2, c2, i2 = out_split(sp, {2: [tuple(sp.matrix.followers[1])]})
    code = compose_block_codes(c2, c1)
    inverse = compose_block_codes(i1, i2)
    assert verify_inverse_pair(code, inverse)[0]
    assert classify(code, inverse, cfg).kind == "Conjugacy"


def test_total_amalgamation_examples(full2, golden):
    # full-2's equal columns merge into one state with two loops; golden's
    # columns differ, so nothing merges
    assert total_amalgamation(full2).tolist() == [[2]]
    assert matrices_isomorphic(total_amalgamation(golden), golden.matrix)
    sp, _, _ = out_split(golden, {1: [(1,), (2,)]})
    assert matrices_isomorphic(total_amalgamation(sp), golden.matrix)
    t = total_amalgamation(sp)
    assert isinstance(t, tuple) and all(isinstance(row, tuple) for row in t)


def numpy_total_amalgamation(rows):
    """Merge the first pair of equal columns until none is left, with numpy."""
    t = np.array(rows, dtype=int)
    while True:
        n = len(t)
        pair = next(
            ((p, q) for p in range(n) for q in range(p + 1, n)
             if (t[:, p] == t[:, q]).all()),
            None,
        )
        if pair is None:
            return t.tolist()
        p, q = pair
        t[p] += t[q]
        t = np.delete(np.delete(t, q, axis=0), q, axis=1)


def test_total_amalgamation_matches_numpy_reference():
    rng = random.Random(5)
    merged = 0
    for _ in range(60):
        base = random_shift_space(rng, rng.randint(2, 5))
        space = base
        for _ in range(rng.randint(1, 3)):
            space, _, _ = random_single_split(rng, space)
        for s in (base, space):
            ref = numpy_total_amalgamation(np.array(s.matrix.entries))
            assert total_amalgamation(s).tolist() == ref
            merged += len(ref) < s.n
    assert merged >= 60


def test_amalgamation_terminal_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        base = random_shift_space(rng, rng.choice([2, 3]))
        space, _, _ = random_single_split(rng, base)
        (term,) = amalgamation_terminals(space)
        (base_term,) = amalgamation_terminals(base)
        assert matrices_isomorphic(term, base_term)


def test_decide_examples(full2, full3, golden):
    sp, _, _ = out_split(golden, {1: [(1,), (2,)]})
    assert decide_one_sided_conjugacy(golden, sp) is True
    assert decide_one_sided_conjugacy(full2, full3) is False
    assert decide_one_sided_conjugacy(golden.matrix, golden.matrix) is True


def test_decide_too_large():
    n = 13
    rows = [[1] * n for _ in range(n)]
    big = build_shift_space(rows)
    with pytest.raises(TooLarge):
        decide_one_sided_conjugacy(big, big)


def test_isomorphism_finder(golden):
    perm_rows = [[0, 1], [1, 1]]  # golden with states swapped
    other = build_shift_space(perm_rows)
    perm = find_isomorphism(golden, other)
    assert perm is not None
    a = np.array(golden.matrix.entries)
    b = np.array(other.matrix.entries)
    for i in range(2):
        for j in range(2):
            assert a[i, j] == b[perm[i], perm[j]]


def test_conjugacy_from_amalgamation(golden, full2, full3, cfg):
    sp, _, _ = out_split(golden, {1: [(1,), (2,)]})
    pair = conjugacy_from_amalgamation(golden, sp)
    assert pair is not None
    h, h_inv = pair
    assert verify_inverse_pair(h, h_inv)[0]
    assert classify(h, h_inv, cfg).kind == "Conjugacy"
    assert conjugacy_from_amalgamation(full2, full3) is None
    same = conjugacy_from_amalgamation(golden, golden)
    assert same is not None and same[0] == identity_code(golden)


# conjugate, but only an amalgamation whose merged rows add (to entries
# above 1) brings the two matrices to the same terminal
OVERLAP_A = [[0, 0, 0, 1], [0, 0, 0, 1], [1, 1, 1, 1], [0, 1, 1, 0]]
OVERLAP_B = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 0, 1], [0, 1, 1, 0]]


def test_integer_amalgamation_joins_overlapping_rows(cfg):
    a, b = build_shift_space(OVERLAP_A), build_shift_space(OVERLAP_B)
    assert matrices_isomorphic(total_amalgamation(a), total_amalgamation(b))
    assert decide_one_sided_conjugacy(a, b) is True
    pair = conjugacy_from_amalgamation(a, b)
    assert pair is not None
    assert verify_inverse_pair(*pair)[0]
    assert classify(*pair, cfg).kind == "Conjugacy"


def test_amalgamation_codes_on_a_deep_split():
    # full-3 split nine times along its newest state; the trimmed windows
    # stay far below the eleven merges back to [[3]]
    full3 = build_shift_space([[1, 1, 1]] * 3)
    space = full3
    for _ in range(9):
        fol = space.matrix.followers[space.n - 1]
        space, _, _ = out_split(space, {space.n: [fol[:1], fol[1:]]})
    assert space.n == 12
    h, h_inv = conjugacy_from_amalgamation(full3, space)
    assert verify_inverse_pair(h, h_inv)[0]
    assert h.window + h_inv.window <= 8


def test_inverse_check_reads_every_composite_word(golden, full2):
    def undoes(outer, inner):
        return _composite_mismatch(outer, inner) is None

    sp, code, inverse = out_split(golden, {1: [(1,), (2,)]})
    assert undoes(inverse, code) and undoes(code, inverse)
    swap = compile_block_code(full2, full2, 1, {(1,): 2, (2,): 1})
    assert undoes(swap, swap)
    assert not undoes(identity_code(full2), swap)
    # a 2-block code that moves only the word (2, 2), on either side
    bend = compile_block_code(
        full2, full2, 2, {(1, 1): 1, (1, 2): 1, (2, 1): 2, (2, 2): 1}
    )
    assert not undoes(identity_code(full2), bend)
    assert not undoes(bend, identity_code(full2))


def test_invariance_under_splits():
    rng = random.Random(11)
    for _ in range(20):
        base = random_shift_space(rng, rng.choice([2, 3]))
        space, _, _ = random_single_split(rng, base)
        assert bowen_franks(space) == bowen_franks(base)
