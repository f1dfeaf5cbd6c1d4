import random
import time
import tracemalloc
from fractions import Fraction
from collections import Counter
from itertools import combinations, permutations, product
from math import gcd, isqrt

import numpy as np
import pytest

from orbiteq import (
    InvalidPartition,
    OrbiteqError,
    ShiftSpace,
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
    invariant_report,
    obstruction_report,
    out_split,
    smith_normal_form,
    total_amalgamation,
    verify_inverse_pair,
)
from orbiteq import cli, invariants, shifts
from orbiteq.functions import _least_table
from orbiteq.maps import _composite_mismatch
from orbiteq.generators import random_shift_space, random_single_split, split_chain

from golden import bench_cases


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


def reference_smith(m):
    """The row-by-row Smith normal form that ``smith_normal_form`` must reproduce
    exactly: the same pivot rule and the same row and column operations,
    with a generator ``sum`` per product entry and every operation done
    on every row."""
    a = [[int(x) for x in row] for row in m]
    m_int = [row[:] for row in a]
    rows, cols = len(a), (len(a[0]) if a else getattr(m, "shape", (0,))[-1])
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    for s in range(min(rows, cols)):
        while True:
            nonzero = [
                (abs(a[i][j]), i, j)
                for i in range(s, rows)
                for j in range(s, cols)
                if a[i][j]
            ]
            if not nonzero:
                break
            _, i, j = min(nonzero)
            a[s], a[i] = a[i], a[s]
            u[s], u[i] = u[i], u[s]
            for x in a + v:  # swap columns s and j of a and v
                x[s], x[j] = x[j], x[s]
            p = a[s][s]
            for i in range(s + 1, rows):
                if a[i][s]:
                    row_op(i, s, a[i][s] // p)
            for j in range(s + 1, cols):
                if a[s][j]:
                    col_op(j, s, a[s][j] // p)
            if any(a[i][s] for i in range(s + 1, rows)) or any(a[s][s + 1 :]):
                continue  # a remainder is left: pivot on it
            bad = next(
                (i for i in range(s + 1, rows) for j in range(s + 1, cols)
                 if a[i][j] % p),
                None,
            )
            if bad is None:
                break
            row_op(s, bad, -1)  # row_s += row_bad
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            u[s] = [-x for x in u[s]]

    assert matmul(matmul(u, m_int), v) == a
    return u, a, v


def compare_pool_matrices(seed):
    """``I - A`` of every space of the ``invariants-compare`` cases."""
    for build in bench_cases().WORKLOADS["invariants-compare"](seed):
        for space in build().args:
            yield (np.eye(space.n, dtype=int) - space.matrix.entries).tolist()


def random_smith_inputs(rng):
    """Rows-free, column-free, rectangular and square integer matrices,
    entries -4..4."""
    for k in range(4):
        yield np.zeros((0, k), dtype=int)
        yield [[] for _ in range(k)]
    for _ in range(150):
        r, c = rng.randint(1, 9), rng.randint(1, 9)
        yield [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
    for n in range(1, 10):
        for _ in range(15):
            yield [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]


def test_smith_matches_the_row_by_row_reference():
    inputs = [*random_smith_inputs(random.Random(25)), *compare_pool_matrices(1)]
    assert len(inputs) > 1000
    for m in inputs:
        assert smith_normal_form(m) == reference_smith(m), m


def test_smith_checks_its_certificate_and_unimodularity(monkeypatch):
    def perturbed(a, b):
        out = matmul(a, b)
        out[0][0] += 1
        return out

    m = [[2, 4, 1], [6, 9, 0], [3, 3, 5]]
    with monkeypatch.context() as patch:
        patch.setattr(invariants, "_bareiss", lambda a: 2)
        with pytest.raises(AssertionError, match="not unimodular"):
            smith_normal_form(m)
    with monkeypatch.context() as patch:
        patch.setattr(invariants, "_matmul", perturbed)
        with pytest.raises(AssertionError, match="certificate failed"):
            smith_normal_form(m)
    _, d, _ = smith_normal_form(m)  # unpatched, both checks pass
    assert d == [[1, 0, 0], [0, 1, 0], [0, 0, 39]]  # det m = -39


@pytest.mark.parametrize(
    "call,m",
    [
        (total_amalgamation, [[1, 1.5], [1, 0]]),
        (lambda m: find_isomorphism(m, [[2]]), [[2.9]]),
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


@pytest.mark.parametrize(
    "call,m,message",
    [
        (exact_det, [[1, 2, 3], [4, 5, 6]], "not square"),
        (exact_det, [[1, 2], [3, 4], [5, 6]], "not square"),
        (exact_det, [[1, 2], [3]], "not square"),
        (smith_normal_form, [[1], [2, 3]], "rows differ in length"),
        (smith_normal_form, [[1, 2], [3]], "rows differ in length"),
        (total_amalgamation, [[1, 1, 1], [1, 1, 1]], "not square"),
        (lambda m: find_isomorphism(m, [[1, 1], [1, 0]]), [[1, 1], [1]], "not square"),
        (lambda m: find_isomorphism([[2]], m), [[2, 1]], "not square"),
    ],
)
def test_misshapen_matrices_are_rejected(call, m, message):
    # these used to answer for a truncated matrix or raise IndexError
    with pytest.raises(ValueError, match=message):
        call(m)


def test_integral_entries_of_other_types_are_read_as_ints():
    # an entry equal to an integer is that integer, whatever its type
    assert exact_det([[2.0, True], [np.int64(1), 1]]) == 1
    assert smith_normal_form(np.array([[4.0, 0.0], [0.0, 6.0]]))[1] == [[2, 0], [0, 12]]
    assert find_isomorphism([[np.int8(1), 1.0], [1, 0]], [[0, 1], [1, 1]]) is not None


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


def fraction_det(m):
    """Gaussian elimination over the rationals; independent of the
    library's fraction-free elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(len(a)):
        i = next((i for i in range(k, len(a)) if a[i][k]), None)
        if i is None:
            return 0
        if i != k:
            a[k], a[i], det = a[i], a[k], -det
        det *= a[k][k]
        for row in a[k + 1 :]:
            f = row[k] / a[k][k]
            row[k:] = [x - f * y for x, y in zip(row[k:], a[k][k:])]
    assert det.denominator == 1
    return int(det)


def oracle_matrices(rng):
    """Seeded integer matrices up to 6 x 6 of every shape: dense; sparse,
    with zero rows; unit upper triangular, so every pivot is 1 and the rows
    under it hold zeros; entries in {0, 2, 3, 4, 6} and their negatives,
    so no pivot is a unit and some do not divide what follows; and rank
    deficient."""
    for kind in ("dense", "sparse", "unit", "nonunit", "rank") * 16:
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        if kind == "dense":
            m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        elif kind == "sparse":
            m = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(c)] for _ in range(r)]
            m[rng.randrange(r)] = [0] * c
        elif kind == "unit":
            m = [
                [int(i == j) if j <= i else rng.randint(-3, 3) for j in range(c)]
                for i in range(r)
            ]
            m = [row[::-1] for row in m[::-1]] if rng.random() < 0.3 else m
        elif kind == "nonunit":
            entries = [0, 2, 3, 4, 6, -2, -3]
            m = [[rng.choice(entries) for _ in range(c)] for _ in range(r)]
        else:
            base = [rng.randint(-4, 4) for _ in range(c)]
            m = [[x * rng.randint(-2, 2) for x in base] for _ in range(r)]
            if r > 1:
                m[-1] = [x + y for x, y in zip(m[0], m[1 % r])]
        yield m


def test_exact_kernels_against_rational_and_minor_oracles():
    squares = 0
    for m in oracle_matrices(random.Random(2031)):
        rows, cols = len(m), len(m[0])
        if rows == cols:
            squares += 1
            assert exact_det(m) == fraction_det(m), m
        u, d, v = smith_normal_form(m)
        assert matmul(matmul(u, m), v) == d
        assert abs(fraction_det(u)) == abs(fraction_det(v)) == 1
        assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        prod = 1
        for k, dk in enumerate(determinantal_divisors(m)):
            prod *= d[k][k]
            assert prod == dk, m
    assert squares > 10


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


def test_bowen_franks_matches_transpose_smith_form(monkeypatch):
    # reference: the Smith normal form of I - A^T itself, not of I - A;
    # its zeros are the rank of K1 = ker(I - A^T).  Some spaces are read
    # off a squarefree det(I - A), the others through the Smith form.
    calls = []

    def counted(m):
        calls.append(m)
        return smith_normal_form(m)

    monkeypatch.setattr(invariants, "smith_normal_form", counted)
    rng = random.Random(5)
    for _ in range(100):
        space = random_shift_space(rng, rng.randint(2, 12))
        m = (np.eye(space.n, dtype=int) - np.array(space.matrix.entries).T).tolist()
        _, d, _ = smith_normal_form(m)
        diag = [d[i][i] for i in range(space.n)]
        factors, _ = bowen_franks(space)
        assert factors == tuple(x for x in diag if x != 1)
        assert factors.count(0) == diag.count(0)
    assert 0 < len(calls) < 100


def test_squarefree_matches_its_definition():
    for n in range(1, 20001):
        brute = all(n % (k * k) for k in range(2, isqrt(n) + 1))
        assert invariants._squarefree(n) is brute, n


def test_bowen_franks_tells_apart_pairs_of_one_det():
    # |det(I - A)| = 4 on both, so both take the Smith form: Z/2 + Z/2
    # against Z/4 obstructs every rung though the dets agree
    a = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    b = [[0, 1, 1], [1, 0, 1], [1, 1, 1]]
    assert bowen_franks(a) == ((2, 2), -1)
    assert bowen_franks(b) == ((4,), -1)
    assert obstruction_report(a, b).obstructed


def test_bowen_franks_reads_plain_rows_and_survives_amalgamation():
    assert bowen_franks([[1, 1], [1, 1]]) == ((), -1)
    assert invariant_report([[1, 1], [1, 1]]) == ((), -1)
    spaces = [
        space
        for build in bench_cases().WORKLOADS["invariants-compare"](1)
        for space in build().args
    ]
    assert len(spaces) > 1000
    for space in spaces:
        rows = total_amalgamation(space)
        assert bowen_franks(rows) == bowen_franks(space), space.matrix.entries


def test_bowen_franks_sign_matches_exact_det():
    # the reference is the determinant of I - A itself, computed apart
    # from bowen_franks
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


def test_bowen_franks_off_the_terminal_matches_the_smith_form_of_i_minus_a():
    # integer rows of either sign, some with equal columns forced: the
    # reference is the Smith diagonal of the full I - A, and the sign of
    # its exact determinant, neither of them amalgamated
    rng = random.Random(38)
    merged, zeros, factors = 0, 0, set()
    for _ in range(400):
        n = rng.randint(2, 8)
        rows = [[rng.randint(-2, 3) for _ in range(n)] for _ in range(n)]
        for _ in range(rng.choice([0, 0, 1, 2])):
            p, q = rng.sample(range(n), 2)
            for row in rows:
                row[q] = row[p]
        i_a = [[(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(rows)]
        _, d, _ = smith_normal_form(i_a)
        diag = tuple(x for x in (d[i][i] for i in range(n)) if x != 1)
        det = exact_det(i_a)
        assert bowen_franks(rows) == (diag, (det > 0) - (det < 0)), rows
        merged += len(total_amalgamation(rows)) < n
        zeros += 0 in diag
        factors.add(len(diag) - diag.count(0))
    assert merged > 150 and zeros > 10 and {0, 1, 2} <= factors


RUNGS = ("coe", "strong_coe", "eventual_conjugacy", "conjugacy")


def fresh(x):
    """A copy of a shift space that keeps nothing; plain rows as they are,
    since nothing is kept for them."""
    return build_shift_space(x.matrix.entries) if isinstance(x, ShiftSpace) else x


def two_reports(a, b):
    """The obstruction report built from two invariant reports, each of a
    fresh copy."""
    ra, rb = invariant_report(fresh(a)), invariant_report(fresh(b))
    return invariants.ObstructionReport(ra, rb, dict.fromkeys(RUNGS, ra != rb))


def relabelled(space, rng):
    order = rng.sample(range(space.n), space.n)
    m = space.matrix.entries
    return build_shift_space([[m[i][j] for j in order] for i in order])


def test_kept_amalgamation_is_invisible():
    # each matrix keeps its amalgamation once asked; that changes neither
    # its equality, hash nor repr, and codes built on spaces that already
    # hold it, in either direction, are those of spaces built afresh
    rng = random.Random(39)
    kept = 0
    for _ in range(30):
        base = random_shift_space(rng, rng.randint(2, 6))
        split, _, _ = split_chain(rng, base, max_splits=2)
        split = relabelled(split, rng)  # so the matched perm moves
        pair = (base, split)
        seen = [(hash(s.matrix), repr(s.matrix)) for s in pair]
        for a, b in (pair, pair[::-1], pair):
            assert not obstruction_report(a, b).obstructed
            assert decide_one_sided_conjugacy(a, b)
            got = conjugacy_from_amalgamation(a, b)
            expected = conjugacy_from_amalgamation(fresh(a), fresh(b))
            for h, g in zip(got, expected):
                assert (h.window, h.table) == (g.window, g.table)
        for s, (h, r) in zip(pair, seen):
            assert "_amalgamation" in vars(s.matrix)
            assert s.matrix._amalgamation.matched[0] is not None  # and the match
            other = build_shift_space(s.matrix.entries).matrix  # keeps nothing
            now = hash(s.matrix), repr(s.matrix)
            assert now == (h, r) == (hash(other), repr(other))
            assert s.matrix == other and other == s.matrix
        kept += total_amalgamation(split) is total_amalgamation(split)
    assert kept == 30


def test_shared_report_matches_two_fresh_reports(monkeypatch):
    # when the terminals match, b's report is a's; it must equal the one
    # read off b itself, on the bench pool, on relabelled splits, on plain
    # rows and when one side is above the matching cap
    rng = random.Random(41)
    pairs = [tuple(build().args) for build in
             bench_cases().WORKLOADS["invariants-compare"](1)]
    for _ in range(40):
        base = random_shift_space(rng, rng.randint(2, 5))
        split, _, _ = split_chain(rng, base, max_splits=2)
        pairs += [(base, relabelled(split, rng)), (relabelled(split, rng), base)]
        pairs.append(tuple(s.matrix.entries.tolist() for s in (base, split)))
    shared = 0
    for a, b in pairs:
        got = obstruction_report(a, b)
        assert got == two_reports(a, b), (a, b)
        shared += got.left is got.right
    assert 300 < shared < len(pairs)

    big = random_shift_space(rng, invariants.MAX_MATCH_STATES + 1)
    small = random_shift_space(rng, 3)
    big_pairs = [(big, small), (small, big), (big, relabelled(big, rng))]
    big_pairs.append(tuple(s.matrix.entries.tolist() for s in big_pairs[-1]))

    def no_search(*args):
        raise AssertionError("no match is tried above the cap")

    monkeypatch.setattr(invariants, "_find_iso", no_search)
    for a, b in big_pairs:
        assert obstruction_report(a, b) == two_reports(a, b)


def test_kept_match_is_never_stale():
    # one space matched in turn against its split, an unrelated space of
    # the split's size and a relabelled split, in both orders and twice
    # round, decides and builds as fresh spaces do
    rng = random.Random(43)
    conjugate = 0
    for _ in range(25):
        space = random_shift_space(rng, rng.randint(2, 5))
        split, _, _ = split_chain(rng, space, max_splits=2)
        unrelated = random_shift_space(rng, split.n)
        partners = (split, unrelated, relabelled(split, rng))
        for other in partners + partners:
            for a, b in ((space, other), (other, space)):
                fa, fb = fresh(a), fresh(b)
                assert obstruction_report(a, b) == obstruction_report(fa, fb)
                decided = decide_one_sided_conjugacy(a, b)
                assert decided == decide_one_sided_conjugacy(fa, fb)
                got = conjugacy_from_amalgamation(a, b)
                expected = conjugacy_from_amalgamation(fa, fb)
                assert (got is None) == (expected is None) == (not decided)
                if got is not None:
                    conjugate += 1
                    for h, g in zip(got, expected):
                        assert (h.window, h.table) == (g.window, g.table)
    assert conjugate >= 4 * 25 * 2


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
    assert find_isomorphism(sp, golden) is not None
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
    assert find_isomorphism(total_amalgamation(golden), golden.matrix) is not None
    sp, _, _ = out_split(golden, {1: [(1,), (2,)]})
    assert find_isomorphism(total_amalgamation(sp), golden.matrix) is not None
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
        assert find_isomorphism(term, base_term) is not None


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


def least_isomorphism(a, b):
    """Brute force: the first permutation, in ``permutations`` order, with
    ``a[i][j] == b[perm[i]][perm[j]]``, or None."""
    n = len(a)
    if n != len(b):
        return None
    for perm in permutations(range(n)):
        if all(a[i][j] == b[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            return list(perm)
    return None


def relabel(rng, a):
    p = list(range(len(a)))
    rng.shuffle(p)
    return [[a[p[i]][p[j]] for j in range(len(a))] for i in range(len(a))]


def switch(rng, a, top):
    """``a`` after at most one random switch that keeps every row and
    column sum: ``a[i][j]`` and ``a[k][l]`` go down by one, ``a[i][l]``
    and ``a[k][j]`` up by one, each entry kept within ``0..top``."""
    a = [list(row) for row in a]
    for _ in range(20 if len(a) > 1 else 0):
        (i, k), (j, l) = rng.sample(range(len(a)), 2), rng.sample(range(len(a)), 2)
        if a[i][j] and a[k][l] and a[i][l] < top and a[k][j] < top:
            a[i][j] -= 1
            a[k][l] -= 1
            a[i][l] += 1
            a[k][j] += 1
            break
    return a


def test_find_isomorphism_is_the_least_permutation():
    rng = random.Random(35)
    found = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        a = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        others = [relabel(rng, a), relabel(rng, switch(rng, a, 2)), a]
        others.append([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
        for b in others:
            want = least_isomorphism(a, b)
            assert find_isomorphism(a, b) == want
            found += want is not None
    assert 400 <= found < 1600


def closed_walks(a):
    """Traces of ``a**1`` to ``a**6``: equal for isomorphic matrices."""
    m = np.array(a)
    return [int(np.trace(np.linalg.matrix_power(m, k))) for k in range(1, 7)]


def colours(a):
    return sorted((sum(row), sum(col), row[i]) for i, (row, col) in enumerate(zip(a, zip(*a))))


def test_matching_at_the_cap_refutes_equal_degree_pairs_quickly():
    # 12-state pairs with equal colours that closed walks prove
    # non-isomorphic: circulants C(12, S) for 3-element sets S, and
    # row-regular 0-1 matrices against their relabelled switches
    n = 12
    rng = random.Random(12)
    circulants = [
        [[int((j - i) % n in s) for j in range(n)] for i in range(n)]
        for s in rng.sample(list(combinations(range(1, n), 3)), 24)
    ]
    pairs = [(a, relabel(rng, b)) for a, b in combinations(circulants, 2)
             if closed_walks(a) != closed_walks(b)]
    assert len(pairs) > 250
    while len(pairs) < 600:
        a = [[int(j in cols) for j in range(n)] for cols in
             (rng.sample(range(n), 3) for _ in range(n))]
        b = a
        for _ in range(rng.randint(1, 6)):
            b = switch(rng, b, 1)
        if colours(a) == colours(b) and closed_walks(a) != closed_walks(b):
            pairs.append((a, relabel(rng, b)))
    start = time.perf_counter()
    for a, b in pairs:
        assert find_isomorphism(a, b) is None
    assert time.perf_counter() - start < 2.0


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
    assert find_isomorphism(total_amalgamation(a), total_amalgamation(b)) is not None
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


def test_amalgamation_checks_build_no_longer_word_tables(monkeypatch):
    # a 9-state base and the out-split of one state's followers in three
    # blocks: checking each code, and each composite, reads the words the
    # search for the code already built, and caches no longer table
    def keeps_depths(call):
        def checked(*args):
            # compile_block_code takes the spaces, _composite_mismatch two codes
            codes = [x for x in args if hasattr(x, "table")]
            spaces = [x for x in args if isinstance(x, ShiftSpace)]
            spaces += [s for code in codes for s in (code.source, code.target)]
            depths = [max(space._words) for space in spaces]
            out = call(*args)
            assert [max(space._words) for space in spaces] == depths
            return out

        return checked

    for name in ("compile_block_code", "_composite_mismatch"):
        monkeypatch.setattr(invariants, name, keeps_depths(getattr(invariants, name)))
    windows = []
    for seed in range(6):
        rng = random.Random(seed)
        base = random_shift_space(rng, 9, density=0.4)
        fols = base.matrix.followers
        i, f = next((i, f) for i, f in enumerate(fols, 1) if len(f) > 2)
        split, _, _ = out_split(base, {i: [f[:1], f[1:2], f[2:]]})
        a = build_shift_space(base.matrix.entries)  # fresh spaces, no words cached
        b = build_shift_space(split.matrix.entries)
        h, h_inv = conjugacy_from_amalgamation(a, b)
        assert (a.n, b.n) == (9, 11)
        windows.append(max(a._words) == h.window)
    # mostly the search stops at the code's own window, so a longer table
    # could only have come from a check
    assert windows.count(True) >= 4
    # the search builds no word table: each space holds the words of the
    # code it is the source of, and no longer ones for the other code
    monkeypatch.undo()
    for build in bench_cases().WORKLOADS["invariants-compare"](1):
        case = build()
        if case.id.startswith("split-pair-"):
            a, b = (build_shift_space(s.matrix.entries) for s in case.args)
            h, h_inv = conjugacy_from_amalgamation(a, b)
            assert (max(a._words), max(b._words)) == (h.window, h_inv.window), case.id
            if case.id == "split-pair-106":
                assert (h.window, h_inv.window) == (5, 2)


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


def reference_least_table(d, table):
    """``functions._least_table`` on a dict: a depth-``d`` word table
    lowered while it is constant on the prefixes one symbol shorter."""
    while d > 1:
        shorter = {}
        for w, x in table.items():
            if shorter.setdefault(w[:-1], x) != x:
                return d, table
        d, table = d - 1, shorter
    return d, table


def reference_code_through(source, source_edge, target, target_edge):
    """``invariants._code_through`` with every word's edge labels read off
    from scratch at every window length.  Both spaces' word tables are
    built at each length, the target's first, so a word table cap is hit
    at the length and on the space where the library checks it."""
    def labels(edge, w):
        return tuple(edge[w[i : i + 2]] for i in range(len(w) - 1))

    for window in range(2, target.n + 2):
        target_words, source_words = target.words(window), source.words(window)
        first = {}
        if all(
            first.setdefault(labels(target_edge, w), w[0]) == w[0]
            for w in target_words
        ):
            break
    else:
        raise AssertionError("edge labels do not determine the target symbol")
    table = {w: first[labels(source_edge, w)] for w in source_words}
    return compile_block_code(source, target, *reference_least_table(window, table))


def test_least_table_in_word_order_matches_the_dict_loop():
    rng = random.Random(32)
    depths = []
    for _ in range(60):
        space = random_shift_space(rng, rng.randint(2, 5))
        d = rng.randint(1, 4)
        least = rng.randint(1, d)  # the depth the values are drawn at
        drawn = {w: rng.randint(0, 2) for w in space.words(least)}
        table = {w: drawn[w[:least]] for w in space.words(d)}
        if rng.random() < 0.5:  # changed on the extensions of one k-word
            k = rng.randint(least, d)
            u = rng.choice(space.words(k))
            table = {w: x + (w[:k] == u) for w, x in table.items()}
        expected_depth, expected = reference_least_table(d, table)
        got_depth, values = _least_table(space, d, [table[w] for w in space.words(d)])
        assert got_depth == expected_depth
        assert dict(zip(space.words(got_depth), values)) == expected
        depths.append((d, least, got_depth))
    assert {x for d, _, x in depths if d == 4} == {1, 2, 3, 4}
    # lowered part of the way: below d, but not down to the drawn depth
    assert any(least < x < d for d, least, x in depths)


def reference_codes_through(a, edge_a, b, edge_b):
    """``invariants._codes_through`` as one reference code per direction."""
    return (
        reference_code_through(a, edge_a, b, edge_b),
        reference_code_through(b, edge_b, a, edge_a),
    )


def test_codes_through_terminals_match_the_per_word_labels(monkeypatch):
    rng = random.Random(31)
    pairs = []
    for _ in range(40):
        base = random_shift_space(rng, rng.randint(2, 9))
        split, _, _ = split_chain(rng, base, max_splits=min(3, 12 - base.n))
        pairs += [(base, split), (split, base)]
    found = [conjugacy_from_amalgamation(a, b) for a, b in pairs]
    monkeypatch.setattr(invariants, "_codes_through", reference_codes_through)
    for (a, b), codes in zip(pairs, found):
        expected = conjugacy_from_amalgamation(a, b)
        for h, g in zip(codes, expected):
            assert (h.window, h.table) == (g.window, g.table)
    assert max(h.window for codes in found for h in codes) >= 4


def codes_outcome(build, a, edge_a, b, edge_b):
    """The windows and tables of the codes ``build`` reads on fresh copies
    of the two spaces, or the ``TooLarge`` it raises."""
    try:
        codes = build(fresh(a), edge_a, fresh(b), edge_b)
    except TooLarge as e:
        return [("TooLarge", str(e))]
    return [(h.window, h.table) for h in codes]


def test_codes_through_match_the_reference_on_the_compare_pool(monkeypatch):
    # every split pair of the bench pool at two seeds, each code built on
    # fresh spaces; under a low word table cap both raise the same TooLarge
    codes_through = invariants._codes_through
    outcomes, windows = [], []

    def both(*args):
        for limit in (40, 150, 10**6):
            with monkeypatch.context() as m:
                m.setattr(invariants, "WORD_TABLE_LIMIT", limit)
                m.setattr(shifts, "WORD_TABLE_LIMIT", limit)
                expected = codes_outcome(reference_codes_through, *args)
                assert codes_outcome(codes_through, *args) == expected
            outcomes.extend(x for x, _ in expected)
        windows.extend(x for x, _ in expected)  # at the real cap
        return codes_through(*args)

    monkeypatch.setattr(invariants, "_codes_through", both)
    for seed in (1, 7):
        for build in bench_cases().WORKLOADS["invariants-compare"](seed):
            case = build()
            if case.id.startswith("split-pair-"):
                h, h_inv = conjugacy_from_amalgamation(*case.args)
                if case.id == "split-pair-106":
                    assert (h.window, h_inv.window) == ((5, 2), (4, 1))[seed == 7]
    assert len(windows) == 2 * 2 * 400 and max(windows) == 5
    assert outcomes.count("TooLarge") > 100
    assert len(set(outcomes)) > 3


def test_codes_through_match_the_reference_on_sibling_splits(monkeypatch):
    # two different splittings of one base, both ways round: from a split
    # back to its own base the code never needs window 3, between siblings
    # both directions can; under a low word table cap both raise alike
    codes_through = invariants._codes_through
    outcomes, windows = [], []

    def both(*args):
        for limit in (40, 150, invariants.WORD_TABLE_LIMIT):
            with monkeypatch.context() as m:
                m.setattr(invariants, "WORD_TABLE_LIMIT", limit)
                m.setattr(shifts, "WORD_TABLE_LIMIT", limit)
                expected = codes_outcome(reference_codes_through, *args)
                assert codes_outcome(codes_through, *args) == expected
            outcomes.append(expected[0][0])
        windows.append(tuple(x for x, _ in expected))  # at the real cap
        return codes_through(*args)

    monkeypatch.setattr(invariants, "_codes_through", both)
    rng = random.Random(42)
    for _ in range(60):
        base = random_shift_space(rng, rng.randint(2, 6))
        s, t = (split_chain(rng, base, max_splits=3)[0] for _ in "st")
        if s != t:
            assert conjugacy_from_amalgamation(s, t) is not None
            assert conjugacy_from_amalgamation(t, s) is not None
    assert any(min(w) >= 3 for w in windows)
    assert "TooLarge" in outcomes and len(set(outcomes)) > 3


def test_edge_labels_run_in_word_order():
    # _codes_through reads the labels onto the 2-words by position; the
    # words are built on a copy, so no table is added to the space itself
    rng = random.Random(44)
    spaces = [
        space
        for build in bench_cases().WORKLOADS["invariants-compare"](1)
        for space in build().args
    ]
    spaces += [random_shift_space(rng, rng.randint(2, 9)) for _ in range(100)]
    for space in spaces:
        assert list(invariants._amalgamation(space).edge) == list(
            fresh(space).words(2)
        )
        assert max(space._words) == 1


def test_bent_edge_labels_raise_or_still_give_inverse_codes():
    # one 2-word of either space gets another terminal edge's label: the
    # pair must raise or still verify; a label on no terminal edge is named
    # by an AssertionError, as is a label the bend left on no 2-word
    rng = random.Random(45)
    outcomes = Counter()
    builds = bench_cases().WORKLOADS["invariants-compare"](1)[:400]
    for build, unknown in product(builds, (False, True)):
        a, b = build().args
        am_a, am_b = invariants._amalgamation(a), invariants._amalgamation(b)
        perm = invariants._match(am_a, am_b)
        bent = rng.choice((am_a, am_b))
        edge = dict(bent.edge)
        w = rng.choice(list(edge))
        s, d, k = edge[w]
        edge[w] = (s, d, k + 1000) if unknown else rng.choice(
            sorted(set(edge.values()) - {edge[w]})
        )
        vars(bent)["edge"] = edge  # in place of the labels the matrix keeps
        if unknown:
            if bent is am_a:
                s, d = perm[s], perm[d]
            with pytest.raises(AssertionError) as raised:
                conjugacy_from_amalgamation(a, b)
            # a's labels are read first, so a label that b lost comes first
            named = {f"unknown edge label {(s, d, k + 1000)}": "bent label named"}
            if bent is am_b:
                named[f"unknown edge label {(s, d, k)}"] = "lost label named"
            assert str(raised.value) in named
            outcomes[named[str(raised.value)]] += 1
            continue
        try:
            codes = conjugacy_from_amalgamation(a, b)
        except (AssertionError, OrbiteqError) as e:
            outcomes[type(e).__name__] += 1
        else:
            assert verify_inverse_pair(*codes) == (True, None)
            outcomes["inverse"] += 1
    assert set(outcomes) == {
        "bent label named", "lost label named", "AssertionError",
        "ImageInadmissible", "TooLarge", "inverse",
    }


def test_conjugacy_from_amalgamation_takes_rows_matrices_and_spaces():
    rows = lambda space: space.matrix.entries.tolist()  # noqa: E731
    rng = random.Random(26)
    pairs = []
    for _ in range(6):
        base = random_shift_space(rng, rng.randint(2, 4))
        split, _, _ = split_chain(rng, base, max_splits=2)
        other = random_shift_space(rng, split.n)
        pairs += [(base, split), (split, base), (split, other)]
    decided = []
    for a, b in pairs:
        forms = [
            conjugacy_from_amalgamation(x, y)
            for x, y in ((a, b), (a.matrix, b.matrix), (rows(a), rows(b)))
        ]
        tables = [codes and [(h.window, h.table) for h in codes] for codes in forms]
        assert tables[0] == tables[1] == tables[2]
        assert (forms[0] is not None) is decide_one_sided_conjugacy(a, b)
        decided.append(forms[0] is not None)
    assert True in decided and False in decided


def test_matching_cap_checked_before_copying_rows():
    rows = [[1] * 3000] * 3000
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            find_isomorphism(rows, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_compare_reads_one_smith_form_and_one_amalgamation_per_matrix(
    golden, monkeypatch
):
    # det(I - A) is -1 on golden and its split, so their factors are read
    # off it; it is -4 on the triangle and 0 on the path with loops at its
    # ends, so the report of each of those takes one Smith form, and the
    # split, whose terminal matches, shares it.  Each matrix's columns are
    # merged once and the terminals matched once, by the report, and the
    # conjugacy grows both codes' label paths once; so does the CLI's
    # compare on fresh spaces
    triangle = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    looped = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    for rows, blocks, smith_forms in (
        (golden.matrix.entries, [(1,), (2,)], 0),
        (triangle, [(2,), (3,)], 1),
        (looped, [(1,), (2,)], 1),
    ):
        calls = dict.fromkeys(
            ("smith_normal_form", "_merge_columns", "_find_iso", "_codes_through"), 0
        )
        with monkeypatch.context() as patch:
            for name in calls:
                def counted(*args, name=name, call=getattr(invariants, name)):
                    calls[name] += 1
                    return call(*args)

                patch.setattr(invariants, name, counted)
            base = build_shift_space(rows)
            split, _, _ = out_split(base, {1: blocks})
            assert not obstruction_report(base, split).obstructed
            assert calls == {
                "smith_normal_form": smith_forms, "_merge_columns": 2,
                "_find_iso": 1, "_codes_through": 0,
            }
            assert decide_one_sided_conjugacy(base, split)
            assert conjugacy_from_amalgamation(base, split) is not None
            assert calls == {
                "smith_normal_form": smith_forms, "_merge_columns": 2,
                "_find_iso": 1, "_codes_through": 1,
            }
            for name in calls:
                calls[name] = 0
            payload, _, code = cli.cmd_compare(fresh(base), fresh(split))
            assert payload["oneSidedConjugate"] is True and code == cli.EXIT_OK
            assert calls == {
                "smith_normal_form": smith_forms, "_merge_columns": 2,
                "_find_iso": 1, "_codes_through": 1,
            }


def test_invariance_under_splits():
    rng = random.Random(11)
    for _ in range(20):
        base = random_shift_space(rng, rng.choice([2, 3]))
        space, _, _ = random_single_split(rng, base)
        assert bowen_franks(space) == bowen_franks(base)
