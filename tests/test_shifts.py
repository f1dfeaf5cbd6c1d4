import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiteq import (
    InadmissibleWord,
    NotIrreducible,
    NotZeroOne,
    PermutationMatrix,
    Point,
    TooLarge,
    TransitionMatrix,
    build_shift_space,
    canonical_point,
    count_periodic,
    enumerate_points,
    point_with_prefix,
    shift_point,
)
from orbiteq.config import MAX_ALPHABET
from orbiteq.errors import OrbiteqError
from orbiteq.generators import random_shift_space
from orbiteq.shifts import IntMatrix, _reaches_all, _shortest_walk

from conftest import expand_point, points_agree, raw_expand


def test_build_full_2_shift(full2):
    assert full2.n == 2


def test_permutation_matrix_rejected():
    with pytest.raises(PermutationMatrix):
        build_shift_space([[0, 1], [1, 0]])
    with pytest.raises(PermutationMatrix):
        build_shift_space([[1]])


def test_not_irreducible_rejected():
    # state 2 cannot reach state 1
    with pytest.raises(NotIrreducible):
        build_shift_space([[1, 1], [0, 1]])
    with pytest.raises(NotIrreducible):
        build_shift_space([[0]])


def test_bad_entries_rejected():
    for rows in (
        [[1, 2], [1, 1]],
        [[1, 1, 1], [1, 1, 1]],
        [[1, 1.5], [1, 0]],  # once truncated to the golden mean
        [[1, 0.5], [1, 1]],  # once truncated to [[1, 0], [1, 1]]
        [["1", 1], [1, 0]],
        [[1, float("nan")], [1, 0]],
        [[1, 1], [1]],
        [[1, 1], [1, 1, 1]],
        [[[1], [1]], [[1], [0]]],
        3,
    ):
        with pytest.raises(NotZeroOne):
            build_shift_space(rows)


def test_entries_equal_to_0_or_1_become_ints(golden):
    for rows in (
        [[True, True], [True, False]],
        np.array([[1, 1], [1, 0]]),
        np.array([[1, 1], [1, 0]], dtype=np.uint8),
        [[1.0, 1], [1, 0.0]],
        ((1, 1), (1, 0)),
    ):
        space = build_shift_space(rows)
        assert space == golden
        assert space.matrix.entries == ((1, 1), (1, 0))
        assert all(type(x) is int for row in space.matrix.entries for x in row)
        assert space.matrix.entries.tolist() == [[1, 1], [1, 0]]


def test_alphabet_cap():
    n = 65
    rows = [[1] * n for _ in range(n)]
    with pytest.raises(TooLarge):
        build_shift_space(rows)


def test_word_table_cap_checked_before_building():
    full4 = build_shift_space([[1] * 4] * 4)
    full4.words(9)  # 4**9 words; the next table would exceed the cap
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            full4.words(10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_alphabet_cap_checked_before_copying_rows():
    rows = [[1] * 3000] * 3000  # 3000 references to one row
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            TransitionMatrix(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def reference_transition_matrix(rows):
    """``(entries, followers, n)``, or the exception class raised, as the
    constructor built them with one generator per row and per entry."""
    try:
        raw = tuple(rows)
        if len(raw) > MAX_ALPHABET:
            raise TooLarge(f"alphabet size {len(raw)} exceeds cap {MAX_ALPHABET}")
        raw = tuple(tuple(row) for row in raw)
    except TypeError:
        raw = ()
    except TooLarge:
        return TooLarge
    n = len(raw)
    if n == 0 or any(len(row) != n for row in raw):
        return NotZeroOne
    try:
        a = tuple(tuple({0: 0, 1: 1}[x] for x in row) for row in raw)
    except (KeyError, TypeError):
        return NotZeroOne

    def support(rows):
        return tuple(tuple(j for j, x in enumerate(row, 1) if x) for row in rows)

    followers, preceders = support(a), support(zip(*a))
    degrees = [len(f) for f in followers + preceders]
    if all(d == 1 for d in degrees):
        return PermutationMatrix
    if 0 in degrees or not (_reaches_all(followers) and _reaches_all(preceders)):
        return NotIrreducible
    return a, followers, n


def test_transition_matrix_matches_the_reference_on_every_small_matrix():
    inputs = [
        [list(bits[i * n : (i + 1) * n]) for i in range(n)]
        for n in (2, 3)
        for bits in itertools.product((0, 1), repeat=n * n)
    ]
    assert len(inputs) == 16 + 512
    # the bad entries and the other row types of the tests above
    inputs += [
        [[1, 2], [1, 1]], [[1, 1.5], [1, 0]], [["1", 1], [1, 0]],
        [[1, float("nan")], [1, 0]], [[1, 1], [1]], [[[1], [1]], [[1], [0]]],
        [[True, True], [True, False]], np.array([[1, 1], [1, 0]], dtype=np.uint8),
        [[1.0, 1], [1, 0.0]], [], [[]], 3, [3, 3], [[1] * 65] * 65,
    ]
    outcomes = []
    for rows in inputs:
        expected = reference_transition_matrix(rows)
        try:
            m = TransitionMatrix(rows)
            got = m.entries, m.followers, m.n
            assert type(m.entries) is IntMatrix
        except OrbiteqError as e:
            got = type(e)
        assert got == expected, rows
        outcomes.append(expected if isinstance(expected, type) else "valid")
    assert set(outcomes) == {"valid", NotZeroOne, PermutationMatrix, NotIrreducible, TooLarge}


def test_allowed_words_full2(full2):
    assert full2.words(2) == ((1, 1), (1, 2), (2, 1), (2, 2))


def test_allowed_words_golden(golden):
    assert golden.words(2) == ((1, 1), (1, 2), (2, 1))
    # path count of length 2 = total of A^2
    a = np.array(golden.matrix.entries)
    assert len(golden.words(3)) == int((a @ a).sum()) == 5


def test_word_count_recursion(golden, full2):
    for s in (golden, full2):
        fol = s.matrix.followers
        for m in range(1, 6):
            total = sum(len(fol[w[-1] - 1]) for w in s.words(m))
            assert len(s.words(m + 1)) == total
        assert len(s.words(1)) == s.n


def test_word_count_without_building(golden, full2):
    for s in (golden, full2):
        for m in range(1, 7):
            assert s.word_count(m) == len(s.words(m))
    full4 = build_shift_space([[1] * 4] * 4)
    assert full4.word_count(12) == 4**12
    assert max(full4._words) == 1


@pytest.mark.parametrize("m", [0, -3])
def test_word_count_rejects_lengths_below_one(golden, m):
    # as words(m) does; both used to answer the alphabet size
    for count in (golden.word_count, golden.words):
        with pytest.raises(ValueError, match="word length must be >= 1"):
            count(m)


@pytest.mark.parametrize(
    "n, density, error",
    [
        (0, 0.6, ValueError),
        (1, 0.6, ValueError),
        (65, 0.6, TooLarge),
        (3, 0, ValueError),
        (3, -0.5, ValueError),
    ],
)
def test_random_shift_space_rejects_draws_that_cannot_be_valid(n, density, error):
    # no draw is a valid space here; the draw loop used to retry forever
    with pytest.raises(error):
        random_shift_space(random.Random(1), n, density)


@pytest.mark.parametrize("n", [-1, -4])
def test_count_periodic_rejects_negative_counts(golden, n):
    # it used to answer the state count, trace(I)
    with pytest.raises(ValueError, match="nonnegative"):
        count_periodic(golden, n)


def test_canonical_primitive_reduction(full2):
    assert canonical_point(full2, (), (1, 2, 1, 2)) == Point((), (1, 2))


def test_canonical_absorbs_prefix(full2):
    p = canonical_point(full2, (1,), (2, 1))
    assert p == Point((), (1, 2))
    # same sequence either way
    assert expand_point(p, 10) == (1, 2) * 5


def test_canonical_golden_preperiod(golden):
    assert canonical_point(golden, (2,), (1, 1)) == Point((2,), (1,))


def test_canonical_idempotent(full2, golden):
    for s in (full2, golden):
        for p in enumerate_points(s, 3, 4):
            assert canonical_point(s, p.preperiod, p.cycle) == p


@st.composite
def descriptions(draw):
    """A random 2-4-state space and several ``(pre, cyc)`` descriptions of
    one eventually periodic sequence.

    The cycle is a random walk closed by a shortest path back to its first
    symbol, so it may be a power and ``pre`` may be absorbable; the other
    descriptions power the cycle, move whole cycles and part of one into
    the preperiod, and rotate the cycle to match."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    space = random_shift_space(rng, draw(st.integers(2, 4)))
    fol = space.matrix.followers

    def walk(start, length):
        w = [start]
        for _ in range(length):
            w.append(draw(st.sampled_from(fol[w[-1] - 1])))
        return w

    x = walk(draw(st.integers(1, space.n)), draw(st.integers(0, 4)))
    pre, c0 = tuple(x[:-1]), x[-1]
    cyc = walk(c0, draw(st.integers(0, 4)))
    back, queue = {cyc[-1]: None}, [cyc[-1]]
    for u in queue:
        if c0 in fol[u - 1]:
            break
        for v in fol[u - 1]:
            if v not in back:
                back[v] = u
                queue.append(v)
    path = []
    while u != cyc[-1]:
        path.append(u)
        u = back[u]
    cyc = tuple(cyc + path[::-1])
    descs = [(pre, cyc)]
    for _ in range(3):
        j = draw(st.integers(0, len(cyc) - 1))
        m, k = draw(st.integers(0, 2)), draw(st.integers(1, 3))
        descs.append((pre + cyc * m + cyc[:j], (cyc[j:] + cyc[:j]) * k))
    return space, descs


@settings(max_examples=150, deadline=None)
@given(descriptions())
def test_canonical_point_against_raw_expansion(case):
    space, descs = case
    points = {canonical_point(space, pre, cyc) for pre, cyc in descs}
    assert len(points) == 1
    (p,) = points
    for pre, cyc in descs:
        n = 2 * (len(pre) + len(cyc))
        assert expand_point(p, n) == p.expand(n) == raw_expand(pre, cyc, n)
    assert canonical_point(space, p.preperiod, p.cycle) == p
    # canonical: a primitive cycle, and no preperiod symbol left to absorb
    c = p.cycle
    assert all(c != c[:d] * (len(c) // d) for d in range(1, len(c)) if len(c) % d == 0)
    assert not p.preperiod or p.preperiod[-1] != c[-1]


def test_canonical_rejects_inadmissible(golden):
    with pytest.raises(InadmissibleWord):
        canonical_point(golden, (), (2, 2))
    with pytest.raises(InadmissibleWord):
        canonical_point(golden, (2,), (2, 1))  # wrap 1 -> 2 fine, 2 -> 2 not


def test_shift_point_examples(full2):
    assert shift_point(full2, Point((2,), (1,))) == Point((), (1,))
    assert shift_point(full2, Point((), (1, 2))) == Point((), (2, 1))
    assert shift_point(full2, Point((), (1,))) == Point((), (1,))


def test_shift_drops_first_symbol(full2, golden):
    for s in (full2, golden):
        for p in enumerate_points(s, 2, 3):
            q = shift_point(s, p)
            for n in range(1, 21):
                assert expand_point(q, n) == expand_point(p, n + 1)[1:]
        # the closed-form n-fold shift equals n single shifts
        for p in enumerate_points(s, 3, 4):
            q = p
            for n in range(2 * (len(p.preperiod) + len(p.cycle)) + 1):
                assert shift_point(s, p, n) == q
                q = shift_point(s, q)


def test_enumerate_full2_small(full2):
    assert enumerate_points(full2, 0, 1) == [Point((), (1,)), Point((), (2,))]
    pts = enumerate_points(full2, 0, 2)
    # brute force: distinct sequences among all cycles of length <= 2
    raw = set()
    for n in (1, 2):
        for cyc in itertools.product((1, 2), repeat=n):
            raw.add(tuple((cyc * 12)[:12]))
    assert len(pts) == len(raw) == 4


def test_enumerate_golden_cycles(golden):
    pts = enumerate_points(golden, 0, 2)
    assert pts == sorted(
        [Point((), (1,)), Point((), (1, 2)), Point((), (2, 1))]
    )


def test_enumerate_no_duplicates(full2, golden):
    for s in (full2, golden):
        pts = enumerate_points(s, 2, 3)
        for p, q in itertools.combinations(pts, 2):
            assert not points_agree(p, q)


def test_periodic_counts_match_trace(full2, golden):
    for s in (full2, golden):
        for n in range(1, 7):
            fixed = [
                p
                for p in enumerate_points(s, 0, n)
                if n % len(p.cycle) == 0
            ]
            a = np.linalg.matrix_power(np.array(s.matrix.entries, dtype=object), n)
            assert len(fixed) == int(np.trace(a)) == count_periodic(s, n)


def test_count_periodic_matches_numpy_trace():
    # reference: trace of the object-dtype numpy power, exact for any n
    rng = random.Random(20261018)
    for _ in range(100):
        s = random_shift_space(rng, rng.randint(2, 7))
        a = np.array(s.matrix.entries, dtype=object)
        for n in range(0, 9):
            ref = int(np.trace(np.linalg.matrix_power(a, n)))
            assert count_periodic(s, n) == ref


def test_point_with_prefix(full2, golden):
    for s in (full2, golden):
        for d in (1, 2, 3, 5):
            for w in s.words(d):
                p = point_with_prefix(s, w)
                assert expand_point(p, d) == w


def test_point_with_prefix_closes_with_a_shortest_cycle():
    # oracle without a breadth-first search: the least L for which the
    # last symbol reaches itself in L steps, by iterating follower sets
    rng = random.Random(20261019)
    for _ in range(100):
        s = random_shift_space(rng, rng.randint(2, 6))
        fol = s.matrix.followers
        for m in (1, 2, 3):
            for w in s.words(m):
                p = point_with_prefix(s, w)
                assert expand_point(p, m) == w
                reach, steps = set(fol[w[-1] - 1]), 1
                while w[-1] not in reach:
                    reach = {b for a in reach for b in fol[a - 1]}
                    steps += 1
                assert len(p.cycle) == steps, (s, w, p)


def test_shortest_walk():
    succ = {1: (2, 3), 2: (4,), 3: (4,), 4: (1,), 5: (1,)}.__getitem__
    assert _shortest_walk(succ, 1, lambda x: x == 1) == (1,)
    # 4 is reached through 2 and through 3; the earlier follower wins
    assert _shortest_walk(succ, 1, lambda x: x == 4) == (1, 2, 4)
    assert _shortest_walk(succ, 1, lambda x: x > 2) == (1, 3)
    assert _shortest_walk(succ, 1, lambda x: x == 5) is None


def _canonicalising_enumeration(space, max_pre, max_cyc):
    """The enumeration by canonicalising every admissible pair, then
    deduplicating: ``pre`` up to ``max_pre``, ``cyc`` primitive."""

    def primitive(c):
        return not any(
            len(c) % d == 0 and c[:d] * (len(c) // d) == c for d in range(1, len(c))
        )

    fol = space.matrix.followers
    prefixes = [()] + [w for m in range(1, max_pre + 1) for w in space.words(m)]
    cycles = [
        w
        for m in range(1, max_cyc + 1)
        for w in space.words(m)
        if primitive(w) and w[0] in fol[w[-1] - 1]
    ]
    pts = {
        canonical_point(space, pre, cyc)
        for pre in prefixes
        for cyc in cycles
        if not pre or cyc[0] in fol[pre[-1] - 1]
    }
    return sorted(pts, key=lambda p: (p.preperiod, p.cycle))


def test_enumerate_points_matches_canonicalising_every_pair():
    rng = random.Random(20261018)
    for _ in range(100):
        s = random_shift_space(rng, rng.randint(2, 5))
        for max_pre, max_cyc in ((0, 1), (2, 3), (3, 4)):
            assert enumerate_points(s, max_pre, max_cyc) == (
                _canonicalising_enumeration(s, max_pre, max_cyc)
            )


@pytest.mark.parametrize(
    "max_pre, max_cyc, message",
    [(-1, 2, "max_pre must be >= 0"), (0, 0, "max_cyc must be >= 1")],
)
def test_enumerate_points_rejects_out_of_range_sizes(full2, max_pre, max_cyc, message):
    with pytest.raises(ValueError, match=message):
        enumerate_points(full2, max_pre, max_cyc)


def test_enumerate_points_cache_cannot_be_mutated(golden):
    pts = enumerate_points(golden, 2, 3)
    original = list(pts)
    pts.append(Point((), (1,)))
    pts.sort(reverse=True)
    assert enumerate_points(golden, 2, 3) == original
