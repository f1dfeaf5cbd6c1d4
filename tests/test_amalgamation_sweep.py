"""Every 4-state shift against an independent Williams amalgamation.

The oracle here shares no code with the library: a plain-list total
column amalgamation (merge equal columns, add their rows) and a
brute-force canonical form, the least relabelling over all state
permutations.  Two one-sided shifts are conjugate exactly when their
amalgamations have the same canonical form, so the oracle splits the
irreducible non-permutation 0-1 matrices with 4 states into classes.

Each matrix is taken once up to relabelling and then handed to the
library under a seeded random relabelling; that keeps the sweep to a
few seconds while it still covers every isomorphism type.
"""

import itertools
import random

import pytest

from orbiteq import (
    build_shift_space,
    conjugacy_from_amalgamation,
    decide_one_sided_conjugacy,
    verify_inverse_pair,
)

N = 4
PERMS = tuple(itertools.permutations(range(N)))


def relabel(a, s):
    n = len(a)
    return tuple(tuple(a[s[i]][s[j]] for j in range(n)) for i in range(n))


def canonical(a):
    return min(relabel(a, s) for s in itertools.permutations(range(len(a))))


def amalgamate(rows):
    a = [list(r) for r in rows]
    while True:
        n = len(a)
        pair = next(
            ((p, q) for p in range(n) for q in range(p + 1, n)
             if all(r[p] == r[q] for r in a)),
            None,
        )
        if pair is None:
            return a
        p, q = pair
        a[p] = [x + y for x, y in zip(a[p], a[q])]
        a = [[x for j, x in enumerate(r) if j != q] for i, r in enumerate(a) if i != q]


def irreducible(rows):
    def reach(step):
        seen, stack = {0}, [0]
        while stack:
            i = stack.pop()
            for j in range(len(rows)):
                if step(i, j) and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == len(rows)

    return reach(lambda i, j: rows[i][j]) and reach(lambda i, j: rows[j][i])


@pytest.fixture(scope="module")
def classes():
    """Oracle classes: canonical terminal -> canonical 4-state matrices."""
    out = {}
    for bits in range(1 << (N * N)):
        rows = tuple(
            tuple((bits >> (i * N + j)) & 1 for j in range(N)) for i in range(N)
        )
        if all(sum(r) == 1 for r in rows) and all(sum(c) == 1 for c in zip(*rows)):
            continue
        if irreducible(rows) and rows == canonical(rows):
            out.setdefault(canonical(amalgamate(rows)), []).append(rows)
    return out


def test_oracle_sweep_size(classes):
    assert len(classes) == 1058
    assert sum(len(m) > 1 for m in classes.values()) == 71


def test_decision_matches_oracle(classes):
    rng = random.Random(4)
    for members in classes.values():
        rep = build_shift_space(members[0])
        for m in members[1:]:
            other = build_shift_space(relabel(m, rng.choice(PERMS)))
            assert decide_one_sided_conjugacy(rep, other) is True, (members[0], m)
    reps = sorted(members[0] for members in classes.values())
    for _ in range(300):
        x, y = rng.sample(reps, 2)
        assert decide_one_sided_conjugacy(
            build_shift_space(x), build_shift_space(relabel(y, rng.choice(PERMS)))
        ) is False, (x, y)


def test_codes_for_one_pair_per_class(classes):
    for members in classes.values():
        if len(members) < 2:
            continue
        a, b = build_shift_space(members[0]), build_shift_space(members[-1])
        pair = conjugacy_from_amalgamation(a, b)
        assert pair is not None, (members[0], members[-1])
        assert verify_inverse_pair(*pair, 2, 3)[0]
