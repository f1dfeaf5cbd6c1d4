"""Acceptance suite: one test per criterion, all checks exact integer.

Each test prints a single PASS line on success (visible with ``pytest -s``
or ``-v``); a failure shows up as the test failing.
"""

import itertools
import random

import pytest

from orbiteq import (
    RunConfig,
    bowen_franks,
    check_conjugacy,
    check_eventual_conjugacy,
    check_potential_identity,
    check_strong_coe,
    classify,
    combine,
    compose_shift,
    constant,
    decide_one_sided_conjugacy,
    enumerate_points,
    evaluate,
    identity_code,
    indicator,
    induced_potential,
    obstruction_report,
    orbit_cocycles,
    out_split,
    pullback,
    smith_normal_form,
    tables_equal,
    verify_inverse_pair,
)
from orbiteq.generators import random_shift_space, random_single_split, split_chain

SEED = 20240601
CFG = RunConfig(depth=6)


# ---------------------------------------------------------------------------
# shared corpus: 200 seeded out-split conjugacies


@pytest.fixture(scope="module")
def corpus():
    cases = []
    for i in range(200):
        rng = random.Random(SEED + i)
        base = random_shift_space(rng, rng.choice([2, 3]))
        space, code, inverse = split_chain(rng, base, max_splits=2)
        assert space.n <= 5
        cases.append((base, space, code, inverse))
    return cases


def test_criterion_1_forward_shadow(corpus):
    """200 generated conjugacies: Conjugacy verdict, cocycles (0, 1),
    potential identity at depth 6."""
    for base, space, code, inverse in corpus:
        ok, wit = verify_inverse_pair(code, inverse)
        assert ok, wit
        verdict = classify(code, inverse, CFG)
        assert verdict.kind == "Conjugacy", verdict
        kl1, kl2 = verdict.cocycles
        assert kl1.k.is_constant(0) and kl1.l.is_constant(1)
        assert kl2.k.is_constant(0) and kl2.l.is_constant(1)
        psi_ok, psi_wit = check_potential_identity(code, kl1, 6)
        assert psi_ok, psi_wit
    print("PASS criterion 1: 200 split conjugacies, cocycles (0,1), "
          "potential identity at depth 6")


# ---------------------------------------------------------------------------
# criterion 2: the lag-1 example


def test_criterion_2_lag1_example(full2, recoder):
    """The constructed lag-1 example end to end: the routes agree inside
    classify (it raises otherwise) and the potential identity fails
    re-verifiably."""
    verdict = classify(recoder, recoder, CFG)
    assert verdict.kind == "EventualConjugacy" and verdict.lag == 1
    kl = orbit_cocycles(recoder, 3)
    psi_ok, witness = check_potential_identity(recoder, kl, 2)
    assert not psi_ok and witness is not None
    f = indicator(full2, witness)
    table = induced_potential(recoder, kl, f)
    composed = pullback(f, recoder)
    mismatch = [
        p
        for p in enumerate_points(full2, 3, 4)
        if evaluate(table, p) != evaluate(composed, p)
    ]
    assert mismatch
    print("PASS criterion 2: lag-1 example verified")


# ---------------------------------------------------------------------------
# criterion 3: potential map structure


def test_criterion_3_potential_structure(full2, golden, recoder):
    """Additivity over all pairs of depth <= 3 indicators, and the constant
    function pinning the inclusive summation bounds."""
    sp, code, _ = out_split(golden, {1: [(1,), (2,)]})
    cases = [
        (golden, code, orbit_cocycles(code, 2)),
        (full2, recoder, orbit_cocycles(recoder, 3)),
        (full2, identity_code(full2), orbit_cocycles(identity_code(full2), 1)),
    ]
    pairs_checked = 0
    for src, h, kl in cases:
        tgt = h.target
        inds = [
            indicator(tgt, w)
            for d in (1, 2, 3)
            for w in tgt.words(d)
        ]
        cache = {id(f): induced_potential(h, kl, f) for f in inds}
        for f, g in itertools.combinations_with_replacement(inds, 2):
            lhs = induced_potential(h, kl, combine(1, f, 1, g))
            rhs = combine(1, cache[id(f)], 1, cache[id(g)])
            assert tables_equal(lhs, rhs)
            pairs_checked += 1
        one = induced_potential(h, kl, constant(tgt, 1))
        assert tables_equal(one, kl.difference())
    print(f"PASS criterion 3: additivity on {pairs_checked} indicator pairs, "
          "constant potential equals l - k")


# ---------------------------------------------------------------------------
# criterion 4: definitional ladder containments


def test_criterion_4_ladder_containments(corpus, full2, recoder):
    """Conjugacy implies lag-0 eventual; eventual implies constant strong
    transfers; strong certificates re-verify on all allowed words."""
    sample = corpus[::10]
    maps = [(code, inverse) for _, _, code, inverse in sample]
    maps.append((recoder, recoder))
    for h, h_inv in maps:
        conj, _ = check_conjugacy(h)
        if conj:
            assert check_eventual_conjugacy(h, h_inv, 0)[0]
        lagged = None
        for K in (0, 1):
            if check_eventual_conjugacy(h, h_inv, K)[0]:
                lagged = K
                break
        assert lagged is not None
        transfers = check_strong_coe(
            h, h_inv, orbit_cocycles(h, 3), orbit_cocycles(h_inv, 3)
        )
        assert transfers is not None
        b1, b2 = transfers
        assert b1.is_constant() and b2.is_constant()
        # re-verify l - k = 1 + b - b o sigma exactly on all allowed words
        kl1 = orbit_cocycles(h, min(CFG.depth, 3))
        lhs = combine(
            1, constant(h.source, 1), 1, combine(1, b1, -1, compose_shift(b1))
        )
        assert tables_equal(lhs, kl1.difference())
    print(f"PASS criterion 4: ladder containments on {len(maps)} maps")


# ---------------------------------------------------------------------------
# criterion 5: obstruction soundness


def test_criterion_5_obstruction_soundness(full2, full3):
    """Frozen invariant values, the refutation for full-2 vs full-3,
    invariance under 100 splits, and 500 normal-form certificates."""
    assert bowen_franks(full2) == ((), -1)
    assert bowen_franks(full3) == ((2,), -1)
    rep = obstruction_report(full2, full3)
    assert rep.obstructed and all(rep.ruled_out.values())

    rng = random.Random(SEED)
    for _ in range(100):
        base = random_shift_space(rng, rng.choice([2, 3, 4]))
        space, _, _ = random_single_split(rng, base)
        assert bowen_franks(space) == bowen_franks(base)

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))
        ]

    def minor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        return sum(
            (-1) ** j * m[0][j] * minor_det([r[:j] + r[j + 1 :] for r in m[1:]])
            for j in range(n)
        )

    rng = random.Random(SEED + 1)
    for _ in range(500):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        u, d, v = smith_normal_form(m)
        assert matmul(matmul(u, m), v) == d
        assert abs(minor_det(u)) == 1 and abs(minor_det(v)) == 1
        diag = [d[i][i] for i in range(min(r, c))]
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        assert all(
            d[i][j] == 0 for i in range(r) for j in range(c) if i != j
        )
    print("PASS criterion 5: invariants frozen, 100 split invariances, "
          "500 normal-form certificates")


# ---------------------------------------------------------------------------
# criterion 6: oracle coherence


def test_criterion_6_oracle_coherence(corpus, full2, full3):
    """The amalgamation oracle agrees with every Conjugacy verdict and
    never contradicts an invariant refutation."""
    agreed = 0
    for base, space, code, inverse in corpus[::4]:
        verdict = classify(code, inverse, CFG)
        if verdict.kind == "Conjugacy":
            assert decide_one_sided_conjugacy(base, space)
            agreed += 1
    # refutations: obstructed pairs must never be declared conjugate
    rng = random.Random(SEED + 2)
    refuted = 0
    spaces = [full2, full3] + [c[1] for c in corpus[:30]]
    for _ in range(60):
        a, b = rng.sample(spaces, 2)
        rep = obstruction_report(a, b)
        if rep.obstructed:
            assert decide_one_sided_conjugacy(a, b) is False
            refuted += 1
    assert refuted > 0
    print(f"PASS criterion 6: oracle agreed on {agreed} conjugacies, "
          f"respected {refuted} refutations")
