"""Cocycles and ladder verdicts against truths known by construction.

Prefix exchanges have known verdicts, the committed ``recoder2`` pair has
a known lag, and returned cocycles are re-checked on random points with
long preperiods, built with ``canonical_point`` and compared as canonical
points, with no point family and no alignment search of the library.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from orbiteq import (
    RunConfig,
    apply_map,
    build_shift_space,
    canonical_point,
    check_conjugacy,
    check_eventual_conjugacy,
    classify,
    enumerate_points,
    evaluate,
    jsonio,
    orbit_cocycles,
    shift_point,
    verify_cocycles,
    verify_inverse_pair,
)
from orbiteq.generators import prefix_exchange, random_shift_space

from conftest import expansion_maps, random_tau, recoder_map

INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs"
FULL2 = build_shift_space([[1, 1], [1, 1]])
EXCHANGES = [
    (u, v)
    for u, v in itertools.combinations([w for m in (1, 2, 3) for w in FULL2.words(m)], 2)
    if u[: len(v)] != v[: len(u)]
]


def transfer_holds(difference, b):
    """``l - k = 1 + b - b o sigma`` on every cylinder, word by word."""
    d = max(difference.depth, b.depth + 1)
    return all(
        difference.table[w[: difference.depth]]
        == 1 + b.table[w[: b.depth]] - b.table[w[1 : b.depth + 1]]
        for w in b.space.words(d)
    )


@pytest.mark.parametrize("cfg", [RunConfig(), RunConfig(depth=4)])
def test_prefix_exchange_sweep(cfg):
    # every exchange of incomparable words of length 1-3: equal lengths
    # give a lag-|u| eventual conjugacy at most, other lengths strong COE;
    # depth 4 is the least at which (1) <-> (2, 1, 1) aligns
    assert len(EXCHANGES) == 71
    for u, v in EXCHANGES:
        f = prefix_exchange(FULL2, u, v)
        verdict = classify(f, f, cfg)
        if len(u) == len(v):
            assert verdict.kind == "EventualConjugacy", (u, v)
            assert 1 <= verdict.lag <= len(u), (u, v)
        else:
            assert verdict.kind == "StrongCOE", (u, v)
            for kl, b in zip(verdict.cocycles, verdict.transfers):
                assert transfer_holds(kl.difference(), b), (u, v)


@pytest.mark.parametrize("max_pre,max_cyc", [(0, 1), (1, 1), (3, 4)])
def test_recoder2_is_lag_one_at_every_family_size(max_pre, max_cyc):
    # the verdict reads no point family; its cocycles hold on every one
    space = jsonio.matrix_from_json(json.loads((INPUTS / "full2.json").read_text()))
    h = jsonio.map_from_json(
        space, space, json.loads((INPUTS / "recoder2.json").read_text())
    )
    verdict = classify(h, h)
    assert (verdict.kind, verdict.lag) == ("EventualConjugacy", 1)
    family = enumerate_points(space, max_pre, max_cyc)
    assert verify_cocycles(h, verdict.cocycles[0], family) == (True, None)


def equal_window_exchange(D):
    """The exchange ``u <-> v`` on the full 2-shift with ``s = 1^(D-1)``,
    ``u = 1 s 1 s 2 s`` and ``v = 1 s 2 s 1 s``.  The two words have the
    same multiset of ``D``-windows, the same first symbol and the same last
    ``D - 1`` symbols, so the potential identity holds at depth ``D``,
    though the map does not commute with the shift."""
    s = (1,) * (D - 1)
    return prefix_exchange(FULL2, (1, *s, 1, *s, 2, *s), (1, *s, 2, *s, 1, *s))


@pytest.mark.parametrize("D,lag", [(1, 3), (2, 5), (3, 7)])
def test_equal_window_exchange_is_eventual_at_every_depth(D, lag):
    # the identity at one depth is only a necessary condition for
    # conjugacy: where it passes and the direct check fails, the verdict
    # is an eventual conjugacy whose witness is the direct check's point
    f = equal_window_exchange(D)
    assert verify_inverse_pair(f, f) == (True, None)
    _, point = check_conjugacy(f)
    image = apply_map(f, shift_point(FULL2, point))
    assert image != shift_point(FULL2, apply_map(f, point))
    for depth in range(1, 9):
        verdict = classify(f, f, RunConfig(depth=depth))
        assert (verdict.kind, verdict.lag) == ("EventualConjugacy", lag), depth
        if depth <= D:
            assert verdict.witness == point, depth
    assert check_eventual_conjugacy(f, f, lag)[0]
    assert not check_eventual_conjugacy(f, f, lag - 1)[0]


def random_points(space, rng, count):
    """Canonical points with preperiods of 12 to 14 symbols and cycles of
    1 to 4, drawn by random walks on the transition graph."""
    fol = space.matrix.followers
    points = []
    while len(points) < count:
        walk = [rng.randint(1, space.n)]
        for _ in range(rng.randint(12, 14) + rng.randint(1, 4) - 1):
            walk.append(rng.choice(fol[walk[-1] - 1]))
        pre_len = len(walk) - rng.randint(1, 4)
        pre, cyc = tuple(walk[:pre_len]), tuple(walk[pre_len:])
        if cyc[0] not in fol[cyc[-1] - 1]:
            continue
        p = canonical_point(space, pre, cyc)
        if len(p.preperiod) >= 12:
            points.append(p)
    return points


def oracle_maps():
    rng = random.Random(20261018)
    for i in range(3):
        space = random_shift_space(rng, 3)
        h = recoder_map(space, random_tau(rng, space))
        yield pytest.param(h, 3, id=f"recoder-{i}")
    for n, expand in ((2, {2: 1}), (3, {2: 1, 3: 1}), (4, {1: 3, 4: 2})):
        h, h_inv = expansion_maps(n, expand)
        yield pytest.param(h, 3, id=f"expansion-{n}")
        yield pytest.param(h_inv, 3, id=f"expansion-{n}-inverse")
    exchange = prefix_exchange(FULL2, (1,), (2, 2, 2))
    for depth in (4, 5, 6):
        yield pytest.param(exchange, depth, id=f"exchange-1-222-depth-{depth}")


@pytest.mark.parametrize("h,depth", list(oracle_maps()))
def test_cocycles_hold_on_long_preperiod_points(h, depth):
    kl = orbit_cocycles(h, depth)
    rng = random.Random(20261019)
    for p in random_points(h.source, rng, 60):
        k, l = evaluate(kl.k, p), evaluate(kl.l, p)
        lhs = shift_point(h.target, apply_map(h, shift_point(h.source, p)), k)
        rhs = shift_point(h.target, apply_map(h, p), l)
        assert lhs == rhs, (p, k, l)
