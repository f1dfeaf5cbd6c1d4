"""``classify`` certifies with product walks and builds no point family.

The answers must be those of the public routines called one by one, no
cylinder family may be built, no point may be mapped, every witness
re-checks with ``apply_map``, and nothing may outlive the call.
"""

import gc
import random
import weakref

import pytest

from orbiteq import (
    RunConfig,
    apply_map,
    block_to_transducer,
    build_shift_space,
    canonical_point,
    check_conjugacy,
    check_eventual_conjugacy,
    check_potential_identity,
    classify,
    invariant_report,
    jsonio,
    maps,
    obstruction_report,
    orbit,
    orbit_cocycles,
    shift_point,
    transducer,
    verify_inverse_pair,
)
from orbiteq.generators import random_shift_space, split_chain

from conftest import pair_buffer, two_mode

SEED = 20261018
CFG = RunConfig(depth=6)
CDEPTH = 3  # the cocycle depth classify uses at CFG


# --- a seeded corpus on every rung classify reaches without transfers -------


def split_pair(i):
    rng = random.Random(f"split/{SEED}/{i}")
    base = random_shift_space(rng, rng.choice([2, 3]))
    _, code, inverse = split_chain(rng, base, max_splits=2)
    return code, inverse


def _recoder(space, tau):
    """``x -> tau[x2][x1] x2 x3 ...`` as a transducer."""
    fol = space.matrix.followers
    delta = {}
    for a in range(1, space.n + 1):
        delta[("q0", a)] = (f"s{a}", ())
        delta[("copy", a)] = ("copy", (a,))
        for b in fol[a - 1]:
            delta[(f"s{a}", b)] = ("copy", (tau[b][a], b))
    states = ["q0", *(f"s{a}" for a in range(1, space.n + 1)), "copy"]
    return transducer(space, space, states, "q0", delta)


def recoder_pair(i):
    """A first-symbol recoder with a non-identity ``tau`` (an eventual
    conjugacy of lag 1) and its inverse."""
    rng = random.Random(f"recoder/{SEED}/{i}")
    while True:
        space = random_shift_space(rng, 3)
        tau = {}
        for b in range(1, space.n + 1):
            pred = [a for a in range(1, space.n + 1) if space.matrix.allows(a, b)]
            image = pred[:]
            rng.shuffle(image)
            tau[b] = dict(zip(pred, image))
        if any(a != v for t in tau.values() for a, v in t.items()):
            break
    inv = {b: {v: a for a, v in t.items()} for b, t in tau.items()}
    return _recoder(space, tau), _recoder(space, inv)


def expansion_pair(i):
    """The full ``n``-shift onto the space where each expanded ``j`` is
    always followed by ``expand[j]``, by ``j -> j expand[j]``, and its
    two-state inverse: an orbit equivalence that is no eventual conjugacy."""
    rng = random.Random(f"expansion/{SEED}/{i}")
    n = rng.choice([2, 3])
    symbols = list(range(1, n + 1))
    rng.shuffle(symbols)
    cut = rng.randint(1, n - 1)
    expand = {j: rng.choice(symbols[cut:]) for j in symbols[:cut]}
    source = build_shift_space([[1] * n for _ in range(n)])
    target = build_shift_space(
        [
            [int(expand.get(j) in (None, t)) for t in range(1, n + 1)]
            for j in range(1, n + 1)
        ]
    )
    fwd, back = {}, {}
    for j in symbols:
        fwd[("s", j)] = ("s", (j, expand[j]) if j in expand else (j,))
        back[("copy", j)] = ("skip" if j in expand else "copy", (j,))
        back[("skip", j)] = ("copy", ())
    return (
        transducer(source, target, ["s"], "s", fwd),
        transducer(target, source, ["copy", "skip"], "copy", back),
    )


def assert_not_intertwining(h, p):
    """``p`` refutes ``h(sigma p) = sigma h(p)``, by ``apply_map`` alone."""
    assert apply_map(h, shift_point(h.source, p)) != shift_point(
        h.target, apply_map(h, p)
    )


CORPUS = (
    [("Conjugacy", split_pair, i) for i in range(20)]
    + [("EventualConjugacy", recoder_pair, i) for i in range(10)]
    + [("COE", expansion_pair, i) for i in range(5)]
)


@pytest.mark.parametrize("kind,build,i", CORPUS)
def test_classify_matches_public_routines(kind, build, i):
    h, h_inv = build(i)
    v = classify(h, h_inv, CFG)

    kl1 = orbit_cocycles(h, CDEPTH)
    kl2 = orbit_cocycles(h_inv, CDEPTH)
    direct, direct_wit = check_conjugacy(h)
    K = max(kl1.k.max(), kl2.k.max())
    eventual, _ = check_eventual_conjugacy(h, h_inv, K)
    eventual = eventual and all(kl.difference().is_constant(1) for kl in (kl1, kl2))

    assert v.kind == kind
    assert [(kl.k.table, kl.l.table) for kl in v.cocycles] == [
        (kl.k.table, kl.l.table) for kl in (kl1, kl2)
    ]
    assert direct is (kind == "Conjugacy")
    assert eventual is (kind != "COE")
    if kind == "Conjugacy":
        assert (v.lag, v.witness) == (0, None)
        return
    assert_not_intertwining(h, direct_wit)
    if kind == "EventualConjugacy":
        psi_ok, psi_wit = check_potential_identity(h, kl1, CFG.depth)
        assert (v.lag, K) == (1, 1)
        assert v.witness == (direct_wit if psi_ok else psi_wit)
    else:
        assert v.lag is None
        assert v.witness == direct_wit


# --- the block-code closed form against the general path --------------------


@pytest.mark.parametrize("i", range(20))
def test_block_code_closed_form_matches_transducer_path(i):
    code, code_inv = split_pair(i)
    h, h_inv = block_to_transducer(code), block_to_transducer(code_inv)
    closed = jsonio.verdict_to_json(classify(code, code_inv, CFG))
    general = jsonio.verdict_to_json(classify(h, h_inv, CFG))
    assert jsonio.dumps(closed) == jsonio.dumps(general)


def test_classify_composes_no_block_codes(monkeypatch):
    # the inverse pair is the caller's precondition, so a pair of block
    # codes is composed by verify_inverse_pair and never again by classify
    calls = []
    composite = maps._composite_mismatch

    def counted(outer, inner):
        calls.append((outer, inner))
        return composite(outer, inner)

    monkeypatch.setattr(maps, "_composite_mismatch", counted)
    # an import by name into orbit would bypass the patch above
    monkeypatch.setattr(orbit, "_composite_mismatch", counted, raising=False)
    for i in range(20):
        code, code_inv = split_pair(i)
        assert verify_inverse_pair(code, code_inv) == (True, None)
        assert len(calls) == 2
        assert classify(code, code_inv, CFG).kind == "Conjugacy"
        assert len(calls) == 2
        calls.clear()


# --- no family and no image ------------------------------------------------


def test_classify_builds_no_family(orbit_images, monkeypatch):
    # the transducer presentations take the product walks, whose cocycles
    # come from the square of each map; the block codes themselves are a
    # closed form, with no walk
    code, code_inv = split_pair(0)
    h, h_inv = block_to_transducer(code), block_to_transducer(code_inv)
    families = []
    cylinder_family = orbit.cylinder_family

    def counted_family(space, depth, cfg):
        families.append(space)
        return cylinder_family(space, depth, cfg)

    monkeypatch.setattr(orbit, "cylinder_family", counted_family)
    assert classify(code, code_inv, CFG).kind == "Conjugacy"
    assert (families, orbit_images) == ([], [])
    assert classify(h, h_inv, CFG).kind == "Conjugacy"
    assert (families, orbit_images) == ([], [])
    # identities whose runs on w and on w[1:] never share a state on some
    # cylinders, where l - k comes from walks at offsets of the output lead
    for ident in (pair_buffer(), two_mode()):
        assert classify(ident, ident, CFG).kind == "Conjugacy"
        assert (families, orbit_images) == ([], [])


def test_identity_on_full_8_shift_maps_no_point(orbit_images):
    # one walk from the one-symbol roots certifies (0, 1) on all 512
    # depth-3 cylinders, with no point proposed
    space = build_shift_space([[1] * 8 for _ in range(8)])
    ident = transducer(
        space, space, ["s"], "s", {("s", a): ("s", (a,)) for a in range(1, 9)}
    )
    v = classify(ident, ident, CFG)
    assert v.kind == "Conjugacy"
    assert {(kl.k.max(), kl.l.min(), kl.l.max()) for kl in v.cocycles} == {(0, 1, 1)}
    assert orbit_images == []


# --- no state outlives the call ---------------------------------------------


def test_classify_keeps_no_space_alive():
    # a space no other test builds, so no equal key is cached already
    space = random_shift_space(random.Random(f"weakref/{SEED}"), 5)
    ref = weakref.ref(space)
    _, code, inverse = split_chain(random.Random(SEED), space, max_splits=1)
    assert classify(code, inverse, CFG).kind == "Conjugacy"
    del space, code, inverse
    gc.collect()
    assert ref() is None


def _records():
    v = classify(*split_pair(0), CFG)
    full2 = build_shift_space([[1, 1], [1, 1]])
    return {
        "Verdict": (v, "kind"),
        "OrbitCocyclePair": (v.cocycles[0], "k"),
        "CylinderFunction": (v.cocycles[0].k, "depth"),
        "Point": (canonical_point(full2, (1,), (2,)), "preperiod"),
        "InvariantReport": (invariant_report(full2), "bf_factors"),
        "ObstructionReport": (obstruction_report(full2, full2), "ruled_out"),
        "RunConfig": (CFG, "depth"),
    }


@pytest.mark.parametrize(
    "name",
    [
        "Verdict",
        "OrbitCocyclePair",
        "CylinderFunction",
        "Point",
        "InvariantReport",
        "ObstructionReport",
        "RunConfig",
    ],
)
def test_records_are_frozen(name):
    record, field = _records()[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, field) is before
