import pytest

from orbiteq import (
    RunConfig,
    build_shift_space,
    compile_block_code,
    orbit,
    transducer,
)


@pytest.fixture(scope="session")
def full2():
    return build_shift_space([[1, 1], [1, 1]])


@pytest.fixture(scope="session")
def full3():
    return build_shift_space([[1, 1, 1], [1, 1, 1], [1, 1, 1]])


@pytest.fixture(scope="session")
def golden():
    return build_shift_space([[1, 1], [1, 0]])


@pytest.fixture(scope="session")
def cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def swap2(full2):
    return compile_block_code(full2, full2, 1, {(1,): 2, (2,): 1})


@pytest.fixture(scope="session")
def xor2(full2):
    # output 1 when the window repeats a symbol, 2 when it alternates
    return compile_block_code(
        full2, full2, 2, {(1, 1): 1, (2, 2): 1, (1, 2): 2, (2, 1): 2}
    )


@pytest.fixture(scope="session")
def duplicator(full2):
    """x1 x2 x3 ... -> x1 x1 x2 x3 ...; injective but not surjective."""
    return transducer(
        full2,
        full2,
        ["init", "copy"],
        "init",
        {
            ("init", 1): ("copy", (1, 1)),
            ("init", 2): ("copy", (2, 2)),
            ("copy", 1): ("copy", (1,)),
            ("copy", 2): ("copy", (2,)),
        },
    )


@pytest.fixture(scope="session")
def recoder(full2):
    """Involutive homeomorphism replacing x1 by 1 if x1 == x2 else 2.

    Only the first output symbol differs from the input, so the lag-1
    intertwining holds in both directions while the plain one fails:
    an eventual conjugacy that is not a conjugacy.
    """
    return transducer(
        full2,
        full2,
        ["q0", "s1", "s2", "copy"],
        "q0",
        {
            ("q0", 1): ("s1", ()),
            ("q0", 2): ("s2", ()),
            ("s1", 1): ("copy", (1, 1)),
            ("s1", 2): ("copy", (2, 2)),
            ("s2", 1): ("copy", (2, 1)),
            ("s2", 2): ("copy", (1, 2)),
            ("copy", 1): ("copy", (1,)),
            ("copy", 2): ("copy", (2,)),
        },
    )


@pytest.fixture
def orbit_images(monkeypatch):
    """The points that ``orbiteq.orbit`` maps with ``apply_map``, in order."""
    calls = []
    apply_map = orbit.apply_map

    def counted(m, p):
        calls.append(p)
        return apply_map(m, p)

    monkeypatch.setattr(orbit, "apply_map", counted)
    return calls


# --- raw sequence helpers used as test-side oracles -------------------------


def raw_expand(pre, cyc, n):
    """First n symbols of pre . cyc^inf, independent of library code."""
    seq = list(pre)
    while len(seq) < n:
        seq.extend(cyc)
    return tuple(seq[:n])


def expand_point(p, n):
    return raw_expand(p.preperiod, p.cycle, n)


def points_agree(p, q, margin=4):
    """Exact equality of two eventually periodic points via expansion.

    Two sequences that are eventually periodic with preperiods <= a and
    periods <= c are equal iff their first a + 2c symbols agree once a
    bounds both preperiods and c both cycle lengths.
    """
    a = max(len(p.preperiod), len(q.preperiod))
    c = max(len(p.cycle), len(q.cycle))
    n = a + 2 * c * max(len(p.cycle), len(q.cycle)) + margin
    return expand_point(p, n) == expand_point(q, n)


def alignment_record(a, b):
    """``(a, b, |a.pre|, |b.pre|, |a.cycle|, r)`` for canonical points
    ``a, b``, with ``r`` the rotation taking ``a.cycle`` to ``b.cycle``,
    None if none does (both primitive): what :func:`aligning_shifts`
    reads."""
    ca, cb = a.cycle, b.cycle
    turns = range(len(ca)) if len(cb) == len(ca) else ()
    r = next((i for i in turns if ca[i:] + ca[:i] == cb), None)
    return a, b, len(a.preperiod), len(b.preperiod), len(ca), r


def aligning_shifts(rec, l, top):
    """The ``k <= top`` with ``sigma^l a = sigma^k b`` as a range, in
    closed form, for the :func:`alignment_record` of ``a, b``: one ``k``
    while ``l < |a.pre|``, else the class of ``|b.pre| + l - |a.pre| - r``
    modulo the cycle length.  A test-side oracle for the alignment
    equation, independent of ``shift_point``."""
    a, b, na, nb, c, r = rec
    if l < na:
        k = l - na + nb
        ok = 0 <= k <= top and r == 0 and a.preperiod[l:] == b.preperiod[k:]
        return range(k, k + ok)
    if r is None:
        return range(0)
    return range(nb + (l - na - r) % c, top + 1, c)


# --- seeded maps that are not block codes ------------------------------------


def recoder_map(space, tau, p=1):
    """``x -> x1 .. x_{p-1} tau[x_{p+1}][x_p] x_{p+1} ...`` as a transducer:
    a lag-``p`` eventual conjugacy when ``tau[b]`` permutes the
    predecessors of each ``b``.  The first ``p - 1`` symbols are copied
    through states ``c1 .. c_{p-1}``, so ``p = 1`` recodes ``x1``."""
    fol = space.matrix.followers
    chain = [*(f"c{i}" for i in range(1, p)), "q0"]
    delta = {}
    for a in range(1, space.n + 1):
        for i in range(p - 1):
            delta[(chain[i], a)] = (chain[i + 1], (a,))
        delta[("q0", a)] = (f"s{a}", ())
        delta[("copy", a)] = ("copy", (a,))
        for b in fol[a - 1]:
            delta[(f"s{a}", b)] = ("copy", (tau[b][a], b))
    states = [*chain, *(f"s{a}" for a in range(1, space.n + 1)), "copy"]
    return transducer(space, space, states, chain[0], delta)


def random_tau(rng, space):
    """A random permutation of the predecessors of each symbol."""
    tau = {}
    for b in range(1, space.n + 1):
        pred = [a for a in range(1, space.n + 1) if space.matrix.allows(a, b)]
        image = pred[:]
        rng.shuffle(image)
        tau[b] = dict(zip(pred, image))
    return tau


def expansion_maps(n, expand):
    """The full ``n``-shift onto the space where each ``j`` in ``expand`` is
    always followed by ``expand[j]``, by ``j -> j expand[j]``, and its
    two-state inverse: an orbit equivalence that is no eventual conjugacy."""
    source = build_shift_space([[1] * n for _ in range(n)])
    target = build_shift_space(
        [
            [int(expand.get(j) in (None, t)) for t in range(1, n + 1)]
            for j in range(1, n + 1)
        ]
    )
    fwd, back = {}, {}
    for j in range(1, n + 1):
        fwd[("s", j)] = ("s", (j, expand[j]) if j in expand else (j,))
        back[("copy", j)] = ("skip" if j in expand else "copy", (j,))
        back[("skip", j)] = ("copy", ())
    return (
        transducer(source, target, ["s"], "s", fwd),
        transducer(target, source, ["copy", "skip"], "copy", back),
    )


# --- identities whose runs on w and on w[1:] may never share a state --------


def pair_buffer():
    """The identity of the full 2-shift that reads its input in pairs and
    emits each pair whole: the runs on ``w`` and on ``w[1:]`` stay at
    opposite parity, so they never share a state."""
    space = build_shift_space([[1, 1], [1, 1]])
    delta = {}
    for a in (1, 2):
        delta[("E", a)] = (f"O{a}", ())
        for b in (1, 2):
            delta[(f"O{a}", b)] = ("E", (a, b))
    return transducer(space, space, ["E", "O1", "O2"], "E", delta)


def two_mode():
    """The identity of the full 2-shift that copies at once after a leading
    ``1`` and holds back two symbols after a leading ``2``: on ``[1 2]``
    the run on ``w`` copies and the run on ``w[1:]`` buffers, so they
    never share a state, and the run on ``w`` stays three symbols ahead."""
    space = build_shift_space([[1, 1], [1, 1]])
    delta = {("q0", 1): ("C", (1,)), ("q0", 2): ("B2", ())}
    for a in (1, 2):
        delta[("C", a)] = ("C", (a,))
        delta[("B2", a)] = (f"B2{a}", ())
        for b in (1, 2):
            for c in (1, 2):
                delta[(f"B{b}{c}", a)] = (f"B{c}{a}", (b,))
    states = ["q0", "C", "B2"] + [f"B{b}{c}" for b in (1, 2) for c in (1, 2)]
    return transducer(space, space, states, "q0", delta)


def delay_line_json(length, loop_to=None):
    """A transducer of the full 2-shift, as JSON, that reads ``length``
    symbols through a chain of states emitting nothing and then copies its
    input; with ``loop_to``, the end of the chain goes back silently to
    that state instead, a cycle that never emits."""
    delta = [
        {"state": f"s{i}", "in": a, "out": [], "next": f"s{i + 1}"}
        for i in range(length - 1)
        for a in (1, 2)
    ]
    last, end = f"s{length - 1}", "copy" if loop_to is None else f"s{loop_to}"
    delta += [{"state": last, "in": a, "out": [], "next": end} for a in (1, 2)]
    delta += [{"state": "copy", "in": a, "out": [a], "next": "copy"} for a in (1, 2)]
    states = [f"s{i}" for i in range(length)] + ["copy"]
    return {"type": "transducer", "states": states, "initial": "s0", "delta": delta}
