"""Orbit alignment, the induced potential map, and the equivalence ladder.

Given a homeomorphism candidate ``h`` between two shift spaces, the
central objects are the *orbit cocycles*: nonnegative integer cylinder
functions ``k, l`` with

    sigma_B^k(x) ( h(sigma_A(x)) )  =  sigma_B^l(x) ( h(x) )

for every point ``x``.  Their existence certifies continuous orbit
equivalence; their shape decides the finer rungs of the ladder

    conjugacy  >  eventual conjugacy  <=  strong COE  <=  COE.

From an aligned pair the *induced potential* homomorphism carries an
integer function ``f`` on the target space to one on the source:

    (induced f)(x) = sum_{i=0..l(x)} f(sigma^i h x)
                   - sum_{j=0..k(x)} f(sigma^j h sigma x)

with both upper bounds inclusive.  For a conjugacy the sums telescope to
``f o h``; whether they do for *every* ``f`` is exactly what separates
conjugacy from eventual conjugacy, and :func:`check_potential_identity`
decides that over all indicator functions up to a depth.

The cocycles and the intertwining checks are exact on every point, not
only on eventually periodic ones, and come from walks over pairs of
states of ``h`` (the square of a transducer, Béal, Carton, Prieur and
Sakarovitch 2003), one run on a cylinder word ``w`` and one on
``w[1:]``.  On ``[w]`` the difference ``c = l - k`` is how far the run on
``w`` is ahead in output where the two runs first share a state, and the
least ``l`` is ``max(c, 0)`` plus the most symbols one walk compares up
to its last mismatch; no point is mapped.  The pair is the least one
whenever ``h`` is injective, as every map given to :func:`classify` is.
A cylinder whose runs never share a state falls back on points that
propose candidate pairs, each certified or refuted by a walk.  A pair of
block codes that composition shows to be inverse is a conjugacy whose
cocycles :func:`classify` gives in closed form.  A mismatch that recurs
on a cycle, or a walk that hits a cap, reports undecided, never a
refutation.  :func:`cylinder_family` and :func:`verify_cocycles` remain
for sampled re-checks on explicit points.
"""

from collections import Counter
from dataclasses import dataclass
from math import inf

from .config import HORIZON_MULT, MAX_DEPTH, WORD_TABLE_LIMIT, RunConfig
from .errors import (
    InadmissibleWord,
    InconsistentRoutes,
    NoAlignment,
    PreconditionFailed,
    TooLarge,
)
from .functions import (
    CylinderFunction,
    combine,
    constant,
    evaluate,
    find_transfer,
    transfer_obstruction,
)
from .maps import BlockCode, _as_transducer, _composite_mismatch, _walk, apply_map
from .shifts import (
    _point_key,
    canonical_point,
    enumerate_points,
    point_with_prefix,
    shift_point,
)

__all__ = [
    "OrbitCocyclePair",
    "Verdict",
    "SegmentReduction",
    "orbit_cocycles",
    "verify_cocycles",
    "induced_potential",
    "check_potential_identity",
    "check_conjugacy",
    "check_eventual_conjugacy",
    "check_strong_coe",
    "reduce_orbit_segments",
    "classify",
    "cylinder_family",
    "aperiodic_point_with_prefix",
]


@dataclass(frozen=True)
class OrbitCocyclePair:
    """Nonnegative cylinder functions ``k, l`` aligning orbits under a map."""

    k: CylinderFunction
    l: CylinderFunction

    @property
    def depth(self):
        return self.k.depth

    def difference(self):
        """The cylinder function ``l - k``."""
        return combine(1, self.l, -1, self.k)


@dataclass(frozen=True)
class Verdict:
    """Outcome of :func:`classify`, with re-verifiable witnesses.

    ``kind`` is one of ``Conjugacy``, ``EventualConjugacy``, ``StrongCOE``,
    ``COE``, ``Undecided``.  ``lag`` carries the eventual-conjugacy lag,
    ``cocycles`` the pair of :class:`OrbitCocyclePair` (one per
    direction), ``transfers`` the strong-COE transfer functions, and
    ``witness`` whatever refuted a stronger rung.  A ``COE`` verdict's
    ``note`` names the direction in which no transfer exists, the cycle
    of a periodic point and the non-zero sum of ``l - k - 1`` over one
    period of it.
    """

    kind: str
    lag: int | None = None
    cocycles: tuple | None = None
    transfers: tuple | None = None
    witness: object = None
    depth: int | None = None
    note: str = ""


@dataclass(frozen=True)
class SegmentReduction:
    """Outcome of the orbit-segment cancellation: equality or a period."""

    equal: bool
    period: int | None = None


# ---------------------------------------------------------------------------
# candidate points and their images


def _mismatched_cycle(space, s):
    """A cycle word attachable after state ``s`` that ends at a state != s.

    Looks for ``v`` in the followers of ``s`` and ``u != s`` with
    ``u -> v`` allowed and ``u`` reachable from ``v``; the cycle word is
    then the shortest walk ``v ... u``.  Returns None if no follower of
    ``s`` admits one (then every follower's only predecessor is ``s``).
    """
    m = space.matrix
    for v in m.followers[s - 1]:
        parent = {v: None}
        frontier = [v]
        while frontier:
            nxt = []
            for x in frontier:
                if x != s and m.allows(x, v):
                    path = []
                    while x is not None:
                        path.append(x)
                        x = parent[x]
                    return tuple(reversed(path))
                for y in m.followers[x - 1]:
                    if y not in parent:
                        parent[y] = x
                        nxt.append(y)
            frontier = nxt
    return None


def aperiodic_point_with_prefix(space, word):
    """A canonical point with nonempty preperiod starting with ``word``.

    Such points exist in every cylinder: were every follower of every
    state entered only from that state, all column sums would be 1 and
    the matrix a permutation, which is excluded.  The construction
    extends the word until its end state admits a closing cycle whose
    last symbol differs, so no preperiod symbol can be absorbed.
    """
    word = tuple(word)
    cached = space._aperiodic_cache.get(word)
    if cached is not None:
        return cached
    z = point_with_prefix(space, word)
    result = None
    if z.preperiod:
        result = z
    else:
        fol = space.matrix.followers
        frontier = [word]
        for _ in range(space.n + 1):
            nxt = []
            for pre in frontier:
                cyc = _mismatched_cycle(space, pre[-1])
                if cyc is not None:
                    result = canonical_point(space, pre, cyc)
                    break
                nxt.extend(pre + (b,) for b in fol[pre[-1] - 1])
            if result is not None:
                break
            frontier = nxt
    if result is None:
        raise InadmissibleWord(f"no aperiodic representative for {word}")
    space._aperiodic_cache[word] = result
    return result


def cylinder_family(space, depth, cfg):
    """Points to re-check per depth-cylinder: the enumerated members within
    ``cfg.max_pre`` and ``cfg.max_cyc``, plus one periodic and one
    preperiod-bearing representative each.

    Returns a dict mapping each allowed depth-word to a nonempty tuple of
    canonical points whose sequences start with that word.
    """
    members = {}
    for p in enumerate_points(space, cfg.max_pre, cfg.max_cyc):
        members.setdefault(p.expand(depth), []).append(p)
    fam = {}
    for w in space.words(depth):
        pts = set(members.get(w, ()))
        pts.add(point_with_prefix(space, w))
        pts.add(aperiodic_point_with_prefix(space, w))
        fam[w] = tuple(sorted(pts, key=_point_key))
    return fam


def _record(a, b):
    """``(a, b, |a.pre|, |b.pre|, |a.cycle|, r)`` with ``r`` the rotation
    taking ``a.cycle`` to ``b.cycle``, None if none does (both primitive)."""
    ca, cb = a.cycle, b.cycle
    turns = range(len(ca)) if len(cb) == len(ca) else ()
    r = next((i for i in turns if ca[i:] + ca[:i] == cb), None)
    return a, b, len(a.preperiod), len(b.preperiod), len(ca), r


def _image_record(h, p, images):
    """:func:`_record` of ``h(p)`` and ``h(sigma p)``, mapping each point
    once: ``images`` holds the images found so far."""
    sp = shift_point(h.source, p)
    for q in (p, sp):
        if q not in images:
            images[q] = apply_map(h, q)
    return _record(images[p], images[sp])


def _solutions(rec, l, top):
    """The ``k <= top`` with ``sigma^l a = sigma^k b`` as a range, for the
    :func:`_record` of canonical ``a, b``: one ``k`` while ``l < |a.pre|``,
    else the class of ``|b.pre| + l - |a.pre| - r`` modulo the cycle length."""
    a, b, na, nb, c, r = rec
    if l < 0 or top < 0:
        raise ValueError("shift count must be >= 0")
    if l < na:
        k = l - na + nb
        ok = 0 <= k <= top and r == 0 and a.preperiod[l:] == b.preperiod[k:]
        return range(k, k + ok)
    if r is None:
        return range(0)
    return range(nb + (l - na - r) % c, top + 1, c)


# ---------------------------------------------------------------------------
# the product walk


def _compared(sa, sb, last, da, db, xa, xb):
    """The walk node after side A has emitted ``xa`` and side B ``xb``,
    the number of symbol pairs compared, and one past the index of the
    last pair that differs (0 when all agree).

    Each side first drops the symbols it still owes (``da``, ``db``); what
    is left of the two streams is compared, and the rest is the unmatched
    output of the side that is ahead.
    """
    xa, da = xa[da:], max(0, da - len(xa))
    xb, db = xb[db:], max(0, db - len(xb))
    n = min(len(xa), len(xb))
    miss = 0
    if xa[:n] != xb[:n]:
        miss = next(i for i in range(n, 0, -1) if xa[i - 1] != xb[i - 1])
    return (sa, sb, last, da, db, xa[n:], xb[n:]), n, miss


def _aligned(sa, sb, last, da, db, xa, xb):
    """The node of :func:`_compared`, or None when the streams disagree."""
    node, _, miss = _compared(sa, sb, last, da, db, xa, xb)
    return None if miss else node


def _misaligned(m, words, k, l, safe):
    """The shortest input word, starting with one of ``words``, on which
    ``sigma^k m(sigma x) = sigma^l m(x)`` fails for every ``x`` that starts
    with it; None when it holds on all of their cylinders.

    ``m`` is a transducer.  It runs on each word ``w`` (side A) and on
    ``w[1:]`` (side B); after that both sides read the same input, and
    the :func:`~orbiteq.maps._walk` goes breadth first over nodes ``(state
    A, state B, last input, drops left on A, drops left on B, unmatched
    output of A, unmatched output of B)``.  A closed walk certifies the
    equation on every point of the cylinders, not only on eventually
    periodic ones: the output symbols are fixed by the input read, and
    ``m`` is productive.  ``safe`` is shared by all the walks of one
    machine.

    Raises
    ------
    TooLarge
        if the walk hits a cap.
    """
    delta = m.delta

    def step(node, a):
        sa, sb, _, da, db, qa, qb = node
        sa, oa = delta[(sa, a)]
        sb, ob = delta[(sb, a)]
        return _aligned(sa, sb, a, da, db, qa + oa, qb + ob)

    roots = {}
    for w in words:
        (sa, oa), (sb, ob) = m._run(w), m._run(w[1:])
        node = _aligned(sa, sb, w[-1], l, k, oa, ob)
        if node is None:
            return w
        roots.setdefault(node, w)
    return _walk(m.source, roots, step, safe)


def _intertwining_witness(m, k, safe):
    """A point ``x`` with ``sigma^k m(sigma x) != sigma^(k+1) m(x)``, from
    the shortest word that shows it, or None when there is none."""
    word = _misaligned(m, m.source.words(1), k, k + 1, safe)
    return word and point_with_prefix(m.source, word)


def _difference(m, sa, sb, last, d):
    """``l - k`` read where the two runs first share a state, or None when
    they never do.

    The runs stand in states ``sa`` (side A) and ``sb`` (side B) after
    input ending in ``last``, with side A ``d`` symbols ahead in output.
    Breadth first over ``(state A, state B, last input)``, the first
    node with equal states gives the answer: from there both sides emit
    the same stream, so ``sigma^k h(sigma x) = sigma^l h(x)`` with ``l -
    k`` equal to how far side A is ahead, on the whole cylinder of the
    path to that node.
    """
    delta, fol = m.delta, m.source.matrix.followers
    frontier, seen = [(sa, sb, last, d)], {(sa, sb, last)}
    while frontier:
        nxt = []
        for sa, sb, last, d in frontier:
            if sa == sb:
                return d
            for a in fol[last - 1]:
                (ta, xa), (tb, xb) = delta[sa, a], delta[sb, a]
                if (ta, tb, a) not in seen:
                    seen.add((ta, tb, a))
                    nxt.append((ta, tb, a, d + len(xa) - len(xb)))
        frontier = nxt
    return None


def _last_mismatch(m, root, safe, late):
    """The most symbol pairs a walk from ``root`` compares up to and
    including its last mismatch: 0 when no mismatch is reachable, ``inf``
    when a mismatch recurs on a cycle.

    The walk steps both sides of ``m`` on each admissible input, as
    :func:`_misaligned` does, but a mismatch is an edge label, not a dead
    end.  Every cycle of the walk compares at least one pair (``m`` is
    productive), so a mismatch that a cycle reaches recurs at unbounded
    positions.  The strongly connected components of the nodes reached
    are finished sinks first (Tarjan, iteratively), so a node's value is
    read off its finished successors.  What a node leads to depends on
    the node alone: values above 0 are kept in ``late``, nodes of value 0
    join ``safe``, and both are shared by every walk of ``m``.

    Raises
    ------
    TooLarge
        if a node's queues hold more than ``MAX_DEPTH`` symbols, or the
        walk passes ``WORD_TABLE_LIMIT`` new nodes.
    """
    if root in safe:
        return 0
    if root in late:
        return late[root]
    delta, fol = m.delta, m.source.matrix.followers
    # per node on the stack: its number, low link, the greatest value of
    # an edge leaving its component, and of a mismatch inside it (-1: no
    # edge inside)
    num, low, best, inner = {}, {}, {}, {}
    stack, path = [], []

    def enter(node):
        if len(num) >= WORD_TABLE_LIMIT:
            raise TooLarge(f"product walk past {WORD_TABLE_LIMIT} nodes")
        num[node] = low[node] = len(num)
        best[node], inner[node] = 0, -1
        stack.append(node)
        path.append([node, iter(fol[node[2] - 1]), None])

    def edge(node, child, n, miss):
        if child in safe:
            best[node] = max(best[node], miss)
        elif child in late:
            best[node] = max(best[node], n + late[child])
        else:  # on the stack, so in the component of node
            low[node] = min(low[node], low[child])
            inner[node] = max(inner[node], miss)

    enter(root)
    while path:
        frame = path[-1]
        node = frame[0]
        if frame[2] is not None:  # back from the child it names
            edge(node, *frame[2])
            frame[2] = None
        sa, sb, _, da, db, qa, qb = node
        for a in frame[1]:
            (ta, xa), (tb, xb) = delta[sa, a], delta[sb, a]
            child, n, miss = _compared(ta, tb, a, da, db, qa + xa, qb + xb)
            if child in num or child in safe or child in late:
                edge(node, child, n, miss)
                continue
            if len(child[-2]) + len(child[-1]) > MAX_DEPTH:
                raise TooLarge(f"product queue past {MAX_DEPTH} symbols")
            frame[2] = (child, n, miss)
            enter(child)
            break
        else:
            path.pop()
            if low[node] != num[node]:
                continue
            comp = []
            while not comp or comp[-1] is not node:
                comp.append(stack.pop())
            value = best[node]
            if len(comp) > 1 or inner[node] >= 0:
                value = inf if any(best[s] or inner[s] > 0 for s in comp) else 0
            if value:
                late.update(dict.fromkeys(comp, value))
            else:
                safe.update(comp)
            if value == inf:
                return inf
    return late.get(root, 0)


# ---------------------------------------------------------------------------
# orbit cocycles


def _candidate(h, w, depth, points, images):
    """The least ``(k, l)``, minimizing ``l`` and then ``k``, that aligns
    every one of ``points``, within the horizon of the shortest of them.

    Raises
    ------
    NoAlignment
        if no pair within the horizon aligns them all.
    """
    # l and k stay within every point's horizon, so within the least
    least = min(len(p.preperiod) + len(p.cycle) for p in points)
    top = HORIZON_MULT * (depth + least)
    recs = [_image_record(h, p, images) for p in points]
    for l in range(top + 1):
        sols = [_solutions(rec, l, top) for rec in recs]
        k = next((k for k in min(sols, key=len) if all(k in s for s in sols)), None)
        if k is not None:
            return k, l
    raise NoAlignment(f"no orbit alignment on cylinder {w}")


def _proposed(m, w, depth, safe):
    """The least pair on ``[w]`` from points: the least pair that aligns
    the points found so far, certified by :func:`_misaligned` or refuted
    by a word whose point joins them.  Only a cylinder whose two runs
    never share a state needs it."""
    src = m.source
    points = {point_with_prefix(src, w), aperiodic_point_with_prefix(src, w)}
    images = {}
    while True:
        k, l = _candidate(m, w, depth, points, images)
        word = _misaligned(m, (w,), k, l, safe)
        if word is None:
            return k, l
        points.add(point_with_prefix(src, word))


def _least_pair(m, w, depth, safe, late):
    """The least ``(k, l)`` on the cylinder ``[w]``, as
    :func:`orbit_cocycles` finds it.

    The :func:`_proposed` fork serves only runs that never share a state.
    Reading ``c`` from cycles of the square instead would let it go
    (``ROADMAP.md``, item 9)."""
    (sa, oa), (sb, ob) = m._run(w), m._run(w[1:])
    c = _difference(m, sa, sb, w[-1], len(oa) - len(ob))
    if c is None:
        return _proposed(m, w, depth, safe)
    root, n, miss = _compared(sa, sb, w[-1], max(c, 0), max(-c, 0), oa, ob)
    after = _last_mismatch(m, root, safe, late)
    if after == inf:
        raise NoAlignment(f"no orbit alignment on cylinder {w}")
    l = max(c, 0) + (n + after if after else miss)
    return l - c, l


def orbit_cocycles(h, depth):
    """The minimal orbit cocycle pair of ``h`` at the given cylinder depth.

    For each depth-cylinder ``[w]`` the returned ``(k, l)`` is the
    lexicographically least pair (minimize ``l``, then ``k``) with
    ``sigma^k h(sigma x) = sigma^l h(x)`` for *every* point ``x`` of
    ``[w]``, not only for eventually periodic ones.  Both come from the
    square of ``h``, one run on ``w`` (side A) and one on ``w[1:]`` (side
    B), with no point mapped:

    * ``c = l - k`` is how far side A is ahead in output at the first
      node, breadth first, where the two runs share a state
      (:func:`_difference`).  From there both sides emit one stream, so
      ``(k, l)`` with that difference aligns a subcylinder of ``[w]``.
      When ``h`` is injective, ``[w]`` holds points whose image is not
      eventually periodic, and such a point is aligned by one difference
      only.
    * ``l0`` is ``max(c, 0)`` plus the most symbol pairs any walk compares
      up to its last mismatch, side A dropping ``max(c, 0)`` symbols and
      side B ``max(-c, 0)`` (:func:`_last_mismatch`), and ``k0 = l0 -
      c``.  For a fixed difference the aligning ``l`` are those past every
      mismatch, so ``(k0, l0)`` is the least pair.

    The pair is least whenever ``h`` is injective, which holds for every
    map :func:`classify` is given.  A cylinder whose two runs never share
    a state falls back on :func:`_proposed`, which searches pairs within
    ``HORIZON_MULT * (depth + |preperiod| + |cycle|)`` of a point.

    Raises
    ------
    NoAlignment
        if on some cylinder a mismatch recurs on a cycle of the walk (or
        the fallback finds no pair within its horizon); the map is then
        not an orbit map.
    TooLarge
        if a product walk hits a cap.
    """
    return _cocycles(_as_transducer(h), depth, set(), {})


def _cocycles(m, depth, safe, late):
    """:func:`orbit_cocycles` of the transducer ``m``, sharing ``safe`` and
    ``late`` (:func:`_last_mismatch`) with the other walks of ``m``."""
    src = m.source
    ktab, ltab = {}, {}
    for w in src.words(depth):
        ktab[w], ltab[w] = _least_pair(m, w, depth, safe, late)
    return OrbitCocyclePair(
        CylinderFunction(src, depth, ktab), CylinderFunction(src, depth, ltab)
    )


def verify_cocycles(h, kl, points):
    """Re-check the alignment equation for ``kl`` on explicit points.

    Returns ``(True, None)`` or ``(False, witness_point)``.
    """
    images = {}
    for p in points:
        k, l = evaluate(kl.k, p), evaluate(kl.l, p)
        if k not in _solutions(_image_record(h, p, images), l, k):
            return False, p
    return True, None


# ---------------------------------------------------------------------------
# the induced potential


def _certification_depth(h, kl, need):
    """Least input depth whose output prefixes cover ``need`` symbols past
    the cocycle bounds, for the word and its shift."""
    src = h.source
    c = kl.depth
    if isinstance(h, BlockCode):
        # a window-w code emits exactly len(word) - w + 1 symbols
        w = h.window
        least_d = max(c, 2, kl.l.max() + need + w - 1, kl.k.max() + need + w)
        if least_d > MAX_DEPTH:
            raise TooLarge(f"potential not certifiable within depth cap {MAX_DEPTH}")

        def certified(d):
            return d >= least_d

    else:
        # per depth-c word u and its shift u[1:]: output past the cocycle
        # bound, and the configuration (state, last input) reached; then
        # extend by d - c
        starts = []
        for u in src.words(c):
            for v, bound in ((u, kl.l.table[u]), (u[1:], kl.k.table[u])):
                state, out = h._run(v)
                starts.append((len(out) - bound, (state, u[-1])))
        memo = {}

        def least(q, m):
            """Fewest symbols output over ``m`` more inputs from configuration ``q``."""
            if m == 0:
                return 0
            if (q, m) not in memo:
                fol = src.matrix.followers[q[1] - 1]
                steps = [(h.step(q[0], b), b) for b in fol]
                memo[q, m] = min(
                    len(out) + least((s, b), m - 1) for (s, out), b in steps
                )
            return memo[q, m]

        def certified(d):
            return all(budget + least(q, d - c) >= need for budget, q in starts)

    for d in range(max(c, 2), MAX_DEPTH + 1):
        # the caller's walk visits one leaf per depth-d word: the cap bounds
        # them as it bounds a word table, for block codes and transducers
        if src.word_count(d) > WORD_TABLE_LIMIT:
            raise TooLarge(f"word table at depth {d} too large")
        if certified(d):
            return d
    raise TooLarge(f"potential not certifiable within depth cap {MAX_DEPTH}")


def _runs(h, kl, d):
    """``(w, k, l, out, out_s)`` for each admissible source word ``w`` of
    length ``d``, in the order of ``ShiftSpace.words(d)``: the cocycles on
    ``w`` and the output of ``h`` on ``w`` and on ``w[1:]``.

    The words grow depth first, one follower at a time, and each step runs
    both machines one ``delta`` step, so shared prefixes run once and no
    depth-``d`` word table is built.
    """
    m = _as_transducer(h)
    delta, fol, c, s0 = m.delta, m.source.matrix.followers, kl.depth, m.initial
    stack = [((a,), *delta[s0, a], s0, ()) for a in range(m.source.n, 0, -1)]
    while stack:
        w, sa, out, sb, out_s = stack.pop()
        if len(w) == d:
            yield w, kl.k.table[w[:c]], kl.l.table[w[:c]], out, out_s
            continue
        for b in reversed(fol[w[-1] - 1]):
            (ta, xa), (tb, xb) = delta[sa, b], delta[sb, b]
            stack.append((w + (b,), ta, out + xa, tb, out_s + xb))


def induced_potential(h, kl, f):
    """Carry ``f`` on the target space to the source space along ``kl``.

    The value on a source cylinder is the inclusive sum of ``f`` over the
    first ``l+1`` orbit positions of the image minus the inclusive sum
    over the first ``k+1`` positions of the shifted point's image.  The
    result is constant on cylinders of the returned depth by
    construction: every summand is read off output prefixes that the
    cylinder word determines.  Those prefixes come from one depth-first
    walk of the source words (:func:`_runs`), so each shared prefix runs
    once, and the table's keys are in the order of ``ShiftSpace.words``.

    The map is additive in ``f``, and for ``f`` constant equal to ``c``
    the result is ``c * (l - k)``.

    Raises
    ------
    TooLarge
        if the required certification depth exceeds the depth cap, or its
        words exceed the word-table cap.
    """
    if f.space != h.target:
        raise ValueError("f must live on the target space of the map")
    d = _certification_depth(h, kl, f.depth)
    df = f.depth
    table = {}
    for w, k, l, out, out_s in _runs(h, kl, d):
        pos = sum(f.table[out[i : i + df]] for i in range(l + 1))
        neg = sum(f.table[out_s[j : j + df]] for j in range(k + 1))
        table[w] = pos - neg
    return CylinderFunction(h.source, d, table)


def check_potential_identity(h, kl, depth):
    """Does the induced potential equal plain composition for every
    indicator of a target word of length ``depth``?

    By additivity this settles every integer function of depth at most
    ``depth``: shallower indicators are sums of depth-``depth`` ones.
    Per source cylinder the check is one signed multiset comparison of
    output windows, which is exactly the identity quantified over all
    indicators at once.  The cylinders of the certified depth come from
    one depth-first walk (:func:`_runs`) in lexicographic order, which
    stops at the first that fails; no word table of that depth is built.

    For a :class:`BlockCode` with ``l - k = 1`` on every cylinder the
    answer is ``(True, None)`` in closed form, with no word table built.
    A block code with ``l - k != 1`` on some cylinder fails there, and
    that input, like every transducer, runs the multiset comparison to
    find its witness.

    Returns ``(True, None)`` or ``(False, witness_word)`` where the
    witness is a target word whose indicator fails.

    Raises
    ------
    TooLarge
        if output prefixes cannot be certified within the depth cap, or
        the words of the certified depth exceed the word-table cap.
    """
    if isinstance(h, BlockCode) and kl.difference().is_constant(1):
        # a block code commutes with the shift, so the image of w[1:] is the
        # image of w less its first symbol: both sides count windows of the
        # image of w, at offsets 0..l and 0..k+1, the same ones when l = k + 1
        return True, None
    d = _certification_depth(h, kl, depth)
    for _, k, l, out, out_s in _runs(h, kl, d):
        c = Counter(out[i : i + depth] for i in range(l + 1))
        c.subtract(out_s[j : j + depth] for j in range(k + 1))
        c[out[:depth]] -= 1
        for v, mult in c.items():
            if mult != 0:
                return False, v
    return True, None


# ---------------------------------------------------------------------------
# ladder checks


def check_conjugacy(h):
    """Does ``h`` intertwine the shifts, ``h(sigma x) = sigma h(x)`` for
    every point ``x``?

    Decided exactly by one product walk (:func:`_misaligned`).  Returns
    ``(True, None)`` or ``(False, witness_point)``, the witness starting
    with the shortest word on which the equation fails.
    """
    wit = _intertwining_witness(_as_transducer(h), 0, set())
    return wit is None, wit


def check_eventual_conjugacy(h, h_inv, K):
    """Check the lag-``K`` intertwining in both directions, exactly.

    Forward: ``sigma_B^K(h(sigma_A x)) = sigma_B^{K+1}(h(x))`` for every
    source point; mirrored with ``h_inv``.  Returns ``(True, None)`` or
    ``(False, witness_point)``.
    """
    if K < 0:
        raise ValueError("lag must be nonnegative")
    wit = _intertwining_witness(_as_transducer(h), K, set())
    wit = wit or _intertwining_witness(_as_transducer(h_inv), K, set())
    return wit is None, wit


def check_strong_coe(h, h_inv, kl1=None, kl2=None):
    """Transfer functions certifying strong orbit equivalence, if any exist.

    Solves ``l - k = 1 + b - b o sigma`` exactly in both directions, on the
    given cocycles or on those of depth 3.  Returns ``(b1, b2)``, or
    ``None`` when no continuous transfer exists in some direction
    (:func:`~orbiteq.functions.transfer_obstruction` names a periodic
    point that proves it).
    """
    kl1 = kl1 or orbit_cocycles(h, 3)
    kl2 = kl2 or orbit_cocycles(h_inv, 3)
    b1 = find_transfer(h.source, kl1.difference(), 1)
    if b1 is None:
        return None
    b2 = find_transfer(h_inv.source, kl2.difference(), 1)
    if b2 is None:
        return None
    return b1, b2


# ---------------------------------------------------------------------------
# orbit segment cancellation


def reduce_orbit_segments(space, K, y, w):
    """Cancel the orbit segments of length ``K`` of two points.

    Requires the multisets ``{y, sigma y, ..., sigma^{K-1} y}`` and
    ``{w, ..., sigma^{K-1} w}`` to be equal (that is the executable form
    of requiring equal sums of every integer function over the two
    segments, since indicator functions separate points).  Under that
    hypothesis either ``y = w``, or both lie on one periodic orbit:
    ``y = sigma^p w`` and ``w = sigma^q y`` with ``p + q`` a verified
    period of ``y``.

    Returns a :class:`SegmentReduction`; raises
    :class:`PreconditionFailed` on multiset mismatch (or on ``K = 0``
    with distinct points, where the hypothesis is empty but equality is
    already forced by the caller's setting).
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    if y == w:
        return SegmentReduction(equal=True)
    if K == 0:
        raise PreconditionFailed("K = 0 requires equal points")
    ys = [shift_point(space, y, i) for i in range(K)]
    ws = [shift_point(space, w, i) for i in range(K)]
    if Counter(ys) != Counter(ws):
        raise PreconditionFailed("orbit segment multisets differ")
    p = next(i for i, q in enumerate(ws) if q == y)
    q = next(i for i, z in enumerate(ys) if z == w)
    period = p + q
    if shift_point(space, y, period) != y:
        raise PreconditionFailed("cancellation produced a non-period")
    return SegmentReduction(equal=False, period=period)


# ---------------------------------------------------------------------------
# classification


def _search_cocycles(cfg, maps, safes=None):
    """The cocycles of each map of ``maps`` at the least depth from
    ``min(cfg.depth, 3)`` to ``cfg.depth`` at which all of them align;
    raises NoAlignment when they do not at ``cfg.depth``.  ``safes`` holds
    each map's set of safe nodes, kept across depths with its memo of
    later mismatches (:func:`_last_mismatch`); fresh sets if None."""
    safes = safes or [set() for _ in maps]
    walks = [(_as_transducer(h), safe, {}) for h, safe in zip(maps, safes)]
    depths = range(min(cfg.depth, 3), cfg.depth + 1)
    for depth in depths:
        try:
            return [_cocycles(m, depth, safe, late) for m, safe, late in walks]
        except NoAlignment:
            if depth == depths[-1]:
                raise


def _align(h, h_inv, cfg):
    """Both cocycle pairs, the witness of :func:`check_conjugacy` and the
    least lag :func:`check_eventual_conjugacy` accepts (or None).

    The cocycles are searched at depth ``min(cfg.depth, 3)``, and at each
    depth up to ``cfg.depth`` while no alignment is found.  The walks of
    each map share one set of safe nodes.
    """
    m, m_inv = _as_transducer(h), _as_transducer(h_inv)
    safe = set()
    kl1, kl2 = _search_cocycles(cfg, [m, m_inv], [safe, set()])
    direct_wit = _intertwining_witness(m, 0, safe)
    lag = None
    if kl1.difference().is_constant(1) and kl2.difference().is_constant(1):
        # each point aligns at (k(x), k(x) + 1); shifting by K - k(x) >= 0
        # gives lag K, and no smaller K holds on the cylinder of greatest k
        lag = max(kl1.k.max(), kl2.k.max())
    return kl1, kl2, direct_wit, lag


def classify(h, h_inv, cfg=None):
    """Strongest equivalence rung certified for the pair ``(h, h_inv)``.

    The caller is expected to have verified the inverse pair.  Two
    independent routes decide conjugacy: the direct shift-intertwining
    check, and the potential-identity route (eventual conjugacy at the
    least lag the cocycles allow, and only then the induced potential
    equalling composition).  The routes must agree; disagreement raises
    :class:`InconsistentRoutes` because it can only be a bug.

    Weaker rungs: constant cocycle differences ``l - k = 1`` with a
    verified lag give eventual conjugacy; transfer functions give strong
    orbit equivalence; bare cocycles give orbit equivalence, and then the
    note carries the periodic point that shows no transfer exists for
    this map.  The cocycles are exact (:func:`orbit_cocycles`), searched
    at depth ``min(cfg.depth, 3)`` and then at each depth up to
    ``cfg.depth``; an alignment search that finds nothing at any of them
    yields ``Undecided``.

    A pair of block codes that composition certifies as inverse is a
    ``Conjugacy`` with cocycles ``(0, 1)`` on every cylinder, in closed
    form, with no point family and no images:

    * a block code commutes with the shift, and a shift-commuting
      homeomorphism is a conjugacy;
    * ``l = 0`` on a cylinder would need ``h(x) = sigma^k h(sigma x)
      = sigma^(k+1) h(x)``, a periodic image, for every ``x`` in it, but
      the cylinder holds non-periodic ``x``, and an injective ``h`` that
      commutes with the shift maps them to non-periodic points; so
      ``(0, 1)`` is the least pair.

    These are the cocycles :func:`orbit_cocycles` returns at depth
    ``min(cfg.depth, 3)``.
    """
    cfg = cfg or RunConfig()
    kl_depth = min(cfg.depth, 3)
    codes = isinstance(h, BlockCode) and isinstance(h_inv, BlockCode)
    try:
        closed = codes and not (
            _composite_mismatch(h_inv, h) or _composite_mismatch(h, h_inv)
        )
    except TooLarge:  # the product walks below decide, or hit their own cap
        closed = False
    if closed:
        kl1, kl2 = (
            OrbitCocyclePair(
                constant(m.source, 0, kl_depth), constant(m.source, 1, kl_depth)
            )
            for m in (h, h_inv)
        )
        return Verdict("Conjugacy", lag=0, cocycles=(kl1, kl2), depth=cfg.depth)
    try:
        kl1, kl2, direct_wit, lag = _align(h, h_inv, cfg)
    except NoAlignment as e:
        return Verdict("Undecided", depth=cfg.depth, note=str(e))
    direct = direct_wit is None
    eventual = lag is not None

    psi_ok = psi_wit = None
    if eventual:  # without a lag the theorem route is False whatever psi says
        try:
            psi_ok, psi_wit = check_potential_identity(h, kl1, cfg.depth)
        except TooLarge:
            pass

    theorem_route = eventual and psi_ok  # None while psi is undecided
    if theorem_route is not None and theorem_route != direct:
        raise InconsistentRoutes(
            f"direct conjugacy check ({direct}) disagrees with the "
            f"potential-identity route (eventual={eventual}, "
            f"potential identity={psi_ok})"
        )

    if direct:
        return Verdict("Conjugacy", lag=0, cocycles=(kl1, kl2), depth=cfg.depth)
    if eventual:
        return Verdict(
            "EventualConjugacy",
            lag=lag,
            cocycles=(kl1, kl2),
            witness=psi_wit if psi_ok is False else direct_wit,
            depth=cfg.depth,
        )
    transfers = check_strong_coe(h, h_inv, kl1, kl2)
    if transfers is not None:
        return Verdict(
            "StrongCOE",
            cocycles=(kl1, kl2),
            transfers=transfers,
            witness=direct_wit,
            depth=cfg.depth,
        )
    for direction, hh, kl in (("forward", h, kl1), ("backward", h_inv, kl2)):
        obstruction = transfer_obstruction(hh.source, kl.difference(), 1)
        if obstruction is not None:
            break
    p, s = obstruction
    return Verdict(
        "COE",
        cocycles=(kl1, kl2),
        witness=direct_wit,
        depth=cfg.depth,
        note=(
            f"no strong orbit equivalence transfer exists: {direction} "
            f"l - k - 1 sums to {s} over the cycle {','.join(map(str, p.cycle))}"
        ),
    )
