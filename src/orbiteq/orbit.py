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

Everything here is verified on exhaustive families of eventually
periodic points plus per-cylinder representatives, except for a pair of
block codes that composition shows to be inverse, whose conjugacy and
cocycles :func:`classify` gives in closed form; a bounded search that
finds nothing reports undecided, never a refutation.
"""

from collections import Counter
from dataclasses import dataclass

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
from .maps import BlockCode, _inverse_exactly, apply_map
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
# point families


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
    """Points to verify per depth-cylinder: enumerated members plus
    one periodic and one preperiod-bearing representative each.

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


def _family(h, depth, cfg):
    """The cylinder family of ``h.source`` and the :func:`_images` of its
    points, sorted: the first failure in this order is the witness."""
    cyl = cylinder_family(h.source, depth, cfg)
    return cyl, _images(h, sorted(set().union(*cyl.values()), key=_point_key))


def _images(h, points):
    """``{p: _record(h(p), h(sigma p))}`` in the order of ``points``, with
    one ``apply_map`` per distinct point: ``sigma p`` is often in ``points``."""
    shifted = [shift_point(h.source, p) for p in points]
    memo = {q: apply_map(h, q) for q in {*points, *shifted}}
    return {p: _record(memo[p], memo[sp]) for p, sp in zip(points, shifted)}


def _record(a, b):
    """``(a, b, |a.pre|, |b.pre|, |a.cycle|, r)`` with ``r`` the rotation
    taking ``a.cycle`` to ``b.cycle``, None if none does (both primitive)."""
    ca, cb = a.cycle, b.cycle
    turns = range(len(ca)) if len(cb) == len(ca) else ()
    r = next((i for i in turns if ca[i:] + ca[:i] == cb), None)
    return a, b, len(a.preperiod), len(b.preperiod), len(ca), r


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


def orbit_cocycles(h, depth, cfg=None):
    """The minimal orbit cocycle pair of ``h`` at the given cylinder depth.

    For each depth-cylinder the returned ``(k, l)`` is the
    lexicographically least pair (minimize ``l``, then ``k``) that aligns
    the orbits of ``h(sigma x)`` and ``h(x)`` for *every* point of the
    cylinder's verification family.  Values are exact; the search range
    per point is ``HORIZON_MULT * (depth + |preperiod| + |cycle|)``.

    Raises
    ------
    NoAlignment
        if some cylinder admits no aligning pair within the horizon; the
        map is then not an orbit map as far as this search can see.
    """
    cfg = cfg or RunConfig()
    return _cocycles(h, depth, *_family(h, depth, cfg))


def _cocycles(h, depth, cyl, images):
    """:func:`orbit_cocycles` on a family built by :func:`_family`."""
    src = h.source
    ktab, ltab = {}, {}
    for w in src.words(depth):
        # l and k stay within every point's horizon, so within the least
        least = min(len(p.preperiod) + len(p.cycle) for p in cyl[w])
        top = HORIZON_MULT * (depth + least)
        recs = [images[p] for p in cyl[w]]
        for l in range(top + 1):
            sols = [_solutions(rec, l, top) for rec in recs]
            k = next((k for k in min(sols, key=len) if all(k in s for s in sols)), None)
            if k is not None:
                break
        else:
            raise NoAlignment(f"no orbit alignment on cylinder {w}")
        ltab[w], ktab[w] = l, k
    return OrbitCocyclePair(
        CylinderFunction(src, depth, ktab), CylinderFunction(src, depth, ltab)
    )


def verify_cocycles(h, kl, points):
    """Re-check the alignment equation for ``kl`` on explicit points.

    Returns ``(True, None)`` or ``(False, witness_point)``.
    """
    wit = _first_misaligned(_images(h, tuple(points)), kl.k, kl.l)
    return wit is None, wit


def _first_misaligned(images, k, l):
    """The first point of ``images`` (as built by :func:`_images`) where
    ``sigma^k h(sigma p) = sigma^l h(p)`` fails, or None.

    ``k`` and ``l`` are ints, or cylinder functions evaluated at each point.
    """
    for p, rec in images.items():
        kp = k if isinstance(k, int) else evaluate(k, p)
        lp = l if isinstance(l, int) else evaluate(l, p)
        if kp not in _solutions(rec, lp, kp):
            return p
    return None


# ---------------------------------------------------------------------------
# the induced potential


def _certification_depth(h, kl, need):
    """Least input depth whose output prefixes cover ``need`` symbols past
    the cocycle bounds, for the word and its shift."""
    src = h.source
    if isinstance(h, BlockCode):
        # a window-w code emits exactly len(word) - w + 1 symbols
        w = h.window
        d = max(
            kl.depth,
            2,
            kl.l.max() + need + w - 1,
            kl.k.max() + need + w,
        )
        if d > MAX_DEPTH:
            raise TooLarge(f"potential not certifiable within depth cap {MAX_DEPTH}")
        return d
    # per depth-c word u and its shift u[1:]: output past the cocycle bound,
    # and the configuration (state, last input) reached; then extend by d - c
    c = kl.depth
    starts = []
    for u in src.words(c):
        for v, bound in ((u, kl.l.table[u]), (u[1:], kl.k.table[u])):
            state, out = h._run(v)
            starts.append((len(out) - bound, (state, u[-1])))
    memo = {}

    def least(q, m):
        """Fewest symbols emitted over ``m`` more inputs from configuration ``q``."""
        if m == 0:
            return 0
        if (q, m) not in memo:
            steps = [(h.step(q[0], b), b) for b in src.matrix.followers[q[1] - 1]]
            memo[q, m] = min(len(out) + least((s, b), m - 1) for (s, out), b in steps)
        return memo[q, m]

    for d in range(max(c, 2), MAX_DEPTH + 1):
        # the caller builds the depth-d word table next: cap it as words does
        if src.word_count(d) > WORD_TABLE_LIMIT:
            raise TooLarge(f"word table at depth {d} too large")
        if all(budget + least(q, d - c) >= need for budget, q in starts):
            return d
    raise TooLarge(f"potential not certifiable within depth cap {MAX_DEPTH}")


def induced_potential(h, kl, f):
    """Carry ``f`` on the target space to the source space along ``kl``.

    The value on a source cylinder is the inclusive sum of ``f`` over the
    first ``l+1`` orbit positions of the image minus the inclusive sum
    over the first ``k+1`` positions of the shifted point's image.  The
    result is constant on cylinders of the returned depth by
    construction: every summand is read off output prefixes that the
    cylinder word determines.

    The map is additive in ``f``, and for ``f`` constant equal to ``c``
    the result is ``c * (l - k)``.

    Raises
    ------
    TooLarge
        if the required certification depth exceeds the depth cap, or its
        word table exceeds the word-table cap.
    """
    if f.space != h.target:
        raise ValueError("f must live on the target space of the map")
    d = _certification_depth(h, kl, f.depth)
    src = h.source
    df = f.depth
    table = {}
    for w in src.words(d):
        k = kl.k.table[w[: kl.depth]]
        l = kl.l.table[w[: kl.depth]]
        out = h.output_prefix(w)
        out_s = h.output_prefix(w[1:])
        pos = sum(f.table[out[i : i + df]] for i in range(l + 1))
        neg = sum(f.table[out_s[j : j + df]] for j in range(k + 1))
        table[w] = pos - neg
    return CylinderFunction(src, d, table)


def check_potential_identity(h, kl, depth):
    """Does the induced potential equal plain composition for every
    indicator of a target word of length ``depth``?

    By additivity this settles every integer function of depth at most
    ``depth``: shallower indicators are sums of depth-``depth`` ones.
    Per source cylinder the check is one signed multiset comparison of
    output windows, which is exactly the identity quantified over all
    indicators at once.

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
        the word table at the certified depth exceeds its cap.
    """
    if isinstance(h, BlockCode) and kl.difference().is_constant(1):
        # a block code commutes with the shift, so the image of w[1:] is the
        # image of w less its first symbol: both sides count windows of the
        # image of w, at offsets 0..l and 0..k+1, the same ones when l = k + 1
        return True, None
    d = _certification_depth(h, kl, depth)
    for w in h.source.words(d):
        k = kl.k.table[w[: kl.depth]]
        l = kl.l.table[w[: kl.depth]]
        out = h.output_prefix(w)
        out_s = h.output_prefix(w[1:])
        c = Counter(out[i : i + depth] for i in range(l + 1))
        c.subtract(out_s[j : j + depth] for j in range(k + 1))
        c[out[:depth]] -= 1
        for v, mult in c.items():
            if mult != 0:
                return False, v
    return True, None


# ---------------------------------------------------------------------------
# ladder checks


def check_conjugacy(h, cfg=None, depth=None):
    """Does ``h`` intertwine the shifts on the verification family?

    Returns ``(True, None)`` or ``(False, witness_point)``.
    """
    cfg = cfg or RunConfig()
    depth = depth or cfg.depth
    wit = _first_misaligned(_family(h, depth, cfg)[1], 0, 1)
    return wit is None, wit


def check_eventual_conjugacy(h, h_inv, K, cfg=None, depth=None):
    """Check the lag-``K`` intertwining in both directions.

    Forward: ``sigma_B^K(h(sigma_A p)) = sigma_B^{K+1}(h(p))`` on the
    source family; mirrored with ``h_inv`` on the target family.
    Returns ``(True, None)`` or ``(False, witness_point)``.
    """
    if K < 0:
        raise ValueError("lag must be nonnegative")
    cfg = cfg or RunConfig()
    depth = depth or min(cfg.depth, 3)
    wit = _first_misaligned(_family(h, depth, cfg)[1], K, K + 1) or (
        _first_misaligned(_family(h_inv, depth, cfg)[1], K, K + 1)
    )
    return wit is None, wit


def check_strong_coe(h, h_inv, cfg=None, kl1=None, kl2=None):
    """Transfer functions certifying strong orbit equivalence, if any exist.

    Solves ``l - k = 1 + b - b o sigma`` exactly in both directions, on the
    given cocycles or on those of depth 3.  Returns ``(b1, b2)``, or
    ``None`` when no continuous transfer exists in some direction
    (:func:`~orbiteq.functions.transfer_obstruction` names a periodic
    point that proves it).  No depth is searched, so ``cfg.depth`` plays
    no part.
    """
    cfg = cfg or RunConfig()
    kl1 = kl1 or orbit_cocycles(h, 3, cfg)
    kl2 = kl2 or orbit_cocycles(h_inv, 3, cfg)
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


def _align(h, h_inv, depth, cfg):
    """Both cocycle pairs, the witness of :func:`check_conjugacy` and the
    lag :func:`check_eventual_conjugacy` would verify (or None), from one
    family per direction, which is dropped before the potential identity
    builds its word tables."""
    fwd = _family(h, depth, cfg)
    kl1 = _cocycles(h, depth, *fwd)
    kl2 = _cocycles(h_inv, depth, *_family(h_inv, depth, cfg))
    direct_wit = _first_misaligned(fwd[1], 0, 1)
    lag = None
    if kl1.difference().is_constant(1) and kl2.difference().is_constant(1):
        # each point aligns at (k(p), k(p) + 1); shifting by K - k(p) >= 0 gives lag K
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
    this map.  An alignment search that finds nothing yields
    ``Undecided``.

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

    These are the cocycles the family search returns, at the same depth.
    """
    cfg = cfg or RunConfig()
    kl_depth = min(cfg.depth, 3)
    codes = isinstance(h, BlockCode) and isinstance(h_inv, BlockCode)
    if codes and _inverse_exactly(h, h_inv) == (True, None):
        kl1, kl2 = (
            OrbitCocyclePair(
                constant(m.source, 0, kl_depth), constant(m.source, 1, kl_depth)
            )
            for m in (h, h_inv)
        )
        return Verdict("Conjugacy", lag=0, cocycles=(kl1, kl2), depth=cfg.depth)
    try:
        kl1, kl2, direct_wit, lag = _align(h, h_inv, kl_depth, cfg)
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
    transfers = check_strong_coe(h, h_inv, cfg, kl1, kl2)
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
