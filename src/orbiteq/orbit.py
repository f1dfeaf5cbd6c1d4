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
only on eventually periodic ones, and map no point.  They come from
walks over pairs of states of ``h`` (the square of a transducer, Béal,
Carton, Prieur and Sakarovitch 2003), one run on a cylinder word ``w``
and one on ``w[1:]``; the walks live in :mod:`orbiteq.maps`, and
:func:`orbit_cocycles` reads the least pair off them.  :func:`classify`
takes the pair to be inverse and never re-checks it, for any kind of
map; a pair of block codes is then a conjugacy whose cocycles it gives
in closed form.  A mismatch that recurs on a cycle, or a walk that hits
a cap, reports undecided, never a refutation.  :func:`cylinder_family`
and :func:`verify_cocycles` remain for sampled re-checks on explicit
points, the latter by mapping and shifting each point itself.
"""

from collections import Counter, namedtuple
from functools import partial

from .config import COCYCLE_START_DEPTH, RunConfig
from .errors import InconsistentRoutes, NoAlignment, TooLarge
from .functions import (
    CylinderFunction,
    combine,
    constant,
    evaluate,
    find_transfer,
    transfer_obstruction,
)
from .maps import (
    BlockCode,
    _as_transducer,
    _certification_depth,
    _leaf_pair,
    _misaligned,
    _runs,
    _two_runs,
    apply_map,
)
from .shifts import (
    _shortest_walk,
    canonical_point,
    enumerate_points,
    point_with_prefix,
    shift_point,
)

__all__ = [
    "OrbitCocyclePair",
    "Verdict",
    "orbit_cocycles",
    "verify_cocycles",
    "induced_potential",
    "check_potential_identity",
    "check_conjugacy",
    "check_eventual_conjugacy",
    "check_strong_coe",
    "classify",
    "cylinder_family",
    "aperiodic_point_with_prefix",
]


class OrbitCocyclePair(namedtuple("OrbitCocyclePair", "k l")):
    """Nonnegative cylinder functions ``k, l`` aligning orbits under a map."""

    __slots__ = ()

    @property
    def depth(self):
        return self.k.depth

    def difference(self):
        """The cylinder function ``l - k``."""
        return combine(1, self.l, -1, self.k)


class Verdict(
    namedtuple(
        "Verdict",
        "kind lag cocycles transfers witness depth note",
        defaults=(None, None, None, None, None, ""),
    )
):
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

    __slots__ = ()


# ---------------------------------------------------------------------------
# candidate points and their images


def _mismatched_cycle(space, s):
    """A cycle word attachable after state ``s`` that ends at a state != s.

    Looks for ``v`` in the followers of ``s`` and ``u != s`` with
    ``u -> v`` allowed and ``u`` reachable from ``v``; the cycle word is
    then the shortest walk ``v ... u`` (:func:`shifts._shortest_walk`),
    from the first follower ``v`` that has one.  Returns None if no
    follower of ``s`` admits one (then every follower's only predecessor
    is ``s``).
    """
    m = space.matrix
    for v in m.followers[s - 1]:
        walk = _shortest_walk(
            lambda x: m.followers[x - 1], v, lambda x: x != s and m.allows(x, v)
        )
        if walk is not None:
            return walk
    return None


def aperiodic_point_with_prefix(space, word):
    """A canonical point with nonempty preperiod starting with ``word``.

    Such points exist in every cylinder: were every follower of every
    state entered only from that state, all column sums would be 1 and
    the matrix a permutation, which is excluded.  Unless the periodic
    representative already has a preperiod, the word is extended by the
    shortest walk to a state that admits a closing cycle whose last
    symbol differs (:func:`_mismatched_cycle`), so no preperiod symbol
    can be absorbed.  Of the shortest extensions this takes the
    lexicographically least, as a walk with first-reached parents does.
    """
    word = tuple(word)
    z = point_with_prefix(space, word)
    if z.preperiod:
        return z
    fol = space.matrix.followers
    walk = _shortest_walk(
        lambda x: fol[x - 1],
        word[-1],
        lambda x: _mismatched_cycle(space, x) is not None,
    )
    pre = word + walk[1:]
    return canonical_point(space, pre, _mismatched_cycle(space, pre[-1]))


def cylinder_family(space, depth, cfg):
    """Points to re-check per depth-cylinder: the enumerated members within
    the constants ``RunConfig.max_pre`` and ``RunConfig.max_cyc``, read
    off ``cfg``, plus one periodic and one preperiod-bearing
    representative each.

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
        fam[w] = tuple(sorted(pts))
    return fam


# ---------------------------------------------------------------------------
# orbit cocycles


def orbit_cocycles(h, depth):
    """The minimal orbit cocycle pair of ``h`` at the given cylinder depth.

    For each depth-cylinder ``[w]`` the returned ``(k, l)`` is the
    lexicographically least pair (minimize ``l``, then ``k``) with
    ``sigma^k h(sigma x) = sigma^l h(x)`` for *every* point ``x`` of
    ``[w]``, not only for eventually periodic ones.  The runs on ``w``
    (side A) and on ``w[1:]`` (side B) of all cylinders come from one
    depth-first walk (:func:`maps._two_runs`); no point is mapped.

    * ``c = l - k`` is how far side A is ahead in output at the first
      node, breadth first, of the square of ``h`` where the two runs share
      a state (:func:`maps._difference`).  From there both sides emit one
      stream, so ``c`` aligns a subcylinder of ``[w]``; for an injective
      ``h``, as every map :func:`classify` is given, no other ``c`` does.
    * ``l`` is ``max(c, 0)`` plus the most symbol pairs any walk compares
      up to its last mismatch, with ``c`` dropped from the side ahead
      (:func:`maps._last_mismatch`): the aligning ``l`` are those past
      every mismatch.  Runs that already end in one state take no walk:
      ``c`` is their output lead and ``l`` is read off the two outputs.

    Runs that never share a state take ``c`` from the first finite walk
    among the offsets outward from the lead (:func:`maps._leaf_pair`).

    Raises
    ------
    NoAlignment
        if on some cylinder a mismatch recurs on a cycle of the walk at
        every candidate difference, or the walks at guessed differences
        hit a cap; the map is then no orbit map, or undecided at the caps.
    TooLarge
        if a product walk hits a cap.
    """
    return _cocycles(_as_transducer(h), depth, {})


def _cocycles(m, depth, memo):
    """:func:`orbit_cocycles` of the transducer ``m``; ``memo``
    (:func:`maps._last_mismatch`) may be shared across depths."""
    src = m.source
    src.words(depth)  # the cap on the tables' words, checked before the walk
    ktab, ltab = {}, {}
    for leaf in _two_runs(m, depth):
        ktab[leaf[0]], ltab[leaf[0]] = _leaf_pair(m, leaf, memo)
    return OrbitCocyclePair(
        CylinderFunction(src, depth, ktab), CylinderFunction(src, depth, ltab)
    )


def verify_cocycles(h, kl, points):
    """Re-check ``sigma^k h(sigma p) = sigma^l h(p)`` for ``kl`` on explicit
    points, mapping each with :func:`~orbiteq.maps.apply_map` and shifting
    with :func:`~orbiteq.shifts.shift_point`.

    Returns ``(True, None)`` or ``(False, witness_point)``.  A negative
    ``k`` or ``l`` raises ``ValueError``.
    """
    src, tgt = h.source, h.target
    for p in points:
        k, l = evaluate(kl.k, p), evaluate(kl.l, p)
        ahead = shift_point(tgt, apply_map(h, shift_point(src, p)), k)
        if ahead != shift_point(tgt, apply_map(h, p), l):
            return False, p
    return True, None


# ---------------------------------------------------------------------------
# the induced potential


def induced_potential(h, kl, f):
    """Carry ``f`` on the target space to the source space along ``kl``.

    The value on a source cylinder is the inclusive sum of ``f`` over the
    first ``l+1`` orbit positions of the image minus the inclusive sum
    over the first ``k+1`` positions of the shifted point's image.  The
    result is constant on cylinders of the returned depth by
    construction: every summand is read off output prefixes that the
    cylinder word determines.  Those prefixes come from one depth-first
    walk of the source words (:func:`maps._runs`), so each shared prefix runs
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
    m = _as_transducer(h)
    d = _certification_depth(m, kl, f.depth)
    df = f.depth
    table = {}
    for w, k, l, out, out_s in _runs(m, kl, d):
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
    one depth-first walk (:func:`maps._runs`) in lexicographic order, which
    stops at the first that fails; no word table of that depth is built.

    The walk skips the subtree of every node ``w`` at least ``kl.depth``
    long where ``l - k = 1`` and the runs on ``w`` and ``w[1:]`` emit one
    stream from there, ``sigma h(x) = h(sigma x)`` on all of ``[w]``: the
    windows ``out[1..l]`` cancel ``out_s[0..k]`` one for one, so the first
    failing word is never skipped.  A block code of window ``w`` runs as
    its :func:`~orbiteq.maps.block_to_transducer` presentation, whose two
    runs share a state from length ``w`` on.

    Returns ``(True, None)`` or ``(False, witness_word)`` where the
    witness is a target word whose indicator fails.

    Raises
    ------
    ValueError
        if ``depth < 1``.
    TooLarge
        if output prefixes cannot be certified within the depth cap, or
        the words of the certified depth exceed the word-table cap.
    """
    if depth < 1:
        raise ValueError("the indicator depth must be at least 1")
    m = _as_transducer(h)
    d = _certification_depth(m, kl, depth)
    for _, k, l, out, out_s in _runs(m, kl, d, skip_settled=True):
        c = Counter(out[i : i + depth] for i in range(l + 1))
        c.subtract(out_s[j : j + depth] for j in range(k + 1))
        c[out[:depth]] -= 1
        for v, mult in c.items():
            if mult != 0:
                return False, v
    return True, None


# ---------------------------------------------------------------------------
# ladder checks


def _intertwining_witness(m, k):
    """A point ``x`` with ``sigma^k m(sigma x) != sigma^(k+1) m(x)``, from
    the shortest word that shows it, or None when there is none."""
    word = _misaligned(m, m.source.words(1), k, k + 1)
    return word and point_with_prefix(m.source, word)


def check_conjugacy(h):
    """Does ``h`` intertwine the shifts, ``h(sigma x) = sigma h(x)`` for
    every point ``x``?

    Decided exactly by one product walk (:func:`maps._misaligned`).
    Returns ``(True, None)`` or ``(False, witness_point)``, the witness
    starting with the shortest word on which the equation fails.
    """
    wit = _intertwining_witness(_as_transducer(h), 0)
    return wit is None, wit


def check_eventual_conjugacy(h, h_inv, K):
    """Check the lag-``K`` intertwining in both directions, exactly.

    Forward: ``sigma_B^K(h(sigma_A x)) = sigma_B^{K+1}(h(x))`` for every
    source point; mirrored with ``h_inv``.  Returns ``(True, None)`` or
    ``(False, witness_point)``.
    """
    if K < 0:
        raise ValueError("lag must be nonnegative")
    wit = _intertwining_witness(_as_transducer(h), K)
    wit = wit or _intertwining_witness(_as_transducer(h_inv), K)
    return wit is None, wit


def check_strong_coe(h, h_inv, kl1, kl2):
    """Transfer functions certifying strong orbit equivalence, if any exist.

    Solves ``l - k = 1 + b - b o sigma`` exactly in both directions, on the
    cocycles ``kl1`` of ``h`` and ``kl2`` of ``h_inv``, which are required
    (:func:`orbit_cocycles` gives them).  Returns ``(b1, b2)``, or ``None``
    when no continuous transfer exists in some direction
    (:func:`~orbiteq.functions.transfer_obstruction` names a periodic point
    that proves it).
    """
    b1 = find_transfer(h.source, kl1.difference(), 1)
    if b1 is None:
        return None
    b2 = find_transfer(h_inv.source, kl2.difference(), 1)
    if b2 is None:
        return None
    return b1, b2


# ---------------------------------------------------------------------------
# classification


def _search_cocycles(cfg, maps):
    """The cocycles of each map of ``maps`` at the least depth from
    ``min(cfg.depth, COCYCLE_START_DEPTH)`` to ``cfg.depth`` at which all
    of them align; raises NoAlignment when they do not at ``cfg.depth``.
    Across depths each map keeps one memo (:func:`maps._last_mismatch`,
    0: no mismatch reachable)."""
    walks = [(_as_transducer(h), {}) for h in maps]
    depths = range(min(cfg.depth, COCYCLE_START_DEPTH), cfg.depth + 1)
    for depth in depths:
        try:
            return [_cocycles(m, depth, memo) for m, memo in walks]
        except NoAlignment:
            if depth == depths[-1]:
                raise


def classify(h, h_inv, cfg=None):
    """Strongest equivalence rung certified for the pair ``(h, h_inv)``.

    The pair must be inverse (:func:`~orbiteq.maps.verify_inverse_pair`);
    ``classify`` never re-checks it, for any kind of map.  Two
    independent routes decide conjugacy: the direct shift-intertwining
    check, and the potential-identity route (eventual conjugacy at the
    least lag the cocycles allow, and only then the induced potential
    equalling composition).  The identity at the finite depth
    ``cfg.depth`` is a necessary condition for conjugacy, not a
    sufficient one, so the routes are inconsistent only when the direct
    check passes and the theorem route fails; that raises
    :class:`InconsistentRoutes`, because it can only be a bug.  A failing
    direct check with a lag and a passing identity is an eventual
    conjugacy whose witness is the direct check's point.

    Weaker rungs: constant cocycle differences ``l - k = 1`` with a
    verified lag give eventual conjugacy; transfer functions give strong
    orbit equivalence; bare cocycles give orbit equivalence, and then the
    note carries the periodic point that shows no transfer exists for
    this map.  The cocycles are exact (:func:`orbit_cocycles`), searched
    at depth ``min(cfg.depth, COCYCLE_START_DEPTH)`` and then at each
    depth up to ``cfg.depth``; an alignment search that finds nothing at
    any of them yields ``Undecided``.

    A pair of block codes is a ``Conjugacy`` with cocycles ``(0, 1)`` on
    every cylinder, in closed form, with no walk and no images:

    * a block code commutes with the shift, and a shift-commuting
      homeomorphism is a conjugacy;
    * ``l = 0`` on a cylinder would need ``h(x) = sigma^k h(sigma x)
      = sigma^(k+1) h(x)``, a periodic image, for every ``x`` in it, but
      the cylinder holds non-periodic ``x``, and an injective ``h`` that
      commutes with the shift maps them to non-periodic points; so
      ``(0, 1)`` is the least pair.

    These are the cocycles :func:`orbit_cocycles` returns at depth
    ``min(cfg.depth, COCYCLE_START_DEPTH)``.
    """
    cfg = cfg or RunConfig()
    if isinstance(h, BlockCode) and isinstance(h_inv, BlockCode):
        kl_depth = min(cfg.depth, COCYCLE_START_DEPTH)
        kl1, kl2 = (
            OrbitCocyclePair(
                constant(m.source, 0, kl_depth), constant(m.source, 1, kl_depth)
            )
            for m in (h, h_inv)
        )
        return Verdict("Conjugacy", lag=0, cocycles=(kl1, kl2), depth=cfg.depth)
    m, m_inv = _as_transducer(h), _as_transducer(h_inv)
    try:
        kl1, kl2 = _search_cocycles(cfg, [m, m_inv])
    except NoAlignment as e:
        return Verdict("Undecided", depth=cfg.depth, note=str(e))
    verdict = partial(Verdict, cocycles=(kl1, kl2), depth=cfg.depth)
    direct_wit = _intertwining_witness(m, 0)
    g1 = kl1.difference()
    g2 = kl2.difference() if g1.is_constant(1) else None
    eventual = g2 is not None and g2.is_constant(1)
    psi_ok = psi_wit = None
    if eventual:  # without a lag the theorem route fails whatever psi says
        try:
            psi_ok, psi_wit = check_potential_identity(m, kl1, cfg.depth)
        except TooLarge:
            pass  # psi undecided: the theorem route neither passes nor fails

    if direct_wit is None and (not eventual or psi_ok is False):
        raise InconsistentRoutes(
            "direct conjugacy check (True) disagrees with the "
            f"potential-identity route (eventual={eventual}, "
            f"potential identity={psi_ok})"
        )

    if direct_wit is None:
        return verdict("Conjugacy", lag=0)
    if eventual:
        # each point aligns at (k(x), k(x) + 1); shifting by K - k(x) >= 0
        # gives lag K, and no smaller K holds on the cylinder of greatest k
        return verdict(
            "EventualConjugacy",
            lag=max(kl1.k.max(), kl2.k.max()),
            witness=psi_wit if psi_ok is False else direct_wit,
        )
    transfers = check_strong_coe(h, h_inv, kl1, kl2)
    if transfers is not None:
        return verdict("StrongCOE", transfers=transfers, witness=direct_wit)
    side, (p, s) = next(
        (side, found)
        for side, hh, kl, g in (("forward", h, kl1, g1), ("backward", h_inv, kl2, g2))
        if (found := transfer_obstruction(hh.source, g or kl.difference(), 1))
    )
    return verdict(
        "COE",
        witness=direct_wit,
        note=(
            f"no strong orbit equivalence transfer exists: {side} "
            f"l - k - 1 sums to {s} over the cycle {','.join(map(str, p.cycle))}"
        ),
    )
